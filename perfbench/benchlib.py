"""Helpers of the levnet benchmark: workloads, request generation, the LRU
model of the serve farm, and the statistics the metrics are made of.

Nothing here starts a process or reads a clock, so selfcheck.py can test
all of it directly.
"""

import json
import math
import random
import statistics

# ---------------------------------------------------------------- statistics


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it (q in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 100:
        raise ValueError("percentile q must lie in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def spread(values):
    """Interquartile distance as a share of the median, the way the
    steadiness gate measures it (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# ----------------------------------------------------------------- LRU model


class LruModel:
    """The serve farm's cache policy, simulated from the request list alone:
    fault-free specs are cached by canonical text with least-recently-used
    eviction beyond `capacity`; faulted specs are never cached."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []  # most recently used first
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.uncacheable = 0

    def access(self, spec_key, faulted):
        if faulted:
            self.uncacheable += 1
            return "uncacheable"
        if spec_key in self.order:
            self.order.remove(spec_key)
            self.order.insert(0, spec_key)
            self.hits += 1
            return "hit"
        self.misses += 1
        if self.capacity == 0:
            return "miss"
        self.order.insert(0, spec_key)
        while len(self.order) > self.capacity:
            self.order.pop()
            self.evictions += 1
        return "miss"

    def counters(self):
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "uncacheable": self.uncacheable,
        }


# ----------------------------------------------------------------- workloads


def is_faulted(spec):
    """Faulted specs are uncacheable and outside the paper's bounds."""
    return "/faults:" in spec


class Kind:
    """One (spec, program) request kind. `spec` is written in canonical form
    (the server echoes it back unchanged for fault-free specs)."""

    def __init__(self, spec, program, steps=None):
        self.spec = spec
        self.program = program
        self.steps = steps


class Workload:
    """A fixed-work workload: a run sends `blocks` blocks of requests, each
    block with the same make-up of kinds, so every run attempts whole
    blocks of the same operations.

    block        list of (kind index, count) for fresh requests per block
    repeats      kind indices; each adds one exact repeat per block of an
                 earlier request of that kind in the same block
    block_s      nominal server seconds per block on the reference host,
                 which turns --seconds into a block count
    outstanding  requests in flight on the one connection (closed loop)
    setups       set-ups per run; setup_s is their median
    """

    def __init__(self, name, kinds, block, repeats, block_s, outstanding,
                 setups, cache, workers, queue_depth, verify_extra):
        self.name = name
        self.kinds = kinds
        self.block = block
        self.repeats = repeats
        self.block_s = block_s
        self.outstanding = outstanding
        self.setups = setups
        self.cache = cache
        self.workers = workers
        self.queue_depth = queue_depth
        self.verify_extra = verify_extra

    @property
    def block_size(self):
        return sum(count for _, count in self.block) + len(self.repeats)

    def blocks_for(self, seconds):
        return max(1, int(round(seconds / self.block_s)))

    def server_args(self):
        return ["--cache", str(self.cache), "--workers", str(self.workers),
                "--queue-depth", str(self.queue_depth)]

    def distinct_specs(self):
        seen = []
        for kind in self.kinds:
            if kind.spec not in seen:
                seen.append(kind.spec)
        return seen


STAR8 = "star:8/two-phase/erew/fifo/threads:2"
MESH128 = "mesh:128/three-stage/crcw-combining/furthest-first"

MIX_KINDS = [
    Kind("star:7/two-phase/erew/fifo", "permutation"),
    Kind("butterfly:8/two-phase/crew/nearest-first", "broadcast-crew"),
    Kind("nshuffle:4/two-phase/erew/furthest-first", "prefix-sum"),
    Kind("shuffle:4x4/two-phase/crcw-combining/fifo", "histogram"),
    Kind("ccc:6/sweep/crew/fifo", "list-ranking"),
    Kind("hypercube:10/ecube/crcw/nearest-first", "logical-or"),
    Kind("linear:64/greedy/erew/fifo", "odd-even-sort"),
    Kind("mesh:32/three-stage/crcw-combining/furthest-first",
         "hotspot-write"),
    Kind("torus:16/greedy/crew/nearest-first", "matvec"),
    Kind("mesh:24/xy/erew/fifo", "compaction"),
    Kind("hypercube:9/valiant/crcw-combining/fifo", "matmul"),
    Kind("star:6/greedy/crcw-combining/furthest-first", "max-crcw"),
    Kind("star:7/two-phase/erew/fifo/faults:links=0.05,procs=0.02",
         "permutation", steps=2),
    Kind("shuffle:4x4/two-phase/crew/nearest-first/faults:links=0.05",
         "permutation"),
]

WORKLOADS = {
    "star8-erew": Workload(
        "star8-erew",
        kinds=[Kind(STAR8, "permutation", steps=2)],
        block=[(0, 1)], repeats=[], block_s=0.95, outstanding=1, setups=9,
        cache=8, workers=1, queue_depth=1, verify_extra=2),
    "mesh128-crcw": Workload(
        "mesh128-crcw",
        kinds=[Kind(MESH128, "histogram")],
        block=[(0, 1)], repeats=[], block_s=2.1, outstanding=1, setups=3,
        cache=8, workers=1, queue_depth=1, verify_extra=1),
    "serve-mix": Workload(
        "serve-mix",
        kinds=MIX_KINDS,
        block=[(0, 3), (1, 3), (2, 3), (3, 3), (4, 2), (5, 3), (6, 2),
               (7, 3), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (13, 2)],
        repeats=[0, 1, 3, 5, 7, 2], block_s=1.25, outstanding=8, setups=9,
        cache=8, workers=2, queue_depth=8, verify_extra=20),
}


def request_line(spec, program, seed, steps, tag):
    fields = {"spec": spec, "program": program, "seed": seed}
    if steps is not None:
        fields["steps"] = steps
    fields["id"] = tag
    return json.dumps(fields)


def make_requests(workload, seed, blocks):
    """The run's timed request list for `seed`: `blocks` blocks, each a
    seeded shuffle of the block's fresh requests (fresh 63-bit request
    seeds) with its repeats inserted after their originals.

    Returns a list of dicts with keys line, kind, key (the
    (spec, program, seed, steps) identity) and repeat_of (index or None).
    """
    rng = random.Random("levnet-perfbench:%s:%d" % (workload.name, seed))
    requests = []
    for block in range(blocks):
        fresh = []
        for kind_index, count in workload.block:
            for _ in range(count):
                fresh.append((kind_index, rng.getrandbits(63)))
        rng.shuffle(fresh)
        entries = [{"kind": k, "seed": s, "repeat_of": None}
                   for k, s in fresh]
        for kind_index in workload.repeats:
            sources = [i for i, e in enumerate(entries)
                       if e["kind"] == kind_index and e["repeat_of"] is None]
            source = rng.choice(sources)
            position = rng.randint(source + 1, len(entries))
            entries.insert(position, {"kind": kind_index,
                                      "seed": entries[source]["seed"],
                                      "repeat_of": source})
        # Resolve in-block source positions to run-wide indices after all
        # insertions: match the repeat to its original by (kind, seed).
        base = len(requests)
        for i, entry in enumerate(entries):
            kind = workload.kinds[entry["kind"]]
            repeat_of = None
            if entry["repeat_of"] is not None:
                repeat_of = next(
                    base + j for j, other in enumerate(entries[:i])
                    if other["repeat_of"] is None
                    and other["kind"] == entry["kind"]
                    and other["seed"] == entry["seed"])
            tag = "b%d-%d" % (block, i)
            requests.append({
                "line": request_line(kind.spec, kind.program, entry["seed"],
                                     kind.steps, tag),
                "tag": tag,
                "kind": entry["kind"],
                "key": (kind.spec, kind.program, entry["seed"], kind.steps),
                "repeat_of": repeat_of,
            })
    return requests


def warmup_requests(workload):
    """One cheap request per distinct spec (a one-step permutation, legal
    in every mode): builds every machine the workload uses once."""
    return [{"line": request_line(spec, "permutation", 1, 1, "warm%d" % i),
             "tag": "warm%d" % i, "spec": spec}
            for i, spec in enumerate(workload.distinct_specs())]


# ----------------------------------------------------------- paper's bounds

# Star: the E6 table's worst PRAM step on the n-star is at most 4.29x the
# diameter (star(n=6): 30 steps over diameter 7); 5x leaves 16% slack.
STAR_DIAMETER_MULTIPLE = 5.0
# Mesh (Theorem 3.2, 4n + o(n)): n/4 extra steps stand for the o(n) term.
MESH_SLACK_PER_N = 0.25


def step_bound(spec):
    """The per-PRAM-step network-step bound the paper gives for `spec`, or
    None when the spec is outside the two checked results (fault-free
    two-phase star; fault-free three-stage square mesh)."""
    if is_faulted(spec):
        return None
    parts = spec.split("/")
    family, _, param = parts[0].partition(":")
    router = parts[1] if len(parts) > 1 else ""
    if family == "star" and router == "two-phase":
        n = int(param)
        return STAR_DIAMETER_MULTIPLE * ((3 * (n - 1)) // 2)
    if family == "mesh" and router == "three-stage" and "x" not in param:
        n = int(param)
        return 4 * n + MESH_SLACK_PER_N * n
    return None
