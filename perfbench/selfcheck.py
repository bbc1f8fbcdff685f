#!/usr/bin/env python3
"""Self-check of the benchmark's own helpers, and its steadiness command.

    python3 selfcheck.py                 # helper tests (no build, no runs)
    python3 selfcheck.py steady --runs 10 [--workload serve-mix ...]

Runs from any directory. `steady` runs run.py --runs times per workload,
each run_seconds long (from BENCHMARK.json) with seeds 1, 2, ..., and
prints, per end-to-end metric, the median and the interquartile spread as
a share of the median against the metric's bound ("ok" below a third of
the bound), plus each workload's failed share.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import benchlib  # noqa: E402


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def test_statistics():
    expect(benchlib.median([3, 1, 2]) == 2.0, "odd median")
    expect(benchlib.median([4, 1, 3, 2]) == 2.5, "even median")
    expect(benchlib.median([7]) == 7.0, "single median")
    values = list(range(1, 101))
    expect(benchlib.percentile(values, 50) == 50.0, "p50 of 1..100")
    expect(benchlib.percentile(values, 90) == 90.0, "p90 of 1..100")
    expect(benchlib.percentile(values, 99) == 99.0, "p99 of 1..100")
    expect(benchlib.percentile(values, 100) == 100.0, "p100 of 1..100")
    expect(benchlib.percentile([5, 1, 3], 90) == 5.0, "p90 of 3 values")
    try:
        benchlib.median([])
    except ValueError:
        pass
    else:
        raise AssertionError("median of nothing must raise")
    # statistics.quantiles(n=4) of 1..9 (exclusive method): 2.5 and 7.5.
    expect(abs(benchlib.spread(list(range(1, 10))) - 5.0 / 5.0) < 1e-12,
           "spread of 1..9")


def test_lru_model():
    model = benchlib.LruModel(2)
    outcomes = [model.access(key, False) for key in "ABACBA"]
    # A miss, B miss, A hit, C miss (evicts B), B miss (evicts A), A miss
    # (evicts C).
    expect(outcomes == ["miss", "miss", "hit", "miss", "miss", "miss"],
           "LRU outcomes %s" % outcomes)
    expect(model.counters() == {"cache_hits": 1, "cache_misses": 5,
                                "cache_evictions": 3, "uncacheable": 0},
           "LRU counters %s" % model.counters())
    expect(model.access("F", True) == "uncacheable", "faulted is uncacheable")
    expect(model.order == ["A", "B"], "faulted specs never enter the cache")
    off = benchlib.LruModel(0)
    expect([off.access("A", False) for _ in range(3)] == ["miss"] * 3,
           "capacity 0 never hits")
    expect(off.evictions == 0, "capacity 0 never evicts")


def test_requests():
    for workload in benchlib.WORKLOADS.values():
        first = benchlib.make_requests(workload, 7, 3)
        again = benchlib.make_requests(workload, 7, 3)
        other = benchlib.make_requests(workload, 8, 3)
        expect([r["line"] for r in first] == [r["line"] for r in again],
               "%s: same seed, same requests" % workload.name)
        expect([r["line"] for r in first] != [r["line"] for r in other],
               "%s: another seed, other requests" % workload.name)
        expect(len(first) == 3 * workload.block_size,
               "%s: whole blocks" % workload.name)
        size = workload.block_size
        for block in range(3):
            part = first[block * size:(block + 1) * size]
            counts = {}
            for r in part:
                counts[r["kind"]] = counts.get(r["kind"], 0) + 1
            want = {}
            for kind, count in workload.block:
                want[kind] = want.get(kind, 0) + count
            for kind in workload.repeats:
                want[kind] += 1
            expect(counts == want, "%s: block make-up %s, want %s"
                   % (workload.name, counts, want))
        keys = set()
        for i, r in enumerate(first):
            if r["repeat_of"] is None:
                expect(r["key"] not in keys, "%s: fresh request %d repeats"
                       % (workload.name, i))
                keys.add(r["key"])
            else:
                source = first[r["repeat_of"]]
                expect(r["repeat_of"] < i and source["key"] == r["key"],
                       "%s: repeat %d copies an earlier request"
                       % (workload.name, i))
        warm = benchlib.warmup_requests(workload)
        expect(sorted(w["spec"] for w in warm)
               == sorted(workload.distinct_specs()),
               "%s: one warm-up per distinct spec" % workload.name)

    mix = benchlib.WORKLOADS["serve-mix"]
    requests = benchlib.make_requests(mix, 1, 1)
    faulted = sum(1 for r in requests if benchlib.is_faulted(r["key"][0]))
    repeats = sum(1 for r in requests if r["repeat_of"] is not None)
    expect(faulted * 10 == len(requests), "serve-mix: 10% faulted")
    expect(repeats * 100 == 15 * len(requests), "serve-mix: 15% repeats")
    families = {k.spec.split(":")[0] for k in mix.kinds}
    modes = {k.spec.split("/")[2] for k in mix.kinds}
    disciplines = {k.spec.split("/")[3] for k in mix.kinds}
    expect(len(families) == 9, "serve-mix families %s" % families)
    expect(len(modes) == 4, "serve-mix modes %s" % modes)
    expect(len(disciplines) == 3, "serve-mix disciplines %s" % disciplines)
    cacheable = [s for s in mix.distinct_specs()
                 if not benchlib.is_faulted(s)]
    expect(mix.cache < len(cacheable), "serve-mix cache below its specs")


def test_bounds():
    expect(benchlib.step_bound(benchlib.STAR8) == 50.0, "star:8 bound")
    expect(benchlib.step_bound(benchlib.MESH128) == 544.0, "mesh:128 bound")
    expect(benchlib.step_bound("mesh:24/xy/erew/fifo") is None,
           "xy mesh is outside Theorem 3.2")
    expect(benchlib.step_bound(
        "star:7/two-phase/erew/fifo/faults:links=0.05") is None,
        "faulted star is outside Theorem 2.5")


def test_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(benchlib.WORKLOADS), "workload names %s" % names)
    layer = [m["name"] for m in spec["per_layer"]]
    expect(layer == list(run.PER_LAYER_UNITS), "per-layer names")
    for m in spec["per_layer"]:
        expect(run.PER_LAYER_UNITS[m["name"]] == m["unit"],
               "unit of %s" % m["name"])


TESTS = [test_statistics, test_lru_model, test_requests, test_bounds,
         test_benchmark_json]


def self_test():
    for test in TESTS:
        test()
        print("ok   %s" % test.__name__)
    print("selfcheck: %d tests passed" % len(TESTS))
    return 0


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0
    for name in workloads:
        values = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (name, seed, proc.returncode))
                worst = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {m: round(e["value"], 4)
                 for m, e in result["metrics"].items()})), flush=True)
        print("== %s: %d runs of %ss, failed/attempted %s"
              % (name, args.runs, seconds, sorted(shares)))
        for metric in spec["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            share = benchlib.spread(series)
            ok = share < metric["bound"] / 3
            worst = worst or (0 if ok else 1)
            print("   %-24s median %12.4f %-6s spread %6.2f%% bound %5.1f%%"
                  " %s" % (metric["name"], benchlib.median(series),
                           metric["unit"], share * 100, metric["bound"] * 100,
                           "ok" if ok else "WIDE"), flush=True)
    return worst


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("steady", help="runs each workload N times")
    run_parser.add_argument("--runs", type=int, default=10)
    run_parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.command == "steady":
        return steady(args)
    return self_test()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
