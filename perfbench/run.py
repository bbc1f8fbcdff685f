#!/usr/bin/env python3
"""The levnet benchmark: drives the shipped levnet_serve over stdio, as a
client would, checks every output, and prints the metrics.

    python3 perfbench/run.py --workload star8-erew --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. It builds levnet_serve and the benchmark's
helper levnet_perfbench from source into .bench_build/ first (a no-op once
built). Workloads: star8-erew, mesh128-crcw, serve-mix (see README.md).

--trace 0 prints the end-to-end metrics (setup_s, req_per_s, req_p50_ms,
net_steps_per_pram_step, peak_rss_mb). --trace 1 makes the same untraced
serve pass, then replays its warm-ups and the first third of its requests
through the library with a span around each layer (levnet_perfbench trace)
and prints the per-layer metrics instead. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status 0 when the run completed (failures are counted, not fatal);
non-zero, without a result line, when the benchmark cannot run at all.
"""

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SERVER = os.path.join(BUILD_DIR, "levnet", "tools", "levnet_serve")
HELPER = os.path.join(BUILD_DIR, "levnet_perfbench")

# A run ends within 180 s; past this many seconds after the build, the
# server and the helper are killed and what is missing counts as failed.
RUN_BUDGET_S = 165
REPORT_MARK = '"report": {'


class BenchError(Exception):
    """The benchmark cannot run (no sources, build failure, ...)."""


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no levnet sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "levnet_serve", "levnet_perfbench"],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for command in steps:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(command))


# --------------------------------------------------------------- the server


class Server:
    """One levnet_serve process on pipes; requests go in as lines, and the
    responses come back one line each, in request order. Reads give up at
    the run's deadline, so a request that never completes cannot hang the
    benchmark."""

    def __init__(self, workload, deadline):
        self.proc = subprocess.Popen(
            [SERVER] + workload.server_args(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.deadline = deadline
        self.pending = b""

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def receive(self):
        """The next response line, or None at EOF or the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return line.decode()

    def close(self):
        """Closes stdin, reads the rest (the stats line) and reaps the
        process; kills it at the deadline. Returns (stats dict or None,
        exit code, peak RSS in MB)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        last = None
        while True:
            line = self.receive()
            if line is None:
                break
            last = line
        if time.monotonic() >= self.deadline:
            self.proc.kill()  # not reaped yet, so the pid is still ours
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        stats = None
        if last is not None:
            try:
                stats = json.loads(last)
            except ValueError:
                stats = None
        return stats, self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def drive(server, lines, outstanding):
    """Closed loop: keeps `outstanding` requests in flight on the one
    connection. Returns (responses, latencies in s, elapsed s); a request
    without a response gets None in both lists."""
    n = len(lines)
    sent_at = [0.0] * n
    responses = [None] * n
    latencies = [None] * n
    next_send = 0
    start = time.perf_counter()
    for i in range(n):
        while next_send < n and next_send < i + outstanding:
            sent_at[next_send] = time.perf_counter()
            try:
                server.send(lines[next_send])
            except BrokenPipeError:
                return responses, latencies, time.perf_counter() - start
            next_send += 1
        line = server.receive()
        now = time.perf_counter()
        if line is None:
            break
        responses[i] = line
        latencies[i] = now - sent_at[i]
    return responses, latencies, time.perf_counter() - start


def setup(workload, warmups, deadline):
    """Spawns the server and runs the warm-up pass. Returns (server,
    seconds, warm-up responses)."""
    start = time.perf_counter()
    server = Server(workload, deadline)
    responses, _, _ = drive(server, [w["line"] for w in warmups],
                            workload.outstanding)
    return server, time.perf_counter() - start, responses


# ---------------------------------------------------------------- checking


def report_body(response):
    """The write_report_fields body of an ok response line."""
    _, mark, tail = response.partition(REPORT_MARK)
    if not mark or not tail.endswith("}}"):
        return None
    return tail[:-2]


class Checker:
    """Collects the output checks of one run. A failed request check marks
    that request failed; a failed stream check (stats, exit code) marks
    every request failed."""

    def __init__(self, n):
        self.failed = [False] * n
        self.problems = []
        self.stream_ok = True

    def request(self, i, ok, message):
        if not ok:
            self.failed[i] = True
            self.problems.append("request %d: %s" % (i, message))

    def stream(self, ok, message):
        if not ok:
            self.stream_ok = False
            self.problems.append(message)

    def failed_count(self):
        if not self.stream_ok:
            return len(self.failed)
        return sum(self.failed)


def check_responses(checker, requests, responses, first_seq):
    """Order, ids, status, completeness, repeats and the paper's bounds."""
    parsed = [None] * len(requests)
    for i, (request, line) in enumerate(zip(requests, responses)):
        if line is None:
            checker.request(i, False, "no response")
            continue
        try:
            response = json.loads(line)
        except ValueError:
            checker.request(i, False, "unparseable response")
            continue
        if response.get("status") != "ok":
            checker.request(i, False, "error response: %s"
                            % response.get("error"))
            continue
        checker.request(i, response.get("seq") == first_seq + i,
                        "seq %s, expected %d" % (response.get("seq"),
                                                 first_seq + i))
        checker.request(i, response.get("id") == request["tag"],
                        "id %r, expected %r" % (response.get("id"),
                                                request["tag"]))
        report = response.get("report", {})
        checker.request(i, report.get("complete") is True,
                        "report not complete")
        bound = benchlib.step_bound(request["key"][0])
        if bound is not None:
            checker.request(i, report.get("max_step_network", 0) <= bound,
                            "worst PRAM step %s exceeds the paper's bound "
                            "%s" % (report.get("max_step_network"), bound))
        if request["repeat_of"] is not None:
            original = responses[request["repeat_of"]]
            checker.request(
                i, original is not None
                and report_body(original) == report_body(line),
                "repeat of request %d has a different report"
                % request["repeat_of"])
        parsed[i] = response
    return parsed


def verify_sample(workload, requests, seed):
    """Indices to recompute through the library: the first request of every
    (spec, program) and a seeded sample of the rest."""
    import random

    firsts, seen = [], set()
    for i, request in enumerate(requests):
        kind = request["key"][:2]
        if kind not in seen:
            seen.add(kind)
            firsts.append(i)
    chosen = set(firsts)
    others = [i for i in range(len(requests)) if i not in chosen]
    rng = random.Random("levnet-perfbench-verify:%s:%d"
                        % (workload.name, seed))
    extra = rng.sample(others, min(workload.verify_extra, len(others)))
    return sorted(firsts + extra)


def run_helper(args, deadline):
    """Runs levnet_perfbench; returns (exit code, stdout, stderr tail). The
    helper is killed at the run's deadline."""
    try:
        proc = subprocess.run([HELPER] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return -1, "", "killed at the run's deadline"
    return proc.returncode, proc.stdout, proc.stderr.strip()[-500:]


def check_against_library(checker, requests, responses, indices, scratch,
                          deadline):
    """Served report == an independent library run, whose memory equals
    ReferencePram's and passes the program's validate()."""
    path = os.path.join(scratch, "verify.jsonl")
    with open(path, "w") as out:
        for i in indices:
            out.write(requests[i]["line"] + "\n")
    code, out, err = run_helper(["verify", path], deadline)
    lines = out.splitlines()
    if code != 0 or len(lines) != len(indices):
        checker.stream(False, "levnet_perfbench verify failed: " + err)
        return
    for i, line in zip(indices, lines):
        reference_ok, valid_ok, body = line.split("\t", 2)
        checker.request(i, reference_ok == "1",
                        "memory differs from ReferencePram")
        checker.request(i, valid_ok == "1", "program validate() failed")
        served = responses[i]
        checker.request(i, served is not None and report_body(served) == body,
                        "served report differs from the library run")


# ------------------------------------------------------------------ the run


def serve_pass(workload, requests, warmups, checker, deadline):
    """Set-up (workload.setups times; the last server stays up), the timed
    closed-loop pass, and the stream checks. Returns a dict of results."""
    setup_times = []
    server = None
    warm_responses = []
    for attempt in range(workload.setups):
        server, seconds, warm_responses = setup(workload, warmups, deadline)
        setup_times.append(seconds)
        if attempt + 1 < workload.setups:
            _, code, _ = server.close()
            checker.stream(code == 0, "set-up server exited %d" % code)
    try:
        warm_ok = all(line is not None and '"status": "ok"' in line
                      for line in warm_responses)
        checker.stream(warm_ok, "a warm-up request failed")
        lines = [r["line"] for r in requests]
        responses, latencies, elapsed = drive(server, lines,
                                              workload.outstanding)
    except BaseException:
        server.kill()
        raise
    stats, code, peak_rss_mb = server.close()
    checker.stream(code == 0, "levnet_serve exited %d" % code)

    # The farm's counters must equal the LRU model over the same requests.
    if stats is None:
        checker.stream(False, "no stats line")
    else:
        total = len(warmups) + len(requests)
        checker.stream(stats.get("requests") == total
                       and stats.get("ok") == total
                       and stats.get("errors") == 0,
                       "stats line totals %s" % stats)
        for name, value in lru_counters(workload, warmups, requests).items():
            checker.stream(stats.get(name) == value,
                           "stats %s = %s, LRU model says %d"
                           % (name, stats.get(name), value))
    return {
        "setup_times": setup_times,
        "responses": responses,
        "warm_responses": warm_responses,
        "latencies": latencies,
        "elapsed": elapsed,
        "stats": stats or {},
        "peak_rss_mb": peak_rss_mb,
    }


def lru_counters(workload, warmups, requests):
    """The farm's cache counters as benchlib.LruModel predicts them."""
    model = benchlib.LruModel(workload.cache)
    for spec in [w["spec"] for w in warmups] + [r["key"][0]
                                                 for r in requests]:
        model.access(spec, benchlib.is_faulted(spec))
    return model.counters()


def end_to_end_metrics(result, parsed):
    done = [lat for lat in result["latencies"] if lat is not None]
    reports = [p["report"] for p in parsed if p is not None]
    net = sum(r["network_steps"] for r in reports)
    pram = sum(r["pram_steps"] for r in reports)
    return {
        "setup_s": (benchlib.median(result["setup_times"]), "s"),
        "req_per_s": (len(done) / result["elapsed"], "1/s"),
        "req_p50_ms": (benchlib.median(done) * 1e3 if done else 0.0, "ms"),
        "net_steps_per_pram_step": (net / pram if pram else 0.0, "steps"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


PER_LAYER_UNITS = {
    "serve.batch_size_mean": "requests",
    "serve.cache_hit_ratio": "ratio",
    "serve.decode_us": "us",
    "serve.encode_us": "us",
    "serve.resolve_hit_us": "us",
    "serve.latency_p90_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.latency_samples": "count",
    "machine.build_ms": "ms",
    "faults.build_ms": "ms",
    "pram.make_program_ms": "ms",
    "emulation.ms_per_pram_step": "ms",
    "emulation.merges_per_pram_step": "merges",
    "emulation.rehashes_per_pram_step": "rehashes",
    "sim.transmissions_per_pram_step": "hops",
    "sim.ns_per_transmission": "ns",
    "sim.us_per_step": "us",
    "sim.peak_in_flight": "packets",
    "routing.ns_per_hop": "ns",
    "hashing.ns_per_key": "ns",
    "bench.trace_overhead_pct": "%",
}


def per_layer_metrics(workload, result, checker, warmups, requests, scratch,
                      deadline):
    """Replays the final server's warm-ups and the first third of its timed
    requests through levnet_perfbench trace (twice: plain and traced); the
    plain response lines must equal the server's byte for byte."""
    requests = requests[:max(1, (len(requests) + 2) // 3)]
    path = os.path.join(scratch, "trace.jsonl")
    with open(path, "w") as out:
        for item in warmups + requests:
            out.write(item["line"] + "\n")
    code, out, err = run_helper(["trace", path, "--cache",
                                 str(workload.cache)], deadline)
    lines = out.splitlines()
    if code != 0 or not lines:
        checker.stream(False, "levnet_perfbench trace failed: " + err)
        return {}
    replayed = [line[2:] for line in lines[:-1] if line.startswith("R\t")]
    served = (result["warm_responses"]
              + result["responses"][:len(requests)])
    checker.stream(len(replayed) == len(served),
                   "trace replayed %d requests, server answered %d"
                   % (len(replayed), len(served)))
    offset = len(warmups)
    for i, (mine, theirs) in enumerate(zip(replayed, served)):
        if i >= offset:
            checker.request(i - offset, mine == theirs,
                            "traced replay differs from the server's line")
        else:
            checker.stream(mine == theirs, "warm-up %d differs in replay" % i)
    layer = json.loads(lines[-1])
    for name, value in lru_counters(workload, warmups, requests).items():
        checker.stream(layer.get(name) == value,
                       "replay %s = %s, LRU model says %d"
                       % (name, layer.get(name), value))

    done = [lat * 1e3 for lat in result["latencies"] if lat is not None]
    stats = result["stats"]
    batches = stats.get("batches") or 1
    layer["serve.batch_size_mean"] = stats.get("requests", 0) / batches
    layer["serve.latency_p90_ms"] = benchlib.percentile(done, 90) if done \
        else 0.0
    layer["serve.latency_p99_ms"] = benchlib.percentile(done, 99) if done \
        else 0.0
    layer["serve.latency_samples"] = len(done)
    return {name: (layer[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}


def run(args):
    workload = benchlib.WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError("unknown workload %r (valid: %s)" % (
            args.workload, ", ".join(sorted(benchlib.WORKLOADS))))
    build()
    blocks = workload.blocks_for(args.seconds)
    requests = benchlib.make_requests(workload, args.seed, blocks)
    warmups = benchlib.warmup_requests(workload)
    log("%s: %d requests in %d blocks, seed %d"
        % (workload.name, len(requests), blocks, args.seed))

    deadline = time.monotonic() + RUN_BUDGET_S
    checker = Checker(len(requests))
    result = serve_pass(workload, requests, warmups, checker, deadline)
    parsed = check_responses(checker, requests, result["responses"],
                             len(warmups))
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as scratch:
        check_against_library(checker, requests, result["responses"],
                              verify_sample(workload, requests, args.seed),
                              scratch, deadline)
        if args.trace:
            metrics = per_layer_metrics(workload, result, checker, warmups,
                                        requests, scratch, deadline)
        else:
            metrics = end_to_end_metrics(result, parsed)
    for problem in checker.problems[:20]:
        log("CHECK FAILED: " + problem)
    return {
        "correct": not checker.problems,
        "attempted": len(requests),
        "failed": checker.failed_count(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the server and helper die with
    # the run instead of outliving it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as error:
        log("error: %s" % error)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
