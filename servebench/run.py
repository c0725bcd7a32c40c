#!/usr/bin/env python3
"""Serving benchmark of the graphdim line-protocol server (stdlib only).

Builds the server and the benchmark binary in Release, prepares the corpora,
then for each workload starts a fresh `gdim_tool serve-net`, drives it over
loopback TCP with two closed-loop clients, checks the answers against an
in-process reference, and prints every metric as
`<workload> <metric> <value> <unit>`. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 servebench/run.py                          # all workloads, seed 1
  python3 servebench/run.py --workload chem-map --seed 3
  python3 servebench/run.py --trace 1                # per-layer metrics
  python3 servebench/run.py --repeat 5 --out a.json  # medians + quartiles
  python3 servebench/run.py --compare a.json b.json  # deltas vs bounds
  python3 servebench/run.py --quick                  # small smoke run
  python3 servebench/run.py --repeat 5 --record      # append to trajectory

Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root, and so does the length of the timed phase (`--seconds` is
accepted only with that value, or with --quick's); servebench/README.md says
what each metric means.
"""

import argparse
import atexit
import datetime
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The load generator's clients run on the last CPU this process may use and
# the server on the others, so the two never preempt each other; with one
# CPU, both share it. Unbound, their threads met on the same CPUs in
# placements that held for seconds and moved latency by a fifth.
CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU = CPUS[-1] if len(CPUS) > 1 else None
SERVER_CPUS = CPUS[:-1] if len(CPUS) > 1 else CPUS

# Server configuration, pinned here so a change to serve-net's defaults
# cannot silently change what the benchmark measures: one worker thread
# per server CPU.
SERVER_THREADS = len(SERVER_CPUS)
CACHE_MB = 64
SERVER_FLAGS = [f"--threads={SERVER_THREADS}", "--queue=256", "--batch=64",
                f"--cache-mb={CACHE_MB}"]
DATASET_SHARDS = {"chem": 2, "fp": 4}

# The request mix of each workload (see README.md for why each exists).
# warmup: unique-walk requests per connection before timing (Zipf workloads
# warm up with one pass over their pool instead); snapshots: SNAPSHOTs
# spread over the timed phase; trace: requests the traced replay walks.
WORKLOADS = {
    "chem-map": dict(dataset="chem", mode="full", pick="unique", warmup=250,
                     mutate_frac=0.0, snapshots=0, trace=2000),
    "chem-zipf": dict(dataset="chem", mode="full", pick="zipf", warmup=0,
                      mutate_frac=0.0, snapshots=0, trace=2000),
    "chem-churn": dict(dataset="chem", mode="full", pick="zipf", warmup=0,
                       mutate_frac=0.3, snapshots=8, trace=2000),
    "fp-full": dict(dataset="fp", mode="full", pick="unique", warmup=10,
                    mutate_frac=0.0, snapshots=0, trace=250),
    "fp-approx": dict(dataset="fp", mode="approx", pick="unique", warmup=10,
                      mutate_frac=0.0, snapshots=0, trace=250),
}

SETUP_SPAWNS = 7       # set-up time is the median of this many cold starts
PINGS = 2000           # idle round trips timed on a fresh server (trace)
QUICK_SECONDS = 2      # --quick: timed phase per workload
QUICK_TRACE = 400      # --quick: requests per traced replay

# Wire numbers of the e2e run that BENCHMARK.json cannot hold as end-to-end
# metrics (every workload must report each of those, and these exist only
# on some workloads or read 0; throughput and tail latency follow the host's
# contention more than the server), the core speeds the time metrics were
# scaled by, and the values before scaling: printed and kept in
# results.json.
DETAIL_UNITS = {"error_frac": "ratio", "mutation_p50_ms": "ms",
                "mutation_p99_ms": "ms", "snapshot_ms": "ms",
                "queries": "count", "mutations": "count",
                "query_qps": "1/s", "query_p90_ms": "ms",
                "query_p99_ms": "ms",
                "core_speed": "ratio", "setup_core_speed": "ratio",
                "setup_s_raw": "s", "query_qps_raw": "1/s",
                "query_p50_ms_raw": "ms", "query_p90_ms_raw": "ms",
                "server_cpu_us_per_req_raw": "us"}
RAW_SUFFIX = "_raw"

# Bounds that are absolute differences, not shares of the baseline median.
ABSOLUTE_BOUNDS = {"recall_at_10"}

_children = []


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def stop_children():
    for proc in list(_children):
        stop(proc)


def stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in _children:
        _children.remove(proc)


def on_signal(signum, _frame):
    stop_children()
    sys.exit(128 + signum)


def start(cmd, stdin=None):
    """Starts a command, its output on our stderr."""
    proc = subprocess.Popen(cmd, stdin=stdin, stdout=sys.stderr,
                            stderr=sys.stderr)
    _children.append(proc)
    return proc


def finish(proc, cmd, timeout):
    """Waits for a command started with start()."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    _children.remove(proc)
    if code != 0:
        raise BenchError(f"exit {code}: {' '.join(cmd)}")


def run(cmd, timeout):
    """Runs a command to completion, its output on our stderr."""
    finish(start(cmd), cmd, timeout)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_text(path):
    with open(path) as f:
        return f.read()


# ------------------------------------------------------------------ build --

def check_release(cache_path):
    """Refuses a build that is not Release or has a sanitizer on."""
    build_type, sanitizers = "", []
    with open(cache_path) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
            match = re.match(r"(GDIM_\w*SAN\w*):BOOL=(\S+)", line)
            if match and match.group(2).upper() in ("ON", "1", "TRUE", "YES"):
                sanitizers.append(match.group(1))
    if build_type != "Release" or sanitizers:
        found = f"build type '{build_type}'"
        if sanitizers:
            found += " with " + ", ".join(sanitizers)
        raise BenchError(f"{cache_path}: need a Release build without "
                         f"sanitizers, found {found}")


def build(build_dir):
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"no graphdim sources next to {HERE} "
                             f"({needed} missing)")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    check_release(cache)
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4)],
        timeout=900)
    suite = os.path.join(build_dir, "servebench_suite")
    server = os.path.join(build_dir, "graphdim", "gdim_tool")
    for binary in (suite, server):
        if not os.path.exists(binary):
            raise BenchError(f"build produced no {binary}")
    return suite, server


def file_digest(path):
    digest = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prepare(ctx, dataset):
    """The dataset's corpus and query pools, made again whenever the
    benchmark binary changes."""
    path = os.path.join(ctx.work, "data", f"{dataset}-{ctx.scale}")
    stamp = os.path.join(path, "stamp")
    if os.path.exists(stamp) and read_text(stamp) == ctx.digest:
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    run([ctx.suite, "prepare", f"--dataset={dataset}", f"--scale={ctx.scale}",
         f"--shards={DATASET_SHARDS[dataset]}",
         f"--threads={SERVER_THREADS}", f"--out={path}"], timeout=600)
    with open(stamp, "w") as f:
        f.write(ctx.digest)
    return path


# ----------------------------------------------------------------- server --

def start_server(ctx, index, shards, log_path):
    """Starts serve-net; returns the process, its port, the monotonic times
    of the spawn and of the first PONG, and the CPU the server's main thread
    ran on when it started listening."""
    started = time.monotonic()
    with open(log_path, "ab") as server_log:
        proc = subprocess.Popen(
            [ctx.server, "serve-net", f"--index={index}", "--port=0",
             f"--shards={shards}"] + SERVER_FLAGS,
            stdout=subprocess.PIPE, stderr=server_log,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
    _children.append(proc)
    deadline = started + 120
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
        if not chunk:
            stop(proc)
            raise BenchError(f"serve-net did not start; see {log_path}")
        line += chunk
    with open(f"/proc/{proc.pid}/stat") as stat:
        # Field 39, "processor": the CPU the thread last ran on.
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    match = re.search(rb"port=(\d+)", line)
    if not match:
        stop(proc)
        raise BenchError(f"no port in serve-net output: {line!r}")
    port = int(match.group(1))
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"PING\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(64)
            if not chunk:
                break
            reply += chunk
    if reply.strip() != b"OK pong":
        stop(proc)
        raise BenchError(f"serve-net answered PING with {reply!r}")
    return proc, port, started, time.monotonic(), cpu


def peak_rss_mb(proc):
    with open(f"/proc/{proc.pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server process")


# ---------------------------------------------------------------- metrics --

def stats_field(line, key):
    match = re.search(rf"\b{key}=(\d+)", line)
    return int(match.group(1)) if match else 0


def histogram_delta(before, after, family):
    """(upper bounds, per-bucket counts) of a histogram's growth between two
    METRICS scrapes, label series merged."""
    def cumulative(text):
        merged = {}
        for line in text.splitlines():
            match = re.match(rf'{family}_bucket{{.*le="([^"]+)"}} (\d+)$',
                             line)
            if match:
                bound = math.inf if match.group(1) == "+Inf" \
                    else float(match.group(1))
                merged[bound] = merged.get(bound, 0) + int(match.group(2))
        return merged
    cum_before, cum_after = cumulative(before), cumulative(after)
    bounds = sorted(cum_after)
    counts, prev = [], 0
    for bound in bounds:
        total = cum_after[bound] - cum_before.get(bound, 0)
        counts.append(total - prev)
        prev = total
    return bounds, counts


def histogram_quantile(bounds, counts, q):
    """Linear interpolation inside the containing bucket, like the server's
    own BucketHistogram::Quantile."""
    finite = [b for b in bounds if b != math.inf]
    target, seen, lower = q * sum(counts), 0, 0.0
    for bound, count in zip(bounds, counts):
        if count and seen + count >= target:
            if bound == math.inf:
                break
            return lower + (bound - lower) * (target - seen) / count
        seen += count
        lower = bound
    return finite[-1] if finite and sum(counts) else 0.0


def self_times_ms(spans):
    """Self time per layer (span name prefix): each span's duration minus
    the part of it its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span[5], []).append(span)
    totals = {}
    for span_id, _, name, start, end, _ in spans:
        covered, cursor = 0, start
        for child in sorted(children.get(span_id, []), key=lambda s: s[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start - covered) / 1e6
    return totals


def setup_times(spawns, probe):
    """Each start-up's wall-clock seconds and the core speed it ran at: the
    median speed the probe read on the server's CPU while it started (over
    all that CPU's samples if none fell in the start-up). Start-up runs on
    one thread, and one CPU may run at two thirds of another's speed."""
    by_cpu = dict((cpu, samples) for cpu, samples in probe)
    setups, speeds = [], []
    for started, ponged, cpu in spawns:
        samples = by_cpu.get(cpu) or [s for _, cpu_samples in probe
                                      for s in cpu_samples]
        window = [speed for at, speed in samples
                  if started - 0.05 <= at <= ponged + 0.05]
        setups.append(ponged - started)
        speeds.append(statistics.median(
            window or [speed for _, speed in samples]))
    return setups, speeds


def stream_flags(spec, seed):
    return [f"--seed={seed}", f"--mode={spec['mode']}",
            f"--pick={spec['pick']}", f"--warmup={spec['warmup']}",
            f"--mutate-frac={spec['mutate_frac']}",
            f"--snapshots={spec['snapshots']}",
            f"--shards={DATASET_SHARDS[spec['dataset']]}",
            f"--threads={SERVER_THREADS}"]


def run_workload(ctx, name, seed, seconds, trace):
    """One run of one workload; returns (metrics, detail, correct,
    attempted, failed)."""
    spec = WORKLOADS[name]
    shards = DATASET_SHARDS[spec["dataset"]]
    data = prepare(ctx, spec["dataset"])
    run_dir = os.path.join(ctx.work, "runs", name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    index = os.path.join(data, "index.idx")
    server_log = os.path.join(run_dir, "server.log")
    flags = stream_flags(spec, seed)

    setup_probe = os.path.join(run_dir, "setup_probe.json")
    probe_cmd = [ctx.suite, "probe", f"--out={setup_probe}"]
    probe = None if trace else start(probe_cmd, stdin=subprocess.PIPE)
    spawns = []
    for _ in range(1 if trace else SETUP_SPAWNS):
        if spawns:
            stop(proc)
        proc, port, *spawn = start_server(ctx, index, shards, server_log)
        spawns.append(spawn)
    try:
        if probe:
            probe.stdin.close()
            finish(probe, probe_cmd, timeout=60)
        run([ctx.suite, "load", f"--port={port}", f"--server-pid={proc.pid}",
             f"--data={data}", f"--out={run_dir}", f"--seconds={seconds}",
             f"--pings={PINGS if trace else 0}",
             f"--client-cpu={-1 if CLIENT_CPU is None else CLIENT_CPU}"]
            + flags,
            timeout=seconds + 120)
        rss_mb = peak_rss_mb(proc)
    finally:
        stop(proc)
    load = read_json(os.path.join(run_dir, "load.json"))
    attempted, failed = int(load["attempted"]), int(load["failed"])
    detail = {key: load[key] for key in DETAIL_UNITS if key in load}

    if not trace:
        try:
            run([ctx.suite, "verify", f"--data={data}", f"--run={run_dir}"]
                + flags, timeout=120)
            correct = True
        except BenchError as error:
            log(str(error))
            correct = False
        verify_path = os.path.join(run_dir, "verify.json")
        verified = read_json(verify_path) if os.path.exists(verify_path) \
            else {"recall_at_10": 0.0}
        setups, speeds = setup_times(spawns, read_json(setup_probe))
        detail["setup_core_speed"] = statistics.median(speeds)
        detail["setup_s_raw"] = statistics.median(setups)
        metrics = {
            "setup_s": statistics.median(
                s * speed for s, speed in zip(setups, speeds)),
            "query_p50_ms": load["query_p50_ms"],
            "server_cpu_us_per_req": load["server_cpu_us_per_req"],
            "recall_at_10": verified["recall_at_10"],
            "server_rss_mb": rss_mb,
        }
        return metrics, detail, correct and failed == 0, attempted, failed

    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir)
    try:
        run([ctx.suite, "trace", f"--data={data}", f"--out={trace_dir}",
             f"--requests={QUICK_TRACE if ctx.quick else spec['trace']}",
             f"--cache-mb={CACHE_MB}"] + flags, timeout=170)
    except BenchError as error:
        log(str(error))
        return {}, detail, False, attempted, failed + 1
    metrics = read_json(os.path.join(trace_dir, "trace.json"))
    del metrics["queries"]
    stats_before = read_text(os.path.join(run_dir, "stats_before.txt"))
    stats_after = read_text(os.path.join(run_dir, "stats_after.txt"))
    batches = stats_field(stats_after, "batches") - \
        stats_field(stats_before, "batches")
    bounds, counts = histogram_delta(
        read_text(os.path.join(run_dir, "metrics_before.txt")),
        read_text(os.path.join(run_dir, "metrics_after.txt")),
        "gdim_stage_admission_wait_usec")
    metrics["net_server.ping_rtt_us_p50"] = load["ping_p50_us"]
    metrics["net_server.ping_rtt_us_p99"] = load["ping_p99_us"]
    metrics["batch_executor.mean_batch"] = \
        load["queries"] / batches if batches > 0 else 0.0
    metrics["batch_executor.queue_wait_us_p50"] = \
        histogram_quantile(bounds, counts, 0.5)
    spans_path = os.path.join(trace_dir, "spans.json")
    self_ms = self_times_ms(read_json(spans_path)["pipeline"])
    total = sum(self_ms.values()) or 1.0
    log(f"{name} seed={seed}: replay self time by layer (spans in "
        f"{spans_path}):")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<16} {ms:10.3f} ms  {100 * ms / total:5.1f}%")
    detail["self_time_ms"] = self_ms
    return metrics, detail, failed == 0, attempted, failed


# ------------------------------------------------------------ bookkeeping --

def summarize(values):
    ordered = sorted(values)
    q1, q3 = (statistics.quantiles(ordered, n=4)[::2] if len(ordered) > 1
              else (ordered[0], ordered[0]))
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}


def format_value(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def relative_delta(ma, mb):
    if ma:
        return (mb - ma) / abs(ma)
    return 0.0 if mb == ma else math.inf


def compare(bench, path_a, path_b):
    """Prints each metric's median delta B vs A against its bound, and for a
    time metric scaled to the reference core speed also the delta of its
    wall-clock value; returns the number of regressions beyond a bound."""
    result_a, result_b = read_json(path_a), read_json(path_b)
    for key in ("scale", "seconds", "trace"):
        if result_a.get(key) != result_b.get(key):
            raise BenchError(f"cannot compare runs with different {key}: "
                             f"{result_a.get(key)} in {path_a}, "
                             f"{result_b.get(key)} in {path_b}")
    a, b = result_a["summary"], result_b["summary"]
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    regressions = 0
    print(f"{'workload':<11} {'metric':<36} {'A':>12} {'B':>12} "
          f"{'delta':>8} {'raw':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for metric in sorted(set(a[workload]) & set(b[workload]) & set(specs)):
            spec = specs[metric]
            ma = a[workload][metric]["median"]
            mb = b[workload][metric]["median"]
            if metric in ABSOLUTE_BOUNDS:
                delta = mb - ma
            else:
                delta = relative_delta(ma, mb)
            raw = metric + RAW_SUFFIX
            raw_shown = "-"
            if raw in a[workload] and raw in b[workload]:
                raw_delta = relative_delta(a[workload][raw]["median"],
                                           b[workload][raw]["median"])
                raw_shown = f"{raw_delta:+.3f}"
            worse = -delta if spec["better"] == "higher" else delta
            bound = spec.get("bound")
            if bound is None:
                shown = "-"
                verdict = "moved" if abs(delta) > 0.05 else ""
            else:
                shown = f"{bound:g}"
                if worse > bound:
                    verdict, regressions = "REGRESSED", regressions + 1
                elif -worse > bound:
                    verdict = "improved"
                else:
                    verdict = "within bound"
            print(f"{workload:<11} {metric:<36} {format_value(ma):>12} "
                  f"{format_value(mb):>12} {delta:>+8.3f} {raw_shown:>8} "
                  f"{shown:>6}  {verdict}")
    return regressions


def git_head():
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("--record needs a git checkout")
    return out.stdout.strip()


class Context:
    def __init__(self, args, suite, server):
        self.suite, self.server = suite, server
        self.work = os.path.abspath(args.work_dir)
        self.quick = args.quick
        self.scale = "quick" if args.quick else "full"
        self.digest = file_digest(suite)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run; must be BENCHMARK.json's "
                        f"run_seconds (with --quick: {QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and a short timed phase")
    parser.add_argument("--record", action="store_true",
                        help="append the summary to results/trajectory.jsonl")
    parser.add_argument("--build-dir", default=".bench_build")
    parser.add_argument("--work-dir", default=".bench_work")
    parser.add_argument("--out", default=None,
                        help="results file (default: <work-dir>/results.json)")
    args = parser.parse_args()

    bench = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        return 1 if compare(bench, *args.compare) else 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    # One run length per scale, so every results file of a scale compares
    # with every other.
    seconds = QUICK_SECONDS if args.quick else bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds}: the timed phase is fixed "
                     "by BENCHMARK.json (or --quick)")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units.update(DETAIL_UNITS)

    commit = git_head() if args.record else None
    suite, server = build(os.path.abspath(args.build_dir))
    ctx = Context(args, suite, server)
    runs, summary, reported = [], {}, {}
    all_correct, attempted, failed = True, 0, 0
    for name in names:
        values = {}
        for seed in range(args.seed, args.seed + args.repeat):
            started = time.perf_counter()
            metrics, detail, correct, n_attempted, n_failed = run_workload(
                ctx, name, seed, seconds, bool(args.trace))
            missing = [m for m in units if m not in metrics and
                       m not in detail]
            if correct and missing:
                raise BenchError(f"{name}: no value for {', '.join(missing)}")
            log(f"{name} seed={seed}: {time.perf_counter() - started:.1f}s, "
                f"{n_attempted} requests, {n_failed} failed")
            all_correct &= correct
            attempted += n_attempted
            failed += n_failed
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "correct": correct, "attempted": n_attempted,
                         "failed": n_failed, "metrics": metrics,
                         "detail": detail})
            for metric in units:
                value = metrics.get(metric, detail.get(metric))
                if value is not None:
                    values.setdefault(metric, []).append(value)
        summary[name] = {m: summarize(v) for m, v in values.items()}
        for metric, unit in units.items():
            if metric not in summary[name]:
                continue
            stat = summary[name][metric]
            if metric not in DETAIL_UNITS:
                key = metric if len(names) == 1 else f"{name}/{metric}"
                reported[key] = {"value": stat["median"], "unit": unit}
            quartiles = (f" (q1 {format_value(stat['q1'])} q3 "
                         f"{format_value(stat['q3'])}, n={stat['n']})"
                         if args.repeat > 1 else "")
            print(f"{name} {metric} {format_value(stat['median'])} {unit}"
                  f"{quartiles}", flush=True)

    result = {"scale": ctx.scale, "seconds": seconds, "trace": args.trace,
              "runs": runs, "summary": summary}
    out = args.out or os.path.join(ctx.work, "results.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    log(f"wrote {out}")
    if args.record:
        record = {"commit": commit,
                  "date": datetime.datetime.now(datetime.timezone.utc)
                  .strftime("%Y-%m-%dT%H:%M:%SZ"),
                  "scale": ctx.scale, "seconds": seconds, "trace": args.trace,
                  "repeat": args.repeat, "first_seed": args.seed,
                  "summary": summary}
        trajectory = os.path.join(HERE, "results", "trajectory.jsonl")
        os.makedirs(os.path.dirname(trajectory), exist_ok=True)
        with open(trajectory, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        log(f"appended to {trajectory}")
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        sys.exit(main())
    except BenchError as error:
        stop_children()
        log(f"servebench: {error}")
        sys.exit(2)
