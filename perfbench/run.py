#!/usr/bin/env python3
"""Host-time benchmark for the ScaleGraph library.

Builds perfbench/driver.cpp against the library sources in ./src (a
Release build under ./.bench_build), runs one seeded workload in its own
process, checks that every answer matched the sequential references, and
prints the metrics named in BENCHMARK.json. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, and the span log is written under
.bench_build/traces/. Run it from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The workloads are those BENCHMARK.json lists. `--workload all` runs
every one, each in its own process, and prints a table of the end-to-end
metrics. The exit code is nonzero when any answer is wrong, the build
fails, or the run timed too few ops.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Tail percentile reported for op times, and how many samples must lie
# beyond it for the percentile to mean anything. The driver measures at
# least 100 ops, which meets this rule.
TAIL_PERCENTILE = 90
MIN_TAIL_SAMPLES = 10
# Pool size (SG_THREADS). One worker: on a 4-vCPU host shared with other
# tenants, a 4-thread pool made pagerank-pull's median op time swing by
# a factor of two between runs (see perfbench/README.md).
THREADS = 1
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def count_failures(op_failed):
    """(attempted, failed) over the ops of one run."""
    return len(op_failed), sum(1 for f in op_failed if f)


def end_to_end(raw):
    """End-to-end metrics from the driver's untraced ops."""
    ms = [m for m, t in zip(raw["op_ms"], raw["op_traced"]) if not t]
    answers = sum(a for a, t in zip(raw["op_answers"], raw["op_traced"]) if not t)
    wall_s = sum(ms) / 1000.0
    attempted, failed = count_failures(raw["op_failed"])
    return {
        "setup_s": median(raw["setup_s"]),
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p90": percentile(ms, TAIL_PERCENTILE),
        "ops_per_s": len(ms) / wall_s,
        "queries_per_s": answers / wall_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }, {"samples": len(ms), "ops_failed_frac": failed / attempted}


def per_layer(raw):
    """Per-layer metrics of a traced run."""
    layers = dict(raw["layers"])
    layers.update(raw["counts"])
    traced = [m for m, t in zip(raw["op_ms"], raw["op_traced"]) if t]
    untraced = [m for m, t in zip(raw["op_ms"], raw["op_traced"]) if not t]
    base = percentile(untraced, 50)
    layers["obs.trace_overhead_frac"] = (percentile(traced, 50) - base) / base
    return layers


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def source_digest(root):
    """sha256 over the library and benchmark sources, so results from
    different trees are never compared by mistake."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"  # an exported tree; source_digest identifies it
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root):
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found: run from the repository "
                           "root (./src/CMakeLists.txt is missing)")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sg_perfbench")


def run_driver(binary, root, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, SG_THREADS=str(THREADS))
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError("driver exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_names(spec_metrics, produced, kind):
    want = [m["name"] for m in spec_metrics]
    if sorted(want) != sorted(produced):
        raise RuntimeError("%s metrics %s do not match BENCHMARK.json %s"
                           % (kind, sorted(produced), sorted(want)))


def run_one(args, root):
    spec = load_spec(root)
    raw = run_driver(build(root), root, args)

    record = {
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "pool_threads": raw["pool_threads"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("run-record " + json.dumps(record, sort_keys=True))
    print("counts " + json.dumps(raw["counts"], sort_keys=True))
    for err in raw["errors"]:
        print("wrong answer: " + err)

    attempted, failed = count_failures(raw["op_failed"])
    if args.trace:
        values = per_layer(raw)
        metric_spec = spec["per_layer"]
    else:
        values, extra = end_to_end(raw)
        metric_spec = spec["end_to_end"]
        beyond = samples_beyond(extra["samples"], TAIL_PERCENTILE)
        print("op samples %d (%d beyond p%d), ops_failed_frac %.6g"
              % (extra["samples"], beyond, TAIL_PERCENTILE,
                 extra["ops_failed_frac"]))
        if beyond < MIN_TAIL_SAMPLES:
            raise RuntimeError("only %d samples beyond p%d (need %d)"
                               % (beyond, TAIL_PERCENTILE, MIN_TAIL_SAMPLES))
    check_names(metric_spec, values, "per_layer" if args.trace else "end_to_end")
    metrics = {}
    for m in metric_spec:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-32s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, root):
    """Every workload in its own process; prints one table."""
    spec = load_spec(root)
    workloads = workload_names(spec)
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    rows, status = {}, 0
    for w in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            status = 1
        rows[w] = result
    print("%-22s" % "metric" + "".join("%18s" % w for w in workloads))
    for n in names:
        cells = ["%18.6g" % rows[w]["metrics"][n]["value"] if rows[w] else "%18s" % "-"
                 for w in workloads]
        print("%-22s" % ("%s (%s)" % (n, units[n])) + "".join(cells))
    fails = ["%d/%d" % (rows[w]["failed"], rows[w]["attempted"]) if rows[w] else "error"
             for w in workloads]
    print("%-22s" % "failed/attempted" + "".join("%18s" % f for f in fails))
    return status


def main(argv):
    root = os.getcwd()
    try:
        workloads = workload_names(load_spec(root))
    except (OSError, ValueError, KeyError) as e:
        print("perfbench: cannot read BENCHMARK.json: " + str(e), file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args, root)
        return run_one(args, root)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
