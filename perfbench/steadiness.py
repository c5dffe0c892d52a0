#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs perfbench/run.py once per seed for each workload (untraced, each in
its own process) and prints, for every workload x end-to-end metric, the
median over the runs and the quartile spread (Q3 - Q1) / median, with
the quartiles taken as statistics.quantiles(values, n=4) gives them.
Every spread, setup_s's too, must be within the metric's bound in
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--markdown]

Exit code 1 when a spread is too wide or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own helpers)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads",
                   help="comma-separated (default: BENCHMARK.json's workloads)")
    p.add_argument("--seconds", type=float)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--raw", help="also write every run's metrics and wall time "
                   "to this JSON file")
    args = p.parse_args(argv)
    root = os.getcwd()
    spec = run.load_spec(root)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    status = 0
    rows = []
    raw = {}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for w in workloads:
        raw[w] = []
        values = {m["name"]: [] for m in metrics}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            start = time.monotonic()
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
            wall_s = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s" % (w, seed, done.stderr[-2000:]),
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            raw[w].append({"seed": seed, "wall_s": wall_s,
                           "metrics": {k: v["value"]
                                       for k, v in result["metrics"].items()}})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            s = spread(v)
            ok = s <= m["bound"]
            if not ok:
                status = 1
            rows.append((w, m["name"], m["unit"], statistics.median(v), s,
                         m["bound"], ok, len(v)))
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)
    if args.markdown:
        print("| workload | metric | median | IQR/median | bound | runs |")
        print("|---|---|---|---|---|---|")
        for w, n, u, med, s, b, ok, k in rows:
            print("| %s | %s | %.4g %s | %.3f%s | %.2f | %d |"
                  % (w, n, med, u, s, "" if ok else " (wide)", b, k))
    else:
        for w, n, u, med, s, b, ok, k in rows:
            print("%-16s %-14s median %12.5g %-5s spread %.3f  bound %.2f  runs %d%s"
                  % (w, n, med, u, s, b, k, "" if ok else "  TOO WIDE"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
