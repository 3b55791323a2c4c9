#!/usr/bin/env python3
"""Runs e2ebench/run.py repeatedly and reports how steady each metric is.

    python3 e2ebench/steadiness.py [--runs 10] [--workloads a,b] [--trace 0|1]
                                   [--first-seed 1] [--seconds S] [--save F]

Run from the repository root. Each run of a workload uses the next seed.
For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(n=4)), the spread (q3 - q1) / median, and max/min.
With --trace 0 each spread is compared with the metric's bound from
BENCHMARK.json: `ok` below a third of the bound, `WIDE` above the bound.
setup_s, latency_* and mem_peak_mb are listed again at the end: those are
the metrics that did not repeat in the first real-path benchmark attempt.

`--runs 1` is the one command that runs every workload once and prints
every metric with its unit; add `--trace 1` for the per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WATCHED = ("setup_s", "latency_", "mem_peak_mb")


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench.get("workloads", [])] or [
        "tomo_full_lz4", "binned_lz4_paced"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench.get("run_seconds", 10))
    parser.add_argument("--save", help="write every run's result JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}

    results = {}
    failures = 0
    for workload in args.workloads.split(","):
        for k in range(args.runs):
            seed = args.first_seed + k
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
            results.setdefault(workload, []).append({"seed": seed, **result})
            if args.runs == 1:
                print(f"== {workload} (seed {seed})")
                for line in lines[:-1]:
                    if not line.startswith("meta "):
                        print("  " + line)
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    watched = []
    if args.runs > 1:
        header = (f"{'workload':18s} {'metric':36s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}")
        print(header)
        for workload, runs in results.items():
            series = {}
            for run in runs:
                for name, m in run.get("metrics", {}).items():
                    series.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            for name, (values, unit) in series.items():
                q1, q2, q3, rel = spread(values)
                lo, hi = min(values), max(values)
                ratio = hi / lo if lo > 0 else float("inf")
                bound = bounds.get(name)
                verdict = ""
                if bound is not None and args.trace == 0:
                    verdict = "ok" if rel < bound / 3 else ("WIDE" if rel > bound else "near")
                line = (f"{workload:18s} {name + ' [' + unit + ']':36s} {q2:12.6g} "
                        f"{q1:12.6g} {q3:12.6g} {rel:8.3f} {ratio:8.3f} "
                        f"{'' if bound is None else bound:>6} {verdict}")
                print(line)
                if name.startswith(WATCHED):
                    watched.append(line)
        if watched:
            print("\nsetup_s, latency_* and mem_peak_mb:")
            print(header)
            print("\n".join(watched))
    print(f"\n{failures} failed run(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
