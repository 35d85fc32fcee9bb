#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark RUNS times per workload, each with another seed, and
prints per metric the median, the interquartile range as a share of the
median (the statistic the regression bounds in BENCHMARK.json are set
against) and every value. With --sets 2 each seed runs twice in a row
(sets A and B alternate), and the medians of the two sets are compared
too. Run from the repository root:

    python3 servicebench/spread.py --runs 10 --seconds 20 [--workload NAME ...]

Pass --binary to use an already-built harness instead of run.sh.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["hot_repeat", "cold_exact", "mixed_deadline", "big_ladder"]


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    wall = time.monotonic() - started
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def iqr_share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workload", action="append")
    p.add_argument("--binary")
    a = p.parse_args()
    command = [a.binary] if a.binary else ["bash", "servicebench/run.sh"]
    report = {}
    for w in a.workload or WORKLOADS:
        sets = [dict() for _ in range(a.sets)]
        walls, failed = [], 0
        for i in range(a.runs):
            for values in sets:
                result, wall = run_once(command, w, a.first_seed + i, a.seconds, a.trace)
                walls.append(wall)
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"{w}: {a.runs} seeds x {a.sets} set(s), wall {min(walls):.1f}-"
              f"{max(walls):.1f} s, {failed} failed")
        report[w] = {}
        for name in sets[0]:
            per_set = [s[name] for s in sets]
            every = [v for s in per_set for v in s]
            medians = [statistics.median(s) for s in per_set]
            entry = {"median": statistics.median(every),
                     "iqr_share": [iqr_share(s) for s in per_set],
                     "set_medians": medians}
            report[w][name] = entry
            spreads = " ".join(f"{x:.4f}" for x in entry["iqr_share"])
            line = f"  {name:<24} median {entry['median']:<12.6g} IQR/median {spreads}"
            if a.sets > 1:
                line += f"  B/A {medians[1] / medians[0]:.4f}"
            print(line + "  " + " ".join(f"{v:.4g}" for v in every))
        sys.stdout.flush()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
