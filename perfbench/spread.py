#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds N] [--sets K] [--seconds S]

Runs perfbench/run.py untraced once per seed (seeds 1..N, default 10) on
each workload, K times over (default 1). For each end-to-end metric it
prints the median, the quartiles and the spread, (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them. A spread above the
metric's bound in BENCHMARK.json fails, setup_s included; with two
seeds the spread is their relative difference. With K > 1 a set whose
median is worse than the first set's by more than the bound fails too.
Exits with 1 if anything failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d): %s%s" % (
            workload, seed, out.returncode, last, out.stderr[-2000:]))
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: checks failed: %s" % (workload, seed, last))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = min(values), max(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        first = None
        for k in range(args.sets):
            runs = [run_once(workload, seed, args.seconds) for seed in range(1, args.seeds + 1)]
            medians = {}
            for name, m in metrics.items():
                values = [r[name] for r in runs]
                median, q1, q3, s = spread(values)
                medians[name] = median
                verdict = "ok"
                if s > m["bound"]:
                    verdict, ok = "SPREAD ABOVE BOUND", False
                elif s > m["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                if first is not None:
                    base = first[name]
                    worse = (base - median) / base if m["better"] == "higher" else (median - base) / base
                    if worse > m["bound"]:
                        verdict, ok = "MEDIAN WORSE THAN SET 1 BY %.3f" % worse, False
                print("%-22s set %d %-17s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  bound %.2f  %s"
                      % (workload, k + 1, name, median, q1, q3, s, m["bound"], verdict), flush=True)
            first = first or medians
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
