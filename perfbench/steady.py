"""Steadiness report: run each workload several times and summarize every metric.

    python3 perfbench/steady.py --runs 10 --seconds 45 [--workloads dense-ladder ...]

Run i uses seed first_seed + i; the runs are made one after another, each
in its own process. For every metric the report gives the median, the
quartiles (statistics.quantiles, n=4), the interquartile range as a share
of the median, and max/min. The share of failed ops is printed per run;
it must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        spread = max(values) / min(values) if min(values) > 0 else float("nan")
        print(f"  {name + ' [' + unit + ']':<34} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} {spread:8.4f}")


def main(argv):
    parser = argparse.ArgumentParser(description="Run workloads repeatedly and report metric spreads.")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            r = one_run(workload, args.first_seed + i, args.seconds)
            results.append(r)
            values = " ".join(f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {args.first_seed + i}: correct {r['correct']} attempted {r['attempted']} "
                  f"failed {r['failed']} share {r['failed'] / r['attempted']:.6f}  {values}", flush=True)
        print(f"{workload}: {args.runs} runs")
        summarize(results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share identical in every run: {len(shares) == 1}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
