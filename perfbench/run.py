"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dense-ladder --seed 7 --seconds 45 --trace 0

Run it from the root of a checkout; anomlab is imported from ./src. The
process re-executes itself once with BLAS and OpenMP pinned to one thread
and a fixed PYTHONHASHSEED, since both must be set before the interpreter
and numpy start. The last line of standard output is the result; the lines
before it are a human-readable report of the run. Traces and per-run files
go under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOAD_NAMES = ("dense-ladder", "exact-ladder")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *argv], {**os.environ, **PINNED_ENV})

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "anomlab", "__init__.py")):
        print(f"anomlab sources not found under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import anomlab  # noqa: F401 - timed as part of set-up
    import harness
    import workloads

    import_s = time.perf_counter() - t0
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    kind_metrics = [(metric, unit) for w in workloads.WORKLOADS.values() for _, metric, unit in w.kind_metrics]
    result, lines = harness.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir, src, import_s, kind_metrics
    )
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
