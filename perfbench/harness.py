"""Timing loop shared by the workloads.

A run sets up five times and keeps the median set-up time (the import of
anomlab, which a process makes only once, is repeated in child processes
between rounds). It collects garbage, then times whole rounds of ops until
`seconds` of op time have passed and at least the workload's `min_rounds`
are done. A traced run
makes exactly `min_rounds` rounds, so its counts repeat for a seed. The ops
of a round run in a seeded, interleaved order; each op's output is kept (or
reduced right after the op, outside its timing) and checked against the
oracles only after the timed phase.

Every round of a workload has the same slots: the k-th op of a kind in
round r does the same work as the k-th op of that kind in every other
round, on fresh inputs. The time metrics rest on each slot's fastest op
over the run. Load from other tenants of a shared host only ever slows an
op (on a 2-vCPU virtual machine one suite run took from 0.87 s to 1.59 s,
in stretches of 5-30 s), so the fastest of several ops spread over the run
is far steadier from run to run than a mean or a median.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tracer import Tracer

SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import anomlab; print(time.perf_counter() - t0)"
)


@dataclass
class Op:
    """One timed call. `check` returns True when the kept output is right."""

    kind: str
    call: Callable
    check: Callable
    keep: Callable = field(default=lambda out: out)


def seeded(seed, *tags):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *tags])))


def nearest_rank(values, q):
    """The q-th percentile by nearest rank: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def slot_keys(ops):
    """(kind, k) for the k-th op of each kind, in the order the round lists them."""
    seen = {}
    keys = []
    for op in ops:
        keys.append((op.kind, seen.get(op.kind, 0)))
        seen[op.kind] = seen.get(op.kind, 0) + 1
    return keys


def time_import(src):
    """Time `import anomlab` in a fresh interpreter, without the interpreter's start.

    An import can be timed only once per process, so its repeats run in
    child processes, started one at a time and waited for.
    """
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _guarded(fn, value):
    """fn(value), or the exception it raised: a malformed output fails its op, not the run."""
    try:
        return fn(value)
    except Exception as exc:  # noqa: BLE001
        return exc


def _passes(op, out):
    if isinstance(out, BaseException):
        return False
    verdict = _guarded(op.check, out)
    return not isinstance(verdict, BaseException) and bool(verdict)


def run(workload, seed, seconds, trace, out_dir, src, import_s, kind_metrics):
    """Run one workload; returns (result dict for the last line, report lines).

    import_s is this process's own import time; an untraced run times
    SETUP_REPEATS - 1 more imports of src between its rounds, spread over
    the run, so that set-up time is sampled in the host's fast and slow
    stretches alike. kind_metrics lists (metric, unit) over every workload;
    a traced run reports the ones of op kinds it does not run as 0.
    """
    scratch = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, out_dir, scratch, src, import_s, kind_metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload, seed, seconds, trace, out_dir, scratch, src, import_s, kind_metrics):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed, scratch)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    order_rng = seeded(seed, 0x0D)
    times = []  # (kind, seconds)
    kept = []  # (op, output)
    round_s = []
    best = {}  # slot -> fastest op time in seconds
    imports = [import_s]
    slots = None
    gen_s = 0.0
    rounds = 0
    try:
        while True:
            t0 = time.perf_counter()
            ops = workload.round(rounds)
            gen_s += time.perf_counter() - t0
            keys = slot_keys(ops)
            if slots is None:
                slots = keys
            elif keys != slots:
                raise RuntimeError(f"round {rounds} of {workload.name} does not have the slots of round 0")
            gc.collect()
            spent = 0.0
            for i in order_rng.permutation(len(ops)):
                op = ops[i]
                if tracer:
                    tracer.op = len(times)
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - an op that raises is a failed op
                    out = exc
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.op = None
                spent += dt
                times.append((op.kind, dt))
                best[keys[i]] = min(dt, best.get(keys[i], dt))
                kept.append((op, out if isinstance(out, BaseException) else _guarded(op.keep, out)))
                # release the output and the op's inputs, so that what a run
                # holds does not grow with its number of rounds
                out = op.call = None
            round_s.append(spent)
            rounds += 1
            while not trace and len(imports) < SETUP_REPEATS and sum(round_s) >= len(imports) * seconds / SETUP_REPEATS:
                imports.append(time_import(src))
            if rounds < workload.min_rounds:
                continue
            if trace or sum(round_s) >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    while not trace and len(imports) < SETUP_REPEATS:
        imports.append(time_import(src))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(op.kind, out) for op, out in kept if not _passes(op, out)]
    failed_by_kind = {}
    for kind, _ in failures:
        failed_by_kind[kind] = failed_by_kind.get(kind, 0) + 1
    failed = sum(failed_by_kind.values())
    unexpected = {k: n for k, n in failed_by_kind.items() if k not in workload.known_faults}
    correct = not unexpected

    by_kind = {}
    for kind, dt in times:
        by_kind.setdefault(kind, []).append(dt)
    kind_medians = {kind: statistics.median(v) for kind, v in by_kind.items()}

    setup_s = statistics.median(imports) + statistics.median(setups)
    best_ms = [dt * 1e3 for dt in best.values()]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best.values()), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_p50_ms": (nearest_rank(best_ms, 50), "ms"),
        "op_p90_ms": (nearest_rank(best_ms, 90), "ms"),
    }
    per_kind = {}
    for kind, metric, unit in workload.kind_metrics:
        scale = 1e3 if unit == "ms" else 1.0
        per_kind[metric] = (kind_medians[kind] * scale, unit)

    lines = [
        f"workload {workload.name}  seed {seed}  trace {int(trace)}",
        f"rounds {rounds}  ops {len(times)}  failed {failed} {dict(sorted(failed_by_kind.items()))}",
        f"imports_s {' '.join(f'{s:.4f}' for s in imports)}  setups_s {' '.join(f'{s:.4f}' for s in setups)}  "
        f"inputs_between_rounds_s {gen_s:.4f}",
        f"rounds_s {' '.join(f'{s:.3f}' for s in round_s)}  slots {len(best)}",
    ]
    ranked = sorted((dt * 1e3, f"{kind}#{k}") for (kind, k), dt in best.items())
    for q in (50, 90):
        i = max(1, -(-q * len(ranked) // 100)) - 1
        around = "  ".join(f"{name} {ms:.2f}" for ms, name in ranked[max(0, i - 1):i + 2])
        lines.append(f"p{q} is slot {ranked[i][1]}; fastest times of it and its neighbours (ms): {around}")
    for kind in sorted(by_kind):
        v = sorted(by_kind[kind])
        lines.append(f"  kind {kind:<16} n {len(v):4d}  median_ms {kind_medians[kind] * 1e3:10.3f}  min_ms {v[0] * 1e3:10.3f}  max_ms {v[-1] * 1e3:10.3f}")
    for kind in sorted(unexpected):
        bad = next(out for k, out in failures if k == kind)
        lines.append(f"  UNEXPECTED failure in {kind}: {bad!r}"[:400])
    for name, (value, unit) in {**end_to_end, **per_kind}.items():
        lines.append(f"  {name} = {value:.6g} {unit}")

    if trace:
        metrics = {metric: (0.0, unit) for metric, unit in kind_metrics}
        metrics.update(per_kind)
        metrics.update(tracer.layer_metrics())
        path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.jsonl")
        tracer.write(path)
        lines.append(f"spans {len(tracer.spans)} written to {path}")
    else:
        metrics = end_to_end
    result = {
        "correct": bool(correct),
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines
