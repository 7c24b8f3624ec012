"""Seeded verification suites and machine-readable reports.

Each suite is a generator over the PCG64 stream for the given seed. It draws
one case's inputs and yields (name, inputs, tolerance key, check); check()
returns the case's violation and draws nothing, or, for an exact integer
check, whether the identity holds (recorded as violation 0.0 or 1.0 against
threshold 0.0). A result that several cases share is computed once, on
first use. run_suite alone turns a case into a record: it runs the check,
digests the inputs and looks up the threshold. A check that raises fails its
own case with violation inf and an `error` field holding the exception class
and message, and the suite goes on; a suite that raises while drawing keeps
the cases recorded before it and ends with such a case named `error`. A case
with an error never passes. Reports serialize as JSON lines, one object per
case plus a summary; the summary's wall_time and started fields are the only
nondeterministic content for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cache
from itertools import product

import numpy as np

from . import instances as inst
from .errors import DomainError, real
from .fock import (
    SpectralBackground,
    apply_creation,
    bogoliubov_implement,
    build_car,
    creation,
    gerbe_triple_check,
    schwinger_detail,
    schwinger_over_backgrounds,
    schwinger_term,
    vacuum_at_level,
    vacuum_line,
)
from .grassmann import (
    DetLineElement,
    alpha_ratio,
    canonical_section,
    detline_act,
    frame_act,
    w_plus,
)
from .groupoid import (
    action_groupoid,
    axioms_check,
    central_extend,
    centrality_check,
    coboundary_twist,
    cocycle_check,
    glue_local_data,
    skeleton,
    zero_cocycle,
)
from .linalg import Polarization, matrix_exponential, sign_commutator
from .nerve import (
    class_reducer,
    coboundary_matrix,
    cocycle_vector,
    cohomology_group,
    nerve,
)
from .regdet import det_p, dual_route_gap, gamma_p, log_det_p_series, omega_p
from .snf import solve_mod

SUITE_NAMES = ("detp", "grassmann", "fock", "groupoid", "cohomology")

DEFAULT_TOLERANCES = {
    "series": 1e-10,
    "dual_route": 1e-9,
    "classical": 1e-12,
    "omega_cocycle": 1e-9,
    "gamma_symmetry": 1e-9,
    "fixture": 1e-10,
    "line_action": 1e-9,
    "equivariance": 1e-9,
    "alpha": 1e-9,
    "car": 1e-12,
    "schwinger_residue": 1e-9,
    "schwinger_antisymmetry": 1e-10,
    "schwinger_trace_formula": 1e-9,
    "lie_cocycle": 1e-9,
    "block_diagonal": 1e-12,
    "schwinger_fixture": 1e-10,
    "bogoliubov": 1e-8,
    "witness": 1e-10,
    "filling": 1e-9,
    "exact": 0.0,
}

# case counts, chosen to match the acceptance battery sizes
SERIES_CASES = 200
DUAL_CASES = 200
OMEGA_TRIPLES = 200
GAMMA_CASES = 50
LINE_ACTION_CASES = 200
EQUIVARIANCE_CASES = 100
ALPHA_CASES = 100
SCHWINGER_PAIRS = 100
LIE_TRIPLES = 100
BLOCK_PAIRS = 25
BOGOLIUBOV_GENERATORS = 50
BOGOLIUBOV_VECTORS = 50
GERBE_BACKGROUNDS = 100
FILLING_CASES = 30
WINDOW_CASES = 25
COVER_ROUNDTRIPS = 50
CLASS_CROSSCHECKS = 10
SQUARE_ZERO_CASES = 5
FREE_ACTION_SAMPLES = 5
MORITA_CASES = 10


def digest(obj) -> str:
    """Short deterministic digest of case inputs."""
    payload = json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, set):
        return sorted(_canon(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return obj


@dataclass(frozen=True)
class CaseRecord:
    suite: str
    name: str
    inputs: str
    violation: float
    threshold: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.violation <= self.threshold


@dataclass
class Report:
    suite: str
    seed: int
    tolerances: dict
    cases: list = field(default_factory=list)
    wall_time: float = 0.0
    started: str = ""

    @property
    def max_violation(self) -> float:
        return max((c.violation for c in self.cases), default=0.0)

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_lines(self) -> list:
        lines = []
        for c in self.cases:
            line = {
                "kind": "case",
                "suite": c.suite,
                "name": c.name,
                "inputs": c.inputs,
                "violation": c.violation,
                "threshold": c.threshold,
                "pass": c.passed,
            }
            if c.error is not None:
                line["error"] = c.error
            lines.append(line)
        lines.append(
            {
                "kind": "summary",
                "suite": self.suite,
                "seed": self.seed,
                "cases": len(self.cases),
                "failures": self.failures,
                "max_violation": self.max_violation,
                "pass": self.passed,
                "tolerances": dict(sorted(self.tolerances.items())),
                "wall_time": self.wall_time,
                "started": self.started,
            }
        )
        return lines


def report_to_text(report: Report) -> str:
    rows = [
        f"suite {report.suite}: {len(report.cases)} cases, "
        f"{report.failures} failures, max violation {report.max_violation:.3e}, "
        f"{'PASS' if report.passed else 'FAIL'}"
    ]
    for c in report.cases:
        if not c.passed:
            rows.append(
                f"  FAIL {c.name} [{c.inputs}]: violation {c.violation:.3e} > {c.threshold:.1e}"
                + (f" ({c.error})" if c.error is not None else "")
            )
    return "\n".join(rows)


def resolve_tolerances(overrides=None) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for key, val in (overrides or {}).items():
        if key not in tol:
            raise DomainError(f"unknown tolerance key {key!r}")
        tol[key] = real(val, f"tolerance {key}", lo=0.0)
    return tol


def _violation(result) -> float:
    """A check's result as a violation; an exact check's verdict reads 0.0 or 1.0."""
    if isinstance(result, (bool, np.bool_)):
        return 0.0 if result else 1.0
    return float(result)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_suite(name: str, seed: int, tolerances=None) -> Report:
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    tol = resolve_tolerances(tolerances)
    rng = inst.generator(seed)
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    cases = []
    try:
        for case, inputs, tol_key, check in _SUITE_FUNCS[name](rng):
            try:
                violation, error = _violation(check()), None
            except Exception as exc:  # a raising check fails its own case only
                violation, error = math.inf, _error(exc)
            cases.append(CaseRecord(name, case, digest(inputs), violation, tol[tol_key], error))
    except Exception as exc:  # a raising draw ends the suite, keeping the cases before it
        message = _error(exc)
        cases.append(CaseRecord(name, "error", digest(message), math.inf, tol["exact"], message))
    report = Report(suite=name, seed=int(seed), tolerances=tol, cases=cases)
    report.wall_time = time.perf_counter() - t0
    report.started = started
    return report


def run_suites(name: str, seed: int, tolerances=None) -> list:
    if name == "all":
        return [run_suite(s, seed, tolerances) for s in SUITE_NAMES]
    return [run_suite(name, seed, tolerances)]


def _relative_gap(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# detp


def _suite_detp(rng):
    for i in range(SERIES_CASES):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        a = inst.random_perturbation(rng, n, 0.1)
        inputs = {"n": n, "p": p, "a": a}
        yield f"series/{i:03d}", inputs, "series", lambda: abs(det_p(a, p).log_value - log_det_p_series(a, p, 40))

    for i in range(DUAL_CASES):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        a = inst.random_perturbation(rng, n, 0.8)
        yield f"dual-route/{i:03d}", {"n": n, "p": p, "a": a}, "dual_route", lambda: dual_route_gap(a, p)
        yield f"classical/{i:03d}", {"n": n, "a": a}, "classical", lambda: _classical_gap(a)

    for i in range(OMEGA_TRIPLES):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 5))
        a, b, c = (inst.random_perturbation(rng, n, 0.5) for _ in range(3))
        inputs = {"n": n, "p": p, "a": a, "b": b, "c": c}
        yield f"omega-cocycle/{i:03d}", inputs, "omega_cocycle", lambda: _relative_gap(
            omega_p(a, b + c + b @ c, p), omega_p(a + b + a @ b, c, p) * omega_p(a, b, p)
        )

    for i in range(GAMMA_CASES):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 5))
        a = inst.random_perturbation(rng, n, 0.5)
        b = inst.random_perturbation(rng, n, 0.5)
        yield f"gamma-symmetry/{i:03d}", {"n": n, "p": p, "a": a, "b": b}, "gamma_symmetry", lambda: _gamma_gap(a, b, p)

    x = np.array([[0.1]])
    yield "fixture/det2-diag", {"a": [0.5, 0.0]}, "fixture", lambda: abs(
        det_p(np.diag([0.5, 0.0]), 2).value - 1.5 * math.exp(-0.5)
    )
    yield "fixture/series-p1", {"a": 0.1}, "fixture", lambda: abs(log_det_p_series(x, 1, 60) - math.log(1.1))
    yield "fixture/series-p2", {"a": 0.1}, "fixture", lambda: abs(log_det_p_series(x, 2, 60) - (math.log(1.1) - 0.1))
    yield "fixture/gamma2", {"a": 0.1}, "fixture", lambda: abs(gamma_p(x, x, 2) - (-0.01))
    yield "fixture/omega2", {"a": 0.1}, "fixture", lambda: abs(omega_p(x, x, 2) - 1.1 * math.exp(-0.11))


def _classical_gap(a) -> float:
    classical = np.linalg.det(np.eye(a.shape[0]) + a)
    return abs(det_p(a, 1).value - classical) / max(abs(classical), 1e-300)


def _gamma_gap(a, b, p) -> float:
    d = gamma_p(a, b, p) - gamma_p(b, a, p)
    return math.hypot(d.real, math.remainder(d.imag, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# grassmann


def _random_pol(rng, n_lo=2, n_hi=6):
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, n))
    return Polarization(n, k)


def _suite_grassmann(rng):
    for i in range(LINE_ACTION_CASES):
        pol = _random_pol(rng)
        p = int(rng.integers(1, 4))
        w = inst.random_frame(rng, pol)
        k = pol.plus_dim
        t1 = np.eye(k) + inst.random_perturbation(rng, k, 0.3)
        t2 = np.eye(k) + inst.random_perturbation(rng, k, 0.3)
        elem = DetLineElement(w, complex(np.exp(2j * np.pi * rng.random())))
        inputs = {"pol": (pol.dim, k), "p": p, "w": w.matrix, "t1": t1, "t2": t2}
        yield f"line-action/{i:03d}", inputs, "line_action", lambda: _line_action_gap(elem, t1, t2, p)

    for i in range(EQUIVARIANCE_CASES):
        pol = _random_pol(rng)
        p = int(rng.integers(1, 4))
        w = inst.random_frame(rng, pol)
        k = pol.plus_dim
        t = np.eye(k) + inst.random_perturbation(rng, k, 0.3)
        inputs = {"pol": (pol.dim, k), "p": p, "w": w.matrix, "t": t}
        yield f"equivariance/{i:03d}", inputs, "equivariance", lambda: _relative_gap(
            canonical_section(frame_act(w, t), p),
            canonical_section(w, p) * omega_p(w_plus(w) - np.eye(k), t - np.eye(k), p),
        )

    for i in range(ALPHA_CASES):
        pol = _random_pol(rng)
        p = int(rng.integers(1, 4))
        k = pol.plus_dim
        w = inst.random_frame(rng, pol)
        g = matrix_exponential(inst.random_anti_hermitian(rng, pol.dim, 0.15))
        q = inst.random_unitary(rng, k)
        t1 = np.eye(k) + inst.random_perturbation(rng, k, 0.25)
        t2 = np.eye(k) + inst.random_perturbation(rng, k, 0.25)
        inputs = {"pol": (pol.dim, k), "p": p, "w": w.matrix, "g": g, "q": q, "t1": t1, "t2": t2}
        yield f"alpha/{i:03d}", inputs, "alpha", lambda: _relative_gap(
            alpha_ratio(g, q, w, t1 @ t2, p), alpha_ratio(g, q, w, t1, p) * alpha_ratio(g, q, frame_act(w, t1), t2, p)
        )


def _line_action_gap(elem, t1, t2, p) -> float:
    two_steps = detline_act(detline_act(elem, t1, p), t2, p)
    one_step = detline_act(elem, t1 @ t2, p)
    return abs(two_steps.coeff - one_step.coeff) / max(abs(one_step.coeff), 1e-300)


# ---------------------------------------------------------------------------
# fock


def _modes(rng):
    m = int(rng.integers(2, 5))
    return m, int(rng.integers(1, m))


def _space(rng):
    m, k = _modes(rng)
    return build_car(m, Polarization(m, k))


def _comm(a, b):
    return a @ b - b @ a


def _quarter_trace(x, y, pol):
    eps = pol.epsilon
    return complex(np.trace(eps @ sign_commutator(x, pol) @ sign_commutator(y, pol)) / 4.0)


def _suite_fock(rng):
    for m in range(1, 5):
        yield f"car-relations/m{m}", {"m": m}, "car", lambda: _car_gap(m)

    for i in range(SCHWINGER_PAIRS):
        space = _space(rng)
        m = space.modes
        x = inst.random_anti_hermitian(rng, m)
        y = inst.random_anti_hermitian(rng, m)
        inputs = {"m": m, "x": x, "y": y}
        detail = cache(lambda: schwinger_detail(space, x, y))
        yield f"schwinger-residue/{i:03d}", inputs, "schwinger_residue", lambda: detail()["residue"]
        yield f"schwinger-antisymmetry/{i:03d}", inputs, "schwinger_antisymmetry", lambda: abs(
            detail()["value"] + schwinger_term(space, y, x)
        )
        yield f"schwinger-trace-formula/{i:03d}", inputs, "schwinger_trace_formula", lambda: abs(
            detail()["value"] - _quarter_trace(x, y, space.pol)
        )

    for i in range(LIE_TRIPLES):
        space = _space(rng)
        m = space.modes
        x, y, z = (inst.random_anti_hermitian(rng, m) for _ in range(3))
        yield f"lie-cocycle/{i:03d}", {"m": m, "x": x, "y": y, "z": z}, "lie_cocycle", lambda: abs(
            schwinger_term(space, _comm(x, y), z)
            + schwinger_term(space, _comm(y, z), x)
            + schwinger_term(space, _comm(z, x), y)
        )

    for i in range(BLOCK_PAIRS):
        space = _space(rng)
        x = inst.random_block_diagonal_anti_hermitian(rng, space.pol)
        y = inst.random_block_diagonal_anti_hermitian(rng, space.pol)
        inputs = {"m": space.modes, "x": x, "y": y}
        yield f"schwinger-block-diagonal/{i:02d}", inputs, "block_diagonal", lambda: abs(schwinger_term(space, x, y))

    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    yield "schwinger-fixture/m2k1", {"m": 2}, "schwinger_fixture", lambda: abs(
        schwinger_term(build_car(2, Polarization(2, 1)), up, up.T.copy()) - (-1.0)
    )

    for i in range(BOGOLIUBOV_GENERATORS):
        space = _space(rng)
        m = space.modes
        x = inst.random_anti_hermitian(rng, m, 0.8)
        vectors = [inst.random_complex(rng, m, 1).reshape(-1) for _ in range(BOGOLIUBOV_VECTORS)]
        yield f"bogoliubov/{i:02d}", {"m": m, "x": x}, "bogoliubov", lambda: _bogoliubov_gap(space, x, vectors)

    for i, (m,), bg, levels in _leveled_backgrounds(rng, GERBE_BACKGROUNDS, 3, lambda r: (int(r.integers(2, 7)),)):
        inputs = {"m": m, "bg": bg.matrix, "levels": levels}
        yield f"gerbe-witness/{i:03d}", inputs, "witness", lambda: abs(abs(gerbe_triple_check(bg, *levels)) - 1.0)

    for i, (m, k), bg, levels in _leveled_backgrounds(rng, FILLING_CASES, 2, _modes):
        inputs = {"m": m, "k": k, "bg": bg.matrix, "levels": levels}
        yield f"filling/{i:02d}", inputs, "filling", lambda: _filling_gap(build_car(m, Polarization(m, k)), bg, *levels)

    for i, (m,), bg, levels in _leveled_backgrounds(rng, WINDOW_CASES, 2, lambda r: (int(r.integers(2, 7)),)):
        x = inst.random_anti_hermitian(rng, m)
        y = inst.random_anti_hermitian(rng, m)
        inputs = {"m": m, "bg": bg.matrix, "levels": levels, "x": x, "y": y}
        yield f"schwinger-window/{i:03d}", inputs, "schwinger_trace_formula", lambda: _window_gap(bg, levels, x, y)


def _car_gap(m) -> float:
    space = build_car(m, Polarization(m, m // 2))
    worst = 0.0
    eye = np.eye(space.dim)
    mats = [creation(space, e) for e in np.eye(m)]
    for i in range(m):
        for j in range(m):
            cc = mats[i] @ mats[j] + mats[j] @ mats[i]
            worst = max(worst, float(np.max(np.abs(cc))))
            ca = mats[i] @ mats[j].conj().T + mats[j].conj().T @ mats[i]
            target = eye if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(ca - target))))
    return worst


def _bogoliubov_gap(space, x, vectors) -> float:
    implementer = bogoliubov_implement(space, x).matrix
    inv = implementer.conj().T
    u = matrix_exponential(x)
    worst = 0.0
    for v in vectors:
        v = v / np.linalg.norm(v)
        lhs = implementer @ creation(space, v) @ inv
        rhs = creation(space, u @ v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _filling_gap(space, bg, lam, mu) -> float:
    """Creating the modes between lam and mu on the lam vacuum gives the mu vacuum up to phase."""
    w, v = bg.eigensystem()
    state = vacuum_at_level(space, bg, lam)
    for idx in reversed([i for i in range(space.modes) if lam < w[i] < mu]):
        state = apply_creation(space, v[:, idx], state)
    return abs(abs(complex(np.vdot(vacuum_at_level(space, bg, mu), state))) - 1.0)


def _window_gap(bg, levels, x, y) -> float:
    """|c(h - l2) - c(h - l1) - Tr(Q [x, y])|, Q the projector onto the (l1, l2) window of h.

    c(h - l) is the Schwinger scalar in the polarization whose minus side is
    the spectrum of h below l; by c(x, y) = Tr(P_-[x, y]) the two scalars
    differ by the trace over the modes between the levels.
    """
    low, high = schwinger_over_backgrounds(x, y, [bg.matrix - level * np.eye(bg.dim) for level in levels])
    frame = vacuum_line(bg, *levels).frame
    return abs(high - low - complex(np.trace(frame.conj().T @ _comm(x, y) @ frame)))


def _leveled_backgrounds(rng, cases: int, count: int, draw_modes):
    """The first `cases` of at most 20 * cases backgrounds that admit `count` safe levels.

    Each try draws its mode numbers (the first is the size m), an m x m
    Hermitian background and then the levels; yields (index, modes,
    background, levels).
    """
    found = 0
    for _ in range(20 * cases):
        if found == cases:
            return
        modes = draw_modes(rng)
        bg = SpectralBackground(inst.random_hermitian(rng, modes[0]))
        levels = _safe_levels(rng, bg, count)
        if levels is not None:
            yield found, modes, bg, levels
            found += 1


def _safe_levels(rng, bg: SpectralBackground, count: int, margin=1e-6):
    """Distinct cut levels placed between eigenvalues, away from the spectrum."""
    w, _ = bg.eigensystem()
    m = w.shape[0]
    candidates = [w[0] - 1.0]
    for i in range(m - 1):
        mid = 0.5 * (w[i] + w[i + 1])
        if min(abs(mid - w[i]), abs(mid - w[i + 1])) > margin:
            candidates.append(mid)
    candidates.append(w[-1] + 1.0)
    if len(candidates) < count:
        return None
    picks = sorted(rng.choice(len(candidates), size=count, replace=False).tolist())
    return [float(candidates[i]) for i in picks]


# ---------------------------------------------------------------------------
# groupoid


def _suite_groupoid(rng):
    catalog = sorted(inst.group_catalog().items())
    for name, group in catalog:
        max_points = 2 if group.order > 6 else 3
        points, action = inst.random_right_action(rng, group, max_points)
        gpd = action_groupoid(points, group, action)
        yield f"axioms/{name}", {"group": name, "points": len(points)}, "exact", lambda: not axioms_check(gpd)
        modulus = int(rng.integers(2, 5 if group.order > 6 else 9))
        c = inst.random_groupoid_cocycle(rng, gpd, group, points, action, modulus)
        inputs = {"group": name, "N": modulus}
        yield f"cocycle/{name}", inputs, "exact", lambda: cocycle_check(gpd, c)
        ext = cache(lambda: central_extend(gpd, c))
        yield f"centrality/{name}", inputs, "exact", lambda: centrality_check(ext())
        yield f"total-axioms/{name}", inputs, "exact", lambda: not axioms_check(ext().total)

    # capacity corners: N = 8 on the order-8 groups over a single point
    for name in ("Z8", "D4"):
        group = inst.group_catalog()[name]
        gpd = inst.point_groupoid(group)
        c = inst.random_groupoid_cocycle(rng, gpd, group, ["*"], [[0] * group.order], 8)
        inputs = {"group": name, "N": 8}
        yield f"centrality-N8/{name}", inputs, "exact", lambda: centrality_check(central_extend(gpd, c))

    for i in range(COVER_ROUNDTRIPS):
        gpd, group, points, action, source, data, modulus = inst.random_cover_instance(
            rng, max_points=3, max_order=6, max_modulus=5, n_charts=3
        )
        glued = cache(lambda: glue_local_data(data, modulus).cocycle)
        inputs = {"group": group.elements, "points": points, "N": modulus, "cover": [sorted(ch) for ch in data.cover]}
        yield f"cover-roundtrip/{i:02d}", inputs, "exact", lambda: _cohomologous(gpd, modulus, [glued()], source)
        if i < CLASS_CROSSCHECKS:
            inputs = {"N": modulus, "i": i}
            yield f"cover-class/{i:02d}", inputs, "exact", lambda: _same_class(gpd, glued(), source, modulus)


def _cohomologous(gpd, modulus, cocycles, base) -> bool:
    """Whether each cocycle differs from base by a coboundary, by a witness solve."""
    nv = nerve(gpd, 2)
    d1 = coboundary_matrix(nv, 1)
    ref = cocycle_vector(nv, base)
    return all(solve_mod(d1, (cocycle_vector(nv, c) - ref) % modulus, modulus) is not None for c in cocycles)


def _same_class(gpd, c1, c2, modulus) -> bool:
    reducer = class_reducer(gpd, 2, modulus)
    a = reducer.reduce(cocycle_vector(reducer.nerve, c1))
    b = reducer.reduce(cocycle_vector(reducer.nerve, c2))
    return a.vector == b.vector and a.orders == b.orders


# ---------------------------------------------------------------------------
# cohomology


def _brute_h2_order(gpd, modulus) -> int:
    """H^2 order by direct enumeration of all 2-cochains; small nerves only."""
    nv = nerve(gpd, 3)
    n1, n2 = nv.size(1), nv.size(2)
    if modulus**n2 > 200_000:
        raise DomainError(f"enumeration needs {modulus}^{n2} cochains; too many")
    d2 = coboundary_matrix(nv, 2)
    d1 = coboundary_matrix(nv, 1)
    chains = np.array(list(product(range(modulus), repeat=n2)), dtype=np.int64)
    is_cocycle = ~np.any((chains @ d2.T) % modulus, axis=1)
    n_cocycles = int(np.sum(is_cocycle))
    ones = np.array(list(product(range(modulus), repeat=n1)), dtype=np.int64)
    images = {tuple(row) for row in (ones @ d1.T) % modulus}
    if n_cocycles % len(images):
        raise DomainError("cocycle count is not a multiple of the coboundary count")
    return n_cocycles // len(images)


def _carry_bases(group, modulus):
    """Representative valid cocycle tables on a group: zero plus carry pullbacks."""
    tables = [np.zeros((group.order, group.order), dtype=np.int64)]
    for m in (2, 3, 4):
        homs = [phi for phi in inst.homomorphisms_to_cyclic(group, m) if any(phi)]
        for phi in homs[:2]:
            tables.append(inst.carry_table(group, phi, m) % modulus)
    return tables[:4]


def _suite_cohomology(rng):
    for i in range(SQUARE_ZERO_CASES):
        group, points, action, gpd = inst.random_action_instance(rng, max_points=3, max_order=6)
        modulus = int(rng.integers(2, 7))
        nv = nerve(gpd, 3)
        cochains = [rng.integers(modulus, size=nv.size(d)) for d in (0, 1)]
        yield f"square-zero/{i:02d}", {"i": i, "N": modulus, "group": group.elements}, "exact", lambda: not any(
            np.any(coboundary_matrix(nv, d + 1) @ (coboundary_matrix(nv, d) @ f) % modulus)
            for d, f in enumerate(cochains)
        )

    for n in (2, 3):
        gpd = inst.point_groupoid(inst.cyclic_group(n))
        grp = cache(lambda: cohomology_group(gpd, 2, n))
        yield f"h2-bz{n}/orders", {"n": n}, "exact", lambda: grp().orders == (n,)
        yield f"h2-bz{n}/brute-force", {"n": n}, "exact", lambda: grp().order == _brute_h2_order(gpd, n) == n

    for n in (2, 3, 4):
        group = inst.cyclic_group(n)
        gpd = inst.translation_groupoid(group)
        yield f"free-action/z{n}-trivial", {"n": n}, "exact", lambda: cohomology_group(gpd, 2, n).trivial
        points, action = list(range(n)), group.mult.tolist()
        cocycles = [
            inst.random_groupoid_cocycle(rng, gpd, group, points, action, n) for _ in range(FREE_ACTION_SAMPLES)
        ]
        yield f"free-action/z{n}-split", {"n": n}, "exact", lambda: _cohomologous(
            gpd, n, cocycles, zero_cocycle(gpd, n)
        )

    unit = action_groupoid([0, 1, 2], inst.cyclic_group(1), [[0], [1], [2]])
    yield "unit-groupoid/trivial", {}, "exact", lambda: cohomology_group(unit, 2, 4).trivial

    groups = [
        ("Z2", inst.cyclic_group(2)),
        ("Z3", inst.cyclic_group(3)),
        ("Z4", inst.cyclic_group(4)),
        ("Z2xZ2", inst.direct_product(inst.cyclic_group(2), inst.cyclic_group(2))),
    ]
    for gname, group in groups:
        gpd = inst.point_groupoid(group)
        for modulus in (2, 3, 4):
            reducer = cache(lambda: class_reducer(gpd, 2, modulus))
            for b_idx, table in enumerate(_carry_bases(group, modulus)):
                inputs = {"g": gname, "N": modulus, "base": table}
                yield f"twist/{gname}-N{modulus}-b{b_idx}", inputs, "exact", lambda: _twist_stable(
                    gpd, group, reducer(), table, modulus
                )

    # Morita invariance: H^2 of a presentation is H^2 of its skeleton, and a
    # class vanishes exactly when its restriction to the skeleton does
    for i in range(MORITA_CASES):
        group, points, action, gpd = inst.random_action_instance(rng, max_points=4, max_order=6)
        modulus = int(rng.integers(2, 5))
        inputs = {"i": i, "N": modulus, "group": group.elements, "action": action}
        reducer = cache(lambda: class_reducer(gpd, 2, modulus))
        yield f"morita/orders-{i:02d}", inputs, "exact", lambda: cohomology_group(gpd, 2, modulus) == reducer().group()
        c = inst.random_groupoid_cocycle(rng, gpd, group, points, action, modulus)
        yield f"morita/class-{i:02d}", inputs, "exact", lambda: _restriction_agrees(gpd, reducer(), c, modulus)


def _twist_stable(gpd, group, reducer, table, modulus) -> bool:
    """Whether every coboundary twist of the inflated base keeps its class."""
    base = inst.inflate_group_cocycle(group, ["*"], [[0] * group.order], table, modulus)
    if cocycle_check(gpd, base) != 0.0:
        return False
    ref = reducer.reduce(cocycle_vector(reducer.nerve, base)).vector
    return all(
        reducer.reduce(cocycle_vector(reducer.nerve, coboundary_twist(gpd, base, list(b)))).vector == ref
        for b in product(range(modulus), repeat=gpd.n_arrows)
    )


def _restriction_agrees(gpd, reducer, c, modulus) -> bool:
    sk, kept = skeleton(gpd)
    x, y = kept[sk.composable_pairs()].T
    restricted = class_reducer(sk, 2, modulus).reduce(c.table(gpd)[x, y])
    return reducer.reduce(cocycle_vector(reducer.nerve, c)).trivial == restricted.trivial


_SUITE_FUNCS = {
    "detp": _suite_detp,
    "grassmann": _suite_grassmann,
    "fock": _suite_fock,
    "groupoid": _suite_groupoid,
    "cohomology": _suite_cohomology,
}
