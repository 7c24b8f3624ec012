"""Seeded verification suites and machine-readable reports.

Each suite draws its instances from the PCG64 stream for the given seed,
measures a violation per case, and compares it against a named tolerance.
Exact integer checks report violation 0.0 or 1.0 against threshold 0.0.
Reports serialize as JSON lines, one object per case plus a summary; the
summary's wall_time and started fields are the only nondeterministic
content for a fixed seed. A suite that raises keeps the cases recorded
before it and ends with a failed case of violation inf whose `error` field
holds the exception class and message.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
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
    schwinger_term,
    vacuum_at_level,
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
)
from .linalg import Polarization, matrix_exponential, sign_commutator
from .nerve import (
    Cochain,
    class_reducer,
    coboundary,
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
        return self.violation <= self.threshold


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


class _Recorder:
    def __init__(self, suite: str, tolerances: dict):
        self.suite = suite
        self.tolerances = tolerances
        self.cases = []

    def add(self, name: str, inputs, violation: float, tol_key: str):
        self.cases.append(
            CaseRecord(
                suite=self.suite,
                name=name,
                inputs=digest(inputs),
                violation=float(violation),
                threshold=float(self.tolerances[tol_key]),
            )
        )

    def add_exact(self, name: str, inputs, ok: bool):
        self.add(name, inputs, 0.0 if ok else 1.0, "exact")

    def add_error(self, exc: Exception):
        message = f"{type(exc).__name__}: {exc}"
        self.cases.append(
            CaseRecord(
                suite=self.suite,
                name="error",
                inputs=digest(message),
                violation=math.inf,
                threshold=float(self.tolerances["exact"]),
                error=message,
            )
        )


def resolve_tolerances(overrides=None) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for key, val in (overrides or {}).items():
        if key not in tol:
            raise DomainError(f"unknown tolerance key {key!r}")
        tol[key] = real(val, f"tolerance {key}", lo=0.0)
    return tol


def run_suite(name: str, seed: int, tolerances=None) -> Report:
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    tol = resolve_tolerances(tolerances)
    rec = _Recorder(name, tol)
    rng = inst.generator(seed)
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    try:
        _SUITE_FUNCS[name](rng, rec)
    except Exception as exc:  # one raising case must not cost the cases before it
        rec.add_error(exc)
    report = Report(suite=name, seed=int(seed), tolerances=tol, cases=rec.cases)
    report.wall_time = time.perf_counter() - t0
    report.started = started
    return report


def run_suites(name: str, seed: int, tolerances=None) -> list:
    if name == "all":
        return [run_suite(s, seed, tolerances) for s in SUITE_NAMES]
    return [run_suite(name, seed, tolerances)]


# ---------------------------------------------------------------------------
# detp


def _suite_detp(rng, rec):
    for i in range(SERIES_CASES):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        a = inst.random_perturbation(rng, n, 0.1)
        lhs = det_p(a, p).log_value
        rhs = log_det_p_series(a, p, 40)
        rec.add(f"series/{i:03d}", {"n": n, "p": p, "a": a}, abs(lhs - rhs), "series")

    for i in range(DUAL_CASES):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        a = inst.random_perturbation(rng, n, 0.8)
        rec.add(f"dual-route/{i:03d}", {"n": n, "p": p, "a": a}, dual_route_gap(a, p), "dual_route")
        classical = np.linalg.det(np.eye(n) + a)
        gap = abs(det_p(a, 1).value - classical) / max(abs(classical), 1e-300)
        rec.add(f"classical/{i:03d}", {"n": n, "a": a}, gap, "classical")

    for i in range(OMEGA_TRIPLES):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 5))
        a, b, c = (inst.random_perturbation(rng, n, 0.5) for _ in range(3))
        bc = b + c + b @ c
        ab = a + b + a @ b
        lhs = omega_p(a, bc, p)
        rhs = omega_p(ab, c, p) * omega_p(a, b, p)
        vio = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rec.add(f"omega-cocycle/{i:03d}", {"n": n, "p": p, "a": a, "b": b, "c": c}, vio, "omega_cocycle")

    for i in range(GAMMA_CASES):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 5))
        a = inst.random_perturbation(rng, n, 0.5)
        b = inst.random_perturbation(rng, n, 0.5)
        d = gamma_p(a, b, p) - gamma_p(b, a, p)
        imag = math.remainder(d.imag, 2.0 * math.pi)
        vio = math.hypot(d.real, imag)
        rec.add(f"gamma-symmetry/{i:03d}", {"n": n, "p": p, "a": a, "b": b}, vio, "gamma_symmetry")

    fix = det_p(np.diag([0.5, 0.0]), 2).value
    rec.add("fixture/det2-diag", {"a": [0.5, 0.0]}, abs(fix - 1.5 * math.exp(-0.5)), "fixture")
    s1 = log_det_p_series(np.array([[0.1]]), 1, 60)
    rec.add("fixture/series-p1", {"a": 0.1}, abs(s1 - math.log(1.1)), "fixture")
    s2 = log_det_p_series(np.array([[0.1]]), 2, 60)
    rec.add("fixture/series-p2", {"a": 0.1}, abs(s2 - (math.log(1.1) - 0.1)), "fixture")
    g = gamma_p(np.array([[0.1]]), np.array([[0.1]]), 2)
    rec.add("fixture/gamma2", {"a": 0.1}, abs(g - (-0.01)), "fixture")
    om = omega_p(np.array([[0.1]]), np.array([[0.1]]), 2)
    rec.add("fixture/omega2", {"a": 0.1}, abs(om - 1.1 * math.exp(-0.11)), "fixture")


# ---------------------------------------------------------------------------
# grassmann


def _random_pol(rng, n_lo=2, n_hi=6):
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, n))
    return Polarization(n, k)


def _suite_grassmann(rng, rec):
    for i in range(LINE_ACTION_CASES):
        pol = _random_pol(rng)
        p = int(rng.integers(1, 4))
        w = inst.random_frame(rng, pol)
        k = pol.plus_dim
        t1 = np.eye(k) + inst.random_perturbation(rng, k, 0.3)
        t2 = np.eye(k) + inst.random_perturbation(rng, k, 0.3)
        elem = DetLineElement(w, complex(np.exp(2j * np.pi * rng.random())))
        two_steps = detline_act(detline_act(elem, t1, p), t2, p)
        one_step = detline_act(elem, t1 @ t2, p)
        vio = abs(two_steps.coeff - one_step.coeff) / max(abs(one_step.coeff), 1e-300)
        rec.add(
            f"line-action/{i:03d}",
            {"pol": (pol.dim, k), "p": p, "w": w.matrix, "t1": t1, "t2": t2},
            vio,
            "line_action",
        )

    for i in range(EQUIVARIANCE_CASES):
        pol = _random_pol(rng)
        p = int(rng.integers(1, 4))
        w = inst.random_frame(rng, pol)
        k = pol.plus_dim
        t = np.eye(k) + inst.random_perturbation(rng, k, 0.3)
        lhs = canonical_section(frame_act(w, t), p)
        rhs = canonical_section(w, p) * omega_p(w_plus(w) - np.eye(k), t - np.eye(k), p)
        vio = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rec.add(
            f"equivariance/{i:03d}",
            {"pol": (pol.dim, k), "p": p, "w": w.matrix, "t": t},
            vio,
            "equivariance",
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
        lhs = alpha_ratio(g, q, w, t1 @ t2, p)
        rhs = alpha_ratio(g, q, w, t1, p) * alpha_ratio(g, q, frame_act(w, t1), t2, p)
        vio = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rec.add(
            f"alpha/{i:03d}",
            {"pol": (pol.dim, k), "p": p, "w": w.matrix, "g": g, "q": q, "t1": t1, "t2": t2},
            vio,
            "alpha",
        )


# ---------------------------------------------------------------------------
# fock


def _space(rng, m_lo=2, m_hi=4):
    m = int(rng.integers(m_lo, m_hi + 1))
    k = int(rng.integers(1, m))
    return build_car(m, Polarization(m, k))


def _comm(a, b):
    return a @ b - b @ a


def _quarter_trace(x, y, pol):
    eps = pol.epsilon
    return complex(np.trace(eps @ sign_commutator(x, pol) @ sign_commutator(y, pol)) / 4.0)


def _suite_fock(rng, rec):
    for m in range(1, 5):
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
        rec.add(f"car-relations/m{m}", {"m": m}, worst, "car")

    for i in range(SCHWINGER_PAIRS):
        space = _space(rng)
        m = space.modes
        x = inst.random_anti_hermitian(rng, m)
        y = inst.random_anti_hermitian(rng, m)
        detail = schwinger_detail(space, x, y)
        rec.add(f"schwinger-residue/{i:03d}", {"m": m, "x": x, "y": y}, detail["residue"], "schwinger_residue")
        reverse = schwinger_term(space, y, x)
        rec.add(
            f"schwinger-antisymmetry/{i:03d}",
            {"m": m, "x": x, "y": y},
            abs(detail["value"] + reverse),
            "schwinger_antisymmetry",
        )
        rec.add(
            f"schwinger-trace-formula/{i:03d}",
            {"m": m, "x": x, "y": y},
            abs(detail["value"] - _quarter_trace(x, y, space.pol)),
            "schwinger_trace_formula",
        )

    for i in range(LIE_TRIPLES):
        space = _space(rng)
        m = space.modes
        x, y, z = (inst.random_anti_hermitian(rng, m) for _ in range(3))
        total = (
            schwinger_term(space, _comm(x, y), z)
            + schwinger_term(space, _comm(y, z), x)
            + schwinger_term(space, _comm(z, x), y)
        )
        rec.add(f"lie-cocycle/{i:03d}", {"m": m, "x": x, "y": y, "z": z}, abs(total), "lie_cocycle")

    for i in range(BLOCK_PAIRS):
        space = _space(rng)
        x = inst.random_block_diagonal_anti_hermitian(rng, space.pol)
        y = inst.random_block_diagonal_anti_hermitian(rng, space.pol)
        val = schwinger_term(space, x, y)
        rec.add(f"schwinger-block-diagonal/{i:02d}", {"m": space.modes, "x": x, "y": y}, abs(val), "block_diagonal")

    space = build_car(2, Polarization(2, 1))
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    lowering = raising.T.copy()
    fixture = schwinger_term(space, raising, lowering)
    rec.add("schwinger-fixture/m2k1", {"m": 2}, abs(fixture - (-1.0)), "schwinger_fixture")

    for i in range(BOGOLIUBOV_GENERATORS):
        space = _space(rng)
        m = space.modes
        x = inst.random_anti_hermitian(rng, m, 0.8)
        implementer = bogoliubov_implement(space, x).matrix
        inv = implementer.conj().T
        u = matrix_exponential(x)
        worst = 0.0
        for _ in range(BOGOLIUBOV_VECTORS):
            v = inst.random_complex(rng, m, 1).reshape(-1)
            v /= np.linalg.norm(v)
            lhs = implementer @ creation(space, v) @ inv
            rhs = creation(space, u @ v)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        rec.add(f"bogoliubov/{i:02d}", {"m": m, "x": x}, worst, "bogoliubov")

    count = 0
    attempts = 0
    while count < GERBE_BACKGROUNDS and attempts < GERBE_BACKGROUNDS * 20:
        attempts += 1
        m = int(rng.integers(2, 7))
        bg = SpectralBackground(inst.random_hermitian(rng, m))
        levels = _safe_levels(rng, bg, 3)
        if levels is None:
            continue
        l1, l2, l3 = levels
        witness = gerbe_triple_check(bg, l1, l2, l3)
        rec.add(
            f"gerbe-witness/{count:03d}",
            {"m": m, "bg": bg.matrix, "levels": [l1, l2, l3]},
            abs(abs(witness) - 1.0),
            "witness",
        )
        count += 1

    count = 0
    attempts = 0
    while count < FILLING_CASES and attempts < FILLING_CASES * 20:
        attempts += 1
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m))
        space = build_car(m, Polarization(m, k))
        bg = SpectralBackground(inst.random_hermitian(rng, m))
        levels = _safe_levels(rng, bg, 2)
        if levels is None:
            continue
        lam, mu = levels
        w, v = bg.eigensystem()
        between = [i for i in range(m) if lam < w[i] < mu]
        low = vacuum_at_level(space, bg, lam)
        high = vacuum_at_level(space, bg, mu)
        state = low
        for idx in reversed(between):
            state = apply_creation(space, v[:, idx], state)
        overlap = complex(np.vdot(high, state))
        rec.add(
            f"filling/{count:02d}",
            {"m": m, "k": k, "bg": bg.matrix, "levels": [lam, mu]},
            abs(abs(overlap) - 1.0),
            "filling",
        )
        count += 1


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


def _suite_groupoid(rng, rec):
    catalog = sorted(inst.group_catalog().items())
    for name, group in catalog:
        max_points = 2 if group.order > 6 else 3
        points, action = inst.random_right_action(rng, group, max_points)
        gpd = action_groupoid(points, group, action)
        rec.add_exact(f"axioms/{name}", {"group": name, "points": len(points)}, not axioms_check(gpd))
        modulus = int(rng.integers(2, 5 if group.order > 6 else 9))
        c = inst.random_groupoid_cocycle(rng, gpd, group, points, action, modulus)
        rec.add(f"cocycle/{name}", {"group": name, "N": modulus}, cocycle_check(gpd, c), "exact")
        ext = central_extend(gpd, c)
        rec.add(f"centrality/{name}", {"group": name, "N": modulus}, centrality_check(ext), "exact")
        rec.add_exact(f"total-axioms/{name}", {"group": name, "N": modulus}, not axioms_check(ext.total))

    # capacity corners: N = 8 on the order-8 groups over a single point
    for name in ("Z8", "D4"):
        group = inst.group_catalog()[name]
        gpd = inst.point_groupoid(group)
        c = inst.random_groupoid_cocycle(rng, gpd, group, ["*"], [[0] * group.order], 8)
        ext = central_extend(gpd, c)
        rec.add(f"centrality-N8/{name}", {"group": name, "N": 8}, centrality_check(ext), "exact")

    for i in range(COVER_ROUNDTRIPS):
        gpd, group, points, action, source, data, modulus = inst.random_cover_instance(
            rng, max_points=3, max_order=6, max_modulus=5, n_charts=3
        )
        ext = glue_local_data(data, modulus)
        glued = ext.cocycle
        nv = nerve(gpd, 2)
        diff = (cocycle_vector(nv, glued) - cocycle_vector(nv, source)) % modulus
        witness = solve_mod(coboundary_matrix(nv, 1), diff, modulus)
        rec.add_exact(
            f"cover-roundtrip/{i:02d}",
            {"group": group.elements, "points": points, "N": modulus, "cover": [sorted(ch) for ch in data.cover]},
            witness is not None,
        )
        if i < CLASS_CROSSCHECKS:
            reducer = class_reducer(gpd, 2, modulus)
            cls_src = reducer.reduce(cocycle_vector(reducer.nerve, source))
            cls_glu = reducer.reduce(cocycle_vector(reducer.nerve, glued))
            rec.add_exact(
                f"cover-class/{i:02d}",
                {"N": modulus, "i": i},
                cls_src.vector == cls_glu.vector and cls_src.orders == cls_glu.orders,
            )


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


def _suite_cohomology(rng, rec):
    for i in range(SQUARE_ZERO_CASES):
        group, points, action, gpd = inst.random_action_instance(rng, max_points=3, max_order=6)
        modulus = int(rng.integers(2, 7))
        nv = nerve(gpd, 3)
        worst = 0
        for degree in (0, 1):
            values = rng.integers(modulus, size=nv.size(degree))
            f = Cochain(degree=degree, modulus=modulus, values=np.asarray(values, dtype=np.int64))
            ddf = coboundary(coboundary(f, nv), nv)
            if np.any(ddf.values % modulus):
                worst = 1
        rec.add(f"square-zero/{i:02d}", {"i": i, "N": modulus, "group": group.elements}, float(worst), "exact")

    for n in (2, 3):
        gpd = inst.point_groupoid(inst.cyclic_group(n))
        grp = cohomology_group(gpd, 2, n)
        brute = _brute_h2_order(gpd, n)
        rec.add_exact(f"h2-bz{n}/orders", {"n": n}, grp.orders == (n,))
        rec.add_exact(f"h2-bz{n}/brute-force", {"n": n}, grp.order == brute == n)

    for n in (2, 3, 4):
        gpd = inst.translation_groupoid(inst.cyclic_group(n))
        grp = cohomology_group(gpd, 2, n)
        rec.add_exact(f"free-action/z{n}-trivial", {"n": n}, grp.trivial)
        nv = nerve(gpd, 2)
        d1 = coboundary_matrix(nv, 1)
        group = inst.cyclic_group(n)
        points = list(range(n))
        action = group.mult.tolist()
        all_split = True
        for _ in range(FREE_ACTION_SAMPLES):
            c = inst.random_groupoid_cocycle(rng, gpd, group, points, action, n)
            vec = cocycle_vector(nv, c)
            if solve_mod(d1, vec, n) is None:
                all_split = False
        rec.add_exact(f"free-action/z{n}-split", {"n": n}, all_split)

    unit = action_groupoid([0, 1, 2], inst.cyclic_group(1), [[0], [1], [2]])
    rec.add_exact("unit-groupoid/trivial", {}, cohomology_group(unit, 2, 4).trivial)

    groups = [
        ("Z2", inst.cyclic_group(2)),
        ("Z3", inst.cyclic_group(3)),
        ("Z4", inst.cyclic_group(4)),
        ("Z2xZ2", inst.direct_product(inst.cyclic_group(2), inst.cyclic_group(2))),
    ]
    for gname, group in groups:
        gpd = inst.point_groupoid(group)
        points, action = ["*"], [[0] * group.order]
        for modulus in (2, 3, 4):
            reducer = class_reducer(gpd, 2, modulus)
            nv = reducer.nerve
            for b_idx, table in enumerate(_carry_bases(group, modulus)):
                base = inst.inflate_group_cocycle(gpd, group, points, action, table, modulus)
                if cocycle_check(gpd, base) != 0.0:
                    rec.add_exact(f"twist/{gname}-N{modulus}-b{b_idx}", {"g": gname}, False)
                    continue
                ref = reducer.reduce(cocycle_vector(nv, base)).vector
                stable = True
                for b in product(range(modulus), repeat=gpd.n_arrows):
                    twisted = coboundary_twist(gpd, base, list(b))
                    if reducer.reduce(cocycle_vector(nv, twisted)).vector != ref:
                        stable = False
                        break
                rec.add_exact(
                    f"twist/{gname}-N{modulus}-b{b_idx}",
                    {"g": gname, "N": modulus, "base": table},
                    stable,
                )

    # Morita invariance: H^2 of a presentation is H^2 of its skeleton, and a
    # class vanishes exactly when its restriction to the skeleton does
    for i in range(MORITA_CASES):
        group, points, action, gpd = inst.random_action_instance(rng, max_points=4, max_order=6)
        modulus = int(rng.integers(2, 5))
        inputs = {"i": i, "N": modulus, "group": group.elements, "action": action}
        reducer = class_reducer(gpd, 2, modulus)
        rec.add_exact(f"morita/orders-{i:02d}", inputs, cohomology_group(gpd, 2, modulus) == reducer.group())
        c = inst.random_groupoid_cocycle(rng, gpd, group, points, action, modulus)
        sk, kept = skeleton(gpd)
        restricted = class_reducer(sk, 2, modulus).reduce(c.values_at(kept[sk.composable_pairs()]))
        whole = reducer.reduce(cocycle_vector(reducer.nerve, c))
        rec.add_exact(f"morita/class-{i:02d}", inputs, whole.trivial == restricted.trivial)


_SUITE_FUNCS = {
    "detp": _suite_detp,
    "grassmann": _suite_grassmann,
    "fock": _suite_fock,
    "groupoid": _suite_groupoid,
    "cohomology": _suite_cohomology,
}
