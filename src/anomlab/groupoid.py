"""Finite groupoids, phase 2-cocycles, central extensions, and chart gluing.

Composability convention, fixed once for the whole package: a pair (x, y)
of arrows is composable iff s(x) = t(y), and the product x*y runs y first,
so s(x*y) = s(y) and t(x*y) = t(x). For the action groupoid of a right
G-action on A the arrows are (a, g) with s = a, t = a.g, and for composable
(x, y) with y = (a, g), x = (a.g, h) the product is (a, g*h). Written in
traversal order that is the familiar rule "(a, g) then (a.g, h) gives
(a, gh)"; the tables here simply key it as (second, first).

Phase cocycles take values in the N-th roots of unity, stored as integer
exponents mod N so every identity below is checked in exact arithmetic, or
in the full unit circle (modulus None) as complex numbers. A valid
2-cocycle twists the multiplication of the trivial circle bundle into a
central extension; conversely extensions glued from chart-local data must
satisfy a descent condition tying overlapping charts together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ActionAxiomError,
    CapacityError,
    CocycleError,
    DescentError,
    DomainError,
    EvaluationError,
    ExtensionError,
    GroupoidAxiomError,
    InternalConsistencyError,
    MissingValueError,
    ShapeError,
    UnsupportedCoefficientsError,
)
from .linalg import as_square, matrix_exponential

CONTINUOUS_TOL = 1e-10
ASSOCIATIVITY_BLOCK = 2**20
ETA_MIN_STEP = 1e-6
ETA_MAX_STEP = 1e-2


@dataclass
class FiniteGroupoid:
    """Tabulated groupoid: labels plus integer index tables.

    source/target/inverse are per-arrow int arrays and identity a per-object
    int array of arrow indices. compose is a dense A x A int table (A arrows):
    compose[x, y] is the index of x*y where source[x] == target[y], and -1
    off that composable set. The table has A^2 entries, the same count the
    definedness check in axioms_check walks.
    """

    objects: list
    arrows: list
    source: np.ndarray
    target: np.ndarray
    identity: np.ndarray
    inverse: np.ndarray
    compose: np.ndarray

    def __post_init__(self):
        for name in ("source", "target", "identity", "inverse", "compose"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def composable_pairs(self) -> np.ndarray:
        """(P, 2) array of composable (x, y), lexicographic: the level-2 nerve order."""
        return np.argwhere(self.compose >= 0)


def _triple_rows(compose: np.ndarray):
    """Per left arrow x: arrays (y, z) of the composable triples (x, y, z), lexicographic.

    One row at a time keeps the temporaries at O(A^2) instead of O(A^3).
    """
    for x in range(compose.shape[0]):
        ys = np.flatnonzero(compose[x] >= 0)
        yi, z = np.nonzero(compose[ys] >= 0)
        yield x, ys[yi], z


def axioms_check(g: FiniteGroupoid) -> list:
    """Exhaustively check the groupoid axioms; returns diagnostics, empty when sound."""
    bad = []
    n_obj, n_arr = g.n_objects, g.n_arrows
    src, tgt, ident, inv, comp = g.source, g.target, g.identity, g.inverse, g.compose
    if len(src) != n_arr or len(tgt) != n_arr or len(inv) != n_arr or comp.shape != (n_arr, n_arr):
        return [f"table lengths disagree with arrow count {n_arr}"]
    if len(ident) != n_obj:
        return [f"identity table length {len(ident)} != object count {n_obj}"]
    ends_bad = (src < 0) | (src >= n_obj) | (tgt < 0) | (tgt >= n_obj)
    inv_bad = (inv < 0) | (inv >= n_arr)
    for x in np.flatnonzero(ends_bad | inv_bad):
        if ends_bad[x]:
            bad.append(f"arrow {x} has out-of-range endpoints")
        if inv_bad[x]:
            bad.append(f"arrow {x} has out-of-range inverse")
    for o, e in enumerate(ident.tolist()):
        if not 0 <= e < n_arr:
            bad.append(f"object {o} has out-of-range identity")
        elif src[e] != o or tgt[e] != o:
            bad.append(f"identity of object {o} is not an endomorphism of it")
    if bad:
        return bad

    # compose must be defined exactly on pairs with s(x) = t(y)
    should = src[:, None] == tgt[None, :]
    for x, y in np.argwhere((comp >= 0) != should):
        verb = "missing" if should[x, y] else "spurious"
        bad.append(f"compose entry {verb} for pair ({x}, {y})")
    if bad:
        return bad

    pairs = g.composable_pairs()
    xs, ys = pairs[:, 0], pairs[:, 1]
    xy = comp[xs, ys]
    out_of_range = xy >= n_arr
    xy = np.where(out_of_range, 0, xy)
    wrong_ends = ~out_of_range & ((src[xy] != src[ys]) | (tgt[xy] != tgt[xs]))
    for i in np.flatnonzero(out_of_range | wrong_ends):
        what = "out of range" if out_of_range[i] else "has wrong endpoints"
        bad.append(f"product of ({xs[i]}, {ys[i]}) {what}")
    if bad:
        return bad

    for x, y, z in _triple_rows(comp):
        failed = comp[comp[x, y], z] != comp[x, comp[y, z]]
        bad.extend(f"associativity fails on ({x}, {y[i]}, {z[i]})" for i in np.flatnonzero(failed))

    arrows = np.arange(n_arr)
    et, es = ident[tgt], ident[src]
    left_bad = comp[et, arrows] != arrows
    right_bad = comp[arrows, es] != arrows
    inv_ends_bad = (src[inv] != tgt) | (tgt[inv] != src)
    right_inv_bad = ~inv_ends_bad & (comp[arrows, inv] != et)
    left_inv_bad = ~inv_ends_bad & (comp[inv, arrows] != es)
    for x in np.flatnonzero(left_bad | right_bad | inv_ends_bad | right_inv_bad | left_inv_bad):
        if left_bad[x]:
            bad.append(f"left identity fails on arrow {x}")
        if right_bad[x]:
            bad.append(f"right identity fails on arrow {x}")
        if inv_ends_bad[x]:
            bad.append(f"inverse of arrow {x} has wrong endpoints")
            continue
        if right_inv_bad[x]:
            bad.append(f"x * x^-1 is not the identity for arrow {x}")
        if left_inv_bad[x]:
            bad.append(f"x^-1 * x is not the identity for arrow {x}")
    return bad


def groupoid_from_compose(objects, arrows, source, target, compose) -> FiniteGroupoid:
    """Build a groupoid from endpoint and composition tables alone.

    compose is the dense A x A table of FiniteGroupoid. Identities and
    inverses are derived from the tables; raises if no consistent choice
    exists.
    """
    src = np.asarray(source, dtype=np.int64)
    tgt = np.asarray(target, dtype=np.int64)
    comp = np.asarray(compose, dtype=np.int64)
    arrows_ix = np.arange(len(arrows))
    # e is a unit when x*e = x for every x out of s(e) and e*y = y for every y into t(e)
    right_unit = np.all((comp == arrows_ix[:, None]) | (src[:, None] != src[None, :]), axis=0)
    left_unit = np.all((comp == arrows_ix[None, :]) | (tgt[None, :] != tgt[:, None]), axis=1)
    units = np.flatnonzero((src == tgt) & right_unit & left_unit)
    counts = np.bincount(src[units], minlength=len(objects))
    if np.any(counts != 1):
        o = np.argmax(counts != 1)
        raise GroupoidAxiomError(f"object {o} has {counts[o]} identity candidates")
    identity = np.empty(len(objects), dtype=np.int64)
    identity[src[units]] = units
    is_inverse = (comp == identity[tgt][:, None]) & (comp.T == identity[src][:, None])
    counts = is_inverse.sum(axis=1)
    if np.any(counts != 1):
        x = np.argmax(counts != 1)
        raise GroupoidAxiomError(f"arrow {x} has {counts[x]} inverse candidates")
    g = FiniteGroupoid(
        objects=list(objects),
        arrows=list(arrows),
        source=src,
        target=tgt,
        identity=identity,
        inverse=np.argmax(is_inverse, axis=1),
        compose=comp,
    )
    bad = axioms_check(g)
    if bad:
        raise GroupoidAxiomError("; ".join(bad[:5]))
    return g


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication-table group with labeled elements.

    mult is an (n, n) int64 array with mult[i, j] the index of
    elements[i] * elements[j], inverse an (n,) int64 array of element
    indices, and identity a Python int. Lists or tuples are converted here,
    once, and not checked: group_axioms_check checks them.
    """

    elements: tuple
    mult: np.ndarray
    identity: int
    inverse: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mult", np.asarray(self.mult, dtype=np.int64))
        object.__setattr__(self, "inverse", np.asarray(self.inverse, dtype=np.int64))
        object.__setattr__(self, "identity", int(self.identity))

    @property
    def order(self) -> int:
        return len(self.elements)


def group_axioms_check(g: FiniteGroup) -> list:
    """Diagnostics, empty when sound.

    Identity and inverse failures per element, then the first triple (i, j, k)
    in lexicographic order that is not associative.
    """
    n, e, mult, inv = g.order, g.identity, g.mult, g.inverse
    ar = np.arange(n)
    id_bad = (mult[e] != ar) | (mult[:, e] != ar)
    inv_bad = (mult[ar, inv] != e) | (mult[inv, ar] != e)
    bad = []
    for i in np.flatnonzero(id_bad | inv_bad).tolist():
        if id_bad[i]:
            bad.append(f"identity fails at {i}")
        if inv_bad[i]:
            bad.append(f"inverse fails at {i}")
    # rows i in blocks of about ASSOCIATIVITY_BLOCK triples (i, j, k): bounded memory on large groups
    block = max(1, ASSOCIATIVITY_BLOCK // max(1, n * n))
    for start in range(0, n, block):
        rows = mult[start : start + block]
        assoc = mult[rows] != rows[:, mult]
        if assoc.any():
            i, j, k = np.unravel_index(np.argmax(assoc), assoc.shape)
            bad.append(f"associativity fails at ({start + i}, {j}, {k})")
            break
    return bad


def check_right_action(points, group: FiniteGroup, action) -> np.ndarray:
    """The action as a checked (points x order) int64 table act[a, g] = a.g.

    Raises ActionAxiomError for the first failure, point by point: the
    identity fixes a, then per element g, a.g lies in [0, points) and
    (a.g).h = a.(g h) for each h. Entries beyond int64 are out of range.
    """
    n, m = len(points), group.order
    if len(action) != n or any(len(row) != m for row in action):
        raise ActionAxiomError("action table has wrong shape")
    raw = np.array(action, dtype=object).reshape(n, m)
    inside = (raw >= 0) & (raw < n)
    act = np.where(inside, raw, 0).astype(np.int64)
    if not inside.all():
        # each entry out of range becomes a code past n, equal codes for equal entries
        act[~inside] = n + np.unique(raw[~inside], return_inverse=True)[1].reshape(-1)
    compat_bad = act[np.where(inside, act, 0)] != act[:, group.mult]
    # per point: the identity, then per element g its range and its m compatibilities
    events = np.concatenate([~inside[..., None], compat_bad], axis=2).reshape(n, -1)
    events = np.concatenate([(act[:, group.identity] != np.arange(n))[:, None], events], axis=1)
    if events.any():
        a, j = divmod(int(np.argmax(events)), events.shape[1])
        if j == 0:
            raise ActionAxiomError(f"identity moves point {a}")
        g, h = divmod(j - 1, m + 1)
        if h == 0:
            raise ActionAxiomError(f"action entry ({a}, {g}) out of range")
        raise ActionAxiomError(f"compatibility fails at point {a}, elements ({g}, {h - 1})")
    return act


def action_pairs(act: np.ndarray) -> np.ndarray:
    """Composable pairs "g1 then g2" of the action groupoid, as an (n, m, m, 2) array.

    act is the (n, m) table of check_right_action. Entry [a, g1, g2] is
    (x, y) with y = (a, g1) and x = (a.g1, g2), arrow (a, g) having index
    a * m + g as in action_groupoid.
    """
    m = act.shape[1]
    y = np.arange(act.size).reshape(-1, m, 1)
    x = act[:, :, None] * m + np.arange(m)
    return np.stack(np.broadcast_arrays(x, y), axis=-1)


def action_groupoid(points, group: FiniteGroup, action) -> FiniteGroupoid:
    """Groupoid of a right G-action on a finite set.

    Arrow (a, g) goes from a to a.g; arrow index is a * |G| + g.
    """
    act = check_right_action(points, group, action)
    n, m = act.shape
    arrows = [(points[a], group.elements[g]) for a in range(n) for g in range(m)]
    pairs = action_pairs(act)
    compose = np.full((n * m, n * m), -1, dtype=np.int64)
    compose[pairs[..., 0], pairs[..., 1]] = np.arange(n)[:, None, None] * m + group.mult
    return FiniteGroupoid(
        objects=list(points),
        arrows=arrows,
        source=np.repeat(np.arange(n), m),
        target=act.reshape(-1),
        identity=np.arange(n) * m + group.identity,
        inverse=(act * m + group.inverse).reshape(-1),
        compose=compose,
    )


@dataclass(eq=False)
class PhaseCocycle:
    """2-cochain on composable pairs with root-of-unity or circle values.

    pairs is a (P, 2) int64 array of distinct arrow pairs, rows ascending; over
    all composable pairs that is level 2 of the nerve. values[i], the value on
    pairs[i], is an int64 exponent mod N for modulus N >= 1 and a complex128
    phase for modulus None. Arrays come in as PhaseCocycle(modulus, values,
    pairs), rows in any order; a dict {(x, y): value} as values is converted.
    """

    modulus: object
    values: np.ndarray = field(default_factory=dict)
    pairs: np.ndarray = None

    def __post_init__(self):
        if self.modulus is not None:
            if not isinstance(self.modulus, (int, np.integer)) or self.modulus < 1:
                raise DomainError(f"modulus must be a positive integer or None, got {self.modulus!r}")
            self.modulus = int(self.modulus)
        if isinstance(self.values, dict):
            self.pairs, values = list(self.values), list(self.values.values())
            # exponents beyond int64 are reduced while still Python ints
            self.values = values if self.continuous else [int(v) % self.modulus for v in values]
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        # indices below 2^31 keep the row keys of values_at within int64
        if pairs.size and not 0 <= pairs.min() <= pairs.max() < 2**31:
            raise DomainError("cocycle pairs must hold arrow indices in [0, 2^31)")
        values = np.asarray(self.values, dtype=np.complex128 if self.continuous else np.int64).reshape(-1)
        if not self.continuous:
            values = values % self.modulus
        order = np.lexsort(pairs.T[::-1])
        self.pairs, self.values = pairs[order], values[order]

    @property
    def continuous(self) -> bool:
        return self.modulus is None

    def exponent(self, x: int, y: int) -> int:
        if self.continuous:
            raise UnsupportedCoefficientsError("continuous cocycle has no exponents")
        return int(self.values_at([(x, y)])[0])

    def phase(self, x: int, y: int) -> complex:
        value = self.values_at([(x, y)])[0]
        if self.continuous:
            return complex(value)
        return complex(np.exp(2j * math.pi * int(value) / self.modulus))

    def values_at(self, pairs) -> np.ndarray:
        """Values on a (P, 2) array of pairs: int exponents, or complex phases if continuous."""
        given = np.asarray(pairs).reshape(-1, 2)
        # row keys x * (radix + 1) + y ascend with the rows, and the sentinel key
        # (radix + 1)^2 tops them all; an index outside [0, radix), fractional or
        # past int64, becomes the digit radix, which no stored pair has
        radix = int(self.pairs.max(initial=-1)) + 1
        weights = np.array([radix + 1, 1])
        keys = np.append(self.pairs @ weights, (radix + 1) ** 2)
        wanted = np.where((given >= 0) & (given < radix), given, radix).astype(np.int64)
        wanted_keys = np.where(wanted == given, wanted, radix) @ weights
        at = np.searchsorted(keys, wanted_keys)
        found = keys[at] == wanted_keys
        if not found.all():
            x, y = given[np.argmin(found)].tolist()
            raise MissingValueError(f"cocycle has no value on pair ({x}, {y})")
        return self.values[at]


def zero_cocycle(g: FiniteGroupoid, modulus) -> PhaseCocycle:
    pairs = g.composable_pairs()
    return PhaseCocycle(modulus, np.full(len(pairs), 1.0 + 0.0j if modulus is None else 0), pairs)


def _value_table(g: FiniteGroupoid, c: PhaseCocycle) -> np.ndarray:
    """c as an A x A table over g.compose, zero off the composable set."""
    pairs = g.composable_pairs()
    table = np.zeros(g.compose.shape, dtype=np.complex128 if c.continuous else np.int64)
    table[pairs[:, 0], pairs[:, 1]] = c.values_at(pairs)
    return table


def cocycle_check(g: FiniteGroupoid, c: PhaseCocycle) -> float:
    """Maximal violation of c(x,y) c(xy,z) = c(x,yz) c(y,z) over all triples."""
    table, compose, modulus = _value_table(g, c), g.compose, c.modulus
    worst = 0.0
    shifts = set()
    for x, y, z in _triple_rows(compose):
        xy, yz = compose[x, y], compose[y, z]
        if modulus is None:
            # a non-finite value makes some deviation inf or nan, silently: both count as inf
            with np.errstate(invalid="ignore", over="ignore"):
                dev = np.abs(table[x, y] * table[xy, z] - table[x, yz] * table[y, z])
            worst = max(worst, float(np.nan_to_num(dev, nan=np.inf).max(initial=0.0)))
        else:
            k = (table[x, y] + table[xy, z] - table[x, yz] - table[y, z]) % modulus
            shifts.update(k[k != 0].tolist())
    for k in shifts:
        worst = max(worst, abs(np.exp(2j * math.pi * k / modulus) - 1.0))
    return float(worst)


def coboundary_twist(g: FiniteGroupoid, c: PhaseCocycle, b) -> PhaseCocycle:
    """Twist c by the coboundary of a 1-cochain b on arrows: c(x,y) b(x) b(y) / b(xy)."""
    pairs = g.composable_pairs()
    x, y = pairs[:, 0], pairs[:, 1]
    xy = g.compose[x, y]
    if c.continuous:
        b = np.asarray(b, dtype=np.complex128)
        values = c.values_at(pairs) * b[x] * b[y] / b[xy]
    else:
        b = np.asarray(b, dtype=np.int64)
        values = (c.values_at(pairs) + b[x] + b[y] - b[xy]) % c.modulus
    return PhaseCocycle(c.modulus, values, pairs)


@dataclass
class CentralExtension:
    """Central extension of a groupoid by phases, tabulated when finite.

    For mu_N coefficients the total groupoid has arrows (x, k) at index
    x * N + k; for continuous coefficients only the multiply closure exists.
    """

    base: FiniteGroupoid
    cocycle: PhaseCocycle
    total: object  # FiniteGroupoid for mu_N, None for continuous

    @property
    def modulus(self):
        return self.cocycle.modulus

    def arrow_index(self, x: int, k: int) -> int:
        if self.total is None:
            raise UnsupportedCoefficientsError("continuous extension has no arrow table")
        return x * self.modulus + (k % self.modulus)

    def project(self, idx: int):
        if self.total is None:
            raise UnsupportedCoefficientsError("continuous extension has no arrow table")
        return divmod(idx, self.modulus)

    def phase_shift(self, k, idx: int) -> int:
        """Act by a phase on a total arrow: shifts its exponent."""
        x, a = self.project(idx)
        return self.arrow_index(x, a + int(k))

    def multiply(self, first, second):
        """Product of (arrow, phase) pairs; phases are exponents or complex."""
        x, lam = first
        y, mu = second
        n_arr = self.base.n_arrows
        xy = int(self.base.compose[x, y]) if 0 <= x < n_arr and 0 <= y < n_arr else -1
        if xy < 0:
            raise DomainError(f"pair ({x}, {y}) is not composable")
        if self.cocycle.continuous:
            return xy, complex(lam) * complex(mu) * self.cocycle.phase(x, y)
        return xy, (int(lam) + int(mu) + self.cocycle.exponent(x, y)) % self.modulus


def central_extend(g: FiniteGroupoid, c: PhaseCocycle) -> CentralExtension:
    """Build the central extension twisted by c; c must be a valid 2-cocycle."""
    violation = cocycle_check(g, c)
    limit = 0.0 if not c.continuous else CONTINUOUS_TOL
    if violation > limit:
        raise ExtensionError(
            f"cocycle identity fails with violation {violation:.3e}; extension undefined"
        )
    if c.continuous:
        return CentralExtension(base=g, cocycle=c, total=None)

    n, n_arr = c.modulus, g.n_arrows
    table = _value_table(g, c)
    k = np.arange(n)
    x, y = g.composable_pairs().T
    compose = np.full((n_arr, n, n_arr, n), -1, dtype=np.int64)
    # (x, s) * (y, t) = (xy, s + t + c(x, y))
    compose[x[:, None, None], k[:, None], y[:, None, None], k] = (
        g.compose[x, y][:, None, None] * n + (k[:, None] + k + table[x, y][:, None, None]) % n
    )
    # a non-normalized cocycle shifts the identity and inverse phases
    e, ix = g.identity, g.inverse
    et = e[g.target]
    inverse_shift = (-table[np.arange(n_arr), ix] - table[et, et]) % n
    total = FiniteGroupoid(
        objects=list(g.objects),
        arrows=[(g.arrows[a], s) for a in range(n_arr) for s in range(n)],
        source=np.repeat(g.source, n),
        target=np.repeat(g.target, n),
        identity=e * n + (-table[e, e]) % n,
        inverse=(ix[:, None] * n + (inverse_shift[:, None] - k) % n).reshape(-1),
        compose=compose.reshape(n_arr * n, n_arr * n),
    )
    bad = axioms_check(total)
    if bad:
        raise InternalConsistencyError(
            "extension total groupoid violates axioms: " + "; ".join(bad[:3])
        )
    return CentralExtension(base=g, cocycle=c, total=total)


def centrality_check(ext) -> float:
    """Maximal violation of (s.X)(t.Y) = (s t).(X Y) over phases and pairs.

    Exhaustive for mu_N extensions (all phase pairs and all composable total
    pairs); a deterministic 8-point phase grid per composable pair in the
    continuous case.
    """
    worst = 0.0
    if getattr(ext, "total", None) is not None:
        n = ext.modulus
        x, y = ext.base.composable_pairs().T
        n_arr = ext.base.n_arrows
        # (x_p, s) * (y_p, t) against (x_p, 0) * (y_p, 0) shifted by s + t
        xy_l, k_l = np.divmod(ext.total.compose.reshape(n_arr, n, n_arr, n)[x, :, y, :], n)
        xy_r = xy_l[:, :1, :1]
        k_r = (k_l[:, :1, :1] + np.arange(n)[:, None] + np.arange(n)) % n
        if np.any(xy_l != xy_r):
            worst = 2.0
        for d in np.unique((k_l - k_r)[xy_l == xy_r]).tolist():
            if d:
                worst = max(worst, abs(np.exp(2j * math.pi * d / n) - 1.0))
        return float(worst)
    grid = [complex(np.exp(2j * math.pi * j / 8)) for j in range(8)]
    for x, y in ext.base.composable_pairs().tolist():
        base_xy, base_phase = ext.multiply((x, 1.0), (y, 1.0))
        for s in grid:
            for t in grid:
                xy, lhs = ext.multiply((x, s), (y, t))
                if xy != base_xy:
                    worst = max(worst, 2.0)
                    continue
                worst = max(worst, abs(lhs - s * t * base_phase))
    return worst


MAX_LOCAL_CELLS = 1_000_000


@dataclass
class LocalExtensionData:
    """Chart-local description of a central extension over an action groupoid.

    cover is a list of C charts (sets of group element indices) whose union
    is the whole group. phi[alpha, beta, g, a] is the transition exponent
    between charts alpha and beta at element g over point a, implicitly zero
    when alpha == beta. omega[alpha, beta, gamma, f, g, a] is the local
    cocycle for f in chart alpha, g in chart beta and f g in chart gamma over
    point a. Both are int64 arrays; phi_given and omega_given mark the
    entries supplied. Given entries outside required_entries are never read.
    """

    group: FiniteGroup
    points: list
    action: list
    cover: list
    phi: np.ndarray
    phi_given: np.ndarray
    omega: np.ndarray
    omega_given: np.ndarray

    @classmethod
    def blank(cls, group: FiniteGroup, points, action, cover) -> "LocalExtensionData":
        """Zero tables with no entry given, shaped for the cover, group and points."""
        c, m, n = len(cover), group.order, len(points)
        if c**3 * m * m * n > MAX_LOCAL_CELLS:
            raise CapacityError(
                f"local tables of {c} charts, {m} elements and {n} points exceed {MAX_LOCAL_CELLS} entries"
            )
        phi, omega = np.zeros((c, c, m, n), dtype=np.int64), np.zeros((c, c, c, m, m, n), dtype=np.int64)
        return cls(group, points, action, cover, phi, phi.astype(bool), omega, omega.astype(bool))

    def membership(self) -> np.ndarray:
        """(C, |G|) bool table: entry (i, g) is set when chart i holds element g."""
        m = self.group.order
        return np.array([[g in chart for g in range(m)] for chart in self.cover], dtype=bool).reshape(-1, m)


def given_entries(values: np.ndarray, given: np.ndarray) -> list:
    """(index tuple, value) of every given entry of a local table, indices ascending."""
    return list(zip(map(tuple, np.argwhere(given).tolist()), values[given].tolist()))


def required_entries(data: LocalExtensionData) -> tuple:
    """Bool masks (phi, omega) of the entries validation reads, shaped like the tables.

    phi wherever alpha != beta and g lies in both charts; omega wherever f
    lies in alpha, g in beta and f g in gamma; both at every point.
    """
    mem = data.membership()
    n = len(data.points)
    phi = mem[:, None] & mem[None, :] & ~np.eye(len(mem), dtype=bool)[:, :, None]
    omega = mem[:, None, None, :, None] & mem[None, :, None, None, :] & mem[:, data.group.mult][None, None]
    return np.repeat(phi[..., None], n, axis=-1), np.repeat(omega[..., None], n, axis=-1)


def _chart_choices(mem: np.ndarray, mult: np.ndarray) -> tuple:
    """Chart choices (alpha, beta, gamma) for f, g and f g, over (f, g, choice).

    Returns alpha, beta, gamma and valid, each (m, m, K). The charts holding
    each element are listed ascending and padded to the longest list, so the
    valid choices of (f, g) come in lexicographic chart order.
    """
    counts = mem.sum(axis=0)
    k = int(counts.max())
    charts = np.argsort(~mem, axis=0, kind="stable")[:k].T
    held = np.arange(k) < counts[:, None]
    j1, j2, j3 = (j.ravel() for j in np.indices((k, k, k)))
    alpha, beta, gamma = np.broadcast_arrays(
        charts[:, None, j1], charts[None, :, j2], charts[mult][:, :, j3]
    )
    valid = held[:, None, j1] & held[None, :, j2] & held[mult][:, :, j3]
    return alpha, beta, gamma, valid


def _transitions_between(table, a, choices, act, mult) -> tuple:
    """table at the three chart pairs of two choices, each over (f, g, choice, choice').

    They are (alpha, alpha') at f over a, (beta, beta') at g over a.f and
    (gamma, gamma') at f g over a: the transitions the pairwise descent
    condition compares two choices by, in the order it reads them.
    """
    alpha, beta, gamma = choices
    m = len(mult)
    f = np.arange(m)[:, None, None, None]
    g = np.arange(m)[None, :, None, None]
    return (
        table[alpha[..., :, None], alpha[..., None, :], f, a],
        table[beta[..., :, None], beta[..., None, :], g, act[a, f]],
        table[gamma[..., :, None], gamma[..., None, :], mult[f, g], a],
    )


def _first_missing(data, a, choices, valid, pairs, act, mult):
    """MissingValueError for the first absent required entry over point a, or None.

    The order is the loop's: per (f, g) it reads omega in every valid
    choice, then the three transitions of every pair of choices in turn.
    """
    m, k = len(mult), valid.shape[-1]
    f, g = np.arange(m)[:, None, None], np.arange(m)[None, :, None]
    phi_present = data.phi_given | np.eye(len(data.cover), dtype=bool)[:, :, None, None]
    omega_missing = valid & ~data.omega_given[(*choices, f, g, a)]
    present = np.stack(np.broadcast_arrays(*_transitions_between(phi_present, a, choices, act, mult)), axis=-1)
    phi_missing = pairs[..., None] & ~present
    missing = np.concatenate([omega_missing, phi_missing.reshape(m, m, -1)], axis=-1)
    if not missing.any():
        return None
    f, g, j = np.unravel_index(np.argmax(missing), missing.shape)
    if j < k:
        al, be, ga = (ch[f, g, j] for ch in choices)
        return MissingValueError(f"local cocycle omega[{al},{be};{ga}] missing at ({f}, {g}), point {a}")
    k1, k2, slot = np.unravel_index(j - k, (k, k, 3))
    ch = choices[slot]
    element, point = ((f, a), (g, act[a, f]), (mult[f, g], a))[slot]
    return MissingValueError(
        f"transition phi[{ch[f, g, k1]},{ch[f, g, k2]}] missing at element {element}, point {point}"
    )


def validate_local_data(data: LocalExtensionData, modulus: int) -> np.ndarray:
    """Check cover, action, gluing, and local cocycle conditions exactly.

    Returns omega in least-index charts, indexed [a, g1, g2]: the glued
    cocycle on the pair "g1 then g2" over point a. Four steps, each raising
    for the first failure in the order of the pairwise loop over points,
    elements and chart choices: (1) cover and action; (2) presence of every
    required entry; (3) descent between every two chart choices of (f, g),
    one broadcast per point; (4) the local cocycle identity. Once (3) holds,
    omega in any choice differs from omega in least-index charts by phi
    terms that cancel in the identity, so (4) fails for some choice exactly
    when it fails in least-index charts, the charts the loop tries first.
    """
    if not isinstance(modulus, (int, np.integer)) or modulus < 1:
        raise DomainError(f"modulus must be a positive integer, got {modulus!r}")
    n = int(modulus)
    group = data.group
    m = group.order
    if set().union(*data.cover) != set(range(m)):
        raise DomainError("cover does not exhaust the group")
    act = check_right_action(data.points, group, data.action)
    c, npts = len(data.cover), len(data.points)
    phi_shape, omega_shape = (c, c, m, npts), (c, c, c, m, m, npts)
    shapes = {data.phi.shape, data.phi_given.shape}, {data.omega.shape, data.omega_given.shape}
    if shapes != ({phi_shape}, {omega_shape}):
        raise ShapeError(f"local tables must have shapes {phi_shape} and {omega_shape}")

    mem = data.membership()
    mult = group.mult
    *choices, valid = _chart_choices(mem, mult)
    if valid.size * valid.shape[-1] > MAX_LOCAL_CELLS:
        raise CapacityError(f"descent compares more than {MAX_LOCAL_CELLS} pairs of chart choices per point")
    pairs = valid[..., :, None] & valid[..., None, :]

    need_phi, need_omega = required_entries(data)
    if np.any(need_phi & ~data.phi_given) or np.any(need_omega & ~data.omega_given):
        for a in range(npts):
            error = _first_missing(data, a, choices, valid, pairs, act, mult)
            if error is not None:
                raise error

    om = data.omega % n
    ph = data.phi % n
    ph[np.arange(c), np.arange(c)] = 0
    f, g = np.arange(m)[:, None, None], np.arange(m)[None, :, None]
    for a in range(npts):
        vals = om[(*choices, f, g, a)]
        t0, t1, t2 = _transitions_between(ph, a, choices, act, mult)
        bad = pairs & ((vals[..., :, None] - vals[..., None, :] - t0 - t1 + t2) % n != 0)
        if bad.any():
            f0, g0, k1, k2 = np.unravel_index(np.argmax(bad), bad.shape)
            one, two = (",".join(str(ch[f0, g0, k]) for ch in choices) for k in (k1, k2))
            raise DescentError(
                f"gluing fails between chart choices ({one}) and ({two}) "
                f"at point {a}, elements ({f0}, {g0})"
            )

    least = np.argmax(mem, axis=0)
    e = np.arange(m)
    w = np.moveaxis(om[least[:, None], least, least[mult], e[:, None], e], -1, 0)
    a = np.arange(npts)[:, None, None, None]
    g1, g2, g3 = e[:, None, None], e[:, None], e
    g12, g23 = mult[g1, g2], mult[g2, g3]
    bad = (w[a, g12, g3] + w[a, g1, g2] - w[a, g1, g23] - w[act[a, g1], g2, g3]) % n != 0
    if bad.any():
        a, g1, g2, g3 = np.unravel_index(np.argmax(bad), bad.shape)
        g12, g23 = mult[g1, g2], mult[g2, g3]
        charts = ",".join(str(least[x]) for x in (g1, g2, g12, g3, g23, mult[g12, g3]))
        raise CocycleError(
            f"local cocycle identity fails at point {a}, elements ({g1}, {g2}, {g3}), charts ({charts})"
        )
    return w


def glue_local_data(data: LocalExtensionData, modulus: int) -> CentralExtension:
    """Assemble the global extension from chart-local data after full validation.

    Each group element is read in its least-index chart; the global cocycle
    over a composable pair is the local omega in those canonical charts.
    """
    values = validate_local_data(data, modulus)
    base = action_groupoid(data.points, data.group, data.action)
    # the targets of the action groupoid are the action table, point by point
    pairs = action_pairs(base.target.reshape(base.n_objects, -1))
    # central_extend validates the assembled cocycle and the total groupoid
    return central_extend(base, PhaseCocycle(int(modulus), values, pairs))


def eta_from_omega(omega, x, y, point, h: float) -> float:
    """Infinitesimal 2-cocycle via the group-commutator word.

    Accumulates the omega phase exponent along the product
    exp(t x) exp(s y) exp(-t x) exp(-s y) and returns the central mixed
    second difference at (t, s) = (0, 0) with step h.
    """
    if not ETA_MIN_STEP <= h <= ETA_MAX_STEP:
        raise DomainError(f"step must lie in [{ETA_MIN_STEP}, {ETA_MAX_STEP}], got {h}")
    xm = as_square(x)
    ym = as_square(y)
    if xm.shape != ym.shape:
        raise DomainError(f"generator shapes differ: {xm.shape} vs {ym.shape}")

    def word_phase(t: float, s: float) -> float:
        g1 = matrix_exponential(t * xm)
        g2 = matrix_exponential(s * ym)
        g3 = matrix_exponential(-t * xm)
        g4 = matrix_exponential(-s * ym)
        total = 0.0
        left = g1
        for nxt in (g2, g3, g4):
            try:
                val = omega(point, left, nxt)
            except Exception as exc:  # noqa: BLE001
                raise EvaluationError(f"omega evaluation failed: {exc}") from exc
            total += float(val)
            left = left @ nxt
        return total

    stencil = (
        word_phase(h, h)
        - word_phase(h, -h)
        - word_phase(-h, h)
        + word_phase(-h, -h)
    )
    return stencil / (4.0 * h * h)
