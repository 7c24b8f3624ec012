"""Nerve of a finite groupoid and cohomology with mu_N coefficients.

Level p of the nerve holds chains (g_1, ..., g_p) of arrows with
s(g_i) = t(g_(i+1)), stored as an (n_p, p) int array whose rows run
lexicographically by arrow index; level 0 holds the object indices. So
level 2 equals the groupoid's composable_pairs(), and a cocycle's values
on it are gathered from the cocycle's table at those rows. Face i composes
the pair at slot i by a gather through the compose table (dropping an end
arrow for i = 0 or p, where on level 1 the faces are source and target).
Face maps are int arrays of row positions, found by searchsorted on the
sorted rows.

A cochain is an integer array over one level, its values in Z_N written
additively, and coboundary_matrix, the alternating face sum, is the one
coboundary. cohomology_group reads the group off the invariant factors of
the two integer coboundaries at its degree, through the universal
coefficient theorem, with no transforms and no second normal form. It
computes on the normalized cochains (those vanishing on chains that hold
an identity arrow) of the skeleton of the groupoid, one vertex group per
connected component. Both keep the cohomology, which depends only
on the quotient stack the groupoid presents, and both shrink the matrices:
a translation groupoid collapses to the trivial group. The groupoid is
checked once, at the gate; its skeleton is tabulated unchecked.

Class vectors need explicit coordinates. class_reducer and extension_class
reduce a 2-cocycle to a canonical class vector, which is how central
extensions are compared: the mod-N kernel of one coboundary is an explicit
lattice, and the quotient by coboundaries plus N-multiples is read off a
second normal form with its transform. They work on the full, unnormalized
complex of the groupoid as given, since a class vector holds coordinates in
the normal-form basis of that complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import (
    CapacityError,
    CocycleError,
    GroupoidAxiomError,
    ShapeError,
    UnsupportedCoefficientsError,
    integer,
)
from .groupoid import CentralExtension, FiniteGroupoid, axioms_check, skeleton
from .snf import smith_normal_form

MAX_DEGREE = 3
MAX_CELLS = 1_000_000


@dataclass
class Nerve:
    groupoid: FiniteGroupoid
    p_max: int
    levels: list  # levels[0]: object indices; levels[p]: (n_p, p) int array of chains
    faces: list  # faces[p][i][pos] -> position in level p-1, for 1 <= p <= p_max

    def size(self, p: int) -> int:
        return len(self.levels[p])


def _check_sound(g: FiniteGroupoid):
    bad = axioms_check(g)
    if bad:
        raise GroupoidAxiomError("nerve needs a sound groupoid: " + bad[0])


def nerve(g: FiniteGroupoid, p_max: int) -> Nerve:
    """Tabulate nerve levels 0..p_max with their face maps.

    p_max runs from 0 to MAX_DEGREE (DomainError below, CapacityError above),
    and g must pass axioms_check (GroupoidAxiomError). The tabulation itself
    is _tabulate, which cohomology_group calls on a skeleton unchecked.
    """
    p_max = integer(p_max, "p_max", lo=0)
    if p_max > MAX_DEGREE:
        raise CapacityError(f"nerve degree capped at {MAX_DEGREE}, got {p_max}")
    _check_sound(g)
    return _tabulate(g, p_max)


def _tabulate(g: FiniteGroupoid, p_max: int) -> Nerve:
    """Nerve levels 0..p_max of g, with no gate: g sound and 0 <= p_max <= MAX_DEGREE.

    A level past MAX_CELLS cells in all still raises CapacityError.
    """
    levels = [np.arange(g.n_objects)]
    total = g.n_objects
    if p_max >= 1:
        levels.append(np.arange(g.n_arrows)[:, None])
        total += g.n_arrows
        for p in range(2, p_max + 1):
            # rows stay lexicographic: ascending head, then the previous level's order
            heads, rest = np.nonzero(g.compose[:, levels[p - 1][:, 0]] >= 0)
            total += len(heads)
            if total > MAX_CELLS:
                raise CapacityError(f"nerve exceeds {MAX_CELLS} cells at level {p}")
            levels.append(np.column_stack([heads, levels[p - 1][rest]]))

    radix = max(g.n_arrows, 1)

    def position(p, chains):
        """Row of each chain in level p; read as base-A numbers, rows ascend."""
        if p == 0:
            return chains[:, 0]
        weights = radix ** np.arange(p - 1, -1, -1)
        return np.searchsorted(levels[p] @ weights, chains @ weights)

    faces = [None]
    for p in range(1, p_max + 1):
        cells = levels[p]
        maps = []
        for i in range(p + 1):
            if p == 1:
                face = (g.source if i == 0 else g.target)[cells]
            elif i == 0:
                face = cells[:, 1:]
            elif i == p:
                face = cells[:, :-1]
            else:
                merged = g.compose[cells[:, i - 1], cells[:, i]]
                face = np.column_stack([cells[:, : i - 1], merged, cells[:, i + 1:]])
            maps.append(position(p - 1, face))
        faces.append(maps)

    return Nerve(groupoid=g, p_max=p_max, levels=levels, faces=faces)


def coboundary_matrix(nv: Nerve, d: int) -> np.ndarray:
    """Integer matrix of the coboundary from level d to level d+1."""
    d = integer(d, f"degree of a coboundary on levels 0..{nv.p_max}", CapacityError, 0, nv.p_max - 1)
    mat = np.zeros((nv.size(d + 1), nv.size(d)), dtype=np.int64)
    rows = np.arange(nv.size(d + 1))
    sign = 1
    for i in range(d + 2):
        table = np.asarray(nv.faces[d + 1][i])
        np.add.at(mat, (rows, table), sign)
        sign = -sign
    return mat


@dataclass(frozen=True)
class CohomologyGroup:
    """Finite abelian group as an invariant-factor chain (entries > 1)."""

    degree: int
    modulus: int
    orders: tuple

    @property
    def order(self) -> int:
        total = 1
        for d in self.orders:
            total *= d
        return total

    @property
    def trivial(self) -> bool:
        return not self.orders


@dataclass(frozen=True)
class CohomologyClass:
    degree: int
    modulus: int
    orders: tuple
    vector: tuple

    @property
    def trivial(self) -> bool:
        return all(v == 0 for v in self.vector)


def _check_degree(degree, modulus) -> tuple[int, int]:
    """degree within the nerve capacity (CapacityError) and a modulus >= 1."""
    degree = integer(degree, "cohomology degree", CapacityError, 0, MAX_DEGREE - 1)
    return degree, integer(modulus, "modulus", lo=1)


class _QuotientData:
    """Kernel lattice of one coboundary mod N and its quotient by coboundaries.

    here is the integer coboundary out of the degree and below the one into
    it (None in degree 0). nerve is the nerve whose level `degree` the
    cochain vectors of reduce() run over, or None when the matrices come
    from another complex. Its group() is the oracle of cohomology_group's
    path through invariant factors alone.

    The products run on int64. A modulus for which N V^-1, V^-1 d^(n-1) or
    V^-1 times a cochain could pass int64 raises CapacityError, as does a
    class coordinate whose sum could.
    """

    def __init__(self, here: np.ndarray, below, degree: int, modulus: int, nerve: Nerve = None):
        self.modulus = int(modulus)
        self.degree = int(degree)
        self.nerve = nerve
        n_here = here.shape[1]
        res = smith_normal_form(here, want_vinv=True)
        below_max = 0 if below is None else int(np.abs(below).max(initial=0))
        self._check_capacity(res.vinv, max(self.modulus, below_max))
        factors = res.factors + [0] * (n_here - len(res.factors))
        self.mults = np.array(
            [self.modulus // gcd(f, self.modulus) for f in factors[:n_here]],
            dtype=np.int64,
        )
        self.vinv = np.asarray(res.vinv, dtype=np.int64)
        self.matrix = here
        # relations [b | N I] in kernel coordinates; the N I block needs no product
        rel_y = self.modulus * self.vinv
        if below is not None:
            rel_y = np.hstack([self.vinv @ below, rel_y])
        if np.any(rel_y % self.mults[:, None]):
            raise CocycleError("coboundary image escapes the cocycle lattice")
        rel_y //= self.mults[:, None]
        quot = smith_normal_form(rel_y, want_u=True)
        self.factors = [int(f) for f in quot.factors]
        if any(f == 0 for f in self.factors) or len(self.factors) < n_here:
            raise CocycleError("cocycle quotient is not finite; relation matrix degenerate")
        # only a row of U with a factor f > 1 gives a class coordinate, read mod f
        keep = [i for i, f in enumerate(self.factors) if f > 1]
        self.orders = np.array([self.factors[i] for i in keep], dtype=np.int64)
        self.u = np.mod(np.asarray(quot.u)[keep], self.orders[:, None]).astype(np.int64)
        self._check_capacity(self.u, int(self.orders.max(initial=1)))

    def _check_capacity(self, transform, scale: int):
        """Raise unless every row of |transform| times entries below scale fits int64.

        Row sums are taken in float64 with a margin for their rounding.
        """
        rows = float(np.abs(transform).sum(axis=1, dtype=np.float64).max(initial=0))
        if rows * (1 + 1e-9) * scale >= 2.0**63:
            raise CapacityError(
                f"modulus {self.modulus}: N V^-1, V^-1 d^(n-1) or a class coordinate would pass int64"
            )

    def group(self) -> CohomologyGroup:
        return CohomologyGroup(
            degree=self.degree,
            modulus=self.modulus,
            orders=tuple(f for f in self.factors if f > 1),
        )

    def reduce(self, values: np.ndarray) -> CohomologyClass:
        vec = np.mod(np.asarray(values, dtype=np.int64), self.modulus)
        n_here = self.matrix.shape[1]
        if vec.shape[0] != n_here:
            raise ShapeError(f"cocycle vector has {vec.shape[0]} entries, level has {n_here}")
        if np.any((self.matrix @ vec) % self.modulus):
            raise CocycleError("vector is not a cocycle mod N")
        y = self.vinv @ vec
        if np.any(y % self.mults):
            raise CocycleError("cocycle does not lie in the kernel lattice")
        kernel = (y // self.mults)[None, :] % self.orders[:, None]
        z = np.sum(self.u * kernel, axis=1) % self.orders
        return CohomologyClass(
            degree=self.degree,
            modulus=self.modulus,
            orders=tuple(f for f in self.factors if f > 1),
            vector=tuple(int(v) for v in z),
        )


def _normalized_coboundaries(nv: Nerve, degree: int) -> tuple:
    """Coboundaries out of and into `degree` on the normalized cochains of nv.

    A normalized cochain vanishes on every chain that holds an identity
    arrow (Eilenberg-Mac Lane). Such cochains form a subcomplex with the
    same cohomology, so each coboundary is the full one restricted to the
    chains free of identities, rows and columns alike.
    """
    is_identity = np.zeros(nv.groupoid.n_arrows, dtype=bool)
    is_identity[nv.groupoid.identity] = True
    keep = [np.ones(nv.size(0), dtype=bool)]
    keep += [~is_identity[nv.levels[p]].any(axis=1) for p in range(1, nv.p_max + 1)]

    def restricted(d):
        return coboundary_matrix(nv, d)[np.ix_(keep[d + 1], keep[d])]

    return restricted(degree), restricted(degree - 1) if degree else None


def cohomology_group(g: FiniteGroupoid, degree: int, modulus: int) -> CohomologyGroup:
    """Cohomology of g in one degree with Z_N coefficients.

    The degree runs from 0 to MAX_DEGREE - 1 (CapacityError past it), N is a
    positive integer, past int64 too (DomainError below 1), and g must pass
    axioms_check (GroupoidAxiomError). These gates are checked here once;
    the group itself is _cohomology_of_sound's.
    """
    degree, modulus = _check_degree(degree, modulus)
    _check_sound(g)
    return _cohomology_of_sound(g, degree, modulus)


def _cohomology_of_sound(g: FiniteGroupoid, degree: int, modulus: int) -> CohomologyGroup:
    """cohomology_group with no gate: g sound, degree and modulus through _check_degree.

    It is computed on the normalized cochains of the skeleton of g, one
    vertex group per connected component: both steps keep the cohomology,
    which is an invariant of the quotient stack, and shrink the matrices the
    Smith normal form reduces. The skeleton is tabulated unchecked, since a
    full subgroupoid of a sound groupoid is sound: its identities, inverses
    and composites are those of g, so each axiom of g holds on it. The group
    comes from the invariant factors of the coboundaries out of and into the
    degree alone, by the universal coefficient theorem (_uct_group).
    class_reducer stays on the full complex of g, since its class vectors
    are coordinates in that complex's basis.
    """
    here, below = _normalized_coboundaries(_tabulate(skeleton(g)[0], degree + 1), degree)
    return _uct_group(here, below, degree, modulus)


def _uct_group(here: np.ndarray, below, degree: int, modulus: int) -> CohomologyGroup:
    """H^n(C; Z_N) from the invariant factors of d^n (here) and d^(n-1) (below).

    By the universal coefficient theorem H^n(C; Z_N) = Hom(H_n, Z_N) +
    Ext(H_(n-1), Z_N) (Hatcher, Algebraic Topology, 2002, 3.1), where H_n is
    the homology of the dual chain complex. Its free rank is c - rank d^n -
    rank d^(n-1), each contributing Z_N, and its torsion, with that of
    H_(n-1), is read off the nonzero factors s of both matrices, each
    contributing Z_gcd(s, N). Those cyclic orders are chained by
    _invariant_chain. Every number is a Python int, so any N works.
    """
    if below is not None and np.any(here @ below):
        raise CocycleError("coboundary image escapes the cocycle lattice")
    factors = [s for mat in (here, below) if mat is not None for s in smith_normal_form(mat).factors if s]
    free = here.shape[1] - len(factors)
    cyclic = [modulus] * free + [gcd(s, modulus) for s in factors]
    return CohomologyGroup(degree=degree, modulus=modulus, orders=_invariant_chain(cyclic))


def _invariant_chain(cyclic) -> tuple:
    """Invariant factors > 1 of the direct sum of Z_c over the positive ints c of cyclic.

    Each c is merged into the chain from its top by Z_a + Z_c = Z_gcd(a, c)
    + Z_lcm(a, c): the lcm stays in the chain and the gcd moves down to the
    next factor, which it and that factor's lcm still divide. What is left
    below the bottom heads the chain if it is past 1. All in Python ints.
    """
    chain = []
    for c in cyclic:
        for i in range(len(chain) - 1, -1, -1):
            a = chain[i]
            d = gcd(a, c)
            chain[i], c = a // d * c, d
        if c > 1:
            chain.insert(0, c)
    return tuple(chain)


def class_reducer(g: FiniteGroupoid, degree: int, modulus: int):
    """Reducer carrying the normal-form data; build once, reduce many cocycles.

    It works on the full, unnormalized complex of g itself, so a class vector
    holds coordinates in the normal-form basis of that complex and is read
    off the cocycle's values on every level-`degree` chain of reducer.nerve.
    """
    degree, modulus = _check_degree(degree, modulus)
    nv = nerve(g, degree + 1)
    below = coboundary_matrix(nv, degree - 1) if degree else None
    return _QuotientData(coboundary_matrix(nv, degree), below, degree, modulus, nv)


def cocycle_vector(nv: Nerve, cocycle) -> np.ndarray:
    """Exponent vector of a mu_N phase cocycle over the level-2 cells."""
    if cocycle.continuous:
        raise UnsupportedCoefficientsError("only mu_N cocycles vectorize over the nerve")
    x, y = nv.levels[2].T
    return cocycle.table(nv.groupoid)[x, y]


def extension_class(ext: CentralExtension) -> CohomologyClass:
    """Class of the extension cocycle modulo coboundaries; mu_N only."""
    if ext.cocycle.continuous:
        raise UnsupportedCoefficientsError(
            "extension classes are computed for mu_N coefficients only"
        )
    data = class_reducer(ext.base, 2, ext.cocycle.modulus)
    return data.reduce(cocycle_vector(data.nerve, ext.cocycle))
