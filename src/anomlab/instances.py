"""Seeded random instances for the verification suites and the CLI.

All randomness flows through numpy's PCG64 bit generator seeded via
SeedSequence, so a given 64-bit seed reproduces the same instances on any
platform. Generators return mathematically valid objects by construction
and re-check the cheap exact invariants before handing them out.

Group-valued randomness draws from a fixed catalog (cyclic groups up to
order 8, the three abelian 2-group products, S3, and D4); right actions
are disjoint unions of coset actions, and valid groupoid 2-cocycles are
built as pullbacks of cyclic carry cocycles along homomorphisms to Z_m,
twisted by random coboundaries. Refined covers are produced from a valid
global cocycle by splitting it across charts with random chart phases, so
descent holds by construction and gluing must reproduce the source class.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InternalConsistencyError, SizeError
from .grassmann import Frame
from .groupoid import (
    FiniteGroup,
    FiniteGroupoid,
    LocalExtensionData,
    PhaseCocycle,
    action_groupoid,
    action_pairs,
    check_right_action,
    coboundary_twist,
    cocycle_check,
    group_axioms_check,
    required_entries,
)
from .linalg import Polarization, singular_values

FRAME_SPREAD = 0.3
FRAME_BLOCK_FLOOR = 0.1


def generator(seed) -> np.random.Generator:
    """PCG64 stream for a 64-bit seed; the package-wide randomness source."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def random_complex(rng, rows, cols, scale=1.0) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im) / np.sqrt(2.0)


def random_hermitian(rng, n, scale=1.0) -> np.ndarray:
    m = random_complex(rng, n, n, scale)
    return (m + m.conj().T) / 2.0


def random_anti_hermitian(rng, n, scale=1.0) -> np.ndarray:
    m = random_complex(rng, n, n, scale)
    return (m - m.conj().T) / 2.0


def random_perturbation(rng, n, radius) -> np.ndarray:
    """Random A with spectral radius at most `radius` (so 1 + A is unital-invertible for radius < 1)."""
    m = random_complex(rng, n, n)
    rho = float(np.max(np.abs(np.linalg.eigvals(m)))) if n else 0.0
    if rho == 0.0:
        return m
    return m * (radius * rng.uniform(0.3, 1.0) / rho)


def random_unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_block_diagonal_anti_hermitian(rng, pol: Polarization, scale=1.0) -> np.ndarray:
    k = pol.plus_dim
    m = np.zeros((pol.dim, pol.dim), dtype=np.complex128)
    m[:k, :k] = random_anti_hermitian(rng, k, scale)
    m[k:, k:] = random_anti_hermitian(rng, pol.dim - k, scale)
    return m


def random_frame(rng, pol: Polarization, spread=FRAME_SPREAD) -> Frame:
    """Frame with an invertible plus block, drawn near the standard frame."""
    for _ in range(64):
        u = _unitary_near_identity(rng, pol.dim, spread)
        candidate = u[:, : pol.plus_dim]
        block = candidate[: pol.plus_dim, :]
        if float(np.min(singular_values(block))) > FRAME_BLOCK_FLOOR:
            return Frame(pol, candidate)
    raise InternalConsistencyError("failed to draw a frame with invertible plus block")


def _unitary_near_identity(rng, n, spread) -> np.ndarray:
    from .linalg import matrix_exponential

    return matrix_exponential(random_anti_hermitian(rng, n, spread))


# ---------------------------------------------------------------------------
# group catalog


def group_from_permutations(generators) -> FiniteGroup:
    """Closure of permutation generators under composition, in sorted element order."""
    if not generators:
        raise SizeError("need at least one permutation generator")
    gens = np.array(generators, dtype=np.int64)
    degree = gens.shape[1]
    rank = degree ** np.arange(degree - 1, -1, -1)  # lexicographic rank of a permutation
    perms = np.arange(degree)[None]
    while True:
        # gens[:, perms][k, i] is perms[i], then gens[k]
        grown = np.concatenate([perms, gens[:, perms].reshape(-1, degree)])
        _, first = np.unique(grown @ rank, return_index=True)
        if len(first) == len(perms):
            break
        perms = grown[first]  # sorted, as np.unique sorts the ranks
    mult = np.searchsorted(perms @ rank, perms[:, perms] @ rank).T
    identity = int(np.searchsorted(perms @ rank, np.arange(degree) @ rank))
    group = FiniteGroup(
        elements=tuple(map(tuple, perms.tolist())),
        mult=mult,
        identity=identity,
        inverse=np.argmax(mult == identity, axis=1),
    )
    bad = group_axioms_check(group)
    if bad:
        raise InternalConsistencyError("permutation closure is not a group: " + bad[0])
    return group


def cyclic_group(m) -> FiniteGroup:
    if m < 1:
        raise SizeError(f"cyclic order must be positive, got {m}")
    e = np.arange(m)
    return FiniteGroup(
        elements=tuple(range(m)),
        mult=(e[:, None] + e) % m,
        identity=0,
        inverse=-e % m,
    )


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Pairs (i, j) at index i * |g2| + j, multiplied componentwise."""
    n2 = g2.order
    return FiniteGroup(
        elements=tuple(itertools.product(g1.elements, g2.elements)),
        mult=(g1.mult[:, None, :, None] * n2 + g2.mult[None, :, None, :]).reshape(g1.order * n2, -1),
        identity=g1.identity * n2 + g2.identity,
        inverse=(g1.inverse[:, None] * n2 + g2.inverse).reshape(-1),
    )


def group_catalog() -> dict:
    """Named groups of order at most 8 used by the random suites."""
    c2 = cyclic_group(2)
    catalog = {f"Z{m}": cyclic_group(m) for m in range(2, 9)}
    catalog["Z2xZ2"] = direct_product(c2, c2)
    catalog["Z2xZ4"] = direct_product(c2, cyclic_group(4))
    catalog["Z2xZ2xZ2"] = direct_product(c2, direct_product(c2, c2))
    catalog["S3"] = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    catalog["D4"] = group_from_permutations([(1, 2, 3, 0), (1, 0, 3, 2)])
    return catalog


def subgroups(group: FiniteGroup) -> list:
    """All subgroups as sorted tuples of element indices (order <= 8 assumed)."""
    n = group.order
    if n > 12:
        raise SizeError(f"subgroup enumeration limited to order 12, got {n}")
    # member[s, i]: element i lies in candidate subset s, one subset per bit mask
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    products_in = ~(member[:, :, None] & member[:, None, :]) | member[:, group.mult]
    inverses_in = ~member | member[:, group.inverse]
    ok = member[:, group.identity] & products_in.all(axis=(1, 2)) & inverses_in.all(axis=1)
    out = [tuple(np.flatnonzero(row).tolist()) for row in member[ok]]
    return sorted(out, key=lambda t: (len(t), t))


def coset_right_action(group: FiniteGroup, sub) -> tuple:
    """Right action of the group on right cosets of the subgroup.

    Returns (points, action) with points labeled by sorted coset tuples.
    """
    # row x is the coset of x, sorted; unique rows come out in sorted order
    cosets = np.sort(group.mult[list(sub)], axis=0).T
    points, where = np.unique(cosets, axis=0, return_inverse=True)
    action = where.reshape(-1)[group.mult[points[:, 0]]]
    return list(map(tuple, points.tolist())), action.tolist()


def random_right_action(rng, group: FiniteGroup, max_points) -> tuple:
    """Disjoint union of one or two random coset actions with at most max_points points."""
    if max_points < 1:
        raise SizeError(f"need at least one point, got {max_points}")
    subs = subgroups(group)
    choices = [s for s in subs if group.order // len(s) <= max_points]
    sub = choices[int(rng.integers(len(choices)))]
    points, action = coset_right_action(group, sub)
    budget = max_points - len(points)
    narrow = [s for s in subs if group.order // len(s) <= budget]
    if narrow and rng.random() < 0.5:
        sub2 = narrow[int(rng.integers(len(narrow)))]
        points2, action2 = coset_right_action(group, sub2)
        offset = len(points)
        points = [(0, p) for p in points] + [(1, p) for p in points2]
        action = action + [[offset + v for v in row] for row in action2]
    check_right_action(points, group, action)
    return points, action


# ---------------------------------------------------------------------------
# cocycles


def homomorphisms_to_cyclic(group: FiniteGroup, m) -> list:
    """All homomorphisms into Z_m, each as a tuple of images.

    Greedy generators (the least element outside the subgroup so far); every
    tuple of generator images, in lexicographic order, is propagated along
    one spanning tree and kept when it is a homomorphism.
    """
    n, mult = group.order, group.mult
    gens = []
    known = np.arange(n) == group.identity
    while not known.all():
        gens.append(int(np.argmin(known)))
        known[gens[-1]] = True
        while not known[mult[np.ix_(known, known)]].all():
            known[mult[np.ix_(known, known)]] = True
    k = len(gens)
    # word[y, i]: how often generator i occurs on the tree path from the identity to y
    word = np.zeros((n, k), dtype=np.int64)
    reached = np.arange(n) == group.identity
    while not reached.all():
        x, i = np.nonzero(reached[:, None] & ~reached[mult[:, gens]])
        y, first = np.unique(mult[x, np.array(gens)[i]], return_index=True)
        word[y] = word[x[first]] + np.eye(k, dtype=np.int64)[i[first]]
        reached[y] = True
    images = np.array(list(itertools.product(range(m), repeat=k)), dtype=np.int64).reshape(m**k, k)
    phi = images @ word.T % m
    hom = ((phi[:, mult] - phi[:, :, None] - phi[:, None, :]) % m == 0).all(axis=(1, 2))
    return list(map(tuple, phi[hom].tolist()))


def carry_table(group: FiniteGroup, phi, m) -> np.ndarray:
    """Pullback of the Z -> Z_m carry cocycle along a homomorphism phi."""
    phi = np.asarray(phi, dtype=np.int64)
    return (phi[:, None] + phi) // m


def inflate_group_cocycle(gpd: FiniteGroupoid, group: FiniteGroup, points, action, table, modulus) -> PhaseCocycle:
    """Point-independent groupoid cocycle from a group 2-cocycle table.

    table[g1][g2] is the exponent attached to the traversal 'g1 then g2';
    on the action groupoid that pair is keyed (x, y) with y = (a, g1) and
    x = (a.g1, g2).
    """
    pairs = action_pairs(check_right_action(points, group, action))
    values = np.broadcast_to(np.asarray(table, dtype=np.int64), pairs.shape[:-1])
    return PhaseCocycle(modulus, values, pairs)


def random_groupoid_cocycle(rng, gpd: FiniteGroupoid, group: FiniteGroup, points, action, modulus) -> PhaseCocycle:
    """Valid mu_N 2-cocycle: random carry pullback plus a random coboundary."""
    n = int(modulus)
    table = np.zeros((group.order, group.order), dtype=np.int64)
    for m in range(2, 9):
        if rng.random() < 0.6:
            continue
        homs = homomorphisms_to_cyclic(group, m)
        nontrivial = [phi for phi in homs if any(phi)]
        if not nontrivial:
            continue
        phi = nontrivial[int(rng.integers(len(nontrivial)))]
        table = table + int(rng.integers(n)) * carry_table(group, phi, m)
    base = inflate_group_cocycle(gpd, group, points, action, table, n)
    b = [int(v) for v in rng.integers(n, size=gpd.n_arrows)]
    c = coboundary_twist(gpd, base, b)
    if cocycle_check(gpd, c) != 0.0:
        raise InternalConsistencyError("generated cocycle fails the exact identity")
    return c


# ---------------------------------------------------------------------------
# covers


def refined_cover(rng, group: FiniteGroup, points, action, cocycle: PhaseCocycle, n_charts) -> LocalExtensionData:
    """Split a valid global cocycle across random charts with random chart phases.

    The resulting LocalExtensionData satisfies descent by construction and
    glues back to a cocycle differing from the source by a coboundary.
    """
    n = int(cocycle.modulus)
    m = group.order
    npts = len(points)
    mem = np.zeros((n_charts, m), dtype=bool)
    for g in range(m):
        owners = rng.random(n_charts) < 0.5
        if not owners.any():
            owners[int(rng.integers(n_charts))] = True
        mem[:, g] = owners
    mem = mem[mem.any(axis=1)]
    cover = [set(np.flatnonzero(row).tolist()) for row in mem]
    act = check_right_action(points, group, action)
    data = LocalExtensionData.blank(group, list(points), act.tolist(), cover)

    # chart phases chi[alpha, g, a], drawn chart by chart, element by element, point by point
    chi = np.zeros((len(cover), m, npts), dtype=np.int64)
    chi[mem] = rng.integers(n, size=(int(mem.sum()), npts))
    glob = cocycle.values_at(action_pairs(act).reshape(-1, 2)).reshape(npts, m, m)

    need_phi, need_omega = required_entries(data)
    phi = chi[:, None] - chi[None, :]
    # omega = c(f, g) + chi_alpha(f) + chi_beta(g) at a.f - chi_gamma(f g), over (alpha, beta, gamma, f, g, a)
    f, g, a = np.arange(m)[:, None, None], np.arange(m)[:, None], np.arange(npts)
    omega = (
        glob[a, f, g]
        + chi[:, None, None, :, None, :]
        + chi[:, g, act[a, f]][None, :, None]
        - chi[:, group.mult[f, g], a][None, None, :]
    )
    data.phi[need_phi] = (phi % n)[need_phi]
    data.omega[need_omega] = (omega % n)[need_omega]
    data.phi_given, data.omega_given = need_phi, need_omega
    return data


def random_cover_instance(rng, max_points=3, max_order=6, max_modulus=6, n_charts=3) -> tuple:
    """Full round-trip fixture: groupoid, source cocycle, refined cover, modulus."""
    catalog = group_catalog()
    names = [name for name, grp in sorted(catalog.items()) if grp.order <= max_order]
    group = catalog[names[int(rng.integers(len(names)))]]
    points, action = random_right_action(rng, group, max_points)
    gpd = action_groupoid(points, group, action)
    modulus = int(rng.integers(2, max_modulus + 1))
    cocycle = random_groupoid_cocycle(rng, gpd, group, points, action, modulus)
    data = refined_cover(rng, group, points, action, cocycle, n_charts)
    return gpd, group, points, action, cocycle, data, modulus


def random_action_instance(rng, max_points=4, max_order=8) -> tuple:
    """Random (group, points, action, groupoid) with validated axioms."""
    catalog = group_catalog()
    names = [name for name, grp in sorted(catalog.items()) if grp.order <= max_order]
    group = catalog[names[int(rng.integers(len(names)))]]
    points, action = random_right_action(rng, group, max_points)
    gpd = action_groupoid(points, group, action)
    return group, points, action, gpd


def point_groupoid(group: FiniteGroup) -> FiniteGroupoid:
    """One-object groupoid of a group (trivial action on a single point)."""
    return action_groupoid(["*"], group, [[0] * group.order])


def translation_groupoid(group: FiniteGroup) -> FiniteGroupoid:
    """Free action of a group on itself by right translation."""
    return action_groupoid(list(range(group.order)), group, group.mult.tolist())
