"""Nerve levels, simplicial identities, coboundaries, and cohomology."""

import itertools
import sys
from math import gcd

import numpy as np
import pytest

from anomlab.errors import (
    CapacityError,
    CocycleError,
    DomainError,
    GroupoidAxiomError,
    ShapeError,
    UnsupportedCoefficientsError,
)
from anomlab.groupoid import (
    FiniteGroup,
    PhaseCocycle,
    action_groupoid,
    axioms_check,
    central_extend,
    coboundary_twist,
    skeleton,
    zero_cocycle,
)
from anomlab.instances import (
    coset_right_action,
    cyclic_group,
    generator,
    group_catalog,
    point_groupoid,
    random_action_instance,
    random_groupoid_cocycle,
    subgroups,
    translation_groupoid,
)
from anomlab.nerve import (
    _normalized_coboundaries,
    _QuotientData,
    _uct_group,
    class_reducer,
    coboundary_matrix,
    cocycle_vector,
    cohomology_group,
    extension_class,
    nerve,
)


def _z2():
    return FiniteGroup(
        elements=["e", "s"], mult=[[0, 1], [1, 0]], identity=0, inverse=[0, 1]
    )


def _swap_groupoid():
    return action_groupoid(["p", "q"], _z2(), [[0, 1], [1, 0]])


def test_level_sizes():
    nv = nerve(_swap_groupoid(), 3)
    assert [nv.size(p) for p in range(4)] == [2, 4, 8, 16]
    # each level-2 cell is a composable pair read right to left
    g = nv.groupoid
    for x, y in nv.levels[2]:
        assert g.source[x] == g.target[y]


def test_face_maps_commute():
    # d_i d_j = d_{j-1} d_i for i < j, exhaustively on all tabulated levels
    nv = nerve(_swap_groupoid(), 3)
    for p in (2, 3):
        for i, j in itertools.combinations(range(p + 1), 2):
            for pos in range(nv.size(p)):
                one = nv.faces[p - 1][i][nv.faces[p][j][pos]]
                two = nv.faces[p - 1][j - 1][nv.faces[p][i][pos]]
                assert one == two


def test_nerve_input_guards():
    g = _swap_groupoid()
    with pytest.raises(CapacityError):
        nerve(g, 4)
    with pytest.raises(DomainError):
        nerve(g, -1)
    broken = action_groupoid(["p", "q"], _z2(), [[0, 1], [1, 0]])
    broken.inverse[0] = 1
    with pytest.raises(GroupoidAxiomError):
        nerve(broken, 2)


def _coboundary_groupoids():
    """The swap groupoid, point Z3 and translation S3."""
    return [_swap_groupoid(), point_groupoid(cyclic_group(3)), translation_groupoid(group_catalog()["S3"])]


def _python_int_coboundary(values, nv, d, modulus):
    """The alternating face sum mod N, entry by entry in Python ints."""
    faces = [np.asarray(nv.faces[d + 1][i]).tolist() for i in range(d + 2)]
    return [
        sum((-1) ** i * int(values[face[row]]) for i, face in enumerate(faces)) % modulus
        for row in range(nv.size(d + 1))
    ]


def _degeneracy(nv, p, i):
    """Row in level p + 1 of each level-p chain with an identity arrow inserted at slot i."""
    g, cells = nv.groupoid, nv.levels[p]
    if p == 0:
        chains = g.identity[cells][:, None]
    else:
        e = g.identity[g.target[cells[:, 0]]] if i == 0 else g.identity[g.source[cells[:, i - 1]]]
        chains = np.column_stack([cells[:, :i], e, cells[:, i:]])
    rows = {tuple(chain): pos for pos, chain in enumerate(nv.levels[p + 1].tolist())}
    return np.array([rows[tuple(chain)] for chain in chains.tolist()])


def test_coboundary_squares_to_zero():
    for g in _coboundary_groupoids():
        nv = nerve(g, 3)
        for d in (0, 1):
            square = coboundary_matrix(nv, d + 1) @ coboundary_matrix(nv, d)
            assert square.dtype == np.int64
            np.testing.assert_array_equal(square, np.zeros((nv.size(d + 2), nv.size(d)), dtype=np.int64))


def test_coboundary_matrix_matches_function():
    rng = generator(702)
    for g in _coboundary_groupoids():
        nv = nerve(g, 3)
        for d in (0, 1, 2):
            mat = coboundary_matrix(nv, d)
            for modulus in (2, 3, 7):
                f = rng.integers(0, modulus, size=nv.size(d))
                assert ((mat @ f) % modulus).tolist() == _python_int_coboundary(f, nv, d, modulus)
        with pytest.raises(CapacityError):
            coboundary_matrix(nv, 3)


def test_normalized_coboundaries_keep_the_chains_off_every_degeneracy():
    for g in _coboundary_groupoids():
        nv = nerve(g, 3)
        keep = [np.ones(nv.size(0), dtype=bool)]
        for p in (1, 2, 3):
            images = [_degeneracy(nv, p - 1, i) for i in range(p)]
            for i, image in enumerate(images):
                # d_i s_i = d_(i+1) s_i = id checks the oracle against the face maps
                for face in (i, i + 1):
                    np.testing.assert_array_equal(nv.faces[p][face][image], np.arange(nv.size(p - 1)))
            free = np.ones(nv.size(p), dtype=bool)
            free[np.concatenate(images)] = False
            assert 0 < free.sum() < nv.size(p)
            keep.append(free)
        for degree in (1, 2):
            here, below = _normalized_coboundaries(nv, degree)
            for got, d in ((here, degree), (below, degree - 1)):
                np.testing.assert_array_equal(got, coboundary_matrix(nv, d)[np.ix_(keep[d + 1], keep[d])])


def test_classifying_space_cohomology():
    bz2 = point_groupoid(cyclic_group(2))
    assert cohomology_group(bz2, 2, 2).orders == (2,)
    bz3 = point_groupoid(cyclic_group(3))
    assert cohomology_group(bz3, 2, 3).orders == (3,)
    # coefficient order coprime to the group order kills everything
    assert cohomology_group(bz2, 2, 3).trivial
    assert cohomology_group(bz3, 2, 2).trivial


def test_free_action_groupoid_is_trivial():
    for m in (2, 3, 4):
        g = translation_groupoid(cyclic_group(m))
        assert cohomology_group(g, 2, m).trivial


def test_degree_one_cohomology():
    # H^1(BZ_m, mu_N) = Hom(Z_m, Z_N) = Z_gcd(m, N)
    bz4 = point_groupoid(cyclic_group(4))
    assert cohomology_group(bz4, 1, 2).orders == (2,)
    assert cohomology_group(bz4, 1, 4).orders == (4,)
    assert cohomology_group(bz4, 1, 3).trivial


def test_extension_class_detects_nontrivial_extension():
    g = point_groupoid(_z2())
    carry = PhaseCocycle(
        2, {pair: 1 if pair == (1, 1) else 0 for pair in map(tuple, g.composable_pairs().tolist())}
    )
    nontrivial = extension_class(central_extend(g, carry))
    assert nontrivial.orders == (2,)
    assert not nontrivial.trivial
    split = extension_class(central_extend(g, zero_cocycle(g, 2)))
    assert split.trivial


def test_coboundary_twist_preserves_class():
    rng = generator(703)
    g = action_groupoid([0, 1], cyclic_group(4), [[0, 1, 0, 1], [1, 0, 1, 0]])
    for modulus in (2, 4):
        c = random_groupoid_cocycle(rng, g, cyclic_group(4), [0, 1],
                                    [[0, 1, 0, 1], [1, 0, 1, 0]], modulus)
        base_cls = extension_class(central_extend(g, c))
        for _ in range(5):
            b = [int(k) for k in rng.integers(0, modulus, size=g.n_arrows)]
            twisted = extension_class(central_extend(g, coboundary_twist(g, c, b)))
            assert twisted.vector == base_cls.vector
            assert twisted.orders == base_cls.orders


def test_class_reducer_matches_extension_class():
    g = point_groupoid(cyclic_group(3))
    values = {}
    for (x, y) in g.composable_pairs():
        values[(x, y)] = (x + y) // 3  # carry of addition mod 3
    c = PhaseCocycle(3, values)
    ext = central_extend(g, c)
    direct = extension_class(ext)
    reducer = class_reducer(g, 2, 3)
    again = reducer.reduce(cocycle_vector(reducer.nerve, c))
    assert direct == again
    assert reducer.group().orders == (3,)
    assert not direct.trivial


def test_reducer_rejects_non_cocycles():
    g = point_groupoid(_z2())
    reducer = class_reducer(g, 2, 2)
    vec = np.zeros(reducer.nerve.size(2), dtype=np.int64)
    vec[0] = 1
    with pytest.raises(CocycleError):
        reducer.reduce(vec)
    with pytest.raises(ShapeError):
        reducer.reduce(np.zeros(3, dtype=np.int64))


def test_continuous_cocycles_unsupported():
    g = point_groupoid(_z2())
    ext = central_extend(g, zero_cocycle(g, None))
    with pytest.raises(UnsupportedCoefficientsError):
        extension_class(ext)
    nv = nerve(g, 2)
    with pytest.raises(UnsupportedCoefficientsError):
        cocycle_vector(nv, zero_cocycle(g, None))


def _components(g):
    """Connected components as sorted object lists, by a plain graph search."""
    seen, out = set(), []
    for start in range(g.n_objects):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            o = todo.pop()
            for x in range(g.n_arrows):
                if g.source[x] == o and g.target[x] not in comp:
                    comp.add(int(g.target[x]))
                    todo.append(int(g.target[x]))
        seen |= comp
        out.append(sorted(comp))
    return out


def _catalog_groupoids():
    """Catalog point and translation (order <= 6) groupoids, and coset groupoids.

    A coset groupoid acts on the cosets of the first proper subgroup of each
    order; those with more than 18 arrows are left out.
    """
    out = []
    for name, group in sorted(group_catalog().items()):
        out.append((f"point-{name}", point_groupoid(group)))
        firsts = {len(sub): sub for sub in reversed(subgroups(group)) if 1 < len(sub) < group.order}
        for k, sub in sorted(firsts.items()):
            if group.order * group.order // k <= 18:
                points, action = coset_right_action(group, sub)
                out.append((f"coset-{name}-{k}", action_groupoid(points, group, action)))
        if group.order <= 6:
            out.append((f"translation-{name}", translation_groupoid(group)))
    return out


def _random_groupoids(count, seed):
    rng = generator(seed)
    return [random_action_instance(rng, max_points=3, max_order=6)[3] for _ in range(count)]


def test_skeleton_structure():
    groupoids = [g for _, g in _catalog_groupoids()] + _random_groupoids(50, 905)
    groupoids.append(action_groupoid([0, 1, 2], cyclic_group(1), [[0], [1], [2]]))
    several = 0
    for g in groupoids:
        sk, kept = skeleton(g)
        assert axioms_check(sk) == []
        comps = _components(g)
        several += len(comps) > 1
        reps = [comp[0] for comp in comps]
        # one object per component, the least one, in order
        assert sk.n_objects == len(comps)
        assert sk.objects == [g.objects[o] for o in sorted(reps)]
        # the arrows kept are exactly the vertex groups of the representatives
        vertex = [x for x in range(g.n_arrows) if g.source[x] == g.target[x] and g.source[x] in reps]
        assert kept.tolist() == vertex
        assert sk.arrows == [g.arrows[x] for x in vertex]
        np.testing.assert_array_equal(kept[sk.identity], g.identity[sorted(reps)])
        np.testing.assert_array_equal(kept[sk.inverse], g.inverse[kept])
        np.testing.assert_array_equal(np.where(sk.compose >= 0, kept[sk.compose], -1), g.compose[np.ix_(kept, kept)])
    assert several >= 10


def test_skeleton_collapses_free_and_transitive_actions():
    catalog = group_catalog()
    for name in ("S3", "D4", "Z2xZ2xZ2"):
        sk, kept = skeleton(translation_groupoid(catalog[name]))
        assert (sk.n_objects, sk.n_arrows, kept.tolist()) == (1, 1, [0])
    for name in ("Z8", "Z2xZ4", "Z2xZ2xZ2", "D4"):
        group = catalog[name]
        sub = next(s for s in subgroups(group) if len(s) == 4)
        points, action = coset_right_action(group, sub)
        sk, _ = skeleton(action_groupoid(points, group, action))
        assert (sk.n_objects, sk.n_arrows) == (1, 4)


def test_cohomology_group_matches_the_full_nerve():
    # class_reducer works on the full, unnormalized nerve of the presentation itself
    cases = _catalog_groupoids() + [(f"random-{i}", g) for i, g in enumerate(_random_groupoids(50, 906))]
    for name, g in cases:
        for modulus in (2, 3, 4):
            for degree in (0, 1, 2):
                want = class_reducer(g, degree, modulus).group()
                assert cohomology_group(g, degree, modulus) == want, (name, degree, modulus)


def test_translation_h2_is_trivial_on_the_skeleton():
    catalog = group_catalog()
    for name in ("D4", "Z2xZ2xZ2"):
        g = translation_groupoid(catalog[name])
        for modulus in (2, 4):
            assert cohomology_group(g, 2, modulus).trivial
    # level 3 of the full nerve would hold 1024 * 32 * 32 chains, past MAX_CELLS
    assert cohomology_group(translation_groupoid(cyclic_group(32)), 2, 2).trivial


def test_cohomology_group_rejects_a_broken_groupoid_as_before():
    # arrow 0 is the identity of p, which the skeleton keeps; arrow 3 runs
    # from q to p and is dropped, so only the check on g itself can see it
    for arrow, inverse in ((0, 1), (3, 3)):
        broken = _swap_groupoid()
        broken.inverse[arrow] = inverse
        message = "nerve needs a sound groupoid: " + axioms_check(broken)[0]
        for degree in (0, 2):
            with pytest.raises(GroupoidAxiomError) as err:
                cohomology_group(broken, degree, 2)
            assert str(err.value) == message
    with pytest.raises(CapacityError):
        cohomology_group(broken, 3, 2)
    with pytest.raises(DomainError):
        cohomology_group(_swap_groupoid(), 1, 0)


def test_uct_group_matches_the_quotient_oracle_on_the_same_matrices():
    cases = _catalog_groupoids() + [(f"random-{i}", g) for i, g in enumerate(_random_groupoids(50, 907))]
    for name, g in cases:
        sk = skeleton(g)[0]
        for degree in (0, 1, 2):
            here, below = _normalized_coboundaries(nerve(sk, degree + 1), degree)
            for modulus in (1, 2, 3, 4, 6, 8, 12):
                want = _QuotientData(here, below, degree, modulus).group()
                assert _uct_group(here, below, degree, modulus) == want, (name, degree, modulus)


# Schur multipliers M(G) of the catalog groups as invariant factors
# (Karpilovsky, The Schur Multiplier, 1987): trivial for cyclic groups and S3,
# Z2 for Z2xZ2, Z2xZ4 and D4, and Z2^3 for Z2xZ2xZ2.
SCHUR_MULTIPLIERS = {"Z2xZ2": (2,), "Z2xZ4": (2,), "D4": (2,), "Z2xZ2xZ2": (2, 2, 2)}


def _closure(group, gens):
    """Subgroup generated by gens, by multiplying until nothing new appears."""
    elems = {group.identity} | set(gens)
    while True:
        grown = elems | {int(group.mult[a, b]) for a in elems for b in elems}
        if grown == elems:
            return elems
        elems = grown


def _abelianization(group):
    """Invariant factors of G / [G, G], read off the group table.

    In a finite abelian group an element of largest order spans a direct
    summand, so the factors are the orders, largest first, of elements
    of largest order in successive quotients.
    """
    mult, inv, n = group.mult, group.inverse, group.order
    sub = _closure(group, [int(mult[mult[a, b], mult[inv[a], inv[b]]]) for a in range(n) for b in range(n)])
    factors = []
    while len(sub) < n:
        orders = [_order_modulo(group, g, sub) for g in range(n)]
        g = int(np.argmax(orders))
        factors.append(orders[g])
        sub = _closure(group, list(sub) + [g])
    return tuple(sorted(factors))


def _order_modulo(group, g, sub):
    """Order of g in the quotient by the normal subgroup sub."""
    k, power = 1, g
    while power not in sub:
        k, power = k + 1, int(group.mult[power, g])
    return k


def _primary(orders):
    """Sorted prime powers of a direct sum of cyclic groups: a complete invariant."""
    out = []
    for c in orders:
        p = 2
        while c > 1:
            q = 1
            while c % p == 0:
                c, q = c // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def test_cohomology_group_matches_the_closed_form_on_point_groupoids():
    # H^2(BG; Z_N) = Hom(M(G), Z_N) + Ext(G^ab, Z_N) and H^1(BG; Z_N) = Hom(G^ab, Z_N),
    # with Hom(Z_a, Z_N) = Ext(Z_a, Z_N) = Z_gcd(a, N); moduli past int64 included
    abelian = {"Z2xZ2": (2, 2), "Z2xZ4": (2, 4), "Z2xZ2xZ2": (2, 2, 2), "S3": (2,), "D4": (2, 2)}
    for name, group in sorted(group_catalog().items()):
        gab = _abelianization(group)
        assert gab == abelian.get(name, (group.order,)), name
        g = point_groupoid(group)
        for modulus in (2, 3, 4, 6, 8, 12, 2**62, 3 * 2**61, 2**63 - 1, 2**63, 3**50):
            h1 = [gcd(a, modulus) for a in gab]
            h2 = [gcd(m, modulus) for m in SCHUR_MULTIPLIERS.get(name, ())] + h1
            for degree, want in ((1, h1), (2, h2)):
                got = cohomology_group(g, degree, modulus)
                assert _primary(got.orders) == _primary(want), (name, degree, modulus)
                assert all(a % b == 0 for a, b in zip(got.orders[1:], got.orders)), got.orders


def test_large_moduli_give_the_closed_form():
    catalog = group_catalog()
    assert cohomology_group(point_groupoid(catalog["D4"]), 2, 2**62).orders == (2, 2, 2)
    assert cohomology_group(point_groupoid(catalog["Z2xZ4"]), 2, 3 * 2**61).orders == (2, 2, 4)
    assert cohomology_group(point_groupoid(catalog["Z2xZ2xZ2"]), 2, 2**62).orders == (2,) * 6
    # degree 0 is one Z_N per component, so N itself appears
    assert cohomology_group(point_groupoid(catalog["S3"]), 0, 2**64 + 1).orders == (2**64 + 1,)


def test_class_reducer_rejects_moduli_past_its_int64_products():
    catalog = group_catalog()
    for name in ("Z2xZ4", "S3", "D4"):
        g = point_groupoid(catalog[name])
        for modulus in (3 * 2**61, 2**63 - 1, 2**63):
            with pytest.raises(CapacityError, match=str(modulus)):
                class_reducer(g, 2, modulus)
        # moderate moduli still reduce, and agree with the closed form
        assert class_reducer(g, 2, 2**40).group() == cohomology_group(g, 2, 2**40)


def test_tampered_coboundary_raises_cocycle_error(monkeypatch):
    g = point_groupoid(group_catalog()["S3"])
    here, below = _normalized_coboundaries(nerve(skeleton(g)[0], 3), 2)
    bad = below.copy()
    bad[0, 0] += 1
    with pytest.raises(CocycleError):
        _uct_group(here, bad, 2, 2)
    # the package exports the function nerve under the module's name
    monkeypatch.setattr(sys.modules["anomlab.nerve"], "_normalized_coboundaries", lambda nv, degree: (here, bad))
    with pytest.raises(CocycleError, match="escapes the cocycle lattice"):
        cohomology_group(g, 2, 2)
