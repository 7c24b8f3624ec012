"""Nerve levels, simplicial identities, coboundaries, and cohomology."""

import itertools

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
    central_extend,
    coboundary_twist,
    zero_cocycle,
)
from anomlab.instances import (
    cyclic_group,
    generator,
    point_groupoid,
    random_groupoid_cocycle,
    translation_groupoid,
)
from anomlab.nerve import (
    Cochain,
    class_reducer,
    coboundary,
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


def test_degeneracy_maps_commute():
    # s_i s_j = s_{j+1} s_i for i <= j
    nv = nerve(_swap_groupoid(), 3)
    for p in (0, 1):
        for i in range(p + 1):
            for j in range(i, p + 1):
                for pos in range(nv.size(p)):
                    one = nv.degeneracies[p + 1][i][nv.degeneracies[p][j][pos]]
                    two = nv.degeneracies[p + 1][j + 1][nv.degeneracies[p][i][pos]]
                    assert one == two


def test_face_degeneracy_interchange():
    nv = nerve(_swap_groupoid(), 3)
    for p in (1, 2):
        for j in range(p):
            for i in range(p + 1):
                for pos in range(nv.size(p)):
                    via = nv.faces[p + 1][i][nv.degeneracies[p][j][pos]]
                    if i == j or i == j + 1:
                        assert via == pos
                    elif i < j:
                        assert via == nv.degeneracies[p - 1][j - 1][nv.faces[p][i][pos]]
                    else:
                        assert via == nv.degeneracies[p - 1][j][nv.faces[p][i - 1][pos]]


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


def test_coboundary_squares_to_zero():
    rng = generator(701)
    nv = nerve(_swap_groupoid(), 3)
    for modulus in (2, 3, 5):
        for d in (0, 1):
            f = Cochain(d, modulus, rng.integers(0, modulus, size=nv.size(d)))
            ddf = coboundary(coboundary(f, nv), nv)
            assert not np.any(ddf.values)


def test_coboundary_matrix_matches_function():
    rng = generator(702)
    nv = nerve(_swap_groupoid(), 2)
    for d in (0, 1):
        f = Cochain(d, 7, rng.integers(0, 7, size=nv.size(d)))
        mat = coboundary_matrix(nv, d)
        np.testing.assert_array_equal(
            coboundary(f, nv).values, (mat @ f.values) % 7
        )
    with pytest.raises(CapacityError):
        coboundary_matrix(nv, 2)
    with pytest.raises(ShapeError):
        coboundary(Cochain(0, 7, np.zeros(5, dtype=np.int64)), nv)


def test_cochain_validation():
    with pytest.raises(DomainError):
        Cochain(0, 0, np.zeros(2, dtype=np.int64))
    c = Cochain(0, 3, np.array([4, -1]))
    np.testing.assert_array_equal(c.values, [1, 2])


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
