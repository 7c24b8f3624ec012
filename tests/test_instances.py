"""Seeded random instance generators used by the verification suites."""

import hashlib
import json

import numpy as np
import pytest

from anomlab.groupoid import (
    axioms_check,
    check_right_action,
    cocycle_check,
    group_from_table,
    validate_local_data,
)
from anomlab.instances import (
    carry_table,
    coset_right_action,
    cyclic_group,
    direct_product,
    generator,
    group_catalog,
    group_from_permutations,
    homomorphisms_to_cyclic,
    inflate_group_cocycle,
    point_groupoid,
    random_action_instance,
    random_anti_hermitian,
    random_block_diagonal_anti_hermitian,
    random_cover_instance,
    random_frame,
    random_groupoid_cocycle,
    random_hermitian,
    random_perturbation,
    random_right_action,
    random_unitary,
    subgroups,
    translation_groupoid,
)
from anomlab.linalg import Polarization


def test_generator_is_deterministic():
    a = generator(99).standard_normal(8)
    b = generator(99).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = generator(100).standard_normal(8)
    assert np.any(a != c)


def test_random_matrix_symmetries():
    rng = generator(1)
    h = random_hermitian(rng, 5)
    np.testing.assert_allclose(h, h.conj().T)
    x = random_anti_hermitian(rng, 5)
    np.testing.assert_allclose(x, -x.conj().T)
    u = random_unitary(rng, 5)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    m = random_perturbation(rng, 5, radius=0.1)
    assert np.max(np.abs(np.linalg.eigvals(m))) <= 0.1 + 1e-12


def test_block_diagonal_generator_respects_polarization():
    rng = generator(2)
    pol = Polarization(5, 2)
    x = random_block_diagonal_anti_hermitian(rng, pol)
    np.testing.assert_allclose(x[:2, 2:], 0, atol=1e-15)
    np.testing.assert_allclose(x[2:, :2], 0, atol=1e-15)
    np.testing.assert_allclose(x, -x.conj().T)


def test_random_frame_stays_in_chart():
    rng = generator(3)
    pol = Polarization(5, 2)
    for _ in range(20):
        w = random_frame(rng, pol)
        s = np.linalg.svd(w.matrix[:2, :], compute_uv=False)
        assert s[-1] > 0.1


def _assert_group(group):
    """The table is a group, with the stored identity and inverses as the ones recovered from it."""
    again = group_from_table(group.elements, group.mult)
    assert again.identity == group.identity
    np.testing.assert_array_equal(again.inverse, group.inverse)


def test_cyclic_and_product_groups():
    z6 = cyclic_group(6)
    _assert_group(z6)
    assert z6.order == 6
    z2xz3 = direct_product(cyclic_group(2), cyclic_group(3))
    _assert_group(z2xz3)
    assert z2xz3.order == 6


def test_group_catalog_entries_are_groups():
    cat = group_catalog()
    assert {"Z2", "Z3", "S3", "D4", "Z2xZ2"} <= set(cat)
    for group in cat.values():
        _assert_group(group)
    s3 = cat["S3"]
    assert s3.order == 6
    # S3 is nonabelian
    assert any(
        s3.mult[a][b] != s3.mult[b][a]
        for a in range(6)
        for b in range(6)
    )
    assert cat["D4"].order == 8


def test_group_from_permutations_closure():
    # a single 3-cycle generates Z3
    z3 = group_from_permutations([(1, 2, 0)])
    assert z3.order == 3
    _assert_group(z3)


def test_subgroups_of_z4():
    z4 = cyclic_group(4)
    subs = subgroups(z4)
    assert sorted(len(s) for s in subs) == [1, 2, 4]


def test_coset_action_is_transitive_action():
    s3 = group_catalog()["S3"]
    sub = min((s for s in subgroups(s3) if len(s) == 2), key=sorted)
    points, action = coset_right_action(s3, sub)
    assert len(points) == 3
    check_right_action(points, s3, action)


def test_random_right_action_is_valid():
    rng = generator(4)
    for _ in range(10):
        group = group_catalog()["D4"]
        points, action = random_right_action(rng, group, max_points=4)
        check_right_action(points, group, action)
        assert 1 <= len(points) <= 4


def test_homomorphisms_to_cyclic():
    z2 = cyclic_group(2)
    homs = homomorphisms_to_cyclic(z2, 2)
    assert sorted(tuple(h) for h in homs) == [(0, 0), (0, 1)]
    # no nontrivial maps from Z3 to Z2
    assert len(homomorphisms_to_cyclic(cyclic_group(3), 2)) == 1
    assert len(homomorphisms_to_cyclic(cyclic_group(6), 3)) == 3


def _catalog_sha(enumerate_one):
    """sha256 of the JSON of one enumeration over the catalog, in name order."""
    out = [[name, enumerate_one(group)] for name, group in sorted(group_catalog().items())]
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_catalog_enumerations_are_pinned():
    # their order feeds the RNG picks of random_right_action and random_groupoid_cocycle
    assert _catalog_sha(subgroups) == "2439c8f11151866004b26578592c90051dd4fc4f98e2bb1227d6c6c10b99981f"
    assert _catalog_sha(
        lambda g: [homomorphisms_to_cyclic(g, m) for m in range(1, 9)]
    ) == "7e9e21fb4de70381968e960af377278e26d99fc85f616ff2c516d49e13fd5780"
    assert _catalog_sha(
        lambda g: [coset_right_action(g, s) for s in subgroups(g)]
    ) == "16a10679de48199a259855b60afa492b45bcb2492415cf0fab43a1b02216e5ac"


def test_carry_table_and_inflation():
    z2 = cyclic_group(2)
    table = carry_table(z2, [0, 1], 2)
    np.testing.assert_array_equal(table, [[0, 0], [0, 1]])
    gpd = point_groupoid(z2)
    c = inflate_group_cocycle(z2, ["*"], [[0, 0]], table, 2)
    assert cocycle_check(gpd, c) == 0.0
    assert c.table(gpd)[1, 1] == 1


def test_random_groupoid_cocycle_is_cocycle():
    rng = generator(5)
    for _ in range(10):
        group, points, action, gpd = random_action_instance(rng)
        modulus = int(rng.integers(2, 7))
        c = random_groupoid_cocycle(rng, gpd, group, points, action, modulus)
        assert cocycle_check(gpd, c) == 0.0


def test_random_action_instance_sound():
    rng = generator(6)
    for _ in range(10):
        group, points, action, gpd = random_action_instance(rng)
        assert axioms_check(gpd) == []
        assert group.order <= 8
        assert len(points) <= 4


def test_random_cover_instance_validates():
    rng = generator(7)
    gpd, group, points, action, cocycle, data, modulus = random_cover_instance(rng)
    assert cocycle_check(gpd, cocycle) == 0.0
    validate_local_data(data, modulus)
    covered = set()
    for chart in data.cover:
        covered.update(chart)
    assert covered == set(range(group.order))


def test_translation_groupoid_shape():
    g = translation_groupoid(cyclic_group(3))
    assert g.n_objects == 3
    assert g.n_arrows == 9
    assert axioms_check(g) == []


def test_cyclic_group_rejects_bad_order():
    with pytest.raises(Exception):
        cyclic_group(0)
