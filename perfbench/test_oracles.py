"""Hand cases for the benchmark's oracles, input streams and tracer.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg

import inputs
import oracles

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def point(name):
    table = inputs.CATALOG[name][0]
    return table, 1, inputs.trivial_action(table, 1)


def test_h2_hand_cases():
    assert oracles.action_h2(*point("Z4"), 2) == (2,)
    assert oracles.action_h2(*point("Z2xZ2"), 2) == (2, 2, 2)
    assert oracles.action_h2(*point("Z3"), 2) == ()
    assert oracles.action_h2(*point("S3"), 3) == ()
    assert oracles.action_h2(*point("D4"), 4) == (2, 2, 2)
    assert oracles.action_h2(*point("Z2xZ4"), 4) == (2, 2, 4)
    assert oracles.action_h2(*point("Z2xZ2xZ2"), 2) == (2,) * 6


def test_h2_of_actions_sums_over_orbits():
    table = inputs.CATALOG["Z6"][0]
    translation = [list(row) for row in table]
    assert oracles.action_h2(table, 6, translation, 2) == ()
    # Z6 on the cosets of {0, 3}: one orbit, stabilizer Z2
    n, action = inputs.coset_action(table, (0, 3))
    assert n == 3
    assert oracles.action_h2(table, n, action, 2) == (2,)
    assert oracles.action_h2(table, n, action, 3) == ()
    # two fixed points: two copies of H^2(Z6; Z4) = Z2
    assert oracles.action_h2(table, 2, inputs.trivial_action(table, 2), 4) == (2, 2)


def test_every_stabilizer_is_in_the_group_table():
    for table, _hom, _k in inputs.CATALOG.values():
        for sub in inputs.subgroups(table):
            assert (len(sub), oracles._element_orders(table, sub)) in oracles.GROUP_DATA


def test_invariant_factors():
    assert oracles.invariant_factors([2, 4]) == (2, 4)
    assert oracles.invariant_factors([6, 4]) == (2, 12)
    assert oracles.invariant_factors([2, 3]) == (6,)
    assert oracles.invariant_factors([1, 1]) == ()


def test_snf_factors_from_minors():
    assert oracles.snf_factors([[2, 0], [0, 4]]) == [2, 4]
    assert oracles.snf_factors([[2, 0], [0, 3]]) == [1, 6]
    assert oracles.snf_factors([[2, 4], [4, 8]]) == [2]
    assert oracles.snf_factors(inputs.NAMED_SNF) == [1, 16919829833015585940390207595315]


def test_log_det_p_and_omega_closed_forms():
    # det_2 diag(0.5, 0) = 1.5 exp(-0.5); omega_2(0.1, 0.1) = 1.1 exp(-0.11)
    assert oracles.log_det_p([0.5, 0.0], 2) == pytest.approx(math.log(1.5) - 0.5)
    assert oracles.log_det_p([0.5], 1) == pytest.approx(math.log(1.5))
    assert oracles.log_omega_p([0.1], [0.1], 2) == pytest.approx(math.log(1.1) - 0.11)
    assert oracles.log_gap(complex(1.0, 2 * math.pi), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert oracles.log_gap(complex(-math.inf, 0.0), 1.0) == math.inf


def test_schwinger_closed_form_raising_lowering():
    x = np.array([[0, 1], [0, 0]], dtype=complex)
    y = np.array([[0, 0], [1, 0]], dtype=complex)
    assert oracles.schwinger_closed_form(x, y, 1) == pytest.approx(-1.0)
    assert oracles.schwinger_closed_form(x, y, 2) == 0.0


def test_creators_satisfy_car():
    cs = oracles.creators(3)
    for i, ci in enumerate(cs):
        for j, cj in enumerate(cs):
            assert np.array_equal(ci @ cj + cj @ ci, np.zeros_like(ci))
            anti = ci.T @ cj + cj @ ci.T
            assert np.array_equal(anti, np.eye(8) if i == j else np.zeros_like(ci))


def test_d_gamma_values_match_dense_sum():
    rng = np.random.default_rng(1)
    modes, plus = 4, 1
    cs = oracles.creators(modes)
    x = inputs.complex_matrix(rng, modes)
    dense = sum(x[i, j] * cs[i] @ cs[j].T for i in range(modes) for j in range(modes))
    dense -= np.trace(x[plus:, plus:]) * np.eye(1 << modes)
    support = oracles.d_gamma_support(modes)
    rows, cols = support[0], support[1]
    assert np.allclose(dense[rows, cols], oracles.d_gamma_values(support, x, plus), atol=1e-13)
    assert np.vdot(dense, dense).real == pytest.approx(np.sum(np.abs(dense[rows, cols]) ** 2))


def test_bogoliubov_gap():
    rng = np.random.default_rng(2)
    modes = 3
    cs = oracles.creators(modes)
    x = inputs.anti_hermitian(rng, modes)
    gen = sum(x[i, j] * cs[i] @ cs[j].T for i in range(modes) for j in range(modes))
    v = [inputs.complex_matrix(rng, modes)[0]]
    assert oracles.bogoliubov_gap(scipy.linalg.expm(gen), x, v, cs) < 1e-12
    assert oracles.bogoliubov_gap(np.eye(8), x, v, cs) > 1e-3


def test_fault_inputs_do_not_depend_on_the_seed():
    for r in (0, 1, 5):
        first, again = inputs.snf_wide(r), inputs.snf_wide(r)
        assert first == again
        for (a, p, lam), (b, q, mu) in zip(inputs.detp_wide(r), inputs.detp_wide(r)):
            assert p == q and np.array_equal(a, b) and np.array_equal(lam, mu)
    assert inputs.snf_wide(0)[0] == inputs.NAMED_SNF
    assert inputs.snf_wide(1) != inputs.snf_wide(2)
    for r in range(20):
        for mat in inputs.snf_wide(r):
            assert max(abs(v) for row in mat for v in row) < 1 << 57
        assert all(np.all(lam >= 50.0) for _, _, lam in inputs.detp_wide(r))


def test_relabel_is_an_isomorphic_table():
    rng = np.random.default_rng(3)
    table, hom, k, perm = inputs.relabel("D4", rng)
    base = inputs.CATALOG["D4"][0]
    for i in range(8):
        for j in range(8):
            assert table[perm[i]][perm[j]] == perm[base[i][j]]
            assert (hom[i] + hom[j] - hom[table[i][j]]) % k == 0


def test_groupoid_cocycle_is_a_cocycle():
    rng = np.random.default_rng(4)
    table, hom, k, _ = inputs.relabel("Z2xZ4", rng)
    n, action = inputs.coset_action(table, inputs.subgroups(table)[1])
    c = inputs.groupoid_cocycle(table, hom, k, n, action, rng, 4)
    comp = inputs.composition(table, n, action)
    for (x, y), xy in comp.items():
        for (y2, z), yz in comp.items():
            if y2 == y:
                assert (c[(x, y)] + c[(xy, z)] - c[(x, yz)] - c[(y, z)]) % 4 == 0


def test_tracer_records_child_spans_and_restores():
    from anomlab import fock
    from anomlab.linalg import Polarization

    import tracer

    original = fock.d_gamma
    t = tracer.Tracer()
    t.install()
    try:
        assert fock.d_gamma is not original
        space = fock.build_car(2, Polarization(2, 1))
        fock.d_gamma(space, np.eye(2))  # outside an op: not recorded
        t.op = 0
        fock.schwinger_detail(space, np.eye(2) * 1j, np.zeros((2, 2)))
        t.op = None
    finally:
        t.uninstall()
    assert fock.d_gamma is original
    metrics = t.layer_metrics()
    assert metrics["fock.schwinger_detail.calls"][0] == 1
    assert metrics["fock.d_gamma.calls"][0] == 3
    parents = {t.spans[s[3]][0] for s in t.spans if s[0] == "fock.d_gamma"}
    assert parents == {"fock.schwinger_detail"}
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    root = next(s for s in t.spans if s[0] == "fock.schwinger_detail")
    assert total == pytest.approx(root[2] - root[1])
