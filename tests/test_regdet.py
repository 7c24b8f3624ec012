"""Order-p regularized determinants and their multiplicativity defects."""

import cmath
import math

import numpy as np
import pytest

from anomlab.errors import (
    DivergenceError,
    FloatOverflowError,
    InvalidOrderError,
    ShapeError,
    SingularDeterminantError,
)
from anomlab.regdet import (
    det_p,
    dual_route_gap,
    gamma_p,
    log_det_p_series,
    omega_p,
    r_p,
)


def _random_small(rng, n, radius=0.3):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    top = np.max(np.abs(np.linalg.eigvals(m)))
    return m * (radius / top)


def _prod(a, b):
    # C with 1 + C = (1 + A)(1 + B)
    return a + b + a @ b


def test_order_one_is_plain_determinant():
    rng = np.random.default_rng(101)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = det_p(m, 1)
        np.testing.assert_allclose(d.value, np.linalg.det(np.eye(4) + m), rtol=1e-11)
    np.testing.assert_allclose(r_p(m, 1), m)


def test_scalar_closed_form_order_two():
    # det_2(1 + a) = (1 + a) exp(-a) for 1x1 input
    d = det_p(np.array([[0.5]]), 2)
    np.testing.assert_allclose(d.value, 1.5 * math.exp(-0.5), rtol=1e-12)
    assert d.order == 2
    np.testing.assert_allclose(d.log_value, math.log(1.5) - 0.5, rtol=1e-12)


def test_diagonal_closed_form_all_orders():
    diag = np.array([0.4, -0.2, 0.1 + 0.3j])
    for p in (1, 2, 3, 4):
        expected = 1.0 + 0.0j
        for lam in diag:
            correction = sum((-1) ** j * lam**j / j for j in range(1, p))
            expected *= (1 + lam) * cmath.exp(correction)
        d = det_p(np.diag(diag), p)
        np.testing.assert_allclose(d.value, expected, rtol=1e-11)


def test_remainder_vanishes_to_order_p():
    rng = np.random.default_rng(103)
    m = _random_small(rng, 3)
    for p in (2, 3, 4):
        big = np.linalg.norm(r_p(1e-2 * m, p))
        small = np.linalg.norm(r_p(0.5e-2 * m, p))
        # halving the input shrinks R_p by about 2^p
        assert big / small == pytest.approx(2.0**p, rel=0.05)


def test_dual_route_gap_small_on_random_inputs():
    rng = np.random.default_rng(104)
    for p in (1, 2, 3, 4):
        m = _random_small(rng, 5)
        assert dual_route_gap(m, p) < 1e-11


def test_log_series_matches_log_of_det_p():
    rng = np.random.default_rng(105)
    for p in (1, 2, 3):
        m = _random_small(rng, 4, radius=0.2)
        series = log_det_p_series(m, p, 60)
        d = det_p(m, p)
        np.testing.assert_allclose(series, d.log_value, atol=1e-12)


def test_log_series_scalar_values():
    # p = 1 gives ln(1.1); p = 2 subtracts the linear term
    one = log_det_p_series(np.array([[0.1]]), 1, 80)
    np.testing.assert_allclose(one, math.log(1.1), atol=1e-14)
    two = log_det_p_series(np.array([[0.1]]), 2, 80)
    np.testing.assert_allclose(two, math.log(1.1) - 0.1, atol=1e-14)


def test_log_series_divergence_guard():
    with pytest.raises(DivergenceError):
        log_det_p_series(np.array([[1.5]]), 1, 10)
    with pytest.raises(DivergenceError):
        log_det_p_series(np.array([[0.1]]), 1, 0)


def test_invalid_orders_rejected():
    m = np.array([[0.1]])
    for bad in (0, -1, 1.5, True):
        with pytest.raises(InvalidOrderError):
            det_p(m, bad)


def test_singular_value_reports_zero_and_minus_infinity():
    m = np.diag([-1.0, 0.0])
    for p in (1, 2, 3):
        d = det_p(m, p)
        assert abs(d.value) < 1e-12
        assert d.log_value.real == -math.inf


def test_gamma_order_one_vanishes():
    rng = np.random.default_rng(106)
    for _ in range(20):
        a = _random_small(rng, 3, radius=0.8)
        b = _random_small(rng, 3, radius=0.8)
        g = gamma_p(a, b, 1)
        assert abs(g) < 1e-10


def test_gamma_scalar_fixture():
    # gamma_2(0.1, 0.1) = -0.21 + 0.2 = -0.01 exactly
    g = gamma_p(np.array([[0.1]]), np.array([[0.1]]), 2)
    np.testing.assert_allclose(g, -0.01, atol=1e-13)


def test_gamma_imaginary_part_folded():
    rng = np.random.default_rng(107)
    for p in (1, 2, 3):
        a = _random_small(rng, 4, radius=0.9)
        b = _random_small(rng, 4, radius=0.9)
        g = gamma_p(a, b, p)
        assert -math.pi < g.imag <= math.pi


def test_gamma_rejects_singular_factor():
    with pytest.raises(SingularDeterminantError):
        gamma_p(np.diag([-1.0, 0.0]), np.diag([0.1, 0.1]), 2)


def test_exp_gamma_equals_omega_over_det():
    rng = np.random.default_rng(108)
    for p in (1, 2, 3):
        a = _random_small(rng, 3)
        b = _random_small(rng, 3)
        lhs = cmath.exp(gamma_p(a, b, p))
        rhs = omega_p(a, b, p) / det_p(b, p).value
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_omega_scalar_fixture():
    # omega_2(0.1, 0.1) = 1.1 exp(-0.11)
    w = omega_p(np.array([[0.1]]), np.array([[0.1]]), 2)
    np.testing.assert_allclose(w, 1.1 * math.exp(-0.11), rtol=1e-12)


def test_omega_cocycle_identity():
    rng = np.random.default_rng(109)
    for p in (1, 2, 3, 4):
        a = _random_small(rng, 4)
        b = _random_small(rng, 4)
        c = _random_small(rng, 4)
        lhs = omega_p(a, _prod(b, c), p)
        rhs = omega_p(_prod(a, b), c, p) * omega_p(a, b, p)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_omega_identity_element_is_one():
    rng = np.random.default_rng(110)
    a = _random_small(rng, 3)
    zero = np.zeros((3, 3))
    np.testing.assert_allclose(omega_p(a, zero, 2), 1.0, rtol=1e-12)


def test_omega_rejects_singular_denominator():
    with pytest.raises(SingularDeterminantError):
        omega_p(np.diag([-1.0, 0.0]), np.diag([0.1, 0.1]), 2)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        gamma_p(np.eye(2) * 0.1, np.eye(3) * 0.1, 2)
    with pytest.raises(ShapeError):
        omega_p(np.eye(2) * 0.1, np.eye(3) * 0.1, 2)


def test_overflowing_remainder_is_a_typed_error():
    # log det_5 of 30 * ones(6, 6) is about +2.6e8: the value cannot be represented
    with pytest.raises(FloatOverflowError):
        det_p(30.0 * np.ones((6, 6)), 5)
