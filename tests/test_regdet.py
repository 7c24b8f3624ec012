"""Order-p regularized determinants and their multiplicativity defects."""

import cmath
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import anomlab
from anomlab.errors import (
    DivergenceError,
    FloatOverflowError,
    InternalConsistencyError,
    InvalidOrderError,
    ShapeError,
    SingularDeterminantError,
)
from anomlab.regdet import (
    EPS,
    _checked_log_det_p,
    _exp,
    _factor,
    _nonsingular,
    _product_perturbation,
    _route_gap,
    det_p,
    dual_route_gap,
    gamma_p,
    log_det_p_series,
    omega_p,
)


def _random_small(rng, n, radius=0.3):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    top = np.max(np.abs(np.linalg.eigvals(m)))
    return m * (radius / top)


def _alternating_log_factor(a, p):
    """F = sum_{j=1}^{p-1} (-1)^j A^j / j (zero matrix when p = 1)."""
    n = a.shape[0]
    f = np.zeros((n, n), dtype=np.complex128)
    power = np.eye(n, dtype=np.complex128)
    for j in range(1, p):
        power = power @ a
        f += ((-1) ** j / j) * power
    return f


def _one_plus_remainder(a, p):
    """1 + R_p(A) = (1 + A) e^F."""
    from scipy.linalg import expm

    return (np.eye(a.shape[0]) + a) @ expm(_alternating_log_factor(a, p))


def _r_p(a, p):
    """Order-p remainder R_p(A) = (1 + A) e^F - 1; R_1(A) = A."""
    return _one_plus_remainder(a, p) - np.eye(a.shape[0])


def _prod(a, b):
    # C with 1 + C = (1 + A)(1 + B)
    return a + b + a @ b


def test_order_one_is_plain_determinant():
    rng = np.random.default_rng(101)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = det_p(m, 1)
        np.testing.assert_allclose(d.value, np.linalg.det(np.eye(4) + m), rtol=1e-11)
    np.testing.assert_allclose(_r_p(m, 1), m)


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
        big = np.linalg.norm(_r_p(1e-2 * m, p))
        small = np.linalg.norm(_r_p(0.5e-2 * m, p))
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


def test_wide_diagonal_keeps_tiny_remainder_route_entries():
    # (1 + A) exp(-A) has entries near 1e-20 here; forming R_2 and adding 1
    # back cancelled them to zero and reported log det_2 = -inf
    lam = np.array([50.0, 55.0, 60.0])
    d = det_p(np.diag(lam), 2)
    exact = float(np.sum(np.log1p(lam) - lam))
    np.testing.assert_allclose(d.log_value.real, exact, rtol=1e-12)
    assert d.log_value.imag == 0.0
    np.testing.assert_allclose(d.value, math.exp(exact), rtol=1e-12)


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


# ---------------------------------------------------------------------------
# independent oracles for the log-domain kernel


def _log_gap(got, want):
    """|got - want| with the imaginary part reduced mod 2 pi, relative to max(1, |want|)."""
    d = complex(got) - complex(want)
    return math.hypot(d.real, math.remainder(d.imag, 2.0 * math.pi)) / max(1.0, abs(complex(want)))


def _spectral_log(lam, p):
    """sum_i [log(1 + lam_i) + sum_{j<p} (-1)^j lam_i^j / j]."""
    return sum(cmath.log(1 + v) + sum((-1) ** j * v**j / j for j in range(1, p)) for v in lam)


def _remainder_route_log(a, p):
    """log det((1 + A) e^F) = log det(1 + R_p(A)): the route det_p took before the log domain."""
    return cmath.log(np.linalg.det(_one_plus_remainder(a, p)))


def test_log_matches_mpmath_at_fifty_digits():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(120)
    for trial in range(40):
        n = 1 + trial % 6
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * rng.uniform(0.1, 1.0)
        with mpmath.workdps(50):
            ma = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a])
            log_det = mpmath.log(mpmath.det(mpmath.eye(n) + ma))
            power, traces = mpmath.eye(n), []
            for _ in range(4):
                power = power * ma
                traces.append(sum(power[i, i] for i in range(n)))
            exact = [log_det + sum((-1) ** j * traces[j - 1] / j for j in range(1, p)) for p in range(1, 6)]
        for p in range(1, 6):
            assert _log_gap(det_p(a, p).log_value, complex(exact[p - 1])) < 1e-12, (trial, p)


def test_log_matches_closed_form_on_upper_triangular_inputs():
    rng = np.random.default_rng(121)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        lam = rng.uniform(-0.9, 3.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        a = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        a[np.diag_indices(n)] = lam
        for p in (1, 2, 3, 4, 5):
            got = det_p(a, p).log_value
            assert -math.pi < got.imag <= math.pi
            assert _log_gap(got, _spectral_log(lam, p)) < 1e-12, (trial, p)


def test_log_matches_the_remainder_route():
    rng = np.random.default_rng(122)
    for trial in range(520):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        a = _random_small(rng, n, radius=rng.uniform(0.05, 0.9))
        if trial % 2:  # non-normal: a strictly upper part well above the spectrum
            a = a + np.triu(rng.standard_normal((n, n)), 1) * rng.uniform(0.1, 1.0)
        want = _remainder_route_log(a, p)
        assert _log_gap(det_p(a, p).log_value, want) < 1e-12, (trial, n, p)


def test_wide_order_four_diagonal_has_its_finite_log():
    # (1 + A) e^F underflows to zero here; the log domain keeps the exact value
    d = det_p(np.diag([60.0, 60.0, 60.0, 60.0]), 4)
    exact = 4.0 * (math.log(61.0) - 60.0 + 60.0**2 / 2 - 60.0**3 / 3)
    assert d.log_value.real == pytest.approx(exact, rel=1e-12)
    assert d.log_value.imag == 0.0
    assert d.value == 0.0


def test_overflow_message_names_the_finite_log():
    # 30 * ones(6, 6) has spectrum {180, 0, 0, 0, 0, 0}
    exact = math.log(181.0) + sum((-1) ** j * 180.0**j / j for j in range(1, 5))
    with pytest.raises(FloatOverflowError) as info:
        det_p(30.0 * np.ones((6, 6)), 5)
    logged = complex(re.search(r"its log is (\S+)", str(info.value)).group(1))
    assert logged.real == pytest.approx(exact, rel=1e-9)


def test_singular_input_has_zero_route_gap():
    m = np.diag([-1.0, 0.0])
    for p in (1, 2, 3, 4):
        d = det_p(m, p)
        assert d.value == 0.0
        assert d.log_value == complex(-math.inf, 0.0)
        assert dual_route_gap(m, p) == 0.0


def test_rank_deficient_input_is_not_an_internal_error():
    # LU meets an exact zero pivot, while QR keeps r_33 near 1e-15: both
    # are rounding, so the routes count as agreeing
    m = np.arange(1.0, 10.0).reshape(3, 3) - np.eye(3)
    assert dual_route_gap(m, 2) == 0.0
    assert abs(det_p(m, 2).value) < 1e-12


def test_ill_conditioned_input_is_not_an_internal_error():
    # one singular value of 1 + A at 1e-10: LU and QR logs may differ by
    # about 1e-6, which is rounding, not a fault of either route
    rng = np.random.default_rng(124)
    for n in (3, 6, 32):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s = np.ones(n)
        s[-1] = 1e-10
        one_plus = (u * s) @ v.conj().T
        d = det_p(one_plus - np.eye(n), 1)
        np.testing.assert_allclose(d.value, np.linalg.det(one_plus), rtol=1e-4)
        assert dual_route_gap(one_plus - np.eye(n), 1) <= 1e-9


def test_route_gap_is_an_absolute_log_gap():
    assert dual_route_gap(np.array([[1e-30 - 1.0]]), 2) < 1e-15
    assert dual_route_gap(np.diag([1e200, 1e200]), 1) < 1e-12


def test_route_gap_does_not_read_the_trace_series():
    # Tr A = 2e308 overflows, so det_p raises at p >= 2; the gap takes no
    # trace, so it reads the same at every order
    a = np.diag([1e308, 1e308])
    gaps = [dual_route_gap(a, p) for p in (1, 2, 3, 4)]
    assert gaps[0] < 1e-12
    assert gaps == [gaps[0]] * 4


def _reference_route_gap(a):
    """The gap with the QR factor read in full: each reflector determinant
    1 - tau_i |v_i|^2 from the v_i in the upper triangle of the raw factor,
    and |R e_i| from its lower triangle."""
    n = a.shape[0]
    one_plus = np.eye(n) + a.astype(np.complex128)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h, tau = np.linalg.qr(one_plus.T, mode="raw")
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        moduli = np.abs(h)
        reflectors = 1.0 - tau * (1.0 + (moduli * moduli).sum(axis=1, where=upper))
        via_qr = complex(np.log(np.diagonal(h) * reflectors).sum())
        scaled = moduli / (moduli.max(initial=0.0) or 1.0)
        rows = np.sqrt((scaled * scaled).sum(axis=1, where=~upper))
        allowance = 32.0 * n * EPS * float((rows / np.diagonal(scaled)).sum())
    sign, log_abs = np.linalg.slogdet(one_plus)
    return _route_gap(complex(log_abs, cmath.phase(sign)), via_qr, allowance)


def _route_gap_inputs(rng, n):
    """A complex, real, real diagonal (tau = 0 on every column), with 1 + A
    at 1e150 and at 1e-150 (there 1 + A has a zero diagonal, which A cannot
    carry), and with one singular value of 1 + A at 1e-10."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.ones(n)
    s[-1] = 1e-10
    yield "complex", z
    yield "real", rng.standard_normal((n, n)) / math.sqrt(n)
    yield "diagonal", np.diag(rng.uniform(-3.0, 1.0, n))
    yield "1e150", 1e150 * (np.eye(n) + z)
    yield "1e-150", 1e-150 * z - np.eye(n)
    yield "singular value 1e-10", (u * s) @ v.conj().T - np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 32, 128])
def test_route_gap_matches_the_full_qr_reading(n):
    # unitarity of I - tau v v* fixes its determinant at -tau / conj(tau), and
    # unitarity of Q makes |R e_i| the norm of row i of 1 + A. The two QR
    # logs part by the rounding of the n reflector terms, of order n eps
    rng = np.random.default_rng(126 + n)
    for kind, a in _route_gap_inputs(rng, n):
        assert dual_route_gap(a, 1) == pytest.approx(_reference_route_gap(a), abs=4 * n * EPS), kind


@pytest.mark.parametrize("factor", [1.0 + 1e-8, cmath.exp(1e-8j)])
def test_tampered_qr_route_is_caught(monkeypatch, factor):
    # a relative error of 1e-8 in one r_ii of a well-conditioned 1 + A is a
    # log gap of 1e-8, far above the rounding either route may carry
    qr = np.linalg.qr

    def tampered(a, mode):
        h, tau = qr(a, mode=mode)
        h[0, 0] *= factor
        return h, tau

    monkeypatch.setattr(np.linalg, "qr", tampered)
    m = _random_small(np.random.default_rng(125), 4)
    assert 5e-9 < dual_route_gap(m, 2) < 2e-8
    with pytest.raises(InternalConsistencyError):
        det_p(m, 2)


def test_omega_of_two_overflowing_determinants_is_finite():
    a = np.diag([1e200, 1e200])
    b = np.diag([-0.5, -0.5])
    with pytest.raises(FloatOverflowError):
        det_p(a, 1)
    np.testing.assert_allclose(omega_p(a, b, 1), 0.25, rtol=1e-12)
    # order 3: log det_3(1 + A) is about 3488, the ratio about e^7.2
    lam, mu = np.array([60.0, 60.0]), np.array([1e-3, 1e-3])
    with pytest.raises(FloatOverflowError):
        det_p(np.diag(lam), 3)
    nu = lam + mu + lam * mu
    exact = _spectral_log(nu, 3) - _spectral_log(lam, 3)
    np.testing.assert_allclose(omega_p(np.diag(lam), np.diag(mu), 3), cmath.exp(exact), rtol=1e-10)


def test_factor_overflow_is_a_typed_error():
    # near the float64 limit the LU and QR eliminations, or A @ B, overflow
    with pytest.raises(FloatOverflowError):
        det_p(np.array([[1e308, 1e308], [-1e308, 1e308]]), 1)
    with pytest.raises(FloatOverflowError):
        omega_p(np.diag([1e200, 1e200]), np.diag([1e200, 1e200]), 1)


def test_overflow_messages_name_the_operand_at_fault():
    b = np.array([[1e308, 1e308], [-1e308, 1e308]])
    # 1 + C = (1 + A)(1 + B) = (1 + B) / 2 is finite; the LU factors of 1 + B are not
    with pytest.raises(FloatOverflowError, match=r"factors of 1 \+ B overflow"):
        omega_p(-np.eye(2) / 2, b, 2)
    # C = A + B + AB = 0.1 + 1.1 B is finite; its trace 2.2e308 + 0.2 is not
    with pytest.raises(FloatOverflowError, match=r"Tr\(C\^j\), j < 2, overflows"):
        omega_p(0.1 * np.eye(2), b, 2)
    with pytest.raises(FloatOverflowError, match=r"Tr\(A\^j\), j < 2, overflows"):
        det_p(np.diag([1e308, 1e308]), 2)
    with pytest.raises(FloatOverflowError, match=r"factors of 1 \+ A overflow"):
        det_p(b, 1)


def _two_log_omega_p(a, b, p):
    """exp(log det_p(1 + C) - log det_p(1 + A)) with both logs dual-route checked,
    1 + C = (1 + A)(1 + B): the route omega_p took before log det(1 + A) cancelled."""
    x, y = _factor(a), _factor(b)
    log_den = _nonsingular(_checked_log_det_p(x, p), p, "1+A")
    log_num = _checked_log_det_p(_factor(_product_perturbation(x.a, y.a)), p)
    return _exp(log_num - log_den, f"omega_{p}")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 32, 128])
def test_omega_matches_the_two_log_route(n):
    rng = np.random.default_rng(130 + n)
    for trial in range(4):
        radius = (0.3, 0.7, 0.95, 2.0)[trial]
        a = _random_small(rng, n, radius=radius)
        b = _random_small(rng, n, radius=radius)
        if trial % 2:  # non-normal: a strictly upper part well above the spectrum
            a = a + np.triu(rng.standard_normal((n, n)), 1) * 0.5 / math.sqrt(n)
        for p in range(1, 6):
            got, want = omega_p(a, b, p), _two_log_omega_p(a, b, p)
            assert _log_gap(cmath.log(got), cmath.log(want)) < 1e-12, (trial, p)


def _ill_conditioned_pair(rng, n, smallest):
    """A with 1 + A = U T U*, T upper triangular with diagonal in [1.5, 2] but one
    entry at `smallest`, so that det_p(1 + A) stays clear of the singular gate;
    and a small B."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) * 0.3
    t[np.diag_indices(n)] = np.append(rng.uniform(1.5, 2.0, n - 1), smallest)
    return u @ t @ u.conj().T - np.eye(n), _random_small(rng, n, radius=0.5)


def test_omega_on_ill_conditioned_one_plus_a_matches_mpmath():
    # cond(1 + A) is about 1e12, so log det(1 + A) carries rounding of about
    # 1e-4 on either route; it cancels from the new value and not from the old
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(131)
    for trial in range(6):
        n = (2, 3, 5)[trial % 3]
        a, b = _ill_conditioned_pair(rng, n, 5e-12)
        assert 1e11 < np.linalg.cond(np.eye(n) + a) < 1e13
        with mpmath.workdps(60):
            ma = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a])
            mb = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in b])
            one = mpmath.eye(n)

            def log_det_p(m, p):
                power, total = one, mpmath.log(mpmath.det(one + m))
                for j in range(1, p):
                    power = power * m
                    total += (-1) ** j * sum(power[i, i] for i in range(n)) / j
                return total

            mc = ma + mb + ma * mb
            exact = [complex(log_det_p(mc, p) - log_det_p(ma, p)) for p in range(1, 6)]
        for p in range(1, 6):
            new = _log_gap(cmath.log(omega_p(a, b, p)), exact[p - 1])
            old = _log_gap(cmath.log(_two_log_omega_p(a, b, p)), exact[p - 1])
            assert new <= old, (trial, p, new, old)
            assert new < 1e-12, (trial, p, new)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_omega_overflowing_lu_log_of_one_plus_a_is_a_typed_error(p):
    # the LU log of 1 + A is +inf here, while B = 0 leaves det(1 + B) = 1 and,
    # at p = 1, no trace to overflow: the gate must not pass it as nonsingular
    a = np.array([[1e308, 1e308], [-1e308, 1e308]])
    with pytest.raises(FloatOverflowError):
        omega_p(a, np.zeros((2, 2)), p)


def test_gamma_and_omega_agree_with_det_p_logs():
    rng = np.random.default_rng(123)
    for p in (1, 2, 3, 4, 5):
        a = _random_small(rng, 5, radius=0.7)
        b = _random_small(rng, 5, radius=0.7)
        logs = [det_p(m, p).log_value for m in (a, b, _prod(a, b))]
        assert _log_gap(gamma_p(a, b, p), logs[2] - logs[0] - logs[1]) < 1e-12
        assert _log_gap(cmath.log(omega_p(a, b, p)), logs[2] - logs[0]) < 1e-12


def test_det_p_path_loads_no_scipy_linalg():
    code = (
        "import sys, numpy as np\n"
        "from anomlab.regdet import det_p, dual_route_gap, gamma_p, omega_p\n"
        "a, b = 0.1 * np.eye(3), 0.2 * np.eye(3)\n"
        "det_p(a, 4); dual_route_gap(a, 4); gamma_p(a, b, 5); omega_p(a, b, 5)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(anomlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
