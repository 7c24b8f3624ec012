"""Regularized determinants of order p for operators of the form 1 + A.

The order-p remainder is

    R_p(A) = -1 + (1 + A) exp(F),  F = sum_{j=1}^{p-1} (-1)^j A^j / j,

and det_p(1 + A) := det(1 + R_p(A)) = det((1 + A) exp(F)), taken in that
last form so that the -1 of R_p cannot cancel tiny entries. The same
quantity factorizes as det(1 + A) exp(Tr F); both routes come from one F
and must agree to 1e-9 relative or the call aborts. Order 1 is the plain
determinant.

det_p is not multiplicative; the defect is tracked two ways. gamma_p is the
additive defect of principal logarithms reported modulo 2 pi i, and omega_p
is the branch-free ratio det_p((1+A)(1+B)) / det_p(1+A) that the
determinant-line module builds on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    InternalConsistencyError,
    ShapeError,
    SingularDeterminantError,
)
from .linalg import (
    SINGULAR_TOL,
    _check_order,
    as_square,
    determinant,
    matrix_exponential,
)

DUAL_ROUTE_RTOL = 1e-9
SPECTRAL_RADIUS_TOL = 1e-8

TWO_PI = 2.0 * math.pi


def _alternating_log_factor(a: np.ndarray, p: int) -> np.ndarray:
    """sum_{j=1}^{p-1} (-1)^j A^j / j (zero matrix when p = 1)."""
    n = a.shape[0]
    total = np.zeros((n, n), dtype=np.complex128)
    power = np.eye(n, dtype=np.complex128)
    for j in range(1, p):
        power = power @ a
        total += ((-1) ** j / j) * power
    return total


def r_p(a, p) -> np.ndarray:
    """Order-p remainder R_p(A); R_1(A) = A."""
    p = _check_order(p)
    m = as_square(a)
    if p == 1:
        return m.copy()
    factor = matrix_exponential(_alternating_log_factor(m, p))
    one = np.eye(m.shape[0], dtype=np.complex128)
    return (one + m) @ factor - one


@dataclass(frozen=True)
class RegDet:
    """Value of a regularized determinant with its principal log record."""

    value: complex
    order: int
    log_value: complex


def _routes(m: np.ndarray, p: int) -> tuple[complex, complex, float]:
    """det_p(1 + A) by the remainder and factorization routes, and their relative gap."""
    one = np.eye(m.shape[0], dtype=np.complex128)
    log_factor = _alternating_log_factor(m, p)
    via_remainder = determinant((one + m) @ matrix_exponential(log_factor))
    via_factorization = determinant(one + m) * cmath.exp(np.trace(log_factor))
    scale = max(abs(via_remainder), abs(via_factorization), 1.0)
    return via_remainder, via_factorization, abs(via_remainder - via_factorization) / scale


def dual_route_gap(a, p) -> float:
    """Relative disagreement between the remainder and factorization routes."""
    p = _check_order(p)
    return _routes(as_square(a), p)[2]


def det_p(a, p) -> RegDet:
    """Regularized determinant det_p(1 + A) with an internal dual-route check."""
    p = _check_order(p)
    value, via_factorization, gap = _routes(as_square(a), p)
    if gap > DUAL_ROUTE_RTOL:
        raise InternalConsistencyError(
            "remainder and factorization routes disagree: "
            f"{value!r} vs {via_factorization!r}"
        )
    if value == 0:
        log_value = complex(float("-inf"), 0.0)
    else:
        log_value = cmath.log(value)
    return RegDet(value=value, order=p, log_value=log_value)


def log_det_p_series(a, p, terms) -> complex:
    """Partial trace series for log det_p(1 + A).

    Sums terms j = p .. p + terms - 1 of sum_j (-1)^(j+1) Tr(A^j) / j.
    Requires spectral radius of A strictly below 1.
    """
    p = _check_order(p)
    if not isinstance(terms, (int, np.integer)) or isinstance(terms, bool) or terms < 1:
        raise DivergenceError(f"terms must be a positive integer, got {terms!r}")
    m = as_square(a)
    radius = float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0
    if radius >= 1.0 - SPECTRAL_RADIUS_TOL:
        raise DivergenceError(
            f"spectral radius {radius:.6f} is not below 1; series diverges"
        )
    power = np.linalg.matrix_power(m, p - 1) if p > 1 else np.eye(m.shape[0], dtype=np.complex128)
    total = 0.0 + 0.0j
    for j in range(p, p + int(terms)):
        power = power @ m
        total += ((-1) ** (j + 1) / j) * np.trace(power)
    return complex(total)


def _product_perturbation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C with 1 + C = (1 + A)(1 + B)."""
    return a + b + a @ b


def gamma_p(a, b, p) -> complex:
    """Multiplicativity defect of principal logs, imaginary part folded into (-pi, pi].

    gamma = Log det_p((1+A)(1+B)) - Log det_p(1+A) - Log det_p(1+B) mod 2 pi i.
    """
    p = _check_order(p)
    ma = as_square(a)
    mb = as_square(b)
    if ma.shape != mb.shape:
        raise ShapeError(f"operand shapes differ: {ma.shape} vs {mb.shape}")
    dets = [det_p(ma, p), det_p(mb, p), det_p(_product_perturbation(ma, mb), p)]
    for d in dets:
        if abs(d.value) <= SINGULAR_TOL:
            raise SingularDeterminantError(
                f"det_{p} value {d.value!r} vanishes within {SINGULAR_TOL}"
            )
    g = dets[2].log_value - dets[0].log_value - dets[1].log_value
    imag = math.remainder(g.imag, TWO_PI)
    if imag <= -math.pi:
        imag += TWO_PI
    return complex(g.real, imag)


def omega_p(a, b, p) -> complex:
    """Branch-free multiplicativity ratio det_p((1+A)(1+B)) / det_p(1+A).

    Satisfies the cocycle identity
    omega_p(A, BC) = omega_p(AB, C) * omega_p(A, B)
    where juxtaposition is the product of unital perturbations.
    """
    p = _check_order(p)
    ma = as_square(a)
    mb = as_square(b)
    if ma.shape != mb.shape:
        raise ShapeError(f"operand shapes differ: {ma.shape} vs {mb.shape}")
    denom = det_p(ma, p)
    if abs(denom.value) <= SINGULAR_TOL:
        raise SingularDeterminantError(
            f"det_{p}(1+A) = {denom.value!r} vanishes within {SINGULAR_TOL}"
        )
    numer = det_p(_product_perturbation(ma, mb), p)
    return numer.value / denom.value
