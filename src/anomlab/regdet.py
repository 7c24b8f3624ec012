"""Regularized determinants of order p for operators of the form 1 + A.

The order-p remainder is

    R_p(A) = -1 + (1 + A) exp(F),  F = sum_{j=1}^{p-1} (-1)^j A^j / j,

and det_p(1 + A) := det(1 + R_p(A)) = det(1 + A) exp(Tr F). It is computed
in the log domain (Simon, Trace Ideals and Their Applications, 2005, ch. 9):

    log det_p(1 + A) = log det(1 + A) + sum_{j=1}^{p-1} (-1)^j Tr(A^j) / j,

with Tr(A^j) the entrywise sum of A^(j-1) * A^T, so p <= 3 takes no matrix
product and p >= 4 takes p - 3 of them. log det(1 + A) is taken twice: from
the LU factors (slogdet) and from a Householder QR, as the sum of log r_ii
and of the reflector log determinants log(-tau_i / conj(tau_i)). The two
must agree modulo 2 pi i to an absolute log gap of 1e-9, plus the rounding
either log may carry when 1 + A is ill-conditioned (to first order 32 n eps
sum_i |row_i| / |r_ii|, over the rows of 1 + A), or the call aborts. When
that rounding reaches 1, as on a singular 1 + A, the logs hold no digit to
compare and the gap counts as 0. The value is exp of the LU log folded to
the principal branch: 0 only on a true underflow, and a FloatOverflowError,
naming the finite log, when it is too large to represent. Order 1 is the
plain determinant.

det_p is not multiplicative; the defect is tracked two ways. gamma_p is the
additive defect of principal logarithms reported modulo 2 pi i, from three
dual-route-checked logs. omega_p is the branch-free ratio
det_p((1+A)(1+B)) / det_p(1+A) that the determinant-line module builds on.
With 1 + C = (1 + A)(1 + B), log det(1 + A) cancels exactly mod 2 pi i, so

    omega_p(A, B) = det(1 + B) exp(Tr F(C) - Tr F(A)),

one dual-route-checked log, that of det(1 + B), plus two trace series. So
the ratio of two determinants that overflow one by one is still finite.

Each matrix is factored once: the kernels take A with 1 + A and its LU log,
which feeds the value, the dual-route check and every singular gate, here
and in the grassmann module. They run under the float error state _quiet,
set once per public call, and test their results for finiteness instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DivergenceError,
    FloatOverflowError,
    InternalConsistencyError,
    SingularDeterminantError,
    integer,
)
from .linalg import (
    SINGULAR_TOL,
    _check_order,
    as_square,
)

DUAL_ROUTE_TOL = 1e-9
SPECTRAL_RADIUS_TOL = 1e-8

TWO_PI = 2.0 * math.pi
LOG_SINGULAR_TOL = math.log(SINGULAR_TOL)
EPS = float(np.finfo(np.float64).eps)
_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@dataclass(frozen=True)
class RegDet:
    """Value of a regularized determinant with its principal log record."""

    value: complex
    order: int
    log_value: complex


def _principal(z: complex) -> complex:
    """z with its imaginary part folded into (-pi, pi]."""
    imag = math.remainder(z.imag, TWO_PI)
    if imag <= -math.pi:
        imag += TWO_PI
    return complex(z.real, imag)


def _trace_series(m: np.ndarray, p: int, name: str = "A") -> complex:
    """Tr F = sum_{j=1}^{p-1} (-1)^j Tr(A^j) / j, with Tr(A^j) = sum(A^(j-1) * A^T)."""
    if p == 1:
        return 0j
    total = -complex(m.trace())
    power = m
    for j in range(2, p):
        if j > 2:
            power = power @ m
        total += (-1) ** j / j * complex(np.einsum("ij,ji->", power, m))
    if not cmath.isfinite(total):
        raise FloatOverflowError(f"Tr({name}^j), j < {p}, overflows float64")
    return total


def _route_gap(via_lu: complex, via_qr: complex, allowance: float) -> float:
    """Absolute log gap mod 2 pi i, discounted so that it passes DUAL_ROUTE_TOL
    exactly when the raw gap is within DUAL_ROUTE_TOL + allowance."""
    # an allowance of 1 or more (or nan, from a zero row) leaves no digit to compare
    if not allowance < 1.0:
        return 0.0
    d = via_lu - via_qr
    if not cmath.isfinite(d):
        return math.inf
    return math.hypot(d.real, math.remainder(d.imag, TWO_PI)) / (1.0 + allowance / DUAL_ROUTE_TOL)


def _shift(m: np.ndarray, by: float) -> np.ndarray:
    """m + by * 1 as a new array: 1 + A from A, or A from 1 + A."""
    out = m.copy()
    out.reshape(-1)[:: m.shape[0] + 1] += by
    return out


class _Factored(NamedTuple):
    """A, 1 + A and the LU log of 1 + A: each matrix is factored once, for its gates and its value."""

    a: np.ndarray
    one_plus: np.ndarray
    lu_log: complex


def _lu_log(one_plus: np.ndarray) -> complex:
    """log det from the LU factors (slogdet), unfolded; nan or +inf when they overflow."""
    sign, log_abs = np.linalg.slogdet(one_plus)
    return complex(log_abs, cmath.phase(sign))


def _factor(m: np.ndarray, one_plus: np.ndarray | None = None) -> _Factored:
    """A with 1 + A, formed here unless the caller holds it, and its LU log."""
    if one_plus is None:
        one_plus = _shift(m, 1.0)
    return _Factored(m, one_plus, _lu_log(one_plus))


def _qr_gap(x: _Factored, name: str = "A") -> float:
    """The LU-QR gap of log det(1 + A); FloatOverflowError where either factorization overflows."""
    # QR of the transpose, which is already column-major as LAPACK wants it;
    # the factor numpy hands back has the diagonal of R
    h, tau = np.linalg.qr(x.one_plus.T, mode="raw")
    r = np.diagonal(h)
    # I - tau v v* is unitary, so |tau|^2 |v|^2 = 2 Re tau and its determinant
    # 1 - tau |v|^2 is -tau / conj(tau), or 1 where tau = 0
    turns = np.divide(-tau, tau.conj(), out=np.ones_like(tau), where=tau != 0)
    via_qr = complex(np.log(r * turns).sum())
    if not (x.lu_log.real < math.inf and via_qr.real < math.inf):  # inf or nan
        raise FloatOverflowError(f"the LU or QR factors of 1 + {name} overflow float64")
    # |R e_i| is the norm of row i of 1 + A, as Q is unitary; both are taken
    # over the largest modulus so that no square overflows
    moduli = np.abs(x.one_plus)
    top = moduli.max(initial=0.0) or 1.0
    moduli /= top
    # first-order rounding of either log, with room: 32 n eps sum_i |R e_i| / |r_ii|
    allowance = 32.0 * r.size * EPS * float((np.linalg.norm(moduli, axis=1) / (np.abs(r) / top)).sum())
    return _route_gap(x.lu_log, via_qr, allowance)


def _checked_log_det_p(x: _Factored, p: int, name: str = "A") -> complex:
    gap = _qr_gap(x, name)  # first, so that an overflowing factor is named before Tr F
    log_value = x.lu_log + _trace_series(x.a, p, name)
    if gap > DUAL_ROUTE_TOL:
        raise InternalConsistencyError(
            f"LU and QR routes to log det(1 + {name}) disagree by {gap:.3e} (mod 2 pi i)"
        )
    return log_value


def _exp(log_value: complex, what: str) -> complex:
    try:
        return cmath.exp(log_value)
    except OverflowError:
        raise FloatOverflowError(f"{what} overflows float64; its log is {log_value:.10g}") from None


@_quiet
def dual_route_gap(a, p) -> float:
    """Absolute gap, mod 2 pi i, between the LU and QR logs of det(1 + A).

    Discounted by the rounding the two may carry, so det_p aborts exactly
    when this exceeds 1e-9; 0 on a singular 1 + A. Tr F is shared by both
    routes and not taken here, so the gap does not depend on p, which is
    only checked, and an overflowing Tr F does not stop it.
    """
    _check_order(p)
    return _qr_gap(_factor(as_square(a)))


def _det_p(x: _Factored, p: int) -> RegDet:
    log_value = _principal(_checked_log_det_p(x, p))
    if log_value.real == -math.inf:
        log_value = complex(-math.inf, 0.0)
    return RegDet(value=_exp(log_value, f"det_{p}(1 + A)"), order=p, log_value=log_value)


@_quiet
def det_p(a, p) -> RegDet:
    """Regularized determinant det_p(1 + A) with an internal dual-route check."""
    p = _check_order(p)
    return _det_p(_factor(as_square(a)), p)


def log_det_p_series(a, p, terms) -> complex:
    """Partial trace series for log det_p(1 + A).

    Sums terms j = p .. p + terms - 1 of sum_j (-1)^(j+1) Tr(A^j) / j.
    Requires spectral radius of A strictly below 1.
    """
    p = _check_order(p)
    terms = integer(terms, "terms", DivergenceError, lo=1)
    m = as_square(a)
    radius = float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0
    if radius >= 1.0 - SPECTRAL_RADIUS_TOL:
        raise DivergenceError(
            f"spectral radius {radius:.6f} is not below 1; series diverges"
        )
    power = np.linalg.matrix_power(m, p - 1) if p > 1 else np.eye(m.shape[0], dtype=np.complex128)
    total = 0.0 + 0.0j
    for j in range(p, p + terms):
        power = power @ m
        total += ((-1) ** (j + 1) / j) * np.trace(power)
    return complex(total)


def _product_perturbation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C with 1 + C = (1 + A)(1 + B)."""
    c = a + b + a @ b
    if not np.isfinite(c).all():
        raise FloatOverflowError("(1 + A)(1 + B) overflows float64")
    return c


def _nonsingular(log_value: complex, p: int, what: str) -> complex:
    if log_value.real <= LOG_SINGULAR_TOL:
        raise SingularDeterminantError(
            f"det_{p}({what}) has log modulus {log_value.real:.6g}, "
            f"so it vanishes within {SINGULAR_TOL}"
        )
    return log_value


@_quiet
def gamma_p(a, b, p) -> complex:
    """Multiplicativity defect of principal logs, imaginary part folded into (-pi, pi].

    gamma = Log det_p(1+C) - Log det_p(1+A) - Log det_p(1+B) mod 2 pi i, 1+C = (1+A)(1+B).
    """
    p = _check_order(p)
    ma = as_square(a)
    x, y = _factor(ma), _factor(as_square(b, ma.shape[0], "B"))
    z = _factor(_product_perturbation(x.a, y.a))
    logs = [
        _nonsingular(_checked_log_det_p(m, p, name), p, what)
        for m, name, what in ((x, "A", "1+A"), (y, "B", "1+B"), (z, "C", "(1+A)(1+B)"))
    ]
    return _principal(logs[2] - logs[0] - logs[1])


def _log_omega_p(a: np.ndarray, lu_log_a: complex, y: _Factored, p: int) -> complex:
    """log omega_p from A and the LU log of 1 + A, which is all it reads of 1 + A, and B factored."""
    if not lu_log_a.real < math.inf:  # inf or nan
        raise FloatOverflowError("the LU factors of 1 + A overflow float64")
    trace_a = _trace_series(a, p)
    _nonsingular(lu_log_a + trace_a.real, p, "1+A")
    trace_c = _trace_series(_product_perturbation(a, y.a), p, "C")
    return _checked_log_det_p(y, 1, "B") + trace_c - trace_a


@_quiet
def omega_p(a, b, p) -> complex:
    """Branch-free multiplicativity ratio det_p((1+A)(1+B)) / det_p(1+A).

    With 1 + C = (1 + A)(1 + B), log det(1 + A) cancels mod 2 pi i, so the
    ratio is det(1 + B) exp(Tr F(C) - Tr F(A)). Only log det(1 + B) is taken
    by both routes and must pass the dual-route check; the LU log of 1 + A
    serves the singularity gate alone: it raises SingularDeterminantError
    when it plus Re Tr F(A) puts |det_p(1 + A)| within 1e-12 of 0, and
    FloatOverflowError when it is nan or +inf.

    Satisfies the cocycle identity
    omega_p(A, BC) = omega_p(AB, C) * omega_p(A, B)
    where juxtaposition is the product of unital perturbations.
    """
    p = _check_order(p)
    ma = as_square(a)
    y = _factor(as_square(b, ma.shape[0], "B"))
    # 1 + A is dropped once its LU log is taken: held on, it slows the
    # products that follow at n = 128 by a few per cent
    return _exp(_log_omega_p(ma, _lu_log(_shift(ma, 1.0)), y, p), f"omega_{p}")
