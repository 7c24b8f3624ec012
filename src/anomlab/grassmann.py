"""Frames, planes, and the order-p determinant line.

A frame is an injective n x k matrix over a polarized C^n with k equal to
the plus dimension; it spans a plane comparable to the plus subspace. The
top k x k block w_plus measures how far the plane tilts away from that
subspace, and charts (where w_plus is invertible) carry the canonical
section det_p(w_plus).

Line elements are pairs (frame, coefficient) with the right translation

    (w, c) . t = (w t, c / omega_p(w_plus, t)),

so the canonical section is equivariant: psi(w t) = psi(w) omega_p(w_plus, t).
The chart-change ratio alpha_ratio compares the omega factors seen in two
charts related by (g, q); it is multiplicative in t and carries no sign.
w_plus and t already are 1 + A and 1 + B, so each is factored once (see
regdet): its LU log gates |det| <= 1e-12 and feeds det_p and omega_p.
Both quotients are taken as exp of a difference of logs, so an omega factor
that alone under- or overflows float64 still gives the quotient: 0 on a
true underflow, or a FloatOverflowError naming its log.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartSingularityError,
    DomainError,
    FloatOverflowError,
    FrameError,
    ShapeError,
    SingularTransformError,
)
from .linalg import (
    RANK_TOL,
    Polarization,
    _check_order,
    as_matrix,
    as_square,
)
from .regdet import LOG_SINGULAR_TOL, _det_p, _exp, _factor, _Factored, _log_omega_p, _quiet, _shift


@dataclass(frozen=True)
class Frame:
    """Injective n x k matrix over a polarization with plus dimension k."""

    pol: Polarization
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.pol.dim, self.pol.plus_dim):
            raise ShapeError(
                f"frame must be {self.pol.dim}x{self.pol.plus_dim}, got {m.shape}"
            )
        s = np.linalg.svd(m, compute_uv=False)
        if s.size == 0 or s[-1] <= RANK_TOL:
            raise FrameError("frame columns are not independent within 1e-10")
        object.__setattr__(self, "matrix", m)


def standard_frame(pol: Polarization) -> Frame:
    """The frame of the plus subspace itself: identity over zeros."""
    m = np.zeros((pol.dim, pol.plus_dim), dtype=np.complex128)
    np.fill_diagonal(m, 1.0)
    return Frame(pol, m)


def w_plus(w: Frame) -> np.ndarray:
    """Top k x k block of the frame."""
    return w.matrix[: w.pol.plus_dim, :]


def _invertible(block: np.ndarray, error, what: str) -> _Factored:
    """block = 1 + A with A and its LU log; error when that log puts |det| within 1e-12 of 0."""
    x = _factor(_shift(block, -1.0), block)
    if x.lu_log.real <= LOG_SINGULAR_TOL:
        raise error(f"{what} is singular within 1e-12")
    return x


def _product(what: str, *factors: np.ndarray) -> np.ndarray:
    """The matrix product of the factors, under the caller's _quiet; FloatOverflowError where it overflows."""
    m = functools.reduce(np.matmul, factors)
    if not np.isfinite(m).all():
        raise FloatOverflowError(f"{what} overflows float64")
    return m


@_quiet
def frame_act(w: Frame, t) -> Frame:
    """Right translation of the frame by an invertible k x k matrix."""
    tm = as_square(t, w.pol.plus_dim, "transform")
    _invertible(tm, SingularTransformError, "frame transform")
    return Frame(w.pol, _product("the translated frame", w.matrix, tm))


@dataclass(frozen=True)
class DetLineElement:
    """Point of the order-p determinant line: a frame with a finite complex coefficient."""

    frame: Frame
    coeff: complex

    def __post_init__(self):
        c = self.coeff
        if isinstance(c, bool) or not isinstance(c, (int, float, complex, np.number)):
            raise ShapeError(f"the line coefficient must be a complex number, got {c!r}")
        try:
            c = complex(c)
        except OverflowError:  # an int past the float range
            c = complex(math.inf)
        if not cmath.isfinite(c):
            raise DomainError(f"the line coefficient must be finite, got {c!r}")
        object.__setattr__(self, "coeff", c)


@_quiet
def detline_act(element: DetLineElement, t, p) -> DetLineElement:
    """Right action on the line: translate the frame, divide by omega_p(w_plus, t)."""
    x = _invertible(w_plus(element.frame), ChartSingularityError, "w_plus")
    tm = as_square(t, element.frame.pol.plus_dim, "transform")
    y = _invertible(tm, SingularTransformError, "frame transform")
    moved = Frame(element.frame.pol, _product("the translated frame", element.frame.matrix, tm))
    log_omega = _log_omega_p(x.a, x.lu_log, y, _check_order(p))
    c = element.coeff
    coeff = 0j if c == 0 else _exp(cmath.log(c) - log_omega, "the translated coefficient")
    return DetLineElement(frame=moved, coeff=coeff)


@_quiet
def canonical_section(w: Frame, p) -> complex:
    """det_p(w_plus); equivariant under right translation by the omega factor."""
    return _det_p(_invertible(w_plus(w), ChartSingularityError, "w_plus"), _check_order(p)).value


@_quiet
def alpha_ratio(g, q, w: Frame, t, p) -> complex:
    """Chart-change ratio omega_p(w_plus, t) / omega_p((g w q^-1)_plus, q t q^-1).

    g acts on the ambient space, q reparametrizes the frame columns, and t,
    like q, must be invertible (|det| above 1e-12). The ratio is
    multiplicative in t along the translated frames.
    """
    n, k = w.pol.dim, w.pol.plus_dim
    gm = as_square(g, n, "ambient transform")
    qm = as_square(q, k, "column transform q")
    tm = as_square(t, k, "column transform t")
    _invertible(qm, SingularTransformError, "q")
    y = _invertible(tm, SingularTransformError, "t")
    q_inv = np.linalg.inv(qm)
    x = _invertible(w_plus(w), ChartSingularityError, "w_plus")
    moved = _product("(g w q^-1)_plus", gm[:k], w.matrix, q_inv)
    x_moved = _invertible(moved, ChartSingularityError, "(g w q^-1)_plus")
    p = _check_order(p)
    upper = _log_omega_p(x.a, x.lu_log, y, p)
    t_moved = _product("q t q^-1", qm, tm, q_inv)
    lower = _log_omega_p(x_moved.a, x_moved.lu_log, _factor(_shift(t_moved, -1.0), t_moved), p)
    return _exp(upper - lower, "the chart-change ratio")
