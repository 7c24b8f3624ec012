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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartSingularityError,
    FrameError,
    ShapeError,
    SingularTransformError,
)
from .linalg import (
    RANK_TOL,
    SINGULAR_TOL,
    Polarization,
    as_matrix,
    as_square,
    determinant,
    singular_values,
)
from .regdet import det_p, omega_p


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
        s = singular_values(m)
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


def frame_act(w: Frame, t) -> Frame:
    """Right translation of the frame by an invertible k x k matrix."""
    tm = as_square(t, w.pol.plus_dim, "transform")
    if abs(determinant(tm)) <= SINGULAR_TOL:
        raise SingularTransformError("frame transform is singular within 1e-12")
    return Frame(w.pol, w.matrix @ tm)


def frame_projector(w: Frame) -> np.ndarray:
    """Orthogonal projector onto the plane spanned by the frame (via QR)."""
    q, _ = np.linalg.qr(w.matrix)
    return q @ q.conj().T


def _require_chart(block: np.ndarray, what: str) -> None:
    if abs(determinant(block)) <= SINGULAR_TOL:
        raise ChartSingularityError(f"{what} is singular within 1e-12; frame leaves the chart")


@dataclass(frozen=True)
class DetLineElement:
    """Point of the order-p determinant line: a frame with a coefficient."""

    frame: Frame
    coeff: complex


def detline_act(element: DetLineElement, t, p) -> DetLineElement:
    """Right action on the line: translate the frame, divide by omega_p(w_plus, t)."""
    wp = w_plus(element.frame)
    _require_chart(wp, "w_plus")
    k = element.frame.pol.plus_dim
    tm = as_square(t, k, "transform")
    one = np.eye(k, dtype=np.complex128)
    moved = frame_act(element.frame, tm)
    factor = omega_p(wp - one, tm - one, p)
    return DetLineElement(frame=moved, coeff=element.coeff / factor)


def canonical_section(w: Frame, p) -> complex:
    """det_p(w_plus); equivariant under right translation by the omega factor."""
    wp = w_plus(w)
    _require_chart(wp, "w_plus")
    k = w.pol.plus_dim
    return det_p(wp - np.eye(k), p).value


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
    if abs(determinant(qm)) <= SINGULAR_TOL:
        raise SingularTransformError("q is singular within 1e-12")
    if abs(determinant(tm)) <= SINGULAR_TOL:
        raise SingularTransformError("t is singular within 1e-12")
    q_inv = np.linalg.inv(qm)
    moved = gm @ w.matrix @ q_inv
    wp = w_plus(w)
    wp_moved = moved[:k, :]
    _require_chart(wp, "w_plus")
    _require_chart(wp_moved, "(g w q^-1)_plus")
    one = np.eye(k, dtype=np.complex128)
    upper = omega_p(wp - one, tm - one, p)
    lower = omega_p(wp_moved - one, qm @ tm @ q_inv - one, p)
    return upper / lower
