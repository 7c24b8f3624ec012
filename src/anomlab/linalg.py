"""Dense complex linear algebra kernels over a polarized space.

Operators are plain numpy arrays of complex128. The polarization splits
C^n into a plus subspace (first k coordinates) and a minus subspace (the
rest); the sign operator is +1 on the former and -1 on the latter. Block
decomposition, Schatten norms, and the graded metric below are the raw
material for the regularized determinants and line bundles in the other
modules.

Everything here targets small dense matrices (tens of rows); there is no
sparse or iterative path on purpose. Orders pass the gates of the errors
module: the integer order of det_p and of the graded metric through
integer(), Schatten and weak orders through real(). scipy.linalg is
imported on first use, by matrix_exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FloatOverflowError,
    InvalidOrderError,
    ShapeError,
    SymmetryError,
    integer,
    real,
)

HERMITIAN_TOL = 1e-10
SINGULAR_TOL = 1e-12
RANK_TOL = 1e-10
FLOAT_MAX = float(np.finfo(np.float64).max)


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and require finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix entries must be finite")
    return m


def as_square(a, n=None, what: str = "matrix") -> np.ndarray:
    """as_matrix(a) required to be square, and n x n when n is given."""
    m = as_matrix(a)
    side = m.shape[0] if n is None else n
    if m.shape != (side, side):
        raise ShapeError(f"{what} must be {'square' if n is None else f'{n}x{n}'}, got shape {m.shape}")
    return m


def _check_order(p) -> int:
    return integer(p, "order", InvalidOrderError, lo=1)


@dataclass(frozen=True)
class Polarization:
    """Splitting of C^dim into a plus block of size plus_dim and its complement."""

    dim: int
    plus_dim: int

    def __post_init__(self):
        dim = integer(self.dim, "dim", ShapeError, lo=1)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "plus_dim", integer(self.plus_dim, "plus_dim", ShapeError, 0, dim))

    @property
    def minus_dim(self) -> int:
        return self.dim - self.plus_dim

    @property
    def epsilon(self) -> np.ndarray:
        """Sign operator: +1 on the plus block, -1 on the minus block."""
        signs = np.ones(self.dim)
        signs[self.plus_dim:] = -1.0
        return np.diag(signs).astype(np.complex128)


@dataclass
class BlockOperator:
    """The four blocks of an operator with respect to a polarization.

    a maps plus to plus, b minus to plus, c plus to minus, d minus to minus.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def reassemble(self) -> np.ndarray:
        top = np.hstack([self.a, self.b])
        bottom = np.hstack([self.c, self.d])
        return np.vstack([top, bottom])


def block_decompose(a, pol: Polarization) -> BlockOperator:
    m = as_square(a, pol.dim, "operator")
    k = pol.plus_dim
    return BlockOperator(a=m[:k, :k], b=m[:k, k:], c=m[k:, :k], d=m[k:, k:])


def sign_commutator(a, pol: Polarization) -> np.ndarray:
    """Commutator with the sign operator; kills diagonal blocks, doubles off-diagonal ones."""
    m = as_square(a, pol.dim, "operator")
    eps = pol.epsilon
    return eps @ m - m @ eps


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def schatten_norm(a, p) -> float:
    """Schatten p-norm: the l^p norm of the singular value sequence.

    p may be any finite real >= 1; p = inf is not accepted here (use
    operator_norm). The largest singular value is factored out, so the norm
    neither overflows nor underflows where it fits float64.
    """
    p = real(p, "Schatten order", InvalidOrderError, 1, FLOAT_MAX)
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    return float(s[0] * np.sum((s / s[0]) ** p) ** (1.0 / p))


def weak_quasi_norm(a, p) -> float:
    """Weak-l^p quasi-norm of the singular values: sup_k k^(1/p) s_k.

    Singular values are taken in decreasing order with k starting at 1.
    """
    p = real(p, "weak order", InvalidOrderError, 1, math.inf)
    s = singular_values(a)
    if s.size == 0:
        return 0.0
    k = np.arange(1, s.size + 1, dtype=float)
    return float(np.max(k ** (1.0 / p) * s))


def operator_norm(a) -> float:
    """Largest singular value."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def mr_distance(g, h, pol: Polarization, p) -> float:
    """Graded metric: operator norms on the diagonal blocks of g - h, Schatten 2p on the off-diagonal ones."""
    difference = as_square(g, pol.dim, "operator") - as_square(h, pol.dim, "operator")
    return mr_norm_report(difference, pol, p).mr_norm


@dataclass
class NormReport:
    """Per-block norms of one operator in the graded topology of order p."""

    order: int
    diag_plus: float
    diag_minus: float
    off_upper: float
    off_lower: float

    @property
    def mr_norm(self) -> float:
        return self.diag_plus + self.diag_minus + self.off_upper + self.off_lower


def mr_norm_report(a, pol: Polarization, p) -> NormReport:
    p = _check_order(p)
    b = block_decompose(a, pol)
    return NormReport(
        order=p,
        diag_plus=operator_norm(b.a),
        diag_minus=operator_norm(b.d),
        off_upper=schatten_norm(b.b, 2 * p),
        off_lower=schatten_norm(b.c, 2 * p),
    )


def hermitian_eigensystem(d):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Rejects matrices whose anti-Hermitian part exceeds 1e-10 in max norm,
    and raises FloatOverflowError when an eigenvalue does not fit float64.
    """
    m = as_square(d)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > HERMITIAN_TOL:
        raise SymmetryError(f"matrix is not Hermitian within {HERMITIAN_TOL} (deviation {dev:.3e})")
    # halves first, so that the mean of two entries near the float64 limit does not overflow
    w, v = np.linalg.eigh(m / 2.0 + m.conj().T / 2.0)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise FloatOverflowError("Hermitian eigenvalues overflow float64")
    return w, v


def determinant(a) -> complex:
    """Determinant via LU elimination with partial pivoting."""
    return complex(np.linalg.det(as_square(a)))


def matrix_exponential(a) -> np.ndarray:
    """exp(A) by scipy.linalg.expm (Pade scaling and squaring, Al-Mohy & Higham 2009).

    Raises FloatOverflowError when the result does not fit in float64.
    """
    # imported on first use: scipy.linalg adds about 50 ms to `import anomlab`
    from scipy.linalg import expm

    m = as_square(a)
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(m)
    if not np.all(np.isfinite(out)):
        norm = float(np.linalg.norm(m, np.inf))
        raise FloatOverflowError(
            f"matrix exponential overflows float64 (input inf-norm {norm:.6g})"
        )
    return out


def matrix_rank(a, tol: float = RANK_TOL) -> int:
    s = singular_values(a)
    return int(np.sum(s > tol))
