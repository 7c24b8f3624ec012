"""Dense complex linear algebra kernels over a polarized space.

Operators are plain numpy arrays of complex128. The polarization splits
C^n into a plus subspace (first k coordinates) and a minus subspace (the
rest); the sign operator is +1 on the former and -1 on the latter. Block
decomposition, Schatten norms, and the graded metric below are the raw
material for the regularized determinants and line bundles in the other
modules.

Everything here targets small dense matrices (tens of rows); there is no
sparse or iterative path on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FloatOverflowError,
    InvalidOrderError,
    ShapeError,
    SymmetryError,
)

HERMITIAN_TOL = 1e-10
SINGULAR_TOL = 1e-12
RANK_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and require finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_order(p) -> int:
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise InvalidOrderError(f"order must be an integer, got {p!r}")
    if p < 1:
        raise InvalidOrderError(f"order must be >= 1, got {p}")
    return int(p)


@dataclass(frozen=True)
class Polarization:
    """Splitting of C^dim into a plus block of size plus_dim and its complement."""

    dim: int
    plus_dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.plus_dim <= self.dim:
            raise ShapeError(
                f"plus_dim must lie in [0, {self.dim}], got {self.plus_dim}"
            )

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
    m = as_square(a)
    if m.shape[0] != pol.dim:
        raise ShapeError(f"operator is {m.shape[0]}x{m.shape[0]}, polarization dim is {pol.dim}")
    k = pol.plus_dim
    return BlockOperator(a=m[:k, :k], b=m[:k, k:], c=m[k:, :k], d=m[k:, k:])


def sign_commutator(a, pol: Polarization) -> np.ndarray:
    """Commutator with the sign operator; kills diagonal blocks, doubles off-diagonal ones."""
    m = as_square(a)
    if m.shape[0] != pol.dim:
        raise ShapeError(f"operator is {m.shape[0]}x{m.shape[0]}, polarization dim is {pol.dim}")
    eps = pol.epsilon
    return eps @ m - m @ eps


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def schatten_norm(a, p) -> float:
    """Schatten p-norm: the l^p norm of the singular value sequence.

    p may be any real >= 1; p = inf is not accepted here (use operator_norm).
    """
    if isinstance(p, bool):
        raise InvalidOrderError("order must be a number >= 1")
    if not isinstance(p, (int, float, np.integer, np.floating)):
        raise InvalidOrderError(f"order must be a number, got {p!r}")
    if not p >= 1:
        raise InvalidOrderError(f"Schatten order must be >= 1, got {p}")
    s = singular_values(a)
    if s.size == 0:
        return 0.0
    return float(np.sum(s ** float(p)) ** (1.0 / float(p)))


def weak_quasi_norm(a, p) -> float:
    """Weak-l^p quasi-norm of the singular values: sup_k k^(1/p) s_k.

    Singular values are taken in decreasing order with k starting at 1.
    """
    if not isinstance(p, (int, float, np.integer, np.floating)) or isinstance(p, bool):
        raise InvalidOrderError(f"order must be a number, got {p!r}")
    if not p >= 1:
        raise InvalidOrderError(f"weak order must be >= 1, got {p}")
    s = singular_values(a)
    if s.size == 0:
        return 0.0
    k = np.arange(1, s.size + 1, dtype=float)
    return float(np.max(k ** (1.0 / float(p)) * s))


def operator_norm(a) -> float:
    """Largest singular value."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def mr_distance(g, h, pol: Polarization, p) -> float:
    """Graded metric: operator norms on the diagonal blocks, Schatten 2p on the off-diagonal ones."""
    _check_order(p)
    bg = block_decompose(g, pol)
    bh = block_decompose(h, pol)
    return (
        operator_norm(bg.a - bh.a)
        + operator_norm(bg.d - bh.d)
        + schatten_norm(bg.b - bh.b, 2 * p)
        + schatten_norm(bg.c - bh.c, 2 * p)
    )


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

    Rejects matrices whose anti-Hermitian part exceeds 1e-10 in max norm.
    """
    m = as_square(d)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > HERMITIAN_TOL:
        raise SymmetryError(f"matrix is not Hermitian within {HERMITIAN_TOL} (deviation {dev:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
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
