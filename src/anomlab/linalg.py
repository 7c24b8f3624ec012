"""Dense complex linear algebra kernels over a polarized space.

Operators are plain numpy arrays of complex128. The polarization splits
C^n into a plus subspace (first k coordinates) and a minus subspace (the
rest); the sign operator is +1 on the former and -1 on the latter. The
shape gates, the sign commutator, Hermitian eigensystems, singular values
and the matrix exponential below are the raw material for the regularized
determinants and line bundles in the other modules.

Everything here targets small dense matrices (tens of rows); there is no
sparse or iterative path on purpose. The integer order of det_p passes the
integer() gate of the errors module. scipy.linalg is imported on first
use, by matrix_exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FloatOverflowError,
    InvalidOrderError,
    ShapeError,
    SymmetryError,
    integer,
)

HERMITIAN_TOL = 1e-10
SINGULAR_TOL = 1e-12
RANK_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and require finite entries; ShapeError
    also where the rows are ragged or an entry is no complex128 number."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected a 2-d array of numbers: {exc}") from None
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iufc"):
        # numpy reads bools and numeric strings as numbers; a numeric array holds neither
        for x in np.asarray(a, dtype=object).flat:
            if isinstance(x, (bool, np.bool_, str, bytes)):
                raise ShapeError(f"an entry is no complex128 number: {x!r}")
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
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
    def epsilon(self) -> np.ndarray:
        """Sign operator: +1 on the plus block, -1 on the minus block."""
        signs = np.ones(self.dim)
        signs[self.plus_dim:] = -1.0
        return np.diag(signs).astype(np.complex128)


def sign_commutator(a, pol: Polarization) -> np.ndarray:
    """Commutator with the sign operator; kills diagonal blocks, doubles off-diagonal ones."""
    m = as_square(a, pol.dim, "operator")
    eps = pol.epsilon
    return eps @ m - m @ eps


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


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

