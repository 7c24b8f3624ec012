"""Polarizations, the sign commutator, and dense linear algebra helpers."""

import numpy as np
import pytest

from anomlab.errors import (
    DomainError,
    FloatOverflowError,
    ShapeError,
    SymmetryError,
)
from anomlab.linalg import (
    Polarization,
    as_square,
    hermitian_eigensystem,
    matrix_exponential,
    sign_commutator,
    singular_values,
)


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_as_square_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        as_square(np.ones(3))
    with pytest.raises(ShapeError):
        as_square(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        as_square(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "bad",
    [[["1"]], [[True]], [[1.0, True], [0.0, 1.0]], np.array([[True]]), np.array([["1"]]), [np.array([1.0]), ["2"]]],
)
def test_as_square_rejects_bools_and_numeric_strings(bad):
    with pytest.raises(ShapeError, match="no complex128 number"):
        as_square(bad)


def test_polarization_validation():
    pol = Polarization(dim=5, plus_dim=2)
    eps = pol.epsilon
    np.testing.assert_allclose(eps @ eps, np.eye(5))
    np.testing.assert_allclose(np.diag(eps), [1, 1, -1, -1, -1])
    with pytest.raises(ShapeError):
        Polarization(dim=3, plus_dim=4)
    with pytest.raises(ShapeError):
        Polarization(dim=0, plus_dim=0)


def test_sign_commutator_kills_diagonal_blocks():
    rng = np.random.default_rng(12)
    pol = Polarization(dim=5, plus_dim=3)
    m = _random_complex(rng, 5)
    comm = sign_commutator(m, pol)
    np.testing.assert_allclose(comm[:3, :3], 0, atol=1e-14)
    np.testing.assert_allclose(comm[3:, 3:], 0, atol=1e-14)
    # off-diagonal blocks are doubled with opposite signs
    np.testing.assert_allclose(comm[:3, 3:], 2 * m[:3, 3:])
    np.testing.assert_allclose(comm[3:, :3], -2 * m[3:, :3])


def test_operator_norm_is_top_singular_value():
    rng = np.random.default_rng(41)
    m = _random_complex(rng, 5)
    assert singular_values(m)[0] == pytest.approx(np.linalg.norm(m, 2))


def test_hermitian_eigensystem_reconstructs():
    rng = np.random.default_rng(61)
    m = _random_complex(rng, 6)
    h = m + m.conj().T
    w, v = hermitian_eigensystem(h)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_hermitian_eigensystem_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SymmetryError):
        hermitian_eigensystem(m)


@pytest.mark.parametrize("scale", [0.01, 1.0, 40.0])
def test_matrix_exponential_matches_scipy(scale):
    # reference: the closed form V diag(e^w) V* of a Hermitian H = V diag(w) V*,
    # and V diag(e^(iw)) V* for the anti-Hermitian iH; scale 40 needs squaring
    rng = np.random.default_rng(int(scale * 7) + 3)
    a = scale * _random_complex(rng, 5)
    h = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(h)
    for m, spectrum in ((h, np.exp(w)), (1j * h, np.exp(1j * w))):
        np.testing.assert_allclose(
            matrix_exponential(m), (v * spectrum) @ v.conj().T, rtol=1e-10, atol=1e-10
        )


def test_matrix_exponential_inverse_pair():
    rng = np.random.default_rng(71)
    m = _random_complex(rng, 4)
    prod = matrix_exponential(m) @ matrix_exponential(-m)
    np.testing.assert_allclose(prod, np.eye(4), atol=1e-12)


def test_hermitian_eigensystem_near_the_float64_limit():
    w, v = hermitian_eigensystem(np.diag([1e308, -1e308]))
    np.testing.assert_array_equal(w, [-1e308, 1e308])
    np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]])
    # 1.5e308 [[1, 1], [1, 1]] has eigenvalues 0 and 3e308 (its mean used to overflow)
    with pytest.raises(FloatOverflowError, match="eigenvalues overflow"):
        hermitian_eigensystem(1.5e308 * np.ones((2, 2)))
    # 1e308 [[1, 1], [1, 1]]: the top eigenvalue 2e308 exceeds float64
    with pytest.raises(FloatOverflowError):
        hermitian_eigensystem(1e308 * np.ones((2, 2)))
    w, _ = hermitian_eigensystem(0.5e308 * np.ones((2, 2)))
    np.testing.assert_allclose(w, [0.0, 1e308], atol=1e292)


def test_matrix_exponential_overflow_is_a_typed_error():
    with pytest.raises(FloatOverflowError, match="overflow"):
        matrix_exponential([[800.0]])
    assert issubclass(FloatOverflowError, DomainError)
    # large but representable results still come back finite
    np.testing.assert_allclose(matrix_exponential([[700.0]]), [[np.exp(700.0)]], rtol=1e-10)


def test_dimension_mismatch_raises():
    pol = Polarization(dim=3, plus_dim=1)
    with pytest.raises(ShapeError):
        sign_commutator(np.eye(4), pol)
