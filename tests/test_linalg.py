"""Norms, block decomposition, and dense linear algebra helpers."""

import numpy as np
import pytest

from anomlab.errors import (
    DomainError,
    FloatOverflowError,
    InvalidOrderError,
    ShapeError,
    SymmetryError,
)
from anomlab.linalg import (
    Polarization,
    as_square,
    block_decompose,
    hermitian_eigensystem,
    matrix_exponential,
    matrix_rank,
    mr_distance,
    mr_norm_report,
    operator_norm,
    schatten_norm,
    sign_commutator,
    singular_values,
    weak_quasi_norm,
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


def test_polarization_validation():
    pol = Polarization(dim=5, plus_dim=2)
    assert pol.minus_dim == 3
    eps = pol.epsilon
    np.testing.assert_allclose(eps @ eps, np.eye(5))
    np.testing.assert_allclose(np.diag(eps), [1, 1, -1, -1, -1])
    with pytest.raises(ShapeError):
        Polarization(dim=3, plus_dim=4)
    with pytest.raises(ShapeError):
        Polarization(dim=0, plus_dim=0)


def test_block_decompose_roundtrip():
    rng = np.random.default_rng(11)
    pol = Polarization(dim=6, plus_dim=2)
    m = _random_complex(rng, 6)
    blocks = block_decompose(m, pol)
    assert blocks.a.shape == (2, 2)
    assert blocks.d.shape == (4, 4)
    np.testing.assert_allclose(blocks.reassemble(), m)


def test_sign_commutator_kills_diagonal_blocks():
    rng = np.random.default_rng(12)
    pol = Polarization(dim=5, plus_dim=3)
    m = _random_complex(rng, 5)
    comm = sign_commutator(m, pol)
    blocks = block_decompose(comm, pol)
    np.testing.assert_allclose(blocks.a, 0, atol=1e-14)
    np.testing.assert_allclose(blocks.d, 0, atol=1e-14)
    # off-diagonal blocks are doubled with opposite signs
    orig = block_decompose(m, pol)
    np.testing.assert_allclose(blocks.b, 2 * orig.b)
    np.testing.assert_allclose(blocks.c, -2 * orig.c)


@pytest.mark.parametrize("p", [1, 2, 3, 4.5])
def test_schatten_norm_matches_singular_value_sum(p):
    rng = np.random.default_rng(int(10 * p))
    m = _random_complex(rng, 5)
    s = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(schatten_norm(m, p), np.sum(s**p) ** (1.0 / p))


def test_schatten_two_is_frobenius():
    rng = np.random.default_rng(21)
    m = _random_complex(rng, 4)
    np.testing.assert_allclose(schatten_norm(m, 2), np.linalg.norm(m, "fro"))


def test_schatten_rejects_orders_below_one():
    m = np.eye(2)
    with pytest.raises(InvalidOrderError):
        schatten_norm(m, 0.5)
    with pytest.raises(InvalidOrderError):
        schatten_norm(m, 0)


def test_weak_quasi_norm_definition_and_bound():
    rng = np.random.default_rng(31)
    m = _random_complex(rng, 6)
    s = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
    for p in (1, 2, 3):
        expected = max((k + 1) ** (1.0 / p) * s[k] for k in range(len(s)))
        np.testing.assert_allclose(weak_quasi_norm(m, p), expected)
        assert weak_quasi_norm(m, p) <= schatten_norm(m, p) + 1e-12


def test_operator_norm_is_top_singular_value():
    rng = np.random.default_rng(41)
    m = _random_complex(rng, 5)
    np.testing.assert_allclose(operator_norm(m), np.linalg.norm(m, 2))
    assert singular_values(m)[0] == pytest.approx(operator_norm(m))


def test_mr_distance_blockwise():
    rng = np.random.default_rng(51)
    pol = Polarization(dim=4, plus_dim=2)
    m1 = _random_complex(rng, 4)
    m2 = _random_complex(rng, 4)
    d = m1 - m2
    blocks = block_decompose(d, pol)
    p = 2
    expected = (
        operator_norm(blocks.a)
        + operator_norm(blocks.d)
        + schatten_norm(blocks.b, 2 * p)
        + schatten_norm(blocks.c, 2 * p)
    )
    np.testing.assert_allclose(mr_distance(m1, m2, pol, p), expected)
    assert mr_distance(m1, m1, pol, p) == pytest.approx(0.0, abs=1e-14)


def test_mr_norm_report_fields():
    rng = np.random.default_rng(52)
    pol = Polarization(dim=4, plus_dim=1)
    m = _random_complex(rng, 4)
    rep = mr_norm_report(m, pol, 3)
    blocks = block_decompose(m, pol)
    assert rep.order == 3
    np.testing.assert_allclose(rep.diag_plus, operator_norm(blocks.a))
    np.testing.assert_allclose(rep.off_upper, schatten_norm(blocks.b, 6))
    np.testing.assert_allclose(
        rep.mr_norm, rep.diag_plus + rep.diag_minus + rep.off_upper + rep.off_lower
    )


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


def test_schatten_norm_neither_overflows_nor_underflows():
    # |c I_2|_p = c 2^(1/p)
    for c in (1e200, 1e-200, 1e300):
        for p in (1, 2, 3.5):
            assert schatten_norm(c * np.eye(2), p) == pytest.approx(c * 2 ** (1 / p), rel=1e-14)
    assert schatten_norm(np.diag([1e308, 1e308]), 2) == pytest.approx(1e308 * 2**0.5, rel=1e-14)
    assert schatten_norm(np.zeros((2, 2)), 2) == 0.0
    # singular values 3 and 4: |.|_1 = 7, |.|_2 = 5, |.|_p tends to 4 as p grows
    assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0, rel=1e-15)
    assert schatten_norm(np.diag([3.0, 4.0]), 1e300) == 4.0


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


def test_matrix_rank_with_tolerance():
    m = np.diag([1.0, 1e-6, 1e-14])
    assert matrix_rank(m) == 2
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(3)) == 3


def test_dimension_mismatch_raises():
    pol = Polarization(dim=3, plus_dim=1)
    with pytest.raises(ShapeError):
        block_decompose(np.eye(4), pol)
    with pytest.raises(ShapeError):
        sign_commutator(np.eye(4), pol)
