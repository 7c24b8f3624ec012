"""Integer Smith normal form and modular linear solving."""

import numpy as np
import pytest

from anomlab.snf import smith_normal_form, solve_mod


def _int_det(m):
    # exact cofactor expansion; transforms here are at most 6x6
    n = m.shape[0]
    if n == 1:
        return int(m[0, 0])
    total = 0
    minor_rows = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        minor = m[np.ix_(minor_rows, cols)]
        total += (-1) ** j * int(m[0, j]) * _int_det(minor)
    return total


def _check_form(mat):
    res = smith_normal_form(mat, want_u=True, want_v=True, want_vinv=True)
    a = np.asarray(mat, dtype=object)
    s = np.array(res.u, dtype=object) @ a @ np.array(res.v, dtype=object)
    k = min(a.shape)
    expected = np.zeros(a.shape, dtype=object)
    for i in range(k):
        expected[i, i] = res.factors[i]
    assert np.array_equal(s, expected)
    # unimodular transforms and a genuine inverse for v
    assert abs(_int_det(np.array(res.u, dtype=object))) == 1
    assert abs(_int_det(np.array(res.v, dtype=object))) == 1
    vv = np.array(res.v, dtype=object) @ np.array(res.vinv, dtype=object)
    assert np.array_equal(vv, np.eye(a.shape[1], dtype=object))
    # nonnegative factors with a divisibility chain
    nonzero = [f for f in res.factors if f != 0]
    assert all(f > 0 for f in nonzero)
    for first, second in zip(nonzero, nonzero[1:]):
        assert second % first == 0
    assert res.rank == len(nonzero)
    return res


def test_known_two_by_two():
    res = _check_form([[2, 4], [6, 8]])
    assert res.factors == [2, 4]


def test_rectangular_and_rank_deficient():
    res = _check_form([[1, 2, 3], [2, 4, 6]])
    assert res.factors == [1, 0]
    assert res.rank == 1
    assert _check_form(np.zeros((3, 2), dtype=np.int64)).rank == 0


def test_random_matrices_reduce_correctly():
    rng = np.random.default_rng(601)
    for _ in range(20):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        mat = rng.integers(-9, 10, size=(rows, cols))
        _check_form(mat)


def test_object_fallback_on_large_entries():
    res = _check_form([[3, 0], [0, 2**62]])
    assert res.factors == [1, 3 * 2**62]
    # entries beyond int64 force the exact path from the start
    res = _check_form([[10**30]])
    assert res.factors == [10**30]


def test_products_beyond_int64_take_the_exact_path():
    # entries fit in int64, but q * row during elimination would wrap
    res = _check_form([[-5, 3856983384684412], [4386803920442610, -1]])
    assert res.factors == [1, 16919829833015585940390207595315]


def test_fuzz_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = np.random.default_rng(603)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        mat = rng.integers(-(2**57), 2**57, size=(n, n))
        if rng.random() < 0.5:
            mat[rng.integers(n), rng.integers(n)] = int(rng.integers(-9, 10))
        res = _check_form(mat)
        oracle = sympy_snf(sympy.Matrix(mat.tolist()), domain=sympy.ZZ)
        assert res.factors == [abs(int(oracle[i, i])) for i in range(n)], mat.tolist()


def test_bad_input_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([1, 2, 3])


def test_solve_mod_roundtrip():
    rng = np.random.default_rng(602)
    for modulus in (2, 3, 4, 6):
        for _ in range(10):
            a = rng.integers(-5, 6, size=(3, 5))
            x = rng.integers(0, modulus, size=5)
            rhs = (a @ x) % modulus
            sol = solve_mod(a, rhs, modulus)
            assert sol is not None
            assert np.array_equal((a @ sol) % modulus, rhs)


def test_solve_mod_detects_unsolvable():
    assert solve_mod(np.array([[2]]), np.array([1]), 4) is None
    # 2x = 2 mod 4 is solvable even though 2 is not a unit
    sol = solve_mod(np.array([[2]]), np.array([2]), 4)
    assert sol is not None and (2 * sol[0]) % 4 == 2


def test_solve_mod_shape_check():
    with pytest.raises(ValueError):
        solve_mod(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), 2)
