"""Integer Smith normal form and modular linear solving."""

import itertools

import numpy as np
import pytest

from anomlab.instances import group_catalog, point_groupoid, translation_groupoid
from anomlab.nerve import coboundary_matrix, nerve
from anomlab.snf import _pivot, _reduce, smith_normal_form, solve_mod


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


def _exact_matmul(x, y):
    """x @ y in Python integers, summing over the nonzeros of x only."""
    x = np.asarray(x, dtype=object)
    y = np.asarray(y, dtype=object)
    out = np.zeros((x.shape[0], y.shape[1]), dtype=object)
    for i, k in zip(*np.nonzero(x)):
        out[i] += x[i, k] * y[k]
    return out


def _check_transforms(mat):
    """U A V = S, V V^-1 = I and the divisibility chain, in exact arithmetic."""
    res = smith_normal_form(mat, want_u=True, want_v=True, want_vinv=True)
    a = np.asarray(mat, dtype=object)
    s = _exact_matmul(res.u, _exact_matmul(a, res.v))
    expected = np.zeros(a.shape, dtype=object)
    for i in range(min(a.shape)):
        expected[i, i] = res.factors[i]
    assert np.array_equal(s, expected)
    vv = _exact_matmul(res.v, res.vinv)
    assert np.array_equal(vv, np.eye(a.shape[1], dtype=object))
    # nonnegative factors with a divisibility chain
    nonzero = [f for f in res.factors if f != 0]
    assert all(f > 0 for f in nonzero)
    for first, second in zip(nonzero, nonzero[1:]):
        assert second % first == 0
    assert res.rank == len(nonzero)
    return res


def _check_form(mat):
    res = _check_transforms(mat)
    # unimodular transforms
    assert abs(_int_det(np.array(res.u, dtype=object))) == 1
    assert abs(_int_det(np.array(res.v, dtype=object))) == 1
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


def test_growth_past_the_guard_takes_the_exact_path():
    # unit quotients double the last column step by step; int64 would wrap
    # and report a factor 3 here without the post-write guard
    x = 576460752303423000
    mat = [
        [0, 1, -1, 1, -1, 0, -1, x - 153],
        [0, 0, -1, 0, 0, -1, -1, x - 153],
        [-1, 1, 0, -1, -1, 1, -1, -x - 175],
        [0, 0, 0, -1, 0, 1, -1, -x - 140],
        [-1, 0, 1, 1, 0, 1, -1, -x + 199],
        [-1, 0, -1, 0, 1, 1, 1, x - 58],
        [-1, -1, -1, 1, -1, 1, 1, -x + 321],
    ]
    # factors alone: with transforms tracked, their product checks trip first
    assert smith_normal_form(mat).factors == [1] * 7
    assert _check_transforms(mat).factors == [1] * 7


def test_pivot_rule_fixes_the_transforms():
    # smallest |entry|, row-major tie-break: the class vectors that
    # `compute glue` prints are written in the basis these transforms give
    res = _check_form([[2, 1, -1, 0], [1, 0, 1, 3], [-1, 1, 2, 1]])
    assert res.factors == [1, 1, 2]
    assert res.u.tolist() == [[1, 0, 0], [0, 1, 0], [-1, 3, 1]]
    assert res.v.tolist() == [[0, 1, 1, -4], [1, -2, 0, 3], [0, 0, 2, -5], [0, 0, -1, 3]]
    assert res.vinv.tolist() == [[2, 1, -1, 0], [1, 0, 1, 3], [0, 0, 3, 5], [0, 0, 1, 2]]


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


def test_coboundary_matrices_reduce_exactly():
    # the matrices cohomology_group reduces, up to 1296 x 216 (d^2 of the
    # translation groupoid of S3); determinants are too slow at these sizes
    catalog = group_catalog()
    groupoids = [point_groupoid(g) for _, g in sorted(catalog.items())]
    groupoids.append(translation_groupoid(catalog["S3"]))
    for gpd in groupoids:
        nv = nerve(gpd, 3)
        for d in range(3):
            _check_transforms(coboundary_matrix(nv, d))


def _pivot_object(a, t):
    """Oracle for _pivot: the nested-loop search the object elimination once ran."""
    best = None
    rows, cols = a.shape
    for i in range(t, rows):
        for j in range(t, cols):
            val = a[i, j]
            if val == 0:
                continue
            key = (abs(val), i, j)
            if best is None or key < best[0]:
                best = (key, i, j)
    if best is None:
        return None
    return best[1], best[2]


def test_pivot_matches_the_nested_loop_oracle_on_object_arrays():
    rng = np.random.default_rng(604)
    for trial in range(1200):
        rows, cols = (int(k) for k in rng.integers(1, 8, size=2))
        # small entries give units and ties; scaled ones reach past 2^63 up to about 2^73
        small = rng.integers(-4, 5, size=(rows, cols))
        scale = [1, 2, 2**30, 2**33][trial % 4]
        big = rng.integers(-(2**40), 2**40, size=(rows, cols))
        mat = np.zeros((rows, cols), dtype=object)
        for i, j in np.ndindex(rows, cols):
            mat[i, j] = int(small[i, j]) if rng.random() < 0.3 else int(big[i, j]) * scale
        mat[rng.random((rows, cols)) < 0.2] = 0
        t = int(rng.integers(min(rows, cols)))
        assert _pivot(mat, t) == _pivot_object(mat, t), (mat.tolist(), t)


def test_object_elimination_matches_int64_on_coboundaries():
    # the object path otherwise runs only after an int64 guard trips
    for _, grp in sorted(group_catalog().items()):
        nv = nerve(point_groupoid(grp), 3)
        for d in range(3):
            mat = coboundary_matrix(nv, d)
            fast = _reduce(np.array(mat, dtype=np.int64), True, True, True, object_mode=False)
            exact = _reduce(np.array(mat.tolist(), dtype=object), True, True, True, object_mode=True)
            assert exact.factors == fast.factors
            assert exact.rank == fast.rank
            for name in ("u", "v", "vinv"):
                got, want = getattr(exact, name), getattr(fast, name)
                assert got.dtype == object and all(type(x) is int for x in got.flat)
                assert got.tolist() == want.tolist()


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


def test_solve_mod_matches_exhaustive_search():
    rng = np.random.default_rng(605)
    for _ in range(300):
        rows, cols = (int(k) for k in rng.integers(1, 4, size=2))
        modulus = int(rng.integers(1, 7))
        a = rng.integers(-6, 7, size=(rows, cols))
        rhs = rng.integers(-6, 7, size=rows)
        candidates = np.array(list(itertools.product(range(modulus), repeat=cols)))
        solvable = np.any(np.all((candidates @ a.T - rhs) % modulus == 0, axis=1))
        sol = solve_mod(a, rhs, modulus)
        assert (sol is not None) == solvable, (a.tolist(), rhs.tolist(), modulus)
        if sol is not None:
            assert np.all((a @ sol - rhs) % modulus == 0)


def test_solve_mod_shape_check():
    with pytest.raises(ValueError):
        solve_mod(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), 2)
