"""CAR representation, second quantization, and spectral vacuum lines."""

import dataclasses
import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import anomlab
from anomlab import fock, suites

from anomlab.errors import (
    CoverMembershipError,
    DomainError,
    FloatOverflowError,
    GapError,
    InternalConsistencyError,
    ShapeError,
    SizeError,
    SymmetryError,
)
from anomlab.fock import (
    SpectralBackground,
    apply_creation,
    bogoliubov_implement,
    build_car,
    creation,
    d_gamma,
    gerbe_triple_check,
    schwinger_detail,
    schwinger_over_backgrounds,
    schwinger_term,
    vacuum,
    vacuum_at_level,
    vacuum_line,
)
from anomlab.linalg import Polarization, matrix_exponential


def _space(modes, plus):
    return build_car(modes, Polarization(modes, plus))


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _random_anti_hermitian(rng, n, scale=0.5):
    m = _random_complex(rng, n)
    return scale * (m - m.conj().T) / 2


def _annihilation(space, u):
    """psi(u), the adjoint of psi*(u) (antilinear in u)."""
    return creation(space, u).conj().T


def _anticomm(a, b):
    return a @ b + b @ a


# Independent reconstruction of the mode operators: occupation subsets with
# explicit parity signs, no shared code with the package implementation.
def _brute_creator(mode, modes):
    dim = 2**modes
    out = np.zeros((dim, dim), dtype=np.complex128)
    for state in range(dim):
        occupied = {i for i in range(modes) if (state >> i) & 1}
        if mode in occupied:
            continue
        sign = (-1.0) ** sum(1 for i in occupied if i < mode)
        out[state | (1 << mode), state] = sign
    return out


def _brute_d_gamma(x, modes, plus):
    cs = [_brute_creator(i, modes) for i in range(modes)]
    total = np.zeros((2**modes, 2**modes), dtype=np.complex128)
    for i in range(modes):
        for j in range(modes):
            total += x[i, j] * cs[i] @ cs[j].conj().T
    sea = sum(x[i, i] for i in range(plus, modes))
    return total - sea * np.eye(2**modes)


@pytest.mark.parametrize("modes,plus", [(1, 0), (2, 1), (3, 1), (4, 2)])
def test_car_relations_exhaustive(modes, plus):
    space = _space(modes, plus)
    basis = np.eye(modes)
    cs = [creation(space, basis[i]) for i in range(modes)]
    eye = np.eye(space.dim)
    for i, j in itertools.product(range(modes), repeat=2):
        np.testing.assert_allclose(_anticomm(cs[i], cs[j]), 0, atol=1e-14)
        want = eye if i == j else 0 * eye
        np.testing.assert_allclose(
            _anticomm(cs[i], cs[j].conj().T), want, atol=1e-14
        )


def test_mixed_anticommutator_is_inner_product():
    rng = np.random.default_rng(401)
    space = _space(3, 1)
    for _ in range(10):
        u = _random_complex(rng, 3, 1).ravel()
        v = _random_complex(rng, 3, 1).ravel()
        lhs = _anticomm(_annihilation(space, u), creation(space, v))
        np.testing.assert_allclose(lhs, np.vdot(u, v) * np.eye(space.dim), atol=1e-12)


def test_vacuum_is_dirac_sea():
    space = _space(4, 2)
    vac = vacuum(space)
    assert vac[space.sea_mask] == 1.0
    assert np.sum(np.abs(vac)) == 1.0
    basis = np.eye(4)
    for j in range(2):  # empty plus modes are killed by annihilation
        np.testing.assert_allclose(_annihilation(space, basis[j]) @ vac, 0, atol=1e-14)
    for j in range(2, 4):  # filled minus modes are killed by creation
        np.testing.assert_allclose(creation(space, basis[j]) @ vac, 0, atol=1e-14)


def test_apply_creation_matches_matrix():
    rng = np.random.default_rng(402)
    space = _space(3, 2)
    v = _random_complex(rng, 3, 1).ravel()
    state = _random_complex(rng, space.dim, 1).ravel()
    np.testing.assert_allclose(
        apply_creation(space, v, state), creation(space, v) @ state, atol=1e-12
    )


def test_d_gamma_defining_properties():
    rng = np.random.default_rng(403)
    space = _space(3, 1)
    x = _random_complex(rng, 3)
    op = d_gamma(space, x).matrix
    vac = vacuum(space)
    np.testing.assert_allclose(np.vdot(vac, op @ vac), 0, atol=1e-12)
    for _ in range(5):
        v = _random_complex(rng, 3, 1).ravel()
        cv = creation(space, v)
        np.testing.assert_allclose(
            op @ cv - cv @ op, creation(space, x @ v), atol=1e-11
        )
    # adjoint passes through
    np.testing.assert_allclose(
        d_gamma(space, x.conj().T).matrix, op.conj().T, atol=1e-12
    )


def test_d_gamma_matches_brute_force():
    rng = np.random.default_rng(404)
    for modes, plus in ((2, 1), (3, 2), (4, 2)):
        space = _space(modes, plus)
        x = _random_complex(rng, modes)
        np.testing.assert_allclose(
            d_gamma(space, x).matrix, _brute_d_gamma(x, modes, plus), atol=1e-12
        )


@pytest.mark.parametrize("modes", range(1, 7))
def test_table_d_gamma_matches_brute_force_every_polarization(modes):
    rng = np.random.default_rng(420 + modes)
    for plus in range(modes + 1):
        x = _random_complex(rng, modes)
        np.testing.assert_allclose(
            d_gamma(_space(modes, plus), x).matrix,
            _brute_d_gamma(x, modes, plus),
            atol=1e-12,
        )


@pytest.mark.parametrize("modes", range(1, 7))
def test_schwinger_detail_matches_dense_defect(modes):
    rng = np.random.default_rng(430 + modes)
    for plus in range(modes + 1):
        x = _random_anti_hermitian(rng, modes)
        y = _random_anti_hermitian(rng, modes)
        dx = _brute_d_gamma(x, modes, plus)
        dy = _brute_d_gamma(y, modes, plus)
        defect = dx @ dy - dy @ dx - _brute_d_gamma(x @ y - y @ x, modes, plus)
        value = complex(np.trace(defect)) / 2**modes
        residue = np.linalg.norm(defect - value * np.eye(2**modes), "fro")
        detail = schwinger_detail(_space(modes, plus), x, y)
        np.testing.assert_allclose(detail["value"], value, atol=1e-10)
        assert abs(detail["residue"] - residue) < 1e-12


@pytest.mark.parametrize("modes", range(1, 6))
def test_sector_bogoliubov_matches_full_exponential(modes):
    rng = np.random.default_rng(440 + modes)
    for plus in range(modes + 1):
        x = _random_anti_hermitian(rng, modes, scale=1.0)
        full = scipy.linalg.expm(_brute_d_gamma(x, modes, plus))
        np.testing.assert_allclose(
            bogoliubov_implement(_space(modes, plus), x).matrix, full, atol=1e-10
        )


def test_flipped_hop_sign_fails_the_commutation_check():
    rng = np.random.default_rng(450)
    space = _space(4, 2)
    x = _random_complex(rng, 4)
    d_gamma(space, x)
    hops = np.setdiff1d(np.arange(space.hop_cols.size), space.hop_indptr[:-1])
    for k in rng.choice(hops, size=5, replace=False):
        signs = space.hop_signs.copy()
        signs[k] = -signs[k]
        broken = dataclasses.replace(space, hop_signs=signs)
        with pytest.raises(InternalConsistencyError, match="commutation defect"):
            d_gamma(broken, x)


# The sparse commutation check that the gathers replaced, kept as their
# oracle: [op, c_j*] - sum_i x_ij c_i* for all j from sparse products against
# the creator tables, in blocks of 512 rows; returns the largest entry.
def _sparse_commutation_defect(space, op, x):
    m, dim = space.modes, space.dim
    signs = space.creator_signs.ravel().astype(np.float64)
    rows, cols = space.creator_rows, space.creator_cols
    modes = np.arange(m, dtype=np.int32)[:, None]
    side = scipy.sparse.csr_matrix(
        (signs, (rows.ravel(), (cols + modes * dim).ravel())), shape=(dim, m * dim)
    )
    stack = scipy.sparse.csr_matrix(
        (signs, ((rows * m + modes).ravel(), cols.ravel())), shape=(m * dim, dim)
    )
    mode, col = np.divmod(side.indices, dim)
    target = scipy.sparse.csr_matrix(
        (
            (x[mode] * side.data[:, None]).ravel(),
            (col[:, None] + np.arange(m, dtype=np.int32) * dim).ravel(),
            side.indptr * m,
        ),
        shape=(dim, m * dim),
    )
    worst = 0.0
    for lo in range(0, dim, 512):
        hi = min(lo + 512, dim)
        right = stack[lo * m:hi * m] @ op
        offsets = np.repeat(np.arange((hi - lo) * m, dtype=np.int32) % m * dim, np.diff(right.indptr))
        right = scipy.sparse.csr_matrix(
            (right.data, offsets + right.indices, right.indptr[::m]), shape=(hi - lo, m * dim)
        )
        defect = op[lo:hi] @ side - right - target[lo:hi]
        if defect.nnz:
            worst = max(worst, float(np.max(np.abs(defect.data))))
    return worst


def _csr(space, data):
    return scipy.sparse.csr_matrix((data, space.hop_cols, space.hop_indptr), shape=(space.dim,) * 2)


@pytest.mark.parametrize("modes", range(1, 9))
def test_commutation_defect_matches_sparse_oracle(modes):
    rng = np.random.default_rng(460 + modes)
    for plus in range(modes + 1):
        space = _space(modes, plus)
        x = _random_complex(rng, modes)
        data = fock._d_gamma_csr(space, x).data
        noise = 1e-3 * _random_complex(rng, data.size, 1).ravel()
        # exact data, then noise on every entry, which makes every defect
        # entry nonzero, the hop-difference ones included
        for d in (data, data + noise):
            got = fock._commutation_defect(space, d, x)
            assert abs(got - _sparse_commutation_defect(space, _csr(space, d), x)) <= 1e-14


def _broken_space(case):
    space = _space(4, 2)
    start = space.hop_indptr[0b0011]  # its diagonal slot, then four hops
    if case == "swapped hop_cols":
        cols = space.hop_cols.copy()
        cols[[start + 1, start + 2]] = cols[[start + 2, start + 1]]
        return dataclasses.replace(space, hop_cols=cols)
    if case == "changed hop_pairs":
        pairs = space.hop_pairs.copy()
        pairs[start + 4] = (pairs[start + 4] + 1) % 16
        return dataclasses.replace(space, hop_pairs=pairs)
    occupation = space.occupation.copy()
    occupation[0b0110, 3] ^= 1
    return dataclasses.replace(space, occupation=occupation)


@pytest.mark.parametrize("case", ["swapped hop_cols", "changed hop_pairs", "flipped occupation"])
def test_broken_tables_fail_the_commutation_check(case):
    x = _random_complex(np.random.default_rng(451), 4)
    with pytest.raises(InternalConsistencyError, match="commutation defect"):
        d_gamma(_broken_space(case), x)


@pytest.mark.parametrize("modes", [4, 8])
def test_large_one_particle_operators_pass_and_faults_still_raise(modes):
    rng = np.random.default_rng(470 + modes)
    space = _space(modes, modes // 2)
    x = _random_complex(rng, modes)
    hops = np.setdiff1d(np.arange(space.hop_cols.size), space.hop_indptr[:-1])
    signs = space.hop_signs.copy()
    signs[rng.choice(hops)] *= -1
    broken = dataclasses.replace(space, hop_signs=signs)
    for scale in 10.0 ** np.arange(0, 13):
        np.testing.assert_allclose(d_gamma(space, scale * x).matrix / scale, d_gamma(space, x).matrix, atol=1e-12)
        with pytest.raises(InternalConsistencyError, match="commutation defect"):
            d_gamma(broken, scale * x)


def test_perturbed_diagonal_slot_fails_the_commutation_check():
    rng = np.random.default_rng(452)
    space = _space(4, 2)
    x = _random_complex(rng, 4)
    data = fock._d_gamma_csr(space, x).data
    fock._check_d_gamma(space, data, x)
    data[space.hop_indptr[0b0101]] += 1e-9
    with pytest.raises(InternalConsistencyError, match="commutation defect"):
        fock._check_d_gamma(space, data, x)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_overflow_raises_float_overflow_error(action):
    rng = np.random.default_rng(453)
    space = _space(4, 2)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    a, b = a - a.T, b - b.T
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(FloatOverflowError):
            schwinger_detail(space, 1e160 * a, 1e160 * b)
        # finite x whose diagonal slots overflow
        with pytest.raises(FloatOverflowError):
            d_gamma(space, np.diag([1e308, 1e308, -1e308, -1e308]))


def test_d_gamma_builds_one_sparse_matrix(monkeypatch):
    built = []
    init = scipy.sparse.csr_matrix.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__init__", counting)
    d_gamma(_space(4, 2), _random_complex(np.random.default_rng(454), 4))
    assert len(built) == 1


def test_import_loads_no_scipy():
    # scipy.sparse loads where fock builds its first compressed matrix, scipy.linalg in matrix_exponential
    code = (
        "import sys, anomlab\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(anomlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_schwinger_fixture_raising_lowering():
    # one plus and one minus mode; the raising/lowering pair gives exactly -1
    space = _space(2, 1)
    r = np.array([[0.0, 1.0], [0.0, 0.0]])
    l = r.T
    value = schwinger_term(space, r, l)
    np.testing.assert_allclose(value, -1.0, atol=1e-12)
    np.testing.assert_allclose(schwinger_term(space, l, r), 1.0, atol=1e-12)


def test_schwinger_matches_brute_force():
    rng = np.random.default_rng(405)
    for modes, plus in ((2, 1), (3, 1), (3, 2)):
        space = _space(modes, plus)
        x = _random_anti_hermitian(rng, modes)
        y = _random_anti_hermitian(rng, modes)
        dx = _brute_d_gamma(x, modes, plus)
        dy = _brute_d_gamma(y, modes, plus)
        dxy = _brute_d_gamma(x @ y - y @ x, modes, plus)
        defect = dx @ dy - dy @ dx - dxy
        oracle = complex(np.trace(defect)) / 2**modes
        np.testing.assert_allclose(schwinger_term(space, x, y), oracle, atol=1e-10)


def test_schwinger_quarter_trace_formula():
    # cross-check against (1/4) tr(eps [eps, x] [eps, y])
    rng = np.random.default_rng(406)
    for modes, plus in ((2, 1), (4, 2), (4, 3)):
        space = _space(modes, plus)
        eps = Polarization(modes, plus).epsilon
        x = _random_anti_hermitian(rng, modes)
        y = _random_anti_hermitian(rng, modes)
        formula = complex(
            np.trace(eps @ (eps @ x - x @ eps) @ (eps @ y - y @ eps))
        ) / 4
        np.testing.assert_allclose(schwinger_term(space, x, y), formula, atol=1e-10)


def test_schwinger_vanishes_on_block_diagonal():
    rng = np.random.default_rng(407)
    space = _space(4, 2)
    for _ in range(5):
        x = np.zeros((4, 4), dtype=np.complex128)
        y = np.zeros((4, 4), dtype=np.complex128)
        x[:2, :2] = _random_anti_hermitian(rng, 2)
        x[2:, 2:] = _random_anti_hermitian(rng, 2)
        y[:2, :2] = _random_anti_hermitian(rng, 2)
        y[2:, 2:] = _random_anti_hermitian(rng, 2)
        assert abs(schwinger_term(space, x, y)) < 1e-12


def test_schwinger_lie_cocycle_identity():
    # c([x,y],z) + c([y,z],x) + c([z,x],y) = 0
    rng = np.random.default_rng(408)
    space = _space(3, 1)
    for _ in range(5):
        x = _random_anti_hermitian(rng, 3)
        y = _random_anti_hermitian(rng, 3)
        z = _random_anti_hermitian(rng, 3)

        def comm(a, b):
            return a @ b - b @ a

        total = (
            schwinger_term(space, comm(x, y), z)
            + schwinger_term(space, comm(y, z), x)
            + schwinger_term(space, comm(z, x), y)
        )
        assert abs(total) < 1e-10


def test_schwinger_over_backgrounds():
    rng = np.random.default_rng(409)
    x = _random_anti_hermitian(rng, 3)
    y = _random_anti_hermitian(rng, 3)
    eps = np.diag([1.0, -1.0, -1.0])
    values = schwinger_over_backgrounds(x, y, [eps])
    direct = schwinger_term(_space(3, 1), x, y)
    np.testing.assert_allclose(values[0], direct, atol=1e-10)
    with pytest.raises(GapError):
        schwinger_over_backgrounds(x, y, [np.diag([1.0, 0.0, -1.0])])
    with pytest.raises(ShapeError):
        schwinger_over_backgrounds(x, y, [np.diag([1.0, -1.0])])
    # an eigenvalue 1e-8 from zero is within the margin, as it is from a level of vacuum_line
    with pytest.raises(GapError):
        schwinger_over_backgrounds(x, y, [np.diag([1e-8, 1.0, -1.0])])
    with pytest.raises(CoverMembershipError):
        vacuum_line(SpectralBackground(np.diag([1e-8, 1.0, -1.0])), 0.0, 2.0)
    assert len(schwinger_over_backgrounds(x, y, [np.diag([2e-8, 1.0, -1.0])])) == 1


def test_schwinger_window_identity_and_its_negative_control(monkeypatch):
    # c(h - l2) - c(h - l1) = Tr(Q [x, y]) over the window (l1, l2); a Q one
    # eigenvalue too wide must break it
    rng = np.random.default_rng(413)
    q, _ = np.linalg.qr(_random_complex(rng, 5))
    bg = SpectralBackground(q @ np.diag([-2.0, -1.0, 0.5, 1.0, 2.0]) @ q.conj().T)
    x = _random_anti_hermitian(rng, 5, 1.0)
    y = _random_anti_hermitian(rng, 5, 1.0)
    levels = [-1.5, 0.75]
    assert suites._window_gap(bg, levels, x, y) < 1e-13
    monkeypatch.setattr(suites, "vacuum_line", lambda b, lo, hi: vacuum_line(b, lo, 1.5))
    assert suites._window_gap(bg, levels, x, y) > 1e-3


def test_bogoliubov_conjugation():
    rng = np.random.default_rng(410)
    space = _space(3, 1)
    for _ in range(5):
        x = _random_anti_hermitian(rng, 3)
        big = bogoliubov_implement(space, x).matrix
        big_inv = big.conj().T  # unitary since the generator is anti-Hermitian
        np.testing.assert_allclose(big @ big_inv, np.eye(space.dim), atol=1e-10)
        small = matrix_exponential(x)
        v = _random_complex(rng, 3, 1).ravel()
        lhs = big @ creation(space, v) @ big_inv
        np.testing.assert_allclose(lhs, creation(space, small @ v), atol=1e-9)


def test_bogoliubov_rejects_non_anti_hermitian():
    space = _space(2, 1)
    with pytest.raises(SymmetryError):
        bogoliubov_implement(space, np.eye(2))


def test_window_dimension_and_lines():
    bg = SpectralBackground(np.diag([-2.0, -1.0, 1.0, 2.0]))
    for lo, hi, dim in ((-3.0, 0.0, 2), (0.0, 3.0, 2), (-3.0, 3.0, 4), (1.5, 1.7, 0)):
        assert vacuum_line(bg, lo, hi).frame.shape == (4, dim)
    with pytest.raises(DomainError):
        vacuum_line(bg, 1.0 + 2e-9, 0.0)
    with pytest.raises(CoverMembershipError):
        vacuum_line(bg, -1.0, 3.0)


def test_gerbe_triple_check_diagonal_and_random():
    bg = SpectralBackground(np.diag([-2.0, -1.0, 1.0, 2.0]))
    # identical eigenbases on both routes: witness is exactly 1
    np.testing.assert_allclose(gerbe_triple_check(bg, -3.0, 0.0, 3.0), 1.0, atol=1e-12)
    rng = np.random.default_rng(412)
    for _ in range(10):
        m = _random_complex(rng, 5)
        h = SpectralBackground(m + m.conj().T)
        w, _ = h.eigensystem()
        l1, l3 = w[0] - 1.0, w[-1] + 1.0
        l2 = 0.5 * (w[1] + w[2])
        witness = gerbe_triple_check(h, l1, l2, l3)
        assert abs(abs(witness) - 1.0) < 1e-10
    with pytest.raises(DomainError):
        gerbe_triple_check(bg, 0.0, 0.0, 3.0)


def test_vacuum_at_level_diagonal_background():
    space = _space(3, 1)
    bg = SpectralBackground(np.diag([-1.0, 0.5, 2.0]))
    # nothing below -2: the totally empty state
    empty = vacuum_at_level(space, bg, -2.0)
    assert abs(empty[0]) == pytest.approx(1.0)
    # below 1.0: modes 0 and 1 filled
    two = vacuum_at_level(space, bg, 1.0)
    assert abs(two[0b011]) == pytest.approx(1.0)
    with pytest.raises(CoverMembershipError):
        vacuum_at_level(space, bg, 0.5)
    with pytest.raises(ShapeError):
        vacuum_at_level(space, SpectralBackground(np.diag([1.0, -1.0])), 0.0)


def test_filling_between_levels_has_unit_overlap():
    rng = np.random.default_rng(413)
    for _ in range(5):
        m = _random_complex(rng, 4)
        bg = SpectralBackground(m + m.conj().T)
        w, v = bg.eigensystem()
        space = _space(4, 2)
        lo = 0.5 * (w[0] + w[1])
        hi = 0.5 * (w[2] + w[3])
        low_vac = vacuum_at_level(space, bg, lo)
        high_vac = vacuum_at_level(space, bg, hi)
        filled = low_vac
        for i in reversed(range(1, 3)):  # modes strictly between lo and hi
            filled = apply_creation(space, v[:, i], filled)
        assert abs(np.vdot(high_vac, filled)) == pytest.approx(1.0, abs=1e-9)


def test_build_car_input_validation():
    with pytest.raises(SizeError):
        build_car(0, Polarization(1, 0))
    with pytest.raises(SizeError):
        build_car(13, Polarization(13, 6))
    with pytest.raises(SizeError):
        build_car(2.5, Polarization(2, 1))
    with pytest.raises(ShapeError):
        build_car(3, Polarization(2, 1))
    space = _space(2, 1)
    with pytest.raises(ShapeError):
        creation(space, np.ones(3))
    with pytest.raises(ShapeError):
        d_gamma(space, np.eye(3))


@pytest.mark.parametrize("modes, scale", [(4, 1e3), (8, 1e3), (4, 1e6), (8, 1e9)])
def test_schwinger_detail_accepts_scaled_input(modes, scale):
    # valid input whose rounding residue passes the former absolute bound of 1e-9
    rng = np.random.default_rng(5)
    x, y = _random_anti_hermitian(rng, modes, 1.0), _random_anti_hermitian(rng, modes, 1.0)
    space = _space(modes, modes // 2)
    detail = schwinger_detail(space, scale * x, scale * y)
    np.testing.assert_allclose(detail["value"], scale**2 * schwinger_term(space, x, y), rtol=1e-9)
    assert detail["residue"] > 1e-9  # reported raw, not net of the allowance


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_schwinger_detail_rejects_a_defect_moved_off_scalar(monkeypatch, scale):
    rng = np.random.default_rng(6)
    x, y = _random_anti_hermitian(rng, 4, scale), _random_anti_hermitian(rng, 4, scale)
    space = _space(4, 2)
    built = []
    csr = fock._d_gamma_csr

    def moved(space, z):
        op = csr(space, z)
        built.append(op)
        if len(built) == 3:  # d_gamma([x, y]): move one diagonal entry by 100 allowances
            norms = np.linalg.norm(built[0].data) * np.linalg.norm(built[1].data)
            allowance = 1e-9 + 25 * np.finfo(float).eps * norms
            op = op + scipy.sparse.csr_matrix(([100 * allowance], ([0], [0])), shape=op.shape)
        return op

    monkeypatch.setattr(fock, "_d_gamma_csr", moved)
    with pytest.raises(InternalConsistencyError, match="not scalar"):
        schwinger_detail(space, x, y)
