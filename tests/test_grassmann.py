"""Frames over a polarization and the order-p determinant line."""

import numpy as np
import pytest

from anomlab.errors import (
    ChartSingularityError,
    DomainError,
    FloatOverflowError,
    FrameError,
    InvalidOrderError,
    ShapeError,
    SingularDeterminantError,
    SingularTransformError,
)
from anomlab.grassmann import (
    DetLineElement,
    Frame,
    alpha_ratio,
    canonical_section,
    detline_act,
    frame_act,
    standard_frame,
    w_plus,
)
from anomlab.linalg import Polarization
from anomlab.regdet import det_p, omega_p


def _near_standard(rng, pol, spread=0.3):
    m = standard_frame(pol).matrix.copy()
    m += spread * (
        rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    )
    return Frame(pol, m)


def _projector(w):
    """Orthogonal projector onto the plane spanned by the frame (via QR)."""
    q, _ = np.linalg.qr(w.matrix)
    return q @ q.conj().T


def _same_plane(w1, w2):
    """Whether two frames span the same plane: equal polarizations and projectors within 1e-10."""
    return w1.pol == w2.pol and bool(np.max(np.abs(_projector(w1) - _projector(w2))) <= 1e-10)


def _invertible(rng, k, spread=0.3):
    return np.eye(k) + spread * (
        rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    )


def test_frame_shape_and_rank_validation():
    pol = Polarization(dim=4, plus_dim=2)
    with pytest.raises(ShapeError):
        Frame(pol, np.ones((4, 3)))
    rank_deficient = np.zeros((4, 2))
    rank_deficient[0, 0] = 1.0
    rank_deficient[0, 1] = 1.0
    with pytest.raises(FrameError):
        Frame(pol, rank_deficient)


def test_standard_frame_properties():
    pol = Polarization(dim=5, plus_dim=2)
    w = standard_frame(pol)
    np.testing.assert_allclose(w_plus(w), np.eye(2))
    np.testing.assert_allclose(canonical_section(w, 2), 1.0)


def test_frame_act_composes():
    rng = np.random.default_rng(202)
    pol = Polarization(dim=5, plus_dim=3)
    w = _near_standard(rng, pol)
    t1 = _invertible(rng, 3)
    t2 = _invertible(rng, 3)
    two_step = frame_act(frame_act(w, t1), t2)
    one_step = frame_act(w, t1 @ t2)
    np.testing.assert_allclose(two_step.matrix, one_step.matrix, atol=1e-12)


def test_frame_act_rejects_bad_transforms():
    pol = Polarization(dim=3, plus_dim=2)
    w = standard_frame(pol)
    with pytest.raises(SingularTransformError):
        frame_act(w, np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        frame_act(w, np.eye(3))


def test_same_plane_under_translation():
    rng = np.random.default_rng(203)
    pol = Polarization(dim=4, plus_dim=2)
    w = _near_standard(rng, pol)
    t = _invertible(rng, 2)
    assert _same_plane(w, frame_act(w, t))
    other = _near_standard(rng, pol, spread=0.9)
    assert not _same_plane(w, other)
    proj = _projector(w)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_canonical_section_equivariance(p):
    rng = np.random.default_rng(300 + p)
    pol = Polarization(dim=5, plus_dim=2)
    for _ in range(10):
        w = _near_standard(rng, pol)
        t = _invertible(rng, 2)
        moved = frame_act(w, t)
        factor = omega_p(w_plus(w) - np.eye(2), t - np.eye(2), p)
        np.testing.assert_allclose(
            canonical_section(moved, p), canonical_section(w, p) * factor, rtol=1e-10
        )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_line_action_associative(p):
    rng = np.random.default_rng(310 + p)
    pol = Polarization(dim=4, plus_dim=2)
    for _ in range(10):
        el = DetLineElement(_near_standard(rng, pol), complex(1.3, -0.4))
        t1 = _invertible(rng, 2)
        t2 = _invertible(rng, 2)
        two_step = detline_act(detline_act(el, t1, p), t2, p)
        one_step = detline_act(el, t1 @ t2, p)
        np.testing.assert_allclose(two_step.coeff, one_step.coeff, rtol=1e-10)
        np.testing.assert_allclose(
            two_step.frame.matrix, one_step.frame.matrix, atol=1e-12
        )


def test_line_pairing_invariant():
    # c * psi(w) does not move under the right translation
    rng = np.random.default_rng(204)
    pol = Polarization(dim=4, plus_dim=2)
    for p in (1, 2, 3):
        el = DetLineElement(_near_standard(rng, pol), complex(0.7, 0.2))
        t = _invertible(rng, 2)
        moved = detline_act(el, t, p)
        before = el.coeff * canonical_section(el.frame, p)
        after = moved.coeff * canonical_section(moved.frame, p)
        np.testing.assert_allclose(after, before, rtol=1e-10)


def test_chart_singularity_raises():
    pol = Polarization(dim=3, plus_dim=2)
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    w = Frame(pol, m)
    with pytest.raises(ChartSingularityError):
        canonical_section(w, 2)
    with pytest.raises(ChartSingularityError):
        detline_act(DetLineElement(w, 1.0), np.eye(2), 2)


@pytest.mark.parametrize(
    "coeff, error",
    [
        ("1", ShapeError),
        (None, ShapeError),
        (True, ShapeError),
        (float("nan"), DomainError),
        (complex(1.0, float("inf")), DomainError),
    ],
)
def test_line_coefficient_is_a_finite_complex_number(coeff, error):
    w = standard_frame(Polarization(3, 2))
    with pytest.raises(error) as info:
        DetLineElement(w, coeff)
    assert type(info.value) is error
    assert DetLineElement(w, 2).coeff == 2 + 0j


def test_alpha_ratio_trivial_cases():
    rng = np.random.default_rng(205)
    pol = Polarization(dim=4, plus_dim=2)
    w = _near_standard(rng, pol)
    t = _invertible(rng, 2)
    # identity chart change sees the same omega factor in both charts
    one = alpha_ratio(np.eye(4), np.eye(2), w, t, 2)
    np.testing.assert_allclose(one, 1.0, rtol=1e-12)
    # trivial translation gives omega = 1 upstairs and downstairs
    g = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        alpha_ratio(g, _invertible(rng, 2), w, np.eye(2), 2), 1.0, rtol=1e-10
    )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_alpha_ratio_multiplicative(p):
    rng = np.random.default_rng(320 + p)
    pol = Polarization(dim=4, plus_dim=2)
    for _ in range(10):
        w = _near_standard(rng, pol, spread=0.2)
        g = np.eye(4) + 0.2 * (
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        q = _invertible(rng, 2, spread=0.2)
        t1 = _invertible(rng, 2, spread=0.2)
        t2 = _invertible(rng, 2, spread=0.2)
        combined = alpha_ratio(g, q, w, t1 @ t2, p)
        split = alpha_ratio(g, q, w, t1, p) * alpha_ratio(g, q, frame_act(w, t1), t2, p)
        np.testing.assert_allclose(combined, split, rtol=1e-9)


def test_alpha_ratio_error_paths():
    pol = Polarization(dim=2, plus_dim=1)
    w = standard_frame(pol)
    t = np.array([[1.2]])
    with pytest.raises(SingularTransformError):
        alpha_ratio(np.eye(2), np.zeros((1, 1)), w, t, 2)
    with pytest.raises(ShapeError):
        alpha_ratio(np.eye(3), np.eye(1), w, t, 2)
    with pytest.raises(ShapeError):
        alpha_ratio(np.eye(2), np.eye(2), w, t, 2)
    # swap moves the plane onto the minus axis, out of the chart
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ChartSingularityError):
        alpha_ratio(swap, np.eye(1), w, t, 2)


@pytest.mark.parametrize("t", [np.zeros((2, 2)), np.diag([1.0, 1e-200])])
def test_alpha_ratio_rejects_singular_t(t):
    # a singular t makes both omega factors vanish, so their ratio is 0 / 0;
    # it is gated as in frame_act
    w = standard_frame(Polarization(3, 2))
    for p in (1, 2, 3):
        with pytest.raises(SingularTransformError):
            alpha_ratio(np.eye(3), np.eye(2), w, t, p)
    with pytest.raises(SingularTransformError):
        frame_act(w, t)


def _frames_and_transforms(seed):
    """Seeded (w, t, g, q, p) over n = 2..6, every plus dimension, and p = 1..4."""
    rng = np.random.default_rng(seed)
    for n in range(2, 7):
        for k in range(1, n):
            pol = Polarization(n, k)
            for p in range(1, 5):
                g = np.eye(n) + 0.2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                yield _near_standard(rng, pol), _invertible(rng, k), g, _invertible(rng, k, 0.2), p


def test_line_layer_matches_the_public_kernels():
    # the layer factors w_plus and t once and calls the regdet kernels on
    # them; the public det_p and omega_p form 1 + A again from A
    for w, t, g, q, p in _frames_and_transforms(330):
        k = w.pol.plus_dim
        one = np.eye(k)
        wp = w_plus(w)
        el = DetLineElement(w, complex(0.6, -0.8))
        np.testing.assert_allclose(detline_act(el, t, p).coeff, el.coeff / omega_p(wp - one, t - one, p), rtol=1e-12)
        np.testing.assert_allclose(canonical_section(w, p), det_p(wp - one, p).value, rtol=1e-12)
        q_inv = np.linalg.inv(q)
        moved = (g @ w.matrix @ q_inv)[:k]
        ratio = omega_p(wp - one, t - one, p) / omega_p(moved - one, q @ t @ q_inv - one, p)
        np.testing.assert_allclose(alpha_ratio(g, q, w, t, p), ratio, rtol=1e-12)


# a frame whose plus block is singular, and transforms that fail one gate each
SINGULAR_CHART = Frame(Polarization(3, 2), np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
STANDARD = standard_frame(Polarization(3, 2))
WRONG_SHAPE = np.zeros((3, 3))
# passes the transform gate (|det| = 1e-11) but not the rank gate of the translated frame
FLAT = np.diag([1.0, 1e-11])
# w_plus = 100: |det| = 1e4 passes the chart, but det_2(w_plus) = 1e4 exp(-198) is below 1e-12
STEEP = Frame(Polarization(3, 2), np.array([[100.0, 0.0], [0.0, 100.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "frame, t, p, error",
    [
        (SINGULAR_CHART, WRONG_SHAPE, 2, ChartSingularityError),
        (STANDARD, WRONG_SHAPE, 0, ShapeError),
        (STANDARD, np.zeros((2, 2)), 0, SingularTransformError),
        (STANDARD, FLAT, 0, FrameError),
        (STEEP, np.eye(2), 0, InvalidOrderError),
        (STEEP, np.eye(2), 2, SingularDeterminantError),
    ],
)
def test_detline_act_gate_order(frame, t, p, error):
    # chart, shape of t, singular t, frame gates, order p, omega_p gates
    with pytest.raises(error):
        detline_act(DetLineElement(frame, 1.0), t, p)


@pytest.mark.parametrize(
    "g, q, w, t, p, error, message",
    [
        (np.eye(2), np.zeros((2, 2)), STANDARD, np.eye(2), 2, ShapeError, "ambient"),
        (np.eye(3), np.zeros((2, 2)), STANDARD, WRONG_SHAPE, 2, ShapeError, "column transform t"),
        (np.eye(3), np.zeros((2, 2)), STANDARD, np.zeros((2, 2)), 2, SingularTransformError, "q is"),
        (np.eye(3), np.eye(2), SINGULAR_CHART, np.zeros((2, 2)), 2, SingularTransformError, "t is"),
        (np.eye(3), np.eye(2), SINGULAR_CHART, np.eye(2), 0, ChartSingularityError, "w_plus"),
        (np.diag([1.0, 0.0, 1.0]), np.eye(2), STANDARD, np.eye(2), 0, ChartSingularityError, "g w q"),
        (np.eye(3), np.eye(2), STANDARD, np.eye(2), 0, InvalidOrderError, "order"),
    ],
)
def test_alpha_ratio_gate_order(g, q, w, t, p, error, message):
    # shapes of g, q and t; singular q, then t; the two charts; the order p
    with pytest.raises(error, match=message):
        alpha_ratio(g, q, w, t, p)


@pytest.mark.parametrize("small, passes", [(1e-12, False), (1.01e-12, True)])
def test_singular_gates_sit_at_1e_12(small, passes):
    # |det| = small on each gated block; p = 1, so that no trace term moves det_p
    block = np.diag([1.0, small])
    tilted = Frame(Polarization(3, 2), np.array([[1.0, 0.0], [0.0, small], [0.0, 1.0]]))
    squeeze = np.diag([1.0, small, 1.0])  # (g w)_plus = block on the standard frame
    gates = [
        (lambda: canonical_section(tilted, 1), ChartSingularityError),
        (lambda: detline_act(DetLineElement(tilted, 1.0), np.eye(2), 1).coeff, ChartSingularityError),
        (lambda: alpha_ratio(squeeze, np.eye(2), STANDARD, np.eye(2), 1), ChartSingularityError),
        (lambda: alpha_ratio(np.eye(3), block, STANDARD, np.eye(2), 1), SingularTransformError),
        (lambda: alpha_ratio(np.eye(3), np.eye(2), STANDARD, block, 1), SingularTransformError),
    ]
    for call, error in gates:
        if passes:
            assert np.isfinite(call())
        else:
            with pytest.raises(error):
                call()
    # past the transform gate, the translated frame fails its rank gate instead
    with pytest.raises(FrameError if passes else SingularTransformError):
        frame_act(STANDARD, block)
    with pytest.raises(FrameError if passes else SingularTransformError):
        detline_act(DetLineElement(STANDARD, 1.0), block, 1)


def test_overflowing_translation_is_a_typed_error():
    # w t has the entry 1e308 + 1e308 in its last row; the chart and the
    # transform gate read finite LU logs, so no det or matmul warning escapes
    w = Frame(Polarization(3, 2), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    t = np.array([[1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(FloatOverflowError):
        frame_act(w, t)
    with pytest.raises(FloatOverflowError):
        detline_act(DetLineElement(w, 1.0), t, 2)


def test_alpha_ratio_on_a_huge_chart_change_raises_no_warning():
    # |det (g w)_plus| = 1e600 overflows a plain determinant, not its LU log
    g = 1e300 * np.eye(3)
    t = np.array([[1.1, 0.2], [0.0, 0.9]])
    np.testing.assert_allclose(alpha_ratio(g, np.eye(2), STANDARD, t, 1), 1.0, rtol=1e-12)
    # A = (g w)_plus - 1 has Tr A = 2e300 - 2, so det_2(1 + A) = 1e600 exp(-Tr A)
    # vanishes, and Tr(A^2) = 2e600 overflows
    with pytest.raises(SingularDeterminantError):
        alpha_ratio(g, np.eye(2), STANDARD, t, 2)
    with pytest.raises(FloatOverflowError):
        alpha_ratio(g, np.eye(2), STANDARD, t, 3)


# on the shear chart change, (g w q^-1)_plus - 1 = [[-1e6, 1000], [-1000, 0]], so for
# t = [[1, 0], [s, 1]] (which q t q^-1 equals) the lower omega_2 alone is exp(-1000 s)
SHEAR_G = np.array([[1.0, 1000.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
SHEAR_Q = np.array([[1.0, 0.0], [1000.0, 1.0]])


def test_alpha_ratio_takes_the_quotient_of_logs():
    # lower omega_2 underflows to 0: the ratio, exp(1000), is a typed overflow
    with pytest.raises(FloatOverflowError, match="its log is 1000"):
        alpha_ratio(SHEAR_G, SHEAR_Q, STANDARD, np.array([[1.0, 0.0], [1.0, 1.0]]), 2)
    # lower omega_2 overflows alone; the ratio exp(-1000) underflows to 0
    assert alpha_ratio(SHEAR_G, SHEAR_Q, STANDARD, np.array([[1.0, 0.0], [-1.0, 1.0]]), 2) == 0


def test_detline_act_takes_the_quotient_of_logs():
    # omega_2 = 101 exp(-1100) underflows, so 1 / omega_2 is a typed overflow, not a division by 0
    w = Frame(Polarization(3, 2), np.array([[11.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    t = np.diag([101.0, 1.0])
    with pytest.raises(FloatOverflowError, match=r"its log is 1095\.38"):
        detline_act(DetLineElement(w, 1.0), t, 2)
    # a zero coefficient stays zero
    assert detline_act(DetLineElement(w, 0.0), t, 2).coeff == 0
