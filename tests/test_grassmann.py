"""Frames over a polarization and the order-p determinant line."""

import numpy as np
import pytest

from anomlab.errors import (
    ChartSingularityError,
    FrameError,
    ShapeError,
    SingularTransformError,
)
from anomlab.grassmann import (
    DetLineElement,
    Frame,
    alpha_ratio,
    canonical_section,
    detline_act,
    frame_act,
    frame_projector,
    standard_frame,
    w_plus,
)
from anomlab.linalg import Polarization
from anomlab.regdet import omega_p


def _near_standard(rng, pol, spread=0.3):
    m = standard_frame(pol).matrix.copy()
    m += spread * (
        rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    )
    return Frame(pol, m)


def _same_plane(w1, w2):
    """Whether two frames span the same plane: equal polarizations and projectors within 1e-10."""
    return w1.pol == w2.pol and bool(np.max(np.abs(frame_projector(w1) - frame_projector(w2))) <= 1e-10)


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
    proj = frame_projector(w)
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
