"""Closed-form frames for ruled graphs, vertical planes, and swapped graphs."""

import math

import numpy as np
import pytest

from hperim.graphs import AlphaBetaGraph, SwappedGraph, VerticalPlane

CLOSED_TOL = 1e-12

PAIRS = [(1.0, 0.0), (2.0, 1.0), (0.5, -3.0), (3.0, 0.25)]


def sample_yt(rng, n=200, lo=-3.0, hi=3.0):
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


# ---------------------------------------------------------------------------
# ruled graphs x = y (alpha t + beta)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_closed_frame_matches_generic(alpha, beta):
    graph = AlphaBetaGraph(alpha, beta)
    rng = np.random.default_rng(int(10 * alpha + 3))
    y, t = sample_yt(rng)
    x = y * graph.slope(t)
    fd = graph.surface.frame_data(x, y, t)
    for yi, ti in zip(y[:50], t[:50]):
        fr = graph.closed_frame(yi, ti)
        i = np.flatnonzero((y == yi) & (t == ti))[0]
        assert math.isclose(fr.p, float(fd.p[i]), rel_tol=CLOSED_TOL, abs_tol=CLOSED_TOL)
        assert math.isclose(fr.q, float(fd.q[i]), rel_tol=CLOSED_TOL, abs_tol=CLOSED_TOL)
        assert math.isclose(fr.omega, float(fd.omega[i]), rel_tol=CLOSED_TOL, abs_tol=CLOSED_TOL)
        assert math.isclose(fr.W, float(fd.W[i]), rel_tol=CLOSED_TOL)


def test_w_value_agrees_with_frame():
    graph = AlphaBetaGraph(2.0, 1.0)
    rng = np.random.default_rng(7)
    y, t = sample_yt(rng, 64)
    w = graph.w_value(y, t)
    fd = graph.surface.frame_data(y * graph.slope(t), y, t)
    assert np.allclose(w, fd.W, rtol=CLOSED_TOL)


def test_quadratic_form_coefficients_at_reference_points():
    # x1 direction: -2 alpha / (W^2 (1 + s^2)) with s = alpha t + beta
    g = AlphaBetaGraph(1.0, 0.0)
    assert math.isclose(g.coefficient_x1(0.0, 0.0), -2.0, rel_tol=CLOSED_TOL)
    # at (y, t) = (0, 1): W^2 = 1 + s^2 = 2 so the factor is -2/4
    assert math.isclose(g.coefficient_x1(0.0, 1.0), -0.5, rel_tol=CLOSED_TOL)
    # nu direction for alpha=2, beta=1 at (1, 0): W^2 = (1 + 1)^2 (1 + 1) = 8
    h = AlphaBetaGraph(2.0, 1.0)
    assert math.isclose(h.coefficient_nu(1.0, 0.0), -0.5, rel_tol=CLOSED_TOL)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_coefficients_match_generic_route(alpha, beta):
    """Closed coefficients equal the frame-data assembly at random points."""
    graph = AlphaBetaGraph(alpha, beta)
    rng = np.random.default_rng(int(41 * alpha))
    y, t = sample_yt(rng, 64, -2.0, 2.0)
    x = y * graph.slope(t)
    fd = graph.surface.frame_data(x, y, t)
    assert np.allclose(graph.coefficient_x1(y, t), fd.reduced_x1, atol=1e-10)
    assert np.allclose(graph.coefficient_nu(y, t), fd.reduced_nu, atol=1e-10)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_intermediate_forms_match_jets(alpha, beta):
    graph = AlphaBetaGraph(alpha, beta)
    rng = np.random.default_rng(int(100 * alpha + 5))
    y, t = sample_yt(rng, 32, -2.0, 2.0)
    x = y * graph.slope(t)
    fd = graph.surface.frame_data(x, y, t)
    zt = fd.z_of(fd.grad_omega)
    zw = fd.z_of(fd.grad_W)
    ypb, yqb = fd.y_of(fd.grad_pbar), fd.y_of(fd.grad_qbar)
    tpb, tqb = fd.t_of(fd.grad_pbar), fd.t_of(fd.grad_qbar)
    for i in range(32):
        forms = graph.intermediate_forms(float(y[i]), float(t[i]))
        assert math.isclose(forms.z_t_phi, float(zt[i]), abs_tol=CLOSED_TOL)
        assert math.isclose(forms.z_w, float(zw[i]), abs_tol=CLOSED_TOL)
        assert math.isclose(forms.z_obar, float(fd.z_obar[i]), abs_tol=CLOSED_TOL)
        assert math.isclose(forms.y_pbar, float(ypb[i]), abs_tol=CLOSED_TOL)
        assert math.isclose(forms.y_qbar, float(yqb[i]), abs_tol=CLOSED_TOL)
        assert forms.y_pbar == 0.0 and forms.y_qbar == 0.0
        assert math.isclose(forms.t_pbar, float(tpb[i]), abs_tol=CLOSED_TOL)
        assert math.isclose(forms.t_qbar, float(tqb[i]), abs_tol=CLOSED_TOL)


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (0.5, -3.0)])
def test_graphs_are_minimal(alpha, beta):
    graph = AlphaBetaGraph(alpha, beta)
    y, t = np.meshgrid(np.linspace(-5, 5, 50), np.linspace(-5, 5, 50))
    fd = graph.surface.frame_data(y * graph.slope(t), y, t)
    assert np.max(np.abs(fd.mean_curvature)) < 1e-9


def test_graph_parameter_validation():
    with pytest.raises(ValueError):
        AlphaBetaGraph(0.0, 1.0)
    with pytest.raises(ValueError):
        AlphaBetaGraph(-1.0, 0.0)


def test_graph_patch_sits_on_surface():
    graph = AlphaBetaGraph(1.5, -0.5)
    patch = graph.patch((-2.0, 2.0), (-1.0, 1.0))
    assert patch.max_defining_residual(graph.surface, n=9) < 1e-12
    assert patch.transversal == "x"


def test_chart_point_round_trip():
    graph = AlphaBetaGraph(2.0, 1.0)
    cx, cy, ct = graph.patch((-1.0, 1.0), (-1.0, 1.0)).chart_jets(0.5, -0.25)
    assert math.isclose(float(cx.val), 0.5 * (2.0 * -0.25 + 1.0))
    assert math.isclose(float(cy.val), 0.5)
    assert math.isclose(float(ct.val), -0.25)


# ---------------------------------------------------------------------------
# vertical planes a x + b y = c


def test_vertical_plane_closed_frame():
    plane = VerticalPlane(3.0, 4.0, 2.0)
    fr = plane.closed_frame()
    assert math.isclose(fr.p, 3.0, abs_tol=CLOSED_TOL)
    assert math.isclose(fr.q, 4.0, abs_tol=CLOSED_TOL)
    assert math.isclose(fr.omega, 0.0, abs_tol=CLOSED_TOL)
    assert math.isclose(fr.W, 5.0, abs_tol=CLOSED_TOL)


def test_vertical_plane_matches_generic_and_is_flat():
    plane = VerticalPlane(3.0, 4.0, 2.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(-2, 2, 32)
    v = rng.uniform(-2, 2, 32)
    x = (2.0 - 4.0 * u) / 3.0
    fd = plane.surface.frame_data(x, u, v)
    fr = plane.closed_frame()
    assert np.allclose(fd.p, fr.p, atol=CLOSED_TOL)
    assert np.allclose(fd.q, fr.q, atol=CLOSED_TOL)
    assert np.allclose(fd.omega, fr.omega, atol=CLOSED_TOL)
    assert np.allclose(fd.mean_curvature, 0.0, atol=CLOSED_TOL)


def test_vertical_plane_y_graph_branch():
    # a = 0 forces the chart to solve for y instead of x
    plane = VerticalPlane(0.0, 2.0, 1.0)
    patch = plane.patch((-1.0, 1.0), (-1.0, 1.0))
    assert patch.transversal == "y"
    assert patch.max_defining_residual(plane.surface, n=5) < 1e-12


def test_vertical_plane_rejects_zero_normal():
    with pytest.raises(ValueError):
        VerticalPlane(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# swapped graphs y = x (alpha t + beta), alpha < 0


def test_swapped_graph_requires_negative_alpha():
    with pytest.raises(ValueError):
        SwappedGraph(1.0, 0.0)
    with pytest.raises(ValueError):
        SwappedGraph(0.0, 0.0)


@pytest.mark.parametrize("alpha,beta", [(-1.0, 0.0), (-2.0, 1.0), (-0.5, -3.0)])
def test_swapped_closed_frame_matches_generic(alpha, beta):
    graph = SwappedGraph(alpha, beta)
    rng = np.random.default_rng(int(-7 * alpha))
    x = rng.uniform(-2, 2, 64)
    t = rng.uniform(-2, 2, 64)
    y = x * (alpha * t + beta)
    fd = graph.surface.frame_data(x, y, t)
    for i in range(0, 64, 8):
        fr = graph.closed_frame(float(x[i]), float(t[i]))
        assert math.isclose(fr.p, float(fd.p[i]), rel_tol=CLOSED_TOL, abs_tol=CLOSED_TOL)
        assert math.isclose(fr.q, float(fd.q[i]), rel_tol=CLOSED_TOL, abs_tol=CLOSED_TOL)
        assert math.isclose(fr.omega, float(fd.omega[i]), rel_tol=CLOSED_TOL, abs_tol=CLOSED_TOL)
        assert math.isclose(fr.W, float(fd.W[i]), rel_tol=CLOSED_TOL)


def test_swapped_graph_is_minimal():
    graph = SwappedGraph(-1.0, 0.5)
    x, t = np.meshgrid(np.linspace(-4, 4, 40), np.linspace(-4, 4, 40))
    fd = graph.surface.frame_data(x, x * (-1.0 * t + 0.5), t)
    assert np.max(np.abs(fd.mean_curvature)) < 1e-9


def test_swapped_patch_sits_on_surface():
    graph = SwappedGraph(-2.0, 1.0)
    patch = graph.patch((-1.0, 1.0), (-1.0, 1.0))
    assert patch.transversal == "y"
    assert patch.max_defining_residual(graph.surface, n=7) < 1e-12
