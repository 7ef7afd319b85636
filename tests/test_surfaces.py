"""Level-set frames, tangential operators, and surface-measure integration."""

import math

import numpy as np
import pytest
import sympy as sp

from hperim.core import ScalarField, jet_cos, jet_exp, jet_sin
from hperim.graphs import AlphaBetaGraph
from hperim.surfaces import (
    CharacteristicPointError,
    ChartDegenerateError,
    LevelSurface,
    SurfacePatch,
    h_perimeter_integral,
    integrate_on_surface,
)

FRAME_TOL = 1e-12


def cylinder_surface():
    return LevelSurface(ScalarField(lambda x, y, t: x * x + y * y - 1.0, 3))


def cylinder_patch(s0, s1, t0=0.0, t1=1.0):
    return SurfacePatch(
        chart=lambda a, b: (jet_cos(a), jet_sin(a), b),
        box=(s0, s1, t0, t1),
        transversal="y",
    )


def unit_term(fd):
    return 1.0 + 0.0 * fd.p


# ---------------------------------------------------------------------------
# frames


def test_frame_on_ruled_graph_example():
    # x = y t at (y, t) = (1, 1): p = 3/2, q = -3/2, omega = -1, W = 3/sqrt(2)
    surface = AlphaBetaGraph(1.0, 0.0).surface
    fd = surface.frame_data(1.0, 1.0, 1.0)
    assert math.isclose(float(fd.p), 1.5, abs_tol=FRAME_TOL)
    assert math.isclose(float(fd.q), -1.5, abs_tol=FRAME_TOL)
    assert math.isclose(float(fd.omega), -1.0, abs_tol=FRAME_TOL)
    assert math.isclose(float(fd.W), 1.5 * math.sqrt(2.0), rel_tol=FRAME_TOL)
    assert math.isclose(float(fd.pbar ** 2 + fd.qbar ** 2), 1.0, abs_tol=FRAME_TOL)


def test_level_surface_requires_three_variable_field():
    with pytest.raises(ValueError):
        LevelSurface(ScalarField(lambda u, v: u + v, 2))


def test_flat_horizontal_level_set_is_characteristic():
    # for t = 0 the horizontal gradient is (-y/2, x/2); it dies at the origin
    flat = LevelSurface(ScalarField(lambda x, y, t: t + 0.0 * x, 3))
    with pytest.raises(CharacteristicPointError):
        flat.frame_data(0.0, 0.0, 0.0)
    fd = flat.frame_data(1.0, 0.0, 0.0)
    assert math.isclose(fd.W, 0.5, abs_tol=FRAME_TOL)


def test_parabolic_surface_characteristic_at_apex():
    bowl = LevelSurface(ScalarField(lambda x, y, t: t - x * x - y * y, 3))
    with pytest.raises(CharacteristicPointError):
        bowl.frame_data(0.0, 0.0, 0.0)
    # away from the apex the frame exists
    fd = bowl.frame_data(1.0, 0.0, 1.0)
    assert fd.W > 0.1


def test_characteristic_error_reports_location():
    bowl = LevelSurface(ScalarField(lambda x, y, t: t - x * x - y * y, 3))
    with pytest.raises(CharacteristicPointError, match=r"\(0\.0, 0\.0, 0\.0\)"):
        bowl.frame_data(0.0, 0.0, 0.0)


def test_tangential_reconstruction_of_horizontal_derivatives():
    """X1 f and X2 f decompose through Z and Y with the rotated frame."""
    surface = AlphaBetaGraph(1.5, 0.5).surface
    f = ScalarField(lambda x, y, t: jet_exp(0.3 * x) * jet_sin(y - t) + x * t, 3)
    rng = np.random.default_rng(12)
    y = rng.uniform(-2, 2, 64)
    t = rng.uniform(-2, 2, 64)
    x = y * (1.5 * t + 0.5)
    fd = surface.frame_data(x, y, t)
    g = f.jet(x, y, t).grad
    zf, yf = fd.z_of(g), fd.y_of(g)
    assert np.allclose(fd.x1_of(g), fd.qbar * zf + fd.pbar * yf, atol=1e-12)
    assert np.allclose(fd.x2_of(g), fd.qbar * yf - fd.pbar * zf, atol=1e-12)


def test_z_is_tangential_to_the_surface():
    # Z of the defining function vanishes on the surface
    graph = AlphaBetaGraph(2.0, 1.0)
    surface = graph.surface
    rng = np.random.default_rng(8)
    y = rng.uniform(-2, 2, 32)
    t = rng.uniform(-2, 2, 32)
    x = y * graph.slope(t)
    fd = surface.frame_data(x, y, t)
    g = surface.phi.jet(x, y, t).grad
    assert np.allclose(fd.z_of(g), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# cylinder: constant curvature, no characteristic points, unit chart weight


def test_cylinder_frame_and_curvature():
    surface = cylinder_surface()
    fd = surface.frame_data(1.0, 0.0, 0.0)
    assert math.isclose(fd.p, 2.0, abs_tol=FRAME_TOL)
    assert math.isclose(fd.q, 0.0, abs_tol=FRAME_TOL)
    assert math.isclose(fd.omega, 0.0, abs_tol=FRAME_TOL)
    assert math.isclose(fd.W, 2.0, abs_tol=FRAME_TOL)
    assert math.isclose(fd.mean_curvature, 1.0, rel_tol=1e-12)


def test_cylinder_curvature_symbolic_oracle():
    """The curvature of x^2 + y^2 = 1 reduces symbolically to 1/sqrt(x^2+y^2)."""
    x, y, t = sp.symbols("x y t")
    phi = x * x + y * y - 1

    def X1(e):
        return sp.diff(e, x) - y / 2 * sp.diff(e, t)

    def X2(e):
        return sp.diff(e, y) + x / 2 * sp.diff(e, t)

    p, q = X1(phi), X2(phi)
    W = sp.sqrt(p * p + q * q)
    H = sp.simplify(X1(p / W) + X2(q / W))
    assert sp.simplify(H - 1 / sp.sqrt(x * x + y * y)) == 0

    surface = cylinder_surface()
    rng = np.random.default_rng(4)
    angles = rng.uniform(0.3, 2.8, 16)
    fd = surface.frame_data(np.cos(angles), np.sin(angles), rng.uniform(-1, 1, 16))
    assert np.allclose(fd.mean_curvature, 1.0, atol=1e-12)
    assert np.allclose(fd.a_coeff, 0.0, atol=1e-12)
    assert np.allclose(fd.obar, 0.0, atol=1e-12)


def test_cylinder_angle_chart_has_unit_weight():
    # the angular measure factor is exactly 1, so the patch area is the
    # parameter box area
    surface = cylinder_surface()
    patch = cylinder_patch(math.pi / 6.0, 5.0 * math.pi / 6.0)
    area = integrate_on_surface(surface, patch, unit_term)
    assert math.isclose(area.value, 2.0 * math.pi / 3.0, rel_tol=1e-12)
    assert area.error < 1e-10


def test_cylinder_chart_degenerates_where_transversal_fails():
    # the y-transversal chart breaks where sin vanishes; a box crossing zero
    # puts a quadrature node exactly on the bad ray
    surface = cylinder_surface()
    patch = cylinder_patch(-math.pi / 3.0, math.pi / 3.0)
    with pytest.raises(ChartDegenerateError):
        integrate_on_surface(surface, patch, unit_term)


# ---------------------------------------------------------------------------
# patches and surface integrals


def test_patch_validates_box_and_transversal():
    with pytest.raises(ValueError):
        SurfacePatch(chart=lambda u, v: (u, v, 0.0 * u), box=(0, 1, 0, 1), transversal="z")
    with pytest.raises(ValueError):
        SurfacePatch(chart=lambda u, v: (u, v, 0.0 * u), box=(1, 0, 0, 1), transversal="x")


def test_patch_grid_and_residual():
    graph = AlphaBetaGraph(1.0, 2.0)
    patch = graph.patch((-1, 1), (-1, 1))
    assert patch.max_defining_residual(graph.surface, n=7) < 1e-12
    other = AlphaBetaGraph(1.0, 0.0)
    assert patch.max_defining_residual(other.surface, n=7) > 0.1


def test_integrate_on_surface_rejects_off_surface_chart():
    graph = AlphaBetaGraph(1.0, 2.0)
    wrong = AlphaBetaGraph(1.0, 0.0).patch((-1, 1), (-1, 1))
    with pytest.raises(ValueError):
        integrate_on_surface(graph.surface, wrong, unit_term)


def test_perimeter_of_ruled_graph_window():
    """Separable closed form: (7/3) (sqrt 2 + asinh 1) on [-1,1]^2."""
    graph = AlphaBetaGraph(1.0, 0.0)
    patch = graph.patch((-1.0, 1.0), (-1.0, 1.0))
    one = ScalarField(lambda x, y, t: 1.0 + 0.0 * x, 3)
    value = h_perimeter_integral(graph.surface, patch, one).value
    exact = (7.0 / 3.0) * (math.sqrt(2.0) + math.asinh(1.0))
    assert math.isclose(value, exact, rel_tol=1e-10)


def test_perimeter_of_steeper_window():
    # alpha=2, beta=1 over the same window, split into two 1-d closed forms
    graph = AlphaBetaGraph(2.0, 1.0)
    patch = graph.patch((-1.0, 1.0), (-1.0, 1.0))
    one = ScalarField(lambda x, y, t: 1.0 + 0.0 * x, 3)
    value = h_perimeter_integral(graph.surface, patch, one).value

    def arc(s):
        return 0.5 * (s * math.sqrt(1.0 + s * s) + math.asinh(s))

    y_part = 8.0 / 3.0                      # int of 1 + y^2 over [-1, 1]
    t_part = 0.5 * (arc(3.0) - arc(-1.0))   # int of sqrt(1 + (2t+1)^2)
    assert math.isclose(value, y_part * t_part, rel_tol=1e-10)


def test_weighted_integral_on_plane_chart():
    # x-graph chart of the plane 3x + 4y = 2 carries weight W/|<N, E_x>| = 5/3
    plane = LevelSurface(ScalarField(lambda x, y, t: 3.0 * x + 4.0 * y - 2.0, 3))
    patch = SurfacePatch(
        chart=lambda u, v: ((2.0 - 4.0 * u) / 3.0, u, v),
        box=(-1.0, 1.0, -1.0, 1.0),
        transversal="x",
    )
    area = integrate_on_surface(plane, patch, unit_term).value
    assert math.isclose(area, 4.0 * 5.0 / 3.0, rel_tol=1e-12)


def test_surface_integral_error_estimate_returned():
    graph = AlphaBetaGraph(1.0, 0.0)
    patch = graph.patch((-1.0, 1.0), (-1.0, 1.0))
    res = integrate_on_surface(graph.surface, patch, lambda fd: fd.W)
    assert res.error >= 0.0
    assert res.value > 0.0
    assert res.converged
