"""Graphs over a vertical chart plane: transport derivative, curvature, lifting."""

import math

import numpy as np
import pytest

from hperim.core import ScalarField, jet_abs, jet_exp, jet_sin, smooth_step
from hperim.intrinsic import (
    IntrinsicGraph,
    burgers,
    family_phi,
    graph_first_variation,
    graph_mean_curvature,
    graph_perimeter,
    lift,
    lift_patch,
    plane_phi,
)
from hperim.surfaces import h_perimeter_integral

WINDOW = (-1.0, 1.0, -1.0, 1.0)


def plateau(j, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return smooth_step(jet_abs(j - mid) * (2.0 / half))


def bump_zeta():
    return ScalarField(
        lambda u, v: (1.0 + 0.3 * u - 0.2 * v)
        * plateau(u, WINDOW[0], WINDOW[1])
        * plateau(v, WINDOW[2], WINDOW[3]),
        2,
    )


def curved_phi():
    return ScalarField(lambda u, v: 0.3 * jet_sin(u + v) + 0.1 * u * u * v, 2)


# ---------------------------------------------------------------------------
# transport derivative


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (0.5, -3.0)])
def test_family_profile_solves_transport_equation_at_origin(alpha, beta):
    phi = family_phi(alpha, beta)
    assert math.isclose(burgers(phi, phi, 0.0, 0.0), beta, rel_tol=1e-12, abs_tol=1e-12)


def test_transport_derivative_matches_manual_jets():
    phi = curved_phi()
    F = ScalarField(lambda u, v: jet_exp(0.2 * u) * (v + u * v * v), 2)
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, 32)
    v = rng.uniform(-1, 1, 32)
    jf = F.jet(u, v)
    expected = jf.grad[0] + phi.value(u, v) * jf.grad[1]
    assert np.allclose(burgers(phi, F, u, v), expected, atol=1e-14)


def test_family_transport_of_profile_is_affine_in_v():
    # B_phi(phi) for the ruled family equals alpha u phi_v-free closed form;
    # at u = 0 it reduces to alpha v + beta for every v
    phi = family_phi(2.0, 1.0)
    for v in (-1.0, 0.0, 0.75):
        assert math.isclose(burgers(phi, phi, 0.0, v), 2.0 * v + 1.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# curvature and perimeter


def test_family_profile_has_zero_curvature():
    phi = family_phi(1.0, 0.0)
    u, v = np.meshgrid(np.linspace(-2, 2, 40), np.linspace(-2, 2, 40))
    assert np.max(np.abs(graph_mean_curvature(phi, u, v))) < 1e-8


def test_plane_profile_flat_and_sloped():
    phi = plane_phi(3.0, 4.0, 2.0)
    u, v = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    assert np.max(np.abs(graph_mean_curvature(phi, u, v))) < 1e-12
    # B = phi_u = -b/a everywhere, so the perimeter density is constant
    per = graph_perimeter(phi, WINDOW).value
    assert math.isclose(per, 4.0 * math.sqrt(1.0 + (4.0 / 3.0) ** 2), rel_tol=1e-12)


def test_zero_profile_perimeter_is_window_area():
    flat = ScalarField(lambda u, v: 0.0 * u + 0.0 * v, 2)
    assert math.isclose(graph_perimeter(flat, WINDOW).value, 4.0, rel_tol=1e-12)


def test_perimeter_matches_ambient_route():
    """Chart-plane perimeter == surface-measure integral over the lifted patch."""
    phi = family_phi(1.0, 0.0)
    value = graph_perimeter(phi, WINDOW).value
    one = ScalarField(lambda x, y, t: 1.0 + 0.0 * x, 3)
    ambient = h_perimeter_integral(lift(phi), lift_patch(phi, WINDOW), one).value
    assert math.isclose(value, ambient, rel_tol=1e-6)


def test_curvature_matches_level_surface_route():
    phi = curved_phi()
    surface = lift(phi)
    patch = lift_patch(phi, WINDOW)
    rng = np.random.default_rng(14)
    for _ in range(12):
        u = float(rng.uniform(-1, 1))
        v = float(rng.uniform(-1, 1))
        cx, cy, ct = patch.chart_jets(u, v)
        fd = surface.frame_data(cx.val, cy.val, ct.val)
        assert math.isclose(
            graph_mean_curvature(phi, u, v), float(fd.mean_curvature),
            rel_tol=1e-10, abs_tol=1e-10,
        )


# ---------------------------------------------------------------------------
# first variation


def test_weak_and_strong_forms_agree_by_parts():
    phi = curved_phi()
    zeta = bump_zeta()
    weak = graph_first_variation(phi, zeta, WINDOW, form="weak").value
    strong = graph_first_variation(phi, zeta, WINDOW, form="strong").value
    assert abs(weak - strong) < 1e-7


def test_family_first_variation_vanishes():
    phi = family_phi(2.0, 1.0)
    zeta = bump_zeta()
    for form in ("weak", "strong"):
        assert abs(graph_first_variation(phi, zeta, WINDOW, form=form).value) < 1e-9


def test_first_variation_rejects_unknown_form():
    with pytest.raises(ValueError, match="form"):
        graph_first_variation(family_phi(1.0, 0.0), bump_zeta(), WINDOW, form="dual")


# ---------------------------------------------------------------------------
# lifting to an ambient level set


def test_lift_patch_sits_on_lifted_surface():
    phi = curved_phi()
    surface = lift(phi)
    patch = lift_patch(phi, WINDOW)
    assert patch.max_defining_residual(surface, n=9) < 1e-12


def test_lift_is_never_characteristic():
    # X1 of the lifted defining function is identically 1
    phi = curved_phi()
    surface = lift(phi)
    patch = lift_patch(phi, WINDOW)
    rng = np.random.default_rng(2)
    for _ in range(20):
        cx, cy, ct = patch.chart_jets(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        fd = surface.frame_data(cx.val, cy.val, ct.val)
        assert math.isclose(float(fd.p), 1.0, abs_tol=1e-12)


def test_lift_point_lies_on_chart():
    phi = family_phi(2.0, 1.0)
    cx, cy, ct = lift_patch(phi, WINDOW).chart_jets(0.5, -0.25)
    # chart (u, v) -> (phi, u, v - u phi / 2)
    val = phi.value(0.5, -0.25)
    assert math.isclose(float(cx.val), val)
    assert math.isclose(float(cy.val), 0.5)
    assert math.isclose(float(ct.val), -0.25 - 0.25 * val)


def test_profile_nvars_is_validated():
    bad = ScalarField(lambda x, y, t: x + y + t, 3)
    with pytest.raises(ValueError):
        graph_perimeter(bad, WINDOW)
    with pytest.raises(ValueError):
        graph_mean_curvature(bad, 0.0, 0.0)


def test_wrapper_matches_free_functions():
    phi = curved_phi()
    ig = IntrinsicGraph(phi, WINDOW)
    assert ig.perimeter() == graph_perimeter(phi, WINDOW)
    assert ig.mean_curvature(0.2, -0.3) == graph_mean_curvature(phi, 0.2, -0.3)
    assert ig.burgers(phi, 0.2, -0.3) == burgers(phi, phi, 0.2, -0.3)
    zeta = bump_zeta()
    assert ig.first_variation(zeta) == graph_first_variation(phi, zeta, WINDOW)
    assert ig.patch().box == WINDOW
    assert ig.level_surface().phi.nvars == 3
