"""First and second variation of H-perimeter: route agreement and closed forms.

The same quadratic form is computed along four independent routes
(general frame integrand, direction-specialized raw integrand, reduced
integrand obtained by parts, and the pulled-back chart-plane form); the
tests pin them against each other and against one fully explicit value
on the unit cylinder.
"""

import math

import numpy as np
import pytest

from hperim.core import ScalarField, jet_abs, jet_sin, smooth_step
from hperim.graphs import AlphaBetaGraph
from hperim.identities import random_supported_field
from hperim.quadrature import QuadratureSpec
from hperim.surfaces import LevelSurface, SurfacePatch
from hperim.variation import (
    DeformationField,
    extend_profile,
    first_variation,
    nu_deformation,
    pulled_back_form,
    second_variation_general,
    second_variation_nu,
    second_variation_x1,
    zero_field,
)

BOX = (-2.0, 2.0, -2.0, 2.0)
SUPPORT = BOX


def plateau(j, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return smooth_step(jet_abs(j - mid) * (2.0 / half))


def random_profile(rng):
    """Polynomial times plateaus: a 2-variable profile supported in BOX."""
    c = rng.uniform(-1.0, 1.0, size=6)

    def rule(y, t):
        poly = c[0] + c[1] * y + c[2] * t + c[3] * y * t + c[4] * y * y + c[5] * t * t
        return poly * plateau(y, BOX[0], BOX[1]) * plateau(t, BOX[2], BOX[3])

    return ScalarField(rule, 2)


def graph_and_patch(alpha=1.0, beta=0.0):
    graph = AlphaBetaGraph(alpha, beta)
    return graph, graph.patch(BOX[:2], BOX[2:])


# ---------------------------------------------------------------------------
# first variation


def test_first_variation_vanishes_on_minimal_graph():
    graph, patch = graph_and_patch(2.0, 1.0)
    rng = np.random.default_rng(21)
    a = random_supported_field(rng, BOX[:2], BOX[2:])
    b = random_supported_field(rng, BOX[:2], BOX[2:])
    k = random_supported_field(rng, BOX[:2], BOX[2:])
    res = first_variation(graph.surface, patch, DeformationField(a, b, k, SUPPORT))
    assert abs(res.value) <= 10.0 * res.error + 1e-10


def test_first_variation_of_zero_field_is_exactly_zero():
    graph, patch = graph_and_patch()
    d = DeformationField(zero_field(), zero_field(), zero_field(), SUPPORT)
    res = first_variation(graph.surface, patch, d)
    assert res.value == 0.0


def test_boundary_support_is_enforced():
    graph, patch = graph_and_patch()
    one = ScalarField(lambda x, y, t: 1.0 + 0.0 * x, 3)
    d = DeformationField.along_x1(one, SUPPORT)
    with pytest.raises(ValueError, match="vanish on the patch boundary"):
        first_variation(graph.surface, patch, d)
    with pytest.raises(ValueError, match="vanish on the patch boundary"):
        second_variation_x1(graph.surface, patch, one)


# ---------------------------------------------------------------------------
# route agreement on ruled graphs


def test_x1_routes_agree():
    """Pulled-back == raw == reduced == general for a X1 deformations."""
    graph, patch = graph_and_patch(1.0, 0.0)
    rng = np.random.default_rng(5)
    u = random_profile(rng)
    a = extend_profile(graph, u)

    chart = pulled_back_form(graph, u, 1.5, BOX)
    raw = second_variation_x1(graph.surface, patch, a, form="raw")
    red = second_variation_x1(graph.surface, patch, a, form="reduced")
    gen = second_variation_general(
        graph.surface, patch, DeformationField.along_x1(a, SUPPORT)
    )

    assert abs(chart.value - raw.value) < 1e-6
    assert abs(raw.value - red.value) < 1e-7
    assert abs(raw.value - gen.value) < 1e-9
    assert chart.error >= 0.0


def test_nu_routes_agree():
    graph, patch = graph_and_patch(1.0, 0.0)
    rng = np.random.default_rng(9)
    u = random_profile(rng)
    h = extend_profile(graph, u)

    chart = pulled_back_form(graph, u, 0.5, BOX).value
    raw = second_variation_nu(graph.surface, patch, h, form="raw")
    red = second_variation_nu(graph.surface, patch, h, form="reduced")
    gen = second_variation_general(
        graph.surface, patch, nu_deformation(graph, h, SUPPORT)
    )

    assert abs(chart - raw.value) < 1e-6
    assert abs(raw.value - red.value) < 1e-7
    assert abs(raw.value - gen.value) < 1e-8


def test_nu_route_with_vertical_component():
    """Nonzero k: the raw nu form still matches the general integrand."""
    graph, patch = graph_and_patch(1.5, 0.5)
    rng = np.random.default_rng(13)
    h = random_supported_field(rng, BOX[:2], BOX[2:])
    k = random_supported_field(rng, BOX[:2], BOX[2:])
    base = nu_deformation(graph, h, SUPPORT)
    d = DeformationField(base.a, base.b, k, SUPPORT)

    raw = second_variation_nu(graph.surface, patch, h, k=k, form="raw")
    gen = second_variation_general(graph.surface, patch, d)
    assert abs(raw.value - gen.value) < 1e-8


def test_nu_reduced_rejects_vertical_component():
    graph, patch = graph_and_patch()
    rng = np.random.default_rng(1)
    h = random_supported_field(rng, BOX[:2], BOX[2:])
    with pytest.raises(ValueError, match="reduced"):
        second_variation_nu(graph.surface, patch, h, k=h, form="reduced")


@pytest.mark.parametrize("func", [second_variation_x1, second_variation_nu])
def test_unknown_form_rejected(func):
    graph, patch = graph_and_patch()
    rng = np.random.default_rng(2)
    h = random_supported_field(rng, BOX[:2], BOX[2:])
    with pytest.raises(ValueError, match="form"):
        func(graph.surface, patch, h, form="integrated")


def test_second_variation_is_quadratically_homogeneous():
    graph, patch = graph_and_patch(1.0, 0.0)
    rng = np.random.default_rng(17)
    u = random_profile(rng)
    c = 2.5
    cu = ScalarField(lambda y, t: c * u(y, t), 2)
    v1 = pulled_back_form(graph, u, 1.5, BOX).value
    v2 = pulled_back_form(graph, cu, 1.5, BOX).value
    assert math.isclose(v2, c * c * v1, rel_tol=1e-9)

    a1 = extend_profile(graph, u)
    a2 = extend_profile(graph, cu)
    s1 = second_variation_x1(graph.surface, patch, a1)
    s2 = second_variation_x1(graph.surface, patch, a2)
    assert math.isclose(s2.value, c * c * s1.value, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# chart profiles and their ambient extensions


def test_extension_restricts_to_profile():
    graph = AlphaBetaGraph(2.0, 1.0)
    rng = np.random.default_rng(3)
    u = random_profile(rng)
    a = extend_profile(graph, u)
    y, t = np.meshgrid(np.linspace(-1.9, 1.9, 21), np.linspace(-1.9, 1.9, 21))
    x = y * graph.slope(t)
    assert np.allclose(a.value(x, y, t), u.value(y, t), atol=1e-15)


def test_extension_choice_does_not_change_the_form():
    graph, patch = graph_and_patch(1.0, 0.0)
    rng = np.random.default_rng(29)
    u = random_profile(rng)
    thin = extend_profile(graph, u, cut_scale=0.5)
    wide = extend_profile(graph, u, cut_scale=2.0)
    v1 = second_variation_x1(graph.surface, patch, thin)
    v2 = second_variation_x1(graph.surface, patch, wide)
    assert abs(v1.value - v2.value) <= 10.0 * (v1.error + v2.error) + 1e-9


def test_extend_profile_requires_two_variables():
    graph = AlphaBetaGraph(1.0, 0.0)
    with pytest.raises(ValueError):
        extend_profile(graph, zero_field(3))
    with pytest.raises(ValueError):
        pulled_back_form(graph, zero_field(3), 1.5, BOX)


def test_nu_deformation_has_unit_frame_length():
    graph = AlphaBetaGraph(2.0, 1.0)
    rng = np.random.default_rng(11)
    h = random_supported_field(rng, BOX[:2], BOX[2:])
    d = nu_deformation(graph, h, SUPPORT)
    y = rng.uniform(-1.8, 1.8, 64)
    t = rng.uniform(-1.8, 1.8, 64)
    x = y * graph.slope(t)
    av, bv, hv = d.a.value(x, y, t), d.b.value(x, y, t), h.value(x, y, t)
    assert np.allclose(av * av + bv * bv, hv * hv, atol=1e-14)
    assert d.k.value(0.0, 0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# explicit value on the cylinder


def test_cylinder_normal_form_closed_value():
    """h = (3x - 4x^3) sin(pi t) on the unit cylinder.

    On the angular chart the restriction separates as
    sin(3(s1 - pi/6)) sin(pi s2) over [pi/6, 5pi/6] x [0, 1], and the
    reduced form integrates in closed form to 3 pi / 2 + pi^3 / 24.
    """
    surface = LevelSurface(ScalarField(lambda x, y, t: x * x + y * y - 1.0, 3))
    from hperim.core import jet_cos

    patch = SurfacePatch(
        chart=lambda a, b: (jet_cos(a), jet_sin(a), b),
        box=(math.pi / 6.0, 5.0 * math.pi / 6.0, 0.0, 1.0),
        transversal="y",
    )
    h = ScalarField(
        lambda x, y, t: (3.0 * x - 4.0 * x ** 3) * jet_sin(math.pi * t), 3
    )
    exact = 1.5 * math.pi + math.pi ** 3 / 24.0

    red = second_variation_nu(surface, patch, h, form="reduced")
    assert math.isclose(red.value, exact, rel_tol=1e-8)

    # vanishing obar and a-coefficient collapse the raw form onto the
    # reduced one pointwise
    raw = second_variation_nu(surface, patch, h, form="raw")
    assert math.isclose(raw.value, red.value, rel_tol=1e-10)


def test_tight_spec_shrinks_reported_error():
    graph, _ = graph_and_patch(1.0, 0.0)
    rng = np.random.default_rng(31)
    u = random_profile(rng)
    loose = pulled_back_form(graph, u, 1.5, BOX, QuadratureSpec(rel_tol=1e-5))
    tight = pulled_back_form(graph, u, 1.5, BOX, QuadratureSpec(rel_tol=1e-10))
    assert tight.error <= loose.error
    assert abs(loose.value - tight.value) <= 10.0 * (loose.error + tight.error) + 1e-12
