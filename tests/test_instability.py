"""Cutoff families, the weighted Hardy gap, and negativity certificates."""

import json
import math

import numpy as np
import pytest

import hperim.instability
from hperim.graphs import AlphaBetaGraph
from hperim.instability import (
    InstabilityCertificate,
    PROFILE_ID,
    ScanExhaustedError,
    a_k_field,
    certify_instability,
    cutoff,
    cutoff_prime,
    f_k,
    hardy_limits,
    hardy_sides,
    profile_constant,
    u_k_field,
)
from hperim.quadrature import Integral, QuadratureSpec, integrate_1d
from hperim.variation import pulled_back_form

# ---------------------------------------------------------------------------
# cutoff family


@pytest.mark.parametrize("k", [1, 3, 10])
def test_cutoff_plateaus(k):
    s = np.linspace(-3.0 * k, 3.0 * k, 601)
    chi = cutoff(k, s)
    assert np.all(chi[np.abs(s) <= k] == 1.0)
    assert np.all(chi[np.abs(s) >= 2.0 * k] == 0.0)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    assert math.isclose(float(cutoff(k, 1.5 * k)), 0.5, abs_tol=1e-12)


def test_cutoff_is_monotone_on_the_shoulder():
    k = 4
    s = np.linspace(k, 2.0 * k, 200)
    chi = cutoff(k, s)
    assert np.all(np.diff(chi) <= 0.0)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_cutoff_derivative(k):
    assert float(cutoff_prime(k, 0.5 * k)) == 0.0
    assert float(cutoff_prime(k, 2.5 * k)) == 0.0
    assert math.isclose(float(cutoff_prime(k, 1.5 * k)), -2.0 / k, rel_tol=1e-12)
    # odd in s: the left shoulder rises
    assert math.isclose(float(cutoff_prime(k, -1.5 * k)), 2.0 / k, rel_tol=1e-12)


def test_profile_derivative_bound():
    assert math.isclose(profile_constant(), 2.0, abs_tol=1e-6)
    # memoized: a second call returns the identical float
    assert profile_constant() == profile_constant()


def test_profile_slice_normalization():
    assert math.isclose(float(f_k(3, 1.0, 0.0)), 1.0, abs_tol=1e-15)
    assert float(f_k(3, 1.0, 6.5)) == 0.0
    u = u_k_field(2, 1.0)
    assert math.isclose(u.value(0.0, 0.0), 1.0, abs_tol=1e-15)
    a = a_k_field(2, 1.0, 0.0)
    assert math.isclose(a.value(0.0, 0.0, 0.0), 1.0, abs_tol=1e-15)


def test_ambient_deformation_restricts_to_chart_profile():
    k, alpha, beta = 3, 2.0, 1.0
    u = u_k_field(k, alpha)
    a = a_k_field(k, alpha, beta)
    y, t = np.meshgrid(np.linspace(-2 * k, 2 * k, 25), np.linspace(-2 * k, 2 * k, 25))
    x = y * (alpha * t + beta)
    assert np.allclose(a.value(x, y, t), u.value(y, t), atol=1e-15)


def test_field_parameters_validated():
    with pytest.raises(ValueError):
        u_k_field(0, 1.0)
    with pytest.raises(ValueError):
        u_k_field(2, 0.0)
    with pytest.raises(ValueError):
        a_k_field(-1, 1.0, 0.0)


# ---------------------------------------------------------------------------
# the weighted Hardy gap


def test_hardy_sides_approach_their_limits():
    alpha = 1.0
    lhs, rhs, gap = hardy_sides(200, alpha)
    lhs_lim = 0.5 * math.pi * math.sqrt(2.0 / alpha)
    rhs_lim = 0.5 * math.pi * math.sqrt(0.5 * alpha)
    gap_lim = 0.375 * math.pi * math.sqrt(2.0 / alpha)
    assert abs(lhs - lhs_lim) / lhs_lim < 0.01
    assert abs(rhs - rhs_lim) / rhs_lim < 0.02
    assert abs(gap - gap_lim) / gap_lim < 0.05
    limits = hardy_limits(alpha)
    assert limits == (lhs_lim, rhs_lim, gap_lim)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_hardy_gap_positive_and_growing(alpha):
    gaps = [hardy_sides(k, alpha)[2] for k in (4, 6, 8)]
    assert all(g > 0.0 for g in gaps)
    assert gaps[2] > gaps[0]


def test_hardy_rhs_decomposes_by_parts():
    """rhs = int (chi_k')^2 + (alpha/2) int chi_k^2 / c1^2."""
    k, alpha = 5, 2.0
    _, rhs, _ = hardy_sides(k, alpha)

    def dpart(y):
        return cutoff_prime(k, y) ** 2

    def wpart(y):
        c1 = 1.0 + 0.5 * alpha * y * y
        return cutoff(k, y) ** 2 / (c1 * c1)

    d = integrate_1d(dpart, (-2.0 * k, 2.0 * k)).value
    w = integrate_1d(wpart, (-2.0 * k, 2.0 * k)).value
    assert math.isclose(rhs, d + 0.5 * alpha * w, rel_tol=1e-8)


@pytest.mark.parametrize("exponent", [1.5, 0.5])
def test_separable_profile_factors_through_the_gap(exponent):
    """V(u_k) = -2 alpha * I_t * gap for the product profile u_k."""
    k, alpha, beta = 2, 1.0, 0.0
    graph = AlphaBetaGraph(alpha, beta)
    box = (-2.0 * k, 2.0 * k, -2.0 * k, 2.0 * k)
    value = pulled_back_form(graph, u_k_field(k, alpha), exponent, box).value

    def t_density(t):
        s = alpha * t + beta
        return cutoff(k, t) ** 2 / (1.0 + s * s) ** exponent

    i_t = integrate_1d(t_density, (-2.0 * k, 2.0 * k)).value
    gap = hardy_sides(k, alpha)[2]
    assert math.isclose(value, -2.0 * alpha * i_t * gap, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_x1_direction():
    rows = []
    cert = certify_instability(1.0, 0.0, direction="x1", on_step=rows.append)
    assert cert.k == 2
    assert cert.value + cert.error < 0.0
    assert abs(cert.value - cert.surface_value) <= cert.agreement_tol
    assert cert.direction == "x1"
    assert cert.profile_id == PROFILE_ID
    assert cert.profile_derivative_bound == 2.0
    assert len(rows) == 2 and rows[0]["value"] > 0.0
    # frozen regression anchors for the first two scan widths
    assert math.isclose(rows[0]["value"], 0.9192400975375575, rel_tol=1e-8)
    assert math.isclose(rows[1]["value"], -2.920256311772778, rel_tol=1e-8)


def test_certificate_normal_direction():
    cert = certify_instability(1.0, 0.0, direction="nuh")
    assert cert.k == 2
    assert cert.value + cert.error < 0.0
    assert abs(cert.value - cert.surface_value) <= cert.agreement_tol
    assert math.isclose(cert.value, -5.441636, rel_tol=1e-5)


@pytest.mark.parametrize("beta", [-1.0, 5.0])
def test_certificates_insensitive_to_intercept(beta):
    cert = certify_instability(1.0, beta, direction="x1")
    assert cert.value + cert.error < 0.0
    assert cert.beta == beta


def test_certificate_serializes_to_json():
    cert = certify_instability(1.0, 0.0, direction="x1")
    blob = json.loads(cert.to_json())
    for key in (
        "alpha", "beta", "direction", "k", "value", "error",
        "surface_value", "surface_error", "agreement_tol", "domain",
        "profile_id", "profile_derivative_bound", "rel_tol", "abs_floor",
        "scan",
    ):
        assert key in blob
    assert blob["k"] == 2
    assert len(blob["scan"]) == 2
    assert isinstance(cert, InstabilityCertificate)


def test_scan_exhaustion_reports_rows():
    with pytest.raises(ScanExhaustedError) as info:
        certify_instability(1.0, 0.0, direction="x1", k_max=0)
    assert info.value.scan == []
    with pytest.raises(ScanExhaustedError) as info:
        certify_instability(1.0, 0.0, direction="x1", k_max=1)
    assert len(info.value.scan) == 1
    assert info.value.scan[0]["value"] > 0.0


def test_unconverged_integrals_do_not_certify(monkeypatch):
    # one split per integral: no chart-plane step reaches its tolerance
    with pytest.raises(ScanExhaustedError) as info:
        certify_instability(1.0, 0.0, "x1", k_max=4, spec=QuadratureSpec(max_subdivisions=1))
    assert [sorted(row) for row in info.value.scan] == [["error", "k", "value"]] * 4
    # an unconverged surface cross-check fails like a route disagreement
    monkeypatch.setattr(hperim.instability, "second_variation_x1",
                        lambda *args: Integral(-2.92, 1e-9, False))
    with pytest.raises(RuntimeError, match="did not converge"):
        certify_instability(1.0, 0.0, "x1", k_max=2)


def test_certificate_rejects_unknown_direction():
    with pytest.raises(ValueError, match="direction"):
        certify_instability(1.0, 0.0, direction="tangent")
    with pytest.raises(ValueError):
        certify_instability(1.0, 0.0, k_max=-1)
