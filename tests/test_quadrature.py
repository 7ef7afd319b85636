"""Adaptive Gauss-Kronrod integration against a battery of closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hperim.variation
from hperim.graphs import AlphaBetaGraph
from hperim.instability import u_k_field
from hperim.quadrature import (
    DEFAULT_SPEC,
    Integral,
    QuadratureSpec,
    compensated_sum,
    compensated_term_sum,
    integrate_1d,
    integrate_2d,
)

VALUE_TOL = 5e-8

# (name, integrand, interval, exact value); every entry is genuinely curved so
# a fixed-order rule cannot be exact by accident
BATTERY_1D = [
    ("log2", lambda x: 1.0 / (1.0 + x), (0.0, 1.0), math.log(2.0)),
    ("shifted_log", lambda x: 1.0 / x, (1.0, 3.0), math.log(3.0)),
    ("rational_square", lambda x: (1.0 + x * x) ** -2.0, (-1.0, 1.0), (math.pi + 2.0) / 4.0),
    ("exp", lambda x: np.exp(x), (0.0, 1.0), math.e - 1.0),
    ("x_exp", lambda x: x * np.exp(x), (0.0, 1.0), 1.0),
    ("sine_arch", lambda x: np.sin(x), (0.0, math.pi), 2.0),
    ("sqrt_shift", lambda x: np.sqrt(1.0 + x), (0.0, 1.0), (2.0 / 3.0) * (2.0 * math.sqrt(2.0) - 1.0)),
    ("log1p", lambda x: np.log(1.0 + x), (0.0, 1.0), 2.0 * math.log(2.0) - 1.0),
    ("tangent", lambda x: np.tan(x), (0.0, math.pi / 4.0), 0.5 * math.log(2.0)),
    ("arctan_density", lambda x: 1.0 / (1.0 + x * x), (0.0, 1.0), math.pi / 4.0),
    ("scaled_arctan", lambda x: 1.0 / (4.0 + x * x), (0.0, 2.0), math.pi / 8.0),
    ("squared_sine", lambda x: np.sin(math.pi * x) ** 2, (0.0, 1.0), 0.5),
    ("cosh", lambda x: np.cosh(x), (0.0, 1.0), math.sinh(1.0)),
    ("inverse_hyperbolic", lambda x: 1.0 / np.sqrt(1.0 + x * x), (0.0, 1.0), math.asinh(1.0)),
    ("gaussian", lambda x: np.exp(-x * x), (0.0, 1.0), 0.5 * math.sqrt(math.pi) * math.erf(1.0)),
]

BATTERY_2D = [
    ("product_log", lambda x, y: x / (1.0 + x * y), (0.0, 1.0, 0.0, 1.0), 2.0 * math.log(2.0) - 1.0),
    ("exp_moment", lambda x, y: y * np.exp(x * y), (0.0, 1.0, 0.0, 1.0), math.e - 2.0),
    ("plane_pole", lambda x, y: 1.0 / (1.0 + x + y), (0.0, 1.0, 0.0, 1.0), math.log(27.0 / 16.0)),
    ("sine_moment", lambda x, y: x * np.sin(x * y), (0.0, 1.0, 0.0, 1.0), 1.0 - math.sin(1.0)),
    ("pole_square", lambda x, y: (1.0 + x + y) ** -2.0, (0.0, 1.0, 0.0, 1.0), math.log(4.0 / 3.0)),
]


@pytest.mark.parametrize("name,f,interval,exact", BATTERY_1D, ids=[b[0] for b in BATTERY_1D])
def test_battery_1d(name, f, interval, exact):
    res = integrate_1d(f, interval)
    assert abs(res.value - exact) <= VALUE_TOL * max(1.0, abs(exact))
    assert res.error <= max(DEFAULT_SPEC.abs_floor, DEFAULT_SPEC.rel_tol * abs(res.value)) * 1.01
    assert res.converged


@pytest.mark.parametrize("name,f,box,exact", BATTERY_2D, ids=[b[0] for b in BATTERY_2D])
def test_battery_2d(name, f, box, exact):
    res = integrate_2d(f, box)
    assert abs(res.value - exact) <= VALUE_TOL * max(1.0, abs(exact))
    assert res.error <= max(DEFAULT_SPEC.abs_floor, DEFAULT_SPEC.rel_tol * abs(res.value)) * 1.01
    assert res.converged


def battery_soundness():
    """Fraction of battery entries whose true error sits under the estimate."""
    sound = 0
    total = 0
    for _, f, interval, exact in BATTERY_1D:
        res = integrate_1d(f, interval)
        total += 1
        if abs(res.value - exact) <= max(10.0 * res.error, 1e-13):
            sound += 1
    for _, f, box, exact in BATTERY_2D:
        res = integrate_2d(f, box)
        total += 1
        if abs(res.value - exact) <= max(10.0 * res.error, 1e-13):
            sound += 1
    return sound, total


def test_battery_error_estimates_are_sound():
    sound, total = battery_soundness()
    assert total == 20
    assert sound >= 19


def test_separable_integrand_factorizes():
    fx = lambda x: 1.0 / (1.0 + x)
    gy = lambda y: np.exp(y)
    v2 = integrate_2d(lambda x, y: fx(x) * gy(y), (0.0, 1.0, -1.0, 0.5)).value
    v1a = integrate_1d(fx, (0.0, 1.0)).value
    v1b = integrate_1d(gy, (-1.0, 0.5)).value
    assert abs(v2 - v1a * v1b) < 1e-12


def test_iterated_matches_two_dimensional():
    f = lambda x, y: 1.0 / (1.0 + x + y)

    def outer(x):
        x = np.asarray(x)
        out = np.empty(x.shape)
        for i, xi in np.ndenumerate(x):
            out[i] = integrate_1d(lambda y: f(xi, y), (0.0, 1.0)).value
        return out

    nested = integrate_1d(outer, (0.0, 1.0)).value
    direct = integrate_2d(f, (0.0, 1.0, 0.0, 1.0)).value
    assert abs(nested - direct) < 1e-10


def test_repeated_integrals_are_bit_identical():
    f = lambda x: np.exp(-x * x) * np.sin(3.0 * x + 0.5)
    assert integrate_1d(f, (-2.0, 3.0)) == integrate_1d(f, (-2.0, 3.0))
    g = lambda x, y: np.exp(x * y) / (2.0 + np.sin(x) + np.cos(y))
    assert integrate_2d(g, (0.0, 2.0, -1.0, 1.0)) == integrate_2d(g, (0.0, 2.0, -1.0, 1.0))


def test_nonfinite_integrand_raises():
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        integrate_1d(lambda x: 1.0 / x, (-1.0, 1.0))


def test_nonfinite_bounds_raise():
    with pytest.raises(ValueError):
        integrate_1d(np.exp, (0.0, float("inf")))
    with pytest.raises(ValueError):
        integrate_2d(lambda x, y: x + y, (0.0, float("nan"), 0.0, 1.0))


def test_zero_width_domain_is_zero():
    assert integrate_1d(np.exp, (1.0, 1.0)) == Integral(0.0, 0.0, True)
    assert integrate_2d(lambda x, y: x * y, (0.0, 1.0, 2.0, 2.0)) == Integral(0.0, 0.0, True)


def test_reversed_interval_flips_sign():
    fwd = integrate_1d(np.exp, (0.0, 1.0)).value
    rev = integrate_1d(np.exp, (1.0, 0.0)).value
    assert math.isclose(rev, -fwd, rel_tol=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": -1e-8},
        {"abs_floor": -1.0},
        {"max_subdivisions": 0},
        {"rule_order": 17},
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_higher_order_rule_agrees():
    spec21 = QuadratureSpec(rule_order=21)
    f = lambda x: np.exp(np.sin(2.0 * x)) / (1.5 + np.cos(x))
    a = integrate_1d(f, (0.0, 4.0)).value
    b = integrate_1d(f, (0.0, 4.0), spec21).value
    assert abs(a - b) < 1e-10


def test_tight_tolerance_is_honored():
    spec = QuadratureSpec(rel_tol=1e-12)
    res = integrate_1d(lambda x: 1.0 / (1.0 + x), (0.0, 1.0), spec)
    assert abs(res.value - math.log(2.0)) < 1e-13
    assert res.error <= max(spec.abs_floor, spec.rel_tol * abs(res.value)) * 1.01


def test_compensated_sum_recovers_cancelled_tail():
    # naive summation in double precision loses the 1.0 entirely
    values = np.asarray([1e16, 1.0, -1e16])
    assert compensated_sum(values) == 1.0


def test_compensated_sum_matches_fsum():
    rng = np.random.default_rng(2024)
    values = rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.integers(-8, 8, 2000)
    assert compensated_sum(values) == pytest.approx(math.fsum(values), rel=1e-15, abs=1e-12)


def test_compensated_term_sum_is_elementwise():
    rng = np.random.default_rng(7)
    terms = [rng.uniform(-1, 1, 16) * 10.0 ** rng.integers(-6, 6, 16) for _ in range(10)]
    out = compensated_term_sum(terms)
    stacked = np.stack(terms)
    for i in range(16):
        assert out[i] == pytest.approx(math.fsum(stacked[:, i]), rel=1e-15, abs=1e-13)


MAX_POINTS_PER_CALL = 4096


def counting(f, sizes):
    """Wrap an integrand so each call appends its point count to sizes."""

    def wrapped(*coords):
        sizes.append(coords[0].size)
        return f(*coords)

    return wrapped


@pytest.mark.parametrize("splits", [1, 5, 37])
def test_subdivision_budget_fixes_points_and_batches_whole_cells(splits):
    # far too oscillatory to converge within the budget, so every split is spent
    spec = QuadratureSpec(max_subdivisions=splits)
    for integrate, f, domain, per_cell in [
        (integrate_1d, lambda x: np.sin(1e4 * x), (0.0, 1.0), 15),
        (integrate_2d, lambda x, y: np.sin(1e3 * x) * np.cos(1e3 * y), (0.0, 1.0, 0.0, 1.0), 225),
    ]:
        sizes = []
        assert not integrate(counting(f, sizes), domain, spec).converged
        assert sum(sizes) == (1 + 2 * splits) * per_cell
        assert all(n % per_cell == 0 and n <= MAX_POINTS_PER_CALL for n in sizes)


def test_chart_plane_integral_takes_few_calls(monkeypatch):
    # the k = 2 scan step of certify_instability(1, 0, "x1")
    sizes = []
    inner = hperim.variation.integrate_2d
    monkeypatch.setattr(
        hperim.variation, "integrate_2d",
        lambda f, box, spec: inner(counting(f, sizes), box, spec),
    )
    spec = replace(DEFAULT_SPEC, abs_floor=DEFAULT_SPEC.abs_floor / 4)
    box = (-4.0, 4.0, -4.0, 4.0)
    graph, profile = AlphaBetaGraph(1.0, 0.0), u_k_field(2, 1.0)
    res = hperim.variation.pulled_back_form(graph, profile, 1.5, box, spec)
    assert res.value + res.error < 0.0
    assert len(sizes) <= 60
    assert sum(sizes) <= 160875
    assert max(sizes) <= MAX_POINTS_PER_CALL


@pytest.mark.parametrize("integrate,f,domain,exact", [
    (integrate_1d, lambda x: 1e6 * (1.0 + x * x) ** -2.0, (-1.0, 1.0), 1e6 * (math.pi + 2.0) / 4.0),
    (integrate_2d, lambda x, y: 1e6 / (1.0 + x + y), (0.0, 1.0, 0.0, 1.0), 1e6 * math.log(27.0 / 16.0)),
], ids=["1d", "2d"])
def test_unreachable_tolerance_stops_at_rounding_floor(integrate, f, domain, exact):
    # at this magnitude rounding noise alone keeps the error above abs_floor;
    # with the target out of reach and the split budget far off, only the
    # rounding floor can end refinement
    spec = QuadratureSpec(rel_tol=1e-30)
    sizes = []
    res = integrate(counting(f, sizes), domain, spec)
    assert math.isfinite(res.value) and math.isfinite(res.error)
    assert res.error > spec.abs_floor
    assert not res.converged
    assert sum(sizes) < 100 * 225
    assert abs(res.value - exact) <= 1e-12 * exact
