"""Group operations, the jet algebra, and left-invariant frame derivatives."""

import math

import numpy as np
import pytest
import sympy as sp

from hperim.core import (
    IDENTITY,
    Jet,
    Point,
    ScalarField,
    dilation,
    flat_exp,
    group_inverse,
    group_mul,
    jet_abs,
    jet_cos,
    jet_exp,
    jet_sin,
    jet_sqrt,
    smooth_step,
)
from hperim.surfaces import LevelSurface

GRAD_FD_TOL = 1e-6
HESS_FD_TOL = 1e-4
EXACT_TOL = 1e-12
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# group structure


def test_group_product_example():
    # the product of the two horizontal unit translations picks up area 1/2
    g = group_mul(Point(1.0, 0.0, 0.0), Point(0.0, 1.0, 0.0))
    assert g == Point(1.0, 1.0, 0.5)


def test_group_product_is_noncommutative():
    g = Point(1.0, 0.0, 0.0)
    h = Point(0.0, 1.0, 0.0)
    assert group_mul(g, h).t == -group_mul(h, g).t != 0.0


def test_group_axioms_on_random_points():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g, h, w = (Point(*rng.uniform(-3, 3, 3)) for _ in range(3))
        lhs = group_mul(group_mul(g, h), w)
        rhs = group_mul(g, group_mul(h, w))
        assert math.isclose(lhs.x, rhs.x, abs_tol=EXACT_TOL)
        assert math.isclose(lhs.y, rhs.y, abs_tol=EXACT_TOL)
        assert math.isclose(lhs.t, rhs.t, abs_tol=EXACT_TOL)
        assert group_mul(g, IDENTITY) == g
        assert group_mul(IDENTITY, g) == g
        gi = group_mul(g, group_inverse(g))
        assert abs(gi.x) < EXACT_TOL and abs(gi.y) < EXACT_TOL and abs(gi.t) < EXACT_TOL


def test_inverse_is_coordinate_negation():
    g = Point(1.5, -0.5, 2.0)
    assert group_inverse(g) == Point(-1.5, 0.5, -2.0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 7.25])
def test_dilation_is_an_automorphism(lam):
    rng = np.random.default_rng(3)
    for _ in range(10):
        g, h = Point(*rng.uniform(-2, 2, 3)), Point(*rng.uniform(-2, 2, 3))
        a = dilation(lam, group_mul(g, h))
        b = group_mul(dilation(lam, g), dilation(lam, h))
        assert math.isclose(a.x, b.x, rel_tol=1e-14, abs_tol=EXACT_TOL)
        assert math.isclose(a.t, b.t, rel_tol=1e-14, abs_tol=EXACT_TOL)


def test_dilation_scaling_weights():
    g = dilation(2.0, Point(1.0, 2.0, 3.0))
    assert g == Point(2.0, 4.0, 12.0)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_dilation_rejects_nonpositive_factor(lam):
    with pytest.raises(ValueError):
        dilation(lam, Point(1.0, 0.0, 0.0))


def test_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"), 0.0)


# ---------------------------------------------------------------------------
# jet algebra


def _sample_fields():
    """Smooth 3-variable fields exercising every jet operation."""
    return [
        ScalarField(lambda x, y, t: x * y + t * t, 3),
        ScalarField(lambda x, y, t: jet_exp(jet_sin(x * y) * 0.5 + 0.1 * t), 3),
        ScalarField(lambda x, y, t: (1.0 + x * x + y * y) ** -1.5 + jet_cos(t), 3),
        ScalarField(lambda x, y, t: jet_sqrt(2.0 + x + 0.5 * y * t) / (3.0 + jet_sin(t)), 3),
        ScalarField(lambda x, y, t: (x - 2.0 * t) / (2.0 + y * y) + x ** 3, 3),
    ]


def _fd_gradient(f, pt, h=FD_STEP):
    g = np.zeros(3)
    for i in range(3):
        lo, hi = list(pt), list(pt)
        lo[i] -= h
        hi[i] += h
        g[i] = (f.value(*hi) - f.value(*lo)) / (2.0 * h)
    return g


def _fd_hessian(f, pt, h=FD_STEP):
    H = np.zeros((3, 3))
    f0 = f.value(*pt)
    for i in range(3):
        hi, lo = list(pt), list(pt)
        hi[i] += h
        lo[i] -= h
        H[i, i] = (f.value(*hi) - 2.0 * f0 + f.value(*lo)) / (h * h)
    for i in range(3):
        for j in range(i + 1, 3):
            pp, pm, mp, mm = (list(pt) for _ in range(4))
            pp[i] += h; pp[j] += h
            pm[i] += h; pm[j] -= h
            mp[i] -= h; mp[j] += h
            mm[i] -= h; mm[j] -= h
            H[i, j] = H[j, i] = (
                f.value(*pp) - f.value(*pm) - f.value(*mp) + f.value(*mm)
            ) / (4.0 * h * h)
    return H


@pytest.mark.parametrize("field_index", range(5))
def test_jets_match_central_differences(field_index):
    f = _sample_fields()[field_index]
    rng = np.random.default_rng(101 + field_index)
    for _ in range(5):
        pt = rng.uniform(-1.2, 1.2, 3)
        j = f.jet(*pt)
        assert np.allclose(j.grad, _fd_gradient(f, pt), atol=GRAD_FD_TOL)
        assert np.allclose(j.hess, _fd_hessian(f, pt), atol=HESS_FD_TOL)


def test_jets_match_symbolic_derivatives():
    """Full second-order agreement with sympy on a composite expression."""
    x, y, t = sp.symbols("x y t")
    expr = sp.exp(sp.sin(x * y) + t * t * x) / sp.sqrt(2 + sp.cos(y + t))
    syms = (x, y, t)
    grad_fns = [sp.lambdify(syms, sp.diff(expr, s), "math") for s in syms]
    hess_fns = [[sp.lambdify(syms, sp.diff(expr, a, b), "math") for b in syms] for a in syms]

    f = ScalarField(
        lambda xj, yj, tj: jet_exp(jet_sin(xj * yj) + tj * tj * xj)
        / jet_sqrt(2.0 + jet_cos(yj + tj)),
        3,
    )
    rng = np.random.default_rng(5)
    for _ in range(6):
        pt = rng.uniform(-1.0, 1.0, 3)
        j = f.jet(*pt)
        for i in range(3):
            want = grad_fns[i](*pt)
            assert math.isclose(float(j.grad[i]), want, rel_tol=1e-10, abs_tol=1e-10)
            for k in range(3):
                want2 = hess_fns[i][k](*pt)
                assert math.isclose(float(j.hess[i, k]), want2, rel_tol=1e-9, abs_tol=1e-9)


def test_hessian_is_symmetric():
    rng = np.random.default_rng(11)
    for f in _sample_fields():
        pt = rng.uniform(-1.0, 1.0, 3)
        j = f.jet(*pt)
        assert np.allclose(j.hess, j.hess.T, atol=1e-12)


def test_jet_batched_evaluation_matches_scalar():
    f = _sample_fields()[1]
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, (3, 40))
    jb = f.jet(*pts)
    assert jb.val.shape == (40,)
    assert jb.grad.shape == (3, 40)
    assert jb.hess.shape == (3, 3, 40)
    for i in (0, 13, 39):
        js = f.jet(pts[0, i], pts[1, i], pts[2, i])
        assert np.allclose(jb.val[i], js.val, atol=1e-15)
        assert np.allclose(jb.grad[:, i], js.grad, atol=1e-15)
        assert np.allclose(jb.hess[:, :, i], js.hess, atol=1e-15)


def test_integer_powers_follow_power_rule():
    u = Jet.variable(np.asarray(1.5), 0, 1)
    j = u ** 4
    assert math.isclose(float(j.val), 1.5 ** 4)
    assert math.isclose(float(j.grad[0]), 4 * 1.5 ** 3)
    assert math.isclose(float(j.hess[0, 0]), 12 * 1.5 ** 2)
    assert float((u ** 0).val) == 1.0 and float((u ** 0).grad[0]) == 0.0


def test_real_powers_and_sqrt_agree():
    u = Jet.variable(np.asarray(2.3), 0, 1)
    a = u ** 0.5
    b = jet_sqrt(u)
    assert math.isclose(float(a.val), float(b.val), rel_tol=1e-14)
    assert math.isclose(float(a.grad[0]), float(b.grad[0]), rel_tol=1e-13)
    assert math.isclose(float(a.hess[0, 0]), float(b.hess[0, 0]), rel_tol=1e-12)


def test_division_reciprocal_chain():
    u = Jet.variable(np.asarray(0.7), 0, 1)
    j = 2.0 / (1.0 + u * u)
    # d/du 2/(1+u^2) = -4u/(1+u^2)^2
    want = -4 * 0.7 / (1 + 0.49) ** 2
    assert math.isclose(float(j.grad[0]), want, rel_tol=1e-13)


def test_numpy_scalars_defer_to_jet_arithmetic():
    u = Jet.variable(np.asarray(1.0), 0, 1)
    j = np.float64(3.0) * u + np.float64(1.0)
    assert float(j.val) == 4.0
    assert float(j.grad[0]) == 3.0


def test_scalar_field_lifts_constant_rules():
    f = ScalarField(lambda x, y, t: 2.5, 3)
    j = f.jet(np.zeros(4), np.zeros(4), np.zeros(4))
    assert np.all(j.val == 2.5)
    assert np.all(j.grad == 0.0)
    # the lifted constant keeps the order of the jets the rule was given
    for order in (0, 1, 2):
        j = f.jet(np.zeros(4), np.zeros(4), np.zeros(4), order=order)
        assert j.order == order and j.nvars == 3
        assert np.all(j.val == 2.5)


# ---------------------------------------------------------------------------
# frame derivatives, as FrameData takes them


def _frame(f, g):
    """FrameData of the field f at the point g: p, q, omega = X1 f, X2 f, T f."""
    return LevelSurface(f).frame_data(g.x, g.y, g.t)


def test_frame_derivative_on_coordinates():
    f_x = ScalarField(lambda x, y, t: x + 0.0 * y, 3)
    f_t = ScalarField(lambda x, y, t: t + 0.0 * x, 3)
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = Point(*rng.uniform(-2, 2, 3))
        fd_t = _frame(f_t, g)
        assert math.isclose(float(_frame(f_x, g).p), 1.0, abs_tol=EXACT_TOL)
        assert math.isclose(float(fd_t.p), -0.5 * g.y, abs_tol=EXACT_TOL)
        assert math.isclose(float(fd_t.q), 0.5 * g.x, abs_tol=EXACT_TOL)
        assert math.isclose(float(fd_t.omega), 1.0, abs_tol=EXACT_TOL)


def test_frame_commutator_is_the_vertical_field():
    """X1 X2 f - X2 X1 f = T f for smooth f."""
    rng = np.random.default_rng(31)
    for f in _sample_fields()[:3]:
        for _ in range(4):
            fd = _frame(f, Point(*rng.uniform(-1.5, 1.5, 3)))
            comm = float(fd.x1_of(fd.grad_q) - fd.x2_of(fd.grad_p))
            assert math.isclose(comm, float(fd.omega), rel_tol=1e-10, abs_tol=1e-10)


def test_frame_second_against_symbolic_operators():
    """Apply the frame fields twice symbolically and compare numerically."""
    x, y, t = sp.symbols("x y t")

    def sym_x1(e):
        return sp.diff(e, x) - y / 2 * sp.diff(e, t)

    def sym_x2(e):
        return sp.diff(e, y) + x / 2 * sp.diff(e, t)

    expr = x - y * t
    # closed check first: X2 X2 (x - y t) = -x
    assert sp.simplify(sym_x2(sym_x2(expr)) - (-x)) == 0

    f = ScalarField(lambda xj, yj, tj: xj - yj * tj, 3)
    rng = np.random.default_rng(37)
    for _ in range(4):
        g = Point(*rng.uniform(-2, 2, 3))
        subs = {x: g.x, y: g.y, t: g.t}
        fd = _frame(f, g)
        # grad_p and grad_q are the gradients of X1 f and X2 f
        pairs = [
            (sym_x1(sym_x1(expr)), fd.x1_of(fd.grad_p)),
            (sym_x2(sym_x1(expr)), fd.x2_of(fd.grad_p)),
            (sym_x1(sym_x2(expr)), fd.x1_of(fd.grad_q)),
            (sym_x2(sym_x2(expr)), fd.x2_of(fd.grad_q)),
        ]
        for want, got in pairs:
            assert math.isclose(float(got), float(want.subs(subs)), rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# flat step profile


def _step_field():
    return ScalarField(lambda s: smooth_step(s), 1)


def test_flat_exp_is_identically_zero_on_the_left():
    f = ScalarField(lambda s: flat_exp(s), 1)
    j = f.jet(np.asarray([-1.0, 0.0, 1e-12]))
    assert np.all(j.val == 0.0)
    assert np.all(j.grad == 0.0)
    assert np.all(j.hess == 0.0)


def test_flat_exp_positive_branch():
    f = ScalarField(lambda s: flat_exp(s), 1)
    j = f.jet(np.asarray(2.0))
    assert math.isclose(float(j.val), math.exp(-0.5), rel_tol=1e-14)
    # d/dt exp(-1/t) = exp(-1/t)/t^2
    assert math.isclose(float(j.grad[0]), math.exp(-0.5) / 4.0, rel_tol=1e-13)


def test_smooth_step_plateaus_and_midpoint():
    f = _step_field()
    j = f.jet(np.asarray([0.0, 0.3, 1.0, 1.5, 2.0, 2.7]))
    assert np.allclose(j.val[:3], 1.0, atol=0)
    assert np.allclose(j.val[4:], 0.0, atol=0)
    assert math.isclose(float(j.val[3]), 0.5, abs_tol=1e-15)
    # derivative vanishes identically on both plateaus
    assert np.all(j.grad[0][[0, 1, 2, 4, 5]] == 0.0)


def test_smooth_step_midpoint_slope():
    # at s = 3/2 both exponential weights equal e^{-2} and the quotient rule
    # collapses to psi' = -2
    j = _step_field().jet(np.asarray(1.5))
    assert math.isclose(float(j.grad[0]), -2.0, rel_tol=1e-12)


def test_smooth_step_symmetry_on_transition():
    f = _step_field()
    s = np.linspace(1.0, 2.0, 41)
    a = f.value(s)
    b = f.value(3.0 - s)
    assert np.allclose(a + b, 1.0, atol=1e-15)


def test_smooth_step_monotone_on_transition():
    vals = _step_field().value(np.linspace(1.0, 2.0, 200))
    assert np.all(np.diff(vals) <= 0.0)


def test_jet_abs_matches_absolute_value_off_origin():
    f = ScalarField(lambda s: jet_abs(s), 1)
    j = f.jet(np.asarray([-2.0, 3.0]))
    assert np.allclose(j.val, [2.0, 3.0])
    assert np.allclose(j.grad[0], [-1.0, 1.0])
