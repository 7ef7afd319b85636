"""Jet orders: truncation rules, bit identity across orders, sympy oracle.

A jet of order 0 carries the value, order 1 adds the gradient and order 2
the Hessian.  Every order runs the same formulas, so a lower order must
reproduce the value (and gradient) of order 2 bit for bit; these tests
check that on random compositions of every jet operation and on the
product fields the certificates are built from.
"""

import sys

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given
from hypothesis import strategies as st

from hperim.cli import main
from hperim.core import (
    Jet,
    ScalarField,
    flat_exp,
    jet_abs,
    jet_cos,
    jet_exp,
    jet_sin,
    jet_sqrt,
    smooth_step,
)
from hperim.graphs import AlphaBetaGraph
from hperim.identities import random_supported_field
from hperim.instability import a_k_field, certify_instability, hardy_sides, u_k_field
from hperim.quadrature import QuadratureSpec, integrate_2d
from hperim.variation import extend_profile, nu_deformation

# the tolerances of test_core.test_jets_match_symbolic_derivatives
GRAD_TOL = 1e-10
HESS_TOL = 1e-9

# ---------------------------------------------------------------------------
# random expression trees
#
# A tree is ("var", i) or (op, child, ...) with float parameters.  Every
# subtree evaluates to a jet; the operand of a division, sqrt or real power
# is first mapped to 1 + a^2 so each tree is smooth and finite everywhere
# (flat_exp, smooth_step and jet_abs are smooth away from their kinks).

def _trees(nvars):
    leaf = st.tuples(st.just("var"), st.integers(0, nvars - 1))
    const = st.one_of(st.floats(0.25, 2.0), st.floats(-2.0, -0.25))

    def extend(child):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(_JET_UNARY)), child),
            st.tuples(st.sampled_from(("add", "sub", "mul", "div")), child, child),
            st.tuples(st.sampled_from(("radd", "rsub", "cmul", "cdiv", "rdiv")), child, const),
            st.tuples(st.just("ipow"), child, st.integers(-2, 3)),
            st.tuples(st.just("fpow"), child, st.floats(-2.5, 2.5)),
        )

    return st.recursive(leaf, extend, max_leaves=6)


def _positive(a):
    return 1.0 + a * a


def _apply(op, args, unary):
    """Apply ``op`` to its arguments; ``unary`` maps the names of the
    one-argument functions to their jet or symbolic versions."""
    a = args[0]
    if op in unary:
        return unary[op](_positive(a) if op == "sqrt" else a)
    table = {
        "add": lambda: a + args[1],
        "sub": lambda: a - args[1],
        "mul": lambda: a * args[1],
        "div": lambda: a / _positive(args[1]),
        "radd": lambda: args[1] + a,
        "rsub": lambda: args[1] - a,
        "cmul": lambda: args[1] * a,
        "cdiv": lambda: a / args[1],
        "rdiv": lambda: args[1] / _positive(a),
        "ipow": lambda: (a if args[1] >= 0 else _positive(a)) ** args[1],
        "fpow": lambda: _positive(a) ** args[1],
    }
    return table[op]()


_JET_UNARY = {
    "exp": jet_exp, "sqrt": jet_sqrt, "sin": jet_sin, "cos": jet_cos,
    "abs": jet_abs, "flat": flat_exp, "step": smooth_step,
}


def _sym_function(name, imp, derivative):
    """A sympy function that mpmath evaluates by ``imp`` and sympy
    differentiates to ``derivative`` of the same argument."""
    return type(name, (sp.Function,), {
        "_imp_": staticmethod(imp),
        "fdiff": lambda self, argindex=1: derivative(self.args[0]),
    })


_S = sp.Symbol("s", positive=True)


def _flat_derivative(n):
    """n-th derivative of exp(-1/s), derived by sympy, continued by 0 for s <= 0."""
    f = sp.lambdify(_S, sp.diff(sp.exp(-1 / _S), _S, n), "mpmath")
    return lambda a: f(a) if a > 0 else mpmath.mpf(0)


# at most two derivatives are taken, so Flat2 is never differentiated
_Flat2 = _sym_function("Flat2", _flat_derivative(2), lambda a: sp.nan)
_Flat1 = _sym_function("Flat1", _flat_derivative(1), _Flat2)
_Flat = _sym_function("Flat", _flat_derivative(0), _Flat1)
# jet_abs multiplies by sign(a), which is 0 at the kink and constant off it
_Sign = _sym_function("Sign", mpmath.sign, lambda a: sp.S.Zero)
_Abs = _sym_function("AbsValue", abs, _Sign)


_SYM_UNARY = {
    "exp": sp.exp, "sqrt": sp.sqrt, "sin": sp.sin, "cos": sp.cos, "abs": _Abs, "flat": _Flat,
    "step": lambda a: _Flat(2 - a) / (_Flat(2 - a) + _Flat(a - 1)),
}


def _build(tree, leaves, unary):
    if tree[0] == "var":
        return leaves[tree[1]]
    args = [_build(c, leaves, unary) if isinstance(c, tuple) else c for c in tree[1:]]
    return _apply(tree[0], args, unary)


def _leaves_used(tree):
    if tree[0] == "var":
        return {tree[1]}
    return set().union(*(_leaves_used(c) for c in tree[1:] if isinstance(c, tuple)))


def _field(tree, nvars):
    return ScalarField(lambda *jets: _build(tree, jets, _JET_UNARY), nvars)


@st.composite
def _cases(draw):
    nvars = draw(st.integers(1, 3))
    tree = draw(_trees(nvars))
    # no subnormal-scale coordinates: a product of two would underflow to the
    # kink of jet_abs in doubles but not in the oracle's multiprecision
    coord = st.one_of(st.just(0.0), st.floats(1e-3, 2.5), st.floats(-2.5, -1e-3))
    pts = draw(st.lists(coord, min_size=4 * nvars, max_size=4 * nvars))
    return nvars, tree, np.array(pts).reshape(nvars, 4)


# ---------------------------------------------------------------------------
# truncation and bit identity on random compositions


@given(_cases())
def test_lower_orders_match_order_two_bit_for_bit(case):
    nvars, tree, pts = case
    f = _field(tree, nvars)
    with np.errstate(all="ignore"):
        j2 = f.jet(*pts)
        j1 = f.jet(*pts, order=1)
        j0 = f.jet(*pts, order=0)
        value = f.value(*pts)
    assert (j2.order, j1.order, j0.order) == (2, 1, 0)
    assert j1.hess is None and j0.grad is None and j0.hess is None
    assert j0.nvars == j1.nvars == j2.nvars == nvars
    assert j2.hess.shape == (nvars, nvars, 4) and j1.grad.shape == (nvars, 4)
    assert np.array_equal(j1.val, j2.val, equal_nan=True)
    assert np.array_equal(j1.grad, j2.grad, equal_nan=True)
    assert np.array_equal(j0.val, j2.val, equal_nan=True)
    assert np.array_equal(value, j2.val, equal_nan=True)


@given(_cases(), st.data())
def test_mixed_orders_truncate_to_the_lowest(case, data):
    nvars, tree, pts = case
    orders = data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
    jets = [Jet.variable(pts[i], i, nvars, order=o) for i, o in enumerate(orders)]
    with np.errstate(all="ignore"):
        mixed = _build(tree, jets, _JET_UNARY)
        full = _field(tree, nvars).jet(*pts)
    assert mixed.order == min(orders[i] for i in _leaves_used(tree))
    assert np.array_equal(mixed.val, full.val, equal_nan=True)
    if mixed.order > 0:
        assert np.array_equal(mixed.grad, full.grad, equal_nan=True)
    if mixed.order > 1:
        assert np.array_equal(mixed.hess, full.hess, equal_nan=True)


@pytest.mark.parametrize("left", [0, 1, 2])
@pytest.mark.parametrize("right", [0, 1, 2])
def test_each_binary_operation_takes_the_lower_order(left, right):
    a = Jet.variable(np.array([0.3, 1.7]), 0, 2, order=left)
    b = Jet.variable(np.array([-0.4, 0.9]), 1, 2, order=right)
    for out in (a + b, a - b, a * b, a / b):
        assert out.order == min(left, right)
        assert out.nvars == 2
    # constants, unary rules and the zeroth power keep the operand's order
    for out in (a + 1.0, 2.0 - a, 3.0 * a, a / 4.0, 1.0 / a, -a, a ** 0, a ** 2, a ** 0.5,
                jet_exp(a), jet_abs(a), flat_exp(a), smooth_step(a)):
        assert out.order == left


def test_order_must_be_zero_one_or_two():
    with pytest.raises(ValueError, match="order"):
        Jet.variable(1.0, 0, 1, order=3)
    with pytest.raises(ValueError, match="order"):
        ScalarField(lambda x: x, 1).jet(1.0, order=-1)


# ---------------------------------------------------------------------------
# order 2 against the sympy oracle


@given(_cases())
def test_order_two_matches_sympy(case):
    nvars, tree, pts = case
    syms = sp.symbols(f"s0:{nvars}", real=True)
    expr = _build(tree, syms, _SYM_UNARY)
    grad = [sp.diff(expr, s) for s in syms]
    hess = [[sp.diff(g, s) for s in syms] for g in grad]
    oracle = sp.lambdify(syms, [grad, hess], "mpmath")
    j = _field(tree, nvars).jet(*pts)
    for k in range(pts.shape[1]):
        want_g, want_h = oracle(*(mpmath.mpf(float(c)) for c in pts[:, k]))
        want_g = np.array(want_g, dtype=float)
        want_h = np.array(want_h, dtype=float)
        assume(np.all(np.isfinite(want_h)) and np.all(np.abs(want_h) < 1e12))
        np.testing.assert_allclose(j.grad[:, k], want_g, rtol=GRAD_TOL, atol=GRAD_TOL)
        np.testing.assert_allclose(j.hess[:, :, k], want_h, rtol=HESS_TOL, atol=HESS_TOL)


# ---------------------------------------------------------------------------
# the product fields behind the certificates


def _kronrod_nodes():
    """The sample points of a few refined cells of a real 2-D quadrature."""
    seen = []

    def record(y, t):
        seen.append((y.copy(), t.copy()))
        return np.zeros_like(y)

    integrate_2d(record, (-4.0, 4.0, -4.0, 4.0), QuadratureSpec(max_subdivisions=2))
    return np.concatenate([s[0] for s in seen]), np.concatenate([s[1] for s in seen])


def _product_fields():
    graph = AlphaBetaGraph(1.3, -0.7)
    h = u_k_field(2.0, 1.3)
    rng = np.random.default_rng(4)
    nu = nu_deformation(graph, extend_profile(graph, h), (-4.0, 4.0, -4.0, 4.0))
    return {
        "u_k": h,
        "a_k": a_k_field(2.0, 1.3, -0.7),
        "extend_profile": extend_profile(graph, h),
        "nu_a": nu.a,
        "nu_b": nu.b,
        "random_supported": random_supported_field(rng, (-4.0, 4.0), (-4.0, 4.0)),
    }


@pytest.mark.parametrize("name", list(_product_fields()))
def test_product_fields_agree_across_orders(name):
    f = _product_fields()[name]
    y, t = _kronrod_nodes()
    if f.nvars == 2:
        coords = (y, t)
    else:
        # on the graph x = y (1.3 t - 0.7) and off it, inside and past the cutoff
        offset = np.linspace(-2.5, 2.5, y.size)
        coords = (y * (1.3 * t - 0.7) + offset, y, t)
    j2 = f.jet(*coords)
    j1 = f.jet(*coords, order=1)
    assert np.array_equal(j1.val, j2.val)
    assert np.array_equal(j1.grad, j2.grad)
    assert np.array_equal(f.value(*coords), j2.val)
    assert np.any(j2.val != 0.0) and np.any(j2.grad != 0.0)


# ---------------------------------------------------------------------------
# who builds Hessians


def test_only_frames_and_graph_curvature_build_hessians(monkeypatch):
    """A certificate and the table commands carry Hessians only where a
    defining field is differentiated twice."""
    hessian_callers = set()
    field_jet, variable = ScalarField.jet, Jet.variable.__func__

    def recording_jet(self, *coords, order=2):
        if order == 2:
            hessian_callers.add(sys._getframe(1).f_code.co_name)
        return field_jet(self, *coords, order=order)

    def recording_variable(cls, values, index, nvars, *, order=2):
        caller = sys._getframe(1)
        if order == 2 and caller.f_globals["__name__"] != "hperim.core":
            hessian_callers.add(caller.f_code.co_name)
        return variable(cls, values, index, nvars, order=order)

    monkeypatch.setattr(ScalarField, "jet", recording_jet)
    monkeypatch.setattr(Jet, "variable", classmethod(recording_variable))
    certify_instability(1.0, 0.0, "x1", k_max=3)
    certify_instability(1.0, 0.0, "nuh", k_max=3)
    hardy_sides(2.0, 1.0)
    assert main(["burgers", "--mode", "custom", "--coeffs", "0", "1", "0", "0.5", "0", "-0.5"]) == 0
    assert main(["curvature", "--alpha", "1.5", "--beta", "-0.5", "--grid", "5"]) == 0
    assert main(["identities", "--samples", "20", "--ibp-samples", "0"]) == 0
    assert hessian_callers == {"frame_data", "graph_mean_curvature"}
