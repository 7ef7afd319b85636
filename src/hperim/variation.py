"""First and second variation of the horizontal perimeter.

Deformation fields are ambient vector fields a X1 + b X2 + k T with
compactly supported coefficients.  The first variation of the perimeter of
a level surface along such a field is the surface integral of

    (mean curvature) * (a p + b q + k omega) / W.

The second variation is the surface integral of a quadratic form in the
coefficients and their tangential derivatives.  The general integrand is
accumulated in the fixed order

     1.  -2 (pbar Zb - qbar Za)(Tk - obar Yk)
     2.  (Ta - obar Ya)(-2 qbar Zk - qbar (a pbar + b qbar) - pbar (a qbar - b pbar))
     3.  (Tb - obar Yb)( 2 pbar Zk + pbar (a pbar + b qbar) - qbar (a qbar - b pbar))
     4.  2 (a qbar - b pbar)(qbar Za - pbar Zb) obar
     5.  (Za + obar pbar Zk)^2
     6.  (Zb + obar qbar Zk)^2
     7.  (a^2 + b^2) obar^2
     8.  2 obar (a Za + b Zb)
     9.  2 obar^2 (a pbar + b qbar) Zk
    10.  -(qbar Za - pbar Zb + (a qbar - b pbar) obar)^2

with elementwise compensated summation, so results are reproducible to the
bit.  Specialized routes exist for deformations along X1 alone and along
the horizontal normal; each has a raw form (direct substitution into the
general integrand) and a reduced form obtained by parts, in which the
zeroth-order coefficient is assembled from frame-quantity derivatives.  On
the ruled family x = y (alpha t + beta) the reduced forms pull back through
the chart to plane integrals

    x1:  iint (1 + a y^2/2) u_y^2 / (1 + s^2)^(3/2)
             - 2a iint u^2 / ((1 + a y^2/2)(1 + s^2)^(3/2)),
    nu:  same with exponent 1/2 instead of 3/2,       s = alpha t + beta,

which is the cheapest certified route and the one the instability scan uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScalarField, jet_abs, smooth_step
from .graphs import AlphaBetaGraph
from .quadrature import Integral, QuadratureSpec, compensated_term_sum, integrate_2d
from .surfaces import FrameData, LevelSurface, SurfacePatch, integrate_on_surface

__all__ = [
    "DeformationField",
    "zero_field",
    "extend_profile",
    "nu_deformation",
    "first_variation",
    "second_variation_general",
    "second_variation_x1",
    "second_variation_nu",
    "pulled_back_form",
]

_SUPPORT_TOL = 1e-12


def zero_field(nvars: int = 3) -> ScalarField:
    return ScalarField(lambda *args: 0.0 * args[0], nvars)


@dataclass(frozen=True)
class DeformationField:
    """Coefficients of a X1 + b X2 + k T, supported in a chart-coordinate box."""

    a: ScalarField
    b: ScalarField
    k: ScalarField
    support: tuple

    @classmethod
    def along_x1(cls, a: ScalarField, support) -> "DeformationField":
        return cls(a, zero_field(), zero_field(), tuple(float(s) for s in support))

    def components(self):
        return (self.a, self.b, self.k)


def _check_boundary_support(fields, patch: SurfacePatch, n: int = 33):
    """The integration box must swallow the support: sampled boundary check."""
    u0, u1, v0, v1 = patch.box
    us = np.linspace(u0, u1, n)
    vs = np.linspace(v0, v1, n)
    edge_u = np.concatenate([us, us, np.full(n, u0), np.full(n, u1)])
    edge_v = np.concatenate([np.full(n, v0), np.full(n, v1), vs, vs])
    cx, cy, ct = patch.chart_jets(edge_u, edge_v)
    for f in fields:
        if f is None:
            continue
        vals = np.asarray(f.value(cx.val, cy.val, ct.val))
        worst = float(np.max(np.abs(vals)))
        if worst > _SUPPORT_TOL:
            raise ValueError(
                f"deformation does not vanish on the patch boundary (max |f| = {worst:.3e}); "
                "enlarge the patch to cover the support"
            )


def _derivs(fd: FrameData, f: ScalarField):
    """(value, Zf, Yf, Tf) of a coefficient field at the frame's points; the
    first derivatives are all the integrands read, so the jet is of order 1."""
    jet = f.jet(fd.x, fd.y, fd.t, order=1)
    return jet.val, fd.z_of(jet.grad), fd.y_of(jet.grad), jet.grad[2]


def first_variation(
    surface: LevelSurface,
    patch: SurfacePatch,
    deformation: DeformationField,
    spec: QuadratureSpec | None = None,
) -> Integral:
    """First variation of the perimeter along the deformation."""
    _check_boundary_support(deformation.components(), patch)
    fa, fb, fk = deformation.components()

    def term(fd: FrameData):
        av = fa.value(fd.x, fd.y, fd.t)
        bv = fb.value(fd.x, fd.y, fd.t)
        kv = fk.value(fd.x, fd.y, fd.t)
        return fd.mean_curvature * (av * fd.p + bv * fd.q + kv * fd.omega) / fd.W

    return integrate_on_surface(surface, patch, term, spec)


def second_variation_general(
    surface: LevelSurface,
    patch: SurfacePatch,
    deformation: DeformationField,
    spec: QuadratureSpec | None = None,
) -> Integral:
    """Second variation along a X1 + b X2 + k T through the general integrand."""
    _check_boundary_support(deformation.components(), patch)
    fa, fb, fk = deformation.components()

    def term(fd: FrameData):
        av, za, ya, ta = _derivs(fd, fa)
        bv, zb, yb, tb = _derivs(fd, fb)
        kv, zk, yk, tk = _derivs(fd, fk)
        pb, qb, ob = fd.pbar, fd.qbar, fd.obar
        radial = av * pb + bv * qb
        skew = av * qb - bv * pb
        terms = [
            -2.0 * (pb * zb - qb * za) * (tk - ob * yk),
            (ta - ob * ya) * (-2.0 * qb * zk - qb * radial - pb * skew),
            (tb - ob * yb) * (2.0 * pb * zk + pb * radial - qb * skew),
            2.0 * skew * (qb * za - pb * zb) * ob,
            (za + ob * pb * zk) ** 2,
            (zb + ob * qb * zk) ** 2,
            (av * av + bv * bv) * ob * ob,
            2.0 * ob * (av * za + bv * zb),
            2.0 * ob * ob * radial * zk,
            -((qb * za - pb * zb + skew * ob) ** 2),
        ]
        return compensated_term_sum(terms)

    return integrate_on_surface(surface, patch, term, spec)


def second_variation_x1(
    surface: LevelSurface,
    patch: SurfacePatch,
    a: ScalarField,
    spec: QuadratureSpec | None = None,
    form: str = "raw",
) -> Integral:
    """Second variation along a X1.

    The raw form substitutes b = k = 0 into the general integrand; the
    reduced form, equal after integration by parts, is
    pbar^2 (Za)^2 + a^2 C with C the zeroth-order coefficient
    ``FrameData.reduced_x1``.
    """
    _check_boundary_support([a], patch)

    if form == "raw":

        def term(fd: FrameData):
            av, za, ya, ta = _derivs(fd, a)
            pb, qb, ob = fd.pbar, fd.qbar, fd.obar
            terms = [
                pb * pb * za * za,
                pb * pb * ob * ob * av * av,
                ob * 2.0 * av * za,
                -pb * qb * (2.0 * av * ta - ob * 2.0 * av * ya),
            ]
            return compensated_term_sum(terms)

    elif form == "reduced":

        def term(fd: FrameData):
            av, za, _, _ = _derivs(fd, a)
            return fd.pbar * fd.pbar * za * za + av * av * fd.reduced_x1

    else:
        raise ValueError(f"form must be 'raw' or 'reduced', got {form!r}")

    return integrate_on_surface(surface, patch, term, spec)


def second_variation_nu(
    surface: LevelSurface,
    patch: SurfacePatch,
    h: ScalarField,
    k: ScalarField | None = None,
    spec: QuadratureSpec | None = None,
    form: str = "raw",
) -> Integral:
    """Second variation along h nu_H + k T.

    Raw form (any k):
        (Zh + obar Zk)^2 + 2 h H (Tk - obar Yk)
        + obar Z(h^2) + 2 A h Zk + A h^2
    with H the mean curvature and A the a-coefficient.  Reduced form
    (requires k = None):  (Zh)^2 + h^2 C with C = ``FrameData.reduced_nu``.
    """
    _check_boundary_support([h, k], patch)

    if form == "raw":

        def term(fd: FrameData):
            hv, zh, _, _ = _derivs(fd, h)
            if k is None:
                zk = yk = tk = 0.0
            else:
                _, zk, yk, tk = _derivs(fd, k)
            ob = fd.obar
            acoeff = fd.a_coeff
            terms = [
                (zh + ob * zk) ** 2,
                2.0 * hv * fd.mean_curvature * (tk - ob * yk),
                ob * 2.0 * hv * zh,
                2.0 * acoeff * hv * zk,
                acoeff * hv * hv,
            ]
            return compensated_term_sum(terms)

    elif form == "reduced":
        if k is not None:
            raise ValueError("the reduced normal form assumes no T component")

        def term(fd: FrameData):
            hv, zh, _, _ = _derivs(fd, h)
            return zh * zh + hv * hv * fd.reduced_nu

    else:
        raise ValueError(f"form must be 'raw' or 'reduced', got {form!r}")

    return integrate_on_surface(surface, patch, term, spec)


def extend_profile(graph: AlphaBetaGraph, u: ScalarField, cut_scale: float = 1.0) -> ScalarField:
    """Ambient extension of a chart profile u(y, t).

    Constant along the x-fibers near the surface and cut off smoothly in
    the defining function, so composing with the chart returns u exactly.
    """
    if u.nvars != 2:
        raise ValueError("profile must be a field of the two chart coordinates")
    al, be = graph.alpha, graph.beta

    def rule(x, y, t):
        s = x - y * (al * t + be)
        return u(y, t) * smooth_step(jet_abs(s) * (1.0 / cut_scale))

    return ScalarField(rule, 3)


def nu_deformation(graph: AlphaBetaGraph, h: ScalarField, support) -> DeformationField:
    """Deformation h nu_H written in frame coefficients (a, b, 0) = (h pbar, h qbar, 0)."""
    al, be = graph.alpha, graph.beta

    def pbar_rule(x, y, t):
        p = 1.0 + 0.5 * al * y * y
        q = -(al * t + be) - 0.5 * al * x * y
        return p / (p * p + q * q) ** 0.5

    def qbar_rule(x, y, t):
        p = 1.0 + 0.5 * al * y * y
        q = -(al * t + be) - 0.5 * al * x * y
        return q / (p * p + q * q) ** 0.5

    pbar = ScalarField(pbar_rule, 3)
    qbar = ScalarField(qbar_rule, 3)
    a = ScalarField(lambda x, y, t: pbar(x, y, t) * h(x, y, t), 3)
    b = ScalarField(lambda x, y, t: qbar(x, y, t) * h(x, y, t), 3)
    return DeformationField(a, b, zero_field(), tuple(float(s) for s in support))


def pulled_back_form(
    graph: AlphaBetaGraph,
    u: ScalarField,
    exponent: float,
    box,
    spec: QuadratureSpec | None = None,
) -> Integral:
    """Chart-plane quadratic form of the reduced second variation.

    exponent 1.5 gives the X1 route, 0.5 the horizontal-normal route.
    """
    if u.nvars != 2:
        raise ValueError("profile must be a field of the two chart coordinates")
    al, be = graph.alpha, graph.beta

    def f(yy, tt):
        j = u.jet(yy, tt, order=1)
        uy = j.grad[0]
        s = al * tt + be
        c1 = 1.0 + 0.5 * al * yy * yy
        de = np.power(1.0 + s * s, exponent)
        return compensated_term_sum([
            c1 * uy * uy / de,
            -2.0 * al * j.val * j.val / (c1 * de),
        ])

    return integrate_2d(f, box, spec)
