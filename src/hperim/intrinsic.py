"""Graphs over the vertical (y, t)-plane in exponential chart form.

A scalar profile phi(u, v) parametrizes the surface

    (u, v)  ->  (phi(u, v), u, v - (u/2) phi(u, v)),

and the perimeter functional localizes to the planar integral of
sqrt(1 + B_phi(phi)^2), where B_phi is the quasilinear transport operator

    B_phi(F) = F_u + phi F_v.

Stationarity of the windowed perimeter is the divergence-form equation
B_phi(B_phi(phi) / sqrt(1 + B_phi(phi)^2)) = 0; the left side equals minus
the horizontal mean curvature of the parametrized surface, which the tests
check against the level-set route through the chart.

The ruled family here is phi(u, v) = 2 u (alpha v + beta) / (2 + alpha u^2),
whose parametrized surface is exactly the entire graph x = y (alpha t + beta).
"""

from __future__ import annotations

import numpy as np

from .core import ScalarField
from .quadrature import Integral, QuadratureSpec, integrate_2d
from .surfaces import LevelSurface, SurfacePatch

__all__ = [
    "IntrinsicGraph",
    "burgers",
    "graph_perimeter",
    "graph_first_variation",
    "graph_mean_curvature",
    "family_phi",
    "plane_phi",
    "lift",
    "lift_patch",
]


def family_phi(alpha: float, beta: float) -> ScalarField:
    """Profile of the ruled family; alpha > 0."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return ScalarField(lambda u, v: 2.0 * u * (alpha * v + beta) / (2.0 + alpha * u * u), 2)


def plane_phi(a: float, b: float, c: float) -> ScalarField:
    """Profile of the vertical plane a x + b y = c, written as x = (c - b u) / a."""
    if a == 0:
        raise ValueError("plane profile needs a nonzero x coefficient")
    return ScalarField(lambda u, v: (c - b * u) / a + 0.0 * v, 2)


def _require_profile(phi: ScalarField):
    if phi.nvars != 2:
        raise ValueError("graph profile must be a field of two chart coordinates")


def burgers(phi: ScalarField, F: ScalarField, u, v):
    """Transport derivative B_phi(F) = F_u + phi F_v at (u, v)."""
    _require_profile(phi)
    jf = F.jet(u, v, order=1)
    return jf.grad[0] + phi.value(u, v) * jf.grad[1]


def graph_mean_curvature(phi: ScalarField, u, v):
    """Horizontal mean curvature of the parametrized surface at chart point (u, v).

    With B = B_phi(phi) this is -B_phi(B / sqrt(1 + B^2)), formed from the
    first derivatives of B.
    """
    _require_profile(phi)
    j = phi.jet(u, v)
    G, H = j.grad, j.hess
    b = G[0] + j.val * G[1]
    b_grad = H[0] + G * G[1] + j.val * H[1]
    ratio_grad = b_grad / np.power(1.0 + b * b, 1.5)
    return -(ratio_grad[0] + j.val * ratio_grad[1])


def graph_perimeter(phi: ScalarField, window, spec: QuadratureSpec | None = None) -> Integral:
    """Windowed perimeter: the integral of sqrt(1 + B_phi(phi)^2) over the window."""
    _require_profile(phi)

    def f(u, v):
        j = phi.jet(u, v, order=1)
        b = j.grad[0] + j.val * j.grad[1]
        return np.sqrt(1.0 + b * b)

    return integrate_2d(f, window, spec)


def graph_first_variation(
    phi: ScalarField,
    zeta: ScalarField,
    window,
    form: str = "weak",
    spec: QuadratureSpec | None = None,
) -> Integral:
    """First variation of the windowed perimeter along a compactly supported zeta.

    The weak form integrates
        [B / sqrt(1 + B^2)] (zeta_u + phi zeta_v + zeta phi_v),
    the strong form integrates zeta times the graph mean curvature; they
    agree by parts for zeta supported inside the window.
    """
    _require_profile(phi)
    _require_profile(zeta)
    if form == "weak":

        def f(u, v):
            jp = phi.jet(u, v, order=1)
            jz = zeta.jet(u, v, order=1)
            b = jp.grad[0] + jp.val * jp.grad[1]
            ratio = b / np.sqrt(1.0 + b * b)
            return ratio * (jz.grad[0] + jp.val * jz.grad[1] + jz.val * jp.grad[1])

    elif form == "strong":

        def f(u, v):
            return zeta.value(u, v) * graph_mean_curvature(phi, u, v)

    else:
        raise ValueError(f"form must be 'weak' or 'strong', got {form!r}")

    return integrate_2d(f, window, spec)


def lift(phi: ScalarField) -> LevelSurface:
    """Level-set realization: the parametrized surface is the zero set of
    x - phi(y, t + x y / 2)."""
    _require_profile(phi)
    return LevelSurface(ScalarField(lambda x, y, t: x - phi(y, t + 0.5 * x * y), 3))


def lift_patch(phi: ScalarField, window) -> SurfacePatch:
    """Chart (u, v) -> (phi, u, v - (u/2) phi) as a surface patch of lift(phi)."""
    _require_profile(phi)

    def chart(u, v):
        p = phi(u, v)
        return (p, u, v - 0.5 * u * p)

    return SurfacePatch(chart=chart, box=tuple(float(b) for b in window), transversal="x")


class IntrinsicGraph:
    """A profile together with the window it is studied on."""

    def __init__(self, phi: ScalarField, window):
        _require_profile(phi)
        u0, u1, v0, v1 = (float(b) for b in window)
        if not (u0 < u1 and v0 < v1):
            raise ValueError(f"degenerate window {tuple(window)}")
        self.phi = phi
        self.window = (u0, u1, v0, v1)

    def perimeter(self, spec=None) -> Integral:
        return graph_perimeter(self.phi, self.window, spec)

    def first_variation(self, zeta, form="weak", spec=None) -> Integral:
        return graph_first_variation(self.phi, zeta, self.window, form, spec)

    def mean_curvature(self, u, v):
        return graph_mean_curvature(self.phi, u, v)

    def burgers(self, F, u, v):
        return burgers(self.phi, F, u, v)

    def level_surface(self) -> LevelSurface:
        return lift(self.phi)

    def patch(self) -> SurfacePatch:
        return lift_patch(self.phi, self.window)
