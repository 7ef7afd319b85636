"""Level-set surfaces: horizontal frame, tangential operators, curvature,
and perimeter integration over charted patches.

A surface is the zero set of a defining field phi.  Writing p = X1 phi,
q = X2 phi, omega = T phi and W = sqrt(p^2 + q^2), the horizontal Gauss map
is nu_H = pbar X1 + qbar X2 with pbar = p/W, qbar = q/W, and the tangential
operators are

    Z f = qbar X1 f - pbar X2 f      (horizontal, tangent to the surface)
    Y f = pbar X1 f + qbar X2 f      (the nu_H component of the gradient).

The horizontal mean curvature is X1 pbar + X2 qbar, and the torsion-like
coefficient entering second variations is

    (pbar T qbar - qbar T pbar) + obar (qbar Y pbar - pbar Y qbar) + obar^2

with obar = omega / W.  All of these need one derivative of quantities that
already contain one derivative of phi, so they are assembled from the exact
second-order jet of phi; nothing here differentiates numerically.

Points where W vanishes relative to the full gradient are characteristic:
the frame is undefined there and evaluation raises instead of returning
garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Jet, ScalarField
from .quadrature import Integral, QuadratureSpec, integrate_2d

__all__ = [
    "CharacteristicPointError",
    "ChartDegenerateError",
    "CHARACTERISTIC_RTOL",
    "SurfaceFrame",
    "FrameData",
    "LevelSurface",
    "SurfacePatch",
    "integrate_on_surface",
    "h_perimeter_integral",
]


class CharacteristicPointError(ValueError):
    """The horizontal gradient vanishes; the surface frame is undefined."""


class ChartDegenerateError(ValueError):
    """The chart transversal is tangent to the surface at a sample point."""


CHARACTERISTIC_RTOL = 1e-10
_CHART_RTOL = 1e-12


@dataclass(frozen=True)
class SurfaceFrame:
    """Frame quantities of a defining field at one point."""

    p: float
    q: float
    omega: float
    W: float
    pbar: float
    qbar: float
    obar: float


class FrameData:
    """Batched frame quantities and their first coordinate derivatives.

    Gradients are Euclidean (d/dx, d/dy, d/dt) with shape (3,) + batch; the
    helpers turn them into frame and tangential derivatives.  Derived
    scalars (mean curvature, the second-variation coefficient, Z obar) are
    precomputed; the reduced-form coefficients are computed on access.
    """

    __slots__ = (
        "x", "y", "t",
        "p", "q", "omega", "W", "n_norm",
        "pbar", "qbar", "obar",
        "grad_p", "grad_q", "grad_omega", "grad_W",
        "grad_pbar", "grad_qbar", "grad_obar",
        "mean_curvature", "a_coeff", "z_obar",
    )

    def __init__(self, phi_jet: Jet, x, y, t):
        G = phi_jet.grad
        H = phi_jet.hess
        self.x, self.y, self.t = x, y, t

        p = G[0] - 0.5 * y * G[2]
        q = G[1] + 0.5 * x * G[2]
        omega = G[2]
        grad_p = H[0] - 0.5 * y * H[2]
        grad_p = np.stack([grad_p[0], grad_p[1] - 0.5 * G[2], grad_p[2]])
        grad_q = H[1] + 0.5 * x * H[2]
        grad_q = np.stack([grad_q[0] + 0.5 * G[2], grad_q[1], grad_q[2]])
        grad_omega = H[2]

        W = np.sqrt(p * p + q * q)
        n_norm = np.sqrt(p * p + q * q + omega * omega)
        bad = W < CHARACTERISTIC_RTOL * n_norm
        if np.any(bad):
            idx = np.argmax(np.atleast_1d(bad))
            loc = tuple(
                float(np.ravel(c)[idx]) if np.ndim(c) else float(c)
                for c in (x, y, t)
            )
            raise CharacteristicPointError(
                f"horizontal gradient degenerate near point {loc}: W < {CHARACTERISTIC_RTOL} * |grad phi|"
            )

        grad_W = (p * grad_p + q * grad_q) / W
        pbar = p / W
        qbar = q / W
        obar = omega / W
        self.p, self.q, self.omega, self.W, self.n_norm = p, q, omega, W, n_norm
        self.pbar, self.qbar, self.obar = pbar, qbar, obar
        self.grad_p, self.grad_q, self.grad_omega, self.grad_W = grad_p, grad_q, grad_omega, grad_W
        self.grad_pbar = (grad_p - pbar * grad_W) / W
        self.grad_qbar = (grad_q - qbar * grad_W) / W
        self.grad_obar = (grad_omega - obar * grad_W) / W

        self.mean_curvature = self.x1_of(self.grad_pbar) + self.x2_of(self.grad_qbar)
        self.z_obar = self.z_of(self.grad_obar)
        t_pbar = self.grad_pbar[2]
        t_qbar = self.grad_qbar[2]
        self.a_coeff = (
            (pbar * t_qbar - qbar * t_pbar)
            + obar * (qbar * self.y_of(self.grad_pbar) - pbar * self.y_of(self.grad_qbar))
            + obar * obar
        )

    @property
    def reduced_x1(self):
        """Zeroth-order coefficient of the reduced X1 second variation:
        (pbar T qbar + qbar T pbar) - obar (pbar Y qbar + qbar Y pbar)
        - qbar^2 obar^2 - Z obar - pbar qbar obar (mean curvature)."""
        pb, qb, ob = self.pbar, self.qbar, self.obar
        return (
            (pb * self.grad_qbar[2] + qb * self.grad_pbar[2])
            - ob * (pb * self.y_of(self.grad_qbar) + qb * self.y_of(self.grad_pbar))
            - qb ** 2 * ob ** 2
            - self.z_obar
            - pb * qb * ob * self.mean_curvature
        )

    @property
    def reduced_nu(self):
        """Zeroth-order coefficient 2 A - obar^2 of the reduced normal second variation."""
        return 2.0 * self.a_coeff - self.obar ** 2

    # directional derivatives from Euclidean gradients
    def x1_of(self, grad):
        return grad[0] - 0.5 * self.y * grad[2]

    def x2_of(self, grad):
        return grad[1] + 0.5 * self.x * grad[2]

    def t_of(self, grad):
        return grad[2]

    def z_of(self, grad):
        return self.qbar * self.x1_of(grad) - self.pbar * self.x2_of(grad)

    def y_of(self, grad):
        return self.pbar * self.x1_of(grad) + self.qbar * self.x2_of(grad)


class LevelSurface:
    """Zero set of a defining scalar field of the ambient coordinates."""

    def __init__(self, phi: ScalarField):
        if phi.nvars != 3:
            raise ValueError("a level surface needs a field of the three ambient coordinates")
        self.phi = phi

    def frame_data(self, x, y, t) -> FrameData:
        return FrameData(self.phi.jet(x, y, t), np.asarray(x, float), np.asarray(y, float), np.asarray(t, float))


@dataclass(frozen=True)
class SurfacePatch:
    """A charted piece of a surface.

    ``chart`` maps two parameter jets to a triple of coordinate jets landing
    on the surface; ``box`` is the parameter rectangle (u0, u1, v0, v1);
    ``transversal`` names the ambient coordinate direction ('x', 'y' or 't')
    used for the perimeter-measure pullback.
    """

    chart: Callable[[Jet, Jet], tuple]
    box: tuple
    transversal: str = "x"

    def __post_init__(self):
        if self.transversal not in ("x", "y", "t"):
            raise ValueError(f"transversal must be 'x', 'y' or 't', got {self.transversal!r}")
        u0, u1, v0, v1 = (float(b) for b in self.box)
        if not (u0 < u1 and v0 < v1):
            raise ValueError(f"degenerate parameter box {self.box}")

    def chart_jets(self, u, v) -> tuple:
        """Order-1 jets of the chart coordinates at parameters (u, v); the
        perimeter measure reads only their gradients."""
        ju = Jet.variable(np.asarray(u, float), 0, 2, order=1)
        jv = Jet.variable(np.asarray(v, float), 1, 2, order=1)
        cx, cy, ct = self.chart(ju, jv)
        out = []
        for comp in (cx, cy, ct):
            if not isinstance(comp, Jet):
                comp = Jet.constant(np.broadcast_to(float(comp), ju.val.shape).copy(), 2, order=1)
            out.append(comp)
        return tuple(out)

    def grid(self, n: int = 5):
        u0, u1, v0, v1 = self.box
        us = np.linspace(u0, u1, n)
        vs = np.linspace(v0, v1, n)
        U, V = np.meshgrid(us, vs, indexing="ij")
        return U.ravel(), V.ravel()

    def max_defining_residual(self, surface: LevelSurface, n: int = 5) -> float:
        U, V = self.grid(n)
        cx, cy, ct = self.chart_jets(U, V)
        return float(np.max(np.abs(surface.phi.value(cx.val, cy.val, ct.val))))


_ON_SURFACE_TOL = 1e-9


def _measure_factor(fd: FrameData, patch_transversal: str, chart_jets):
    cx, cy, ct = chart_jets
    if patch_transversal == "x":
        ne = fd.p + 0.5 * fd.y * fd.omega
        j1, j2 = cy, ct
    elif patch_transversal == "y":
        ne = fd.q - 0.5 * fd.x * fd.omega
        j1, j2 = cx, ct
    else:
        ne = fd.omega
        j1, j2 = cx, cy
    if np.any(np.abs(ne) < _CHART_RTOL * fd.n_norm):
        raise ChartDegenerateError(
            f"chart transversal {patch_transversal!r} is tangent to the surface inside the patch"
        )
    det = j1.grad[0] * j2.grad[1] - j1.grad[1] * j2.grad[0]
    return fd.W / np.abs(ne) * np.abs(det)


def integrate_on_surface(
    surface: LevelSurface,
    patch: SurfacePatch,
    term,
    spec: QuadratureSpec | None = None,
) -> Integral:
    """Integrate term(fd) against the horizontal perimeter measure.

    ``term`` receives the batched FrameData of the sampled points and must
    return an array of integrand values; the measure weight (including the
    chart Jacobian) is applied here.  Raises ValueError if the chart leaves
    the surface on a validation grid.
    """
    resid = patch.max_defining_residual(surface)
    if resid > _ON_SURFACE_TOL:
        raise ValueError(f"chart leaves the surface: max |phi| = {resid:.3e} on the validation grid")

    def f(u, v):
        jets = patch.chart_jets(u, v)
        fd = surface.frame_data(jets[0].val, jets[1].val, jets[2].val)
        return term(fd) * _measure_factor(fd, patch.transversal, jets)

    return integrate_2d(f, patch.box, spec)


def h_perimeter_integral(
    surface: LevelSurface,
    patch: SurfacePatch,
    f: ScalarField,
    spec: QuadratureSpec | None = None,
) -> Integral:
    """Integral of f over the patch against the horizontal perimeter measure."""
    return integrate_on_surface(surface, patch, lambda fd: f.value(fd.x, fd.y, fd.t), spec)
