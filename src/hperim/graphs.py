"""The ruled minimal graphs x = y (alpha t + beta) and related flat surfaces.

For alpha > 0 the defining field phi = x - y (alpha t + beta) gives, off the
surface,

    p = X1 phi = 1 + alpha y^2 / 2
    q = X2 phi = -(alpha t + beta) - alpha x y / 2
    omega = T phi = -alpha y

and on the surface q = -(alpha t + beta) p, hence

    W^2 = (1 + alpha y^2 / 2)^2 (1 + (alpha t + beta)^2).

The horizontal mean curvature vanishes identically, and the coefficients of
the reduced second-variation forms have the closed expressions

    coefficient_x1 = -2 alpha / (W^2 (1 + (alpha t + beta)^2))
    coefficient_nu = -2 alpha / W^2.

Everything in this module is closed-form; the generic jet route in
`surfaces` recomputes the same quantities and the tests hold the two routes
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ScalarField
from .surfaces import LevelSurface, SurfaceFrame, SurfacePatch

__all__ = [
    "AlphaBetaGraph",
    "VerticalPlane",
    "SwappedGraph",
    "IntermediateForms",
]


@dataclass(frozen=True)
class IntermediateForms:
    """Closed forms of the frame-quantity derivatives used by the reduced
    second-variation coefficients, evaluated on the surface."""

    z_t_phi: float    # Z(T phi) = alpha p / W
    z_w: float        # Z W = -alpha y
    z_obar: float     # Z obar = (alpha - alpha^2 y^2 / 2) / W^2
    y_pbar: float     # 0
    y_qbar: float     # 0
    t_pbar: float     # -alpha (alpha t + beta) / (W (1 + (alpha t + beta)^2))
    t_qbar: float     # -alpha / (W (1 + (alpha t + beta)^2))


class AlphaBetaGraph:
    """The entire graph x = y (alpha t + beta) with alpha > 0."""

    def __init__(self, alpha: float, beta: float):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        a, b = self.alpha, self.beta
        self.surface = LevelSurface(ScalarField(lambda x, y, t: x - y * (a * t + b), 3))

    def __repr__(self):
        return f"AlphaBetaGraph(alpha={self.alpha}, beta={self.beta})"

    def slope(self, t):
        return self.alpha * np.asarray(t, float) + self.beta

    def patch(self, ybox, tbox) -> SurfacePatch:
        a, b = self.alpha, self.beta
        return SurfacePatch(
            chart=lambda u, v: (u * (a * v + b), u, v),
            box=(float(ybox[0]), float(ybox[1]), float(tbox[0]), float(tbox[1])),
            transversal="x",
        )

    # -- closed forms, valid on the surface ----------------------------

    def w_value(self, y, t):
        y = np.asarray(y, float)
        s = self.slope(t)
        return (1.0 + 0.5 * self.alpha * y * y) * np.sqrt(1.0 + s * s)

    def closed_frame(self, y: float, t: float) -> SurfaceFrame:
        s = float(self.slope(t))
        p = 1.0 + 0.5 * self.alpha * y * y
        q = -s * p
        omega = -self.alpha * y
        W = p * math.sqrt(1.0 + s * s)
        return SurfaceFrame(p, q, omega, W, p / W, q / W, omega / W)

    def coefficient_x1(self, y, t):
        """Zeroth-order coefficient of the reduced X1-deformation form."""
        s = self.slope(t)
        w2 = self.w_value(y, t) ** 2
        return -2.0 * self.alpha / (w2 * (1.0 + s * s))

    def coefficient_nu(self, y, t):
        """Zeroth-order coefficient of the reduced nu_H-deformation form."""
        return -2.0 * self.alpha / self.w_value(y, t) ** 2

    def intermediate_forms(self, y: float, t: float) -> IntermediateForms:
        al = self.alpha
        s = float(self.slope(t))
        p = 1.0 + 0.5 * al * y * y
        W = p * math.sqrt(1.0 + s * s)
        return IntermediateForms(
            z_t_phi=al * p / W,
            z_w=-al * y,
            z_obar=(al - 0.5 * al * al * y * y) / W**2,
            y_pbar=0.0,
            y_qbar=0.0,
            t_pbar=-al * s / (W * (1.0 + s * s)),
            t_qbar=-al / (W * (1.0 + s * s)),
        )


class VerticalPlane:
    """The plane a x + b y = c, which is ruled by vertical lines."""

    def __init__(self, a: float, b: float, c: float):
        if a == 0 and b == 0:
            raise ValueError("plane normal must be nonzero")
        self.a, self.b, self.c = float(a), float(b), float(c)
        aa, bb, cc = self.a, self.b, self.c
        self.surface = LevelSurface(ScalarField(lambda x, y, t: aa * x + bb * y - cc, 3))

    def closed_frame(self) -> SurfaceFrame:
        W = math.hypot(self.a, self.b)
        return SurfaceFrame(self.a, self.b, 0.0, W, self.a / W, self.b / W, 0.0)

    def patch(self, ubox, vbox) -> SurfacePatch:
        aa, bb, cc = self.a, self.b, self.c
        if aa != 0:
            return SurfacePatch(
                chart=lambda u, v: ((cc - bb * u) / aa, u, v),
                box=(float(ubox[0]), float(ubox[1]), float(vbox[0]), float(vbox[1])),
                transversal="x",
            )
        return SurfacePatch(
            chart=lambda u, v: (u, (cc - aa * u) / bb, v),
            box=(float(ubox[0]), float(ubox[1]), float(vbox[0]), float(vbox[1])),
            transversal="y",
        )


class SwappedGraph:
    """The mirror family y = x (alpha t + beta) with alpha < 0.

    The group automorphism sigma(x, y, t) = (y, x, -t) carries this surface
    onto the graph x = y (-alpha t + beta), so frames are mapped instead of
    re-derived: p and q swap and omega flips sign, W is unchanged.
    """

    def __init__(self, alpha: float, beta: float):
        if not alpha < 0:
            raise ValueError(f"alpha must be negative for the swapped family, got {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        a, b = self.alpha, self.beta
        self.surface = LevelSurface(ScalarField(lambda x, y, t: y - x * (a * t + b), 3))
        self._base = AlphaBetaGraph(-self.alpha, self.beta)

    def patch(self, xbox, tbox) -> SurfacePatch:
        a, b = self.alpha, self.beta
        return SurfacePatch(
            chart=lambda u, v: (u, u * (a * v + b), v),
            box=(float(xbox[0]), float(xbox[1]), float(tbox[0]), float(tbox[1])),
            transversal="y",
        )

    def closed_frame(self, x: float, t: float) -> SurfaceFrame:
        base = self._base.closed_frame(x, -t)
        W = base.W
        return SurfaceFrame(base.q, base.p, -base.omega, W, base.q / W, base.p / W, -base.omega / W)
