"""Pointwise and integral identity checks on the ruled graphs.

Every structural identity the variational formulas rely on is checked
numerically at randomly sampled surface points, with smooth random test
fields where one is needed:

  * mean-curvature-skew:   qbar Z pbar - pbar Z qbar = mean curvature
  * curvature-square:      (Z pbar)^2 + (Z qbar)^2 = (mean curvature)^2
  * z-obar:                -Z obar = a-coefficient
  * coefficient-x1:        FrameData.reduced_x1 matches -2 alpha / (W^2 (1 + s^2))
  * coefficient-nu:        FrameData.reduced_nu matches -2 alpha / W^2
  * reconstruction:        X1 f = qbar Zf + pbar Yf,  X2 f = qbar Yf - pbar Zf
  * tangential-gradient:   (Zf)^2 = (X1 f)^2 + (X2 f)^2 - (Yf)^2

plus the two integration-by-parts lemmas used to reduce second-variation
forms, checked on compactly supported random fields against the quadrature's
own reported error:

  * ibp-z:  int Z zeta  d(sigma) = - int zeta obar d(sigma)
  * ibp-t:  int T zeta  d(sigma) =   int (Y zeta) obar d(sigma)
                                   + int zeta obar (mean curvature) d(sigma)
"""

from __future__ import annotations

import numpy as np

from .core import Jet, ScalarField, jet_abs, jet_exp, smooth_step
from .graphs import AlphaBetaGraph
from .quadrature import QuadratureSpec
from .surfaces import integrate_on_surface

__all__ = [
    "random_smooth_field",
    "random_supported_field",
    "point_identity_residuals",
    "ibp_residuals",
]


def random_smooth_field(rng: np.random.Generator, scale: float = 1.0) -> ScalarField:
    """Random quadratic polynomial under a Gaussian envelope, as a 3-variable field."""
    c = rng.uniform(-1.0, 1.0, size=10)
    w = float(rng.uniform(2.0, 6.0))

    def rule(x, y, t):
        poly = (
            c[0]
            + c[1] * x + c[2] * y + c[3] * t
            + c[4] * x * y + c[5] * y * t + c[6] * x * t
            + c[7] * x * x + c[8] * y * y + c[9] * t * t
        )
        return scale * poly * jet_exp((x * x + y * y + t * t) * (-1.0 / w))

    return ScalarField(rule, 3)


def _plateau(j: Jet, lo: float, hi: float) -> Jet:
    """Smooth bump in one coordinate: 1 on the middle half, 0 outside (lo, hi)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return smooth_step(jet_abs(j - mid) * (2.0 / half))


def random_supported_field(rng: np.random.Generator, ybox, tbox) -> ScalarField:
    """Random smooth field vanishing near y, t box edges (x enters polynomially)."""
    c = rng.uniform(-1.0, 1.0, size=10)
    y0, y1 = (float(v) for v in ybox)
    t0, t1 = (float(v) for v in tbox)

    def rule(x, y, t):
        poly = (
            c[0]
            + c[1] * x + c[2] * y + c[3] * t
            + c[4] * x * y + c[5] * y * t + c[6] * x * t
            + c[7] * x * x + c[8] * y * y + c[9] * t * t
        )
        return poly * _plateau(y, y0, y1) * _plateau(t, t0, t1)

    return ScalarField(rule, 3)


def _worst_row(name: str, arr, y, t) -> dict:
    """Residual row with the chart point where |arr| peaks."""
    arr = np.abs(np.asarray(arr))
    i = int(np.argmax(arr))
    return {
        "name": name,
        "residual": float(arr[i]),
        "worst_point": (float(y[i]), float(t[i])),
        "samples": int(arr.size),
    }


def point_identity_residuals(
    graph: AlphaBetaGraph,
    n: int = 1000,
    seed: int = 0,
    ybox=(-2.0, 2.0),
    tbox=(-2.0, 2.0),
) -> list:
    """Max residual of each pointwise identity over n random surface points."""
    rng = np.random.default_rng(seed)
    rows = []
    if n <= 0:
        names = [
            "mean-curvature-skew", "curvature-square", "z-obar",
            "coefficient-x1", "coefficient-nu", "reconstruction",
            "tangential-gradient",
        ]
        return [
            {"name": name, "residual": 0.0, "worst_point": None, "samples": 0}
            for name in names
        ]

    y = rng.uniform(ybox[0], ybox[1], size=n)
    t = rng.uniform(tbox[0], tbox[1], size=n)
    x = y * graph.slope(t)
    fd = graph.surface.frame_data(x, y, t)

    z_pbar = fd.z_of(fd.grad_pbar)
    z_qbar = fd.z_of(fd.grad_qbar)
    rows.append(_worst_row(
        "mean-curvature-skew",
        fd.qbar * z_pbar - fd.pbar * z_qbar - fd.mean_curvature, y, t,
    ))
    rows.append(_worst_row(
        "curvature-square",
        z_pbar ** 2 + z_qbar ** 2 - fd.mean_curvature ** 2, y, t,
    ))
    rows.append(_worst_row("z-obar", fd.z_obar + fd.a_coeff, y, t))

    rows.append(_worst_row(
        "coefficient-x1", fd.reduced_x1 - graph.coefficient_x1(y, t), y, t,
    ))
    rows.append(_worst_row(
        "coefficient-nu", fd.reduced_nu - graph.coefficient_nu(y, t), y, t,
    ))

    rec = np.zeros(n)
    tan = np.zeros(n)
    for _ in range(3):
        f = random_smooth_field(rng)
        g = f.jet(x, y, t, order=1).grad
        x1f, x2f = fd.x1_of(g), fd.x2_of(g)
        zf, yf = fd.z_of(g), fd.y_of(g)
        rec = np.maximum(rec, np.abs(x1f - (fd.qbar * zf + fd.pbar * yf)))
        rec = np.maximum(rec, np.abs(x2f - (fd.qbar * yf - fd.pbar * zf)))
        tan = np.maximum(tan, np.abs(zf ** 2 - (x1f ** 2 + x2f ** 2 - yf ** 2)))
    rows.append(_worst_row("reconstruction", rec, y, t))
    rows.append(_worst_row("tangential-gradient", tan, y, t))
    return rows


def ibp_residuals(
    graph: AlphaBetaGraph,
    ybox=(-2.0, 2.0),
    tbox=(-2.0, 2.0),
    n: int = 10,
    seed: int = 0,
    spec: QuadratureSpec | None = None,
) -> list:
    """Integration-by-parts residuals for n random supported fields.

    Each row reports the residual of one lemma for one field together with a
    budget of ten times the summed quadrature error estimates; the residual
    should sit inside the budget.  ``converged`` says whether every integral
    of the row met its tolerance: an error estimate of an unconverged
    integral widens the budget it is meant to bound, so such a row must not
    count as a pass whatever its residual.
    """
    rng = np.random.default_rng(seed)
    patch = graph.patch(ybox, tbox)
    surface = graph.surface
    rows = []

    for j in range(n):
        zeta = random_supported_field(rng, ybox, tbox)

        def z_term(fd, zeta=zeta):
            return fd.z_of(zeta.jet(fd.x, fd.y, fd.t, order=1).grad)

        def obar_term(fd, zeta=zeta):
            return zeta.value(fd.x, fd.y, fd.t) * fd.obar

        z = integrate_on_surface(surface, patch, z_term, spec)
        o = integrate_on_surface(surface, patch, obar_term, spec)
        rows.append({
            "name": "ibp-z",
            "sample": j,
            "residual": abs(z.value + o.value),
            "budget": 10.0 * (z.error + o.error) + 1e-9 * max(1.0, abs(z.value), abs(o.value)),
            "converged": z.converged and o.converged,
        })

        def t_term(fd, zeta=zeta):
            return zeta.jet(fd.x, fd.y, fd.t, order=1).grad[2]

        def y_obar_term(fd, zeta=zeta):
            return fd.y_of(zeta.jet(fd.x, fd.y, fd.t, order=1).grad) * fd.obar

        def curv_term(fd, zeta=zeta):
            return zeta.value(fd.x, fd.y, fd.t) * fd.obar * fd.mean_curvature

        t = integrate_on_surface(surface, patch, t_term, spec)
        y = integrate_on_surface(surface, patch, y_obar_term, spec)
        c = integrate_on_surface(surface, patch, curv_term, spec)
        rows.append({
            "name": "ibp-t",
            "sample": j,
            "residual": abs(t.value - y.value - c.value),
            "budget": 10.0 * (t.error + y.error + c.error)
            + 1e-9 * max(1.0, abs(t.value), abs(y.value), abs(c.value)),
            "converged": t.converged and y.converged and c.converged,
        })

    return rows
