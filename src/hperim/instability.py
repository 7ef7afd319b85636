"""Explicit destabilizing deformations of the ruled graphs.

The construction is a widening family of smooth plateau cutoffs.  With
psi the flat step from :mod:`hperim.core` (identically 1 below 1, identically
0 above 2), set

    chi_k(s)   = psi(|s| / k),
    f_k(y)     = chi_k(y) / sqrt(1 + alpha y^2 / 2),
    u_k(y, t)  = f_k(y) chi_k(t),
    a_k(x,y,t) = chi_k(y) chi_k(t) chi_k(x - y (alpha t + beta))
                   / sqrt(1 + alpha y^2 / 2).

a_k restricts to u_k on the chart of the graph x = y (alpha t + beta).  The
pulled-back second variation of u_k separates, and its sign is decided by a
one-dimensional Hardy-type comparison: the gap

    gap(k) = int f_k^2 / (1 + alpha y^2/2) dy
             - (1/(2 alpha)) int (1 + alpha y^2/2) f_k'^2 dy

tends to (3 pi / 8) sqrt(2 / alpha) > 0, so the gap is eventually positive
and the second variation eventually negative.  ``certify_instability`` scans
k = 1, 2, ... until the quadrature converges to a strictly negative value
(value + error < 0), then cross-checks the cheap chart-plane route against
the full surface integrand before issuing a certificate.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import ScalarField, jet_abs, jet_sqrt, smooth_step
from .graphs import AlphaBetaGraph
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_1d
from .variation import pulled_back_form, second_variation_nu, second_variation_x1

__all__ = [
    "PROFILE_ID",
    "profile_constant",
    "cutoff",
    "cutoff_prime",
    "f_k",
    "f_k_prime",
    "u_k_field",
    "a_k_field",
    "hardy_sides",
    "hardy_limits",
    "InstabilityCertificate",
    "ScanExhaustedError",
    "certify_instability",
]

PROFILE_ID = "exp-flat-step"

_DIRECTIONS = {"x1": 1.5, "nuh": 0.5}


@functools.cache
def profile_constant() -> float:
    """sup |psi'| over the transition interval, by dense sampling.

    psi is piecewise flat outside [1, 2], so the sup over [1, 2] is global.
    The value is recorded in certificates so a profile change is visible.
    """
    f = ScalarField(lambda s: smooth_step(s), 1)
    j = f.jet(np.linspace(1.0, 2.0, 200001), order=1)
    return float(np.max(np.abs(j.grad[0])))


def _chi(k: float, s):
    """chi_k of a jet (or of anything the jet algebra accepts)."""
    return smooth_step(jet_abs(s) * (1.0 / k))


def cutoff(k: float, s) -> np.ndarray:
    """Plateau cutoff chi_k(s): 1 for |s| <= k, 0 for |s| >= 2k."""
    f = ScalarField(lambda sj: _chi(k, sj), 1)
    return f.value(np.asarray(s, dtype=float))


def cutoff_prime(k: float, s) -> np.ndarray:
    f = ScalarField(lambda sj: _chi(k, sj), 1)
    return f.jet(np.asarray(s, dtype=float), order=1).grad[0]


def f_k(k: float, alpha: float, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return cutoff(k, y) / np.sqrt(1.0 + 0.5 * alpha * y * y)


def f_k_prime(k: float, alpha: float, y) -> np.ndarray:
    f = ScalarField(lambda yj: _chi(k, yj) / jet_sqrt(1.0 + 0.5 * alpha * yj * yj), 1)
    return f.jet(np.asarray(y, dtype=float), order=1).grad[0]


def u_k_field(k: float, alpha: float) -> ScalarField:
    """Chart-plane profile u_k(y, t) = f_k(y) chi_k(t)."""
    if k <= 0 or alpha <= 0:
        raise ValueError("k and alpha must be positive")

    def rule(yj, tj):
        return _chi(k, yj) * _chi(k, tj) / jet_sqrt(1.0 + 0.5 * alpha * yj * yj)

    return ScalarField(rule, 2)


def a_k_field(k: float, alpha: float, beta: float) -> ScalarField:
    """Ambient deformation coefficient restricting to u_k on the chart."""
    if k <= 0 or alpha <= 0:
        raise ValueError("k and alpha must be positive")

    def rule(xj, yj, tj):
        slack = xj - yj * (alpha * tj + beta)
        num = _chi(k, yj) * _chi(k, tj) * _chi(k, slack)
        return num / jet_sqrt(1.0 + 0.5 * alpha * yj * yj)

    return ScalarField(rule, 3)


def hardy_sides(
    k: float,
    alpha: float,
    spec: QuadratureSpec | None = None,
) -> tuple:
    """(lhs, rhs, gap) of the one-dimensional comparison at cutoff width k."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    spec = spec or DEFAULT_SPEC

    def lhs_integrand(y):
        fv = f_k(k, alpha, y)
        return fv * fv / (1.0 + 0.5 * alpha * y * y)

    def rhs_integrand(y):
        dv = f_k_prime(k, alpha, y)
        return (1.0 + 0.5 * alpha * y * y) * dv * dv

    interval = (-2.0 * k, 2.0 * k)
    lhs = integrate_1d(lhs_integrand, interval, spec).value
    rhs = integrate_1d(rhs_integrand, interval, spec).value
    return lhs, rhs, lhs - rhs / (2.0 * alpha)


def hardy_limits(alpha: float) -> tuple:
    """Large-k limits (lhs, rhs, gap) of the comparison."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lhs = 0.5 * math.pi * math.sqrt(2.0 / alpha)
    rhs = 0.5 * math.pi * math.sqrt(0.5 * alpha)
    return lhs, rhs, lhs - rhs / (2.0 * alpha)


@dataclass(frozen=True)
class InstabilityCertificate:
    """Machine-checkable record of a certified negative second variation."""

    alpha: float
    beta: float
    direction: str
    k: int
    value: float
    error: float
    surface_value: float
    surface_error: float
    agreement_tol: float
    domain: tuple
    profile_id: str
    profile_derivative_bound: float
    rel_tol: float
    abs_floor: float
    scan: tuple = field(default_factory=tuple)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["scan"] = [dict(row) for row in self.scan]
        return json.dumps(payload, indent=2, sort_keys=True)


class ScanExhaustedError(RuntimeError):
    """No cutoff width up to k_max certified a negative value."""

    def __init__(self, message: str, scan):
        super().__init__(message)
        self.scan = list(scan)


def certify_instability(
    alpha: float,
    beta: float,
    direction: str = "x1",
    k_max: int = 64,
    spec: QuadratureSpec | None = None,
    on_step=None,
) -> InstabilityCertificate:
    """Scan cutoff widths until the second variation is certifiably negative.

    The primary evaluation is the chart-plane form (exponent 3/2 for the X1
    direction, 1/2 for the horizontal normal).  Once it has converged with
    value + error < 0 the same deformation is pushed through the raw surface
    integrand, which must converge too, and the two routes must agree within
    ten times their combined reported errors; otherwise RuntimeError.
    Raises ScanExhaustedError if k_max is reached without a certificate.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}, got {direction!r}")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    spec = spec or DEFAULT_SPEC
    exponent = _DIRECTIONS[direction]
    graph = AlphaBetaGraph(alpha, beta)

    scan = []
    for k in range(1, k_max + 1):
        spec_k = replace(spec, abs_floor=spec.abs_floor / (k * k))
        box = (-2.0 * k, 2.0 * k, -2.0 * k, 2.0 * k)
        u = u_k_field(k, alpha)
        chart = pulled_back_form(graph, u, exponent, box, spec_k)
        row = {"k": k, "value": chart.value, "error": chart.error}
        scan.append(row)
        if on_step is not None:
            on_step(row)
        if not chart.converged or chart.value + chart.error >= 0.0:
            continue

        patch = graph.patch((-2.0 * k, 2.0 * k), (-2.0 * k, 2.0 * k))
        ambient = a_k_field(k, alpha, beta)
        if direction == "x1":
            sv = second_variation_x1(graph.surface, patch, ambient, spec_k, "raw")
        else:
            sv = second_variation_nu(graph.surface, patch, ambient, None, spec_k, "raw")
        if not sv.converged:
            raise RuntimeError(f"surface route did not converge at k={k}: {sv.value!r} +/- {sv.error!r}")
        tol = 10.0 * (chart.error + sv.error) + 1e-9 * max(1.0, abs(chart.value), abs(sv.value))
        if abs(chart.value - sv.value) > tol:
            raise RuntimeError(
                "chart-plane and surface routes disagree: "
                f"{chart.value!r} vs {sv.value!r} (tol {tol!r}) at k={k}"
            )
        return InstabilityCertificate(
            alpha=float(alpha),
            beta=float(beta),
            direction=direction,
            k=k,
            value=chart.value,
            error=chart.error,
            surface_value=sv.value,
            surface_error=sv.error,
            agreement_tol=tol,
            domain=box,
            profile_id=PROFILE_ID,
            profile_derivative_bound=profile_constant(),
            rel_tol=spec.rel_tol,
            abs_floor=spec.abs_floor,
            scan=tuple(scan),
        )

    raise ScanExhaustedError(
        f"no cutoff width k <= {k_max} certified a negative second variation",
        scan,
    )
