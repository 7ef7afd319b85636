"""Independent oracle for instability certificates.

Recomputes the chart-plane quadratic form of a certificate with
``scipy.integrate.cubature`` and its own numpy copy of the cutoff profile,
so the check shares neither hperim's integrator nor its jet algebra:

    Q(k) = iint c1 u_y^2 / (1 + s^2)^e  -  2 alpha iint u^2 / (c1 (1 + s^2)^e)

over [-2k, 2k]^2, with c1 = 1 + alpha y^2 / 2, s = alpha t + beta,
u = f_k(y) chi_k(t), f_k = chi_k / sqrt(c1), chi_k(s) = psi(|s| / k),
psi = E(2 - s) / (E(2 - s) + E(s - 1)) and E(t) = exp(-1/t) for t > 0.
e is 3/2 for the X1 direction and 1/2 for the horizontal normal.
"""

from __future__ import annotations

import numpy as np

EXPONENTS = {"x1": 1.5, "nuh": 0.5}
RTOL = 1e-10


def _flat_exp(t):
    """E(t) = exp(-1/t) for t > 0, else 0, and E'(t) = E(t) / t^2."""
    pos = t > 1e-8
    ts = np.where(pos, t, 1.0)
    e = np.where(pos, np.exp(-1.0 / ts), 0.0)
    return e, e / (ts * ts)


def _chi(k, s):
    """chi_k(s) and its derivative."""
    a = np.abs(s) / k
    n, dn = _flat_exp(2.0 - a)
    d, dd = _flat_exp(a - 1.0)
    den = n + d
    val = n / den
    # psi'(a) = (N' D - N D') / (N + D)^2 with N' = -dn, D' = dd
    dpsi = (-dn * d - n * dd) / (den * den)
    return val, dpsi * np.sign(s) / k


def chart_plane_value(alpha: float, beta: float, direction: str, k: int):
    """(estimate, error) of the chart-plane form from scipy's cubature."""
    from scipy.integrate import cubature

    e = EXPONENTS[direction]

    def f(x):
        y, t = x[:, 0], x[:, 1]
        cy, dcy = _chi(k, y)
        ct, _ = _chi(k, t)
        c1 = 1.0 + 0.5 * alpha * y * y
        fk = cy / np.sqrt(c1)
        dfk = dcy / np.sqrt(c1) - cy * (0.5 * alpha * y) / c1 ** 1.5
        u, uy = fk * ct, dfk * ct
        de = (1.0 + (alpha * t + beta) ** 2) ** e
        return c1 * uy * uy / de - 2.0 * alpha * u * u / (c1 * de)

    box = 2.0 * k
    res = cubature(f, [-box, -box], [box, box], rtol=RTOL, atol=1e-13, max_subdivisions=100_000)
    if res.status != "converged":
        raise RuntimeError(f"oracle cubature did not converge ({res.status})")
    return float(res.estimate), float(res.error)


def check_certificate(cert: dict) -> list:
    """Problems found when the certificate's value is recomputed independently."""
    est, _ = chart_plane_value(cert["alpha"], cert["beta"], cert["direction"], cert["k"])
    tol = 10.0 * cert["error"] + 1e-9 * abs(cert["value"])
    miss = abs(est - cert["value"])
    if miss > tol:
        return [f"oracle {est!r} vs certificate {cert['value']!r}: miss {miss!r} > {tol!r}"]
    return []
