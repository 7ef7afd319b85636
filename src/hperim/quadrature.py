"""Deterministic adaptive quadrature on intervals and rectangles.

Each cell is evaluated with a nested Gauss-Kronrod pair (the Gauss nodes are
a subset of the Kronrod nodes, so one batch of integrand samples yields both
estimates); a cell's error is its Kronrod/Gauss discrepancy.  Refinement runs
in rounds over all leaf cells, after the region-batch design of DCUHRE
(Berntsen, Espelid and Genz, ACM TOMS 1991).  Each round ranks the leaves by
error and splits the fewest worst ones whose removal would bring the summed
error within the tolerance (never more than the remaining
``max_subdivisions`` budget, and never a cell at the rounding floor), then
evaluates all their children together.  The refinement path is a pure
function of the spec and the integrand, and the final accumulation is a
compensated sum over the leaves in creation order, so results are
bit-identical across runs.  Every integral comes back as an ``Integral``
whose ``converged`` flag says whether the tolerance was met, after the
``ier`` status of QUADPACK (Piessens et al., 1983).

Integrands receive numpy arrays of sample coordinates and must return an
array of values of the same length, computed point by point: one call may
hold the points of many cells (whole cells, at most 4,096 points per call).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Integral",
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "integrate_1d",
    "integrate_2d",
    "compensated_sum",
    "compensated_term_sum",
]


# Nodes/weights of the 15-point Kronrod extension of 7-point Gauss and the
# 21-point extension of 10-point Gauss, positive half, highest node first.
_XGK15 = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK15 = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XGK21 = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK21 = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG10 = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])


def _build_rule(order):
    if order == 15:
        half_x, half_wk, wg_half = _XGK15, _WGK15, _WG7
    elif order == 21:
        half_x, half_wk, wg_half = _XGK21, _WGK21, _WG10
    else:
        raise ValueError(f"rule order must be 15 or 21, got {order}")
    # mirror the positive half: nodes ascending, center once
    nodes = np.concatenate([-half_x[:-1], half_x[::-1]])
    wk = np.concatenate([half_wk[:-1], half_wk[::-1]])
    n = nodes.size
    gauss_idx = np.arange(1, n, 2)  # Gauss nodes sit at the odd positions
    if gauss_idx.size % 2 == 1:  # odd Gauss count shares the center node
        wg = np.concatenate([wg_half[:-1], wg_half[::-1]])
    else:
        wg = np.concatenate([wg_half, wg_half[::-1]])
    return nodes, wk, gauss_idx, wg


_RULES = {15: _build_rule(15), 21: _build_rule(21)}

# Most sample points passed to one integrand call.  Larger batches make the
# jet algebra cheaper per point but cost memory, and the gain stops after a
# few thousand points.
_MAX_POINTS = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrator.

    ``rel_tol`` is relative to the running integral value, ``abs_floor`` is
    the absolute target below which refinement stops regardless,
    ``max_subdivisions`` caps the number of cell splits, and ``rule_order``
    selects the Kronrod point count (15 or 21).
    """

    rel_tol: float = 1e-8
    abs_floor: float = 1e-14
    max_subdivisions: int = 1 << 20
    rule_order: int = 15

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_floor > 0:
            raise ValueError(f"abs_floor must be positive, got {self.abs_floor}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be at least 1, got {self.max_subdivisions}")
        if self.rule_order not in _RULES:
            raise ValueError(f"rule order must be one of {sorted(_RULES)}, got {self.rule_order}")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class Integral:
    """An integral's value, its error estimate, and whether it converged.

    ``converged`` is the integrator's own stopping test on the final leaves,
    ``error <= max(abs_floor, rel_tol * |value|)``; it is False when
    refinement stopped at the ``max_subdivisions`` budget or at the rounding
    floor before meeting the tolerance.
    """

    value: float
    error: float
    converged: bool


def compensated_sum(values) -> float:
    """Neumaier-compensated sum of a sequence of floats."""
    total = 0.0
    comp = 0.0
    for v in values:
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def compensated_term_sum(terms):
    """Elementwise Neumaier sum across a list of same-shape arrays.

    Used by integrands whose value is a fixed-order sum of grouped terms, so
    the accumulation order is part of the numeric contract.
    """
    total = np.zeros_like(np.asarray(terms[0], dtype=float))
    comp = np.zeros_like(total)
    for v in terms:
        v = np.asarray(v, dtype=float)
        t = total + v
        big = np.abs(total) >= np.abs(v)
        comp += np.where(big, (total - t) + v, (v - t) + total)
        total = t
    return total + comp


def _eval_cells(f, cells, rule):
    """Kronrod value and |Kronrod - Gauss| of each row of an (m, 2d) cell array.

    A row holds (lo, hi) per axis.  Each cell is sampled on the tensor grid of
    the rule's nodes, first axis slowest; the integrand is called on at most
    ``_MAX_POINTS`` points at a time, always on whole cells.
    """
    nodes, wk, gidx, wg = rule
    n, d = nodes.size, cells.shape[1] // 2
    lo, hi = cells[:, 0::2], cells[:, 1::2]
    half = 0.5 * (hi - lo)
    axes = (0.5 * (lo + hi))[:, :, None] + half[:, :, None] * nodes  # (m, d, n)
    grid = [np.repeat(np.tile(axes[:, k], n**k), n ** (d - 1 - k), axis=1) for k in range(d)]
    step = max(1, _MAX_POINTS // n**d)
    fv = np.empty_like(grid[0])
    for s in range(0, len(cells), step):
        values = f(*(g[s:s + step].ravel() for g in grid))
        fv[s:s + step] = np.asarray(values, dtype=float).reshape(-1, n**d)
    if not np.all(np.isfinite(fv)):
        raise ValueError("quadrature integrand returned non-finite values")
    kron = fv.reshape((-1,) + (n,) * d)
    gauss = kron[(slice(None),) + np.ix_(*[gidx] * d)]
    for _ in range(d):
        kron, gauss = kron @ wk, gauss @ wg
    scale = np.prod(half, axis=1)
    ik = scale * kron
    return ik, np.abs(ik - scale * gauss)


def _split_cells(cells):
    """Halve each cell across its widest axis (the first on ties).

    Returns the children as an array with each cell's two halves adjacent.
    """
    axis = np.argmax(cells[:, 1::2] - cells[:, 0::2], axis=1)
    rows = np.arange(len(cells))
    mid = 0.5 * (cells[rows, 2 * axis] + cells[rows, 2 * axis + 1])
    lower, upper = cells.copy(), cells.copy()
    lower[rows, 2 * axis + 1] = mid
    upper[rows, 2 * axis] = mid
    return np.stack([lower, upper], axis=1).reshape(-1, cells.shape[1])


def _adapt(f, first_cell, spec):
    rule = _RULES[spec.rule_order]
    # the leaf arrays stay in creation order: survivors keep their places
    # and each round's children are appended, worst parent first
    cells = np.asarray([first_cell], dtype=float)
    vals, errs = _eval_cells(f, cells, rule)
    splits = 0
    while True:
        total_val, total_err = float(vals.sum()), float(errs.sum())
        target = max(spec.abs_floor, spec.rel_tol * abs(total_val))
        if total_err <= target or splits >= spec.max_subdivisions:
            break
        worst = np.argsort(-errs, kind="stable")
        # splitting cannot improve a cell below rounding noise
        worst = worst[errs[worst] > 1e-17 * max(1.0, abs(total_val))]
        if worst.size == 0:
            break
        # the fewest worst cells whose removal leaves an error sum within target
        need = int(np.searchsorted(np.cumsum(errs[worst]), total_err - target)) + 1
        chosen = worst[:min(need, spec.max_subdivisions - splits)]
        children = _split_cells(cells[chosen])
        child_vals, child_errs = _eval_cells(f, children, rule)
        keep = np.ones(len(cells), dtype=bool)
        keep[chosen] = False
        cells = np.concatenate([cells[keep], children])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])
        splits += chosen.size
    return Integral(compensated_sum(vals), compensated_sum(errs), total_err <= target)


def integrate_1d(f, interval, spec: QuadratureSpec | None = None) -> Integral:
    """Integrate f over [a, b].

    Refinement also stops after ``spec.max_subdivisions`` splits or when the
    worst cell's error reaches the rounding floor; the result then has its
    error above the target and ``converged`` False.
    """
    spec = spec or DEFAULT_SPEC
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration interval must be finite")
    if a == b:
        return Integral(0.0, 0.0, True)
    return _adapt(f, (a, b), spec)


def integrate_2d(f, box, spec: QuadratureSpec | None = None) -> Integral:
    """Integrate f(u, v) over [u0, u1] x [v0, v1].

    Stops at ``spec.max_subdivisions`` and at the rounding floor, reporting
    ``converged`` False, as :func:`integrate_1d` does.
    """
    spec = spec or DEFAULT_SPEC
    u0, u1, v0, v1 = (float(b) for b in box)
    if not all(np.isfinite(c) for c in (u0, u1, v0, v1)):
        raise ValueError("integration box must be finite")
    if u0 == u1 or v0 == v1:
        return Integral(0.0, 0.0, True)
    return _adapt(f, (u0, u1, v0, v1), spec)
