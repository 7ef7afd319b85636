"""Deterministic adaptive quadrature on intervals and rectangles.

Each cell is evaluated with a nested Gauss-Kronrod pair (the Gauss nodes are
a subset of the Kronrod nodes, so one batch of integrand samples yields both
estimates).  The cell whose low/high-order discrepancy is largest is split
until the summed discrepancy meets the tolerance.  The refinement path is a
pure function of the spec and the integrand, and the final accumulation is a
compensated sum over cells sorted by creation id, so results are
bit-identical across runs.

Integrands receive numpy arrays of sample coordinates and must return an
array of values (vectorized evaluation; one call per cell).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
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


def _check_finite(values):
    if not np.all(np.isfinite(values)):
        raise ValueError("quadrature integrand returned non-finite values")


def _eval_cell_1d(f, cell, rule):
    a, b = cell
    nodes, wk, gidx, wg = rule
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = np.asarray(f(mid + half * nodes), dtype=float)
    _check_finite(fv)
    ik = half * float(wk @ fv)
    ig = half * float(wg @ fv[gidx])
    return ik, abs(ik - ig)


def _split_1d(cell):
    a, b = cell
    m = 0.5 * (a + b)
    return (a, m), (m, b)


def _eval_cell_2d(f, cell, rule):
    ax, bx, ay, by = cell
    nodes, wk, gidx, wg = rule
    mx, hx = 0.5 * (ax + bx), 0.5 * (bx - ax)
    my, hy = 0.5 * (ay + by), 0.5 * (by - ay)
    px = mx + hx * nodes
    py = my + hy * nodes
    U, V = np.meshgrid(px, py, indexing="ij")
    fv = np.asarray(f(U.ravel(), V.ravel()), dtype=float).reshape(nodes.size, nodes.size)
    _check_finite(fv)
    ikk = hx * hy * float(wk @ fv @ wk)
    igg = hx * hy * float(wg @ fv[np.ix_(gidx, gidx)] @ wg)
    return ikk, abs(ikk - igg)


def _split_2d(cell):
    ax, bx, ay, by = cell
    if (bx - ax) >= (by - ay):
        m = 0.5 * (ax + bx)
        return (ax, m, ay, by), (m, bx, ay, by)
    m = 0.5 * (ay + by)
    return (ax, bx, ay, m), (ax, bx, m, by)


def _adapt(f, first_cell, evaluate, split, spec):
    rule = _RULES[spec.rule_order]
    seq = 0
    val, err = evaluate(f, first_cell, rule)
    # heap entries: (-err, seq, cell, val, err); seq breaks ties deterministically
    heap = [(-err, seq, first_cell, val, err)]
    total_val = val
    total_err = err
    splits = 0
    while total_err > max(spec.abs_floor, spec.rel_tol * abs(total_val)):
        if splits >= spec.max_subdivisions:
            break
        neg_err, _, cell, cval, cerr = heapq.heappop(heap)
        if cerr <= 1e-17 * max(1.0, abs(total_val)):
            # splitting cannot improve below rounding noise
            heapq.heappush(heap, (neg_err, _, cell, cval, cerr))
            break
        total_val -= cval
        total_err -= cerr
        for child in split(cell):
            v, e = evaluate(f, child, rule)
            seq += 1
            heapq.heappush(heap, (-e, seq, child, v, e))
            total_val += v
            total_err += e
        splits += 1
    leaves = sorted(heap, key=lambda entry: entry[1])
    value = compensated_sum(entry[3] for entry in leaves)
    error = compensated_sum(entry[4] for entry in leaves)
    return value, error


def integrate_1d(f, interval, spec: QuadratureSpec | None = None):
    """Integrate f over [a, b]; returns (value, error estimate).

    Refinement also stops, silently, after ``spec.max_subdivisions`` splits
    or when the worst cell's error reaches the rounding floor; the estimate
    is then returned with its error above the target.
    """
    spec = spec or DEFAULT_SPEC
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration interval must be finite")
    if a == b:
        return 0.0, 0.0
    return _adapt(f, (a, b), _eval_cell_1d, _split_1d, spec)


def integrate_2d(f, box, spec: QuadratureSpec | None = None):
    """Integrate f(u, v) over [u0, u1] x [v0, v1]; returns (value, error estimate).

    Stops silently at ``spec.max_subdivisions`` and at the rounding floor,
    as :func:`integrate_1d` does.
    """
    spec = spec or DEFAULT_SPEC
    u0, u1, v0, v1 = (float(b) for b in box)
    if not all(np.isfinite(c) for c in (u0, u1, v0, v1)):
        raise ValueError("integration box must be finite")
    if u0 == u1 or v0 == v1:
        return 0.0, 0.0
    return _adapt(f, (u0, u1, v0, v1), _eval_cell_2d, _split_2d, spec)
