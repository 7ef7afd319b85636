"""Group structure, left-invariant frame, and exact jets of order 0, 1 or 2.

The ambient space is R^3 with coordinates (x, y, t) and the polarized group
product

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + (x y' - x' y) / 2).

Left translation preserves the frame

    X1 = d/dx - (y/2) d/dt,   X2 = d/dy + (x/2) d/dt,   T = d/dt,

whose single nontrivial commutator is [X1, X2] = T (frame derivatives of a
field are taken, in batches, by ``surfaces.FrameData``).  Everything downstream
(surface frames, curvature, variation integrands) consumes derivatives of
scalar fields, so fields are built from jet arithmetic: coordinates,
constants, +, -, *, /, powers, exp, sqrt, trig, |.| and the flat exponential
step used by smooth cutoffs propagate derivatives exactly (no error beyond
double rounding).  Finite differences are never used here; they exist only
as an independent oracle in the tests.

Jets are truncated Taylor jets (Griewank and Walther, *Evaluating
Derivatives*, 2008) of order 0 (value), 1 (value and gradient) or 2 (value,
gradient and Hessian).  ``ScalarField.jet``, ``Jet.variable`` and
``Jet.constant`` take a keyword-only ``order`` (default 2); an operation on
two jets truncates to the lower of their orders, and a chain rule, ``|.|``,
a constant operand or a constant rule keeps the order of its jet.  The
formulas are shared by all orders, so truncation drops work, never changes
a carried number.  Only defining fields that are differentiated twice (phi
in ``FrameData``, the profile in ``intrinsic.graph_mean_curvature``) need
order 2; ``ScalarField.value`` runs at order 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Point",
    "IDENTITY",
    "group_mul",
    "group_inverse",
    "dilation",
    "Jet",
    "jet_exp",
    "jet_sqrt",
    "jet_sin",
    "jet_cos",
    "jet_abs",
    "flat_exp",
    "smooth_step",
    "ScalarField",
]


@dataclass(frozen=True)
class Point:
    """A group element in exponential coordinates (x, y, t)."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y}, {self.t})")


IDENTITY = Point(0.0, 0.0, 0.0)


def group_mul(g: Point, h: Point) -> Point:
    """Group product g o h."""
    return Point(g.x + h.x, g.y + h.y, g.t + h.t + 0.5 * (g.x * h.y - h.x * g.y))


def group_inverse(g: Point) -> Point:
    """Group inverse; g o group_inverse(g) is the identity."""
    return Point(-g.x, -g.y, -g.t)


def dilation(lam: float, g: Point) -> Point:
    """Anisotropic scaling (x, y, t) -> (lam x, lam y, lam^2 t) for lam > 0."""
    if not lam > 0:
        raise ValueError(f"dilation parameter must be positive, got {lam}")
    return Point(lam * g.x, lam * g.y, lam * lam * g.t)


def _check_order(order):
    if order not in (0, 1, 2):
        raise ValueError(f"jet order must be 0, 1 or 2, got {order!r}")


class Jet:
    """Truncated Taylor jet of a scalar expression in n variables.

    A jet has an order of 0, 1 or 2.  ``val`` carries the batch shape of the
    evaluation (a scalar or a 1-D array of samples); at order >= 1 ``grad``
    prepends an axis of length n, at order 2 ``hess`` prepends two, and a
    derivative the jet does not carry is None.  ``nvars`` is stored, so an
    order-0 jet still knows its variables.  Arithmetic with plain
    scalars/arrays (treated as constants) keeps the jet's order; a binary
    operation on two jets, and any chain rule, truncates to the lower order
    of its operands.  Every order uses the same formulas, so the value and
    gradient of a lower-order jet equal those of the order-2 jet bit for
    bit.
    """

    __slots__ = ("val", "grad", "hess", "nvars")

    # keep numpy from absorbing reflected operators on ndarray <op> Jet
    __array_ufunc__ = None

    def __init__(self, val, grad, hess, nvars: int):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.nvars = nvars

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        return 0 if self.grad is None else 1

    @classmethod
    def variable(cls, values, index: int, nvars: int, *, order: int = 2) -> "Jet":
        _check_order(order)
        v = np.asarray(values, dtype=float)
        g = h = None
        if order > 0:
            g = np.zeros((nvars,) + v.shape)
            g[index] = 1.0
        if order > 1:
            h = np.zeros((nvars, nvars) + v.shape)
        return cls(v, g, h, nvars)

    @classmethod
    def constant(cls, value, nvars: int, *, order: int = 2) -> "Jet":
        _check_order(order)
        v = np.asarray(value, dtype=float)
        g = np.zeros((nvars,) + v.shape) if order > 0 else None
        h = np.zeros((nvars, nvars) + v.shape) if order > 1 else None
        return cls(v, g, h, nvars)

    def __repr__(self):
        return f"Jet(val={self.val!r}, order={self.order})"

    def _map(self, val, fn) -> "Jet":
        """Jet of value ``val`` whose carried derivatives are ``fn`` of this jet's."""
        return Jet(
            val,
            None if self.grad is None else fn(self.grad),
            None if self.hess is None else fn(self.hess),
            self.nvars,
        )

    # -- arithmetic ----------------------------------------------------

    def _linear(self, other: "Jet", op) -> "Jet":
        """``op`` (+ or -) of two jets, term by term, at the lower order."""
        order = min(self.order, other.order)
        return Jet(
            op(self.val, other.val),
            op(self.grad, other.grad) if order > 0 else None,
            op(self.hess, other.hess) if order > 1 else None,
            self.nvars,
        )

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._linear(other, operator.add)
        return Jet(self.val + other, self.grad, self.hess, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return self._map(-self.val, lambda d: -d)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self._linear(other, operator.sub)
        return Jet(self.val - other, self.grad, self.hess, self.nvars)

    def __rsub__(self, other):
        return self._map(other - self.val, lambda d: -d)

    def __mul__(self, other):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            g = h = None
            if order > 0:
                g = self.grad * other.val + other.grad * self.val
            if order > 1:
                h = (
                    self.hess * other.val
                    + other.hess * self.val
                    + self.grad[:, None] * other.grad[None, :]
                    + other.grad[:, None] * self.grad[None, :]
                )
            return Jet(self.val * other.val, g, h, self.nvars)
        return self._map(self.val * other, lambda d: d * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            q = self.val / other.val
            g = h = None
            if order > 0:
                g = (self.grad - q * other.grad) / other.val
            if order > 1:
                h = (
                    self.hess
                    - q * other.hess
                    - g[:, None] * other.grad[None, :]
                    - other.grad[:, None] * g[None, :]
                ) / other.val
            return Jet(q, g, h, self.nvars)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        inv = _chain(self, 1.0 / self.val, -1.0 / self.val**2, 2.0 / self.val**3)
        return inv * other

    def __pow__(self, expo):
        if isinstance(expo, float) and expo.is_integer():
            expo = int(expo)
        if isinstance(expo, int):
            if expo == 0:
                ones = np.ones_like(np.asarray(self.val, dtype=float))
                return Jet.constant(ones, self.nvars, order=self.order)
            if expo == 1:
                return self
            v = self.val
            return _chain(
                self,
                np.power(v, expo),
                expo * np.power(v, expo - 1),
                expo * (expo - 1) * np.power(v, expo - 2),
            )
        v = self.val
        f0 = np.power(v, expo)
        return _chain(self, f0, expo * f0 / v, expo * (expo - 1) * f0 / (v * v))


def _chain(u: Jet, f0, f1, f2) -> Jet:
    """Compose a scalar function (value f0, derivatives f1, f2) with a jet,
    keeping the jet's order."""
    g = None if u.grad is None else f1 * u.grad
    h = None
    if u.hess is not None:
        h = f1 * u.hess + f2 * (u.grad[:, None] * u.grad[None, :])
    return Jet(f0, g, h, u.nvars)


def jet_exp(u: Jet) -> Jet:
    e = np.exp(u.val)
    return _chain(u, e, e, e)


def jet_sqrt(u: Jet) -> Jet:
    s = np.sqrt(u.val)
    return _chain(u, s, 0.5 / s, -0.25 / (s * u.val))


def jet_sin(u: Jet) -> Jet:
    s, c = np.sin(u.val), np.cos(u.val)
    return _chain(u, s, c, -s)


def jet_cos(u: Jet) -> Jet:
    s, c = np.sin(u.val), np.cos(u.val)
    return _chain(u, c, -s, -c)


def jet_abs(u: Jet) -> Jet:
    """|u|, with sign 0 at the kink; safe under flat compositions only."""
    s = np.sign(u.val)
    return u._map(np.abs(u.val), lambda d: s * d)


# Below this threshold exp(-1/t) underflows to exactly 0.0 in doubles, so the
# masked branch introduces no error while keeping 1/t powers finite.
_FLAT_EXP_TINY = 1e-8


def flat_exp(u: Jet) -> Jet:
    """exp(-1/u) for u > 0, continued by zero; smooth with all-zero jets at 0."""
    t = np.asarray(u.val, dtype=float)
    pos = t > _FLAT_EXP_TINY
    ts = np.where(pos, t, 1.0)
    e = np.where(pos, np.exp(-1.0 / ts), 0.0)
    # the derivative factors cost more than the value: form only those carried
    d1 = e / ts**2 if u.order > 0 else None
    d2 = e * (1.0 / ts**4 - 2.0 / ts**3) if u.order > 1 else None
    return _chain(u, e, d1, d2)


def smooth_step(u: Jet) -> Jet:
    """Smooth profile equal to 1 for u <= 1 and 0 for u >= 2.

    Built as E(2 - u) / (E(2 - u) + E(u - 1)) with E the flat exponential,
    so every derivative vanishes at both plateau edges.
    """
    n = flat_exp(2.0 - u)
    return n / (n + flat_exp(u - 1.0))


class ScalarField:
    """Scalar field defined by a jet-arithmetic rule of ``nvars`` arguments.

    The rule receives one Jet per variable and must combine them with jet
    operations, so evaluation produces exact derivatives.  Fields compose:
    calling a field on jets returns the jet of the composite.
    """

    __slots__ = ("rule", "nvars")

    def __init__(self, rule: Callable[..., Jet], nvars: int = 3):
        self.rule = rule
        self.nvars = int(nvars)

    def __call__(self, *args: Jet) -> Jet:
        out = self.rule(*args)
        if not isinstance(out, Jet):  # constant rule
            ref = args[0]
            value = np.broadcast_to(float(out), np.shape(ref.val)).copy()
            return Jet.constant(value, ref.nvars, order=ref.order)
        return out

    def jet(self, *coords, order: int = 2) -> Jet:
        """Jet of the field at the coordinates, carrying derivatives up to ``order``."""
        if len(coords) != self.nvars:
            raise ValueError(f"field takes {self.nvars} coordinates, got {len(coords)}")
        arrays = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords])
        jets = [Jet.variable(a, i, self.nvars, order=order) for i, a in enumerate(arrays)]
        return self(*jets)

    def value(self, *coords):
        """Field values alone, from an order-0 jet."""
        return self.jet(*coords, order=0).val
