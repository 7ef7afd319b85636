"""Span tracing of hperim's public functions, installed from outside.

Each traced name is replaced where it is looked up: a module attribute for
functions imported by name (``hperim.surfaces.integrate_2d`` is a different
binding from ``hperim.variation.integrate_2d``), a class attribute for
methods.  A wrapper records a span (name, start, end, parent, points),
passes arguments and the return value through untouched and never unpacks
results, so it keeps working when signatures gain or lose parameters.  The
``integrate_*`` wrappers also wrap the integrand they are handed, which
splits quadrature time into integrand time and the adaptive loop's own.

Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics, where a span's self time is its duration minus the
durations of its direct children (calls nest strictly: one thread).
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

import numpy as np

INTEGRATE = "quadrature.integrate"
INTEGRAND = "quadrature.integrand"
CHART_PLANE = "variation.chart_plane"
SURFACE_X1 = "variation.surface_x1"
SURFACE_NU = "variation.surface_nu"
CERTIFY = "instability.certify"
ROUTES = (CHART_PLANE, SURFACE_X1, SURFACE_NU)


def _points_of_coords(args, kwargs):
    coords = args[1:]
    return int(np.broadcast(*coords).size) if coords else 1


def _points_of_n(args, kwargs):
    return int(kwargs.get("n", 0))


# (module, owner attribute or None, attribute, span name, points, wraps integrand)
TARGETS = [
    ("hperim.quadrature", None, "integrate_1d", INTEGRATE, None, True),
    ("hperim.quadrature", None, "integrate_2d", INTEGRATE, None, True),
    ("hperim.surfaces", None, "integrate_2d", INTEGRATE, None, True),
    ("hperim.variation", None, "integrate_2d", INTEGRATE, None, True),
    ("hperim.intrinsic", None, "integrate_2d", INTEGRATE, None, True),
    ("hperim.instability", None, "integrate_1d", INTEGRATE, None, True),
    ("hperim.core", "ScalarField", "jet", "core.jet", _points_of_coords, False),
    ("hperim.surfaces", "LevelSurface", "frame_data", "surfaces.frame_data", _points_of_coords, False),
    ("hperim.surfaces", "SurfacePatch", "chart_jets", "surfaces.chart_jets", _points_of_coords, False),
    ("hperim.surfaces", None, "integrate_on_surface", "surfaces.integrate_on_surface", None, False),
    ("hperim.variation", None, "integrate_on_surface", "surfaces.integrate_on_surface", None, False),
    ("hperim.identities", None, "integrate_on_surface", "surfaces.integrate_on_surface", None, False),
    ("hperim.variation", None, "pulled_back_form", CHART_PLANE, None, False),
    ("hperim.instability", None, "pulled_back_form", CHART_PLANE, None, False),
    ("hperim.instability", None, "second_variation_x1", SURFACE_X1, None, False),
    ("hperim.instability", None, "second_variation_nu", SURFACE_NU, None, False),
    ("hperim.cli", None, "certify_instability", CERTIFY, None, False),
    ("hperim.cli", None, "hardy_sides", "instability.hardy_sides", None, False),
    ("hperim.cli", None, "point_identity_residuals", "identities.point", _points_of_n, False),
    ("hperim.identities", None, "point_identity_residuals", "identities.point", _points_of_n, False),
    ("hperim.intrinsic", "IntrinsicGraph", "perimeter", "intrinsic.perimeter", None, False),
    ("hperim.intrinsic", "IntrinsicGraph", "first_variation", "intrinsic.first_variation", None, False),
    ("hperim.cli", None, "main", "cli.main", None, False),
]


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, points]
        self.errors = Counter()
        self.missing = []
        self._stack = []
        self._saved = []

    def _record(self, name, fn, args, kwargs, points):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, points]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _integrand(self, f):
        @functools.wraps(f)
        def traced(*args, **kwargs):
            return self._record(INTEGRAND, f, args, kwargs, int(np.size(args[0])))
        return traced

    def _wrap(self, fn, name, points, integrand):
        per_nvars = name == "core.jet"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if integrand and args:
                args = (self._integrand(args[0]),) + args[1:]
            span = f"{name}.nv{args[0].nvars}" if per_nvars else name
            n = points(args, kwargs) if points else 0
            return self._record(span, fn, args, kwargs, n)
        return traced

    def install(self):
        for module, owner, attr, name, points, integrand in TARGETS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner, None)
            original = target.__dict__.get(attr) if target is not None else None
            if original is None:
                self.missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
                continue
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, points, integrand))

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def take(self):
        """Return and clear the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass (see BENCHMARK.json `per_layer`)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    route = [None] * n      # nearest enclosing second-variation route
    certify = [False] * n   # inside certify_instability
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        route[i] = name if name in ROUTES else (route[parent] if parent >= 0 else None)
        certify[i] = name == CERTIFY or (parent >= 0 and certify[parent])
    self_t = [d - c for d, c in zip(dur, child)]

    count, points, total, own = Counter(), Counter(), Counter(), Counter()
    route_calls, route_s = Counter(), Counter()
    for i, (name, _, _, _, pts) in enumerate(spans):
        count[name] += 1
        points[name] += pts
        total[name] += dur[i]
        own[name] += self_t[i]
        if name == INTEGRAND and route[i]:
            route_calls[route[i]] += 1
            route_s[route[i]] += dur[i]
        if certify[i] and name == CHART_PLANE:
            route_calls["scan"] += 1
            route_s["scan"] += dur[i]
        if certify[i] and name in (SURFACE_X1, SURFACE_NU):
            route_s["crosscheck"] += dur[i]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {
        "quadrature.integrals": count[INTEGRATE],
        "quadrature.integrand_calls": count[INTEGRAND],
        "quadrature.points": points[INTEGRAND],
        "quadrature.points_per_call": ratio(points[INTEGRAND], count[INTEGRAND]),
        "quadrature.integrand_s": total[INTEGRAND],
        "quadrature.self_s": own[INTEGRATE],
        "quadrature.self_us_per_call": ratio(own[INTEGRATE], count[INTEGRAND], 1e6),
    }
    for nv in (1, 2, 3):
        key = f"core.jet.nv{nv}"
        m[f"core.jet.calls.nv{nv}"] = count[key]
        m[f"core.jet.points.nv{nv}"] = points[key]
        m[f"core.jet.self_s.nv{nv}"] = own[key]
        m[f"core.jet.us_per_point.nv{nv}"] = ratio(own[key], points[key], 1e6)
    fd = "surfaces.frame_data"
    m.update({
        "surfaces.frame_data.points": points[fd],
        "surfaces.frame_data.self_s": own[fd],
        "surfaces.frame_data.us_per_point": ratio(own[fd], points[fd], 1e6),
        "surfaces.chart_jets.self_s": own["surfaces.chart_jets"],
        "surfaces.integrate_on_surface.calls": count["surfaces.integrate_on_surface"],
        "surfaces.integrate_on_surface.s": total["surfaces.integrate_on_surface"],
    })
    for key, label in ((CHART_PLANE, "chart_plane"), (SURFACE_X1, "surface_x1"), (SURFACE_NU, "surface_nu")):
        m[f"variation.{label}.s"] = total[key]
        m[f"variation.{label}.cell_us"] = ratio(route_s[key], route_calls[key], 1e6)
    pt = "identities.point"
    m.update({
        "instability.scan_s": route_s["scan"],
        "instability.crosscheck_s": route_s["crosscheck"],
        "instability.scan_steps": route_calls["scan"],
        "identities.point.us_per_point": ratio(total[pt], points[pt], 1e6),
        "intrinsic.perimeter.s": total["intrinsic.perimeter"],
        "intrinsic.first_variation.s": total["intrinsic.first_variation"],
        "cli.self_s": own["cli.main"],
    })
    return m


COUNTS = (
    "quadrature.integrals", "quadrature.integrand_calls", "quadrature.points",
    "core.jet.calls.nv1", "core.jet.calls.nv2", "core.jet.calls.nv3",
    "core.jet.points.nv1", "core.jet.points.nv2", "core.jet.points.nv3",
    "surfaces.frame_data.points", "surfaces.integrate_on_surface.calls",
    "instability.scan_steps",
)


def kernel_probe(seed: int, batches=(225, 14400), min_seconds=0.2) -> dict:
    """Microseconds per point of the certificate's u_k (2-variable) and a_k
    (3-variable) jets at a cell-sized and a large batch; median of repeats."""
    from hperim.instability import a_k_field, u_k_field

    rng = np.random.default_rng([seed, 99])
    fields = {"u_k": u_k_field(2.0, 1.0), "a_k": a_k_field(2.0, 1.0, 0.0)}
    out = {}
    for label, f in fields.items():
        for b in batches:
            coords = rng.uniform(-4.0, 4.0, size=(f.nvars, b))
            f.jet(*coords)
            times = []
            start = perf_counter()
            while perf_counter() - start < min_seconds or len(times) < 5:
                t0 = perf_counter()
                f.jet(*coords)
                times.append(perf_counter() - t0)
            out[f"core.kernel.{label}.us_per_point.b{b}"] = float(np.median(times)) / b * 1e6
    return out
