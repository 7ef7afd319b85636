"""Acceptance battery: nine headline checks, one test (and one line) each.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion; each test also prints the measured numbers it asserts on.
"""

import math
import time

import numpy as np

import test_quadrature as quad_battery
from hperim.core import ScalarField, jet_abs, smooth_step
from hperim.graphs import AlphaBetaGraph, SwappedGraph, VerticalPlane
from hperim.identities import ibp_residuals, point_identity_residuals
from hperim.instability import certify_instability, hardy_limits, hardy_sides
from hperim.intrinsic import (
    family_phi,
    graph_first_variation,
    graph_mean_curvature,
    graph_perimeter,
    lift,
    lift_patch,
)
from hperim.quadrature import integrate_1d, integrate_2d
from hperim.surfaces import h_perimeter_integral
from hperim.variation import (
    DeformationField,
    extend_profile,
    pulled_back_form,
    second_variation_general,
    second_variation_x1,
)

GRAPH_PAIRS = [(1.0, 0.0), (2.0, 1.0), (0.5, -3.0)]


def test_criterion_1_ruled_graphs_are_minimal():
    start = time.perf_counter()
    worst = 0.0
    for alpha, beta in GRAPH_PAIRS:
        graph = AlphaBetaGraph(alpha, beta)
        y, t = np.meshgrid(np.linspace(-5, 5, 50), np.linspace(-5, 5, 50))
        fd = graph.surface.frame_data(y * graph.slope(t), y, t)
        worst = max(worst, float(np.max(np.abs(fd.mean_curvature))))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: sup |curvature| = {worst:.3e} (tol 1e-9) in {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_2_closed_frames_match_generic():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0

    for alpha, beta in GRAPH_PAIRS:
        graph = AlphaBetaGraph(alpha, beta)
        y = rng.uniform(-3, 3, 2000)
        t = rng.uniform(-3, 3, 2000)
        fd = graph.surface.frame_data(y * graph.slope(t), y, t)
        for i in range(2000):
            fr = graph.closed_frame(float(y[i]), float(t[i]))
            worst = max(
                worst,
                abs(fr.p - float(fd.p[i])),
                abs(fr.q - float(fd.q[i])),
                abs(fr.omega - float(fd.omega[i])),
                abs(fr.W - float(fd.W[i])),
            )
            count += 1

    for alpha, beta in [(-1.0, 0.0), (-2.0, 1.0)]:
        graph = SwappedGraph(alpha, beta)
        x = rng.uniform(-3, 3, 1500)
        t = rng.uniform(-3, 3, 1500)
        fd = graph.surface.frame_data(x, x * (alpha * t + beta), t)
        for i in range(1500):
            fr = graph.closed_frame(float(x[i]), float(t[i]))
            worst = max(
                worst,
                abs(fr.p - float(fd.p[i])),
                abs(fr.q - float(fd.q[i])),
                abs(fr.omega - float(fd.omega[i])),
                abs(fr.W - float(fd.W[i])),
            )
            count += 1

    plane = VerticalPlane(3.0, 4.0, 2.0)
    fr = plane.closed_frame()
    u = rng.uniform(-3, 3, 1000)
    v = rng.uniform(-3, 3, 1000)
    fd = plane.surface.frame_data((2.0 - 4.0 * u) / 3.0, u, v)
    worst = max(
        worst,
        float(np.max(np.abs(fd.p - fr.p))),
        float(np.max(np.abs(fd.q - fr.q))),
        float(np.max(np.abs(fd.omega - fr.omega))),
        float(np.max(np.abs(fd.W - fr.W))),
    )
    count += 1000

    print(f"criterion 2: max frame deviation = {worst:.3e} over {count} points (tol 1e-12)")
    assert count >= 10000
    assert worst <= 1e-12


def test_criterion_3_pointwise_identities():
    worst = {}
    for alpha, beta in GRAPH_PAIRS:
        rows = point_identity_residuals(AlphaBetaGraph(alpha, beta), n=1000, seed=42)
        assert len(rows) == 7
        for row in rows:
            worst[row["name"]] = max(worst.get(row["name"], 0.0), row["residual"])
    top = max(worst.values())
    print("criterion 3: identity residuals over 3 graphs x 1000 points (tol 1e-9)")
    for name in sorted(worst):
        print(f"  {name:24s} {worst[name]:.3e}")
    assert top < 1e-9


def test_criterion_4_integration_by_parts():
    rows = ibp_residuals(AlphaBetaGraph(1.0, 0.0), (-2.0, 2.0), (-2.0, 2.0),
                         n=10, seed=0)
    assert len(rows) == 20
    worst = max(row["residual"] / row["budget"] for row in rows)
    print(f"criterion 4: worst residual/budget ratio = {worst:.3f} over {len(rows)} rows")
    for row in rows:
        assert row["converged"], row
        assert row["residual"] <= row["budget"], row


def test_criterion_5_hardy_gap():
    start = time.perf_counter()
    alpha = 1.0
    lhs, rhs, gap = hardy_sides(200, alpha)
    ll, rl, gl = hardy_limits(alpha)
    dl, dr, dg = abs(lhs - ll) / ll, abs(rhs - rl) / rl, abs(gap - gl) / gl
    gaps = {k: hardy_sides(k, alpha)[2] for k in (4, 5, 6, 8)}
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: k=200 deviations lhs {dl:.3%} (tol 1%), rhs {dr:.3%} (tol 2%), "
        f"gap {dg:.3%} (tol 5%); gaps {gaps} in {elapsed:.2f}s"
    )
    assert dl < 0.01 and dr < 0.02 and dg < 0.05
    assert all(g > 0.0 for g in gaps.values())
    assert elapsed < 10.0


def test_criterion_6_instability_certificates():
    start = time.perf_counter()
    for alpha, beta in [(1.0, 0.0), (1.0, 5.0), (3.0, -1.0)]:
        for direction in ("x1", "nuh"):
            cert = certify_instability(alpha, beta, direction, k_max=64)
            print(
                f"criterion 6: alpha={alpha} beta={beta} {direction}: k={cert.k}, "
                f"value={cert.value:.6f} +/- {cert.error:.1e}, "
                f"surface={cert.surface_value:.6f}"
            )
            assert cert.k <= 64
            assert cert.value + cert.error < 0.0
            assert abs(cert.value - cert.surface_value) <= cert.agreement_tol
    elapsed = time.perf_counter() - start
    print(f"criterion 6: six certificates in {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300.0


def test_criterion_7_route_chain_agreement():
    box = (-2.0, 2.0, -2.0, 2.0)

    def plateau(j, lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return smooth_step(jet_abs(j - mid) * (2.0 / half))

    graph = AlphaBetaGraph(1.0, 0.0)
    patch = graph.patch(box[:2], box[2:])
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        c = rng.uniform(-1.0, 1.0, size=6)

        def rule(y, t, c=c):
            poly = c[0] + c[1] * y + c[2] * t + c[3] * y * t + c[4] * y * y + c[5] * t * t
            return poly * plateau(y, *box[:2]) * plateau(t, *box[2:])

        u = ScalarField(rule, 2)
        a = extend_profile(graph, u)
        values = [
            pulled_back_form(graph, u, 1.5, box).value,
            second_variation_x1(graph.surface, patch, a, form="raw").value,
            second_variation_x1(graph.surface, patch, a, form="reduced").value,
            second_variation_general(
                graph.surface, patch, DeformationField.along_x1(a, box)
            ).value,
        ]
        spread = max(values) - min(values)
        worst = max(worst, spread)
        print(f"criterion 7: profile {trial}: route spread = {spread:.3e}")
    print(f"criterion 7: worst spread = {worst:.3e} (tol 1e-6)")
    assert worst < 1e-6


def test_criterion_8_intrinsic_chain():
    window = (-1.0, 1.0, -1.0, 1.0)
    phi = family_phi(1.0, 0.0)

    u, v = np.meshgrid(np.linspace(-2, 2, 40), np.linspace(-2, 2, 40))
    sup_curv = float(np.max(np.abs(graph_mean_curvature(phi, u, v))))

    def plateau(j, lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return smooth_step(jet_abs(j - mid) * (2.0 / half))

    zeta = ScalarField(
        lambda a, b: (1.0 + 0.4 * a * b) * plateau(a, -1.0, 1.0) * plateau(b, -1.0, 1.0), 2
    )
    weak = graph_first_variation(phi, zeta, window, form="weak").value
    strong = graph_first_variation(phi, zeta, window, form="strong").value

    curved = ScalarField(lambda a, b: 0.3 * a * a - 0.2 * b + 0.1 * a * b * b, 2)
    wc = graph_first_variation(curved, zeta, window, form="weak").value
    sc = graph_first_variation(curved, zeta, window, form="strong").value

    per = graph_perimeter(phi, window).value
    one = ScalarField(lambda x, y, t: 1.0 + 0.0 * x, 3)
    ambient = h_perimeter_integral(lift(phi), lift_patch(phi, window), one).value
    rel = abs(per - ambient) / per

    print(
        f"criterion 8: sup curvature {sup_curv:.3e} (tol 1e-8); "
        f"minimal weak/strong {weak:.3e}/{strong:.3e}; "
        f"curved weak-strong gap {abs(wc - sc):.3e} (tol 1e-7); "
        f"perimeter deviation {rel:.3e} (tol 1e-6)"
    )
    assert sup_curv < 1e-8
    assert abs(weak) < 1e-9 and abs(strong) < 1e-9
    assert abs(wc - sc) < 1e-7
    assert rel < 1e-6


def test_criterion_9_quadrature_battery():
    sound, total = quad_battery.battery_soundness()
    print(f"criterion 9: {sound}/{total} battery integrals sound (need 95%)")
    assert sound / total >= 0.95

    f, box, _ = quad_battery.BATTERY_2D[0][1:]
    first = integrate_2d(f, box)
    assert integrate_2d(f, box) == first
    name, g, interval, _ = quad_battery.BATTERY_1D[0]
    first_1d = integrate_1d(g, interval)
    assert integrate_1d(g, interval) == first_1d
    print("criterion 9: repeated integrals bit-identical")
