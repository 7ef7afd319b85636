"""Command-line front end.

Subcommands
-----------
curvature    mean-curvature samples of a ruled graph or vertical plane (CSV)
identities   pointwise and integration-by-parts residual table
instability  scan cutoff widths for a certified negative second variation
hardy        one-dimensional comparison integrals for a list of widths (CSV)
burgers      intrinsic-graph summary: perimeter, first variation, curvature
replay       rerun a recorded invocation and compare outputs

Everything runs locally with no network access; outputs are plain CSV and
JSON with floats printed by repr, so reruns are byte-identical.  Exit codes:
0 success, 1 a check failed, 2 usage error (a flag out of range, a reversed
or empty box or window, a zero plane normal, an unreadable or malformed
replay record), 3 instability scan exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import ScalarField, jet_abs, smooth_step
from .graphs import AlphaBetaGraph, VerticalPlane
from .identities import ibp_residuals, point_identity_residuals
from .instability import ScanExhaustedError, certify_instability, hardy_limits, hardy_sides
from .intrinsic import IntrinsicGraph, family_phi, plane_phi
from .quadrature import DEFAULT_SPEC, QuadratureSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SCAN_EXHAUSTED = 3


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int_at_least(minimum: int):
    """Argparse type for an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        return value

    return parse


def _fmt(value) -> str:
    return repr(float(value))


def _spec_from(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol, abs_floor=args.abs_floor)


def _usage_error(message):
    print(message, file=sys.stderr)
    return EXIT_USAGE, {}


def _write_or_print(path, text: str):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _plateau_2d(window) -> ScalarField:
    """Smooth bump supported in the window, used as a canned test deformation."""
    u0, u1, v0, v1 = (float(w) for w in window)
    um, uh = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    vm, vh = 0.5 * (v0 + v1), 0.5 * (v1 - v0)

    def rule(u, v):
        bu = smooth_step(jet_abs(u - um) * (2.0 / uh))
        bv = smooth_step(jet_abs(v - vm) * (2.0 / vh))
        return bu * bv

    return ScalarField(rule, 2)


def _add_common(sub):
    sub.add_argument("--rel-tol", type=_positive_float, default=DEFAULT_SPEC.rel_tol)
    sub.add_argument("--abs-floor", type=_positive_float, default=DEFAULT_SPEC.abs_floor)
    sub.add_argument("--record", help="write a JSON run record to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hperim",
        description="horizontal-perimeter variational calculations on the Heisenberg group",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("curvature", help="sample the mean curvature over a chart grid")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--plane", nargs=3, type=_finite_float, metavar=("A", "B", "C"),
                   help="use the vertical plane Ax + By = C instead of the ruled graph")
    p.add_argument("--grid", type=_int_at_least(2), default=25)
    p.add_argument("--box", nargs=4, type=_finite_float, default=[-2.0, 2.0, -2.0, 2.0],
                   metavar=("U0", "U1", "V0", "V1"))
    p.add_argument("--out", help="CSV output path (default: stdout)")
    _add_common(p)

    p = subs.add_parser("identities", help="check the structural identity battery")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--samples", type=_int_at_least(0), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--ibp-samples", type=_int_at_least(0), default=2)
    _add_common(p)

    p = subs.add_parser("instability", help="certify a negative second variation")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--direction", choices=("x1", "nuh"), default="x1")
    p.add_argument("--kmax", type=_int_at_least(0), default=64)
    p.add_argument("--out", help="certificate JSON path; scan CSV goes next to it")
    _add_common(p)

    p = subs.add_parser("hardy", help="one-dimensional comparison integrals")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--klist", nargs="*", type=_positive_float, default=[])
    p.add_argument("--out", help="CSV output path (default: stdout)")
    _add_common(p)

    p = subs.add_parser("burgers", help="intrinsic-graph window summary")
    p.add_argument("--mode", choices=("family", "plane", "custom"), default="family")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--plane-coeffs", nargs=3, type=_finite_float, default=[1.0, 0.0, 0.0],
                   metavar=("A", "B", "C"))
    p.add_argument("--coeffs", nargs=6, type=_finite_float,
                   default=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                   metavar=("C0", "CU", "CV", "CUU", "CUV", "CVV"),
                   help="custom profile c0 + cu u + cv v + cuu u^2 + cuv u v + cvv v^2")
    p.add_argument("--window", nargs=4, type=_finite_float, default=[-1.0, 1.0, -1.0, 1.0],
                   metavar=("U0", "U1", "V0", "V1"))
    p.add_argument("--grid", type=_int_at_least(1), default=21)
    p.add_argument("--out", help="JSON output path (default: stdout)")
    _add_common(p)

    p = subs.add_parser("replay", help="rerun a recorded invocation and compare outputs")
    p.add_argument("record_file")
    return parser


def cmd_curvature(args):
    u0, u1, v0, v1 = args.box
    try:
        if args.plane is not None:
            shape = VerticalPlane(*args.plane)
            header = "u,v,curvature"
            label = f"plane {args.plane[0]} x + {args.plane[1]} y = {args.plane[2]}"
        else:
            shape = AlphaBetaGraph(args.alpha, args.beta)
            header = "y,t,curvature"
            label = f"ruled graph alpha={args.alpha} beta={args.beta}"
        patch = shape.patch((u0, u1), (v0, v1))
    except ValueError as exc:
        return _usage_error(exc)
    uu, vv = np.meshgrid(np.linspace(u0, u1, args.grid),
                         np.linspace(v0, v1, args.grid), indexing="ij")
    cx, cy, ct = patch.chart_jets(uu.ravel(), vv.ravel())
    fd = shape.surface.frame_data(cx.val, cy.val, ct.val)
    curv = np.atleast_1d(fd.mean_curvature)

    lines = [header]
    for u, v, h in zip(uu.ravel(), vv.ravel(), curv):
        lines.append(f"{_fmt(u)},{_fmt(v)},{_fmt(h)}")
    _write_or_print(args.out, "\n".join(lines) + "\n")

    sup = float(np.max(np.abs(curv)))
    print(f"{label}: max |curvature| = {_fmt(sup)} over {args.grid}x{args.grid} grid")
    return EXIT_OK, {"max_abs_curvature": sup, "grid": args.grid}


def cmd_identities(args):
    graph = AlphaBetaGraph(args.alpha, args.beta)
    spec = _spec_from(args)
    rows = point_identity_residuals(graph, n=args.samples, seed=args.seed)
    ibp = ibp_residuals(graph, n=args.ibp_samples, seed=args.seed, spec=spec)

    failures = []
    print(f"{'identity':28s} {'residual':>12s} {'allowed':>12s}  status")
    for row in rows:
        ok = row["residual"] <= args.tol
        status = "pass" if ok else "FAIL"
        print(f"{row['name']:28s} {row['residual']:12.3e} {args.tol:12.3e}  {status}")
        if not ok:
            failures.append(row)
    for row in ibp:
        name = f"{row['name']}[{row['sample']}]"
        ok = row["converged"] and row["residual"] <= row["budget"]
        status = "pass" if ok else "FAIL"
        print(f"{name:28s} {row['residual']:12.3e} {row['budget']:12.3e}  {status}")
        if not ok:
            failures.append(row)

    if args.samples == 0:
        print("warning: 0 samples requested, pointwise rows pass vacuously")
    for row in failures:
        where = row.get("worst_point")
        at = f" at (y, t) = ({_fmt(where[0])}, {_fmt(where[1])})" if where else ""
        unconverged = "" if row.get("converged", True) else " (an integral did not converge)"
        print(f"failed: {row['name']} residual {_fmt(row['residual'])}{at}{unconverged}")
    worst = {row["name"]: row["residual"] for row in rows}
    code = EXIT_CHECK_FAILED if failures else EXIT_OK
    return code, {"residuals": worst, "failures": len(failures)}


def cmd_instability(args):
    spec = _spec_from(args)

    def show(row):
        print(f"k={row['k']:3d}  value={_fmt(row['value'])}  error={_fmt(row['error'])}")

    def scan_csv(rows):
        lines = ["k,value,error"]
        for row in rows:
            lines.append(f"{row['k']},{_fmt(row['value'])},{_fmt(row['error'])}")
        return "\n".join(lines) + "\n"

    try:
        cert = certify_instability(
            args.alpha, args.beta, args.direction, args.kmax,
            spec=spec, on_step=show,
        )
    except ScanExhaustedError as exc:
        print(f"scan exhausted: {exc}")
        if args.out:
            scan_path = Path(args.out).with_suffix("").as_posix() + "_scan.csv"
            Path(scan_path).write_text(scan_csv(exc.scan))
            print(f"scan written to {scan_path}")
        return EXIT_SCAN_EXHAUSTED, {"certified": False, "scanned": len(exc.scan)}

    payload = cert.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(payload)
        scan_path = Path(args.out).with_suffix("").as_posix() + "_scan.csv"
        Path(scan_path).write_text(scan_csv(cert.scan))
        print(f"certificate written to {args.out}, scan to {scan_path}")
    else:
        sys.stdout.write(payload)
    print(
        f"certified: direction {cert.direction}, k={cert.k}, "
        f"value {_fmt(cert.value)} +/- {_fmt(cert.error)} "
        f"(surface route {_fmt(cert.surface_value)})"
    )
    outputs = {
        "certified": True,
        "k": cert.k,
        "value": cert.value,
        "error": cert.error,
        "surface_value": cert.surface_value,
    }
    return EXIT_OK, outputs


def cmd_hardy(args):
    spec = _spec_from(args)
    ll, rl, gl = hardy_limits(args.alpha)
    lines = ["k,lhs,rhs,gap,lhs_limit,rhs_limit,gap_limit"]
    gaps = {}
    for k in args.klist:
        lhs, rhs, gap = hardy_sides(k, args.alpha, spec)
        gaps[_fmt(k)] = gap
        lines.append(
            f"{_fmt(k)},{_fmt(lhs)},{_fmt(rhs)},{_fmt(gap)},"
            f"{_fmt(ll)},{_fmt(rl)},{_fmt(gl)}"
        )
    _write_or_print(args.out, "\n".join(lines) + "\n")
    if args.out:
        print(f"wrote {len(args.klist)} rows to {args.out}")
    return EXIT_OK, {"gaps": gaps, "gap_limit": gl}


def cmd_burgers(args):
    if args.mode == "family":
        phi = family_phi(args.alpha, args.beta)
    elif args.mode == "plane":
        a, b, c = args.plane_coeffs
        if a == 0.0:
            return _usage_error("plane profile needs a nonzero first coefficient")
        phi = plane_phi(a, b, c)
    else:
        c0, cu, cv, cuu, cuv, cvv = args.coeffs

        def rule(u, v):
            return c0 + cu * u + cv * v + cuu * u * u + cuv * u * v + cvv * v * v

        phi = ScalarField(rule, 2)

    spec = _spec_from(args)
    window = tuple(args.window)
    try:
        graph = IntrinsicGraph(phi, window)
    except ValueError as exc:
        return _usage_error(exc)
    zeta = _plateau_2d(window)

    perimeter = graph.perimeter(spec).value
    weak = graph.first_variation(zeta, "weak", spec).value
    strong = graph.first_variation(zeta, "strong", spec).value

    u0, u1, v0, v1 = window
    uu, vv = np.meshgrid(np.linspace(u0, u1, args.grid),
                         np.linspace(v0, v1, args.grid), indexing="ij")
    curv = np.atleast_1d(graph.mean_curvature(uu.ravel(), vv.ravel()))
    uc, vc = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    slope = float(np.atleast_1d(graph.burgers(phi, uc, vc))[0])

    summary = {
        "mode": args.mode,
        "window": list(window),
        "perimeter": perimeter,
        "first_variation_weak": weak,
        "first_variation_strong": strong,
        "first_variation_gap": abs(weak - strong),
        "max_abs_curvature": float(np.max(np.abs(curv))),
        "burgers_at_center": slope,
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write_or_print(args.out, text)
    if args.out:
        print(f"summary written to {args.out}")
    return EXIT_OK, summary


def cmd_replay(args, parser):
    try:
        data = json.loads(Path(args.record_file).read_text())
        argv = data["argv"]
        want = json.dumps(data["outputs"], sort_keys=True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _usage_error(f"cannot replay {args.record_file}: {type(exc).__name__}: {exc}")
    if not (isinstance(argv, list) and all(isinstance(token, str) for token in argv)):
        return _usage_error(f"cannot replay {args.record_file}: argv is not a list of strings")
    cleaned = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--record":
            skip = True
            continue
        if token.startswith("--record="):
            continue
        cleaned.append(token)
    if cleaned and cleaned[0] == "replay":
        return _usage_error("refusing to replay a replay record")

    replayed = parser.parse_args(cleaned)
    code, outputs = _dispatch(replayed, parser)
    if code != EXIT_OK:
        print(f"replayed command exited with {code}")
        return code, outputs
    got = json.dumps(outputs, sort_keys=True)
    if want == got:
        print("replay outputs match the record")
        return EXIT_OK, outputs
    print("replay outputs differ from the record")
    print(f"  recorded: {want}")
    print(f"  replayed: {got}")
    return EXIT_CHECK_FAILED, outputs


@dataclass
class RunRecord:
    """Provenance of one invocation, enough to replay it."""

    command: str
    argv: list
    parameters: dict
    outputs: dict
    quadrature: dict
    version: str
    wall_time_s: float


def _dispatch(args, parser):
    if args.command == "curvature":
        return cmd_curvature(args)
    if args.command == "identities":
        return cmd_identities(args)
    if args.command == "instability":
        return cmd_instability(args)
    if args.command == "hardy":
        return cmd_hardy(args)
    if args.command == "burgers":
        return cmd_burgers(args)
    if args.command == "replay":
        return cmd_replay(args, parser)
    parser.error(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)

    start = time.perf_counter()
    code, outputs = _dispatch(args, parser)
    wall = time.perf_counter() - start

    record_path = getattr(args, "record", None)
    if record_path and args.command != "replay":
        parameters = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "record") and not callable(v)
        }
        record = RunRecord(
            command=args.command,
            argv=raw,
            parameters=parameters,
            outputs=outputs,
            quadrature={"rel_tol": args.rel_tol, "abs_floor": args.abs_floor},
            version=__version__,
            wall_time_s=wall,
        )
        Path(record_path).write_text(json.dumps(asdict(record), indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
