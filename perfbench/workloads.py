"""Seeded workloads for the hperim benchmark.

A workload is a list of tasks; a task is one unit a user waits for (one
certificate, one table).  ``run`` goes
through hperim's public entry points and returns the raw outputs; ``check``
runs afterwards, outside the timed region, and returns the list of problems
found (empty when every output check passed).  ``summary`` holds the values
compared against the stored seed-0 reference.

Only module attributes are called (``cli.main``, ``identities.point_identity_residuals``),
never names bound at import, so the traced run's wrappers see every call.
Return values are read by key or attribute and never unpacked, so the tasks
keep working when hperim's internal result types change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hperim import cli, identities
from hperim.graphs import AlphaBetaGraph

WORKLOADS = ("certify", "tables")

# Criterion 6 of the acceptance battery; seed 0 of `certify` uses exactly these.
CRITERION6_PAIRS = ((1.0, 0.0), (1.0, 5.0), (3.0, -1.0))
ALPHA_JITTER = 0.05
BETA_JITTER = 0.25
# the curvature table's and the identity batch's graph: alpha and beta drawn
# from these ranges (the work does not depend on them)
ALPHA_RANGE = (0.5, 3.0)
BETA_RANGE = (-5.0, 5.0)
HARDY_WIDTHS = 30
# c0, cu, cv, cuu, cuv, cvv of the custom burgers profiles; seeds move each
# coefficient by up to BURGERS_JITTER, which keeps the work per seed steady
BURGERS_BASE = (
    (0.0, 1.0, 0.0, 0.5, 0.0, -0.5),
    (0.5, -0.5, 0.5, 0.0, 1.0, 0.0),
    (-0.5, 0.0, -1.0, -0.5, 0.5, 0.5),
)
BURGERS_JITTER = 0.05
CURVATURE_GRID = 300
IDENTITY_POINTS = 100_000
IDENTITY_TOL = 1e-9      # the `identities` subcommand's default --tol
BURGERS_AGREEMENT = 1e-7
CURVATURE_TOL = 1e-8     # ruled graphs are minimal: curvature is rounding noise


@dataclass
class Result:
    """Raw outputs of one task run, plus the exact text compared across passes."""

    digest: str
    data: dict = field(default_factory=dict)


@dataclass
class Task:
    name: str
    run: Callable[[], Result]
    check: Callable[[Result], list]
    summary: Callable[[Result], dict]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# --- certify ---------------------------------------------------------------

def certify_pairs(seed: int) -> list:
    """Three (alpha, beta) pairs: criterion 6's for seed 0; other seeds move
    each of them by up to ALPHA_JITTER (relative) and BETA_JITTER.  The
    pairs keep criterion 6's regimes (k = 2 near alpha = 1, k = 1 at
    alpha = 3; beta near 0 and near the range's end), so each seed brings
    new certificates at about the same amount of work."""
    if seed == 0:
        return list(CRITERION6_PAIRS)
    rng = _rng("certify", seed)
    return [(float(a * (1.0 + ALPHA_JITTER * rng.uniform(-1.0, 1.0))),
             float(b + BETA_JITTER * rng.uniform(-1.0, 1.0)))
            for a, b in CRITERION6_PAIRS]


def _certify_task(alpha, beta, direction, out: Path) -> Task:
    scan_path = Path(out.with_suffix("").as_posix() + "_scan.csv")
    argv = ["instability", "--alpha", repr(alpha), "--beta", repr(beta),
            "--direction", direction, "--out", str(out)]

    def run():
        code, _ = _cli(argv)
        if code != cli.EXIT_OK:
            return Result(f"exit {code}", {"code": code})
        text = out.read_text()
        return Result(text + scan_path.read_text(), {"code": code, "cert": json.loads(text)})

    def check(res):
        if res.data["code"] != cli.EXIT_OK:
            return [f"exit code {res.data['code']}"]
        c = res.data["cert"]
        v, e, sv, se = c["value"], c["error"], c["surface_value"], c["surface_error"]
        problems = []
        if not _finite(v, e, sv, se, c["agreement_tol"]):
            return ["non-finite certificate field"]
        if not v + e < 0.0:
            problems.append(f"value + error = {v + e!r} is not negative")
        if not abs(v - sv) <= c["agreement_tol"]:
            problems.append(f"|value - surface_value| = {abs(v - sv)!r} > agreement_tol")
        # the scan integrates at abs_floor / k^2 (see certify_instability)
        floor = c["abs_floor"] / (c["k"] * c["k"])
        for name, val, err in (("error", v, e), ("surface_error", sv, se)):
            target = max(floor, c["rel_tol"] * abs(val))
            if not 0.0 <= err <= target * (1.0 + 1e-9):
                problems.append(f"{name} {err!r} exceeds its target {target!r}")
        return problems

    def summary(res):
        c = res.data["cert"]
        return {"k": c["k"], "value": c["value"], "surface_value": c["surface_value"]}

    return Task(f"certify[{alpha!r},{beta!r},{direction}]", run, check, summary)


def certify_tasks(seed: int, out_dir: Path) -> list:
    tasks = []
    for i, (alpha, beta) in enumerate(certify_pairs(seed)):
        for direction in ("x1", "nuh"):
            tasks.append(_certify_task(alpha, beta, direction, out_dir / f"cert{i}_{direction}.json"))
    return tasks


# --- tables ----------------------------------------------------------------

def _hardy_task(widths, out: Path) -> Task:
    argv = ["hardy", "--klist", *(repr(k) for k in widths), "--out", str(out)]

    def run():
        code, _ = _cli(argv)
        text = out.read_text() if code == cli.EXIT_OK else ""
        return Result(f"exit {code}\n" + text, {"code": code, "text": text})

    def rows(res):
        return list(csv.DictReader(io.StringIO(res.data["text"])))

    def check(res):
        if res.data["code"] != cli.EXIT_OK:
            return [f"exit code {res.data['code']}"]
        table = rows(res)
        problems = [] if len(table) == len(widths) else [f"{len(table)} rows for {len(widths)} widths"]
        if not all(_finite(*(float(v) for v in row.values())) for row in table):
            problems.append("non-finite hardy entry")
        return problems

    def summary(res):
        return {"gaps": [float(row["gap"]) for row in rows(res)]}

    return Task("hardy", run, check, summary)


def _burgers_task(i, coeffs, out: Path) -> Task:
    argv = ["burgers", "--mode", "custom", "--coeffs", *(repr(c) for c in coeffs), "--out", str(out)]

    def run():
        code, _ = _cli(argv)
        if code != cli.EXIT_OK:
            return Result(f"exit {code}", {"code": code})
        text = out.read_text()
        return Result(text, {"code": code, "summary": json.loads(text)})

    def check(res):
        if res.data["code"] != cli.EXIT_OK:
            return [f"exit code {res.data['code']}"]
        s = res.data["summary"]
        weak, strong = s["first_variation_weak"], s["first_variation_strong"]
        if not _finite(weak, strong, s["perimeter"]):
            return ["non-finite burgers summary"]
        if not abs(weak - strong) <= BURGERS_AGREEMENT:
            return [f"weak {weak!r} and strong {strong!r} first variations disagree"]
        return []

    def summary(res):
        s = res.data["summary"]
        return {k: s[k] for k in ("perimeter", "first_variation_weak", "first_variation_strong")}

    return Task(f"burgers[{i}]", run, check, summary)


def _curvature_task(alpha, beta, out: Path) -> Task:
    argv = ["curvature", "--alpha", repr(alpha), "--beta", repr(beta),
            "--grid", str(CURVATURE_GRID), "--out", str(out)]

    def run():
        code, _ = _cli(argv)
        text = out.read_text() if code == cli.EXIT_OK else ""
        return Result(f"exit {code}\n" + _sha(text), {"code": code, "text": text})

    def check(res):
        if res.data["code"] != cli.EXIT_OK:
            return [f"exit code {res.data['code']}"]
        lines = res.data["text"].splitlines()[1:]
        curv = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
        if curv.size != CURVATURE_GRID ** 2:
            return [f"{curv.size} curvature samples, expected {CURVATURE_GRID ** 2}"]
        worst = float(np.max(np.abs(curv)))
        return [] if worst <= CURVATURE_TOL else [f"max |curvature| {worst!r} on a minimal graph"]

    def summary(res):
        return {"samples": len(res.data["text"].splitlines()) - 1}

    return Task("curvature", run, check, summary)


def _identity_task(graph, seed: int) -> Task:
    def run():
        rows = identities.point_identity_residuals(graph, n=IDENTITY_POINTS, seed=seed)
        return Result(repr(rows), {"rows": rows})

    def check(res):
        return [
            f"{row['name']} residual {row['residual']!r} > {IDENTITY_TOL!r}"
            for row in res.data["rows"]
            if not (_finite(row["residual"]) and row["residual"] <= IDENTITY_TOL)
        ]

    def summary(res):
        return {"rows": [row["name"] for row in res.data["rows"]]}

    return Task("identities", run, check, summary)


def tables_tasks(seed: int, out_dir: Path) -> list:
    rng = _rng("tables", seed)
    widths = sorted(float(k) for k in np.exp(rng.uniform(0.0, math.log(1000.0), HARDY_WIDTHS)))
    profiles = [[float(c + BURGERS_JITTER * rng.uniform(-1.0, 1.0)) for c in base] for base in BURGERS_BASE]
    alpha = float(rng.uniform(*ALPHA_RANGE))
    beta = float(rng.uniform(*BETA_RANGE))
    point_seed = int(rng.integers(0, 2**31))
    tasks = [_hardy_task(widths, out_dir / "hardy.csv")]
    tasks += [_burgers_task(i, c, out_dir / f"burgers{i}.json") for i, c in enumerate(profiles)]
    tasks.append(_curvature_task(alpha, beta, out_dir / "curvature.csv"))
    tasks.append(_identity_task(AlphaBetaGraph(alpha, beta), point_seed))
    return tasks


BUILDERS = {"certify": certify_tasks, "tables": tables_tasks}


def build(workload: str, seed: int, out_dir: Path) -> list:
    return BUILDERS[workload](seed, out_dir)
