"""Spread and parent/change comparison of benchmark records.

    python3 perfbench/compare.py baseline --runs 10 --out RUNS.jsonl
    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR --pairs 10 \
        --parent-out P.jsonl --change-out C.jsonl

Records are the JSON lines ``run.py --out`` appends; only untraced runs
count.  ``spread`` prints, per workload and end-to-end metric, the median,
the quartiles and their distance as a share of the median, against the
metric's bound in BENCHMARK.json.  ``baseline`` runs every workload on
seeds 1, 2, ... in this checkout and prints ``spread``.  ``run`` alternates
which side runs first in each pair (seeds 1, 2, ...) and then prints
``diff``.  ``diff`` pairs the i-th parent run of a workload with its i-th
change run and applies these rules:

* gain: the change is better in at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* unresolved: either side's interquartile range exceeds the bound (as a
  share of its median), unless every change run beats every parent run;
* regression: the change's median is worse than the parent's by more than
  the bound;
* otherwise no change.

The share of failed tasks is compared on its own row per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load(path) -> dict:
    """workload -> untraced records, in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["env"]["trace"]:
                runs[rec["env"]["workload"]].append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def rel_iqr(xs) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records]


def spread(path):
    runs = load(path)
    print(f"{'workload':9s} {'metric':12s} {'unit':4s} {'n':>3s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'iqr/med':>8s} {'bound':>6s}")
    for workload in WORKLOADS:
        for name, spec in END_TO_END.items():
            xs = values(runs.get(workload, []), name)
            if not xs:
                continue
            q1, q2, q3 = quartiles(xs)
            flag = "" if rel_iqr(xs) <= spec["bound"] / 3 else "  (over a third of the bound)"
            print(f"{workload:9s} {name:12s} {spec['unit']:4s} {len(xs):3d} {q2:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{rel_iqr(xs):8.4f} {spec['bound']:6.3f}{flag}")


def verdict(parent, change, bound, better) -> tuple:
    sign = 1.0 if better == "lower" else -1.0
    n = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, _, p3 = quartiles(parent)
    every = all(sign * (c - p) < 0 for p in parent for c in change)
    worse = sign * (cm - pm) / pm
    if n and wins >= 0.9 * n and sign * (pm - cm) > p3 - p1:
        label = "gain"
    elif max(rel_iqr(parent), rel_iqr(change)) > bound and not every:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    else:
        label = "no change"
    return label, wins, n, pm, cm, worse


def diff(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':9s} {'metric':12s} {'pairs':>5s} {'wins':>4s} {'parent':>11s} {'change':>11s} "
          f"{'worse':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            continue
        for name, spec in END_TO_END.items():
            label, wins, n, pm, cm, worse = verdict(
                values(p_runs, name), values(c_runs, name), spec["bound"], spec["better"])
            print(f"{workload:9s} {name:12s} {n:5d} {wins:4d} {pm:11.5g} {cm:11.5g} "
                  f"{worse:8.4f} {spec['bound']:6.3f}  {label}")
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        label = "more failures" if c_fail > p_fail else "no more failures"
        print(f"{workload:9s} {'failed_frac':12s} {'':5s} {'':4s} {p_fail:11.5g} {c_fail:11.5g} "
              f"{'':8s} {'':6s}  {label}")
        if min(len(p_runs), len(c_runs)) < 10:
            print(f"{workload:9s} fewer than 10 pairs: no gain can be claimed")


def _bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "perfbench").rglob("*.py")):
        h.update(f.read_bytes())
    return h.hexdigest()


def _run(root: Path, workload: str, seed: int, out: Path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0", "--out", str(out)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)


def run_baseline(args):
    out = Path(args.out).resolve()
    for seed in range(1, args.runs + 1):
        for workload in WORKLOADS:
            _run(BENCH_DIR.parent, workload, seed, out)
    spread(out)


def run_pairs(args):
    parent, change = Path(args.parent_dir).resolve(), Path(args.change_dir).resolve()
    if _bench_digest(parent) != _bench_digest(change):
        sys.exit("the two checkouts run different benchmark code")
    sides = [(parent, Path(args.parent_out).resolve()), (change, Path(args.change_out).resolve())]
    for seed in range(1, args.pairs + 1):
        order = sides if seed % 2 else sides[::-1]
        for workload in WORKLOADS:
            for root, out in order:
                _run(root, workload, seed, out)
    diff(args.parent_out, args.change_out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    b = sub.add_parser("baseline")
    b.add_argument("--runs", type=int, default=10)
    b.add_argument("--out", required=True)
    r = sub.add_parser("run")
    r.add_argument("parent_dir")
    r.add_argument("change_dir")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--parent-out", required=True)
    r.add_argument("--change-out", required=True)
    args = p.parse_args(argv)
    if args.mode == "spread":
        spread(args.runs)
    elif args.mode == "diff":
        diff(args.parent, args.change)
    elif args.mode == "baseline":
        run_baseline(args)
    else:
        run_pairs(args)


if __name__ == "__main__":
    main()
