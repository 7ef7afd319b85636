"""hperim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {certify,tables} --seed N \
        --seconds S --trace {0,1} [--out RECORDS.jsonl]

Run from the repository root; hperim is imported from ./src.  One client
runs one task at a time (a closed loop) in this single process, with BLAS
pinned to one thread and hperim's worker count left at its default.  Passes
over the workload's seeded tasks repeat until the next one would overrun
--seconds (at least two, so repeatability is checked).  Every output is
checked after its pass, outside the timed region; seed 0 is also compared
with the stored reference, and certificates against an independent scipy
cubature.  The last stdout line is the JSON result; the line before it is
the full run record (environment, sample counts, failures).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of BENCHMARK.json plus
the tracing overhead (traced minus untraced pass time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference_seed0.json"
SETUP_PROBES = 11
QUIET_PERCENTILE = 10  # of a task's latencies over the passes (see _timed_run)
REF_RTOL = 1e-9  # values may shift ~1e-14 when the refinement path changes
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_hperim():
    if not (SRC / "hperim" / "__init__.py").is_file():
        _fail(f"no hperim sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import hperim
    if Path(hperim.__file__).resolve().parent != (SRC / "hperim").resolve():
        _fail(f"imported hperim from {hperim.__file__}, not from {SRC}")
    return hperim


def _parse(argv=None):
    p = argparse.ArgumentParser(description="hperim benchmark")
    p.add_argument("--workload", required=True, choices=("certify", "tables"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run record to this JSONL file")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the seed-0 reference")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(args):
    """Child process: import hperim, build the inputs, print the seconds since
    the parent spawned it (the monotonic clock is system-wide)."""
    _import_hperim()
    import workloads
    workloads.build(args.workload, args.seed, ROOT / ".perfbench-probe")
    print(monotonic() - float(os.environ["PERFBENCH_SPAWNED"]), flush=True)


def _measure_setup(args, count: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported hperim
    and built the workload's inputs, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        env = dict(os.environ, PERFBENCH_SPAWNED=repr(monotonic()))
        child = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            _fail(f"setup probe failed with exit code {child.returncode}: {child.stderr.strip()}")
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


def _run_pass(tasks):
    latencies, results = [], []
    start = perf_counter()
    for task in tasks:
        t0 = perf_counter()
        try:
            res = task.run()
        except Exception:
            res = traceback.format_exc()
        latencies.append(perf_counter() - t0)
        results.append(res)
    return perf_counter() - start, latencies, results


def _check_pass(index, tasks, results, first) -> list:
    """((pass, task name), problem) for every failed output check of a pass."""
    problems = []
    for i, (task, res) in enumerate(zip(tasks, results)):
        if isinstance(res, str):
            problems.append(((index, task.name), "raised: " + res.strip().splitlines()[-1]))
            print(res, file=sys.stderr)
            continue
        try:
            found = task.check(res)
        except Exception:
            found = ["check raised: " + traceback.format_exc().strip().splitlines()[-1]]
        if first is not None and not isinstance(first[i], str) and res.digest != first[i].digest:
            found.append("output differs from the run's first pass")
        problems += [((index, task.name), p) for p in found]
    return problems


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= REF_RTOL * max(1.0, abs(a), abs(b))
    return a == b


def _reference_problems(workload, tasks, results) -> list:
    stored = json.loads(REFERENCE.read_text()).get(workload, {})
    got = {t.name: t.summary(r) for t, r in zip(tasks, results) if not isinstance(r, str)}
    if set(stored) != set(got):
        return [((0, "reference"), f"tasks {sorted(got)} differ from the reference's {sorted(stored)}")]
    return [
        ((0, name), f"{key} = {got[name].get(key)!r}, reference {want!r}")
        for name, values in stored.items()
        for key, want in values.items()
        if not _close(got[name].get(key), want)
    ]


def _oracle_problems(tasks, results) -> list:
    import oracle
    problems = []
    for task, res in zip(tasks, results):
        if isinstance(res, str) or "cert" not in res.data:
            continue
        try:
            problems += [((0, task.name), p) for p in oracle.check_certificate(res.data["cert"])]
        except Exception:
            problems.append(((0, task.name), "oracle raised: " + traceback.format_exc().strip().splitlines()[-1]))
    return problems


def _percentile(values, pct: int) -> float:
    """The pct-th percentile, interpolated between order statistics, so that
    its rank does not depend on how many passes fit in the run."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _environment(args, load_before):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "hperim_workers": os.environ.get("HPERIM_WORKERS"),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def _timed_run(args, tasks):
    """Passes until --seconds; returns the end-to-end metrics and sample counts."""
    # Set-up probes are spread over the run (outside the passes' time budget)
    # so that their median samples the same machine conditions as the passes.
    setup = _measure_setup(args, 3)
    walls, per_pass, problems, first = [], [], [], None
    elapsed = 0.0
    while True:
        wall, lat, results = _run_pass(tasks)
        problems += _check_pass(len(walls), tasks, results, first)
        first = first or results
        walls.append(wall)
        per_pass.append(lat)
        elapsed += wall
        setup += _measure_setup(args, 1)
        if len(walls) >= 2 and elapsed + statistics.median(walls) > args.seconds:
            break
    setup += _measure_setup(args, SETUP_PROBES - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each task's latency on a quiet machine: the host's other tenants only
    # ever add time, in bursts of seconds to minutes, so the low end of a
    # task's repeats is its own cost and the rest is theirs.
    quiet = [_percentile(samples, QUIET_PERCENTILE) for samples in zip(*per_pass)]
    latencies = [t for lat in per_pass for t in lat]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (sum(quiet), "s", len(latencies)),
        "task_p50_s": (statistics.median(latencies), "s", len(latencies)),
        "task_p90_s": (_percentile(quiet, 90), "s", len(latencies)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    notes = {"task_quiet_s": quiet, "pass_walls": walls, "pass_task_latencies": per_pass,
             "setup_probes": setup}
    return metrics, notes, problems, first, len(walls)


def _traced_run(args, tasks):
    """Alternating untraced and traced passes; per-layer metrics of traced ones."""
    import tracing
    tracer = tracing.Tracer()
    untraced, traced, per_pass, problems, first = [], [], [], [], None
    start = perf_counter()
    while True:
        on = len(untraced) > len(traced)
        if on:
            tracer.install()
        try:
            wall, _, results = _run_pass(tasks)
        finally:
            tracer.uninstall()
        problems += _check_pass(len(traced) + len(untraced), tasks, results, first)
        first = first or results
        if on:
            traced.append(wall)
            per_pass.append(tracing.layer_metrics(tracer.take()))
        else:
            untraced.append(wall)
        elapsed = perf_counter() - start
        if traced and elapsed + max(traced) > args.seconds:
            break
    for key in tracing.COUNTS:
        if len({m[key] for m in per_pass}) > 1:
            problems.append(((0, "trace"), f"count {key} differs between traced passes"))
    # counts repeat exactly (checked above); times are medians over traced passes
    layer = {key: per_pass[0][key] if key in tracing.COUNTS else statistics.median(m[key] for m in per_pass)
             for key in per_pass[0]}
    layer.update(tracing.kernel_probe(args.seed))
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (layer.get(m["name"], 0.0), m["unit"], len(per_pass)) for m in units}
    notes = {"traced_passes": len(traced), "untraced_passes": len(untraced),
             "missing_targets": tracer.missing, "layer_errors": dict(tracer.errors)}
    return metrics, notes, problems, first, len(untraced) + len(traced)


def main(argv=None) -> int:
    # before numpy is first imported; set-up probes inherit the environment
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    os.environ.pop("HPERIM_WORKERS", None)
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    load_before = list(os.getloadavg())
    _import_hperim()
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tasks = workloads.build(args.workload, args.seed, Path(tmp))
        run = _traced_run if args.trace else _timed_run
        metrics, notes, problems, first, passes = run(args, tasks)
        if args.write_reference:
            if args.seed != 0:
                _fail("the reference is stored for seed 0 only")
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            stored[args.workload] = {t.name: t.summary(r) for t, r in zip(tasks, first)}
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        elif args.seed == 0:
            problems += _reference_problems(args.workload, tasks, first)
        problems += _oracle_problems(tasks, first)

    attempted = len(tasks) * passes
    failed = min(attempted, len({key for key, _ in problems}))
    for (_, name), problem in problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} tasks, {failed} failed (failed_frac {failed / attempted:.4f})")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:8s} n={samples}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    record = {
        "env": _environment(args, load_before),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "problems": [f"pass {i} {n}: {p}" for (i, n), p in problems],
    }
    line = json.dumps(record, sort_keys=True)
    print("record: " + line)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
