"""Benchmark of temporal-range: one workload, one seed, one JSON result.

Usage (from the root of a checkout):

    python3 bench/run.py --workload train-copy --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout.  The run sets
up its inputs several times (``setup_s`` is the median), then repeats whole
rounds of the workload's operations until ``--seconds`` have passed and
reports the median of each per-round figure.  Every round's outputs are
checked independently (see ``checks.py``).

With ``--trace 1`` the run alternates an untraced round and a traced round;
it reports per-layer self times and counts per traced round, and
``trace.overhead_s``, the median traced round minus the median untraced
round.  End-to-end figures always come from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import timing
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = tracing.PACKAGE
SETUP_REPS = 5
MIN_ROUNDS = 2


def import_program():
    """Import the package afresh from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    tr = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return tr


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(SRC))
    try:
        tr = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(tr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: {PACKAGE} was imported from {tr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPS):
        clock = timing.Clock()
        tr, _ = clock.time(import_program)
        clock.time(wl.setup, tr, args.seed, workdir)
        setup_times.append(clock.normalised_s)

    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    problems: list[str] = []
    known_faults: dict[str, str] = {}
    rounds = {"untraced": [], "traced": []}
    figures: dict[str, list[float]] = {name: [] for name in wl.figures_units}
    layer_totals: dict[str, float] = {}

    def one_round(traced: bool) -> None:
        nonlocal attempted, failed
        first_span = len(tracer) if traced else 0
        clock = timing.Clock()
        if traced:
            tracer.install()
        try:
            out = wl.round(clock)
        finally:
            if traced:
                tracer.uninstall()
        rounds["traced" if traced else "untraced"].append(clock.normalised_s)
        if traced:
            speed = clock.normalised_s / clock.raw_s
            for name, seconds in tracer.self_times(first_span).items():
                layer_totals[name] = layer_totals.get(name, 0.0) + seconds * speed
        else:
            for name, value in wl.figures(out).items():
                figures[name].append(value)
        for op in wl.verify(out):
            attempted += 1
            if op.known_fault and op.problems:
                failed += 1
                known_faults.setdefault(op.name, op.problems[0])
            elif op.problems:
                problems.extend(f"{op.name}: {p}" for p in op.problems)

    deadline = time.perf_counter() + args.seconds
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() < deadline:
        one_round(False)
        if tracer is not None:
            one_round(True)
        n += 1

    problems += checks.negative_controls(wl.controls())

    if tracer is None:
        metrics = {
            "round_s": {"value": statistics.median(rounds["untraced"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    else:
        n_traced = len(rounds["traced"])
        metrics = {f"{name}.s": {"value": total / n_traced, "unit": "s"}
                   for name, total in layer_totals.items()}
        for name, total in tracer.counts.items():
            metrics[name] = {"value": total / n_traced, "unit": tracing.COUNTERS[name]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(rounds["traced"])
            - statistics.median(rounds["untraced"]),
            "unit": "s"}
        metrics = dict(sorted(metrics.items()))
        WORK.mkdir(exist_ok=True)
        tracer.save(WORK / f"trace-{args.workload}-seed{args.seed}.npz")

    for name, detail in known_faults.items():
        print(f"known fault, counted as failed: {name}: {detail}", file=sys.stderr)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"rounds {n}  attempted {attempted}  failed {failed}")
    for name, values in figures.items():
        print(f"figure {name} {statistics.median(values)!r} {wl.figures_units[name]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
