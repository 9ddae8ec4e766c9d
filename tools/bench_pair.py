"""Before/after benchmark pairs of two revisions, summarised in one JSON file.

Usage (from the root of a checkout):

    python3 tools/bench_pair.py --base HEAD~1 --head HEAD \\
        --workloads cli-pipeline,analyze-calib --seeds 1-10 --seconds 15 \\
        --tier1 1 --out BENCH_24.json

Each side is a fresh ``git archive`` of its revision in a temporary
directory.  ``--head`` defaults to a snapshot of this checkout's working
tree: the tree that ``git add -A`` would stage, written through a
temporary index, so the checkout's own index stays untouched and ignored
files stay out.  For every workload and seed, ``python3 bench/run.py
--trace 0`` runs once on each side, and the side that runs first
alternates from pair to pair, so drift in the machine's speed falls on
both sides alike.  ``--tier1 N`` also times N alternating runs of the
tier-1 suite on each side.

The output holds, per workload and end-to-end metric, each side's median
and quartiles, the relative change of the medians, the number of pairs the
head side won and whether the medians lie further apart than the base
side's quartiles; per workload, each side's count of incorrect runs and its
total of failed operations; every run's figures and each side's ``env``
line are kept too.  The exit status is 1 if a run was incorrect, a tier-1
run exited non-zero or the head side failed more operations than the base
side, so figures of broken runs are not read as a result.  Only the
standard library is used.  Bytecode writing is off in the runs, so nothing
is written under ``bench/``; the temporary trees are removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, env=env).stdout


def snapshot() -> str:
    """The hash of a tree of the working tree's files as ``git add -A``
    would stage them on top of ``HEAD``, built in a temporary index."""
    with tempfile.TemporaryDirectory(prefix="bench-pair-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        for args in (("read-tree", "HEAD"), ("add", "-A")):
            git(*args, env=env)
        return git("write-tree", env=env).decode().strip()


def export(rev: str, dest: Path) -> str:
    """Unpack the files of ``rev``, a commit or a tree (``snapshot`` gives
    one for the working tree), into ``dest``; its full hash."""
    sha = git("rev-parse", "--verify", rev).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha)), mode="r:") as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its metrics, env line and operation counts."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=run_env(), capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def tier1(tree: Path) -> dict:
    """Wall time and summary line of one tier-1 run."""
    env = dict(run_env(), PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "exit": proc.returncode, "summary": summary}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def compare(base: list[float], head: list[float], better: str) -> dict:
    """Both sides' spreads, the head side's wins over its pairs, and whether
    the medians differ by more than the base side's quartile distance."""
    b, h = spread(base), spread(head)
    sign = 1.0 if better == "lower" else -1.0
    return {"base": b, "head": h,
            "change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
            "wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
            "pairs": len(base),
            "beyond_base_quartiles": sign * (b["median"] - h["median"]) > b["q3"] - b["q1"]}


def pairs(trees: dict, n: int, run) -> dict:
    """``n`` alternating pairs of ``run(tree, i)``: pair i runs the base side
    first when i is even."""
    out = {"base": [], "head": []}
    for i in range(n):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            out[side].append(run(trees[side], i))
            print(f"  {side} {i + 1}/{n} done", file=sys.stderr, flush=True)
    return out


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD", help="revision of the base side")
    p.add_argument("--head", help="revision of the head side (default: a snapshot of the "
                                  "working tree)")
    p.add_argument("--workloads", default="cli-pipeline",
                   help="comma-separated bench workloads")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="seeds, one pair each, e.g. 1-10 or 3,5,11")
    p.add_argument("--seconds", type=float, default=15.0, help="--seconds of each run")
    p.add_argument("--tier1", type=int, default=0, help="tier-1 runs per side")
    p.add_argument("--out", required=True, help="output JSON path")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees, revs = {}, {}
        for side, rev in (("base", args.base), ("head", args.head or snapshot())):
            trees[side] = Path(tmp) / side
            revs[side] = export(rev, trees[side])
        doc = {"base": {"rev": revs["base"]}, "head": {"rev": revs["head"]},
               "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
        for workload in args.workloads.split(","):
            print(f"{workload}: {len(args.seeds)} pairs", file=sys.stderr, flush=True)
            runs = pairs(trees, len(args.seeds),
                         lambda tree, i: bench(tree, workload, args.seeds[i], args.seconds))
            for side in ("base", "head"):
                doc[side].setdefault("env", runs[side][0]["env"])
            doc["workloads"][workload] = workload_summary(runs, better)
        if args.tier1:
            print(f"tier-1: {args.tier1} pairs", file=sys.stderr, flush=True)
            runs = pairs(trees, args.tier1, lambda tree, i: tier1(tree))
            doc["tier1"] = tier1_summary(runs)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    lines, problems = summary(doc)
    print("\n".join(lines))
    for problem in problems:
        print(f"broken: {problem}", file=sys.stderr)
    return 1 if problems else 0


def workload_summary(runs: dict, better: dict) -> dict:
    """One workload's entry: ``compare`` of each end-to-end metric, each
    side's count of incorrect runs and its total of failed operations, and
    every run's figures without its ``env`` line."""
    return {"metrics": {name: compare([r["metrics"][name] for r in runs["base"]],
                                      [r["metrics"][name] for r in runs["head"]], how)
                        for name, how in better.items()},
            "incorrect": {side: sum(not r["correct"] for r in runs[side]) for side in runs},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "runs": {side: [{k: v for k, v in r.items() if k != "env"} for r in runs[side]]
                     for side in runs}}


def tier1_summary(runs: dict) -> dict:
    """The tier-1 entry: ``compare`` of the wall times, each side's count of
    runs that exited non-zero, and every run."""
    return {"wall_s": compare([r["wall_s"] for r in runs["base"]],
                              [r["wall_s"] for r in runs["head"]], "lower"),
            "nonzero_exits": {side: sum(r["exit"] != 0 for r in runs[side]) for side in runs},
            "runs": runs}


def summary(doc: dict) -> tuple[list[str], list[str]]:
    """The lines to print for ``doc``, and why its figures cannot be used:
    a run that was not correct, a tier-1 run that exited non-zero, or more
    failed operations on the head side than on the base side."""
    lines, problems = [], []
    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            change = "n/a" if m["change"] is None else f"{m['change']:+.1%}"
            lines.append(f"{workload} {name}: {m['base']['median']:.4g} -> "
                         f"{m['head']['median']:.4g} ({change}), head better in "
                         f"{m['wins']}/{m['pairs']}, beyond base quartiles: "
                         f"{m['beyond_base_quartiles']}")
        incorrect, failed = w["incorrect"], w["failed"]
        lines.append(f"{workload} incorrect runs: {incorrect['base']} -> {incorrect['head']}, "
                     f"failed operations: {failed['base']} -> {failed['head']}")
        problems += [f"{workload}: {n} incorrect {side} run(s)"
                     for side, n in incorrect.items() if n]
        if failed["head"] > failed["base"]:
            problems.append(f"{workload}: the head side failed {failed['head']} operations, "
                            f"the base side {failed['base']}")
    if "tier1" in doc:
        t = doc["tier1"]
        lines.append(f"tier-1 wall_s: {t['wall_s']['base']['median']:.4g} -> "
                     f"{t['wall_s']['head']['median']:.4g}, non-zero exits: "
                     f"{t['nonzero_exits']['base']} -> {t['nonzero_exits']['head']}")
        problems += [f"tier-1: {n} {side} run(s) exited non-zero"
                     for side, n in t["nonzero_exits"].items() if n]
    return lines, problems


if __name__ == "__main__":
    sys.exit(main())
