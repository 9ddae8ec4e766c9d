import importlib.util
import os
import subprocess
from pathlib import Path

import pytest


def _bench_pair():
    """``tools/bench_pair.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
    spec = importlib.util.spec_from_file_location("bench_pair", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(round_s, correct=True, failed=0):
    return {"seed": 1, "env": {}, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"round_s": round_s}}


def _doc(tool, base, head, tier1_exits=None):
    doc = {"workloads": {"w": tool.workload_summary({"base": base, "head": head},
                                                    {"round_s": "lower"})}}
    if tier1_exits is not None:
        doc["tier1"] = tool.tier1_summary({side: [{"wall_s": 50.0, "exit": code, "summary": ""}]
                                           for side, code in zip(("base", "head"), tier1_exits)})
    return doc


def test_clean_runs_are_summarised_without_problems():
    tool = _bench_pair()
    doc = _doc(tool, [_run(1.0), _run(1.2), _run(1.1)], [_run(0.9), _run(1.05), _run(1.3)],
               tier1_exits=(0, 0))
    w = doc["workloads"]["w"]
    assert w["incorrect"] == {"base": 0, "head": 0} and w["failed"] == {"base": 0, "head": 0}
    assert w["metrics"]["round_s"]["wins"] == 2
    assert all("env" not in r for r in w["runs"]["head"])
    lines, problems = tool.summary(doc)
    assert problems == []
    assert lines == ["w round_s: 1.1 -> 1.05 (-4.5%), head better in 2/3, "
                     "beyond base quartiles: False",
                     "w incorrect runs: 0 -> 0, failed operations: 0 -> 0",
                     "tier-1 wall_s: 50 -> 50, non-zero exits: 0 -> 0"]


@pytest.mark.parametrize("base, head, tier1_exits, problem", [
    ([_run(1.0, correct=False)], [_run(1.0)], None, "w: 1 incorrect base run(s)"),
    ([_run(1.0)], [_run(1.0, correct=False)], None, "w: 1 incorrect head run(s)"),
    ([_run(1.0, failed=1)], [_run(1.0, failed=3)], None,
     "w: the head side failed 3 operations, the base side 1"),
    ([_run(1.0)], [_run(1.0)], (0, 1), "tier-1: 1 head run(s) exited non-zero"),
    ([_run(1.0)], [_run(1.0)], (2, 0), "tier-1: 1 base run(s) exited non-zero"),
])
def test_broken_runs_are_problems(base, head, tier1_exits, problem):
    tool = _bench_pair()
    assert tool.summary(_doc(tool, base, head, tier1_exits))[1] == [problem]


def test_fewer_failed_operations_on_the_head_side_are_no_problem():
    tool = _bench_pair()
    lines, problems = tool.summary(_doc(tool, [_run(1.0, failed=2)], [_run(1.0)]))
    assert problems == []
    assert lines[-1] == "w incorrect runs: 0 -> 0, failed operations: 2 -> 0"


def _git(repo, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout


def test_default_head_is_a_snapshot_that_leaves_the_index_alone(tmp_path, monkeypatch):
    # The head side used to run the working tree in place, reading its files
    # live; it is now unpacked from a tree, as the base side is.
    for key, value in {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1",
                       "GIT_AUTHOR_NAME": "a", "GIT_AUTHOR_EMAIL": "a@example.com",
                       "GIT_COMMITTER_NAME": "a", "GIT_COMMITTER_EMAIL": "a@example.com"}.items():
        monkeypatch.setenv(key, value)
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    files = {".gitignore": "ignored.txt\n", "kept.txt": "kept\n", "edited.txt": "old\n",
             "staged.txt": "old\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "staged.txt").write_text("staged\n")
    _git(repo, "add", "staged.txt")
    (repo / "edited.txt").write_text("unstaged\n")
    (repo / "untracked.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    cached, status = _git(repo, "diff", "--cached"), _git(repo, "status", "--porcelain")
    assert "staged.txt" in cached

    tool = _bench_pair()
    monkeypatch.setattr(tool, "ROOT", repo)
    tree = tool.snapshot()
    assert tool.export(tree, tmp_path / "head") == tree
    assert {p.name: p.read_text() for p in (tmp_path / "head").iterdir()} == {
        **files, "edited.txt": "unstaged\n", "staged.txt": "staged\n",
        "untracked.txt": "untracked\n"}
    assert _git(repo, "diff", "--cached") == cached
    assert _git(repo, "status", "--porcelain") == status
