import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from temporal_range import cells
from temporal_range.cli import FLAG_FLOORS, build_parser, main
from temporal_range.errors import FormatError
from temporal_range.gradients import JacobianMode
from temporal_range.linalg import NormKind, Rng
from temporal_range.metric import (TRConfig, analyze, config_fingerprint, report_from_json,
                                   report_json)
from temporal_range.models import (CellKind, CellSpec, build_shift_copy_model,
                                   init_model, save_model)
from temporal_range.oracles import axiom_suite
from temporal_range.tasks import (DATASET_ARRAYS, CopyTaskSpec, ObsKind, ObsVariant,
                                  gen_copyk, gen_imitation, gen_repeatfirst,
                                  load_dataset)
import v1_checkpoint
from v1_dataset import v1_document


def _strip_svg_comment(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("<!--"))


def _manifest_without_timestamp(path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("timestamp")
    return doc


def test_gen_data_then_train_then_analyze_then_ablate(tmp_path):
    data = tmp_path / "copy1.json"
    assert main(["gen-data", "--task", "copy", "--k", "1", "--T", "8",
                 "--n", "64", "--seed", "3", "--out", str(data)]) == 0

    prefix = tmp_path / "run"
    assert main(["train", "--data", str(data), "--model", "gru",
                 "--hidden", "8", "--lr", "3e-3", "--batch", "16",
                 "--steps", "80", "--seed", "1",
                 "--out-prefix", str(prefix)]) == 0
    ckpt = tmp_path / "run.model.json"
    assert ckpt.exists()
    assert (tmp_path / "run.loss.csv").exists()
    metrics = json.loads((tmp_path / "run.metrics.json").read_text())
    assert 0.0 <= metrics["final_val_accuracy"] <= 1.0
    assert 0.0 <= metrics["grad_check_residual"] <= 1e-10
    assert "wall" not in json.dumps(metrics)

    rep_prefix = tmp_path / "rep"
    assert main(["analyze", "--model", str(ckpt), "--data", str(data),
                 "--T", "8", "--n-rollouts", "8", "--seed", "0",
                 "--out-prefix", str(rep_prefix)]) == 0
    report = json.loads((tmp_path / "rep.report.json").read_text())
    assert report["schema"] == 1
    assert (tmp_path / "rep.profile.csv").exists()
    assert (tmp_path / "rep.profile.svg").read_text().startswith("<?xml")

    abl_prefix = tmp_path / "abl"
    assert main(["ablate", "--model", str(ckpt), "--data", str(data),
                 "--windows", "1,2,4,8", "--seed", "0",
                 "--report", str(tmp_path / "rep.report.json"), "--deploy",
                 "--out-prefix", str(abl_prefix)]) == 0
    assert (tmp_path / "abl.curve.csv").exists()
    assert (tmp_path / "abl.deployment.json").exists()


def test_train_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "d.json"
    main(["gen-data", "--task", "copy", "--k", "1", "--T", "6", "--n", "40",
          "--seed", "5", "--out", str(data)])
    outs = []
    for run in ("a", "b"):
        prefix = tmp_path / run
        assert main(["train", "--data", str(data), "--model", "gru",
                     "--hidden", "6", "--steps", "40", "--batch", "8",
                     "--seed", "9", "--out-prefix", str(prefix)]) == 0
        outs.append({
            "model": (tmp_path / f"{run}.model.json").read_bytes(),
            "loss": (tmp_path / f"{run}.loss.csv").read_bytes(),
            "metrics": (tmp_path / f"{run}.metrics.json").read_bytes(),
        })
    assert outs[0] == outs[1]


def test_analyze_reruns_are_byte_identical(tmp_path):
    ckpt = tmp_path / "copy3.model.json"
    save_model(build_shift_copy_model(3, 2), ckpt)
    prefix = tmp_path / "rep"
    texts = []
    for _ in range(2):
        assert main(["analyze", "--model", str(ckpt), "--task", "copy",
                     "--k", "3", "--T", "16", "--V", "2", "--n-rollouts", "4",
                     "--mode", "final", "--seed", "2",
                     "--out-prefix", str(prefix)]) == 0
        texts.append({
            "report": (tmp_path / "rep.report.json").read_bytes(),
            "csv": (tmp_path / "rep.profile.csv").read_bytes(),
            "svg": _strip_svg_comment((tmp_path / "rep.profile.svg").read_text()),
            "manifest": _manifest_without_timestamp(tmp_path / "rep.manifest.json"),
        })
    assert texts[0] == texts[1]
    report = json.loads(texts[0]["report"])
    assert report["rho_hat"] == pytest.approx(3.0, abs=1e-12)


def test_analyze_handles_degenerate_models_with_exit_zero(tmp_path):
    ckpt = tmp_path / "memoryless.model.json"
    save_model(build_shift_copy_model(0, 3), ckpt)
    prefix = tmp_path / "deg"
    assert main(["analyze", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--V", "3", "--n-rollouts", "3", "--seed", "0",
                 "--out-prefix", str(prefix)]) == 0
    report = json.loads((tmp_path / "deg.report.json").read_text())
    assert report["degenerate"] is True
    assert report["rho_hat"] is None


def test_analyze_aggregation_flag_changes_the_fingerprint(tmp_path):
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(2, 2), ckpt)
    fps = {}
    for agg in ("mean", "max"):
        prefix = tmp_path / agg
        assert main(["analyze", "--model", str(ckpt), "--task", "copy",
                     "--k", "2", "--T", "8", "--V", "2", "--n-rollouts", "2",
                     "--agg", agg, "--seed", "0",
                     "--out-prefix", str(prefix)]) == 0
        fps[agg] = json.loads((tmp_path / f"{agg}.report.json").read_text())[
            "config_fingerprint"]
    assert fps["mean"] != fps["max"]


def test_axioms_command_passes_and_writes_report(tmp_path):
    out = tmp_path / "axioms.json"
    for norm in ("frobenius", "spectral"):
        assert main(["axioms", "--trials", "50", "--seed", "1", "--norm", norm,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["norm"] == norm
        assert doc["max_residual"] < 1e-9


def test_oracle_command_and_fault_injection(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--trials", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert main(["oracle", "--trials", "2", "--seed", "1",
                 "--inject-fault"]) == 1


def test_unknown_task_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--task", "nosuch", "--out", "x.json"])
    assert exc.value.code == 2


def test_gen_data_without_a_task_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", "x.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--task" in err


def test_deploy_without_report_is_an_input_error(tmp_path):
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 2), ckpt)
    code = main(["ablate", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--V", "2", "--n", "8", "--deploy",
                 "--out-prefix", str(tmp_path / "a")])
    assert code == 2


def test_bad_report_is_rejected_before_the_sweep(tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    model = build_shift_copy_model(0, 2)
    save_model(model, ckpt)
    rollouts = list(Rng(0).gaussian(size=(2, 8, 2)))
    report = analyze(model, rollouts, TRConfig(T=8))
    assert report.degenerate
    (tmp_path / "r.json").write_text(report_json(report))
    for path in (tmp_path / "r.json", tmp_path / "absent.json"):
        code = main(["ablate", "--model", str(ckpt), "--task", "copy", "--k", "1",
                     "--T", "8", "--V", "2", "--n", "8", "--deploy",
                     "--report", str(path), "--out-prefix", str(tmp_path / "a")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not list(tmp_path.glob("a.*"))


def test_ablate_deploy_shares_cold_restart_passes(tmp_path, monkeypatch):
    # The CLI pipeline's ablation: an LSTM-16 on cart-pole sequences of
    # T = 32, the default windows and deployment windows 5 and 3, counted
    # in batched cell steps (one per sequence-batch step).
    T = 32
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "cartpole", "--T", str(T), "--n", "6",
                 "--seed", "0", "--out", str(data)]) == 0
    sequences, _ = load_dataset(data)
    model = init_model(CellSpec(kind=CellKind.LSTM, input_dim=sequences[0].x.shape[1],
                                hidden_dim=16), 2, Rng(0))
    save_model(model, tmp_path / "m.json")
    report = analyze(model, [s.x for s in sequences[:2]],
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T))
    (tmp_path / "r.json").write_text(report_json(dataclasses.replace(
        report, rho_hat=3.5, per_rollout_rho_hat=[3.5, 3.5], rho_hat_std=0.0)))
    step, calls = cells._LSTM.step, []

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(cells._LSTM, "step", staticmethod(counted))
    assert main(["ablate", "--model", str(tmp_path / "m.json"), "--data", str(data),
                 "--report", str(tmp_path / "r.json"), "--deploy",
                 "--out-prefix", str(tmp_path / "a")]) == 0
    deploy = json.loads((tmp_path / "a.deployment.json").read_text())
    assert (deploy["window"], deploy["half_window"]) == (5, 3)
    longest = max(m for m in (1, 2, 3, 4, 5, 8, 16, 32) if m < T)
    bound = T + sum(min(longest, T - a) for a in range(1, T))
    assert bound == 408
    assert 0 < len(calls) <= bound


def test_missing_checkpoint_is_an_input_error(tmp_path):
    code = main(["analyze", "--model", str(tmp_path / "absent.json"),
                 "--task", "copy", "--k", "1", "--T", "8",
                 "--out-prefix", str(tmp_path / "r")])
    assert code == 2


def test_incompatible_model_and_data_dims_exit_two(tmp_path):
    data = tmp_path / "d.json"
    main(["gen-data", "--task", "copy", "--k", "1", "--T", "8", "--V", "4",
          "--n", "8", "--seed", "0", "--out", str(data)])
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 2), ckpt)  # expects d=2, data has d=4
    code = main(["ablate", "--model", str(ckpt), "--data", str(data),
                 "--out-prefix", str(tmp_path / "a")])
    assert code == 2


def test_non_integer_window_is_an_input_error(tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 2), ckpt)
    code = main(["ablate", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--V", "2", "--n", "8", "--windows", "1,x",
                 "--out-prefix", str(tmp_path / "a")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'x'" in err[0]


def test_directory_as_checkpoint_is_an_input_error(tmp_path, capsys):
    code = main(["analyze", "--model", str(tmp_path), "--task", "copy",
                 "--k", "1", "--T", "8", "--out-prefix", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_zero_batch_is_an_input_error(tmp_path, capsys):
    code = main(["train", "--task", "copy", "--k", "1", "--T", "8", "--n", "8",
                 "--batch", "0", "--steps", "1", "--out-prefix", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "batch_size" in err[0]


def _train_on_edited_dataset(tmp_path, edit):
    """Train on a version 1 container of what `gen-data --task copy --k 1
    --T 8 --n 4 --seed 0` generates, after ``edit`` changes its document."""
    data = tmp_path / "d.json"
    doc = v1_document(gen_copyk(CopyTaskSpec(k=1, T=8), 4, Rng(0)))
    edit(doc)
    data.write_text(json.dumps(doc))
    return main(["train", "--data", str(data), "--model", "gru", "--hidden", "4",
                 "--steps", "1", "--out-prefix", str(tmp_path / "m")])


def test_dataset_sequence_shorter_than_the_header_is_an_input_error(tmp_path, capsys):
    def shorten(doc):
        seq = doc["sequences"][2]
        for key in ("x", "targets", "mask"):
            seq[key] = seq[key][:-2]

    assert _train_on_edited_dataset(tmp_path, shorten) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "sequence 2" in err[0]


@pytest.mark.parametrize("key", ["targets", "mask"])
def test_dataset_targets_or_mask_of_another_length_is_an_input_error(tmp_path, capsys, key):
    def shorten(doc):
        seq = doc["sequences"][1]
        seq[key] = seq[key][:-1]

    assert _train_on_edited_dataset(tmp_path, shorten) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "sequence 1" in err[0]


def test_dataset_count_other_than_the_header_n_is_an_input_error(tmp_path, capsys):
    def overstate(doc):
        doc["n"] = 9

    assert _train_on_edited_dataset(tmp_path, overstate) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "n=9" in err[0]


def _error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    return err[0]


def test_dataset_bad_value_is_reported_before_a_later_short_sequence(tmp_path, capsys):
    def corrupt(doc):
        doc["sequences"][1]["x"][4][2] = "0xzz"
        doc["sequences"][3]["x"] = doc["sequences"][3]["x"][:-1]

    assert _train_on_edited_dataset(tmp_path, corrupt) == 2
    assert _error_line(capsys) == (f"error: malformed dataset {tmp_path / 'd.json'}: "
                                   "invalid hexadecimal floating-point string")


def test_dataset_ragged_row_is_an_input_error(tmp_path, capsys):
    def drop_value(doc):
        doc["sequences"][2]["x"][3].pop()

    assert _train_on_edited_dataset(tmp_path, drop_value) == 2
    assert _error_line(capsys) == (f"error: dataset {tmp_path / 'd.json'}: sequence 2 "
                                   "has rows of [3, 4] values, its header declares d=4")


def test_dataset_non_string_value_is_an_input_error(tmp_path, capsys):
    def number(doc):
        doc["sequences"][0]["x"][1][0] = 0.5

    assert _train_on_edited_dataset(tmp_path, number) == 2
    with pytest.raises(TypeError) as exc:
        float.fromhex(0.5)
    assert _error_line(capsys) == (f"error: malformed dataset {tmp_path / 'd.json'}: "
                                   f"{exc.value}")


@pytest.mark.parametrize("edits, message", [
    # A float target is not truncated and a mask entry of 5 is not read as
    # True; the target is reported first.
    ({"targets": (0, 4, 2.7), "mask": (0, 1, 5)},
     "sequence 0: target 2.7 at step 4 is not a class index (a non-negative integer)"),
    ({"mask": (2, 1, 5)}, "sequence 2: mask entry 5 at step 1 is not 0 or 1"),
    ({"targets": (3, 5, -1)},
     "sequence 3: target -1 at step 5 is not a class index (a non-negative integer)"),
])
def test_dataset_entry_that_is_no_class_index_or_mask_bit_is_an_input_error(
        tmp_path, capsys, edits, message):
    def edit(doc):
        for key, (i, step, value) in edits.items():
            doc["sequences"][i][key][step] = value

    assert _train_on_edited_dataset(tmp_path, edit) == 2
    assert _error_line(capsys) == f"error: dataset {tmp_path / 'd.json'}: {message}"


def test_gen_data_rejects_a_non_finite_noise_sigma(tmp_path, capsys):
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "cartpole", "--variant", "noisy", "--sigma", "inf",
                 "--T", "8", "--n", "2", "--seed", "0", "--out", str(data)]) == 2
    assert _error_line(capsys) == "error: noise sigma must be finite and > 0, got inf"
    assert not data.exists()


@pytest.mark.parametrize("command", ["train", "analyze", "ablate"])
def test_dataset_non_finite_observation_is_an_input_error(tmp_path, capsys, command):
    data = tmp_path / "d.json"
    doc = v1_document(gen_imitation(ObsVariant(kind=ObsKind.NOISY_STATELESS), 4, 8, Rng(0)))
    doc["sequences"][2]["x"][5][1] = "-inf"
    data.write_text(json.dumps(doc))
    ckpt = tmp_path / "m.json"
    save_model(init_model(CellSpec(kind=CellKind.LSTM, input_dim=2, hidden_dim=4), 2,
                          Rng(0)), ckpt)
    argv = {"train": ["train", "--data", str(data), "--model", "lstm", "--hidden", "4",
                      "--steps", "1"],
            "analyze": ["analyze", "--model", str(ckpt), "--data", str(data)],
            "ablate": ["ablate", "--model", str(ckpt), "--data", str(data)]}[command]
    assert main(argv + ["--out-prefix", str(tmp_path / "out")]) == 2
    line = _error_line(capsys)
    assert line.startswith(f"error: dataset {data}: sequence 2: observation [")
    assert line.endswith(", -inf] at step 5 is not finite")
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("value, message", [
    ("Infinity", "non-finite number Infinity"),
    ("NaN", "non-finite number NaN"),
    ("-5", "rho_hat is -5, but analyze writes 3.5 for these values"),
    ("1e300", "rho_hat is 1e+300, but analyze writes 3.5 for these values"),
    # Loaded as 1.0, which made the deployment window 2.
    ("true", "rho_hat is true, but analyze writes 3.5 for these values"),
])
def test_deploy_report_with_a_non_finite_or_out_of_range_rho_hat_is_an_input_error(
        tmp_path, capsys, value, message):
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "cartpole", "--T", "32", "--n", "4",
                 "--seed", "0", "--out", str(data)]) == 0
    model = init_model(CellSpec(kind=CellKind.LSTM, input_dim=2, hidden_dim=4), 2, Rng(0))
    save_model(model, tmp_path / "m.json")
    sequences, _ = load_dataset(data)
    report = analyze(model, [s.x for s in sequences[:2]],
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=32))
    text = report_json(dataclasses.replace(report, rho_hat=3.5, per_rollout_rho_hat=[3.5, 3.5],
                                           rho_hat_std=0.0))
    (tmp_path / "r.json").write_text(text.replace('"rho_hat": 3.5,', f'"rho_hat": {value},'))
    assert main(["ablate", "--model", str(tmp_path / "m.json"), "--data", str(data),
                 "--report", str(tmp_path / "r.json"), "--deploy",
                 "--out-prefix", str(tmp_path / "a")]) == 2
    assert _error_line(capsys) == f"error: malformed range report {tmp_path / 'r.json'}: {message}"
    assert not list(tmp_path.glob("a.*"))


# (edit, message after "malformed range report: ") of the final-mode report
# of a shift-copy-2 model, whose per-rollout rho_hat values are all 2.0 and
# whose weight is all at lag 2; each edit leaves the per-rollout values and
# weights a derived field is rebuilt from as they are.  Each of the
# "config with an extra key", "degenerate, null ranges", "pooled_rho_hat",
# "rho", "rho_hat 5.5", "rho_hat_std" and "weight from lag 2 to lag 5"
# edits used to load: "rho_hat 5.5" made the deployment window 7, not 3.
INCONSISTENT_REPORTS = {
    "degenerate": (lambda doc: doc.update(degenerate=True),
                   "degenerate is true, but analyze writes false for these values"),
    "degenerate, null ranges": (
        lambda doc: doc.update(degenerate=True, rho_hat=None, rho_hat_std=None,
                               pooled_rho_hat=None),
        "degenerate is true, but analyze writes false for these values"),
    "rho missing": (lambda doc: doc.pop("rho"), "missing field 'rho'"),
    "rho_hat null": (lambda doc: doc.update(rho_hat=None),
                     "rho_hat is null, but analyze writes 2.0 for these values"),
    "rho_hat 5.5": (lambda doc: doc.update(rho_hat=5.5),
                    "rho_hat is 5.5, but analyze writes 2.0 for these values"),
    "rho": (lambda doc: doc.update(rho=5.0),
            "rho is 5.0, but analyze writes 4.0 for these values"),
    "rho_hat_std": (lambda doc: doc.update(rho_hat_std=0.5),
                    "rho_hat_std is 0.5, but analyze writes 0.0 for these values"),
    "pooled_rho_hat": (lambda doc: doc.update(pooled_rho_hat=3.0),
                       "pooled_rho_hat is 3.0, but analyze writes 2.0 for these values"),
    "weight from lag 2 to lag 5": (
        lambda doc: doc.update(weights_mean_by_position=[0.0, 0.0, 2.0] + [0.0] * 5),
        "pooled_rho_hat is 2.0, but analyze writes 5.0 for these values"),
    "n_degenerate_rollouts": (lambda doc: doc.update(n_degenerate_rollouts=2),
                              "n_degenerate_rollouts is 2, but analyze writes 0 for these "
                              "values"),
    "fingerprint": (lambda doc: doc.update(config_fingerprint="0" * 16),
                    'config_fingerprint is "0000000000000000", but analyze writes '
                    '"{fingerprint}" for these values'),
    "config with an extra key": (
        lambda doc: doc.update(config=(config := {**doc["config"], "extra": 1}),
                               config_fingerprint=config_fingerprint(config)),
        'config is {{"T": 8, "aggregation": "mean", "extra": 1, "mode": "final_output", '
        '"norm": "frobenius", "schema": 1}}, but analyze writes {{"T": 8, "aggregation": '
        '"mean", "mode": "final_output", "norm": "frobenius", "schema": 1}} for these values'),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_REPORTS))
def test_report_whose_fields_disagree_is_an_input_error(tmp_path, capsys, case):
    paths = _chain_inputs(tmp_path, k=2)
    doc = json.loads(paths["report"].read_text())
    assert doc["n_rollouts"] >= 2 and set(doc["per_rollout_rho_hat"]) == {2.0}
    assert doc["weights_mean_by_position"] == [0.0] * 5 + [2.0, 0.0, 0.0]
    edit, message = INCONSISTENT_REPORTS[case]
    message = message.format(fingerprint=config_fingerprint(doc["config"]))
    edit(doc)
    bad = tmp_path / "bad.report.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^malformed range report: {re.escape(message)}$"):
        report_from_json(bad.read_bytes())
    capsys.readouterr()
    assert main(["ablate", "--model", str(paths["model"]), "--data", str(paths["data"]),
                 "--report", str(bad), "--deploy", "--out-prefix", str(tmp_path / "a")]) == 2
    assert _error_line(capsys) == f"error: malformed range report {bad}: {message}"
    assert not list(tmp_path.glob("a.*"))


@pytest.mark.parametrize("case, message", [
    ("dataset", "missing field 'schema'"),
    ("checkpoint", "missing field 'schema'"),
    ("JSON list", "not a JSON object"),
])
def test_document_that_is_not_a_report_is_an_input_error(tmp_path, capsys, case, message):
    # Each used to say only "'schema'" or "list indices must be integers or
    # slices, not str".
    paths = _chain_inputs(tmp_path)
    bad = {"dataset": paths["data"], "checkpoint": paths["model"],
           "JSON list": tmp_path / "list.json"}[case]
    (tmp_path / "list.json").write_text("[]")
    capsys.readouterr()
    assert main(["ablate", "--model", str(paths["model"]), "--data", str(paths["data"]),
                 "--report", str(bad), "--deploy", "--out-prefix", str(tmp_path / "a")]) == 2
    assert _error_line(capsys) == f"error: malformed range report {bad}: {message}"
    assert not list(tmp_path.glob("a.*"))


def test_ablate_names_the_report_file_it_cannot_read(tmp_path, capsys):
    # The checkpoint and dataset errors name their files; a report error
    # used to say only "malformed range report: ...".
    paths = _chain_inputs(tmp_path)
    bad = tmp_path / "renamed.report.json"
    bad.write_text(paths["report"].read_text().replace('"n_rollouts": ', '"n_rollouts": -'))
    assert main(["ablate", "--model", str(paths["model"]), "--data", str(paths["data"]),
                 "--report", str(bad), "--out-prefix", str(tmp_path / "a")]) == 2
    line = _error_line(capsys)
    assert line.startswith(f"error: malformed range report {bad}: n_rollouts must be")
    assert not list(tmp_path.glob("a.*"))


def test_analyze_takes_its_window_from_the_dataset(tmp_path, capsys):
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "copy", "--k", "2", "--T", "12", "--n", "4",
                 "--seed", "0", "--out", str(data)]) == 0
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(2, 4), ckpt)
    for T in ([], ["--T", "12"]):
        assert main(["analyze", "--model", str(ckpt), "--data", str(data), *T,
                     "--mode", "final", "--out-prefix", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r.report.json").read_text())
        assert report["config"]["T"] == 12
        assert report["rho_hat"] == pytest.approx(2.0, abs=1e-12)
    capsys.readouterr()
    assert main(["analyze", "--model", str(ckpt), "--data", str(data), "--T", "32",
                 "--out-prefix", str(tmp_path / "r")]) == 2
    assert _error_line(capsys) == f"error: --T 32 does not match the T=12 of dataset {data}"


@pytest.mark.parametrize("n", ["-3", "0"])
def test_analyze_rejects_a_rollout_count_below_one_before_reading_files(
        tmp_path, capsys, n):
    # A negative count would slice rollouts off the dataset's end; the
    # missing checkpoint shows that no file is read first.
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "copy", "--k", "1", "--T", "8", "--n", "20",
                 "--seed", "0", "--out", str(data)]) == 0
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 4), ckpt)
    capsys.readouterr()
    for model in (ckpt, tmp_path / "missing.json"):
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--n-rollouts", n, "--out-prefix", str(tmp_path / "r")]) == 2
        assert _error_line(capsys) == f"error: --n-rollouts must be >= 1, got {n}"
    assert not list(tmp_path.glob("r.*"))


@pytest.mark.parametrize("flag, value, least", [("--n", "0", 1), ("--n", "-2", 1),
                                                ("--encoder-dim", "-3", 0)])
def test_train_rejects_a_count_or_width_below_its_range(tmp_path, capsys, flag, value,
                                                        least):
    # An empty --n used to end in an IndexError traceback, and a negative
    # --encoder-dim trained an identity encoder while the manifest kept -3.
    flags = {"--n": "4", "--encoder-dim": "8", flag: value}
    assert main(["train", "--task", "copy", "--k", "1", "--T", "8", "--hidden", "4",
                 "--steps", "1", *[a for item in flags.items() for a in item],
                 "--out-prefix", str(tmp_path / "m")]) == 2
    assert _error_line(capsys) == f"error: {flag} must be >= {least}, got {value}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen-data", "ablate"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_data_and_ablate_reject_a_count_below_one_up_front(tmp_path, capsys,
                                                               command, n):
    # These used to end in "refusing to save an empty dataset" and "ablation
    # requires evaluation data"; the missing checkpoint shows no file is read.
    args = {"gen-data": ["--out", str(tmp_path / "d.json")],
            "ablate": ["--model", str(tmp_path / "missing.json"),
                       "--out-prefix", str(tmp_path / "r")]}[command]
    assert main([command, "--task", "copy", "--k", "1", "--T", "8", "--n", n,
                 *args]) == 2
    assert _error_line(capsys) == f"error: --n must be >= 1, got {n}"
    assert not list(tmp_path.iterdir())


def test_train_rejects_a_negative_data_seed_that_data_leaves_unused(tmp_path, capsys):
    # With --data the seed draws nothing, yet a negative one used to be
    # written into the manifest.
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "copy", "--k", "1", "--T", "8", "--n", "4",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--data-seed", "-1", "--hidden", "4",
                 "--steps", "1", "--out-prefix", str(tmp_path / "r")]) == 2
    assert _error_line(capsys) == "error: seed must be >= 0, got -1"
    assert not list(tmp_path.glob("r.*"))


@pytest.mark.parametrize("lr", ["inf", "nan"])
def test_train_rejects_a_learning_rate_that_is_not_finite(tmp_path, capsys, lr):
    # An infinite rate used to end in "non-finite adjoint", blaming the engine.
    assert main(["train", "--task", "copy", "--k", "1", "--T", "8", "--n", "4",
                 "--hidden", "4", "--steps", "10", "--lr", lr,
                 "--out-prefix", str(tmp_path / "r")]) == 2
    assert _error_line(capsys) == f"error: lr must be finite and > 0, got {lr}"
    assert not list(tmp_path.iterdir())


def test_train_rejects_a_lem_dt_that_is_not_finite(tmp_path, capsys):
    # An infinite LEM step used to end in "non-finite adjoint", blaming the
    # engine.
    assert main(["train", "--task", "copy", "--k", "1", "--T", "8", "--n", "4",
                 "--model", "lem", "--hidden", "4", "--steps", "10",
                 "--lem-dt", "inf", "--out-prefix", str(tmp_path / "r")]) == 2
    assert _error_line(capsys) == "error: lem_dt must be finite and > 0, got inf"
    assert not list(tmp_path.iterdir())


def test_train_lem_dt_changes_the_fingerprint(tmp_path):
    fps = {}
    for dt in ("0.3", "0.7"):
        prefix = tmp_path / f"dt{dt}"
        assert main(["train", "--task", "copy", "--k", "1", "--T", "8", "--n", "8",
                     "--model", "lem", "--hidden", "4", "--steps", "2",
                     "--lem-dt", dt, "--out-prefix", str(prefix)]) == 0
        fps[dt] = json.loads((tmp_path / f"dt{dt}.manifest.json").read_text())[
            "config_fingerprint"]
    assert fps["0.3"] != fps["0.7"]


def test_gen_data_creates_its_output_directory(tmp_path):
    data = tmp_path / "new" / "sub" / "d.json"
    assert main(["gen-data", "--task", "copy", "--k", "1", "--T", "6", "--n", "4",
                 "--out", str(data)]) == 0
    loaded, header = load_dataset(data)
    assert len(loaded) == header["n"] == 4


def test_gen_data_writes_the_repeat_first_task(tmp_path):
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "repeatfirst", "--T", "6", "--V", "3",
                 "--n", "3", "--seed", "4", "--out", str(data)]) == 0
    sequences, header = load_dataset(data)
    assert header["task"] == "repeatfirst"
    want = gen_repeatfirst(6, 3, 3, Rng(4))
    assert len(sequences) == len(want)
    for got, ref in zip(sequences, want):
        assert np.array_equal(got.x, ref.x)
        assert np.array_equal(got.targets, ref.targets)
        assert np.array_equal(got.mask, ref.mask)


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--seed"), ("train", "--seed"), ("train", "--data-seed"),
    ("analyze", "--seed"), ("ablate", "--seed"), ("oracle", "--seed"),
    ("axioms", "--seed"), ("analyze --data", "--seed"), ("ablate --data", "--seed")])
def test_negative_seed_is_an_input_error(tmp_path, capsys, command, flag):
    # NumPy's seed sequences reject a negative seed with a bare ValueError, so
    # Rng checks the seed itself and every command reports it as an input error,
    # also where --data leaves the seed unused.
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 4), ckpt)
    task = ["--task", "copy", "--k", "1", "--T", "8", "--n", "4"]
    command, *data = command.split()
    args = {
        "gen-data": [*task, "--out", str(tmp_path / "d.json")],
        "train": [*task, "--hidden", "4", "--steps", "1",
                  "--out-prefix", str(tmp_path / "r")],
        "analyze": ["--model", str(ckpt), "--task", "copy", "--k", "1", "--T", "8",
                    "--n-rollouts", "2", "--out-prefix", str(tmp_path / "r")],
        "ablate": ["--model", str(ckpt), *task, "--out-prefix", str(tmp_path / "r")],
        "oracle": ["--trials", "2"],
        "axioms": ["--trials", "2"],
    }[command]
    if data:
        assert main(["gen-data", *task, "--out", str(tmp_path / "data.json")]) == 0
        args = ["--model", str(ckpt), "--data", str(tmp_path / "data.json"),
                "--out-prefix", str(tmp_path / "r")]
    capsys.readouterr()
    assert main([command, *args, flag, "-1"]) == 2
    assert _error_line(capsys) == "error: seed must be >= 0, got -1"
    assert not list(tmp_path.glob("[dr].*"))


def _subcommands() -> dict:
    """Each command's sub-parser, by command name."""
    action = next(a for a in build_parser()._actions if a.dest == "command")
    return action.choices


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, sub in _subcommands().items()
    for flag in FLAG_FLOORS if flag in sub._option_string_actions])
def test_every_flag_floor_is_checked_before_any_file_is_read(tmp_path, capsys,
                                                            command, flag):
    # Every path given, --data included where the command takes it, is
    # missing, so the floor's message shows that no file was read first.
    sub = _subcommands()[command]
    args = []
    for action in sub._actions:
        option = action.option_strings[:1]
        if option == ["--task"]:
            args += ["--task", "copy"]
        elif option and (action.required or option == ["--data"]):
            args += [option[0], str(tmp_path / f"missing{option[0]}")]
    least = FLAG_FLOORS[flag]
    assert main([command, *args, flag, str(least - 1)]) == 2
    name = "seed" if flag.endswith("seed") else flag
    assert _error_line(capsys) == f"error: {name} must be >= {least}, got {least - 1}"
    assert not list(tmp_path.iterdir())


def _chain_inputs(tmp_path, k: int = 1) -> dict:
    """A copy-1 dataset (T = 8, V = 4), a shift-copy-``k`` checkpoint and
    its final-mode range report, in a directory of their own."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    paths = {"data": inputs / "d.json", "model": inputs / "m.json"}
    assert main(["gen-data", "--task", "copy", "--k", "1", "--T", "8", "--n", "8",
                 "--out", str(paths["data"])]) == 0
    save_model(build_shift_copy_model(k, 4), paths["model"])
    assert main(["analyze", "--model", str(paths["model"]), "--data", str(paths["data"]),
                 "--mode", "final", "--out-prefix", str(inputs / "r")]) == 0
    return {**paths, "report": inputs / "r.report.json"}


@pytest.mark.parametrize("command", ["train", "analyze", "ablate", "ablate --deploy"])
def test_manifest_records_the_argv_given_to_main_and_exactly_its_outputs(tmp_path,
                                                                         command):
    paths = _chain_inputs(tmp_path)
    data, model = str(paths["data"]), str(paths["model"])
    prefix = tmp_path / "out" / "run"
    argv = {
        "train": ["train", "--data", data, "--hidden", "4", "--steps", "1"],
        "analyze": ["analyze", "--model", model, "--data", data],
        "ablate": ["ablate", "--model", model, "--data", data, "--windows", "1,2,8"],
        "ablate --deploy": ["ablate", "--model", model, "--data", data,
                            "--report", str(paths["report"]), "--deploy"],
    }[command] + ["--out-prefix", str(prefix)]
    before = set(tmp_path.rglob("*"))
    assert main(argv) == 0
    created = {str(p) for p in set(tmp_path.rglob("*")) - before if p.is_file()}
    manifest = json.loads((tmp_path / "out" / "run.manifest.json").read_text())
    assert manifest["argv"] == argv
    assert set(manifest["outputs"]) == created - {str(tmp_path / "out" / "run.manifest.json")}


@pytest.mark.parametrize("command", ["train", "analyze", "ablate"])
def test_dataset_whose_header_declares_no_sequences_is_an_input_error(tmp_path, capsys,
                                                                      command):
    # train used to end in an IndexError traceback and exit 1; analyze and
    # ablate reached an error only later, from the engine.
    paths = _chain_inputs(tmp_path)
    doc = json.loads(paths["data"].read_text())
    doc["n"] = 0
    paths["data"].write_text(json.dumps(doc))
    data, model = str(paths["data"]), str(paths["model"])
    argv = {"train": ["train", "--data", data, "--hidden", "4", "--steps", "1"],
            "analyze": ["analyze", "--model", model, "--data", data],
            "ablate": ["ablate", "--model", model, "--data", data]}[command]
    capsys.readouterr()
    assert main(argv + ["--out-prefix", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == (f"error: dataset {data} is empty: "
                                   "its header declares n=0")
    assert not list(tmp_path.glob("out*"))


def test_oracle_with_no_trials_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    for trials in ("0", "-2"):
        assert main(["oracle", "--trials", trials, "--out", str(out)]) == 2
        assert _error_line(capsys) == f"error: trials must be >= 1, got {trials}"
    assert not out.exists()


def test_checkpoint_data_count_other_than_its_shape_is_an_input_error(tmp_path, capsys):
    # A version 1 checkpoint; the message used to leave out the path:
    # "parameter 'A': 15 values for shape (4, 4)".
    ckpt = tmp_path / "m.json"
    doc = v1_checkpoint.v1_document(build_shift_copy_model(1, 2))
    doc["params"]["A"]["data"].pop()
    ckpt.write_text(v1_checkpoint.v1_text(doc))
    code = main(["analyze", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--out-prefix", str(tmp_path / "r")])
    assert code == 2
    assert _error_line(capsys) == (f"error: checkpoint {ckpt}: parameter 'A' holds 120 bytes, "
                                   "not the 128 of shape (4, 4) that its header declares")


def test_checkpoint_shape_that_is_not_integral_is_an_input_error(tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 2), ckpt)
    doc = json.loads(ckpt.read_text())
    doc["params"]["A"]["shape"] = [4.9, 4]
    ckpt.write_text(json.dumps(doc))
    code = main(["analyze", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--out-prefix", str(tmp_path / "r")])
    assert code == 2
    assert _error_line(capsys) == (f"error: malformed checkpoint {ckpt}: parameter 'A' "
                                   "shape must be a list of integers >= 0, got [4.9, 4]")


def test_checkpoint_data_that_is_not_a_list_is_an_input_error(tmp_path, capsys):
    # A version 1 checkpoint, whose data are lists of hex-float strings.
    ckpt = tmp_path / "m.json"
    doc = v1_checkpoint.v1_document(build_shift_copy_model(1, 2))
    doc["params"]["dec_b"]["data"] = "00"
    ckpt.write_text(v1_checkpoint.v1_text(doc))
    code = main(["analyze", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--out-prefix", str(tmp_path / "r")])
    assert code == 2
    assert _error_line(capsys) == (f"error: malformed checkpoint {ckpt}: parameter 'dec_b' "
                                   'data must be a list of hex-float strings, got "00"')


def _edit_block(doc, name, edit):
    doc["params"][name]["data"] = edit(doc["params"][name]["data"])


# (edit, message after "error: ") of corruptions of the version 2 checkpoint
# of `build_shift_copy_model(1, 2)`, whose transition A is (4, 4).
V2_CHECKPOINT_CORRUPTIONS = {
    "data not a string": (lambda doc: _edit_block(doc, "A", lambda data: [data]),
                          "malformed checkpoint {path}: fromhex() argument must be str, "
                          "not list"),
    "bad hex digit": (lambda doc: _edit_block(doc, "A", lambda data: "0g" + data[2:]),
                      "malformed checkpoint {path}: non-hexadecimal number found in "
                      "fromhex() arg at position 1"),
    "odd length": (lambda doc: _edit_block(doc, "A", lambda data: data[:-1]),
                   "malformed checkpoint {path}: non-hexadecimal number found in "
                   "fromhex() arg at position 255"),
    "one value short": (lambda doc: _edit_block(doc, "A", lambda data: data[:-16]),
                        "checkpoint {path}: parameter 'A' holds 120 bytes, not the 128 of "
                        "shape (4, 4) that its header declares"),
    "shape against bytes": (lambda doc: doc["params"]["A"].update(shape=[4, 3]),
                            "checkpoint {path}: parameter 'A' holds 128 bytes, not the 96 of "
                            "shape (4, 3) that its header declares"),
    # Each used to end in an AttributeError traceback.
    "params a list": (lambda doc: doc.update(params=[]),
                      "malformed checkpoint {path}: params must be a JSON object, got []"),
    "params a string": (lambda doc: doc.update(params="x"),
                        'malformed checkpoint {path}: params must be a JSON object, got "x"'),
    # Used to print "list indices must be integers or slices, not str".
    "parameter a list": (lambda doc: doc["params"].update(A=[]),
                         "malformed checkpoint {path}: parameter 'A' must be a JSON object, "
                         "got []"),
}


@pytest.mark.parametrize("case", sorted(V2_CHECKPOINT_CORRUPTIONS))
@pytest.mark.parametrize("command", ["analyze", "ablate"])
def test_corrupt_v2_checkpoint_is_an_input_error(tmp_path, capsys, command, case):
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 2), ckpt)
    doc = json.loads(ckpt.read_text())
    assert doc["version"] == 2
    edit, message = V2_CHECKPOINT_CORRUPTIONS[case]
    edit(doc)
    ckpt.write_text(json.dumps(doc))
    assert main([command, "--model", str(ckpt), "--task", "copy", "--k", "1", "--T", "8",
                 "--V", "2", "--out-prefix", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == "error: " + message.format(path=ckpt)
    assert not list(tmp_path.glob("out.*"))


def test_commands_in_one_process_share_nothing_but_the_parser(tmp_path, capsys):
    # The parser is built once per process; a usage error or a flag given
    # to one command must not reach the next.
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--trials", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: temporal-range axioms")
    spectral, default = tmp_path / "spectral.json", tmp_path / "default.json"
    assert main(["axioms", "--trials", "3", "--seed", "2", "--norm", "spectral",
                 "--out", str(spectral)]) == 0
    assert main(["axioms", "--out", str(default)]) == 0
    assert spectral.read_text() == axiom_suite(Rng(2), 3, NormKind.SPECTRAL).to_json()
    assert default.read_text() == axiom_suite(Rng(0), 100).to_json()


def test_ablate_has_no_metric_flag(capsys):
    # The CLI's datasets hold class-index targets only, so accuracy is the
    # one metric ablate can score.
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--model", "m.json", "--task", "copy", "--metric", "mse",
              "--out-prefix", "a"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_bench_tracer_patches_and_restores_every_traced_name():
    # The benchmark's tracer looks up functions and cell methods by name;
    # installing it fails if one of them is gone.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert len(patched) > len(tracer_module.FUNCTIONS)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def _set_entry(doc, key, index, value):
    """Set entry ``index`` of array ``key`` of a version 2 dataset document
    to ``value``; returns the edited sequence's row at that step."""
    n, T, d = doc["n"], doc["T"], doc["d"]
    array = np.frombuffer(bytes.fromhex(doc[key]), DATASET_ARRAYS[key]).copy()
    array = array.reshape((n, T, d) if key == "x" else (n, T))
    array[index] = value
    doc[key] = array.tobytes().hex()
    return array[index[:2]].tolist()


# (edit, message after "error: ") of corruptions of a version 2 container of
# 4 stateless cart-pole sequences (T = 8, d = 2); an edit that sets one
# array entry returns the row that the message names as {row}.
V2_CORRUPTIONS = {
    "bad hex digit": (lambda doc: doc.update(targets="0g" + doc["targets"][2:]),
                      "malformed dataset {path}: non-hexadecimal number found in "
                      "fromhex() arg at position 1"),
    "byte count": (lambda doc: doc.update(mask=doc["mask"][:-2]),
                   "dataset {path}: mask holds 31 bytes, not the 32 of shape (4, 8) "
                   "that its header declares"),
    "n=-1": (lambda doc: doc.update(n=-1),
             "malformed dataset {path}: n must be an integer >= 0, got -1"),
    "n=2.5": (lambda doc: doc.update(n=2.5),
              "malformed dataset {path}: n must be an integer >= 0, got 2.5"),
    "n=true": (lambda doc: doc.update(n=True),
               "malformed dataset {path}: n must be an integer >= 0, got true"),
    "mask byte 2": (lambda doc: _set_entry(doc, "mask", (1, 3), 2),
                    "dataset {path}: sequence 1: mask entry 2 at step 3 is not 0 or 1"),
    "negative target": (lambda doc: _set_entry(doc, "targets", (2, 4), -1),
                        "dataset {path}: sequence 2: target -1 at step 4 is not a class "
                        "index (a non-negative integer)"),
    "inf observation": (lambda doc: _set_entry(doc, "x", (3, 5, 1), np.inf),
                        "dataset {path}: sequence 3: observation {row} at step 5 is not "
                        "finite"),
}


@pytest.mark.parametrize("case", sorted(V2_CORRUPTIONS))
@pytest.mark.parametrize("command", ["train", "analyze", "ablate"])
def test_corrupt_v2_dataset_is_an_input_error(tmp_path, capsys, command, case):
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "cartpole", "--T", "8", "--n", "4",
                 "--out", str(data)]) == 0
    doc = json.loads(data.read_text())
    edit, message = V2_CORRUPTIONS[case]
    row = edit(doc)
    data.write_text(json.dumps(doc))
    ckpt = tmp_path / "m.json"
    save_model(init_model(CellSpec(kind=CellKind.LSTM, input_dim=2, hidden_dim=4), 2,
                          Rng(0)), ckpt)
    argv = {"train": ["train", "--data", str(data), "--model", "lstm", "--hidden", "4",
                      "--steps", "1"],
            "analyze": ["analyze", "--model", str(ckpt), "--data", str(data)],
            "ablate": ["ablate", "--model", str(ckpt), "--data", str(data)]}[command]
    capsys.readouterr()
    assert main(argv + ["--out-prefix", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == "error: " + message.format(path=data, row=row)
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("kind", ["checkpoint", "dataset", "report"])
def test_input_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, kind):
    # Each used to end in a UnicodeDecodeError traceback and exit 1.
    paths = _chain_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = {"checkpoint": ["analyze", "--model", str(bad), "--data", str(paths["data"])],
            "dataset": ["train", "--data", str(bad), "--hidden", "4", "--steps", "1"],
            "report": ["ablate", "--model", str(paths["model"]), "--data",
                       str(paths["data"]), "--report", str(bad), "--deploy"]}[kind]
    capsys.readouterr()
    assert main(argv + ["--out-prefix", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == {
        "checkpoint": f"error: corrupt checkpoint {bad}: not UTF-8 text, "
                      "invalid start byte at byte offset 0",
        "dataset": f"error: corrupt dataset {bad}: not UTF-8 text, "
                   "invalid start byte at byte offset 0",
        "report": f"error: malformed range report {bad}: 'utf-8' codec can't decode byte "
                  "0xff in position 0: invalid start byte"}[kind]
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("kind", ["checkpoint", "dataset", "report"])
def test_input_file_nested_too_deeply_is_an_input_error(tmp_path, capsys, kind):
    # Each used to end in a RecursionError traceback and exit 1.
    paths = _chain_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 1000 + "]" * 1000)
    argv = {"checkpoint": ["analyze", "--model", str(bad), "--data", str(paths["data"])],
            "dataset": ["train", "--data", str(bad), "--hidden", "4", "--steps", "1"],
            "report": ["ablate", "--model", str(paths["model"]), "--data",
                       str(paths["data"]), "--report", str(bad), "--deploy"]}[kind]
    capsys.readouterr()
    assert main(argv + ["--out-prefix", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == {
        "checkpoint": f"error: corrupt checkpoint {bad}: JSON nested too deeply to parse",
        "dataset": f"error: corrupt dataset {bad}: JSON nested too deeply to parse",
        "report": f"error: malformed range report {bad}: JSON nested too deeply to parse"}[kind]
    assert not list(tmp_path.glob("out*"))


def test_every_json_file_the_cli_chain_writes_holds_only_finite_numbers(tmp_path):
    # `json.dumps` writes NaN and Infinity tokens that strict JSON readers
    # reject; no artifact or manifest of the chain may hold one.
    paths = _chain_inputs(tmp_path)
    data, out = str(paths["data"]), tmp_path / "out"
    for argv in (["train", "--data", data, "--hidden", "4", "--steps", "2",
                  "--out-prefix", str(out / "train")],
                 ["analyze", "--model", str(out / "train.model.json"), "--data", data,
                  "--out-prefix", str(out / "analyze")],
                 ["ablate", "--model", str(paths["model"]), "--data", data, "--report",
                  str(paths["report"]), "--deploy", "--out-prefix", str(out / "ablate")],
                 ["oracle", "--trials", "2", "--out", str(out / "oracle.json")],
                 ["axioms", "--trials", "2", "--out", str(out / "axioms.json")]):
        assert main(argv) == 0

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    files = sorted(tmp_path.rglob("*.json"))
    assert len(files) == 13
    for path in files:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
