import json

import pytest

from temporal_range.cli import main
from temporal_range.models import build_shift_copy_model, save_model


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


def test_deploy_without_report_is_an_input_error(tmp_path):
    ckpt = tmp_path / "m.json"
    save_model(build_shift_copy_model(1, 2), ckpt)
    code = main(["ablate", "--model", str(ckpt), "--task", "copy", "--k", "1",
                 "--T", "8", "--V", "2", "--n", "8", "--deploy",
                 "--out-prefix", str(tmp_path / "a")])
    assert code == 2


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
    data = tmp_path / "d.json"
    assert main(["gen-data", "--task", "copy", "--k", "1", "--T", "8", "--n", "4",
                 "--seed", "0", "--out", str(data)]) == 0
    doc = json.loads(data.read_text())
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
