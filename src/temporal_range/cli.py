"""Command-line interface: train, analyze, oracle, axioms, ablate, gen-data.

Every command is a pure function of its flags, input files, and seed; the
data artifacts it writes (JSON/CSV, and SVG up to a metadata comment) are
byte-identical across reruns.  train, analyze and ablate also write a run
manifest with provenance (command line, config fingerprint, tool version,
timestamp) next to their outputs; set ``SOURCE_DATE_EPOCH`` to pin its
timestamp.

Exit codes: 0 success, 1 a verification command found residuals over
tolerance, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ablation import (ablation_sweep, curve_csv, deployment_windows,
                       sweep_with_deployment)
from .errors import FormatError, SpecError, TemporalRangeError
from .gradients import JacobianMode
from .linalg import NormKind, Rng
from .metric import (Aggregation, TRConfig, analyze, artifact_json,
                     config_fingerprint, profile_csv, report_from_json,
                     report_json)
from .models import CellKind, CellSpec, init_model, load_model, save_model
from .oracles import axiom_suite, pipeline_cross_checks
from .svgplot import bar_chart, line_chart
from .tasks import (OBS_VARIANTS, TASKS, header_spec, load_dataset,
                    save_dataset)
from .training import OptConfig, train

RESIDUAL_TOL = 1e-9
DEFAULT_T = 32

_NORMS = {"frobenius": NormKind.FROBENIUS, "spectral": NormKind.SPECTRAL}
_AGGS = {"mean": Aggregation.MEAN, "max": Aggregation.MAX}
_MODES = {"multi": JacobianMode.MULTI_OUTPUT, "final": JacobianMode.FINAL_OUTPUT}
_CELLS = {"linear": CellKind.LINEAR_REC, "gru": CellKind.GRU,
          "lstm": CellKind.LSTM, "lem": CellKind.LEM}
# The least value of every count, width and seed flag.  main checks each
# flag the command has before dispatching, so a value below its floor is an
# input error even where the run leaves the flag unused, and no file is
# read first.  Seeds share the message of Rng's own check.
FLAG_FLOORS = {"--n": 1, "--n-rollouts": 1, "--data-seed": 0,
               "--encoder-dim": 0, "--seed": 0}


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return datetime.fromtimestamp(t, tz=timezone.utc).isoformat()


def _out(prefix: Path, ext: str) -> Path:
    """Append an extension to a prefix without clobbering dots in it."""
    return prefix.parent / (prefix.name + ext)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _publish(args, config: dict, inputs, artifacts: dict) -> None:
    """Write each artifact at ``--out-prefix`` plus its extension, then the
    run manifest listing exactly those paths.  An artifact is text or a
    function that writes the path it is given (``save_model``); inputs that
    are ``None`` are left out."""
    prefix = Path(args.out_prefix)
    doc = {"command": args.command, "argv": args.argv, "config": config,
           "config_fingerprint": config_fingerprint(config), "seed": args.seed,
           "inputs": sorted(p for p in inputs if p),
           "outputs": sorted(str(_out(prefix, ext)) for ext in artifacts),
           "tool_version": __version__, "timestamp": _timestamp()}
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for ext, content in {**artifacts, ".manifest.json": artifact_json(doc)}.items():
        if callable(content):
            content(_out(prefix, ext))
        else:
            _out(prefix, ext).write_text(content, encoding="utf-8")


def _add_task_flags(p: argparse.ArgumentParser, task_required: bool = False) -> None:
    p.add_argument("--task", choices=sorted(TASKS),
                   required=task_required, help="generate sequences from this task")
    p.add_argument("--k", type=int, default=3, help="offset of the recalled symbol")
    p.add_argument("--T", type=int, help=f"sequence length of a generated task "
                   f"(default {DEFAULT_T}); with --data, the dataset's T")
    p.add_argument("--V", type=int, default=4, help="symbol vocabulary size")
    p.add_argument("--variant", choices=sorted(OBS_VARIANTS), default="stateless",
                   help="observation variant of the imitation task")
    p.add_argument("--sigma", type=float, default=0.1,
                   help="observation noise std for the noisy variant")


def _load_sequences(args, n: int, seed: int):
    """A ``Dataset``, its task spec and description: from --data if the
    command has it and it is given, else ``n`` sequences generated from the
    --task spec's flags.  An explicit --T must match the dataset's T."""
    if getattr(args, "data", None):
        data, header = load_dataset(args.data)
        if args.T is not None and args.T != header["T"]:
            raise SpecError(f"--T {args.T} does not match the T={header['T']!r} "
                            f"of dataset {args.data}")
        return (data, header_spec(header),
                {"source": args.data, **{k: header[k] for k in ("task", "spec")}})
    if not args.task:
        raise TemporalRangeError("either --data or --task is required")
    flags = {**vars(args), "T": DEFAULT_T if args.T is None else args.T}
    cls = TASKS[args.task]
    spec = cls(**{field.name: flags[field.name] for field in dataclasses.fields(cls)})
    return spec.generate(n, Rng(seed)), spec, {"task": spec.task, **dataclasses.asdict(spec)}


def _check_floors(args) -> None:
    for flag, least in FLAG_FLOORS.items():
        value = getattr(args, flag[2:].replace("-", "_"), least)
        if value < least:
            name = "seed" if flag.endswith("seed") else flag
            raise SpecError(f"{name} must be >= {least}, got {value}")


def _cmd_gen_data(args) -> int:
    data, spec, _ = _load_sequences(args, args.n, args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_dataset(data, args.out, spec, args.seed)
    print(f"wrote {len(data)} sequences to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cell_kind = _CELLS[args.model]
    data, task, desc = _load_sequences(args, args.n, args.data_seed)
    spec = CellSpec(kind=cell_kind, input_dim=data.x.shape[2], hidden_dim=args.hidden,
                    lem_dt=args.lem_dt)
    encoder_dim = args.encoder_dim or None
    model = init_model(spec, task.n_classes, Rng(args.seed), encoder_dim=encoder_dim)
    cfg = OptConfig(lr=args.lr, batch_size=args.batch, steps=args.steps,
                    seed=args.seed, grad_clip=args.clip)
    trained, log = train(model, data, cfg)
    metrics = {
        "final_train_accuracy": log.final_train_metric,
        "final_val_accuracy": log.final_val_metric,
        "steps": len(log.losses),
        "final_loss": log.losses[-1] if log.losses else None,
        "grad_check_residual": log.grad_check_residual,
    }
    config = {"data": desc, "model": args.model, "hidden": args.hidden,
              "encoder_dim": args.encoder_dim, "lem_dt": args.lem_dt, "lr": args.lr,
              "batch": args.batch, "steps": args.steps, "clip": args.clip,
              "seed": args.seed, "data_seed": args.data_seed}
    _publish(args, config, [args.data],
             {".model.json": lambda path: save_model(trained, path),
              ".loss.csv": log.to_csv(), ".metrics.json": artifact_json(metrics)})
    print(f"train accuracy {log.final_train_metric:.4f}  "
          f"val accuracy {log.final_val_metric:.4f}  "
          f"wall time {log.wall_time_s:.1f}s")
    print(f"checkpoint: {_out(Path(args.out_prefix), '.model.json')}")
    return 0


def _cmd_analyze(args) -> int:
    model = load_model(args.model)
    data, _, desc = _load_sequences(args, args.n_rollouts, args.seed)
    rollouts = data.x[:args.n_rollouts]
    cfg = TRConfig(norm=_NORMS[args.norm], aggregation=_AGGS[args.agg],
                   mode=_MODES[args.mode], T=rollouts.shape[1])
    report = analyze(model, rollouts, cfg)
    svg = bar_chart(range(report.config.T), report.weights_mean[::-1],
                    marker_x=report.rho_hat, title="Temporal influence profile",
                    xlabel="lag (steps back)", ylabel="mean weight",
                    comment=f"generated {_timestamp()}")
    config = {"tr": cfg.as_dict(), "model": args.model, "rollouts": desc,
              "n_rollouts": len(rollouts), "seed": args.seed}
    _publish(args, config, [args.model, args.data],
             {".report.json": report_json(report), ".profile.csv": profile_csv(report),
              ".profile.svg": svg})
    if report.degenerate:
        print("degenerate influence profile: all weights are zero on every "
              "rollout; normalized range undefined")
    else:
        print(f"rho_hat {report.rho_hat:.6g}  (std {report.rho_hat_std:.3g}, "
              f"pooled {report.pooled_rho_hat:.6g})  rho {report.rho:.6g}")
    print(f"report: {_out(Path(args.out_prefix), '.report.json')}")
    return 0


def _verdict(residuals: dict[str, float], text: str, out) -> int:
    """Write a verification's report ``text`` to ``out`` (if given) and to
    stdout; exit code 1, naming the worst residual on stderr, unless every
    residual is under ``RESIDUAL_TOL``."""
    if out:
        _write(Path(out), text)
    print(text, end="")
    worst = max(residuals, key=residuals.get)
    if not residuals[worst] < RESIDUAL_TOL:
        print(f"FAIL: worst residual {residuals[worst]:.3e} ({worst})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(args) -> int:
    residuals = pipeline_cross_checks(Rng(args.seed), trials=args.trials,
                                      norm=_NORMS[args.norm],
                                      inject_fault=args.inject_fault)
    worst = max(residuals.values())
    doc = {"residuals": residuals, "max_residual": worst,
           "tolerance": RESIDUAL_TOL, "trials": args.trials,
           "seed": args.seed, "norm": args.norm,
           "passed": bool(worst < RESIDUAL_TOL)}
    return _verdict(residuals, artifact_json(doc), args.out)


def _cmd_axioms(args) -> int:
    report = axiom_suite(Rng(args.seed), trials=args.trials,
                         norm=_NORMS[args.norm])
    return _verdict(report.residuals, report.to_json(), args.out)


def _cmd_ablate(args) -> int:
    if args.deploy and not args.report:
        raise TemporalRangeError("--deploy requires --report")
    try:
        windows = [int(w) for w in args.windows.split(",")]
    except ValueError as exc:
        raise SpecError(f"--windows: {exc}") from None
    report = None
    if args.report:
        try:
            report = report_from_json(Path(args.report).read_bytes())
        except FormatError as exc:
            # The loader reads text; only the command knows the file's name.
            raise FormatError(str(exc).replace("range report:", f"range report {args.report}:",
                                               1)) from None
        if args.deploy:
            deployment_windows(report)  # rejects a degenerate report before the sweep
    model = load_model(args.model)
    data, _, desc = _load_sequences(args, args.n, args.seed)
    if args.deploy:
        curve, check = sweep_with_deployment(model, data, windows, report)
    else:
        curve = ablation_sweep(model, data, windows)
    svg = line_chart(curve.windows, curve.normalized,
                     marker_x=None if report is None else report.rho_hat,
                     title="Window ablation",
                     xlabel="window m", ylabel="normalized performance",
                     comment=f"generated {_timestamp()}")
    artifacts = {".curve.csv": curve_csv(curve), ".curve.svg": svg}
    if args.deploy:
        doc = {**dataclasses.asdict(check), "metric": "accuracy"}
        artifacts[".deployment.json"] = artifact_json(doc)
        print(f"deployment: window {check.window} retention "
              f"{check.retention_window:.3f}, half window {check.half_window} "
              f"retention {check.retention_half:.3f}")
    config = {"model": args.model, "data": desc, "windows": windows,
              "metric": "accuracy", "seed": args.seed,
              "report": args.report, "deploy": bool(args.deploy)}
    _publish(args, config, [args.model, args.data, args.report], artifacts)
    for m, norm in zip(curve.windows, curve.normalized):
        print(f"m={m:>3}  normalized {norm:.4f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="temporal-range",
        description="Temporal range analysis of sequence models: how far "
                    "back does a trained model actually look?")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset container")
    _add_task_flags(p, task_required=True)
    p.add_argument("--n", type=int, default=512, help="number of sequences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a task or dataset")
    _add_task_flags(p)
    p.add_argument("--data", help="train on this dataset file instead of --task")
    p.add_argument("--n", type=int, default=2000,
                   help="sequences to generate when using --task")
    p.add_argument("--model", choices=sorted(_CELLS), default="gru")
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--encoder-dim", type=int, default=0,
                   help="tanh encoder width; 0 means identity encoder")
    p.add_argument("--lem-dt", type=float, default=0.5)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--clip", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze", help="measure the temporal range of a checkpoint")
    _add_task_flags(p)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", help="rollouts from this dataset file")
    p.add_argument("--n-rollouts", type=int, default=16)
    p.add_argument("--norm", choices=sorted(_NORMS), default="frobenius")
    p.add_argument("--agg", choices=sorted(_AGGS), default="mean")
    p.add_argument("--mode", choices=sorted(_MODES), default="multi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", help="closed-form cross-checks of the pipeline")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--norm", choices=sorted(_NORMS), default="frobenius")
    p.add_argument("--out", help="write the residual report here")
    p.add_argument("--inject-fault", action="store_true",
                   help="negative control: corrupt one closed-form weight")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("axioms", help="randomized axiom suite for the range forms")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--norm", choices=sorted(_NORMS), default="frobenius")
    p.add_argument("--out", help="write the residual report here")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("ablate", help="window ablation of a trained checkpoint")
    _add_task_flags(p)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", help="evaluate on this dataset file")
    p.add_argument("--n", type=int, default=256,
                   help="sequences to generate when using --task")
    p.add_argument("--windows", default="1,2,4,8,16,32")
    p.add_argument("--report", help="range report JSON for the rho-hat marker")
    p.add_argument("--deploy", action="store_true",
                   help="also run the deployment window check (needs --report)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        _check_floors(args)
        return args.func(args)
    except (TemporalRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
