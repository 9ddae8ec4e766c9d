"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The trained-model criteria share one module-scoped fixture that trains
nine GRU classifiers (offsets 1, 3, 5 x three seeds) plus three small
proxy models used by the deployment-window protocol; both fixtures train
their models in parallel worker processes.
"""

import dataclasses
import math
import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

from temporal_range.ablation import ablation_sweep, deployment_check
from temporal_range.cli import main as cli_main
from temporal_range.gradients import (COMPLEX_STEP, JacobianMode, LossKind,
                                      fd_jacobian, input_jacobians, masked_loss,
                                      param_gradients)
from temporal_range.linalg import NormKind, Rng
from temporal_range.metric import (Aggregation, TRConfig, analyze, influence_weights,
                                   temporal_range)
from temporal_range.models import (CellKind, CellSpec, build_shift_copy_model,
                                   init_model)
from temporal_range.oracles import (RecurrenceSpec, axiom_suite, copyk_oracle,
                                    recurrence_as_model, recurrence_profile)
from temporal_range.tasks import CopyTaskSpec, gen_copyk
from temporal_range.training import OptConfig, train

from rescaling import input_scaled, output_scaled, residuals

RESIDUAL_TOL = 1e-9
WINDOW_GRID = (1, 2, 4, 8, 16, 32)
CHANCE = 0.25  # four-symbol vocabulary


@pytest.fixture
def verdict(capsys):
    """Emit one visible pass/fail line per criterion, then assert."""
    def _emit(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, detail
    return _emit


def _train_job(job):
    """Train one ``((task, n, cell, encoder_dim), data seed, OptConfig)``
    job: ``n`` copy-task sequences drawn from ``Rng(data seed)``, a model
    initialised from ``Rng(cfg.seed)``; returns ``train``'s (model, log)."""
    (task, n, cell, encoder_dim), data_seed, cfg = job
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as pytest's own filter
        data = gen_copyk(task, n, Rng(data_seed))
        model = init_model(cell, task.V, Rng(cfg.seed), encoder_dim=encoder_dim)
        return train(model, data, cfg)


def _train_all(jobs):
    """``_train_job`` of every job, in job order, on one ``spawn`` worker per
    core (at most one per job), each with one BLAS thread.  A trained model is
    bit-identical under any BLAS thread count."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in blas}
    os.environ.update(dict.fromkeys(blas, "1"))  # spawned workers read it at start
    try:
        workers = min(os.cpu_count() or 1, len(jobs))
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            # A worker that dies leaves map waiting; criterion 07 allows 600 s.
            return pool.map_async(_train_job, jobs, chunksize=1).get(timeout=600)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@pytest.fixture(scope="module")
def trained_models():
    """Nine GRU-32 classifiers on the copy task, k in {1, 3, 5} x 3 seeds."""
    t0 = time.perf_counter()
    cell = CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=32)
    keys = [(k, seed) for k in (1, 3, 5) for seed in (1, 2, 3)]
    results = _train_all([
        ((CopyTaskSpec(k=k, T=32, V=4), 1500, cell, 32), 100 + k,
         OptConfig(lr=1e-3, batch_size=32, steps=1500, seed=seed))
        for k, seed in keys])
    return {"models": {key: model for key, (model, _) in zip(keys, results)},
            "val_accuracy": {key: log.final_val_metric
                             for key, (_, log) in zip(keys, results)},
            "train_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def proxy_window_report():
    """Deployment-stage TR estimate from three small proxies on copy-3.

    Mirrors the two-stage protocol: compact models (a quarter of the
    deployed width) are trained on the same task and their final-output
    normalized ranges are averaged into the window-sizing estimate.
    """
    rollouts = [s.x for s in gen_copyk(CopyTaskSpec(k=3, T=32, V=4), 16, Rng(7031))]
    cfg = TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=32)
    cell = CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=8)
    results = _train_all([
        ((CopyTaskSpec(k=3, T=32, V=4), 1500, cell, None), 103,
         OptConfig(lr=1e-3, batch_size=32, steps=1500, seed=seed))
        for seed in (11, 12, 13)])
    reports = [analyze(trained, rollouts, cfg) for trained, _ in results]
    estimate = float(np.mean([r.rho_hat for r in reports]))
    return dataclasses.replace(reports[0], rho_hat=estimate)


def test_criterion_01_copy_offset_exactness(verdict):
    start = time.perf_counter()
    rng = Rng(42)
    T = 32
    worst = 0.0
    for k in (1, 3, 5, 10):
        U = np.asarray(rng.gaussian(size=(2, 3)))
        model = build_shift_copy_model(k, 3, U)
        for norm in (NormKind.FROBENIUS, NormKind.SPECTRAL):
            for agg in (Aggregation.MEAN, Aggregation.MAX):
                cfg = TRConfig(norm=norm, aggregation=agg,
                               mode=JacobianMode.FINAL_OUTPUT, T=T)
                rollouts = [np.asarray(rng.gaussian(size=(T, 3))) for _ in range(2)]
                report = analyze(model, rollouts, cfg)
                worst = max(worst, abs(report.rho_hat - copyk_oracle(k, T)))
    elapsed = time.perf_counter() - start
    verdict(1, worst < RESIDUAL_TOL and elapsed < 5.0,
            f"delay-line rho_hat vs k, worst |delta| {worst:.2e} "
            f"(tol {RESIDUAL_TOL}), {elapsed:.2f}s (< 5s)")


def test_criterion_02_linear_recurrence_closed_form(verdict):
    rng = Rng(7)
    T = 16
    cfg = TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        A = np.asarray(rng.gaussian(size=(p, p)))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius > 0:
            A *= 0.9 / radius
        spec = RecurrenceSpec(A=A, C=np.asarray(rng.gaussian(size=(p, d))),
                              Q=np.asarray(rng.gaussian(size=(c, p))), T=T)
        closed = recurrence_profile(spec)
        model = recurrence_as_model(spec)
        x = np.asarray(rng.gaussian(size=(T, d)))
        measured = influence_weights(input_jacobians(model, x, cfg.mode), cfg)
        worst = max(worst, float(np.max(np.abs(measured - closed))))
    verdict(2, worst < RESIDUAL_TOL,
            f"matrix-power vs autodiff weights on 20 specs, worst |delta w| "
            f"{worst:.2e} (tol {RESIDUAL_TOL})")


def test_criterion_03_gradient_correctness(verdict):
    start = time.perf_counter()
    T = 12
    worst = 0.0

    def rel(a, b):
        return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(
            1.0, np.linalg.norm(a), np.linalg.norm(b))

    kind_offsets = {CellKind.GRU: 1000, CellKind.LSTM: 2000,
                    CellKind.LEM: 3000, CellKind.LINEAR_REC: 4000}
    for kind, offset in kind_offsets.items():
        loss = (LossKind.CROSS_ENTROPY if kind in (CellKind.GRU, CellKind.LSTM)
                else LossKind.MSE)
        for seed in range(20):
            rng = Rng(offset + seed)
            d = int(rng.integers(2, 5))
            p = int(rng.integers(2, 9))
            c = int(rng.integers(2, 4))
            enc = None if seed % 2 else int(rng.integers(2, 5))
            model = init_model(CellSpec(kind=kind, input_dim=d, hidden_dim=p),
                               c, rng, encoder_dim=enc)
            x = np.asarray(rng.gaussian(size=(T, d)))
            blocks = input_jacobians(model, x, JacobianMode.MULTI_OUTPUT)
            keys = list(blocks.blocks)
            if seed == 0:
                picked = keys
            else:
                picked = [keys[int(rng.integers(0, len(keys)))] for _ in range(8)]
            for (s, t) in picked:
                worst = max(worst, rel(blocks.blocks[s, t], fd_jacobian(model, x, s, t)))

            if loss is LossKind.CROSS_ENTROPY:
                target = np.asarray(rng.integers(0, c, size=T))
            else:
                target = np.asarray(rng.gaussian(size=(T, c)))
            steps = list(range(1, T + 1))
            grads = param_gradients(model, x, target, loss, steps)
            names = sorted(grads)
            coords = []
            if seed == 0:
                coords = [(n, i) for n in names for i in range(model.params[n].size)]
            else:
                for _ in range(25):
                    n = names[int(rng.integers(0, len(names)))]
                    coords.append((n, int(rng.integers(0, model.params[n].size))))
            mask = np.ones(T, dtype=bool)
            for name, idx in coords:
                probe = model.copy()
                probe.params[name] = probe.params[name].astype(np.complex128)
                probe.params[name].flat[idx] += 1j * COMPLEX_STEP
                ys = probe.outputs(x[None])[0]
                cs = float(masked_loss(ys, target, mask, loss)[0].imag) / COMPLEX_STEP
                an = float(grads[name].ravel()[idx])
                worst = max(worst, abs(cs - an) / max(1.0, abs(cs), abs(an)))
    elapsed = time.perf_counter() - start
    verdict(3, worst < RESIDUAL_TOL and elapsed < 60.0,
            f"analytic vs complex-step gradients over 4 cell kinds x 20 seeds, "
            f"worst rel err {worst:.2e} (tol {RESIDUAL_TOL}), {elapsed:.1f}s (< 60s)")


def test_criterion_04_axiom_suite(verdict):
    worst = 0.0
    for norm in (NormKind.FROBENIUS, NormKind.SPECTRAL):
        report = axiom_suite(Rng(0), trials=100, norm=norm)
        worst = max(worst, report.max_residual())
    verdict(4, worst < RESIDUAL_TOL,
            f"calibration/additivity/homogeneity/averaging axioms plus "
            f"decomposition formulas, 100 trials per norm, worst residual "
            f"{worst:.2e} (tol {RESIDUAL_TOL})")


def test_criterion_05_rescaling_invariances(verdict):
    rng = Rng(55)
    gru = init_model(CellSpec(kind=CellKind.GRU, input_dim=3, hidden_dim=6),
                     2, rng, encoder_dim=4)
    lin = recurrence_as_model(RecurrenceSpec(
        A=np.eye(3) * 0.6, C=np.eye(3), Q=np.ones((2, 3)), T=12))
    copy3 = build_shift_copy_model(3, 3)
    x = np.asarray(rng.gaussian(size=(12, 3)))
    worst = 0.0
    for model, mode in ((gru, JacobianMode.MULTI_OUTPUT),
                        (lin, JacobianMode.MULTI_OUTPUT),
                        (copy3, JacobianMode.FINAL_OUTPUT)):
        cfg = TRConfig(mode=mode, T=12)
        for alpha in (0.1, 3.7, -2.0):
            worst = max(worst, *residuals(model, x, output_scaled(model, alpha), x,
                                          abs(alpha), cfg))
        for beta in (0.25, 8.0):
            worst = max(worst, *residuals(model, x, input_scaled(model, beta), beta * x,
                                          1.0 / abs(beta), cfg))
    verdict(5, worst < RESIDUAL_TOL,
            f"output scaling (0.1, 3.7, -2) and compensated input rescaling "
            f"(0.25, 8) across three model families, worst residual "
            f"{worst:.2e} (tol {RESIDUAL_TOL})")


def test_criterion_06_memoryless_degenerate(verdict):
    rng = Rng(66)
    model = build_shift_copy_model(0, 3)  # output depends only on the
    # current observation, so no strictly-past block can be nonzero
    rollouts = [np.asarray(rng.gaussian(size=(32, 3))) for _ in range(5)]
    report = analyze(model, rollouts, TRConfig(T=32))
    ok = (report.degenerate
          and report.rho_hat is None
          and all(v is None for v in report.per_rollout_rho_hat)
          and float(np.max(np.abs(report.weights_mean))) == 0.0)
    verdict(6, ok, "memoryless model: all-zero weights, degenerate report "
                   f"on every one of {report.n_rollouts} rollouts")


def test_criterion_07_range_tracks_copy_offset(trained_models, verdict):
    start = time.perf_counter()
    vals = trained_models["val_accuracy"]
    min_val = min(vals.values())
    means = {}
    for k in (1, 3, 5):
        per_seed = []
        for seed in (1, 2, 3):
            rollouts = [s.x for s in gen_copyk(CopyTaskSpec(k=k, T=32, V=4),
                                               16, Rng(7000 + k * 10 + seed))]
            report = analyze(trained_models["models"][(k, seed)], rollouts,
                             TRConfig(T=32))
            per_seed.append(report.rho_hat)
        means[k] = float(np.mean(per_seed))
    total = trained_models["train_seconds"] + (time.perf_counter() - start)
    ok = (min_val >= 0.95 and means[1] < means[3] < means[5] and total < 600.0)
    verdict(7, ok,
            f"9 trained models all val acc >= 0.95 (min {min_val:.3f}); mean "
            f"rho_hat {means[1]:.2f} < {means[3]:.2f} < {means[5]:.2f} "
            f"strictly increasing in k; {total:.0f}s (< 600s)")


def test_criterion_08_window_ablation_knees(trained_models, verdict):
    ok = True
    details = []
    for k in (1, 3, 5):
        eval_data = gen_copyk(CopyTaskSpec(k=k, T=32, V=4), 200, Rng(8000 + k))
        for seed in (1, 2, 3):
            curve = ablation_sweep(trained_models["models"][(k, seed)],
                                   eval_data, WINDOW_GRID)
            by_window = dict(zip(curve.windows, curve.normalized))
            for m, norm_perf in by_window.items():
                if m >= k + 1 and norm_perf < 0.9:
                    ok = False
                    details.append(f"k={k} seed={seed} m={m}: {norm_perf:.3f} < 0.9")
                if m <= k and norm_perf > CHANCE + 0.1:
                    ok = False
                    details.append(
                        f"k={k} seed={seed} m={m}: {norm_perf:.3f} > chance+0.1")
    verdict(8, ok,
            "normalized performance >= 0.9 for every window past the offset "
            "and <= chance+0.1 at or below it, all 9 models"
            + ("" if ok else "; " + "; ".join(details)))


def test_criterion_09_deployment_windows(trained_models, proxy_window_report, verdict):
    report = proxy_window_report
    eval_data = gen_copyk(CopyTaskSpec(k=3, T=32, V=4), 200, Rng(8003))
    ok = True
    details = [f"proxy rho_hat estimate {report.rho_hat:.2f}"]
    for seed in (1, 2, 3):
        check = deployment_check(trained_models["models"][(3, seed)],
                                 eval_data, report)
        details.append(f"seed {seed}: window {check.window} retention "
                       f"{check.retention_window:.3f}, half {check.half_window} "
                       f"retention {check.retention_half:.3f}")
        if not (check.retention_window >= 0.9
                and check.retention_half <= check.retention_window - 0.3):
            ok = False
    verdict(9, ok, "; ".join(details))


def test_criterion_10_mean_and_max_aggregations(verdict):
    rng = Rng(10)
    T = 32
    worst = 0.0
    for k in (1, 3, 5, 10):
        model = build_shift_copy_model(k, 2)
        x = np.asarray(rng.gaussian(size=(T, 2)))
        for agg in (Aggregation.MEAN, Aggregation.MAX):
            cfg = TRConfig(aggregation=agg, mode=JacobianMode.FINAL_OUTPUT, T=T)
            rv = temporal_range(influence_weights(
                input_jacobians(model, x, cfg.mode), cfg))
            worst = max(worst, abs(rv.rho_hat - k))
    # Distributed dependence: both aggregations must be computable; the
    # size of their gap is reported, not asserted.
    lin = recurrence_as_model(RecurrenceSpec(A=[[0.9]], C=[[1.0]], Q=[[1.0]], T=T))
    x = np.asarray(rng.gaussian(size=(T, 1)))
    values = {}
    for agg in (Aggregation.MEAN, Aggregation.MAX):
        cfg = TRConfig(aggregation=agg, T=T)
        rv = temporal_range(influence_weights(input_jacobians(lin, x, cfg.mode), cfg))
        values[agg.value] = rv.rho_hat
    defined = all(v is not None and math.isfinite(v) for v in values.values())
    verdict(10, worst < RESIDUAL_TOL and defined,
            f"delay lines: mean and max both recover k (worst |delta| "
            f"{worst:.2e}); distributed-dependence model reports mean "
            f"{values['mean']:.2f} / max {values['max']:.2f} without error")


def test_criterion_11_cli_determinism(tmp_path, verdict):
    checks = []

    def rerun_identical(label, argv, files, strip_svg=False):
        captured = []
        for _ in range(2):
            assert cli_main(argv) == 0, f"{label} exited nonzero"
            snap = {}
            for f in files:
                data = (tmp_path / f).read_bytes()
                if strip_svg and f.endswith(".svg"):
                    data = b"\n".join(line for line in data.splitlines()
                                      if not line.startswith(b"<!--"))
                snap[f] = data
            captured.append(snap)
        checks.append((label, captured[0] == captured[1]))

    data = tmp_path / "d.json"
    rerun_identical("gen-data",
                    ["gen-data", "--task", "copy", "--k", "1", "--T", "8",
                     "--n", "32", "--seed", "4", "--out", str(data)],
                    ["d.json"])
    rerun_identical("train",
                    ["train", "--data", str(data), "--model", "gru",
                     "--hidden", "6", "--steps", "40", "--batch", "8",
                     "--seed", "2", "--out-prefix", str(tmp_path / "t")],
                    ["t.model.json", "t.loss.csv", "t.metrics.json"])
    ckpt = str(tmp_path / "t.model.json")
    rerun_identical("analyze",
                    ["analyze", "--model", ckpt, "--data", str(data),
                     "--T", "8", "--n-rollouts", "8", "--seed", "1",
                     "--out-prefix", str(tmp_path / "r")],
                    ["r.report.json", "r.profile.csv", "r.profile.svg"],
                    strip_svg=True)
    rerun_identical("ablate",
                    ["ablate", "--model", ckpt, "--data", str(data),
                     "--windows", "1,2,4,8", "--seed", "1",
                     "--report", str(tmp_path / "r.report.json"), "--deploy",
                     "--out-prefix", str(tmp_path / "a")],
                    ["a.curve.csv", "a.curve.svg", "a.deployment.json"],
                    strip_svg=True)
    rerun_identical("axioms",
                    ["axioms", "--trials", "30", "--seed", "3",
                     "--out", str(tmp_path / "ax.json")],
                    ["ax.json"])
    rerun_identical("oracle",
                    ["oracle", "--trials", "3", "--seed", "3",
                     "--out", str(tmp_path / "or.json")],
                    ["or.json"])
    failing = [label for label, same in checks if not same]
    verdict(11, not failing,
            "byte-identical artifacts across reruns for "
            + ", ".join(label for label, _ in checks)
            + ("" if not failing else f"; differing: {failing}"))
