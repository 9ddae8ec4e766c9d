import dataclasses

import numpy as np
import pytest

from temporal_range.ablation import (AblationCurve, _windowed_outputs, ablation_sweep,
                                     curve_csv, deployment_check, knee,
                                     sweep_with_deployment, windowed_forward)
from temporal_range.errors import ShapeMismatch, SpecError
from temporal_range.gradients import JacobianMode
from temporal_range.linalg import Rng
from temporal_range.metric import TRConfig, analyze
from temporal_range.models import CellKind, CellSpec, build_shift_copy_model, init_model
from temporal_range.tasks import CopyTaskSpec, gen_copyk


def test_windowed_forward_with_full_window_is_bitwise_identical():
    model = init_model(CellSpec(kind=CellKind.LEM, input_dim=3, hidden_dim=4),
                       2, Rng(0), encoder_dim=3)
    x = np.asarray(Rng(1).gaussian(size=(9, 3)))
    full = model.outputs(x[None])[0]
    for m in (9, 12, 100):
        win = windowed_forward(model, x, m)
        assert np.array_equal(win, full)


@pytest.mark.parametrize("kind", list(CellKind))
def test_windowed_outputs_equal_one_cold_restart_per_step(kind):
    # T = 33 runs past UNROLL_CHUNK_STEPS, so passes of different lengths
    # split their input projections into different chunks.
    for encoder_dim in (None, 3):
        model = init_model(CellSpec(kind=kind, input_dim=3, hidden_dim=4),
                           2, Rng(3), encoder_dim=encoder_dim)
        for T in (19, 33):
            X = np.asarray(Rng(4).gaussian(size=(5, T, 3)))
            windows = [*range(1, T + 3), 1, 4, T]
            ys = _windowed_outputs(model, X, windows)
            assert np.array_equal(ys[T], model.outputs(X))
            cold = {(a, s): model.outputs(X[:, a:s])[:, -1]
                    for s in range(1, T + 1) for a in range(s)}
            for m in windows:
                want = np.stack([cold[max(0, s - m), s] for s in range(1, T + 1)], axis=1)
                assert np.array_equal(ys[m], want)


def test_windowed_forward_on_memoryless_model_matches_full():
    model = build_shift_copy_model(0, 2)
    x = np.asarray(Rng(2).gaussian(size=(7, 2)))
    win = windowed_forward(model, x, 1)
    assert np.max(np.abs(win - model.outputs(x[None])[0])) < 1e-15


def test_windowed_forward_truncation_empties_the_delay_line():
    # With a window of k the read slot never fills, so outputs vanish at
    # every step where the window is actually binding.
    rng = Rng(3)
    k, d, T = 3, 2, 10
    model = build_shift_copy_model(k, d)
    x = np.asarray(rng.gaussian(size=(T, d)))
    win = windowed_forward(model, x, k)
    full = model.outputs(x[None])[0]
    for s in range(1, T + 1):
        if s > k:
            assert np.max(np.abs(win[s - 1])) == 0.0
            assert np.max(np.abs(full[s - 1])) > 0.0
        else:
            assert np.array_equal(win[s - 1], full[s - 1])


def test_windowed_forward_ignores_observations_outside_the_window():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=4),
                       2, Rng(4))
    x = np.asarray(Rng(5).gaussian(size=(10, 2)))
    m = 3
    base = windowed_forward(model, x, m)
    s = 9
    perturbed = x.copy()
    perturbed[:s - m] += 7.0  # everything older than the window at step s
    out = windowed_forward(model, perturbed, m)
    assert np.array_equal(out[s - 1], base[s - 1])


def test_windowed_forward_rejects_bad_window():
    model = build_shift_copy_model(1, 2)
    for m in (0, 2.5, 2.0):
        with pytest.raises(SpecError):
            windowed_forward(model, np.zeros((4, 2)), m)
    # A sequence is (T, d): neither one step's row nor a batch is one.
    for x in (np.zeros(2), np.zeros((1, 4, 2))):
        with pytest.raises(ShapeMismatch):
            windowed_forward(model, x, 2)


def test_knee_on_hand_curve():
    curve = AblationCurve(windows=[1, 2, 4, 8], mean=[0.2, 0.3, 0.95, 1.0],
                          std=[0.0] * 4, normalized=[0.2, 0.3, 0.95, 1.0],
                          baseline=1.0)
    assert knee(curve, 0.9) == 4
    assert knee(curve, 0.99) == 8
    assert knee(dataclasses.replace(curve, normalized=[0.1, 0.2, 0.3, 0.4]),
                0.9) is None
    with pytest.raises(SpecError):
        knee(curve, 0.0)


def test_exact_delay_line_knee_is_one_past_the_offset():
    k, T = 3, 12
    data = gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 40, Rng(6))
    model = build_shift_copy_model(k, 4)
    curve = ablation_sweep(model, data, windows=range(1, 9))
    assert knee(curve, 0.99) == k + 1


def test_memoryless_model_has_a_flat_curve():
    data = gen_copyk(CopyTaskSpec(k=1, T=8, V=4), 20, Rng(7))
    # Score the memoryless identity readout on the copy task: accuracy is
    # insensitive to the window because nothing past the current step matters.
    model = build_shift_copy_model(0, 4)
    curve = ablation_sweep(model, data, windows=(1, 2, 4, 8))
    assert len(set(curve.mean)) == 1
    assert curve.normalized == pytest.approx([1.0] * 4)


def test_ablation_curve_normalization_and_csv():
    k, T = 2, 8
    data = gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 30, Rng(8))
    model = build_shift_copy_model(k, 4)
    curve = ablation_sweep(model, data, windows=(1, 2, 4, 8))
    assert curve.baseline == 1.0
    assert curve.normalized[-1] == 1.0
    text = curve_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "window,mean,std,normalized"
    assert len(lines) == 5


def _rank_correlation(xs, ys):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        return r
    rx, ry = ranks(np.asarray(xs, dtype=float)), ranks(np.asarray(ys, dtype=float))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.linalg.norm(rx) * np.linalg.norm(ry)
    return float(rx @ ry / denom) if denom else 0.0


def test_copy_task_performance_is_monotone_in_the_window():
    k, T = 4, 16
    data = gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 50, Rng(15))
    model = build_shift_copy_model(k, 4)
    curve = ablation_sweep(model, data, windows=(1, 2, 4, 8, 16))
    assert _rank_correlation(curve.windows, curve.mean) >= 0.0


def test_ablation_rejects_empty_inputs():
    model = build_shift_copy_model(1, 2)
    with pytest.raises(SpecError):
        ablation_sweep(model, [], windows=(1, 2))
    data = gen_copyk(CopyTaskSpec(k=1, T=4, V=2), 3, Rng(9))
    # Truncating 2.5 and 1.9 would run windows 1 and 2 instead.
    for windows in ((), (0, 2), (2.5, 1.9), (2, np.float64(3.0))):
        with pytest.raises(SpecError):
            ablation_sweep(model, data, windows=windows)


def test_deployment_check_on_the_exact_delay_line():
    k, T = 3, 16
    data = gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 60, Rng(10))
    model = build_shift_copy_model(k, 4)
    rollouts = [s.x for s in gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 4, Rng(11))]
    report = analyze(model, rollouts, TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T))
    assert report.rho_hat == pytest.approx(3.0, abs=1e-12)
    check = deployment_check(model, data, report)
    assert check.window == 4
    assert check.half_window == 2
    assert check.retention_window == pytest.approx(1.0, abs=1e-12)
    # With the read slot empty the prediction is the zero-logit argmax.
    assert check.retention_half < 0.4


def test_deployment_check_with_window_past_t_keeps_everything():
    k, T = 1, 6
    data = gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 20, Rng(12))
    model = build_shift_copy_model(k, 4)
    rollouts = [s.x for s in gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 2, Rng(13))]
    report = analyze(model, rollouts, TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T))
    big = dataclasses.replace(report, rho_hat=float(T + 3))
    check = deployment_check(model, data, big)
    assert check.retention_window == 1.0


def test_deployment_check_with_equal_windows_reports_both():
    # rho_hat = 0 gives window = half_window = 1.
    model = build_shift_copy_model(0, 4)
    data = gen_copyk(CopyTaskSpec(k=1, T=8, V=4), 20, Rng(16))
    rollouts = [s.x for s in data[:2]]
    report = analyze(model, rollouts, TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=8))
    assert report.rho_hat == 0.0
    check = deployment_check(model, data, report)
    assert check.window == check.half_window == 1
    assert check.retention_window == 1.0
    assert check.retention_half == 1.0


def test_sweep_with_deployment_reads_a_generator_of_windows_once():
    k, T = 3, 16
    data = gen_copyk(CopyTaskSpec(k=k, T=T, V=4), 20, Rng(10))
    model = build_shift_copy_model(k, 4)
    report = analyze(model, [s.x for s in data[:2]],
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T))
    listed = sweep_with_deployment(model, data, (1, 2, 8), report)
    generated = sweep_with_deployment(model, data, (m for m in (1, 2, 8)), report)
    assert generated[0].windows == [1, 2, 8]
    assert generated == listed


def test_deployment_check_rejects_degenerate_reports():
    model = build_shift_copy_model(0, 2)
    data = gen_copyk(CopyTaskSpec(k=1, T=6, V=2), 4, Rng(14))
    rollouts = [s.x for s in data[:2]]
    report = analyze(model, rollouts, TRConfig(T=6))
    assert report.degenerate
    with pytest.raises(SpecError):
        deployment_check(model, data, report)
