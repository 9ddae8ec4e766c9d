import json
import re
from pathlib import Path

import numpy as np
import pytest

from temporal_range.errors import ConfigError, FormatError, SpecError, VersionError
from temporal_range.gradients import JacobianBlocks, JacobianMode
from temporal_range.linalg import NormKind, Rng, mat_norm
from temporal_range.metric import (Aggregation, TRConfig, analyze, influence_weights,
                                   profile_csv, range_values, report_from_json,
                                   report_json, temporal_range)
from temporal_range.models import CellKind, CellSpec, build_shift_copy_model, init_model
from temporal_range.oracles import RecurrenceSpec, recurrence_as_model

from rescaling import input_scaled, output_scaled, residuals


def _scalar_blocks(entries, T):
    blocks = {}
    for s in range(1, T + 1):
        for t in range(1, s):
            blocks[(s, t)] = np.array([[float(entries.get((s, t), 0.0))]])
    return JacobianBlocks(T=T, mode=JacobianMode.MULTI_OUTPUT, blocks=blocks)


def test_mean_weights_hand_example():
    blocks = _scalar_blocks({(2, 1): 1.0, (3, 1): 3.0, (3, 2): 2.0}, T=3)
    cfg = TRConfig(T=3)
    profile = influence_weights(blocks, cfg)
    assert profile == pytest.approx([2.0, 2.0, 0.0], abs=1e-15)


def test_max_weights_hand_example():
    blocks = _scalar_blocks({(2, 1): 1.0, (3, 1): 3.0, (3, 2): 2.0}, T=3)
    cfg = TRConfig(aggregation=Aggregation.MAX, T=3)
    profile = influence_weights(blocks, cfg)
    assert profile == pytest.approx([3.0, 2.0, 0.0], abs=1e-15)


def test_final_position_weight_is_zero_in_multi_mode():
    rng = Rng(0)
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=3),
                       2, rng)
    from temporal_range.gradients import input_jacobians
    x = np.asarray(Rng(1).gaussian(size=(6, 2)))
    profile = influence_weights(input_jacobians(model, x, JacobianMode.MULTI_OUTPUT),
                                TRConfig(T=6))
    assert profile[-1] == 0.0


def test_temporal_range_hand_example():
    values = temporal_range(np.array([2.0, 2.0, 0.0]))
    assert values.rho == pytest.approx(6.0, abs=1e-15)
    assert values.rho_hat == pytest.approx(1.5, abs=1e-15)


def test_single_weight_at_lag_k_normalizes_to_k():
    T = 10
    for k in (0, 3, 9):
        w = np.zeros(T)
        w[T - 1 - k] = 0.37
        assert temporal_range(w).rho_hat == pytest.approx(float(k), abs=1e-12)


def test_all_zero_weights_are_degenerate_not_an_error():
    values = temporal_range(np.zeros(5))
    assert values.rho == 0.0
    assert values.rho_hat is None
    assert values.degenerate


def test_normalized_range_is_bounded_and_scale_invariant():
    rng = Rng(2)
    for _ in range(100):
        T = int(rng.integers(2, 20))
        w = np.abs(np.asarray(rng.gaussian(size=T))) + 1e-12
        rv = temporal_range(w)
        assert 0.0 <= rv.rho_hat <= T - 1
        lam = float(rng.uniform(low=0.1, high=10.0))
        assert temporal_range(lam * w).rho_hat == pytest.approx(rv.rho_hat, abs=1e-9)


@pytest.mark.parametrize("norm", [NormKind.FROBENIUS, NormKind.SPECTRAL])
def test_shift_copy_final_weights_are_an_indicator(norm):
    from temporal_range.gradients import input_jacobians
    rng = Rng(3)
    k, d, T = 4, 2, 12
    U = np.asarray(rng.gaussian(size=(3, d)))
    model = build_shift_copy_model(k, d, U)
    x = np.asarray(rng.gaussian(size=(T, d)))
    cfg = TRConfig(norm=norm, mode=JacobianMode.FINAL_OUTPUT, T=T)
    profile = influence_weights(input_jacobians(model, x, cfg.mode), cfg)
    expected = np.zeros(T)
    expected[T - 1 - k] = mat_norm(U, norm)
    assert profile == pytest.approx(expected, abs=1e-10)


def test_mode_mismatch_raises_config_error():
    blocks = _scalar_blocks({(2, 1): 1.0}, T=3)
    with pytest.raises(ConfigError):
        influence_weights(blocks, TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=3))
    with pytest.raises(ConfigError):
        influence_weights(blocks, TRConfig(T=4))


def test_analyze_exact_copy_model_recovers_offset_with_zero_spread():
    rng = Rng(4)
    k, d, T = 5, 2, 16
    model = build_shift_copy_model(k, d)
    rollouts = [np.asarray(rng.gaussian(size=(T, d))) for _ in range(4)]
    report = analyze(model, rollouts,
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T))
    assert report.rho_hat == pytest.approx(float(k), abs=1e-12)
    assert report.rho_hat_std == pytest.approx(0.0, abs=1e-12)
    assert report.pooled_rho_hat == pytest.approx(float(k), abs=1e-12)


def test_analyze_linear_model_gives_identical_values_across_rollouts():
    rng = Rng(5)
    model = init_model(CellSpec(kind=CellKind.LINEAR_REC, input_dim=2,
                                hidden_dim=3), 2, rng)
    rollouts = [np.asarray(rng.gaussian(size=(8, 2))) for _ in range(5)]
    report = analyze(model, rollouts, TRConfig(T=8))
    first = report.per_rollout_rho_hat[0]
    assert all(v == first for v in report.per_rollout_rho_hat)
    assert report.pooled_rho_hat == pytest.approx(first, abs=1e-12)


def test_analyze_memoryless_model_degenerate_on_every_rollout():
    rng = Rng(6)
    model = build_shift_copy_model(0, 3)
    rollouts = [np.asarray(rng.gaussian(size=(6, 3))) for _ in range(3)]
    report = analyze(model, rollouts, TRConfig(T=6))
    assert report.degenerate
    assert report.rho_hat is None
    assert all(v is None for v in report.per_rollout_rho_hat)
    assert np.max(np.abs(report.weights_mean)) == 0.0


def test_analyze_requires_rollouts_and_matching_length():
    model = build_shift_copy_model(1, 2)
    with pytest.raises(SpecError):
        analyze(model, [], TRConfig(T=4))
    with pytest.raises(SpecError):
        analyze(model, [np.zeros((5, 2))], TRConfig(T=4))


def test_output_scaling_identity_has_zero_residuals():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=4),
                       2, Rng(7), encoder_dim=3)
    x = np.asarray(Rng(8).gaussian(size=(6, 2)))
    assert residuals(model, x, output_scaled(model, 1.0), x, 1.0, TRConfig(T=6)) == (0.0, 0.0)


def test_output_scaling_general_factor():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=4),
                       2, Rng(9), encoder_dim=3)
    x = np.asarray(Rng(10).gaussian(size=(6, 2)))
    resid_rho_hat, resid_rho_ratio = residuals(model, x, output_scaled(model, 3.7), x, 3.7,
                                               TRConfig(T=6))
    assert resid_rho_hat < 1e-9
    assert resid_rho_ratio < 1e-9


def test_output_scaling_negative_factor_uses_magnitude():
    model = init_model(CellSpec(kind=CellKind.LSTM, input_dim=2, hidden_dim=3),
                       2, Rng(11))
    x = np.asarray(Rng(12).gaussian(size=(5, 2)))
    resid_rho_hat, resid_rho_ratio = residuals(model, x, output_scaled(model, -2.0), x, 2.0,
                                               TRConfig(T=5))
    assert resid_rho_ratio < 1e-9
    assert resid_rho_hat < 1e-9


def test_input_scaling_identity_and_general_factor():
    model = init_model(CellSpec(kind=CellKind.LINEAR_REC, input_dim=2,
                                hidden_dim=3), 2, Rng(13))
    x = np.asarray(Rng(14).gaussian(size=(6, 2)))
    assert residuals(model, x, input_scaled(model, 1.0), x, 1.0, TRConfig(T=6))[0] == 0.0
    resid_rho_hat, resid_rho_ratio = residuals(model, x, input_scaled(model, 0.25), 0.25 * x,
                                               4.0, TRConfig(T=6))
    assert resid_rho_hat < 1e-9
    assert resid_rho_ratio < 1e-9


def test_input_scaling_on_shift_copy_keeps_offset():
    rng = Rng(15)
    model = build_shift_copy_model(3, 2)
    x = np.asarray(rng.gaussian(size=(8, 2)))
    cfg = TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=8)
    scaled = input_scaled(model, 8.0)
    assert analyze(scaled, [8.0 * x], cfg).rho_hat == pytest.approx(3.0, abs=1e-9)
    assert residuals(model, x, scaled, 8.0 * x, 1.0 / 8.0, cfg)[0] < 1e-9


def test_report_json_round_trip():
    rng = Rng(16)
    model = build_shift_copy_model(2, 2)
    rollouts = [np.asarray(rng.gaussian(size=(6, 2))) for _ in range(3)]
    report = analyze(model, rollouts,
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=6))
    text = report_json(report)
    loaded = report_from_json(text)
    assert loaded.rho_hat == report.rho_hat
    assert loaded.config == report.config
    assert np.array_equal(loaded.weights_mean, report.weights_mean)
    assert report_json(loaded) == text


# Range reports that `analyze --task copy --k 2 --T 8 --V 3 --seed 0` wrote
# before a loaded report was rebuilt from its per-rollout values and
# weights, with their rollout and degenerate-rollout counts: an LSTM
# (init_model, input 3, hidden 4, output 3, Rng(0)) in multi/mean/frobenius
# and final/max/spectral, `build_shift_copy_model(0, 3)` in multi mode, and
# a GRU (init_model, same sizes, Rng(1)) over one rollout in multi/max.
GOLDEN_REPORTS = {
    "lstm_multi_mean_frobenius.report.json": (4, 0),
    "lstm_final_max_spectral.report.json": (4, 0),
    "memoryless_multi.report.json": (3, 3),
    "gru_one_rollout_multi_max.report.json": (1, 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_report_loads_and_writes_back_byte_identical(name):
    text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    report = report_from_json(text)
    assert (report.n_rollouts, report.n_degenerate) == GOLDEN_REPORTS[name]
    assert report.degenerate == (report.n_degenerate == report.n_rollouts)
    assert report_json(report) == text


def _report_doc():
    rng = Rng(16)
    report = analyze(build_shift_copy_model(2, 2), [np.asarray(rng.gaussian(size=(6, 2)))],
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=6))
    return json.loads(report_json(report))


def test_report_schema_mismatch_is_a_version_error():
    doc = _report_doc()
    doc["schema"] = 99
    with pytest.raises(VersionError, match="99"):
        report_from_json(json.dumps(doc))


def test_malformed_report_is_a_format_error():
    doc = _report_doc()
    del doc["rho"]
    bad_t = _report_doc()
    bad_t["config"]["T"] = 1
    for text in ("{not json", "[]", json.dumps(doc), json.dumps(bad_t)):
        with pytest.raises(FormatError) as exc:
            report_from_json(text)
        assert not isinstance(exc.value, VersionError)


@pytest.mark.parametrize("key, value, message", [
    ("rho_hat", "Infinity", "non-finite number Infinity"),
    ("rho", "NaN", "non-finite number NaN"),
    ("rho_hat_std", "-Infinity", "non-finite number -Infinity"),
    ("rho", "1e999", "non-finite number 1e999"),
    ("rho_hat", "-5", r"rho_hat is -5, but analyze writes 2\.0 for these values"),
    ("rho_hat", "1e300", r"rho_hat is 1e\+300, but analyze writes 2\.0"),
    ("rho_hat", "5.000000000000001", r"rho_hat is 5\.000000000000001, but analyze writes 2\.0"),
    ("pooled_rho_hat", "-0.5", r"pooled_rho_hat is -0\.5, but analyze writes 2\.0"),
    ("per_rollout_rho_hat", "[2.0, 7.5]", "per-rollout rho_hat 7.5 is outside"),
    ("weights_std_by_position", "[0.0, 0.0, -0.5, 0.0, 0.0, 0.0]",
     r"weights must be >= 0, got -0\.5"),
])
def test_report_with_a_non_finite_or_out_of_range_value_is_a_format_error(key, value,
                                                                          message):
    doc = _report_doc()
    doc["n_rollouts"] = 2
    doc["per_rollout_rho"] = [doc["rho"]] * 2
    doc["per_rollout_rho_hat"] = [doc["rho_hat"]] * 2
    text = json.dumps(doc)
    report_from_json(text)
    bad = text.replace(f'"{key}": {json.dumps(doc[key])}', f'"{key}": {value}')
    assert bad != text
    with pytest.raises(FormatError, match=message):
        report_from_json(bad)


@pytest.mark.parametrize("key, value, message", [
    ("T", 6.9, "T must be an integer in [2, inf], got 6.9"),
    # Used to say "list indices must be integers or slices, not str".
    ("config", [], "config must be a JSON object, got []"),
    ("n_rollouts", 2.5, "n_rollouts must be an integer in [1, inf], got 2.5"),
    ("n_rollouts", 0, "n_rollouts must be an integer in [1, inf], got 0"),
    ("n_rollouts", 7, "per_rollout_rho must be a list of 7 numbers, got 1 entries"),
    ("degenerate", "no", 'degenerate is "no", but analyze writes false for these values'),
    ("degenerate", 0, "degenerate is 0, but analyze writes false for these values"),
    ("rho_hat", True, "rho_hat is true, but analyze writes 2.0 for these values"),
    ("rho", "1.5", 'rho is "1.5", but analyze writes 2.8284271247461903 for these values'),
    ("pooled_rho_hat", [2.0], "pooled_rho_hat is [2.0], but analyze writes 2.0 for these values"),
    ("per_rollout_rho", [None], "per_rollout_rho[0] must be a number, got null"),
    ("per_rollout_rho_hat", "2", 'per_rollout_rho_hat must be a list of 1 numbers, got "2"'),
    ("weights_mean_by_position", [[0.5]] * 6,
     "weights_mean_by_position[0] must be a number, got [0.5]"),
    ("weights_std_by_position", [0.0] * 5,
     "weights_std_by_position must be a list of 6 numbers, got 5 entries"),
    ("n_degenerate_rollouts", -3, "n_degenerate_rollouts is -3, but analyze writes 0 for these "
                                  "values"),
    ("n_degenerate_rollouts", 2, "n_degenerate_rollouts is 2, but analyze writes 0 for these "
                                 "values"),
])
def test_report_value_of_the_wrong_json_type_or_length_is_a_format_error(key, value, message):
    # Each loaded, coerced: T 6.9 as 6, "degenerate": "no" as True,
    # "rho_hat": true as 1.0, "rho": "1.5" as 1.5, a 2-D weight list as is.
    doc = _report_doc()
    (doc["config"] if key == "T" else doc)[key] = value
    with pytest.raises(FormatError, match=f"^malformed range report: {re.escape(message)}$"):
        report_from_json(json.dumps(doc))


def test_rho_hat_with_all_weight_at_the_oldest_lag_stays_within_T_minus_1():
    # fl(fl(31 w) / w) rounds past 31 for about one w in eight.
    ws = np.asarray(Rng(31).uniform(size=64, low=0.5, high=1.0))
    past = ws * 31.0 / ws > 31.0
    assert past.any()
    W = np.zeros((64, 32))
    W[:, 0] = ws
    rho_hat = range_values(W)[1]
    assert np.all(rho_hat <= 31.0) and np.all(rho_hat[past] == 31.0)


def test_range_values_match_temporal_range_row_by_row():
    W = np.abs(np.asarray(Rng(30).gaussian(size=(3, 5, 9))))
    W[0, 2] = 0.0
    W[2, 4] = 0.0
    rho, rho_hat = range_values(W)
    assert rho.shape == rho_hat.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        rv = temporal_range(W[idx])
        # A matrix-vector product may sum in another order than a dot product.
        assert rho[idx] == pytest.approx(rv.rho, rel=1e-14, abs=0.0)
        if rv.rho_hat is None:
            assert np.isnan(rho_hat[idx])
        else:
            assert rho_hat[idx] == pytest.approx(rv.rho_hat, rel=1e-14)
    assert np.isnan(rho_hat[0, 2]) and np.isnan(rho_hat[2, 4])
    assert np.sum(np.isnan(rho_hat)) == 2


def test_profile_csv_orders_rows_by_lag():
    rng = Rng(17)
    model = build_shift_copy_model(1, 2)
    report = analyze(model, [np.asarray(rng.gaussian(size=(4, 2)))],
                     TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=4))
    lines = profile_csv(report).strip().splitlines()
    assert lines[0] == "lag,weight,weight_std_across_rollouts"
    lags = [int(line.split(",")[0]) for line in lines[1:]]
    assert lags == [0, 1, 2, 3]


def test_config_fingerprints_distinguish_configs():
    a = TRConfig(aggregation=Aggregation.MEAN)
    b = TRConfig(aggregation=Aggregation.MAX)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == TRConfig().fingerprint()


def test_recurrence_model_rollouts_pool_to_the_same_value():
    spec = RecurrenceSpec(A=np.eye(2) * 0.6, C=np.eye(2), Q=np.ones((1, 2)), T=6)
    model = recurrence_as_model(spec)
    rng = Rng(18)
    rollouts = [np.asarray(rng.gaussian(size=(6, 2))) for _ in range(4)]
    report = analyze(model, rollouts, TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=6))
    assert report.rho_hat == pytest.approx(report.pooled_rho_hat, abs=1e-12)


def _reference_weights(model, x, cfg):
    """One rollout's weights from its input_jacobians blocks, norm by norm."""
    from temporal_range.gradients import input_jacobians
    blocks = input_jacobians(model, x, cfg.mode)
    order = 2 if cfg.norm is NormKind.SPECTRAL else "fro"
    T = cfg.T
    w = np.zeros(T)
    for t in range(1, T + 1):
        norms = [np.linalg.norm(J, order) for (s, tt), J in blocks.blocks.items()
                 if tt == t]
        if not norms:
            continue
        if cfg.mode is JacobianMode.FINAL_OUTPUT or cfg.aggregation is Aggregation.MEAN:
            w[t - 1] = sum(norms) / len(norms)
        else:
            w[t - 1] = max(norms)
    return w


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 3])
@pytest.mark.parametrize("mode", list(JacobianMode))
@pytest.mark.parametrize("norm", list(NormKind))
@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_batched_analyze_matches_per_rollout_reference(kind, encoder_dim, mode, norm,
                                                       aggregation):
    T = 7
    model = init_model(CellSpec(kind=kind, input_dim=2, hidden_dim=4), 3,
                       Rng(19 + list(CellKind).index(kind)), encoder_dim=encoder_dim)
    rollouts = [np.asarray(x) for x in Rng(20).gaussian(size=(4, T, 2))]
    cfg = TRConfig(norm=norm, aggregation=aggregation, mode=mode, T=T)
    report = analyze(model, rollouts, cfg)
    for r, x in enumerate(rollouts):
        want = temporal_range(_reference_weights(model, x, cfg))
        assert abs(report.per_rollout_rho[r] - want.rho) <= 1e-12 * abs(want.rho)
        assert abs(report.per_rollout_rho_hat[r] - want.rho_hat) <= 1e-12 * abs(want.rho_hat)


@pytest.mark.parametrize("mode", list(JacobianMode))
def test_analyze_reports_the_step_of_a_non_finite_jacobian(mode):
    from temporal_range.errors import NumericalError
    from temporal_range.models import SequenceModel
    p = 2
    params = {"A": np.eye(p) * 1e200, "C": np.eye(p),
              "dec_W": np.ones((1, p)), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=CellSpec(kind=CellKind.LINEAR_REC, input_dim=p,
                                        hidden_dim=p),
                          output_dim=1, encoder_dim=None, params=params)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="step"):
        analyze(model, [np.ones((4, p))] * 2, TRConfig(mode=mode, T=4))


def test_analyze_checks_every_rollout_length_before_any_jacobian_work(monkeypatch):
    from temporal_range.models import SequenceModel

    def no_forward(*args, **kwargs):
        raise AssertionError("forward pass ran before the rollouts were checked")

    monkeypatch.setattr(SequenceModel, "forward_batch", no_forward)
    model = build_shift_copy_model(1, 2)
    with pytest.raises(SpecError, match=r"\(5, 2\)"):
        analyze(model, [np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((5, 2))],
                TRConfig(T=4))
