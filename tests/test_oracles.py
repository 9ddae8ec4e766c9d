import json

import numpy as np
import pytest

from temporal_range import oracles
from temporal_range.errors import SpecError
from temporal_range.gradients import JacobianMode, input_jacobians
from temporal_range.linalg import NormKind, Rng, mat_norm
from temporal_range.metric import (TRConfig, influence_weights, range_values,
                                   temporal_range)
from temporal_range.models import build_shift_copy_model
from temporal_range.oracles import (LinearTemporalMap, RecurrenceSpec, _trial_maps,
                                    axiom_suite, copyk_mae, copyk_oracle,
                                    linear_map_as_model, linear_map_range,
                                    pipeline_cross_checks,
                                    recurrence_as_model, recurrence_profile)


def test_single_block_map_calibrates_magnitude_and_lag():
    rng = Rng(0)
    T, c, d = 9, 2, 3
    for k in (0, 2, 8):
        blocks = np.zeros((T, c, d))
        B = np.asarray(rng.gaussian(size=(c, d)))
        blocks[T - 1 - k] = B
        rv = linear_map_range(LinearTemporalMap(blocks))
        assert rv.rho == pytest.approx(mat_norm(B) * k, abs=1e-12)
        assert rv.rho_hat == pytest.approx(float(k), abs=1e-12)


def test_two_unit_blocks_average_their_lags():
    T = 6
    blocks = np.zeros((T, 1, 1))
    blocks[T - 1 - 1] = 1.0
    blocks[T - 1 - 3] = 1.0
    rv = linear_map_range(LinearTemporalMap(blocks))
    assert rv.rho_hat == pytest.approx(2.0, abs=1e-14)


def test_scaling_a_map_scales_rho_only():
    rng = Rng(1)
    L = LinearTemporalMap(np.asarray(rng.gaussian(size=(5, 2, 2))))
    base = linear_map_range(L)
    doubled = linear_map_range(LinearTemporalMap(2.0 * L.blocks))
    assert doubled.rho == pytest.approx(2.0 * base.rho, rel=1e-12)
    assert doubled.rho_hat == pytest.approx(base.rho_hat, rel=1e-12)


def test_zero_map_is_degenerate():
    rv = linear_map_range(LinearTemporalMap(np.zeros((4, 1, 1))))
    assert rv.rho == 0.0
    assert rv.rho_hat is None


def test_recurrence_profile_scalar_geometric_closed_form():
    spec = RecurrenceSpec(A=[[0.5]], C=[[1.0]], Q=[[1.0]], T=4)
    profile = recurrence_profile(spec)
    assert profile.weights == pytest.approx([0.125, 0.25, 0.5, 1.0], abs=1e-15)
    rv = temporal_range(profile)
    # Independent evaluation of the weighted lag average.
    weights = [0.5 ** lag for lag in (3, 2, 1, 0)]
    expected = sum(w * lag for w, lag in zip(weights, (3, 2, 1, 0))) / sum(weights)
    assert rv.rho_hat == pytest.approx(expected, abs=1e-12)
    assert rv.rho_hat == pytest.approx(1.375 / 1.875, abs=1e-12)


def test_recurrence_profile_zero_transition_is_lag_zero_only():
    spec = RecurrenceSpec(A=np.zeros((2, 2)), C=np.eye(2), Q=np.ones((1, 2)), T=5)
    profile = recurrence_profile(spec)
    assert np.max(np.abs(profile.weights[:-1])) == 0.0
    assert profile.weights[-1] == pytest.approx(mat_norm(np.ones((1, 2))), abs=1e-12)
    assert temporal_range(profile).rho_hat == pytest.approx(0.0, abs=1e-12)


def test_recurrence_profile_identity_transition_is_uniform():
    T = 7
    spec = RecurrenceSpec(A=np.eye(3), C=np.eye(3), Q=np.ones((2, 3)), T=T)
    profile = recurrence_profile(spec)
    assert np.allclose(profile.weights, profile.weights[0])
    assert temporal_range(profile).rho_hat == pytest.approx((T - 1) / 2, abs=1e-12)


def test_copyk_oracle_values_and_bounds():
    assert copyk_oracle(10, 32) == 10.0
    assert copyk_oracle(0, 4) == 0.0
    with pytest.raises(SpecError):
        copyk_oracle(32, 32)
    with pytest.raises(SpecError):
        copyk_oracle(-1, 32)


def test_copyk_mae_of_exact_model_is_zero():
    rng = Rng(2)
    k, T = 4, 12
    model = build_shift_copy_model(k, 2)
    cfg = TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T)
    rho_hats = []
    for _ in range(3):
        x = np.asarray(rng.gaussian(size=(T, 2)))
        rv = temporal_range(influence_weights(input_jacobians(model, x, cfg.mode), cfg))
        rho_hats.append(rv.rho_hat)
    assert copyk_mae(rho_hats, k) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("norm", [NormKind.FROBENIUS, NormKind.SPECTRAL])
def test_axiom_suite_residuals_vanish(norm):
    report = axiom_suite(Rng(3), trials=100, norm=norm)
    assert report.max_residual() < 1e-9
    assert all(type(v) is float for v in report.residuals.values())
    assert report.passed()
    assert set(report.residuals) == {
        "single_step_magnitude", "single_step_normalized",
        "additivity_disjoint", "absolute_homogeneity",
        "weighted_average_disjoint", "decomposition_rho",
        "decomposition_rho_hat"}


def test_trial_maps_follow_the_per_block_draw_order():
    rng_batched, rng = Rng(6), Rng(6)
    for trial in range(8):
        maps, t_single, alpha, a, b = _trial_maps(rng_batched, trial % 7 == 0)
        # The same trial drawn one block at a time.
        T, c, d = (int(rng.integers(4, 17)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 4)))
        want = np.zeros((6 + T, T, c, d))
        assert t_single == int(rng.integers(0, T))
        want[0, t_single] = rng.gaussian(size=(c, d))
        perm = rng.permutation(T)
        cut = int(rng.integers(1, T))
        for t in perm[:cut]:
            want[1, t] = rng.gaussian(size=(c, d))
        for t in perm[cut:]:
            want[2, t] = rng.gaussian(size=(c, d))
        want[3] = want[1] + want[2]
        assert alpha == float(rng.uniform(low=-3.0, high=3.0))
        want[4] = alpha * want[1]
        assert a == (0.0 if trial % 7 == 0 else float(rng.uniform(low=-2.0, high=2.0)))
        assert b == float(rng.uniform(low=0.5, high=2.0))
        for t in range(T):
            want[5, t] = rng.gaussian(size=(c, d))
            want[6 + t, t] = want[5, t]
        assert np.array_equal(maps, want)


def test_axiom_suite_fails_when_the_range_drops_the_oldest_lag(monkeypatch):
    def drop_oldest(weights):
        w = np.array(weights, dtype=np.float64)
        w[..., 0] = 0.0
        return range_values(w)

    assert axiom_suite(Rng(3), trials=20).passed()
    monkeypatch.setattr(oracles, "range_values", drop_oldest)
    assert not axiom_suite(Rng(3), trials=20).passed()


def test_axiom_report_json_is_deterministic():
    a = axiom_suite(Rng(4), trials=10).to_json()
    b = axiom_suite(Rng(4), trials=10).to_json()
    assert a == b


def test_axiom_report_tells_a_child_stream_from_its_root():
    child = axiom_suite(Rng(5).split(1)[0], trials=1)
    root = axiom_suite(Rng(5), trials=1)
    assert (child.seed, child.spawn_key) != (root.seed, root.spawn_key)
    # A root stream's JSON keeps its old fields, so CLI reports do not change.
    assert json.loads(child.to_json())["spawn_key"] == [0]
    assert "spawn_key" not in json.loads(root.to_json())


def test_zero_coefficient_average_reduces_to_the_other_map():
    # a = 0 edge of the weighted average, independent of mass normalization.
    rng = Rng(5)
    blocks = np.zeros((6, 2, 2))
    blocks[1] = np.asarray(rng.gaussian(size=(2, 2)))
    L2 = LinearTemporalMap(blocks)
    combo = LinearTemporalMap(0.0 * np.asarray(rng.gaussian(size=(6, 2, 2))) + 1.7 * L2.blocks)
    assert linear_map_range(combo).rho_hat == pytest.approx(
        linear_map_range(L2).rho_hat, abs=1e-12)


def test_wrapped_recurrence_matches_autodiff_weights():
    rng = Rng(6)
    for _ in range(5):
        p, d, c = 3, 2, 2
        A = np.asarray(rng.gaussian(size=(p, p))) * 0.4
        spec = RecurrenceSpec(A=A, C=np.asarray(rng.gaussian(size=(p, d))),
                              Q=np.asarray(rng.gaussian(size=(c, p))), T=10)
        closed = recurrence_profile(spec)
        cfg = TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=10)
        model = recurrence_as_model(spec)
        x = np.asarray(rng.gaussian(size=(10, d)))
        measured = influence_weights(input_jacobians(model, x, cfg.mode), cfg)
        assert np.max(np.abs(measured.weights - closed.weights)) < 1e-9


def test_linear_map_model_encoding_matches_closed_form():
    rng = Rng(7)
    T, c, d = 6, 2, 2
    L = LinearTemporalMap(np.asarray(rng.gaussian(size=(T, c, d))))
    model = linear_map_as_model(L)
    x = np.asarray(rng.gaussian(size=(T, d)))
    # The final output must equal the map itself.
    expected = sum(L.blocks[t] @ x[t] for t in range(T))
    assert np.max(np.abs(model.forward(x).outputs[-1] - expected)) < 1e-12
    cfg = TRConfig(mode=JacobianMode.FINAL_OUTPUT, T=T)
    rv = temporal_range(influence_weights(input_jacobians(model, x, cfg.mode), cfg))
    closed = linear_map_range(L)
    assert rv.rho == pytest.approx(closed.rho, abs=1e-10)
    assert rv.rho_hat == pytest.approx(closed.rho_hat, abs=1e-10)


def test_pipeline_cross_checks_pass_and_fault_injection_fails():
    residuals = pipeline_cross_checks(Rng(8), trials=5)
    assert max(residuals.values()) < 1e-9
    faulty = pipeline_cross_checks(Rng(8), trials=5, inject_fault=True)
    assert max(faulty.values()) > 1e-9
