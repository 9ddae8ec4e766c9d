import tracemalloc

import numpy as np
import pytest

from temporal_range.errors import DivergenceError, NumericalError, SpecError
from temporal_range.gradients import LossKind, param_gradients, sequence_loss
from temporal_range.linalg import Rng
from temporal_range.models import (CellKind, CellSpec, SequenceModel,
                                   build_shift_copy_model, init_model)
from temporal_range.tasks import CopyTaskSpec, LabeledSequence, gen_copyk
from temporal_range.training import (AdamState, Metric, OptConfig,
                                     _batch_loss_and_grads, adam_step,
                                     clip_by_global_norm, evaluate,
                                     global_norm, stack_sequences, train)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
    grads = {"w": np.zeros(2), "b": np.zeros(1)}
    new, state = adam_step(params, grads, AdamState.init(params), OptConfig())
    assert np.array_equal(new["w"], params["w"])
    assert np.array_equal(new["b"], params["b"])
    assert state.step == 1


def test_adam_descends_a_quadratic():
    cfg = OptConfig(lr=0.01)
    params = {"w": np.array([5.0])}
    state = AdamState.init(params)
    losses = []
    for _ in range(100):
        losses.append(float(params["w"][0] ** 2))
        grads = {"w": 2.0 * params["w"]}
        params, state = adam_step(params, grads, state, cfg)
    # Strict decrease after the bias-correction warmup.
    assert all(b < a for a, b in zip(losses[5:], losses[6:]))
    assert losses[-1] < losses[0]


def test_adam_rejects_non_finite_gradients():
    params = {"w": np.array([1.0])}
    with pytest.raises(NumericalError):
        adam_step(params, {"w": np.array([np.nan])}, AdamState.init(params),
                  OptConfig())


def test_flat_adam_equals_a_per_array_reference_bit_for_bit():
    cfg = OptConfig(lr=0.01)
    rng = Rng(16)
    shapes = {"a": (3,), "b": (2, 4), "c": (1,)}
    params = {k: np.asarray(rng.gaussian(size=s)) for k, s in shapes.items()}
    want = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = AdamState.init(params)
    for t in range(1, 6):
        grads = {k: np.asarray(rng.gaussian(size=s)) for k, s in shapes.items()}
        params, state = adam_step(params, grads, state, cfg)
        bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
        for k, g in grads.items():
            m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
            want[k] = want[k] - cfg.lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + cfg.eps)
        for k, shape in shapes.items():
            assert params[k].shape == shape
            assert params[k].tobytes() == want[k].tobytes(), (t, k)
    assert state.step == 5
    grads["b"][1, 2] = np.nan
    with pytest.raises(NumericalError, match="parameter 'b'"):
        adam_step(params, grads, state, cfg)


def test_clip_rescales_to_the_threshold():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_norm(grads) == pytest.approx(5.0, abs=1e-12)
    clipped = clip_by_global_norm(grads, 0.5)
    assert global_norm(clipped) == pytest.approx(0.5, abs=1e-12)
    assert global_norm(clipped) <= 0.5 + 1e-12
    direction = clipped["a"][0] / clipped["b"][0]
    assert direction == pytest.approx(3.0 / 4.0, rel=1e-12)


def test_clip_leaves_small_gradients_alone():
    grads = {"a": np.array([0.1])}
    assert clip_by_global_norm(grads, 0.5) is grads


def _tiny_copy_data(k=1, T=8, n=24, seed=0):
    return gen_copyk(CopyTaskSpec(k=k, T=T, V=4), n, Rng(seed))


def test_train_is_deterministic_given_seed():
    data = _tiny_copy_data()
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=8),
                       4, Rng(1))
    cfg = OptConfig(lr=1e-3, batch_size=8, steps=30, seed=5)
    a, log_a = train(model, data, cfg)
    b, log_b = train(model, data, cfg)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert log_a.losses == log_b.losses


def test_train_memorizes_a_single_sequence():
    data = _tiny_copy_data(n=1)
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=12),
                       4, Rng(2))
    cfg = OptConfig(lr=3e-3, batch_size=1, steps=250, seed=0, val_fraction=0.0)
    trained, log = train(model, data, cfg)
    assert log.final_train_metric == 1.0


def test_train_reaches_high_accuracy_on_copy1():
    data = _tiny_copy_data(k=1, T=16, n=300, seed=3)
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=16),
                       4, Rng(3))
    cfg = OptConfig(lr=3e-3, batch_size=32, steps=250, seed=3)
    trained, log = train(model, data, cfg)
    assert log.final_val_metric >= 0.9
    assert all(np.isfinite(v) for v in log.losses)


def test_train_raises_on_divergence():
    data = _tiny_copy_data(n=16)
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=8),
                       4, Rng(4))
    cfg = OptConfig(lr=3e3, batch_size=8, steps=400, seed=0)
    with pytest.raises(DivergenceError):
        train(model, data, cfg)


def test_train_requires_data():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=8),
                       4, Rng(5))
    with pytest.raises(SpecError):
        train(model, [], OptConfig())


def test_evaluate_perfect_predictor_scores_one():
    # The exact delay line emits the target symbol's one-hot readout, so
    # argmax equals the target on every masked step.
    k, T = 2, 10
    data = _tiny_copy_data(k=k, T=T, n=10, seed=6)
    model = build_shift_copy_model(k, 4)
    assert evaluate(model, data, Metric.ACCURACY) == 1.0


def test_evaluate_constant_predictor_scores_near_chance():
    data = _tiny_copy_data(k=1, T=32, n=100, seed=7)
    model = build_shift_copy_model(0, 4)
    for name in model.params:
        model.params[name][:] = 0.0
    acc = evaluate(model, data, Metric.ACCURACY)  # argmax of zeros is class 0
    n = sum(int(s.mask.sum()) for s in data)
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(acc - 0.25) <= 3 * sigma


def test_evaluate_mse_metric():
    model = build_shift_copy_model(0, 2)
    x = np.asarray(Rng(8).gaussian(size=(5, 2)))
    seq = LabeledSequence(x=x, targets=x.copy(), mask=np.ones(5, dtype=bool))
    assert evaluate(model, [seq], Metric.MSE) == pytest.approx(0.0, abs=1e-18)


def test_evaluate_rejects_empty_mask():
    seq = LabeledSequence(x=np.zeros((4, 2)), targets=np.zeros(4, dtype=int),
                          mask=np.zeros(4, dtype=bool))
    model = build_shift_copy_model(0, 2)
    with pytest.raises(SpecError):
        evaluate(model, [seq], Metric.ACCURACY)


def test_opt_config_validation():
    for field, value in [
        ("lr", 0.0), ("grad_clip", 0.0), ("eps", 0.0), ("eps", -1e-8),
        ("batch_size", 0), ("steps", 0), ("val_fraction", -0.1),
        ("val_fraction", 1.0), ("beta1", -0.1), ("beta1", 1.0),
        ("beta2", 1.0), ("beta2", float("nan")),
    ]:
        with pytest.raises(SpecError, match=field):
            OptConfig(**{field: value})
    OptConfig(batch_size=1, steps=1, val_fraction=0.0, beta1=0.0, beta2=0.0)


def test_train_runs_one_forward_pass_per_adam_step(monkeypatch):
    calls = {"forward_batch": 0, "outputs": 0}
    for method in calls:
        original = getattr(SequenceModel, method)

        def counted(self, X, _method=method, _original=original):
            calls[_method] += 1
            return _original(self, X)

        monkeypatch.setattr(SequenceModel, method, counted)
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=6),
                       4, Rng(11))
    cfg = OptConfig(lr=1e-3, batch_size=8, steps=7, seed=2)
    train(model, _tiny_copy_data(n=20), cfg)
    # The spot check's analytic gradient is the one extra forward pass; its
    # 20 coordinates' central differences (2 each) and the train and
    # validation evaluations read outputs only.
    assert calls == {"forward_batch": cfg.steps + 1, "outputs": 2 * 20 + 2}


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 5])
def test_batch_gradients_are_the_scaled_sum_of_per_sequence_gradients(kind, encoder_dim):
    X, targets, masks = stack_sequences(_tiny_copy_data(k=2, T=9, n=5, seed=12))
    model = init_model(CellSpec(kind=kind, input_dim=4, hidden_dim=6), 4,
                       Rng(13), encoder_dim=encoder_dim)
    loss = LossKind.CROSS_ENTROPY
    value, grads = _batch_loss_and_grads(model, X, targets, masks, loss)
    n_masked = int(masks.sum())
    per_seq = [(param_gradients(model, x, t, loss, np.flatnonzero(m) + 1),
                sequence_loss(model, x, t, loss, np.flatnonzero(m) + 1))
               for x, t, m in zip(X, targets, masks)]
    want_value = sum(v for _, v in per_seq) / n_masked
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    assert list(grads) == list(model.params)
    for name, g in grads.items():
        want = sum(gs[name] for gs, _ in per_seq) / n_masked
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_evaluate_keeps_no_trace():
    data = gen_copyk(CopyTaskSpec(k=3, T=32, V=4), 1350, Rng(14))
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=4, hidden_dim=32),
                       4, Rng(15), encoder_dim=32)
    tracemalloc.start()
    try:
        evaluate(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6
