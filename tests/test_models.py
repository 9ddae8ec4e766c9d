import json
import warnings

import numpy as np
import pytest

from temporal_range.cells import _sigmoid, cell_impl, recurrent_stacks, stacked
from temporal_range.errors import FormatError, ShapeMismatch, SpecError, VersionError
from temporal_range.linalg import Rng, mat_pow
from temporal_range.models import (UNROLL_CHUNK_STEPS, CellKind, CellSpec,
                                   SequenceModel, build_shift_copy_model,
                                   init_model, load_model, save_model)


def _spec(kind, d=3, p=8):
    return CellSpec(kind=kind, input_dim=d, hidden_dim=p)


def test_init_same_seed_bitwise_identical():
    a = init_model(_spec(CellKind.GRU), 4, Rng(0), encoder_dim=5)
    b = init_model(_spec(CellKind.GRU), 4, Rng(0), encoder_dim=5)
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_gru_parameter_count_by_shape_enumeration():
    d, p, c = 3, 8, 4
    model = init_model(_spec(CellKind.GRU, d, p), c, Rng(1))
    # Three gates, each with input weights (p, d), recurrent weights (p, p)
    # and a bias (p), plus the affine decoder.
    expected = 3 * (p * d + p * p + p) + (c * p + c)
    assert sum(arr.size for arr in model.params.values()) == expected


def test_linear_rec_zero_parameters_give_zero_outputs():
    model = init_model(_spec(CellKind.LINEAR_REC, 2, 3), 2, Rng(2))
    for name in model.params:
        model.params[name][:] = 0.0
    out = model.forward(np.asarray(Rng(3).gaussian(size=(6, 2))))
    assert np.array_equal(out.outputs, np.zeros((6, 2)))


def test_linear_rec_scalar_impulse_response():
    # h' = 0.5 h + x with unit readout: an impulse at step 1 decays to
    # 0.5^(T-1) by step T.
    params = {"A": np.array([[0.5]]), "C": np.array([[1.0]]),
              "dec_W": np.array([[1.0]]), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=_spec(CellKind.LINEAR_REC, 1, 1), output_dim=1,
                          encoder_dim=None, params=params)
    out = model.forward(np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert out.outputs[-1, 0] == pytest.approx(0.125, abs=1e-15)


def test_linear_rec_forward_matches_unrolled_sum():
    rng = Rng(4)
    p, d, c, T = 4, 2, 3, 7
    model = init_model(_spec(CellKind.LINEAR_REC, d, p), c, Rng(5))
    x = np.asarray(rng.gaussian(size=(T, d)))
    out = model.forward(x)
    A, C = model.params["A"], model.params["C"]
    Q, b = model.params["dec_W"], model.params["dec_b"]
    for s in range(1, T + 1):
        h = sum(mat_pow(A, s - t) @ C @ x[t - 1] for t in range(1, s + 1))
        expected = Q @ h + b
        assert np.max(np.abs(out.outputs[s - 1] - expected)) < 1e-10 * max(
            1.0, np.max(np.abs(expected)))


def test_gru_zero_input_zero_bias_state_stays_zero():
    model = init_model(_spec(CellKind.GRU, 2, 4), 2, Rng(6))
    out = model.forward(np.zeros((5, 2)))
    assert np.array_equal(out.states, np.zeros((6, 4)))


def test_forward_prefix_property():
    for kind in CellKind:
        model = init_model(_spec(kind, 3, 4), 2, Rng(7), encoder_dim=3)
        x = np.asarray(Rng(8).gaussian(size=(9, 3)))
        full = model.forward(x)
        for s in (1, 4, 9):
            prefix = model.forward(x[:s])
            assert np.array_equal(prefix.outputs[-1], full.outputs[s - 1])


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 4])
def test_outputs_reproduce_forward_batch_bit_for_bit(kind, encoder_dim):
    # T is not a multiple of the chunk, so the last chunk is a short one.
    model = init_model(_spec(kind, 3, 5), 2, Rng(23), encoder_dim=encoder_dim)
    X = np.asarray(Rng(24).gaussian(size=(6, 2 * UNROLL_CHUNK_STEPS + 5, 3)))
    assert np.array_equal(model.outputs(X), model.forward_batch(X)[0])


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 4])
def test_trace_buffers_equal_a_step_by_step_recomputation(kind, encoder_dim):
    # Each step taken on its own, without targets, from the trace's previous
    # state must give the new state and fields the forward pass wrote in
    # place.  T spans two full chunks and a short one.
    model = init_model(_spec(kind, 3, 5), 2, Rng(25), encoder_dim=encoder_dim)
    X = np.asarray(Rng(26).gaussian(size=(4, 2 * UNROLL_CHUNK_STEPS + 5, 3)))
    _, states, trace = model.forward_batch(X)
    impl = cell_impl(kind)
    rec = recurrent_stacks(impl, model.params)
    W = stacked(model.params, impl.input_names).T
    assert list(trace.fields) == list(impl.fields)
    assert np.array_equal(trace.states, np.swapaxes(states, 0, 1))
    assert not trace.states[0].any()
    for t in range(X.shape[1]):
        u = model.encode(X[:, t])
        assert u.tobytes() == trace.inputs[t].tobytes()
        proj = u @ W
        if impl.bias_names:
            proj += stacked(model.params, impl.bias_names)
        got = impl.step(rec, trace.states[t], proj, **model.cell.step_kwargs)
        want = (trace.states[t + 1], *(f[t] for f in trace.fields.values()))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), t


def test_sigmoid_tails_are_finite_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert np.all((0.0 <= out) & (out <= 1.0))


def test_sigmoid_matches_the_logistic_function():
    a = np.linspace(-30.0, 30.0, 6001)
    assert np.max(np.abs(_sigmoid(a) - 1.0 / (1.0 + np.exp(-a)))) <= 1e-15


def test_causality_future_perturbations_do_not_change_past_outputs():
    model = init_model(_spec(CellKind.LSTM, 2, 3), 2, Rng(9))
    x = np.asarray(Rng(10).gaussian(size=(8, 2)))
    base = model.forward(x)
    t = 5
    bumped = x.copy()
    bumped[t - 1] += 10.0
    out = model.forward(bumped)
    assert np.array_equal(out.outputs[:t - 1], base.outputs[:t - 1])


@pytest.mark.parametrize("kind", [CellKind.GRU, CellKind.LSTM, CellKind.LEM])
def test_gated_cells_stay_finite_for_long_bounded_sequences(kind):
    model = init_model(_spec(kind, 3, 6), 2, Rng(11))
    x = np.asarray(Rng(12).uniform(size=(1000, 3), low=-1.0, high=1.0))
    out = model.forward(x)
    assert np.all(np.isfinite(out.states))
    assert np.all(np.isfinite(out.outputs))


def test_shift_copy_reproduces_delayed_readout():
    rng = Rng(13)
    k, d, T = 3, 2, 9
    U = np.asarray(rng.gaussian(size=(2, d)))
    model = build_shift_copy_model(k, d, U)
    x = np.asarray(rng.gaussian(size=(T, d)))
    out = model.forward(x)
    # Independent oracle: simulate the delay line directly.
    for s in range(1, T + 1):
        expected = U @ x[s - k - 1] if s > k else np.zeros(2)
        assert np.max(np.abs(out.outputs[s - 1] - expected)) < 1e-12


def test_shift_copy_k7_reads_step_four():
    rng = Rng(14)
    U = np.asarray(rng.gaussian(size=(2, 2)))
    model = build_shift_copy_model(3, 2, U)
    x = np.asarray(rng.gaussian(size=(7, 2)))
    out = model.forward(x)
    assert out.outputs[6] == pytest.approx(U @ x[3], abs=1e-12)


def test_shift_copy_zero_offset_is_identity_readout():
    model = build_shift_copy_model(0, 3)
    x = np.asarray(Rng(15).gaussian(size=(5, 3)))
    out = model.forward(x)
    assert np.max(np.abs(out.outputs - x)) < 1e-15


def test_shift_copy_full_window_offset_repeats_first_step():
    T = 6
    model = build_shift_copy_model(T - 1, 2)
    x = np.asarray(Rng(16).gaussian(size=(T, 2)))
    out = model.forward(x)
    assert out.outputs[-1] == pytest.approx(x[0], abs=1e-15)
    assert np.max(np.abs(out.outputs[:-1])) == 0.0


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    for kind in CellKind:
        model = init_model(_spec(kind, 3, 5), 2, Rng(17), encoder_dim=4)
        path = tmp_path / f"{kind.value}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.cell == model.cell
        assert loaded.encoder_dim == model.encoder_dim
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        x = np.asarray(Rng(18).gaussian(size=(6, 3)))
        assert np.array_equal(loaded.forward(x).outputs, model.forward(x).outputs)


def test_checkpoint_truncated_file_is_format_error(tmp_path):
    model = init_model(_spec(CellKind.GRU, 2, 3), 2, Rng(19))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert "byte offset" in str(err.value)


def test_checkpoint_version_mismatch(tmp_path):
    model = init_model(_spec(CellKind.GRU, 2, 3), 2, Rng(20))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionError):
        load_model(path)


def test_checkpoint_wrong_format_marker(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(FormatError):
        load_model(path)


def test_checkpoint_shape_corruption(tmp_path):
    model = init_model(_spec(CellKind.LINEAR_REC, 2, 3), 2, Rng(21))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["params"]["A"]["shape"] = [2, 2]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_model(path)


def test_cell_spec_validation():
    with pytest.raises(SpecError):
        CellSpec(kind=CellKind.GRU, input_dim=0, hidden_dim=4)
    with pytest.raises(SpecError):
        CellSpec(kind=CellKind.LEM, input_dim=2, hidden_dim=4, lem_dt=0.0)


def test_forward_rejects_dim_mismatch():
    model = init_model(_spec(CellKind.GRU, 3, 4), 2, Rng(22))
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((5, 2)))
