import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from temporal_range.cells import _activate, cell_impl, recurrent_stacks, stacked
from temporal_range.errors import FormatError, ShapeMismatch, SpecError, VersionError
from temporal_range.linalg import Rng
from temporal_range.models import (UNROLL_CHUNK_STEPS, CellKind, CellSpec,
                                   SequenceModel, build_shift_copy_model,
                                   init_model, load_model, save_model)
from v1_checkpoint import v1_document, v1_text


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
    out = model.outputs(np.asarray(Rng(3).gaussian(size=(6, 2)))[None])[0]
    assert np.array_equal(out, np.zeros((6, 2)))


def test_linear_rec_scalar_impulse_response():
    # h' = 0.5 h + x with unit readout: an impulse at step 1 decays to
    # 0.5^(T-1) by step T.
    params = {"A": np.array([[0.5]]), "C": np.array([[1.0]]),
              "dec_W": np.array([[1.0]]), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=_spec(CellKind.LINEAR_REC, 1, 1), output_dim=1,
                          encoder_dim=None, params=params)
    out = model.outputs(np.array([[1.0], [0.0], [0.0], [0.0]])[None])[0]
    assert out[-1, 0] == pytest.approx(0.125, abs=1e-15)


def test_linear_rec_forward_matches_unrolled_sum():
    rng = Rng(4)
    p, d, c, T = 4, 2, 3, 7
    model = init_model(_spec(CellKind.LINEAR_REC, d, p), c, Rng(5))
    x = np.asarray(rng.gaussian(size=(T, d)))
    out = model.outputs(x[None])[0]
    A, C = model.params["A"], model.params["C"]
    Q, b = model.params["dec_W"], model.params["dec_b"]
    for s in range(1, T + 1):
        h = sum(np.linalg.matrix_power(A, s - t) @ C @ x[t - 1] for t in range(1, s + 1))
        expected = Q @ h + b
        assert np.max(np.abs(out[s - 1] - expected)) < 1e-10 * max(
            1.0, np.max(np.abs(expected)))


def test_gru_zero_input_zero_bias_state_stays_zero():
    model = init_model(_spec(CellKind.GRU, 2, 4), 2, Rng(6))
    _, states, _ = model.forward_batch(np.zeros((5, 2))[None])
    assert np.array_equal(states[0], np.zeros((6, 4)))


def test_forward_prefix_property():
    for kind in CellKind:
        model = init_model(_spec(kind, 3, 4), 2, Rng(7), encoder_dim=3)
        x = np.asarray(Rng(8).gaussian(size=(9, 3)))
        full = model.outputs(x[None])[0]
        for s in (1, 4, 9):
            prefix = model.outputs(x[None, :s])[0]
            assert np.array_equal(prefix[-1], full[s - 1])


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
    # Each step taken on its own, into fresh targets, from the trace's
    # previous state must give the new state and fields the forward pass
    # wrote in place.  T spans two full chunks and a short one.
    model = init_model(_spec(kind, 3, 5), 2, Rng(25), encoder_dim=encoder_dim)
    B, T, p = 4, 2 * UNROLL_CHUNK_STEPS + 5, 5
    X = np.asarray(Rng(26).gaussian(size=(B, T, 3)))
    _, states, trace = model.forward_batch(X)
    impl = cell_impl(kind)
    rec = recurrent_stacks(impl, model.params)
    W = stacked(model.params, impl.input_names).T
    K = impl.state_mult
    assert list(trace.fields) == list(impl.fields)
    assert trace.states.shape == (K, T + 1, B, p)
    assert {k: f.shape for k, f in trace.fields.items()} == {
        k: (T, w, B, p) for k, w in impl.fields.items()}
    # The returned states are the trace's blocks side by side.
    assert np.array_equal(trace.states, states.reshape(B, T + 1, K, p).transpose(2, 1, 0, 3))
    assert not trace.states[:, 0].any()
    for t in range(T):
        u = model.encode(X[:, t])
        assert u.tobytes() == trace.inputs[t].tobytes()
        proj = u @ W
        if impl.bias_names:
            proj += np.concatenate([model.params[n] for n in impl.bias_names])
        want = (trace.states[:, t + 1], *(f[t] for f in trace.fields.values()))
        got = impl.step(rec, trace.states[:, t], proj, tuple(map(np.empty_like, want)),
                        **model.cell.step_kwargs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), t


@pytest.mark.parametrize("kind", list(CellKind))
def test_backward_broadcasts_an_adjoint_over_leading_axes(kind):
    # Final-output Jacobians take c adjoint rows per sequence back through
    # one (B, .) step cache at once; each row must come out as its own call.
    model = init_model(_spec(kind, 3, 5), 2, Rng(27))
    _, _, trace = model.forward_batch(np.asarray(Rng(28).gaussian(size=(4, 3, 3))))
    impl = cell_impl(kind)
    rec = recurrent_stacks(impl, model.params)
    cache = trace.steps[1]
    c, G = 3, len(impl.input_names) * model.cell.hidden_dim
    d_new = np.asarray(Rng(29).gaussian(size=(c, impl.state_mult, 4, model.cell.hidden_dim)))
    d_pre, d_prev = np.empty((c, 4, G)), np.empty_like(d_new)
    impl.backward(rec, cache, d_new, d_pre, d_prev)
    for j in range(c):
        want_pre, want_prev = np.empty((4, G)), np.empty_like(d_new[j])
        impl.backward(rec, cache, d_new[j], want_pre, want_prev)
        assert d_pre[j].tobytes() == want_pre.tobytes(), j
        assert d_prev[j].tobytes() == want_prev.tobytes(), j


def _sigmoid(a):
    """The cells' sigmoid of a 1-D array: one gate, one row."""
    return _activate(a[None], np.empty((1, 1, a.size)), 1)[0, 0]


def test_sigmoid_tails_are_finite_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert np.all((0.0 <= out) & (out <= 1.0))


def test_sigmoid_matches_the_logistic_function():
    a = np.linspace(-30.0, 30.0, 6001)
    assert np.max(np.abs(_sigmoid(a) - 1.0 / (1.0 + np.exp(-a)))) <= 1e-15


def test_gate_activations_are_the_sigmoid_and_the_tanh_of_each_gate():
    # Gates i, f, o of an LSTM through the sigmoid, g through the tanh, from
    # the stacked (B, 4p) pre-activations.
    a = np.asarray(Rng(30).gaussian(size=(3, 4 * 5)))
    out = _activate(a, np.empty((4, 3, 5)), 3)
    for k in range(4):
        gate = a[:, 5 * k:5 * (k + 1)]
        want = np.tanh(gate) if k == 3 else np.array([_sigmoid(row) for row in gate])
        assert out[k].tobytes() == want.tobytes(), k


def test_causality_future_perturbations_do_not_change_past_outputs():
    model = init_model(_spec(CellKind.LSTM, 2, 3), 2, Rng(9))
    x = np.asarray(Rng(10).gaussian(size=(8, 2)))
    base = model.outputs(x[None])[0]
    t = 5
    bumped = x.copy()
    bumped[t - 1] += 10.0
    out = model.outputs(bumped[None])[0]
    assert np.array_equal(out[:t - 1], base[:t - 1])


@pytest.mark.parametrize("kind", [CellKind.GRU, CellKind.LSTM, CellKind.LEM])
def test_gated_cells_stay_finite_for_long_bounded_sequences(kind):
    model = init_model(_spec(kind, 3, 6), 2, Rng(11))
    x = np.asarray(Rng(12).uniform(size=(1000, 3), low=-1.0, high=1.0))
    ys, states, _ = model.forward_batch(x[None])
    assert np.all(np.isfinite(states[0]))
    assert np.all(np.isfinite(ys[0]))


def test_shift_copy_reproduces_delayed_readout():
    rng = Rng(13)
    k, d, T = 3, 2, 9
    U = np.asarray(rng.gaussian(size=(2, d)))
    model = build_shift_copy_model(k, d, U)
    x = np.asarray(rng.gaussian(size=(T, d)))
    out = model.outputs(x[None])[0]
    # Independent oracle: simulate the delay line directly.
    for s in range(1, T + 1):
        expected = U @ x[s - k - 1] if s > k else np.zeros(2)
        assert np.max(np.abs(out[s - 1] - expected)) < 1e-12


def test_shift_copy_k7_reads_step_four():
    rng = Rng(14)
    U = np.asarray(rng.gaussian(size=(2, 2)))
    model = build_shift_copy_model(3, 2, U)
    x = np.asarray(rng.gaussian(size=(7, 2)))
    out = model.outputs(x[None])[0]
    assert out[6] == pytest.approx(U @ x[3], abs=1e-12)


def test_shift_copy_zero_offset_is_identity_readout():
    model = build_shift_copy_model(0, 3)
    x = np.asarray(Rng(15).gaussian(size=(5, 3)))
    out = model.outputs(x[None])[0]
    assert np.max(np.abs(out - x)) < 1e-15


def test_shift_copy_full_window_offset_repeats_first_step():
    T = 6
    model = build_shift_copy_model(T - 1, 2)
    x = np.asarray(Rng(16).gaussian(size=(T, 2)))
    out = model.outputs(x[None])[0]
    assert out[-1] == pytest.approx(x[0], abs=1e-15)
    assert np.max(np.abs(out[:-1])) == 0.0


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
        assert np.array_equal(loaded.outputs(x[None]), model.outputs(x[None]))


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 4])
def test_save_model_writes_the_json_encoders_bytes(tmp_path, kind, encoder_dim):
    model = init_model(_spec(kind, 3, 5), 2, Rng(23), encoder_dim=encoder_dim)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = {"format": "temporal-range/model", "version": 2,
           "cell_kind": kind.value, "input_dim": 3, "hidden_dim": 5,
           "lem_dt": model.cell.lem_dt.hex(), "output_dim": 2,
           "encoder_dim": encoder_dim,
           "params": {name: {"shape": list(arr.shape),
                             "data": arr.astype("<f8").tobytes().hex()}
                      for name, arr in model.params.items()}}
    assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 4])
def test_v1_checkpoint_loads_and_saves_as_v2_bit_exactly(tmp_path, kind, encoder_dim):
    model = init_model(_spec(kind, 3, 5), 2, Rng(26), encoder_dim=encoder_dim)
    v1, v2 = tmp_path / "v1.model.json", tmp_path / "v2.model.json"
    v1.write_text(v1_text(v1_document(model)))
    loaded = load_model(v1)
    save_model(loaded, v2)
    assert json.loads(v2.read_text())["version"] == 2
    for again in (loaded, load_model(v2)):
        assert (again.cell, again.encoder_dim, again.output_dim) == (
            model.cell, encoder_dim, 2)
        assert again.params.keys() == model.params.keys()
        for name, arr in model.params.items():
            assert again.params[name].dtype == np.float64
            assert again.params[name].tobytes() == arr.tobytes()


# A LEM checkpoint (input 2, hidden 2, tanh encoder 3, output 3, lem_dt 0.25)
# written by the version 1 writer of `save_model` before it became one
# `json.dumps` call, with the sha256 of each parameter it loads to and of
# the version 2 text it saves as.
GOLDEN_CHECKPOINT = "lem_enc3_h2.model.json"
GOLDEN_V2_SHA256 = "f1a7f2b930786f317aa32a3517f39f334a68e9852d35f500a495a16c98e7f8a4"
GOLDEN_PARAMS = {
    "V1": "7cb43cf78a98a6f5935a45381868a2039da23b3ffe4fe1ab4569fa76c7f4ed7f",
    "V2": "8a8d7a1224c53c25d15e54b37a18f7f62058b4b0692dd59f4b5a513bf800ea90",
    "Vy": "094be340d1745bf26492ff6413da85e8550223aa513ebccf5f46fba0145c279e",
    "Vz": "bff2aa661cadaa3d06266b330949159cd62cc3450d5d5577e0ec427befd7bc3b",
    "W1": "cd56919d69e2c70af00c93c5ecae455e712e268212f3cafef0ffea17bbe112e4",
    "W2": "64ec94af9a7b089e7242dd36bd5e375b30af9ad02a3ed3c14b3b71b8480cc43b",
    "Wy": "9d34d615345903c2914fb123065f349ccac29e1732a476f5a59c183e3971612a",
    "Wz": "ed3566e29f032e0e577bb6dd2bb14dad0c917513d4c342b7325b25138191b601",
    **dict.fromkeys(["b1", "b2", "by", "bz"],
                    "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    "dec_W": "fb9730704f59d656a4fc8ab1aab4a8854d80d5582023a92aa84ec9056017fe0d",
    **dict.fromkeys(["dec_b", "enc_b"],
                    "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
    "enc_W": "f7713a8a13f54505bf365809cc9f11bb3e397c6a79d6e1f2d82a2dd73bd05681",
}


def test_golden_checkpoint_loads_to_pinned_parameters_and_saves_to_pinned_v2_bytes(tmp_path):
    golden = Path(__file__).parent / "data" / GOLDEN_CHECKPOINT
    model = load_model(golden)
    assert model.cell == CellSpec(kind=CellKind.LEM, input_dim=2, hidden_dim=2, lem_dt=0.25)
    assert (model.encoder_dim, model.output_dim) == (3, 3)
    assert {name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in model.params.items()} == GOLDEN_PARAMS
    path = tmp_path / GOLDEN_CHECKPOINT
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_V2_SHA256
    assert {name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in load_model(path).params.items()} == GOLDEN_PARAMS


def test_the_v1_test_writer_reproduces_the_golden_checkpoint():
    golden = Path(__file__).parent / "data" / GOLDEN_CHECKPOINT
    assert v1_text(v1_document(load_model(golden))) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("key, value", [
    ("encoder_dim", True), ("encoder_dim", 1.0), ("encoder_dim", 0), ("output_dim", 2.7),
    ("output_dim", "2"), ("output_dim", None), ("hidden_dim", 3.9), ("input_dim", False),
    ("input_dim", -1)])
def test_checkpoint_dims_must_be_json_integers_in_range(tmp_path, key, value):
    # They were coerced: true or 1.0 loaded (and saved back as written),
    # 2.7 and "2" were truncated to 2.
    path = tmp_path / "model.json"
    save_model(init_model(_spec(CellKind.GRU, 2, 3), 2, Rng(25), encoder_dim=2), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"^malformed checkpoint {path}: {key} must be "
                                          rf"an integer >= 1, got {re.escape(json.dumps(value))}$"):
        load_model(path)


@pytest.mark.parametrize("shape", [[2.9, 2], [True, 2], [-1, 2], "22", 4])
def test_checkpoint_shape_entries_must_be_json_integers(tmp_path, shape):
    # int() truncated 2.9 to 2, so a (2.9, 2) shape loaded as (2, 2).
    path = tmp_path / "model.json"
    save_model(init_model(_spec(CellKind.GRU, 2, 3), 2, Rng(25), encoder_dim=2), path)
    doc = json.loads(path.read_text())
    doc["params"]["enc_W"]["shape"] = shape
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"^malformed checkpoint {path}: parameter 'enc_W' "
                                          rf"shape must be a list of integers >= 0, "
                                          rf"got {re.escape(json.dumps(shape))}$"):
        load_model(path)


@pytest.mark.parametrize("data", ["00", {"0x1p+0": 0, "0x1p+1": 0}, 0.0])
def test_checkpoint_data_must_be_a_json_list(tmp_path, data):
    # float.fromhex was mapped over whatever a version 1 data held: "00" on
    # dec_b loaded as [0., 0.], and a dict loaded its keys.
    path = tmp_path / "model.json"
    doc = v1_document(init_model(_spec(CellKind.GRU, 2, 3), 2, Rng(25), encoder_dim=2))
    doc["params"]["dec_b"]["data"] = data
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"^malformed checkpoint {path}: parameter 'dec_b' "
                                          rf"data must be a list of hex-float strings, "
                                          rf"got {re.escape(json.dumps(data))}$"):
        load_model(path)


def test_checkpoint_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(FormatError, match="not UTF-8 text, invalid start byte at byte offset 0"):
        load_model(path)


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


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_cell_spec_rejects_a_lem_dt_that_is_not_finite(tmp_path, dt):
    with pytest.raises(SpecError, match=f"lem_dt must be finite and > 0, got {dt}"):
        CellSpec(kind=CellKind.LEM, input_dim=2, hidden_dim=4, lem_dt=dt)
    # A checkpoint that holds one fails to load the same way.
    path = tmp_path / "model.json"
    save_model(init_model(_spec(CellKind.LEM, 2, 3), 2, Rng(24)), path)
    doc = json.loads(path.read_text())
    doc["lem_dt"] = dt.hex()
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError, match=f"lem_dt must be finite and > 0, got {dt}"):
        load_model(path)


def test_forward_rejects_dim_mismatch():
    model = init_model(_spec(CellKind.GRU, 3, 4), 2, Rng(22))
    with pytest.raises(ShapeMismatch):
        model.outputs(np.zeros((5, 2))[None])
