import dataclasses

import numpy as np
import pytest

from temporal_range.errors import NumericalError, ShapeMismatch, SpecError
from temporal_range.gradients import (COMPLEX_STEP, JacobianMode, LossKind,
                                      batch_param_gradients, fd_jacobian,
                                      final_output_blocks, input_jacobians,
                                      masked_loss, multi_output_blocks,
                                      param_gradients, per_step_jacobians)
from temporal_range.linalg import Rng
from temporal_range.models import (CellKind, CellSpec, SequenceModel,
                                   build_shift_copy_model, init_model)
from temporal_range.oracles import RecurrenceSpec, recurrence_as_model


def _rel(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b))


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 4])
def test_input_jacobians_match_finite_differences(kind, encoder_dim):
    # Complex-step derivatives subtract nothing, so the engine must match
    # them to rounding in both modes.
    spec = CellSpec(kind=kind, input_dim=3, hidden_dim=4)
    seed = 100 * (1 + list(CellKind).index(kind)) + (encoder_dim or 0)
    model = init_model(spec, 2, Rng(seed), encoder_dim=encoder_dim)
    x = np.asarray(Rng(50).gaussian(size=(7, 3)))
    for mode in JacobianMode:
        blocks = input_jacobians(model, x, mode)
        worst = max(_rel(J, fd_jacobian(model, x, s, t))
                    for (s, t), J in blocks.blocks.items())
        assert worst < 1e-12, mode


def test_shift_copy_blocks_are_the_readout_or_zero():
    rng = Rng(51)
    k, d, T = 3, 2, 8
    U = np.asarray(rng.gaussian(size=(2, d)))
    model = build_shift_copy_model(k, d, U)
    x = np.asarray(rng.gaussian(size=(T, d)))
    blocks = input_jacobians(model, x, JacobianMode.MULTI_OUTPUT)
    for (s, t), J in blocks.blocks.items():
        expected = U if t == s - k else np.zeros_like(U)
        assert np.max(np.abs(J - expected)) < 1e-12


def test_linear_recurrence_final_blocks_are_propagator_products():
    rng = Rng(52)
    p, d, c, T = 3, 2, 2, 6
    A = np.asarray(rng.gaussian(size=(p, p))) * 0.4
    C = np.asarray(rng.gaussian(size=(p, d)))
    Q = np.asarray(rng.gaussian(size=(c, p)))
    model = recurrence_as_model(RecurrenceSpec(A=A, C=C, Q=Q, T=T))
    x = np.asarray(rng.gaussian(size=(T, d)))
    blocks = input_jacobians(model, x, JacobianMode.FINAL_OUTPUT)
    for t in range(1, T + 1):
        expected = Q @ np.linalg.matrix_power(A, T - t) @ C
        assert np.max(np.abs(blocks.blocks[T, t] - expected)) < 1e-10


def test_memoryless_model_has_zero_cross_step_blocks():
    model = build_shift_copy_model(0, 3)
    x = np.asarray(Rng(53).gaussian(size=(6, 3)))
    blocks = input_jacobians(model, x, JacobianMode.MULTI_OUTPUT)
    for (s, t), J in blocks.blocks.items():
        assert t < s
        assert np.max(np.abs(J)) == 0.0


def test_fd_jacobian_zero_above_diagonal():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=3),
                       2, Rng(54))
    x = np.asarray(Rng(55).gaussian(size=(5, 2)))
    assert np.array_equal(fd_jacobian(model, x, 2, 4), np.zeros((2, 2)))


def test_fd_jacobian_rejects_a_sequence_that_is_not_2d():
    model = build_shift_copy_model(1, 2)
    for x in (np.zeros(3), np.zeros((1, 3, 2))):
        with pytest.raises(ShapeMismatch):
            fd_jacobian(model, x, 1, 1)


def test_block_modes_cover_the_declared_index_sets():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=3),
                       2, Rng(56))
    x = np.asarray(Rng(57).gaussian(size=(5, 2)))
    multi = input_jacobians(model, x, JacobianMode.MULTI_OUTPUT)
    assert set(multi.blocks) == {(s, t) for s in range(1, 6) for t in range(1, s)}
    final = input_jacobians(model, x, JacobianMode.FINAL_OUTPUT)
    assert set(final.blocks) == {(5, t) for t in range(1, 6)}


def test_chain_rule_consistency_with_per_step_factors():
    model = init_model(CellSpec(kind=CellKind.LEM, input_dim=2, hidden_dim=3),
                       2, Rng(58), encoder_dim=3)
    x = np.asarray(Rng(59).gaussian(size=(6, 2)))
    j_state, j_input_x, dec_rows = per_step_jacobians(model, x)
    blocks = input_jacobians(model, x, JacobianMode.MULTI_OUTPUT)
    for (s, t), J in blocks.blocks.items():
        sens = j_input_x[t - 1]
        for r in range(t + 1, s + 1):
            sens = j_state[r - 1] @ sens
        assert np.max(np.abs(J - dec_rows @ sens)) < 1e-10


def test_linear_recurrence_blocks_do_not_depend_on_the_evaluation_point():
    model = init_model(CellSpec(kind=CellKind.LINEAR_REC, input_dim=2, hidden_dim=4),
                       3, Rng(60))
    xa = np.asarray(Rng(61).gaussian(size=(6, 2)))
    xb = np.asarray(Rng(62).gaussian(size=(6, 2)))
    ba = input_jacobians(model, xa, JacobianMode.MULTI_OUTPUT)
    bb = input_jacobians(model, xb, JacobianMode.MULTI_OUTPUT)
    for key in ba.blocks:
        assert np.array_equal(ba.blocks[key], bb.blocks[key])


def test_non_finite_propagation_reports_the_step():
    p = 2
    params = {"A": np.eye(p) * 1e200, "C": np.eye(p),
              "dec_W": np.ones((1, p)), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=CellSpec(kind=CellKind.LINEAR_REC, input_dim=p,
                                        hidden_dim=p),
                          output_dim=1, encoder_dim=None, params=params)
    x = np.ones((4, p))
    # d state_3 / d x_1 = A A C = 1e400 I is the first to overflow.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite sensitivity at step s=3$"):
        input_jacobians(model, x, JacobianMode.MULTI_OUTPUT)


def test_param_gradients_zero_residual_mse_is_zero():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=3),
                       2, Rng(63))
    x = np.asarray(Rng(64).gaussian(size=(5, 2)))
    targets = model.outputs(x[None])[0]
    grads = param_gradients(model, x, targets, LossKind.MSE, range(1, 6))
    for g in grads.values():
        assert np.max(np.abs(g)) == 0.0


def test_param_gradients_scalar_linear_single_step_closed_form():
    # One linear step y = w x + b: d/dw of 0.5 (y - t)^2 is (y - t) x.
    params = {"A": np.zeros((1, 1)), "C": np.array([[1.25]]),
              "dec_W": np.array([[1.0]]), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=CellSpec(kind=CellKind.LINEAR_REC, input_dim=1,
                                        hidden_dim=1),
                          output_dim=1, encoder_dim=None, params=params)
    x = np.array([[2.0]])
    target = np.array([[0.5]])
    grads = param_gradients(model, x, target, LossKind.MSE, [1])
    residual = 1.25 * 2.0 - 0.5
    assert grads["C"][0, 0] == pytest.approx(residual * 2.0 * 1.0, abs=1e-12)
    assert grads["dec_W"][0, 0] == pytest.approx(residual * 1.25 * 2.0, abs=1e-12)
    assert grads["dec_b"][0] == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("encoder_dim", [None, 3])
def test_param_gradients_match_complex_step_derivatives(kind, loss, encoder_dim):
    model = init_model(CellSpec(kind=kind, input_dim=2, hidden_dim=3), 3,
                       Rng(65), encoder_dim=encoder_dim)
    rng = Rng(66)
    x = np.asarray(rng.gaussian(size=(6, 2)))
    if loss is LossKind.CROSS_ENTROPY:
        target = np.asarray(rng.integers(0, 3, size=6))
    else:
        target = np.asarray(rng.gaussian(size=(6, 3)))
    steps = [2, 4, 6]
    mask = np.isin(np.arange(1, 7), steps)
    grads = param_gradients(model, x, target, loss, steps)
    complex_params = {name: p.astype(complex) for name, p in model.params.items()}
    worst = 0.0
    for name, g in grads.items():
        for idx in range(g.size):
            probe = dataclasses.replace(model, params=dict(complex_params))
            probe.params[name] = complex_params[name].copy()
            probe.params[name].ravel()[idx] += 1j * COMPLEX_STEP
            value = masked_loss(probe.outputs(x[None])[0], target, mask, loss)[0]
            cs = value.imag / COMPLEX_STEP
            an = g.ravel()[idx]
            worst = max(worst, abs(cs - an) / max(1.0, abs(cs), abs(an)))
    assert worst < 1e-12


def test_trace_path_rejects_a_complex_batch():
    # Only outputs runs complex passes; the trace path used to drop a
    # complex batch's imaginary part with only a ComplexWarning.
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=3),
                       2, Rng(74))
    X = np.zeros((2, 4, 2)) + 1j * COMPLEX_STEP
    for run in (model.forward_batch, lambda X: list(multi_output_blocks(model, X)),
                lambda X: final_output_blocks(model, X),
                lambda X: per_step_jacobians(model, X[0]),
                lambda X: input_jacobians(model, X[0], JacobianMode.FINAL_OUTPUT)):
        with pytest.raises(SpecError, match="forward_batch is real-valued"):
            run(X)


def test_param_gradients_rejects_empty_loss_steps():
    model = init_model(CellSpec(kind=CellKind.GRU, input_dim=2, hidden_dim=3),
                       2, Rng(67))
    x = np.zeros((4, 2))
    with pytest.raises(SpecError):
        param_gradients(model, x, np.zeros(4, dtype=int),
                        LossKind.CROSS_ENTROPY, [])


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 3])
def test_reverse_final_blocks_equal_forward_chain_products(kind, encoder_dim):
    from temporal_range.gradients import final_output_blocks
    spec = CellSpec(kind=kind, input_dim=2, hidden_dim=3)
    model = init_model(spec, 3, Rng(68 + list(CellKind).index(kind)),
                       encoder_dim=encoder_dim)
    X = np.asarray(Rng(69).gaussian(size=(3, 6, 2)))
    reverse = final_output_blocks(model, X)
    for r, x in enumerate(X):
        j_state, j_input_x, dec_rows = per_step_jacobians(model, x)
        for t in range(1, 7):
            sens = j_input_x[t - 1]
            for s in range(t + 1, 7):
                sens = j_state[s - 1] @ sens
            forward = dec_rows @ sens
            scale = max(1e-300, np.max(np.abs(forward)))
            assert np.max(np.abs(reverse[r, t - 1] - forward)) <= 1e-12 * scale


def _block_assembled_factors(kind, params, cache):
    """Reference: every factor built from ``v * np.eye`` diagonal matrices
    and, for the two-part states, joined with ``np.block``, as the factors
    were first written."""
    def diag(v):
        return v * np.eye(v.shape[-2])

    if kind is CellKind.GRU:
        h, z, r, n = (cache[k][..., None] for k in ("h", "z", "r", "n"))
        dz, dr, dn = z * (1.0 - z), r * (1.0 - r), 1.0 - n * n
        m_rh_h = diag(r) + (h * dr) * params["Ur"]
        dn_dh = dn * (params["Un"] @ m_rh_h)
        dn_du = dn * (params["Wn"] + params["Un"] @ ((h * dr) * params["Wr"]))
        return (diag(z) + ((h - n) * dz) * params["Uz"] + (1.0 - z) * dn_dh,
                ((h - n) * dz) * params["Wz"] + (1.0 - z) * dn_du)
    if kind is CellKind.LSTM:
        h, c, i, f, o, g, hc = (
            cache[k][..., None] for k in ("h", "c", "i", "f", "o", "g", "hc"))
        di, df, do = i * (1 - i), f * (1 - f), o * (1 - o)
        dg = 1.0 - g * g
        dc_dh = (c * df) * params["Uf"] + (g * di) * params["Ui"] + (i * dg) * params["Ug"]
        dc_du = (c * df) * params["Wf"] + (g * di) * params["Wi"] + (i * dg) * params["Wg"]
        k = o * (1.0 - hc * hc)
        dh_dh = (hc * do) * params["Uo"] + k * dc_dh
        dh_du = (hc * do) * params["Wo"] + k * dc_du
        return (np.block([[dh_dh, diag(k * f)], [dc_dh, diag(f)]]),
                np.concatenate([dh_du, dc_du], axis=-2))
    y, z, g1, g2, tz, ty = (
        cache[k][..., None] for k in ("y", "z", "g1", "g2", "tz", "ty"))
    dt = cache["dt"]
    dt1, dt2 = dt * g1, dt * g2
    dg1, dg2 = dt * g1 * (1.0 - g1), dt * g2 * (1.0 - g2)
    ktz, kty = dt1 * (1.0 - tz * tz), dt2 * (1.0 - ty * ty)
    dz_dy = ((tz - z) * dg1) * params["W1"] + ktz * params["Wz"]
    dz_du = ((tz - z) * dg1) * params["V1"] + ktz * params["Vz"]
    wy = params["Wy"]
    dy_dy = diag(1.0 - dt2) + ((ty - y) * dg2) * params["W2"] + kty * (wy @ dz_dy)
    dy_dz = kty * (wy * np.swapaxes(1.0 - dt1, -1, -2))
    dy_du = ((ty - y) * dg2) * params["V2"] + kty * (params["Vy"] + wy @ dz_du)
    return (np.block([[dy_dy, dy_dz], [dz_dy, diag(1.0 - dt1)]]),
            np.concatenate([dy_du, dz_du], axis=-2))


@pytest.mark.parametrize("kind", [CellKind.GRU, CellKind.LSTM, CellKind.LEM])
@pytest.mark.parametrize("encoder_dim", [None, 3])
def test_in_place_factors_equal_the_block_assembly_bit_for_bit(kind, encoder_dim):
    from temporal_range.cells import cell_impl, stacked
    model = init_model(CellSpec(kind=kind, input_dim=2, hidden_dim=4), 2, Rng(70),
                       encoder_dim=encoder_dim)
    X = 3.0 * np.asarray(Rng(71).gaussian(size=(5, 6, 2)))
    impl = cell_impl(kind)
    # One pair of buffers for every step, as the engine passes them.
    out = (np.zeros((5, model.state_dim, model.state_dim)),
           np.empty((5, model.state_dim, model.cell_input_dim)))
    for cache in model.forward_batch(X)[2].steps:
        got = impl.step_jacobians(model.params, cache,
                                  stacked(model.params, impl.input_names), out)
        for a, b in zip(got, _block_assembled_factors(kind, model.params, cache)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("encoder_dim", [None, 3])
def test_step_factors_build_the_input_factor_in_observation_space(kind, encoder_dim):
    # Behind an encoder the folded factor equals the cell-input factor times
    # the encoder's derivative; without one it is that factor, bit for bit.
    from temporal_range.cells import cell_impl, stacked
    from temporal_range.gradients import _step_factors
    model = init_model(CellSpec(kind=kind, input_dim=2, hidden_dim=4), 2, Rng(72),
                       encoder_dim=encoder_dim)
    X = 3.0 * np.asarray(Rng(73).gaussian(size=(5, 6, 2)))
    impl = cell_impl(kind)
    w_in = stacked(model.params, impl.input_names)
    trace = model.forward_batch(X)[2]
    # A step's factors stay valid until the next step, so each is copied.
    factors = [(j_state.copy(), j_x.copy()) for j_state, j_x in _step_factors(model, X)]
    assert len(factors) == 6
    ref_out = (np.zeros((5, model.state_dim, model.state_dim)),
               np.empty((5, model.state_dim, model.cell_input_dim)))
    for t, (cache, (j_state, j_x)) in enumerate(zip(trace.steps, factors)):
        ref_state, ref_input = impl.step_jacobians(model.params, cache, w_in, ref_out)
        assert j_state.tobytes() == ref_state.tobytes()
        if encoder_dim is None:
            assert j_x.shape == ref_input.shape and j_x.tobytes() == ref_input.tobytes()
            continue
        u = trace.inputs[t]
        ref = ref_input @ ((1.0 - u * u)[..., None] * model.params["enc_W"])
        assert j_x.shape == ref.shape == (5, model.state_dim, 2)
        assert np.max(np.abs(j_x - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(4, 2), (4,), (1, 4, 2, 1)])
def test_the_engine_rejects_a_batch_of_the_wrong_rank(shape):
    from temporal_range.gradients import final_output_blocks, multi_output_blocks
    model = build_shift_copy_model(1, 2)
    with pytest.raises(ShapeMismatch, match="expected batch of shape"):
        next(multi_output_blocks(model, np.zeros(shape)))
    with pytest.raises(ShapeMismatch, match="expected batch of shape"):
        final_output_blocks(model, np.zeros(shape))


def test_an_overflow_in_a_coordinate_the_decoder_never_reads_names_its_step():
    # h' = diag(1e200, 1) h + C u: sensitivities of coordinate 0 reach 1e400
    # at step s = 3, and the decoder reads only coordinate 1.  The overflow
    # still reaches that step's blocks, as 0 * inf is NaN.
    p, T = 2, 5
    params = {"A": np.diag([1e200, 1.0]), "C": np.ones((p, 1)),
              "dec_W": np.array([[0.0, 1.0]]), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=CellSpec(kind=CellKind.LINEAR_REC, input_dim=1, hidden_dim=p),
                          output_dim=1, encoder_dim=None, params=params)
    from temporal_range.gradients import multi_output_blocks
    steps = multi_output_blocks(model, np.zeros((2, T, 1)))
    assert next(steps)[0] == 2
    with pytest.raises(NumericalError, match="non-finite sensitivity at step s=3$"):
        next(steps)


def test_an_overflowing_adjoint_names_its_step():
    # h' = 1e200 h + C u with zero inputs keeps every state at zero, so the
    # forward pass is finite.  With a loss gradient g at the last step only,
    # backprop gives d/d state_{T-1} = 1e200 * dec_W^T g at step s = T, which
    # is finite, and d/d state_{T-2} = 1e400 * dec_W^T g at step s = T-1,
    # which overflows.
    p, T = 2, 5
    params = {"A": 1e200 * np.eye(p), "C": np.ones((p, 1)),
              "dec_W": np.ones((1, p)), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=CellSpec(kind=CellKind.LINEAR_REC, input_dim=1, hidden_dim=p),
                          output_dim=1, encoder_dim=None, params=params)
    X = np.zeros((3, T, 1))
    step_grads = np.zeros((3, T, 1))
    step_grads[:, -1] = 1.0
    with pytest.raises(NumericalError, match=f"non-finite adjoint at step s={T - 1}$"):
        batch_param_gradients(model, X, step_grads, model.forward_batch(X))


def test_an_overflowing_final_output_adjoint_names_its_step():
    # The same recurrence in final-output mode: the adjoint d y_T / d state_t
    # starts at dec_W, reaches 1e200 * dec_W when step t = 5 hands it on, and
    # overflows to 1e400 * dec_W when step t = 4 does.  Every block before
    # that is finite.
    p, T = 2, 5
    params = {"A": 1e200 * np.eye(p), "C": np.ones((p, 1)),
              "dec_W": np.ones((1, p)), "dec_b": np.zeros(1)}
    model = SequenceModel(cell=CellSpec(kind=CellKind.LINEAR_REC, input_dim=1, hidden_dim=p),
                          output_dim=1, encoder_dim=None, params=params)
    with pytest.raises(NumericalError, match="non-finite adjoint at step t=4$"):
        final_output_blocks(model, np.zeros((3, T, 1)))
