"""Exact first-order machinery for sequence models.

Three complementary tools:

* The Jacobian engine: blocks ``J[s, t] = d y_s / d x_t`` of a batch of
  rollouts, forward through the cells' per-step factors
  (``multi_output_blocks``, yielded step by step) or reverse from ``y_T``
  through the cells' ``backward`` rules (``final_output_blocks``: vector-
  Jacobian products of ``c`` adjoint rows, ``c S^2 T`` work, not
  ``d S^2 T^2 / 2``, and no ``(S, S)`` factor is built);
  ``input_jacobians`` keys one rollout's by ``(s, t)``.
* ``fd_jacobian``: a complex-step oracle for any single block, exact to
  rounding and independent of the analytic path.
* ``batch_param_gradients``: reverse accumulation through the unroll (BPTT)
  for the gradient of a per-step loss (``masked_loss``, the one masked
  cross-entropy/MSE) with respect to every parameter, reusing the
  caller's forward pass; ``param_gradients`` does one rollout.

Step indices ``s`` and ``t`` are 1-based throughout, matching the usual
"position in the window" convention ``t in {1, .., T}``.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .cells import cell_impl, recurrent_stacks, stacked
from .errors import NumericalError, ShapeMismatch, SpecError
from .models import SequenceModel

__all__ = [
    "JacobianBlocks",
    "JacobianMode",
    "LossKind",
    "batch_param_gradients",
    "fd_jacobian",
    "final_output_blocks",
    "input_jacobians",
    "masked_loss",
    "multi_output_blocks",
    "param_gradients",
    "per_step_jacobians",
]

# The step h of complex-step derivatives ``Im f(x + ih) / h``: nothing is
# subtracted, so nothing cancels (Squire & Trapp, SIAM Rev. 40(1), 1998).
COMPLEX_STEP = 1e-30


class JacobianMode(enum.Enum):
    """Which output/input pairs an analysis considers.

    MULTI_OUTPUT collects every strictly-past block ``t < s <= T``.
    FINAL_OUTPUT collects the last step's row ``J[T, t]`` for ``t = 1..T``,
    which includes the same-step block at lag zero.
    """

    MULTI_OUTPUT = "multi_output"
    FINAL_OUTPUT = "final_output"


class LossKind(enum.Enum):
    MSE = "mse"
    CROSS_ENTROPY = "cross_entropy"


@dataclasses.dataclass
class JacobianBlocks:
    """Jacobian blocks of one rollout, keyed by 1-based ``(s, t)`` pairs."""

    T: int
    mode: JacobianMode
    blocks: dict[tuple[int, int], np.ndarray]


def _decoder_rows(model: SequenceModel) -> np.ndarray:
    """Decoder Jacobian with respect to the full state, shape (c, S)."""
    rows = np.zeros((model.output_dim, model.state_dim))
    rows[:, :model.cell.hidden_dim] = model.params["dec_W"]
    return rows


def _step_factors(model: SequenceModel, X):
    """One forward pass over ``X`` (R, T, d), then each step's factors
    ``d state_t / d state_{t-1}`` (R, S, S) and ``d state_t / d x_t`` (R, S, d),
    written into two buffers allocated once per pass: a step's factors stay
    valid until the next step.  The state buffer starts at zero, so the
    blocks a cell never writes (the LSTM's and LEM's off-diagonal zeros)
    stay zero.  Behind an encoder, the stacked input weights are first
    mapped through the step's encoder derivative (R, G*p, d), so the input
    factor is built ``d`` columns wide and no (R, S, d_in) factor is formed."""
    impl = cell_impl(model.cell.kind)
    w_in = stacked(model.params, impl.input_names)
    _, _, trace = model.forward_batch(X)
    R, T, d = np.shape(X)
    out = (np.zeros((R, model.state_dim, model.state_dim)),
           np.empty((R, model.state_dim, d)))
    for t in range(T):
        w_x = w_in
        if model.encoder_dim is not None:
            u = trace.inputs[t]
            w_x = w_in @ ((1.0 - u * u)[..., None] * model.params["enc_W"])
        yield impl.step_jacobians(model.params, *trace.step(t), w_x, out,
                                  **model.cell.step_kwargs)


def per_step_jacobians(model: SequenceModel, x):
    """Exact per-step Jacobian factors along one rollout.

    Returns ``(j_state, j_input_x, dec_rows)`` where ``j_state[t-1]`` is
    ``d state_t / d state_{t-1}`` (S, S), ``j_input_x[t-1]`` is
    ``d state_t / d x_t`` (S, d) with the encoder folded in, and
    ``dec_rows`` (c, S) maps any state to its output.  Any block
    ``J[s, t]`` is the product dec_rows @ j_state[s-1] @ .. @ j_state[t]
    @ j_input_x[t-1].
    """
    # A step's factors stay valid until the next step, so each is copied.
    factors = [(js[0].copy(), ji[0].copy())
               for js, ji in _step_factors(model, np.asarray(x)[None])]
    return ([js for js, _ in factors], [ji for _, ji in factors],
            _decoder_rows(model))


def multi_output_blocks(model: SequenceModel, X):
    """Yield ``(s, blocks)`` for ``s = 2..T`` over a batch ``X`` (R, T, d), with
    ``blocks[r, t-1] = J[s, t]`` of rollout ``r`` (shape (R, s-1, c, d)):
    sensitivities seeded at each origin are pushed forward step by step.
    Two sensitivity buffers are allocated once; each step's product is
    written into the spare one, and the two are then swapped.

    Each step checks only what it adds: its blocks and its new input factor.
    A non-finite sensitivity reaches every block of its origin at the same
    step, since ``0 * inf`` is NaN, so the whole buffer is never rescanned.

    Raises:
        ShapeMismatch: when ``X`` is not a (R, T, d) batch of the model's width.
        NumericalError: naming the step where a sensitivity is not finite.
    """
    X = model._check_batch(X)
    R, T, d = X.shape
    dec_rows = _decoder_rows(model)
    # Columns (t-1)*d .. t*d hold d state_s / d x_t for each origin t <= s.
    sens = np.empty((R, model.state_dim, T * d))
    spare = np.empty_like(sens)
    for s, (j_state, j_input) in enumerate(_step_factors(model, X), start=1):
        m = (s - 1) * d
        # Overflow here is caught by the finiteness check below.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(j_state, sens[..., :m], out=spare[..., :m])
            blocks = dec_rows @ spare[..., :m]
        sens, spare = spare, sens
        sens[..., m:m + d] = j_input
        if not (np.all(np.isfinite(blocks)) and np.all(np.isfinite(j_input))):
            raise NumericalError(f"non-finite sensitivity at step s={s}")
        if s > 1:
            yield s, blocks.reshape(R, -1, s - 1, d).transpose(0, 2, 1, 3)


def final_output_blocks(model: SequenceModel, X) -> np.ndarray:
    """Blocks ``J[T, t]`` of a batch ``X`` (R, T, d), shape (R, T, c, d), by
    reverse accumulation: the adjoint ``d y_T / d state_t`` (c, K, R, p), one
    leading row per output, in the state's ``K`` blocks, starts at the
    decoder rows and goes back through the trace's steps by the cell's
    ``backward`` rule, which broadcasts it against the ``(R, p)`` blocks of
    each step's cache (``Trace.step``, views of the trace).  Each step's
    gate gradients times the stacked input weights (and the encoder's
    derivative) give ``J[T, t]``.
    Every step's adjoint is kept in one buffer, which is checked once after
    the pass, as ``batch_param_gradients`` does.

    Raises:
        ShapeMismatch: when ``X`` is not a (R, T, d) batch of the model's width.
        NumericalError: naming the latest step whose block, or the adjoint it
            hands on, is not finite.
    """
    X = model._check_batch(X)
    R, T, d = X.shape
    c = model.output_dim
    impl = cell_impl(model.cell.kind)
    params = model.params
    rec = recurrent_stacks(impl, params)
    w_in = stacked(params, impl.input_names)
    _, _, trace = model.forward_batch(X)
    # adjoints[t] is d y_T / d state_t; adjoints[T] holds the decoder rows.
    adjoints = np.empty((T + 1, c, impl.state_mult, R, model.cell.hidden_dim))
    adjoints[T] = 0.0
    adjoints[T, :, 0] = params["dec_W"][:, None]
    d_pre = np.empty((c, R, w_in.shape[0]))
    blocks = np.empty((R, T, c, d))
    # Overflow here is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T, 0, -1):
            impl.backward(rec, *trace.step(t - 1), adjoints[t], d_pre, adjoints[t - 1],
                          **model.cell.step_kwargs)
            block = d_pre @ w_in
            if model.encoder_dim is not None:
                u = trace.inputs[t - 1]
                block = (block * (1.0 - u * u)) @ params["enc_W"]
            blocks[:, t - 1] = np.swapaxes(block, 0, 1)
    # Step t fails on its block or, for t > 1, on the adjoint it hands on.
    bad = ~np.isfinite(blocks).all(axis=(0, 2, 3))
    bad[1:] |= ~np.isfinite(adjoints[1:T]).all(axis=(1, 2, 3, 4))
    if bad.any():
        # The loop reaches the latest such step first.
        raise NumericalError(f"non-finite adjoint at step t={np.flatnonzero(bad)[-1] + 1}")
    return blocks


def input_jacobians(model: SequenceModel, x,
                    mode: JacobianMode = JacobianMode.MULTI_OUTPUT) -> JacobianBlocks:
    """One rollout's engine blocks keyed by ``(s, t)``, for tests and for
    comparison with ``fd_jacobian``; raises ``NumericalError`` like them."""
    X = np.asarray(x)[None]
    if X.ndim != 3 or X.shape[1] < 2:
        raise ShapeMismatch(f"need a (T, d) rollout with T >= 2 for lag analysis, "
                            f"got shape {X.shape[1:]}")
    T = X.shape[1]
    if mode is JacobianMode.MULTI_OUTPUT:
        blocks = {(s, t): b[0, t - 1].copy()
                  for s, b in multi_output_blocks(model, X) for t in range(1, s)}
    else:
        final = final_output_blocks(model, X)[0]
        blocks = {(T, t): final[t - 1] for t in range(1, T + 1)}
    return JacobianBlocks(T=T, mode=mode, blocks=blocks)


def fd_jacobian(model: SequenceModel, x, s: int, t: int) -> np.ndarray:
    """Complex-step derivative ``d y_s / d x_t``; zero when ``t > s``.

    One ``outputs`` pass runs ``d`` complex copies of ``x[:s]``; copy ``j``
    carries ``x[t, j] + ih``, and ``Im y_s / h`` is column ``j``.  This is
    the independent oracle the analytic path is validated against.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected observation sequence of shape (T, d), got {x.shape}")
    T = x.shape[0]
    if not (1 <= s <= T and 1 <= t <= T):
        raise SpecError(f"step indices must lie in 1..{T}, got s={s}, t={t}")
    d = model.cell.input_dim
    if t > s:
        return np.zeros((model.output_dim, d))
    # Outputs at step s do not depend on later inputs; truncate the unroll.
    xs = np.repeat(x[None, :s], d, axis=0).astype(np.complex128)
    xs[:, t - 1] += 1j * COMPLEX_STEP * np.eye(d)
    return model.outputs(xs)[:, s - 1].imag.T / COMPLEX_STEP


def masked_loss(ys, targets, masks, loss: LossKind):
    """Summed loss (a NumPy scalar) over the masked steps of outputs ``ys``
    (..., T, c) and its gradient with respect to ``ys`` (zero where unmasked).

    ``targets`` holds class indices (..., T) for cross-entropy or vectors
    (..., T, c) for MSE; ``masks`` (..., T) selects the steps.
    """
    m = masks[..., None]
    if loss is LossKind.CROSS_ENTROPY:
        onehot = targets[..., None] == np.arange(ys.shape[-1])
        shifted = ys - ys.real.max(axis=-1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=-1))
        picked = np.sum(shifted * onehot, axis=-1)
        probs = np.exp(shifted - logz[..., None])
        return np.sum((logz - picked) * masks), (probs - onehot) * m
    if loss is LossKind.MSE:
        diff = ys - targets
        return 0.5 * np.sum(diff * diff * m), diff * m
    raise SpecError(f"unknown loss kind: {loss!r}")


def _masked_targets(target, loss: LossKind, loss_steps, T: int):
    """Targets and step mask of one rollout for ``masked_loss``; targets at
    steps outside ``loss_steps`` (1-based) are never read."""
    steps = sorted(set(int(s) for s in loss_steps))
    if not steps:
        raise SpecError("loss_steps must not be empty")
    if steps[0] < 1 or steps[-1] > T:
        raise SpecError(f"loss_steps must lie in 1..{T}, got {steps}")
    mask = np.zeros(T, dtype=bool)
    mask[np.asarray(steps) - 1] = True
    if loss is LossKind.CROSS_ENTROPY:
        return np.where(mask, np.asarray(target), 0).astype(np.int64), mask
    return np.where(mask[:, None], np.asarray(target, dtype=np.float64), 0.0), mask


def batch_param_gradients(model: SequenceModel, X, step_grads,
                          forward) -> dict[str, np.ndarray]:
    """Reverse accumulation through the unroll for a batch.

    ``forward`` is the caller's ``model.forward_batch(X)``, whose outputs
    gave ``step_grads`` (B, T, c): d loss / d y_s for every sequence and
    step (zero rows for steps outside the loss).  Each step does only the
    recurrent work, from its cache (``Trace.step``, views of the trace),
    and writes the gradients of its gate pre-activations and of its
    previous state into time-major buffers, which are checked once after
    the loop; every weight gradient is then one product over all B*T rows,
    against the trace's inputs and operands.  Returns the exact gradient of
    that scalar loss for every parameter.

    Raises:
        NumericalError: naming the first step, in backward order, whose
            adjoint is not finite.
    """
    X = np.asarray(X, dtype=np.float64)
    _, _, trace = forward
    impl = cell_impl(model.cell.kind)
    params, p = model.params, model.cell.hidden_dim
    rec = recurrent_stacks(impl, params)
    dY = np.swapaxes(step_grads, 0, 1)
    d_read = dY @ params["dec_W"]
    T, B = d_read.shape[:2]
    d_pre = np.empty((T, B, len(impl.input_names) * p))
    # adjoint[t] is d loss / d state_t through step t+1's rule.
    adjoint = np.empty((T, impl.state_mult, B, p))
    d_new = np.zeros(adjoint.shape[1:])
    # Overflow here is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1, -1, -1):
            d_new[0] += d_read[t]
            impl.backward(rec, *trace.step(t), d_new, d_pre[t], adjoint[t],
                          **model.cell.step_kwargs)
            d_new[...] = adjoint[t]
    finite = np.isfinite(adjoint).all(axis=(1, 2, 3))
    if not finite.all():
        # The loop reaches the latest such step first.
        s = np.flatnonzero(~finite)[-1] + 1
        raise NumericalError(f"non-finite adjoint at step s={s}")
    rows_pre = _rows(d_pre)
    grads = {"dec_W": _rows(dY).T @ _rows(trace.states[0, 1:]),
             "dec_b": _rows(dY).sum(axis=0)}
    _split(grads, impl.input_names, rows_pre.T @ _rows(trace.inputs))
    _split(grads, impl.bias_names, rows_pre.sum(axis=0))
    col = 0
    for group, operand in zip(impl.recurrent_names, trace.operands):
        width = len(group) * p
        _split(grads, group, rows_pre[:, col:col + width].T @ _rows(operand))
        col += width
    if model.encoder_dim is not None:
        u = _rows(trace.inputs)
        da = (rows_pre @ stacked(params, impl.input_names)) * (1.0 - u * u)
        grads["enc_W"] = da.T @ _rows(np.swapaxes(X, 0, 1))
        grads["enc_b"] = da.sum(axis=0)
    return {name: grads[name] for name in params}


def _rows(a: np.ndarray) -> np.ndarray:
    """A (T, B, k) array as its (T*B, k) rows."""
    return a.reshape(-1, a.shape[-1])


def _split(grads: dict, names, stacked_grad: np.ndarray) -> None:
    """Store equal row blocks of ``stacked_grad`` under ``names``, in order."""
    if names:
        grads.update(zip(names, np.split(stacked_grad, len(names))))


def param_gradients(model: SequenceModel, x, target, loss: LossKind,
                    loss_steps) -> dict[str, np.ndarray]:
    """Exact gradient of the summed per-step loss for one rollout.

    ``target[s-1]`` supplies the step-``s`` target: a class index for
    cross-entropy or a length-``c`` vector for MSE.  Only steps listed in
    ``loss_steps`` contribute.
    """
    X = np.asarray(x, dtype=np.float64)[None]
    targets, mask = _masked_targets(target, loss, loss_steps, X.shape[1])
    forward = model.forward_batch(X)
    _, d_ys = masked_loss(forward[0][0], targets, mask, loss)
    return batch_param_gradients(model, X, d_ys[None], forward)
