"""Sequence models: recurrent cell plus affine encoder/decoder readout.

A ``SequenceModel`` maps an observation sequence ``x_1..x_T`` (rows of a
``(T, d)`` array) to one vector output per step.  Observations pass through
an optional tanh encoder, drive the recurrent cell from a zero initial
state, and the decoder reads the first ``hidden_dim`` entries of the state
at every step, so output ``y_s`` depends only on ``x_1..x_s``.

Checkpoints are self-describing JSON with hex-float parameter payloads,
which round-trips every float64 value bit-exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np

from .cells import CellKind, cell_impl, recurrent_stacks, stacked
from .errors import FormatError, ShapeMismatch, SpecError, VersionError
from .linalg import Rng

__all__ = [
    "CellKind",
    "CellSpec",
    "OutputSequence",
    "SequenceModel",
    "Trace",
    "build_shift_copy_model",
    "init_model",
    "load_model",
    "save_model",
]

CHECKPOINT_FORMAT = "temporal-range/model"
CHECKPOINT_VERSION = 1
# Steps whose encoder outputs and gate input parts a forward pass computes
# (and holds) at once.
UNROLL_CHUNK_STEPS = 8


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """Recurrent cell configuration.

    ``lem_dt`` is the base time step of the LEM cell and is ignored by the
    other kinds.
    """

    kind: CellKind
    input_dim: int
    hidden_dim: int
    lem_dt: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "hidden_dim", int(self.hidden_dim))
        object.__setattr__(self, "lem_dt", float(self.lem_dt))
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise SpecError(
                f"cell dims must be >= 1, got input_dim={self.input_dim}, "
                f"hidden_dim={self.hidden_dim}")
        if self.kind is CellKind.LEM and not self.lem_dt > 0:
            raise SpecError(f"lem_dt must be > 0, got {self.lem_dt}")

    @property
    def step_kwargs(self) -> dict:
        """The cell's constant arguments of ``step``, also kept in each
        step's cache: LEM's ``dt``."""
        return {"dt": self.lem_dt} if self.kind is CellKind.LEM else {}


@dataclasses.dataclass
class OutputSequence:
    """Per-step outputs ``(T, c)`` and the state trajectory ``(T+1, S)``."""

    outputs: np.ndarray
    states: np.ndarray


@dataclasses.dataclass
class Trace:
    """What a forward pass keeps for the backward pass and the Jacobian
    engine, time-major over its T steps of B sequences: the cell inputs
    ``(T, B, d_in)``, the states ``(T+1, B, S)`` from the zero initial
    state, and one buffer ``(T, B, k)`` per field of the cell
    (``cells``), which each step wrote in place along with its new state.

    ``steps[t]`` is step ``t+1``'s cache: the cell's named views of its
    previous state and its fields, plus the cell's constant arguments.
    ``operands`` are the left operands of the recurrent products over all
    steps, as views of the same buffers."""

    cell: CellSpec
    inputs: np.ndarray
    states: np.ndarray
    fields: dict[str, np.ndarray]

    @property
    def steps(self) -> list[dict]:
        views = cell_impl(self.cell.kind).views(self.states[:-1], self.fields)
        return [dict(zip(views, step), **self.cell.step_kwargs)
                for step in zip(*views.values())]

    @property
    def operands(self) -> tuple:
        return cell_impl(self.cell.kind).operands(self.states, self.fields)

    def repeated_step(self, t: int, n: int) -> dict:
        """``steps[t]`` with every sequence's row repeated ``n`` times: the
        previous state and the fields are repeated once each and the views
        are taken of the copies."""
        fields = {k: np.repeat(v[t], n, axis=0) for k, v in self.fields.items()}
        views = cell_impl(self.cell.kind).views(
            np.repeat(self.states[t], n, axis=0), fields)
        return dict(views, **self.cell.step_kwargs)


@dataclasses.dataclass
class SequenceModel:
    """A recurrent cell with affine encoder/decoder readout.

    ``params`` is a flat name -> float64 array mapping.  Encoder parameters
    (present only when ``encoder_dim`` is set) are ``enc_W``/``enc_b``; the
    decoder is ``dec_W``/``dec_b``; remaining names belong to the cell.
    """

    cell: CellSpec
    output_dim: int
    encoder_dim: int | None
    params: dict[str, np.ndarray]

    @property
    def state_dim(self) -> int:
        return self.cell.hidden_dim * cell_impl(self.cell.kind).state_mult

    @property
    def cell_input_dim(self) -> int:
        return self.encoder_dim if self.encoder_dim is not None else self.cell.input_dim

    def copy(self) -> "SequenceModel":
        return SequenceModel(
            cell=self.cell,
            output_dim=self.output_dim,
            encoder_dim=self.encoder_dim,
            params={k: v.copy() for k, v in self.params.items()},
        )

    def encode(self, X):
        """Encoder output for step inputs ``(..., d)``."""
        if self.encoder_dim is None:
            return X
        return np.tanh(X @ self.params["enc_W"].T + self.params["enc_b"])

    def decode(self, states):
        """Decoder readout from states ``(..., S)`` to outputs ``(..., c)``."""
        p = self.cell.hidden_dim
        return states[..., :p] @ self.params["dec_W"].T + self.params["dec_b"]

    def forward(self, x) -> OutputSequence:
        """Run the model over one observation sequence ``(T, d)``."""
        x = self._check_sequence(x)
        ys, states, _ = self.forward_batch(x[None])
        return OutputSequence(outputs=ys[0], states=states[0])

    def forward_batch(self, X):
        """Run a batch ``(B, T, d)``; returns outputs, states and the trace.

        The encoder and every gate's input part are computed ahead of the
        recurrence (``_unroll``) and the decoder runs once after it, each
        as a stacked product over time-major steps.  A stacked product
        multiplies each step's ``(B, .)`` slice on its own, so the
        arithmetic at step ``t`` does not depend on the sequence length: a
        prefix run reproduces the full run's outputs bit for bit.  The
        trace's buffers are allocated once per pass; each step writes its
        new state and fields into its slice of them.
        """
        X = self._check_batch(X)
        B, T, _ = X.shape
        p = self.cell.hidden_dim
        fields = cell_impl(self.cell.kind).fields
        trace = Trace(cell=self.cell, inputs=np.empty((T, B, self.cell_input_dim)),
                      states=np.zeros((T + 1, B, self.state_dim)),
                      fields={k: np.empty((T, B, w * p)) for k, w in fields.items()})
        for _ in self._unroll(X, trace):
            pass
        ys = self.decode(trace.states[1:])
        return np.swapaxes(ys, 0, 1), np.swapaxes(trace.states, 0, 1), trace

    def outputs(self, X):
        """``forward_batch(X)[0]`` bit for bit, keeping neither the trace
        nor the states, so memory beyond the outputs does not grow with
        ``T``."""
        X = self._check_batch(X)
        ys = np.empty((X.shape[1], X.shape[0], self.output_dim))
        for t, state in enumerate(self._unroll(X)):
            ys[t] = self.decode(state)
        return np.swapaxes(ys, 0, 1)

    def _unroll(self, X, trace: Trace | None = None):
        """Yield each step's new state over a checked batch ``X``.  Cell
        inputs and every gate's input part are computed
        ``UNROLL_CHUNK_STEPS`` steps at a time, as stacked products over the
        time-major observations.  With a ``trace``, the cell inputs, each
        new state and each field are written into its buffers; without
        one, every step allocates its own."""
        impl = cell_impl(self.cell.kind)
        rec = recurrent_stacks(impl, self.params)
        W = stacked(self.params, impl.input_names).T
        bias = stacked(self.params, impl.bias_names) if impl.bias_names else None
        kwargs = self.cell.step_kwargs
        X_tm = np.swapaxes(X, 0, 1)
        if trace is None:
            state, targets = np.zeros((X.shape[0], self.state_dim)), itertools.repeat(None)
        else:
            state, targets = trace.states[0], zip(trace.states[1:], *trace.fields.values())
        for t0 in range(0, X_tm.shape[0], UNROLL_CHUNK_STEPS):
            U = self.encode(X_tm[t0:t0 + UNROLL_CHUNK_STEPS])
            if trace is not None:
                trace.inputs[t0:t0 + len(U)] = U
            P = U @ W
            if bias is not None:
                P += bias
            # zip stops at the chunk's end without drawing another target.
            for proj, out in zip(P, targets):
                state = impl.step(rec, state, proj, out, **kwargs)[0]
                yield state

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[2] != self.cell.input_dim:
            raise ShapeMismatch(
                f"expected batch of shape (B, T, {self.cell.input_dim}), got {X.shape}")
        return X

    def _check_sequence(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.cell.input_dim:
            raise ShapeMismatch(
                f"expected observation sequence of shape (T, {self.cell.input_dim}), "
                f"got {x.shape}")
        if x.shape[0] < 1:
            raise ShapeMismatch("observation sequence must have at least one step")
        return x


def _glorot(rng: Rng, shape) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    fan_out, fan_in = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(size=shape, low=-limit, high=limit)


def init_model(cell: CellSpec, output_dim: int, rng: Rng,
               encoder_dim: int | None = None) -> SequenceModel:
    """Initialize a model with fan-scaled uniform weights and zero biases.

    Parameters are drawn in a fixed order (encoder, cell, decoder), so the
    same seed always produces bit-identical parameters.  ``encoder_dim``
    of ``None`` means the identity encoder: the cell sees raw observations.
    """
    if output_dim < 1:
        raise SpecError(f"output_dim must be >= 1, got {output_dim}")
    if encoder_dim is not None and encoder_dim < 1:
        raise SpecError(f"encoder_dim must be >= 1 or None, got {encoder_dim}")
    params: dict[str, np.ndarray] = {}
    if encoder_dim is not None:
        params["enc_W"] = _glorot(rng, (encoder_dim, cell.input_dim))
        params["enc_b"] = np.zeros(encoder_dim)
    d_in = encoder_dim if encoder_dim is not None else cell.input_dim
    for name, shape in cell_impl(cell.kind).param_shapes(d_in, cell.hidden_dim).items():
        params[name] = _glorot(rng, shape)
    params["dec_W"] = _glorot(rng, (output_dim, cell.hidden_dim))
    params["dec_b"] = np.zeros(output_dim)
    return SequenceModel(cell=cell, output_dim=output_dim,
                         encoder_dim=encoder_dim, params=params)


def build_shift_copy_model(k: int, d: int, readout=None) -> SequenceModel:
    """Exact delay line: a linear recurrence realizing ``y_s = U x_{s-k}``.

    The hidden state is ``k+1`` stacked blocks of size ``d`` acting as a
    shift register: the transition shifts every block down by one slot, the
    input matrix writes ``x_s`` into block 0, and the decoder applies the
    readout ``U`` to block ``k``.  For ``s <= k`` the read block is still
    zero, so ``y_s = 0``.  With ``k = 0`` this is the memoryless model
    ``y_s = U x_s``.
    """
    if k < 0:
        raise SpecError(f"shift offset k must be >= 0, got {k}")
    if d < 1:
        raise SpecError(f"observation dim must be >= 1, got {d}")
    U = np.eye(d) if readout is None else np.asarray(readout, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != d:
        raise ShapeMismatch(f"readout must be (c, {d}), got {U.shape}")
    c = U.shape[0]
    p = (k + 1) * d
    A = np.zeros((p, p))
    for j in range(k):
        A[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = np.eye(d)
    C = np.zeros((p, d))
    C[:d, :] = np.eye(d)
    dec_W = np.zeros((c, p))
    dec_W[:, k * d:(k + 1) * d] = U
    params = {"A": A, "C": C, "dec_W": dec_W, "dec_b": np.zeros(c)}
    spec = CellSpec(kind=CellKind.LINEAR_REC, input_dim=d, hidden_dim=p)
    return SequenceModel(cell=spec, output_dim=c, encoder_dim=None, params=params)


def save_model(model: SequenceModel, path) -> None:
    """Write a checkpoint; ``load_model`` restores it bit-exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "cell_kind": model.cell.kind.value,
        "input_dim": model.cell.input_dim,
        "hidden_dim": model.cell.hidden_dim,
        "lem_dt": model.cell.lem_dt.hex(),
        "output_dim": model.output_dim,
        "encoder_dim": model.encoder_dim,
        "params": {
            name: {"shape": list(arr.shape),
                   "data": [v.hex() for v in arr.ravel().tolist()]}
            for name, arr in model.params.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> SequenceModel:
    """Load a checkpoint written by ``save_model``.

    Raises:
        FormatError: unparseable or structurally invalid file (the message
            carries the byte offset for parse failures).
        VersionError: parseable checkpoint with an unsupported version.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"corrupt checkpoint {path}: {exc.msg} at byte offset {exc.pos}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{path} is not a {CHECKPOINT_FORMAT} checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise VersionError(
            f"unsupported checkpoint version {doc.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})")
    try:
        kind = CellKind(doc["cell_kind"])
        spec = CellSpec(kind=kind, input_dim=int(doc["input_dim"]),
                        hidden_dim=int(doc["hidden_dim"]),
                        lem_dt=float.fromhex(doc["lem_dt"]))
        encoder_dim = doc["encoder_dim"]
        output_dim = int(doc["output_dim"])
        params = {}
        for name, entry in doc["params"].items():
            shape = tuple(int(s) for s in entry["shape"])
            flat = np.array([float.fromhex(v) for v in entry["data"]], dtype=np.float64)
            if flat.size != int(np.prod(shape)):
                raise FormatError(
                    f"parameter {name!r}: {flat.size} values for shape {shape}")
            params[name] = flat.reshape(shape)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint {path}: {exc}") from exc
    model = SequenceModel(cell=spec, output_dim=output_dim,
                          encoder_dim=encoder_dim, params=params)
    _check_param_shapes(model)
    return model


def _check_param_shapes(model: SequenceModel) -> None:
    expected = dict(cell_impl(model.cell.kind).param_shapes(
        model.cell_input_dim, model.cell.hidden_dim))
    if model.encoder_dim is not None:
        expected["enc_W"] = (model.encoder_dim, model.cell.input_dim)
        expected["enc_b"] = (model.encoder_dim,)
    expected["dec_W"] = (model.output_dim, model.cell.hidden_dim)
    expected["dec_b"] = (model.output_dim,)
    got = {k: v.shape for k, v in model.params.items()}
    want = {k: tuple(v) for k, v in expected.items()}
    if got != want:
        raise FormatError(f"parameter shapes {got} do not match spec {want}")
    for name, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"parameter {name!r} contains non-finite values")
