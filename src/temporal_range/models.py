"""Sequence models: recurrent cell plus affine encoder/decoder readout.

A ``SequenceModel`` maps an observation sequence ``x_1..x_T`` (rows of a
``(T, d)`` array) to one vector output per step.  Observations pass through
an optional tanh encoder, drive the recurrent cell from a zero initial
state, and the decoder reads the first ``hidden_dim`` entries of the state
at every step, so output ``y_s`` depends only on ``x_1..x_s``.

Checkpoints are self-describing JSON, written by ``json.dumps``, that hold
each parameter as one hex string of its little-endian float64 bytes
(``encode_block``), so every value round-trips bit-exactly.  Version 1
checkpoints, one hex-float string per value, still load.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np

from .cells import CellKind, cell_impl, param_shapes, recurrent_stacks, stacked
from .errors import FormatError, ShapeMismatch, SpecError, VersionError
from .linalg import Rng

__all__ = [
    "CellKind",
    "CellSpec",
    "SequenceModel",
    "Trace",
    "build_shift_copy_model",
    "init_model",
    "load_model",
    "save_model",
]

CHECKPOINT_FORMAT = "temporal-range/model"
CHECKPOINT_VERSION = 2
PARAM_LAYOUT = "<f8"
# Bytes of gate input parts that a forward pass computes (and holds) at
# once: each pass projects into one buffer of this size, or of one step if
# a step needs more.
UNROLL_BUDGET_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """Recurrent cell configuration.

    ``lem_dt`` is the base time step of the LEM cell.  The other kinds
    ignore it, but checkpoints and run manifests record it, so it must be
    finite and > 0 for every kind.
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
        if not 0 < self.lem_dt < math.inf:
            raise SpecError(f"lem_dt must be finite and > 0, got {self.lem_dt}")

    @property
    def step_kwargs(self) -> dict:
        """The cell's constant keyword arguments of ``step``,
        ``step_jacobians`` and ``backward``: LEM's ``dt``."""
        return {"dt": self.lem_dt} if self.kind is CellKind.LEM else {}


@dataclasses.dataclass
class Trace:
    """What a forward pass keeps for the backward pass and the Jacobian
    engine over its T steps of B sequences: the cell inputs ``(T, B,
    d_in)``, the states ``(K, T+1, B, p)`` from the zero initial state, in
    ``K = state_mult`` blocks of width ``p`` (``[h]``, ``[h, c]`` or ``[y,
    z]``), and one buffer ``(T, k, B, p)`` per field of ``k`` gates
    (``cells``), which each step wrote in place along with its new state.
    The states are block-major, so a block's rows over all steps are one
    ``(T*B, p)`` view, the left operand of a weight gradient; the fields
    are step-major, so each step's gates are one contiguous block for the
    elementwise ops of its rules.

    ``step(t)`` is step ``t+1``'s cache, the ``prev, fields`` arguments of
    the cell's rules: views of its previous state ``(K, B, p)`` and of its
    fields, each ``(k, B, p)``; LEM's ``dt`` is passed to the rules apart
    from it (``CellSpec.step_kwargs``).  Training's backward pass and both
    Jacobian engines read these caches; none copies a row of them.
    ``operands`` are the left operands of the recurrent products over all
    steps, as views of the same buffers."""

    cell: CellSpec
    inputs: np.ndarray
    states: np.ndarray
    fields: dict[str, np.ndarray]

    def step(self, t: int) -> tuple:
        return self.states[:, t], tuple(f[t] for f in self.fields.values())

    @property
    def operands(self) -> tuple:
        return cell_impl(self.cell.kind).operands(self.states, self.fields)


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

    def encode(self, X, out=None):
        """Encoder output for rows of step inputs ``(..., d)``, written
        into ``out`` if given (of the dtype of ``X`` and the encoder's
        parameters together)."""
        if self.encoder_dim is None:
            return X
        W, b = self.params["enc_W"].T, self.params["enc_b"]
        if out is None:
            out = np.empty((*X.shape[:-1], self.encoder_dim), np.result_type(X, W, b))
        return np.tanh(_affine(X, W, b, out), out=out)

    def decode(self, h):
        """Decoder readout from rows ``(..., p)`` of the decoder-visible
        state block to outputs ``(..., c)``."""
        return h @ self.params["dec_W"].T + self.params["dec_b"]

    def forward_batch(self, X):
        """Run a real batch ``(B, T, d)``; returns outputs, states and the
        trace.  A complex batch is a ``SpecError``.

        The encoder and every gate's input part are computed ahead of the
        recurrence (``_unroll``), the encoder straight into the trace's
        cell inputs, and the decoder runs once after it, each as a stacked
        product over time-major steps.  A stacked product multiplies each
        step's ``(B, .)`` slice on its own, so the arithmetic at step ``t``
        does not depend on the sequence length or on how many steps are
        projected at once: a prefix run reproduces the full run's outputs
        bit for bit.  The trace's buffers are allocated once per pass; each
        step writes its new state and fields into its slice of them.  The
        states are returned as ``(B, T+1, S)``, the trace's blocks side by
        side: a view of the trace for a one-block cell (GRU, linear
        recurrence), a copy for the LSTM and LEM.
        """
        X = self._check_batch(X)
        if np.iscomplexobj(X):
            raise SpecError("forward_batch is real-valued; complex passes run in outputs")
        B, T, _ = X.shape
        p = self.cell.hidden_dim
        impl = cell_impl(self.cell.kind)
        trace = Trace(cell=self.cell, inputs=np.empty((T, B, self.cell_input_dim)),
                      states=np.zeros((impl.state_mult, T + 1, B, p)),
                      fields={k: np.empty((T, w, B, p)) for k, w in impl.fields.items()})
        for _ in self._unroll(X, trace=trace):
            pass
        ys = self.decode(trace.states[0, 1:])
        states = trace.states.transpose(2, 1, 0, 3).reshape(B, T + 1, self.state_dim)
        return np.swapaxes(ys, 0, 1), states, trace

    def outputs(self, X):
        """``forward_batch(X)[0]`` bit for bit, keeping neither the trace
        nor the states, so memory beyond the outputs does not grow with
        ``T``: the pass holds at most ``UNROLL_BUDGET_BYTES`` of input
        parts (and their encoder outputs), and each state is decoded as
        soon as its step yields it.  Complex observations or parameters
        (the complex-step probes of ``gradients`` and of training's spot
        check) give a complex pass."""
        X = self._check_batch(X)
        dtype = np.result_type(X, *self.params.values())
        ys = np.empty((X.shape[1], X.shape[0], self.output_dim), dtype)
        for t, state in enumerate(self._unroll(X, dtype)):
            ys[t] = self.decode(state[0])
        return np.swapaxes(ys, 0, 1)

    def _unroll(self, X, dtype=np.float64, trace: Trace | None = None):
        """Yield each step's new state ``(K, B, p)`` over a checked batch
        ``X``.  Cell inputs and every gate's input part are computed a
        chunk of steps at a time, as stacked products over the time-major
        observations, into buffers allocated once per pass: the input
        parts into one of ``dtype`` that holds as many steps as fit in
        ``UNROLL_BUDGET_BYTES`` (at least one), the encoder outputs into
        the trace's cell inputs or, without a trace, into one of as many
        steps in the encoder's own dtype.  With a ``trace``, the cell
        inputs, each new state and each field are written into its
        buffers.  Without one, the steps take turns writing into two
        target sets of ``dtype`` allocated once, so a yielded state stays
        valid until the step after next; the sets share their fields,
        which nothing reads after the step."""
        impl = cell_impl(self.cell.kind)
        rec = recurrent_stacks(impl, self.params)
        W = stacked(self.params, impl.input_names).T
        bias = (np.concatenate([self.params[n] for n in impl.bias_names])
                if impl.bias_names else None)
        kwargs = self.cell.step_kwargs
        X_tm = np.swapaxes(X, 0, 1)
        (T, B, _), p = X_tm.shape, self.cell.hidden_dim
        chunk = max(1, min(T, UNROLL_BUDGET_BYTES
                           // max(1, B * W.shape[1] * np.dtype(dtype).itemsize)))
        P = np.empty((chunk, B, W.shape[1]), dtype)
        encoder = self.encoder_dim is not None
        if trace is None:
            inputs = (np.empty((chunk, B, self.encoder_dim), np.result_type(
                X, self.params["enc_W"], self.params["enc_b"])) if encoder else None)
            state = np.zeros((impl.state_mult, B, p), dtype=dtype)
            fields = [np.empty((w, B, p), dtype=dtype) for w in impl.fields.values()]
            targets = itertools.cycle([(new, *fields) for new in np.empty(
                (2, impl.state_mult, B, p), dtype=dtype)])
        else:
            state = trace.states[:, 0]
            targets = zip(trace.states[:, 1:].swapaxes(0, 1), *trace.fields.values())
        for t0 in range(0, T, chunk):
            U = X_tm[t0:t0 + chunk]
            n = len(U)
            if encoder:
                U = self.encode(U, inputs[:n] if trace is None else trace.inputs[t0:t0 + n])
            elif trace is not None:
                trace.inputs[t0:t0 + n] = U
            # zip stops at the chunk's end without drawing another target.
            for proj, out in zip(_affine(U, W, bias, P[:n]), targets):
                state = impl.step(rec, state, proj, out, **kwargs)[0]
                yield state

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.complex128 if np.iscomplexobj(X) else np.float64)
        if X.ndim != 3 or X.shape[2] != self.cell.input_dim:
            raise ShapeMismatch(
                f"expected batch of shape (B, T, {self.cell.input_dim}), got {X.shape}")
        return X


def _affine(A, W, b, out) -> np.ndarray:
    """``out`` holding ``A @ W + b`` (no bias if ``b`` is None), with the
    bits of that expression: the product goes straight into ``out`` when
    it has ``out``'s dtype, and is cast into it otherwise."""
    if out.dtype == np.result_type(A, W):
        np.matmul(A, W, out=out)
    else:
        out[...] = A @ W
    if b is not None:
        out += b
    return out


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
    for name, shape in param_shapes(cell_impl(cell.kind), d_in, cell.hidden_dim).items():
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
    dec_W = np.zeros((c, p))
    dec_W[:, k * d:(k + 1) * d] = U
    params = {"A": np.eye(p, k=-d), "C": np.eye(p, d), "dec_W": dec_W,
              "dec_b": np.zeros(c)}
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
        "params": {name: {"data": encode_block(arr, PARAM_LAYOUT), "shape": list(arr.shape)}
                   for name, arr in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def encode_block(arr: np.ndarray, layout) -> str:
    """An array stored as one hex string of its bytes in ``layout``."""
    return arr.astype(layout, copy=False).tobytes().hex()


def decode_block(raw: str, layout, shape: tuple, what: str) -> np.ndarray:
    """The array of ``shape``, in native byte order, that ``encode_block``
    stored as ``raw``.  ``FormatError`` naming ``what`` unless the byte
    count fits ``shape``."""
    layout, raw = np.dtype(layout), bytes.fromhex(raw)
    if len(raw) != (size := math.prod(shape) * layout.itemsize):
        raise FormatError(f"{what} holds {len(raw)} bytes, not the {size} of shape "
                          f"{shape} that its header declares")
    return np.frombuffer(raw, layout).astype(layout.newbyteorder("=")).reshape(shape)


def _read_versioned_json(path, noun: str, fmt: str, versions: tuple, kind: str,
                         counts: dict, nullable: tuple = ()) -> dict:
    """The JSON object in ``path``.  Raises ``FormatError`` (with the byte
    offset of a parse failure) unless it is UTF-8 text that parses and is
    tagged ``fmt``, ``VersionError`` unless its version is one of
    ``versions``, and ``FormatError`` unless each key of ``counts`` holds a
    JSON integer (not a boolean) of at least its value, or ``null`` if the
    key is ``nullable``; messages call the file a ``noun`` and a ``fmt``
    ``kind``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"corrupt {noun} {path}: not UTF-8 text, {exc.reason} "
                          f"at byte offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"corrupt {noun} {path}: {exc.msg} at byte offset {exc.pos}") from exc
    except RecursionError:
        raise FormatError(f"corrupt {noun} {path}: JSON nested too deeply to parse") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise FormatError(f"{path} is not a {fmt} {kind}")
    if doc.get("version") not in versions:
        raise VersionError(f"unsupported {noun} version {doc.get('version')!r} "
                           f"(expected {' or '.join(map(str, versions))})")
    for key, least in counts.items():
        value = doc.get(key)
        if not (type(value) is int and value >= least or value is None and key in nullable):
            raise FormatError(f"malformed {noun} {path}: {key} must be an integer "
                              f">= {least}, got {json.dumps(value)}")
    return doc


def load_model(path) -> SequenceModel:
    """Load a checkpoint that ``save_model`` wrote, or one of version 1.

    Raises:
        FormatError: unparseable or structurally invalid file (the message
            carries the byte offset for parse failures).
        VersionError: parseable checkpoint with an unsupported version.
    """
    doc = _read_versioned_json(
        path, "checkpoint", CHECKPOINT_FORMAT, (1, CHECKPOINT_VERSION), "checkpoint",
        dict.fromkeys(("input_dim", "hidden_dim", "output_dim", "encoder_dim"), 1),
        nullable=("encoder_dim",))
    try:
        kind = CellKind(doc["cell_kind"])
        spec = CellSpec(kind=kind, input_dim=doc["input_dim"], hidden_dim=doc["hidden_dim"],
                        lem_dt=float.fromhex(doc["lem_dt"]))
        encoder_dim = doc["encoder_dim"]
        output_dim = doc["output_dim"]
        if type(doc["params"]) is not dict:
            raise FormatError(f"malformed checkpoint {path}: params must be a JSON object, "
                              f"got {json.dumps(doc['params'])}")
        params = {}
        for name, entry in doc["params"].items():
            if type(entry) is not dict:
                raise FormatError(f"malformed checkpoint {path}: parameter {name!r} must be "
                                  f"a JSON object, got {json.dumps(entry)}")
            shape = entry["shape"]
            if not (type(shape) is list and all(type(s) is int and s >= 0 for s in shape)):
                raise FormatError(f"malformed checkpoint {path}: parameter {name!r} shape "
                                  f"must be a list of integers >= 0, got {json.dumps(shape)}")
            data = entry["data"]
            if doc["version"] == 1:
                if type(data) is not list:
                    raise FormatError(f"malformed checkpoint {path}: parameter {name!r} data "
                                      f"must be a list of hex-float strings, "
                                      f"got {json.dumps(data)}")
                data = encode_block(np.fromiter(map(float.fromhex, data), float), PARAM_LAYOUT)
            params[name] = decode_block(data, PARAM_LAYOUT, tuple(shape),
                                        f"checkpoint {path}: parameter {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint {path}: {exc}") from exc
    model = SequenceModel(cell=spec, output_dim=output_dim,
                          encoder_dim=encoder_dim, params=params)
    _check_param_shapes(model, path)
    return model


def _check_param_shapes(model: SequenceModel, path) -> None:
    expected = param_shapes(cell_impl(model.cell.kind), model.cell_input_dim,
                            model.cell.hidden_dim)
    if model.encoder_dim is not None:
        expected["enc_W"] = (model.encoder_dim, model.cell.input_dim)
        expected["enc_b"] = (model.encoder_dim,)
    expected["dec_W"] = (model.output_dim, model.cell.hidden_dim)
    expected["dec_b"] = (model.output_dim,)
    got = {k: v.shape for k, v in model.params.items()}
    want = {k: tuple(v) for k, v in expected.items()}
    if got != want:
        raise FormatError(f"checkpoint {path}: parameter shapes {got} do not match spec {want}")
    for name, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"checkpoint {path}: parameter {name!r} contains non-finite values")
