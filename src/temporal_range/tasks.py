"""Desk-scale tasks: symbol-recall datasets and a cart-pole simulator.

A ``Dataset`` holds sequences of one length as three arrays: observations,
per-step class targets and a validity mask.  Symbol tasks emit one-hot
observation sequences; the cart-pole side provides the standard benchmark
dynamics, partial-observation variants, a hand-tuned balancing expert, and
imitation datasets of (observation sequence, expert action) pairs for
behavior cloning.

Each task is one frozen spec class in ``TASKS``, which validates its
fields, generates sequences and gives their class count and width.

Datasets are stored in a versioned JSON container whose header records
the task's name, its spec's fields, and the seed; version 2 stores each
array as one hex string of its bytes, and version 1 files still load.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import FormatError, SpecError
from .linalg import Rng
from .models import _read_versioned_json, decode_block, encode_block

__all__ = [
    "CopyTaskSpec",
    "Dataset",
    "ImitationSpec",
    "LabeledSequence",
    "OBS_VARIANTS",
    "RepeatFirstSpec",
    "TASKS",
    "gen_copyk",
    "gen_imitation",
    "header_spec",
    "load_dataset",
    "save_dataset",
]

DATASET_FORMAT = "temporal-range/dataset"
DATASET_VERSION = 2
# The little-endian byte layout of each array of a version 2 container.
DATASET_ARRAYS = {"x": "<f8", "targets": "<i8", "mask": "u1"}

# Community-standard cart-pole constants (Euler integration).
GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
POLE_HALF_LENGTH = 0.5
FORCE_MAG = 10.0
TAU = 0.02
X_LIMIT = 2.4
THETA_LIMIT = 12.0 * math.pi / 180.0

# Full-state linear feedback gains for the balancing expert, ordered as
# (x, x_dot, theta, theta_dot).  Chosen so episodes from small random
# initial states survive at least 500 steps.
EXPERT_GAINS = (1.0, 2.0, 18.0, 4.0)


class LabeledSequence(NamedTuple):
    """One sequence of a ``Dataset``: views of its observations ``(T, d)``,
    class-index targets ``(T,)`` and loss mask ``(T,)``."""

    x: np.ndarray
    targets: np.ndarray
    mask: np.ndarray


@dataclasses.dataclass
class Dataset:
    """Sequences of one length: observations ``x`` ``(n, T, d)``, class-index
    ``targets`` ``(n, T)`` and a loss ``mask`` ``(n, T)`` marking the steps
    where a target is defined.

    An integer index or iteration yields ``LabeledSequence`` rows; any other
    index (a slice or an index array) yields a ``Dataset``.

    Raises:
        SpecError: on a shape mismatch, or naming the first sequence that
            has an observation row with a non-finite entry, a target that is
            not a non-negative integer or a mask entry that is not 0 or 1
            (checked in that order within the sequence).
    """

    x: np.ndarray
    targets: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        targets, mask = np.asarray(self.targets), np.asarray(self.mask)
        if self.x.ndim != 3 or not targets.shape == self.x.shape[:2] == mask.shape:
            raise SpecError(f"{targets.shape} targets and {mask.shape} mask entries "
                            f"for {self.x.shape} observations")
        # (sequence, message) of each check's first failure, in check order.
        problems = []
        if not np.isfinite(self.x).all():
            i, bad = _first_entry(self.x, lambda row: np.isfinite(row).all())
            problems.append((i, f"observation {bad} is not finite"))
        # Unsigned values of 2**63 and more turn negative here and fail too.
        ints = targets.astype(np.int64, copy=False) if targets.dtype.kind in "biu" else None
        if ints is None or ints.min(initial=0) < 0:
            i, bad = _first_entry(self.targets,
                                  lambda v: isinstance(v, int) and 0 <= v < 2 ** 63)
            problems.append((i, f"target {bad} is not a class index (a non-negative integer)"))
        if mask.dtype != bool and not ((mask == 0) | (mask == 1)).all():
            i, bad = _first_entry(self.mask, lambda v: v in (0, 1))
            problems.append((i, f"mask entry {bad} is not 0 or 1"))
        if problems:
            # min keeps the first of equal sequences: check order breaks ties.
            i, message = min(problems, key=lambda problem: problem[0])
            raise SpecError(f"sequence {i}: {message}")
        self.targets, self.mask = ints, mask.astype(bool, copy=False)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index):
        parts = self.x[index], self.targets[index], self.mask[index]
        if isinstance(index, numbers.Integral):
            return LabeledSequence(*parts)
        return Dataset(*parts)

    def __iter__(self):
        return map(LabeledSequence, self.x, self.targets, self.mask)


def _first_entry(values, ok) -> tuple[int, str]:
    """The sequence ``i`` and ``"<value> at step <s>"`` of the first entry
    of ``values`` (rows of nested lists or an array, as given) that ``ok``
    rejects; the first entry if it accepts them all."""
    rows = values.tolist() if isinstance(values, np.ndarray) else values
    entries = [(i, s, v) for i, row in enumerate(rows) for s, v in enumerate(row)]
    i, step, value = next((e for e in entries if not ok(e[2])), entries[0])
    return i, f"{value!r} at step {step}"


def _check_types(spec) -> None:
    """``SpecError`` unless each field of ``spec`` is of its annotated type
    exactly (so ``True`` is no ``int`` and ``1`` no ``float``)."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if type(value).__name__ != field.type:
            raise SpecError(f"{field.name} must be of type {field.type}, got {value!r}")


@dataclasses.dataclass(frozen=True)
class CopyTaskSpec:
    """Recall the symbol seen exactly ``k`` steps ago."""

    task = "copy"
    k: int
    T: int
    V: int = 4

    def __post_init__(self):
        _check_types(self)
        if not 1 <= self.k <= self.T - 1:
            raise SpecError(f"need 1 <= k <= T-1, got k={self.k}, T={self.T}")
        if self.V < 2:
            raise SpecError(f"vocabulary size must be >= 2, got {self.V}")

    n_classes = d = property(lambda self: self.V)  # one-hot symbols

    def generate(self, n: int, rng: Rng) -> Dataset:
        return gen_copyk(self, n, rng)


@dataclasses.dataclass(frozen=True)
class RepeatFirstSpec:
    """Every step from the second onward must recall the first symbol."""

    task = "repeatfirst"
    T: int
    V: int

    def __post_init__(self):
        _check_types(self)
        if self.T < 2:
            raise SpecError(f"need T >= 2, got {self.T}")
        if self.V < 2:
            raise SpecError(f"vocabulary size must be >= 2, got {self.V}")

    n_classes = d = property(lambda self: self.V)  # one-hot symbols

    def generate(self, n: int, rng: Rng) -> Dataset:
        symbols = _symbol_draw(rng, self.V, n, self.T)
        targets = np.repeat(symbols[:, :1], self.T, axis=1)
        targets[:, 0] = 0
        return _symbol_dataset(symbols, self.V, targets, 1)


# Cart-pole observations: the full state, positions only, noisy positions.
OBS_VARIANTS = ("full", "stateless", "noisy")


@dataclasses.dataclass(frozen=True)
class ImitationSpec:
    """Imitate the cart-pole expert from the observations of ``variant``.

    The stateless variants hide the velocities and expose ``(x, theta)``.
    ``sigma``, the noise std, must be finite for every variant (dataset
    headers record it) and positive for the noisy one.
    """

    task = "cartpole"
    variant: str
    sigma: float
    T: int
    n_classes = 2  # the expert's actions
    d = property(lambda self: 4 if self.variant == "full" else 2)

    def __post_init__(self):
        _check_types(self)
        if self.variant not in OBS_VARIANTS:
            raise SpecError(f"variant must be one of {', '.join(OBS_VARIANTS)}, "
                            f"got {self.variant!r}")
        if not math.isfinite(self.sigma) or (self.variant == "noisy" and not self.sigma > 0):
            raise SpecError(f"noise sigma must be finite and > 0, got {self.sigma}")
        if self.T < 2:
            raise SpecError(f"need T >= 2, got {self.T}")

    def generate(self, n: int, rng: Rng) -> Dataset:
        return gen_imitation(self, n, rng)


# Every task, by the name a dataset header records.
TASKS = {spec.task: spec for spec in (CopyTaskSpec, RepeatFirstSpec, ImitationSpec)}


def _one_hot(symbols: np.ndarray, V: int) -> np.ndarray:
    out = np.zeros(symbols.shape + (V,))
    np.put_along_axis(out, symbols[..., None], 1.0, axis=-1)
    return out


def _symbol_draw(rng: Rng, V: int, n: int, T: int) -> np.ndarray:
    """The symbols ``(n, T)`` of ``n`` sequences from one draw: the values,
    and the stream's next position, of ``n`` draws of ``T`` symbols each."""
    _check_count(n)
    return rng.integers(0, V, size=(n, T))


def _check_count(n: int) -> None:
    if n < 0:
        raise SpecError(f"need n >= 0 sequences, got {n}")


def _symbol_dataset(symbols: np.ndarray, V: int, targets: np.ndarray,
                    first: int) -> Dataset:
    """The one-hot ``symbols`` ``(n, T)`` with their ``targets``, masked in
    from step ``first`` on."""
    mask = np.zeros(symbols.shape, dtype=bool)
    mask[:, first:] = True
    return Dataset(x=_one_hot(symbols, V), targets=targets, mask=mask)


def gen_copyk(spec: CopyTaskSpec, n: int, rng: Rng) -> Dataset:
    """I.i.d. uniform symbols; target at step s is the symbol at s - k."""
    symbols = _symbol_draw(rng, spec.V, n, spec.T)
    targets = np.zeros_like(symbols)
    targets[:, spec.k:] = symbols[:, :spec.T - spec.k]
    return _symbol_dataset(symbols, spec.V, targets, spec.k)


# The dynamics below take the state's fields as floats (one state) or as
# arrays of one shape (a batch).  Every operation is elementwise, in the
# order of the reference formulas, so a state steps to the same bits alone
# or in a batch.

def _terminal(x, theta):
    """Termination flags of cart positions and pole angles."""
    return (abs(x) > X_LIMIT) | (abs(theta) > THETA_LIMIT)


def _euler_step(x, x_dot, theta, theta_dot, action) -> tuple:
    """One Euler step of the standard cart-pole dynamics under ``action``
    (0 pushes left, 1 right); returns the successor's fields."""
    force = FORCE_MAG * (2 * action - 1)
    total_mass = CART_MASS + POLE_MASS
    polemass_length = POLE_MASS * POLE_HALF_LENGTH
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    temp = (force + polemass_length * theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t ** 2 / total_mass))
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    return (x + TAU * x_dot, x_dot + TAU * x_acc,
            theta + TAU * theta_dot, theta_dot + TAU * theta_acc)


def _expert_actions(x, x_dot, theta, theta_dot):
    """Full-state linear feedback: 1 (push right) where the gain score is
    >= 0, else 0."""
    w = EXPERT_GAINS
    return (w[0] * x + w[1] * x_dot + w[2] * theta + w[3] * theta_dot >= 0) * 1


def _random_starts(rng: Rng, k: int) -> np.ndarray:
    """``k`` small random start states ``(k, 4)``: one draw, the same
    stream as ``k`` draws of one state each."""
    return rng.uniform(size=(k, 4), low=-0.05, high=0.05)


def _expert_rollouts(starts, T: int):
    """Roll the expert from every start ``(k, 4)`` at once for ``T``
    actions: the states ``(T, k, 4)`` the actions ``(T, k)`` were taken in,
    and whether each episode terminated before its ``T``-th action.  A
    terminated episode stays in its last state."""
    states = np.empty((T, *starts.shape))
    actions = np.empty(states.shape[:-1], dtype=np.int64)
    ended = np.zeros(starts.shape[0], dtype=bool)
    states[0] = starts
    for t in range(T):
        fields = states[t].T
        actions[t] = _expert_actions(*fields)
        if t + 1 < T:
            new = np.stack(_euler_step(*fields, actions[t]), axis=-1)
            states[t + 1] = np.where(ended[:, None], states[t], new)
            ended |= _terminal(states[t + 1, :, 0], states[t + 1, :, 2])
    return states, actions, ended


def gen_imitation(spec: ImitationSpec, n: int, rng: Rng) -> Dataset:
    """Behavior-cloning sequences: partial observations, expert actions.

    Each sequence is a fresh ``spec.T``-step expert rollout; rollouts that
    terminate early (the expert practically never does) are resampled.
    Targets are the expert's actions and every step is masked in.

    Each round rolls the ``k`` episodes still needed together: it draws
    their starts ``(k, 4)`` and then (noisy variant) their noise
    ``(k, T, 2)``, and keeps the full-length episodes in order.
    """
    _check_count(n)
    T = spec.T
    columns = [0, 1, 2, 3] if spec.variant == "full" else [0, 2]
    x, targets = np.empty((0, T, len(columns))), np.empty((0, T), dtype=np.int64)
    while len(x) < n:
        k = n - len(x)
        states, actions, ended = _expert_rollouts(_random_starts(rng, k), T)
        obs = np.swapaxes(states[..., columns], 0, 1)
        if spec.variant == "noisy":
            obs = obs + rng.gaussian(size=(k, T, 2), std=spec.sigma)
        x = np.concatenate([x, obs[~ended]])
        targets = np.concatenate([targets, actions.T[~ended]])
    return Dataset(x=x, targets=targets, mask=np.ones((n, T), dtype=bool))


def header_spec(header: dict):
    """The spec of a dataset ``header`` as ``save_dataset`` writes it: a task
    in ``TASKS``, exactly that task's fields (none defaulted), an integer
    seed >= 0 and the spec's ``T`` and ``d``; else ``SpecError`` (or
    ``TypeError`` on a field the task lacks)."""
    task, fields, seed = header["task"], header["spec"], header["seed"]
    if not (isinstance(task, str) and task in TASKS):
        raise SpecError(f"task must be one of {', '.join(TASKS)}, got {json.dumps(task)}")
    spec = TASKS[task](**fields)
    got, want = (json.dumps(v, sort_keys=True) for v in (fields, dataclasses.asdict(spec)))
    if got != want:
        raise SpecError(f"spec is {got}, but gen-data writes {want} for it")
    if type(seed) is not int or seed < 0:
        raise SpecError(f"seed must be an integer >= 0, got {json.dumps(seed)}")
    if (header["T"], header["d"]) != (spec.T, spec.d):
        raise SpecError(f"T={header['T']}, d={header['d']} are not the T={spec.T}, "
                        f"d={spec.d} of task {task} with spec {want}")
    return spec


def _check_classes(data: Dataset, spec) -> None:
    """``SpecError`` naming the first target not below ``spec.n_classes``."""
    if data.targets.max() >= spec.n_classes:
        i, bad = _first_entry(data.targets, lambda v: v < spec.n_classes)
        raise SpecError(f"sequence {i}: target {bad} is not below the "
                        f"{spec.n_classes} classes of task {spec.task}")


def save_dataset(data: Dataset, path, spec, seed: int) -> None:
    """Write sequences that ``spec`` generated from ``seed`` to a JSON
    container; ``SpecError`` if empty or not loadable (see ``header_spec``)."""
    if not data:
        raise SpecError("refusing to save an empty dataset")
    n, T, d = data.x.shape
    header = {"task": spec.task, "spec": dataclasses.asdict(spec), "seed": seed,
              "n": n, "T": T, "d": d}
    _check_classes(data, header_spec(header))
    doc = {"format": DATASET_FORMAT, "version": DATASET_VERSION, **header,
           **{key: encode_block(getattr(data, key), layout)
              for key, layout in DATASET_ARRAYS.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_dataset(path) -> tuple[Dataset, dict]:
    """Read a dataset container of version 2, or of version 1 (written
    before version 2 existed); returns (dataset, header).  A header whose
    n, T and d are not integers (n = 0 declares no sequences) or that
    ``header_spec`` rejects, arrays whose sizes disagree with it, values
    that ``Dataset`` rejects and targets outside the task's classes raise
    ``FormatError`` (naming the first bad sequence)."""
    doc = _read_versioned_json(path, "dataset", DATASET_FORMAT, (1, DATASET_VERSION),
                               "container", {"n": 0, "T": 1, "d": 1})
    try:
        header = {k: doc[k] for k in ("task", "spec", "seed", "n", "T", "d")}
        n, T, d = header["n"], header["T"], header["d"]
        if n == 0:
            raise FormatError(f"dataset {path} is empty: its header declares n=0")
        spec = header_spec(header)
        if doc["version"] == 1:
            arrays = _v1_arrays(doc, path, n, T, d)
        else:
            arrays = [decode_block(doc[key], DATASET_ARRAYS[key], shape, f"dataset {path}: {key}")
                      for key, shape in (("x", (n, T, d)), ("targets", (n, T)), ("mask", (n, T)))]
        try:
            data = Dataset(*arrays)
            _check_classes(data, spec)
        except SpecError as exc:
            raise FormatError(f"dataset {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, SpecError) as exc:
        raise FormatError(f"malformed dataset {path}: {exc}") from exc
    return data, header


def _v1_arrays(doc: dict, path, n: int, T: int, d: int) -> tuple:
    """``x``, ``targets`` and ``mask`` of a version 1 container, which holds
    one entry of hex-float rows and 0/1 lists per sequence; each entry's
    shape is checked against the header in file order."""
    if len(doc["sequences"]) != n:
        raise FormatError(f"dataset {path} holds {len(doc['sequences'])} "
                          f"sequences, its header declares n={n}")
    xs = []
    for i, entry in enumerate(doc["sequences"]):
        rows = entry["x"]
        values = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(rows)),
                             dtype=np.float64)
        widths = sorted(set(map(len, rows)))
        if len(widths) > 1:
            raise FormatError(f"dataset {path}: sequence {i} has rows of {widths} "
                              f"values, its header declares d={d}")
        shape = (len(rows), *widths)
        if shape != (T, d):
            raise FormatError(f"dataset {path}: sequence {i} has shape {shape}, its "
                              f"header declares T={T}, d={d}")
        lengths = len(entry["targets"]), len(entry["mask"])
        if lengths != (T, T):
            raise FormatError(f"dataset {path}: sequence {i} has {lengths[0]} targets "
                              f"and {lengths[1]} mask entries, its header declares T={T}")
        xs.append(values.reshape(shape))
    return (np.stack(xs), [entry["targets"] for entry in doc["sequences"]],
            [entry["mask"] for entry in doc["sequences"]])
