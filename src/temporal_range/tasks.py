"""Desk-scale tasks: symbol-recall datasets and a cart-pole simulator.

Symbol tasks emit one-hot observation sequences with per-step class
targets and a validity mask; the cart-pole side provides the standard
benchmark dynamics, partial-observation variants, a hand-tuned balancing
expert, and imitation datasets of (observation sequence, expert action)
pairs for behavior cloning.

Datasets are stored in a versioned JSON container whose header records
the generating task, its parameters, and the seed.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math

import numpy as np

from .errors import EpisodeFinished, FormatError, SpecError
from .linalg import Rng
from .models import _array_json, _object_json, _read_versioned_json, _write_json

__all__ = [
    "CartPoleState",
    "CopyTaskSpec",
    "LabeledSequence",
    "ObsKind",
    "ObsVariant",
    "cartpole_step",
    "expert_action",
    "gen_copyk",
    "gen_imitation",
    "gen_repeatfirst",
    "load_dataset",
    "observe",
    "run_expert_episode",
    "save_dataset",
]

DATASET_FORMAT = "temporal-range/dataset"
DATASET_VERSION = 1

# Community-standard cart-pole constants (Euler integration).
GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
POLE_HALF_LENGTH = 0.5
FORCE_MAG = 10.0
TAU = 0.02
X_LIMIT = 2.4
THETA_LIMIT = 12.0 * math.pi / 180.0
EPISODE_CAP = 500

# Full-state linear feedback gains for the balancing expert, ordered as
# (x, x_dot, theta, theta_dot).  Chosen so episodes from small random
# initial states survive past the episode cap.
EXPERT_GAINS = (1.0, 2.0, 18.0, 4.0)


@dataclasses.dataclass
class LabeledSequence:
    """One training sequence: observations, per-step targets, loss mask.

    Targets are class indices ``(T,)``; the mask ``(T,)`` marks the steps
    where a target is defined.

    Raises:
        SpecError: naming the first observation row with a non-finite
            entry, target that is not a non-negative integer or mask entry
            that is not 0 or 1, or a shape mismatch.
    """

    x: np.ndarray
    targets: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if not np.isfinite(self.x).all():
            bad = _first_entry(self.x, lambda row: np.isfinite(row).all())
            raise SpecError(f"observation {bad} is not finite")
        targets, mask = np.asarray(self.targets), np.asarray(self.mask)
        T = self.x.shape[0]
        if targets.shape != (T,) or mask.shape != (T,):
            raise SpecError(f"{targets.shape} targets and {mask.shape} mask entries "
                            f"for {T} steps")
        # Unsigned values of 2**63 and more turn negative here and fail too.
        ints = targets.astype(np.int64) if targets.dtype.kind in "biu" else None
        if ints is None or ints.min(initial=0) < 0:
            bad = _first_entry(self.targets, lambda v: isinstance(v, int) and 0 <= v < 2 ** 63)
            raise SpecError(f"target {bad} is not a class index (a non-negative integer)")
        if mask.dtype != bool and not ((mask == 0) | (mask == 1)).all():
            bad = _first_entry(self.mask, lambda v: v in (0, 1))
            raise SpecError(f"mask entry {bad} is not 0 or 1")
        self.targets, self.mask = ints, mask.astype(bool, copy=False)


def _first_entry(values, ok) -> str:
    """``"<value> at step <s>"`` for the first entry of ``values`` (a list or
    an array, as given) that ``ok`` rejects; step 0 if it accepts them all."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    step = next((s for s, v in enumerate(values) if not ok(v)), 0)
    return f"{values[step]!r} at step {step}"


@dataclasses.dataclass(frozen=True)
class CopyTaskSpec:
    """Recall the symbol seen exactly ``k`` steps ago."""

    k: int
    T: int
    V: int = 4

    def __post_init__(self):
        if not 1 <= self.k <= self.T - 1:
            raise SpecError(f"need 1 <= k <= T-1, got k={self.k}, T={self.T}")
        if self.V < 2:
            raise SpecError(f"vocabulary size must be >= 2, got {self.V}")


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


def _symbol_sequences(symbols: np.ndarray, V: int, targets: np.ndarray,
                      first: int) -> list[LabeledSequence]:
    """One sequence per row of ``symbols`` and ``targets`` ``(n, T)``: the
    one-hot symbols, with targets masked in from step ``first`` on.  No two
    sequences share an element."""
    x = _one_hot(symbols, V)
    mask = np.zeros(symbols.shape, dtype=bool)
    mask[:, first:] = True
    return [LabeledSequence(x=x[i], targets=targets[i], mask=mask[i])
            for i in range(len(x))]


def gen_copyk(spec: CopyTaskSpec, n: int, rng: Rng) -> list[LabeledSequence]:
    """I.i.d. uniform symbols; target at step s is the symbol at s - k."""
    symbols = _symbol_draw(rng, spec.V, n, spec.T)
    targets = np.zeros_like(symbols)
    targets[:, spec.k:] = symbols[:, :spec.T - spec.k]
    return _symbol_sequences(symbols, spec.V, targets, spec.k)


def gen_repeatfirst(T: int, V: int, n: int, rng: Rng) -> list[LabeledSequence]:
    """Every step from the second onward must recall the first symbol."""
    if T < 2:
        raise SpecError(f"need T >= 2, got {T}")
    if V < 2:
        raise SpecError(f"vocabulary size must be >= 2, got {V}")
    symbols = _symbol_draw(rng, V, n, T)
    targets = np.repeat(symbols[:, :1], T, axis=1)
    targets[:, 0] = 0
    return _symbol_sequences(symbols, V, targets, 1)


@dataclasses.dataclass(frozen=True)
class CartPoleState:
    x: float
    x_dot: float
    theta: float
    theta_dot: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.x_dot, self.theta, self.theta_dot])

    @property
    def done(self) -> bool:
        return bool(_terminal(self.x, self.theta))


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


def cartpole_step(state: CartPoleState, action: int) -> tuple[CartPoleState, bool]:
    """One Euler step of the standard cart-pole dynamics.

    ``action`` is 0 (push left) or 1 (push right).  Returns the successor
    state and its termination flag.

    Raises:
        EpisodeFinished: if ``state`` is already terminal.
    """
    if state.done:
        raise EpisodeFinished("cartpole_step called on a terminated episode")
    if action not in (0, 1):
        raise SpecError(f"action must be 0 or 1, got {action}")
    new = CartPoleState(*map(float, _euler_step(
        state.x, state.x_dot, state.theta, state.theta_dot, action)))
    return new, new.done


class ObsKind(enum.Enum):
    FULL = "full"
    STATELESS = "stateless"
    NOISY_STATELESS = "noisy_stateless"


@dataclasses.dataclass(frozen=True)
class ObsVariant:
    """Observation channel: full state, positions only, or noisy positions.

    The stateless variants hide the velocities and expose ``(x, theta)``.
    ``sigma`` must be finite for every kind (dataset headers record it) and
    positive for the noisy one.
    """

    kind: ObsKind = ObsKind.FULL
    sigma: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.sigma) or (
                self.kind is ObsKind.NOISY_STATELESS and not self.sigma > 0):
            raise SpecError(f"noise sigma must be finite and > 0, got {self.sigma}")


def observe(state: CartPoleState, variant: ObsVariant, rng: Rng | None = None) -> np.ndarray:
    """Project a state onto the observation channel, adding noise if asked."""
    if variant.kind is ObsKind.FULL:
        return state.as_array()
    obs = np.array([state.x, state.theta])
    if variant.kind is ObsKind.NOISY_STATELESS:
        if rng is None:
            raise SpecError("noisy observations require an rng")
        obs = obs + rng.gaussian(size=2, std=variant.sigma)
    return obs


def _expert_actions(x, x_dot, theta, theta_dot):
    """Full-state linear feedback: 1 (push right) where the gain score is
    >= 0, else 0."""
    w = EXPERT_GAINS
    return (w[0] * x + w[1] * x_dot + w[2] * theta + w[3] * theta_dot >= 0) * 1


def expert_action(state: CartPoleState) -> int:
    """Full-state linear feedback: push right iff the gain score is >= 0."""
    return int(_expert_actions(state.x, state.x_dot, state.theta, state.theta_dot))


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


def run_expert_episode(rng: Rng, max_steps: int = EPISODE_CAP):
    """Roll the expert from a random small start; returns (states, actions).

    ``states[i]`` is the state in which ``actions[i]`` was taken; the run
    stops at termination or after ``max_steps`` actions.
    """
    state = CartPoleState(*_random_starts(rng, 1)[0].tolist())
    states = []
    actions = []
    for _ in range(max_steps):
        a = expert_action(state)
        states.append(state)
        actions.append(a)
        state, done = cartpole_step(state, a)
        if done:
            break
    return states, actions


def gen_imitation(variant: ObsVariant, n: int, T: int, rng: Rng) -> list[LabeledSequence]:
    """Behavior-cloning sequences: partial observations, expert actions.

    Each sequence is a fresh ``T``-step expert rollout; rollouts that
    terminate early (the expert practically never does) are resampled.
    Targets are the expert's actions and every step is masked in.

    The episodes still needed are rolled together, and the draws follow the
    order of one ``run_expert_episode`` and ``observe`` at a time: a start,
    then (noisy variant) its ``T`` noise pairs, which only a full-length
    episode draws.  So when a noisy episode ends early, the stream returns
    to just after its start and the episodes drawn after it are redrawn.
    """
    if T < 2:
        raise SpecError(f"need T >= 2, got {T}")
    _check_count(n)
    noisy = variant.kind is ObsKind.NOISY_STATELESS
    sequences = []
    while len(sequences) < n:
        k = n - len(sequences)
        if noisy:
            starts, after_start, noise = [], [], []
            for _ in range(k):
                starts.append(_random_starts(rng, 1)[0])
                after_start.append(rng.save_state())
                noise.append(rng.gaussian(size=(T, 2), std=variant.sigma))
            starts = np.array(starts)
        else:
            starts = _random_starts(rng, k)
        states, actions, ended = _expert_rollouts(starts, T)
        keep = np.flatnonzero(~ended)
        if noisy and ended.any():
            first = int(np.argmax(ended))
            rng.restore_state(after_start[first])
            keep = keep[keep < first]
        obs = states if variant.kind is ObsKind.FULL else states[..., [0, 2]]
        obs = np.ascontiguousarray(np.swapaxes(obs, 0, 1))
        for j in keep:
            sequences.append(LabeledSequence(
                x=obs[j] + noise[j] if noisy else obs[j],
                targets=actions[:, j],
                mask=np.ones(T, dtype=bool),
            ))
    return sequences


def save_dataset(sequences: list[LabeledSequence], path, task: str,
                 spec: dict, seed: int) -> None:
    """Write sequences with a self-describing header to a JSON container."""
    if not sequences:
        raise SpecError("refusing to save an empty dataset")
    T, d = sequences[0].x.shape
    doc = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "task": task,
        "spec": spec,
        "seed": seed,
        "n": len(sequences),
        "T": T,
        "d": d,
        "sequences": [],
    }
    _write_json(path, doc, "sequences", (
        _object_json({"x": _array_json(seq.x, 3), "targets": _array_json(seq.targets, 3),
                      "mask": _array_json(seq.mask, 3)}, 2)
        for seq in sequences))


def load_dataset(path) -> tuple[list[LabeledSequence], dict]:
    """Read a dataset container; returns (sequences, header).  A header
    declaring no sequences, sequences whose count, ``x`` shape, targets or
    mask disagree with the header's n, T and d, and targets or mask entries
    that ``LabeledSequence`` rejects raise ``FormatError`` (naming the first
    bad sequence)."""
    doc = _read_versioned_json(path, "dataset", DATASET_FORMAT, DATASET_VERSION,
                               "container")
    try:
        header = {k: doc[k] for k in ("task", "spec", "seed", "n", "T", "d")}
        if header["n"] == 0:
            raise FormatError(f"dataset {path} is empty: its header declares n=0")
        if len(doc["sequences"]) != header["n"]:
            raise FormatError(f"dataset {path} holds {len(doc['sequences'])} "
                              f"sequences, its header declares n={header['n']!r}")
        sequences = []
        for i, entry in enumerate(doc["sequences"]):
            rows = entry["x"]
            values = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(rows)),
                                 dtype=np.float64)
            widths = sorted(set(map(len, rows)))
            if len(widths) > 1:
                raise FormatError(f"dataset {path}: sequence {i} has rows of {widths} "
                                  f"values, its header declares d={header['d']!r}")
            shape = (len(rows), *widths)
            if shape != (header["T"], header["d"]):
                raise FormatError(f"dataset {path}: sequence {i} has shape {shape}, its "
                                  f"header declares T={header['T']!r}, d={header['d']!r}")
            try:
                sequences.append(LabeledSequence(x=values.reshape(shape),
                                                 targets=entry["targets"],
                                                 mask=entry["mask"]))
            except SpecError as exc:
                raise FormatError(f"dataset {path}: sequence {i}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed dataset {path}: {exc}") from exc
    return sequences, header
