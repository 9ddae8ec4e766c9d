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
import json
import math

import numpy as np

from .errors import EpisodeFinished, FormatError, SpecError, VersionError
from .linalg import Rng

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

    Targets are class indices ``(T,)`` for classification or float vectors
    ``(T, c)`` for regression; the mask marks the steps where a target is
    defined.
    """

    x: np.ndarray
    targets: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        if self.targets.dtype.kind in "iu":
            self.targets = self.targets.astype(np.int64)
        else:
            self.targets = self.targets.astype(np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        T = self.x.shape[0]
        if self.targets.shape[0] != T or self.mask.shape != (T,):
            raise SpecError("targets and mask must have one entry per step")


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


def gen_copyk(spec: CopyTaskSpec, n: int, rng: Rng) -> list[LabeledSequence]:
    """I.i.d. uniform symbols; target at step s is the symbol at s - k."""
    sequences = []
    for _ in range(n):
        symbols = np.asarray(rng.integers(0, spec.V, size=spec.T))
        targets = np.zeros(spec.T, dtype=np.int64)
        targets[spec.k:] = symbols[:spec.T - spec.k]
        mask = np.arange(spec.T) >= spec.k
        sequences.append(LabeledSequence(x=_one_hot(symbols, spec.V),
                                         targets=targets, mask=mask))
    return sequences


def gen_repeatfirst(T: int, V: int, n: int, rng: Rng) -> list[LabeledSequence]:
    """Every step from the second onward must recall the first symbol."""
    if T < 2:
        raise SpecError(f"need T >= 2, got {T}")
    if V < 2:
        raise SpecError(f"vocabulary size must be >= 2, got {V}")
    sequences = []
    for _ in range(n):
        symbols = np.asarray(rng.integers(0, V, size=T))
        targets = np.full(T, symbols[0], dtype=np.int64)
        targets[0] = 0
        mask = np.arange(T) >= 1
        sequences.append(LabeledSequence(x=_one_hot(symbols, V),
                                         targets=targets, mask=mask))
    return sequences


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
        return abs(self.x) > X_LIMIT or abs(self.theta) > THETA_LIMIT


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
    force = FORCE_MAG if action == 1 else -FORCE_MAG
    total_mass = CART_MASS + POLE_MASS
    polemass_length = POLE_MASS * POLE_HALF_LENGTH
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    temp = (force + polemass_length * state.theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t ** 2 / total_mass))
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    new = CartPoleState(
        x=state.x + TAU * state.x_dot,
        x_dot=state.x_dot + TAU * x_acc,
        theta=state.theta + TAU * state.theta_dot,
        theta_dot=state.theta_dot + TAU * theta_acc,
    )
    return new, new.done


class ObsKind(enum.Enum):
    FULL = "full"
    STATELESS = "stateless"
    NOISY_STATELESS = "noisy_stateless"


@dataclasses.dataclass(frozen=True)
class ObsVariant:
    """Observation channel: full state, positions only, or noisy positions.

    The stateless variants hide the velocities and expose ``(x, theta)``;
    set ``hide_positions`` to hide ``(x, theta)`` instead and expose the
    velocities.
    """

    kind: ObsKind = ObsKind.FULL
    sigma: float = 0.1
    hide_positions: bool = False

    def __post_init__(self):
        if self.kind is ObsKind.NOISY_STATELESS and not self.sigma > 0:
            raise SpecError(f"noise sigma must be > 0, got {self.sigma}")

    @property
    def dim(self) -> int:
        return 4 if self.kind is ObsKind.FULL else 2


def observe(state: CartPoleState, variant: ObsVariant, rng: Rng | None = None) -> np.ndarray:
    """Project a state onto the observation channel, adding noise if asked."""
    if variant.kind is ObsKind.FULL:
        return state.as_array()
    if variant.hide_positions:
        obs = np.array([state.x_dot, state.theta_dot])
    else:
        obs = np.array([state.x, state.theta])
    if variant.kind is ObsKind.NOISY_STATELESS:
        if rng is None:
            raise SpecError("noisy observations require an rng")
        obs = obs + rng.gaussian(size=2, std=variant.sigma)
    return obs


def expert_action(state: CartPoleState) -> int:
    """Full-state linear feedback: push right iff the gain score is >= 0."""
    w = EXPERT_GAINS
    score = (w[0] * state.x + w[1] * state.x_dot
             + w[2] * state.theta + w[3] * state.theta_dot)
    return 1 if score >= 0 else 0


def _random_start(rng: Rng) -> CartPoleState:
    vals = rng.uniform(size=4, low=-0.05, high=0.05)
    return CartPoleState(*vals.tolist())


def run_expert_episode(rng: Rng, max_steps: int = EPISODE_CAP):
    """Roll the expert from a random small start; returns (states, actions).

    ``states[i]`` is the state in which ``actions[i]`` was taken; the run
    stops at termination or after ``max_steps`` actions.
    """
    state = _random_start(rng)
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
    """
    if T < 2:
        raise SpecError(f"need T >= 2, got {T}")
    sequences = []
    while len(sequences) < n:
        states, actions = run_expert_episode(rng, max_steps=T)
        if len(states) < T:
            continue
        obs = np.stack([observe(s, variant, rng) for s in states])
        sequences.append(LabeledSequence(
            x=obs,
            targets=np.asarray(actions, dtype=np.int64),
            mask=np.ones(T, dtype=bool),
        ))
    return sequences


def save_dataset(sequences: list[LabeledSequence], path, task: str,
                 spec: dict, seed: int) -> None:
    """Write sequences with a self-describing header to a JSON container."""
    if not sequences:
        raise SpecError("refusing to save an empty dataset")
    if any(seq.targets.dtype.kind not in "iu" for seq in sequences):
        raise SpecError("the dataset container stores class-index targets only")
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
        "sequences": [
            {"x": [[v.hex() for v in row] for row in seq.x.tolist()],
             "targets": seq.targets.tolist(),
             "mask": seq.mask.astype(int).tolist()}
            for seq in sequences
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_dataset(path) -> tuple[list[LabeledSequence], dict]:
    """Read a dataset container; returns (sequences, header).  Sequences
    whose count, ``x`` shape, targets or mask disagree with the header's n,
    T and d raise ``FormatError`` naming the first bad sequence."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"corrupt dataset {path}: {exc.msg} at byte offset {exc.pos}") from exc
    if not isinstance(doc, dict) or doc.get("format") != DATASET_FORMAT:
        raise FormatError(f"{path} is not a {DATASET_FORMAT} container")
    if doc.get("version") != DATASET_VERSION:
        raise VersionError(
            f"unsupported dataset version {doc.get('version')!r} "
            f"(expected {DATASET_VERSION})")
    try:
        header = {k: doc[k] for k in ("task", "spec", "seed", "n", "T", "d")}
        if len(doc["sequences"]) != header["n"]:
            raise FormatError(f"dataset {path} holds {len(doc['sequences'])} "
                              f"sequences, its header declares n={header['n']!r}")
        sequences = []
        for i, entry in enumerate(doc["sequences"]):
            x = np.array([[float.fromhex(v) for v in row] for row in entry["x"]])
            if x.shape != (header["T"], header["d"]):
                raise FormatError(f"dataset {path}: sequence {i} has shape {x.shape}, its "
                                  f"header declares T={header['T']!r}, d={header['d']!r}")
            targets = np.asarray(entry["targets"], dtype=np.int64)
            mask = np.asarray(entry["mask"], dtype=bool)
            if targets.shape != (header["T"],) or mask.shape != (header["T"],):
                raise FormatError(f"dataset {path}: sequence {i} has {targets.shape} "
                                  f"targets and {mask.shape} mask entries, its header "
                                  f"declares T={header['T']!r}")
            sequences.append(LabeledSequence(x=x, targets=targets, mask=mask))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed dataset {path}: {exc}") from exc
    return sequences, header
