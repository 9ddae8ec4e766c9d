"""Supervised full-sequence training for sequence models.

Gradients come from exact reverse accumulation through the whole unroll
(no truncation; windows are short enough that the bias of truncated
backprop is not worth trading for speed), are clipped by global norm, and
feed a standard Adam update.  Each call spot-checks its analytic gradients
against central finite differences on one minibatch before the loop starts,
so a broken backward rule fails fast instead of training quietly wrong.
"""

from __future__ import annotations

import dataclasses
import enum
import time

import numpy as np

from .errors import DivergenceError, NumericalError, SpecError
from .gradients import LossKind, batch_param_gradients, masked_loss
from .linalg import Rng
from .models import SequenceModel
from .tasks import LabeledSequence

__all__ = [
    "AdamState",
    "Metric",
    "OptConfig",
    "TrainLog",
    "adam_step",
    "clip_by_global_norm",
    "evaluate",
    "train",
]


class Metric(enum.Enum):
    ACCURACY = "accuracy"
    MSE = "mse"


@dataclasses.dataclass(frozen=True)
class OptConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 0.5
    batch_size: int = 32
    steps: int = 2000
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        checks = (
            ("lr", self.lr > 0, "> 0"),
            ("grad_clip", self.grad_clip > 0, "> 0"),
            ("eps", self.eps > 0, "> 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("val_fraction", 0 <= self.val_fraction < 1, "in [0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("steps", self.steps >= 1, ">= 1"),
        )
        for name, ok, want in checks:
            if not ok:
                raise SpecError(f"{name} must be {want}, got {getattr(self, name)!r}")


@dataclasses.dataclass
class AdamState:
    """Adam's step count and moment estimates, each one flat vector over
    the parameters in their mapping's order."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @staticmethod
    def init(params: dict[str, np.ndarray]) -> "AdamState":
        size = sum(p.size for p in params.values())
        return AdamState(step=0, m=np.zeros(size), v=np.zeros(size))


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_by_global_norm(grads: dict[str, np.ndarray], clip: float) -> dict[str, np.ndarray]:
    """Rescale all gradients so their joint norm does not exceed ``clip``."""
    norm = global_norm(grads)
    if norm <= clip:
        return grads
    scale = clip / norm
    return {k: g * scale for k, g in grads.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg: OptConfig) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; inputs are left untouched.

    Raises:
        NumericalError: if any gradient is non-finite (the step is rejected).
    """
    g = np.concatenate([grads[name].ravel() for name in params])
    if not np.all(np.isfinite(g)):
        bad = next(name for name, v in grads.items() if not np.all(np.isfinite(v)))
        raise NumericalError(f"non-finite gradient for parameter {bad!r}")
    t = state.step + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    flat = np.concatenate([p.ravel() for p in params.values()])
    flat = flat - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    ends = np.cumsum([p.size for p in params.values()])[:-1]
    new_params = {name: part.reshape(p.shape) for (name, p), part
                  in zip(params.items(), np.split(flat, ends))}
    return new_params, AdamState(step=t, m=m, v=v)


@dataclasses.dataclass
class TrainLog:
    losses: list[float]
    final_train_metric: float
    final_val_metric: float
    metric: Metric
    wall_time_s: float

    def to_csv(self) -> str:
        lines = ["step,loss"]
        lines.extend(f"{i},{repr(v)}" for i, v in enumerate(self.losses))
        return "\n".join(lines) + "\n"


def stack_sequences(data: list[LabeledSequence]):
    """Observations, targets and masks of ``data`` as batch arrays.

    Raises:
        SpecError: if ``data`` is empty or has no masked step.
    """
    if not data:
        raise SpecError("data must not be empty")
    X = np.stack([s.x for s in data])
    targets = np.stack([s.targets for s in data])
    masks = np.stack([s.mask for s in data])
    if not masks.any():
        raise SpecError("no masked steps in data")
    return X, targets, masks


def _batch_loss_and_grads(model: SequenceModel, X, targets, masks, loss: LossKind,
                          forward=None):
    """Mean-per-masked-step loss and its exact parameter gradients, from
    one forward pass: ``forward`` if given, else ``model.forward_batch(X)``."""
    n_masked = int(masks.sum())
    if n_masked == 0:
        raise SpecError("no masked steps in batch")
    scale = 1.0 / n_masked
    if forward is None:
        forward = model.forward_batch(X)
    total, d_ys = masked_loss(forward[0], targets, masks, loss)
    return total * scale, batch_param_gradients(model, X, d_ys * scale, forward)


def _fd_spot_check(model: SequenceModel, X, targets, masks, loss: LossKind,
                   rng: Rng, n_coords: int = 20, h: float = 1e-5,
                   tol: float = 1e-4) -> None:
    """Compare a few gradient coordinates against central differences."""
    _, grads = _batch_loss_and_grads(model, X, targets, masks, loss)
    scale = 1.0 / int(masks.sum())

    def loss_only(m):
        return masked_loss(m.outputs(X), targets, masks, loss)[0] * scale

    names = sorted(model.params)
    for _ in range(n_coords):
        name = names[int(rng.integers(0, len(names)))]
        flat_index = int(rng.integers(0, model.params[name].size))
        probe = model.copy()
        arr = probe.params[name].ravel()
        orig = arr[flat_index]
        arr[flat_index] = orig + h
        f_plus = loss_only(probe)
        arr[flat_index] = orig - h
        f_minus = loss_only(probe)
        arr[flat_index] = orig
        fd = (f_plus - f_minus) / (2.0 * h)
        an = float(grads[name].ravel()[flat_index])
        rel = abs(fd - an) / max(1.0, abs(fd), abs(an))
        if rel > tol:
            raise NumericalError(
                f"analytic gradient disagrees with finite differences for "
                f"{name}[{flat_index}]: analytic={an!r}, fd={fd!r}, rel={rel:.3e}")


def train(model: SequenceModel, data: list[LabeledSequence], cfg: OptConfig,
          loss: LossKind = LossKind.CROSS_ENTROPY,
          metric: Metric = Metric.ACCURACY) -> tuple[SequenceModel, TrainLog]:
    """Train a copy of ``model`` on ``data``; the input model is unchanged.

    The data is shuffled once into train/validation splits and minibatch
    order is drawn from the config seed, so the same (seed, data, config)
    always produces the same parameters.  Divergence (loss above 10x the
    initial value for 100 consecutive steps) aborts with an error rather
    than returning a broken model.
    """
    t0 = time.perf_counter()
    rng = Rng(cfg.seed)
    X, targets, masks = stack_sequences(data)
    n = X.shape[0]
    n_val = min(int(round(n * cfg.val_fraction)), n - 1) if n > 1 else 0
    order = np.asarray(rng.permutation(n))
    val_idx, train_idx = order[:n_val], order[n_val:]
    Xt, Tt, Mt = X[train_idx], targets[train_idx], masks[train_idx]
    model = model.copy()
    state = AdamState.init(model.params)

    check_n = min(4, Xt.shape[0])
    _fd_spot_check(model, Xt[:check_n], Tt[:check_n], Mt[:check_n], loss, rng)

    losses: list[float] = []
    initial_loss = None
    bad_streak = 0
    perm = np.asarray(rng.permutation(Xt.shape[0]))
    cursor = 0
    for step in range(cfg.steps):
        if cursor + cfg.batch_size > perm.size:
            perm = np.asarray(rng.permutation(Xt.shape[0]))
            cursor = 0
        take = min(cfg.batch_size, perm.size)
        idx = perm[cursor:cursor + take]
        cursor += take
        X_step = Xt[idx]
        # The last step's pass is released only once this one is built, so
        # the allocator reuses its buffers instead of returning them to the
        # system and faulting them in again.
        forward = model.forward_batch(X_step)
        value, grads = _batch_loss_and_grads(model, X_step, Tt[idx], Mt[idx], loss,
                                             forward)
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite loss at step {step}")
        grads = clip_by_global_norm(grads, cfg.grad_clip)
        model.params, state = adam_step(model.params, grads, state, cfg)
        losses.append(value)
        if initial_loss is None:
            initial_loss = value
        bad_streak = bad_streak + 1 if value > 10.0 * initial_loss else 0
        if bad_streak >= 100:
            raise DivergenceError(
                f"loss exceeded 10x the initial value for 100 consecutive "
                f"steps (step {step})")
    del forward
    train_metric = evaluate(model, [data[i] for i in train_idx], metric)
    if val_idx.size:
        val_metric = evaluate(model, [data[i] for i in val_idx], metric)
    else:
        val_metric = train_metric
    log = TrainLog(losses=losses, final_train_metric=train_metric,
                   final_val_metric=val_metric, metric=metric,
                   wall_time_s=time.perf_counter() - t0)
    return model, log


def evaluate(model: SequenceModel, data: list[LabeledSequence],
             metric: Metric = Metric.ACCURACY) -> float:
    """Masked mean of the metric over all valid steps in ``data``."""
    X, targets, masks = stack_sequences(data)
    return score(model.outputs(X), targets, masks, metric)[0]


def score(ys, targets, masks, metric: Metric) -> tuple[float, np.ndarray]:
    """Masked metric of outputs ``ys`` (B, T, c): the mean over all valid
    steps, and each sequence's own mean (0 without valid steps)."""
    if metric is Metric.ACCURACY:
        per_step = ys.argmax(axis=-1) == targets
    elif metric is Metric.MSE:
        diff = ys - targets
        per_step = np.mean(diff * diff, axis=-1)
    else:
        raise SpecError(f"unknown metric: {metric!r}")
    per_step = per_step * masks
    pooled = float(np.sum(per_step) / masks.sum())
    return pooled, per_step.sum(axis=1) / np.maximum(masks.sum(axis=1), 1)
