"""Supervised full-sequence training for sequence models.

Gradients come from exact reverse accumulation through the whole unroll
(no truncation; windows are short enough that the bias of truncated
backprop is not worth trading for speed), are clipped by global norm, and
feed a standard Adam update.  Each call spot-checks its analytic gradient
against the complex-step derivative along one random direction on one
minibatch before the loop starts, so a broken backward rule fails fast
instead of training quietly wrong.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .errors import DivergenceError, NumericalError, SpecError
from .gradients import COMPLEX_STEP, LossKind, batch_param_gradients, masked_loss
from .linalg import Rng
from .models import SequenceModel
from .tasks import Dataset

__all__ = [
    "AdamState",
    "OptConfig",
    "TrainLog",
    "adam_step",
    "clip_by_global_norm",
    "evaluate",
    "train",
]


# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Share of the data ``train`` holds out for validation (none of a single
# sequence).
VAL_FRACTION = 0.1
# The largest relative residual the spot check before training accepts.
FD_CHECK_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class OptConfig:
    lr: float = 3e-4
    grad_clip: float = 0.5
    batch_size: int = 32
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        checks = (
            ("lr", 0 < self.lr < np.inf, "finite and > 0"),
            ("grad_clip", 0 < self.grad_clip < np.inf, "finite and > 0"),
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
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    flat = np.concatenate([p.ravel() for p in params.values()])
    flat = flat - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    ends = np.cumsum([p.size for p in params.values()])[:-1]
    new_params = {name: part.reshape(p.shape) for (name, p), part
                  in zip(params.items(), np.split(flat, ends))}
    return new_params, AdamState(step=t, m=m, v=v)


@dataclasses.dataclass
class TrainLog:
    losses: list[float]
    final_train_metric: float
    final_val_metric: float
    wall_time_s: float
    # The spot check's relative residual.
    grad_check_residual: float

    def to_csv(self) -> str:
        lines = ["step,loss"]
        lines.extend(f"{i},{repr(v)}" for i, v in enumerate(self.losses))
        return "\n".join(lines) + "\n"


def _require_labels(data: Dataset) -> None:
    """Raises ``SpecError`` if ``data`` is empty or has no masked step."""
    if not data:
        raise SpecError("data must not be empty")
    if not data.mask.any():
        raise SpecError("no masked steps in data")


def _batch_loss_and_grads(model: SequenceModel, X, targets, masks, forward):
    """Mean-per-masked-step cross-entropy and its exact parameter
    gradients, from the caller's ``forward = model.forward_batch(X)``."""
    n_masked = int(masks.sum())
    if n_masked == 0:
        raise SpecError("no masked steps in batch")
    scale = 1.0 / n_masked
    total, d_ys = masked_loss(forward[0], targets, masks, LossKind.CROSS_ENTROPY)
    return float(total) * scale, batch_param_gradients(model, X, d_ys * scale, forward)


def _fd_spot_check(model: SequenceModel, X, targets, masks, rng: Rng) -> float:
    """Compare the analytic gradient with the complex-step derivative along
    one Gaussian direction ``v`` over every parameter, drawn from a child of
    ``rng`` so the stream itself does not move: ``Im L(theta + ihv) / h =
    grad L . v`` from one complex ``outputs`` pass.  A wrong coordinate
    shifts ``grad L . v`` with probability 1.  Returns the relative
    residual."""
    _, grads = _batch_loss_and_grads(model, X, targets, masks, model.forward_batch(X))
    child = rng.split(1)[0]
    v = {name: child.gaussian(size=p.shape) for name, p in model.params.items()}
    probe = dataclasses.replace(model, params={
        name: p + 1j * COMPLEX_STEP * v[name] for name, p in model.params.items()})
    loss = masked_loss(probe.outputs(X), targets, masks, LossKind.CROSS_ENTROPY)[0]
    cs = float(loss.imag) / int(masks.sum()) / COMPLEX_STEP
    an = float(sum(np.sum(g * v[name]) for name, g in grads.items()))
    rel = abs(cs - an) / max(1.0, abs(cs), abs(an))
    if rel > FD_CHECK_TOL:
        raise NumericalError(
            f"analytic gradient disagrees with the complex-step derivative along a "
            f"random direction: analytic={an!r}, complex step={cs!r}, rel={rel:.3e}")
    return rel


def train(model: SequenceModel, data: Dataset,
          cfg: OptConfig) -> tuple[SequenceModel, TrainLog]:
    """Train a copy of ``model`` on ``data`` by masked cross-entropy; the
    input model is unchanged.  The log's metrics are masked accuracies.

    The data is shuffled once into train/validation splits and minibatch
    order is drawn from the config seed, so the same (seed, data, config)
    always produces the same parameters.  Divergence (loss above 10x the
    initial value for 100 consecutive steps) aborts with an error rather
    than returning a broken model.
    """
    t0 = time.perf_counter()
    rng = Rng(cfg.seed)
    _require_labels(data)
    n = len(data)
    n_val = min(int(round(n * VAL_FRACTION)), n - 1) if n > 1 else 0
    order = np.asarray(rng.permutation(n))
    val, fit = data[order[:n_val]], data[order[n_val:]]
    model = model.copy()
    state = AdamState.init(model.params)

    check = fit[:4]
    residual = _fd_spot_check(model, check.x, check.targets, check.mask, rng)

    losses: list[float] = []
    initial_loss = None
    bad_streak = 0
    perm = np.asarray(rng.permutation(len(fit)))
    cursor = 0
    for step in range(cfg.steps):
        if cursor + cfg.batch_size > perm.size:
            perm = np.asarray(rng.permutation(len(fit)))
            cursor = 0
        take = min(cfg.batch_size, perm.size)
        idx = perm[cursor:cursor + take]
        cursor += take
        X_step = fit.x[idx]
        # The last step's pass is released only once this one is built, so
        # the allocator reuses its buffers instead of returning them to the
        # system and faulting them in again.
        forward = model.forward_batch(X_step)
        value, grads = _batch_loss_and_grads(model, X_step, fit.targets[idx], fit.mask[idx],
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
    train_metric = evaluate(model, fit)
    val_metric = evaluate(model, val) if val else train_metric
    log = TrainLog(losses=losses, final_train_metric=train_metric,
                   final_val_metric=val_metric, wall_time_s=time.perf_counter() - t0,
                   grad_check_residual=residual)
    return model, log


def evaluate(model: SequenceModel, data: Dataset) -> float:
    """Masked accuracy over all valid steps in ``data``."""
    _require_labels(data)
    return score(model.outputs(data.x), data.targets, data.mask)[0]


def score(ys, targets, masks) -> tuple[float, np.ndarray]:
    """Masked accuracy of outputs ``ys`` (B, T, c) against class-index
    ``targets`` (B, T): the mean over all valid steps, and each sequence's
    own mean (0 without valid steps)."""
    per_step = (ys.argmax(axis=-1) == targets) * masks
    pooled = float(np.sum(per_step) / masks.sum())
    return pooled, per_step.sum(axis=1) / np.maximum(masks.sum(axis=1), 1)
