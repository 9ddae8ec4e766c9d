"""Behavioral validation via truncated observation windows.

``windowed_forward`` rebuilds the hidden state at every step from only the
last ``m`` observations (cold restart from the zero state), which turns
"how far back does the model look" into a measurable performance question:
sweeping ``m`` produces a curve whose knee marks the smallest window that
preserves full-context behavior, and the deployment check compares the
window suggested by a measured range against half that window.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import SpecError
from .metric import TemporalRangeReport
from .models import OutputSequence, SequenceModel
from .tasks import LabeledSequence
from .training import Metric, evaluate, score, stack_sequences

__all__ = [
    "AblationCurve",
    "DeploymentCheck",
    "ablation_sweep",
    "curve_csv",
    "deployment_check",
    "knee",
    "windowed_forward",
]

DEFAULT_WINDOWS = (1, 2, 4, 8, 16, 32)


def windowed_forward(model: SequenceModel, x, m: int) -> OutputSequence:
    """Outputs when each step sees only the last ``m`` observations.

    The output at step ``s`` comes from running the cell from the zero
    state over ``x[s-m+1 .. s]``; with ``m >= T`` this reproduces the
    ordinary forward pass exactly.  The returned state trajectory holds
    the restarted state that produced each step's output.
    """
    if m < 1:
        raise SpecError(f"window must be >= 1, got {m}")
    x = np.asarray(x, dtype=np.float64)
    runs = [model.forward(x[max(0, s - m):s]) for s in range(1, x.shape[0] + 1)]
    return OutputSequence(
        outputs=np.array([run.outputs[-1] for run in runs]),
        states=np.array([np.zeros(model.state_dim)] + [run.states[-1] for run in runs]))


def _windowed_outputs(model: SequenceModel, X, m: int) -> np.ndarray:
    """``windowed_forward`` outputs of a batch (B, T, d) for a window
    ``m >= 1``, from ``model.outputs``, which keeps no trace; by the prefix
    property one pass over ``X[:, :m]`` gives steps ``1..m``."""
    T = X.shape[1]
    if m >= T:
        return model.outputs(X)
    ys = np.empty((X.shape[0], T, model.output_dim))
    ys[:, :m] = model.outputs(X[:, :m])
    for s in range(m + 1, T + 1):
        ys[:, s - 1] = model.outputs(X[:, s - m:s])[:, -1]
    return ys


@dataclasses.dataclass
class AblationCurve:
    """Per-window performance against the full-context baseline.

    ``normalized`` is mean performance divided by the baseline for
    higher-is-better metrics; for MSE it is baseline divided by the
    windowed error, so values near 1 always mean "close to full context".
    """

    windows: list[int]
    mean: list[float]
    std: list[float]
    normalized: list[float]
    baseline: float
    metric: Metric


def _evaluate_windowed(model: SequenceModel, data: list[LabeledSequence],
                       m: int, metric: Metric) -> tuple[float, float]:
    """Pooled metric plus its per-sequence standard deviation."""
    X, targets, masks = stack_sequences(data)
    pooled, per_seq = score(_windowed_outputs(model, X, m), targets, masks, metric)
    return pooled, float(np.std(per_seq))


def _normalize(value: float, baseline: float, metric: Metric) -> float:
    if metric is Metric.MSE:
        if value <= 0:
            return 1.0 if baseline <= 0 else math.inf
        return baseline / value
    if baseline == 0:
        raise SpecError("cannot normalize against a zero baseline")
    return value / baseline


def ablation_sweep(model: SequenceModel, data: list[LabeledSequence],
                   windows=DEFAULT_WINDOWS, metric: Metric = Metric.ACCURACY) -> AblationCurve:
    """Evaluate the model under each window and normalize to full context."""
    if not data:
        raise SpecError("ablation requires evaluation data")
    windows = sorted(set(int(m) for m in windows))
    if not windows or windows[0] < 1:
        raise SpecError(f"windows must be distinct integers >= 1, got {windows}")
    baseline = evaluate(model, data, metric)
    means, stds, normalized = [], [], []
    for m in windows:
        pooled, std = _evaluate_windowed(model, data, m, metric)
        means.append(pooled)
        stds.append(std)
        normalized.append(_normalize(pooled, baseline, metric))
    return AblationCurve(windows=windows, mean=means, std=stds,
                         normalized=normalized, baseline=baseline, metric=metric)


def knee(curve: AblationCurve, threshold: float = 0.9) -> int | None:
    """Smallest tested window whose normalized performance reaches the
    threshold fraction of the baseline; None when no window qualifies."""
    if not 0 < threshold <= 1:
        raise SpecError(f"threshold must lie in (0, 1], got {threshold}")
    for m, norm in zip(curve.windows, curve.normalized):
        if norm >= threshold:
            return m
    return None


@dataclasses.dataclass
class DeploymentCheck:
    """Retention when deploying with a range-derived window vs half of it."""

    tr_value: float
    window: int
    half_window: int
    baseline: float
    perf_window: float
    perf_half: float
    retention_window: float
    retention_half: float
    metric: Metric


def deployment_check(model: SequenceModel, data: list[LabeledSequence],
                     report: TemporalRangeReport,
                     metric: Metric = Metric.ACCURACY) -> DeploymentCheck:
    """Evaluate at window ``ceil(rho_hat + 1)`` and at half that window.

    Retention is windowed performance relative to the full-context
    baseline (ratios may exceed 1; they are reported raw).
    """
    if report.degenerate or report.rho_hat is None:
        raise SpecError("deployment check requires a non-degenerate range report")
    window = math.ceil(report.rho_hat + 1.0)
    half = math.ceil((report.rho_hat + 1.0) / 2.0)
    baseline = evaluate(model, data, metric)
    perf_window, _ = _evaluate_windowed(model, data, window, metric)
    perf_half, _ = _evaluate_windowed(model, data, half, metric)
    return DeploymentCheck(
        tr_value=report.rho_hat, window=window, half_window=half,
        baseline=baseline, perf_window=perf_window, perf_half=perf_half,
        retention_window=_normalize(perf_window, baseline, metric),
        retention_half=_normalize(perf_half, baseline, metric),
        metric=metric,
    )


def curve_csv(curve: AblationCurve) -> str:
    lines = ["window,mean,std,normalized"]
    for m, mean, std, norm in zip(curve.windows, curve.mean, curve.std,
                                  curve.normalized):
        lines.append(f"{m},{mean!r},{std!r},{norm!r}")
    return "\n".join(lines) + "\n"
