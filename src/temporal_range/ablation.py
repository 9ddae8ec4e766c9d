"""Behavioral validation via truncated observation windows.

``windowed_forward`` rebuilds the hidden state at every step from only the
last ``m`` observations (cold restart from the zero state), which turns
"how far back does the model look" into a measurable performance question:
sweeping ``m`` produces a curve whose knee marks the smallest window that
preserves full-context behavior, and the deployment check compares the
window suggested by a measured range against half that window.

All windows of a sweep share their cold-restart passes.  A pass that starts
from the zero state after position ``a`` gives, at its ``k``-th step, the
window-``k`` output of step ``a + k``, for every ``k`` at once.  So a sweep
over ``T`` steps makes one full pass, which gives the baseline, every window
``m >= T`` and steps ``1..m`` of every window, plus one pass per start
``a = 1..T-1`` that stops at the largest requested window that fits: at
most ``T + sum_a min(m*, T - a)`` batched cell steps, where ``m*`` is the
largest requested window below ``T``, however many windows there are.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .errors import ShapeMismatch, SpecError
from .metric import TemporalRangeReport
from .models import SequenceModel
from .tasks import Dataset
from .training import _require_labels, score

__all__ = [
    "AblationCurve",
    "DeploymentCheck",
    "ablation_sweep",
    "curve_csv",
    "deployment_check",
    "deployment_windows",
    "knee",
    "sweep_with_deployment",
    "windowed_forward",
]

DEFAULT_WINDOWS = (1, 2, 4, 8, 16, 32)


def _sorted_windows(windows) -> list[int]:
    """The distinct ``windows`` in increasing order; none at all, or one
    that is not an integer >= 1, is a ``SpecError``."""
    windows = list(windows)
    if not windows or not all(isinstance(m, numbers.Integral) and m >= 1 for m in windows):
        raise SpecError(f"windows must be integers >= 1, got {windows}")
    return sorted(set(map(int, windows)))


def windowed_forward(model: SequenceModel, x, m: int) -> np.ndarray:
    """Outputs ``(T, c)`` when each step sees only the last ``m`` observations.

    The output at step ``s`` comes from running the cell from the zero
    state over ``x[s-m+1 .. s]``; with ``m >= T`` this reproduces the
    ordinary forward pass exactly.
    """
    m, = _sorted_windows([m])
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected observation sequence of shape (T, d), got {x.shape}")
    return _windowed_outputs(model, x[None], [m])[m][0]


def _windowed_outputs(model: SequenceModel, X, windows) -> dict[int, np.ndarray]:
    """Windowed outputs (B, T, c) of a batch ``X`` (B, T, d) for each
    window, and the full-context outputs under the key ``T``, from the
    shared passes of the module docstring, each one ``model.outputs``."""
    T = X.shape[1]
    full = model.outputs(X)
    # Steps 1..m of window m are the full pass's; the restarts fill the rest.
    ys = {m: full.copy() for m in windows if m < T}
    short = sorted(ys)
    for a in range(1, T - short[0] + 1) if short else ():
        fits = [m for m in short if m <= T - a]
        part = model.outputs(X[:, a:a + fits[-1]])
        for m in fits:
            ys[m][:, a + m - 1] = part[:, m - 1]
    return {m: ys.get(m, full) for m in (*windows, T)}


@dataclasses.dataclass
class AblationCurve:
    """Per-window masked accuracy against the full-context baseline;
    ``normalized`` is each window's accuracy divided by the baseline."""

    windows: list[int]
    mean: list[float]
    std: list[float]
    normalized: list[float]
    baseline: float


def ablation_sweep(model: SequenceModel, data: Dataset,
                   windows=DEFAULT_WINDOWS) -> AblationCurve:
    """Evaluate the model under each window and normalize to full context.

    Every window and the baseline come from one set of shared cold-restart
    passes (see the module docstring)."""
    _require_labels(data)
    windows = _sorted_windows(windows)
    ys = _windowed_outputs(model, data.x, windows)
    baseline = score(ys[data.x.shape[1]], data.targets, data.mask)[0]
    if baseline == 0:
        raise SpecError("cannot normalize against a zero baseline")
    means, stds, normalized = [], [], []
    for m in windows:
        pooled, per_seq = score(ys[m], data.targets, data.mask)
        means.append(pooled)
        stds.append(float(np.std(per_seq)))
        normalized.append(pooled / baseline)
    return AblationCurve(windows=windows, mean=means, std=stds,
                         normalized=normalized, baseline=baseline)


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


def deployment_windows(report: TemporalRangeReport) -> tuple[int, int]:
    """The window ``ceil(rho_hat + 1)`` and half of it,
    ``ceil((rho_hat + 1) / 2)``; a degenerate report is a ``SpecError``."""
    if report.degenerate:
        raise SpecError("deployment check requires a non-degenerate range report")
    return math.ceil(report.rho_hat + 1.0), math.ceil((report.rho_hat + 1.0) / 2.0)


def deployment_check(model: SequenceModel, data: Dataset,
                     report: TemporalRangeReport) -> DeploymentCheck:
    """Evaluate at window ``ceil(rho_hat + 1)`` and at half that window.

    Retention is windowed performance relative to the full-context
    baseline (ratios may exceed 1; they are reported raw).
    """
    return sweep_with_deployment(model, data, (), report)[1]


def sweep_with_deployment(model: SequenceModel, data: Dataset, windows,
                          report: TemporalRangeReport
                          ) -> tuple[AblationCurve, DeploymentCheck]:
    """``ablation_sweep`` over ``windows`` and ``deployment_check`` from one
    sweep over their union with the deployment windows: one baseline and
    one set of cold-restart passes."""
    windows = tuple(windows)
    window, half = deployment_windows(report)
    sweep = ablation_sweep(model, data, (*windows, window, half))
    at = {m: i for i, m in enumerate(sweep.windows)}
    keep = [at[m] for m in sorted(set(windows))]
    curve = dataclasses.replace(sweep, **{
        field: [getattr(sweep, field)[i] for i in keep]
        for field in ("windows", "mean", "std", "normalized")})
    check = DeploymentCheck(
        tr_value=report.rho_hat, window=window, half_window=half,
        baseline=sweep.baseline,
        perf_window=sweep.mean[at[window]], perf_half=sweep.mean[at[half]],
        retention_window=sweep.normalized[at[window]],
        retention_half=sweep.normalized[at[half]],
    )
    return curve, check


def curve_csv(curve: AblationCurve) -> str:
    lines = ["window,mean,std,normalized"]
    for m, mean, std, norm in zip(curve.windows, curve.mean, curve.std,
                                  curve.normalized):
        lines.append(f"{m},{mean!r},{std!r},{norm!r}")
    return "\n".join(lines) + "\n"
