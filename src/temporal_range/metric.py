"""The temporal range metric: influence weights, lag averages, reports.

Position weights summarize how strongly each past step influences later
outputs: under mean aggregation

    w_t = (1 / (T - t)) * sum_{s = t+1..T} ||J[s, t]||

and under max aggregation the sum/count is replaced by the maximum.  In
final-output mode the weights are simply ``w_t = ||J[T, t]||`` for
``t = 1..T`` (lag zero included).  The unnormalized range is
``rho = sum_t w_t * (T - t)`` and the normalized range divides by
``sum_t w_t``, giving a magnitude-weighted average look-back in steps.
A profile whose weights are identically zero has no defined normalized
range; that case is reported as degenerate, never silently as 0 or NaN.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import typing

import numpy as np

from .errors import ConfigError, FormatError, NumericalError, SpecError, VersionError
from .gradients import (JacobianBlocks, JacobianMode, final_output_blocks,
                        multi_output_blocks)
from .linalg import NormKind, mat_norms
from .models import SequenceModel

__all__ = [
    "Aggregation",
    "RangeValues",
    "TRConfig",
    "TemporalRangeReport",
    "analyze",
    "artifact_json",
    "config_fingerprint",
    "influence_weights",
    "profile_csv",
    "range_values",
    "report_json",
    "temporal_range",
]

REPORT_SCHEMA_VERSION = 1


class Aggregation(enum.Enum):
    MEAN = "mean"
    MAX = "max"


@dataclasses.dataclass(frozen=True)
class TRConfig:
    """Analysis configuration; ``T`` is the window length."""

    norm: NormKind = NormKind.FROBENIUS
    aggregation: Aggregation = Aggregation.MEAN
    mode: JacobianMode = JacobianMode.MULTI_OUTPUT
    T: int = 32

    def __post_init__(self):
        if self.T < 2:
            raise SpecError(f"window length T must be >= 2, got {self.T}")

    def as_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "norm": self.norm.value,
            "aggregation": self.aggregation.value,
            "mode": self.mode.value,
            "T": self.T,
        }

    def fingerprint(self) -> str:
        return config_fingerprint(self.as_dict())


def artifact_json(doc) -> str:
    """The text of a JSON artifact: sorted keys, two-space indent, one
    trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_fingerprint(obj) -> str:
    """The first 16 hex digits of the SHA-256 of ``obj``'s JSON with sorted
    keys and no incidental whitespace."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class RangeValues(typing.NamedTuple):
    """(rho, rho_hat) pair; ``rho_hat`` is None for a degenerate profile."""

    rho: float
    rho_hat: float | None

    @property
    def degenerate(self) -> bool:
        return self.rho_hat is None


def _position_weights(step_norms, shape, aggregation: Aggregation) -> np.ndarray:
    """Multi-output weights ``(..., T)``, folding in as they arrive the norms
    ``||J[s, t]||``, ``t = 1..s-1`` on the last axis, for ``s = 2..T``."""
    mean = aggregation is Aggregation.MEAN
    acc = np.zeros(shape)
    for norms in step_norms:
        head = acc[..., :norms.shape[-1]]
        (np.add if mean else np.maximum)(head, norms, out=head)
    if mean:
        acc[..., :-1] /= np.arange(shape[-1] - 1, 0, -1)
    return acc


def influence_weights(blocks: JacobianBlocks, cfg: TRConfig) -> np.ndarray:
    """Aggregate Jacobian block norms into one weight per position: ``(T,)``,
    where ``weights[i]`` belongs to position ``t = i + 1`` at lag ``T - t``.
    In multi-output mode the final position always carries weight zero
    because it has no later outputs to influence."""
    if blocks.mode is not cfg.mode:
        raise ConfigError(
            f"blocks were computed in {blocks.mode.value} mode but the "
            f"configuration requests {cfg.mode.value}")
    if blocks.T != cfg.T:
        raise ConfigError(f"blocks have T={blocks.T}, configuration has T={cfg.T}")
    T = blocks.T
    if cfg.mode is JacobianMode.FINAL_OUTPUT:
        return mat_norms(np.stack([blocks.blocks[T, t] for t in range(1, T + 1)]), cfg.norm)
    stack = [blocks.blocks[s, t] for s in range(2, T + 1) for t in range(1, s)]
    norms = mat_norms(np.stack(stack), cfg.norm)
    # Step s contributes s - 1 norms.
    return _position_weights(np.split(norms, np.cumsum(np.arange(1, T - 1))),
                             (T,), cfg.aggregation)


def range_values(weights) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` and ``rho_hat`` of every profile in a stack of weights
    ``(..., T)``; ``rho_hat`` is NaN where a profile's total weight is <= 0.
    A profile with all its weight at the oldest lag can round ``rho_hat``
    an ulp past ``T-1``; it is held at ``T-1``."""
    w = np.asarray(weights, dtype=np.float64)
    rho = w @ np.arange(w.shape[-1] - 1, -1, -1, dtype=np.float64)
    total = w.sum(axis=-1)
    rho_hat = np.divide(rho, total, out=np.full_like(rho, np.nan), where=total > 0)
    return rho, np.minimum(rho_hat, w.shape[-1] - 1)


def temporal_range(weights) -> RangeValues:
    """Magnitude-weighted lag sum and average of one influence profile
    ``(T,)``: ``range_values`` of a single row."""
    rho, rho_hat = range_values(weights)
    return RangeValues(float(rho), None if np.isnan(rho_hat) else float(rho_hat))


@dataclasses.dataclass
class TemporalRangeReport:
    """Calibration-set summary of the metric for one model.

    ``rho`` and ``rho_hat`` are means of the per-rollout values (the
    headline numbers); ``pooled_rho_hat`` instead averages the weight
    profiles across rollouts first and then takes the lag average.  A
    report is degenerate only when every rollout produced all-zero
    weights, in which case the normalized fields are None; ``degenerate``
    and ``n_degenerate`` are read off the per-rollout values.
    """

    config: TRConfig
    n_rollouts: int
    rho: float
    rho_hat: float | None
    per_rollout_rho: list[float]
    per_rollout_rho_hat: list[float | None]
    rho_hat_std: float | None
    pooled_rho_hat: float | None
    weights_mean: np.ndarray
    weights_std: np.ndarray

    @property
    def n_degenerate(self) -> int:
        return self.per_rollout_rho_hat.count(None)

    @property
    def degenerate(self) -> bool:
        return self.n_degenerate == len(self.per_rollout_rho_hat)


def _summary(cfg: TRConfig, rho, rho_hat, weights_mean, weights_std) -> TemporalRangeReport:
    """The report of per-rollout ``rho`` and ``rho_hat`` (NaN where
    degenerate) and the weights' mean and std by position: every other
    field is derived here, for ``analyze`` and ``report_from_json``.
    Raises ``NumericalError`` if ``rho`` (per rollout, their mean or
    pooled) or a weight mean or std is not finite; callers ignore overflow
    warnings, so that this error is all a user sees."""
    defined = rho_hat[~np.isnan(rho_hat)]
    pooled = temporal_range(weights_mean)
    for name, values in (("rho", [rho.mean(), pooled.rho]), ("weights_mean", weights_mean),
                         ("weights_std", weights_std)):
        if not np.isfinite(values).all():
            raise NumericalError(f"{name} is not finite: the influence weights overflow")
    return TemporalRangeReport(
        config=cfg,
        n_rollouts=len(rho),
        rho=float(rho.mean()),
        rho_hat=float(defined.mean()) if defined.size else None,
        per_rollout_rho=rho.tolist(),
        per_rollout_rho_hat=[None if math.isnan(v) else v for v in rho_hat.tolist()],
        rho_hat_std=float(defined.std()) if defined.size else None,
        pooled_rho_hat=pooled.rho_hat,
        weights_mean=weights_mean,
        weights_std=weights_std,
    )


def analyze(model: SequenceModel, rollouts, cfg: TRConfig) -> TemporalRangeReport:
    """Measure the temporal range of ``model`` over a calibration set.

    Every rollout must be a ``(T, d)`` observation array matching the
    configured window length.  All rollouts go through the Jacobian engine
    as one batch: final-output blocks by reverse accumulation, multi-output
    blocks reduced to norms step by step as they appear, never stored.
    Per-rollout results are listed in rollout order.
    """
    rollouts = [np.asarray(x, dtype=np.float64) for x in rollouts]
    if not rollouts:
        raise SpecError("analyze requires at least one rollout")
    for x in rollouts:
        if x.shape != (cfg.T, model.cell.input_dim):
            raise SpecError(f"rollout shape {x.shape} does not match the configured "
                            f"T={cfg.T} and input dim {model.cell.input_dim}")
    X = np.stack(rollouts)
    if cfg.mode is JacobianMode.FINAL_OUTPUT:
        W = mat_norms(final_output_blocks(model, X), cfg.norm)
    else:
        W = _position_weights((mat_norms(blocks, cfg.norm)
                               for _, blocks in multi_output_blocks(model, X)),
                              (len(rollouts), cfg.T), cfg.aggregation)
    with np.errstate(over="ignore", invalid="ignore"):
        std = W.std(axis=0)
        if not np.isfinite(std).all():
            # Weights that differ by more than about 1e154 overflow the
            # squared deviations; scaled by the largest weight, they do not.
            scale = W.max(axis=0)
            std = scale * (W / np.where(scale > 0.0, scale, 1.0)).std(axis=0)
        return _summary(cfg, *range_values(W), W.mean(axis=0), std)


def report_json(report: TemporalRangeReport) -> str:
    """Serialize a report to deterministic, versioned JSON."""
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "config": report.config.as_dict(),
        "config_fingerprint": report.config.fingerprint(),
        "n_rollouts": report.n_rollouts,
        "degenerate": report.degenerate,
        "n_degenerate_rollouts": report.n_degenerate,
        "rho": report.rho,
        "rho_hat": report.rho_hat,
        "rho_hat_std": report.rho_hat_std,
        "pooled_rho_hat": report.pooled_rho_hat,
        "per_rollout_rho": report.per_rollout_rho,
        "per_rollout_rho_hat": report.per_rollout_rho_hat,
        "weights_mean_by_position": report.weights_mean.tolist(),
        "weights_std_by_position": report.weights_std.tolist(),
    }
    return artifact_json(doc)


def report_from_json(text: str | bytes) -> TemporalRangeReport:
    """Rebuild a report from its JSON serialization, given as text or as
    UTF-8 bytes.

    Only the primary data is checked: the config, ``n_rollouts``, the
    per-rollout values (``rho_hat`` null or in ``[0, T-1]``) and the
    weights (>= 0, each std at most its mean times ``sqrt(n_rollouts-1)``).
    The report is rebuilt from it as ``analyze`` builds it, and each field
    ``report_json`` writes must equal the file's.

    Raises:
        FormatError: on bytes that are not UTF-8, JSON nested too deeply
            to parse, a document that is not an object or lacks a field, a
            primary value of the wrong JSON type, length or range, a
            non-finite number, weights whose rebuilt ``rho`` overflows,
            or a field that differs from what ``analyze`` writes.
        VersionError: on a schema mismatch.
    """
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
        if type(doc) is not dict:
            raise ValueError("not a JSON object")
        if doc["schema"] != REPORT_SCHEMA_VERSION:
            raise VersionError(
                f"unsupported report schema {doc['schema']!r} "
                f"(expected {REPORT_SCHEMA_VERSION})")
        cfg_doc = doc["config"]
        if type(cfg_doc) is not dict:
            raise ValueError(f"config must be a JSON object, got {json.dumps(cfg_doc)}")
        cfg = TRConfig(norm=NormKind(cfg_doc["norm"]),
                       aggregation=Aggregation(cfg_doc["aggregation"]),
                       mode=JacobianMode(cfg_doc["mode"]),
                       T=_count("T", cfg_doc["T"], 2))
        n = _count("n_rollouts", doc["n_rollouts"], 1)
        rho = _numbers("per_rollout_rho", doc["per_rollout_rho"], n)
        rho_hat = _numbers("per_rollout_rho_hat", doc["per_rollout_rho_hat"], n, nullable=True)
        for value in rho_hat:
            if value is not None and not 0.0 <= value <= cfg.T - 1:
                raise ValueError(f"per-rollout rho_hat {value!r} is outside [0, T-1] = "
                                 f"[0, {cfg.T - 1}]")
        weights = [_numbers(name, doc[name], cfg.T)
                   for name in ("weights_mean_by_position", "weights_std_by_position")]
        if (least := min(map(min, weights))) < 0:
            raise ValueError(f"weights must be >= 0, got {least!r}")
        rho, rho_hat, mean, std = (np.array(v, dtype=np.float64)
                                   for v in (rho, rho_hat, *weights))
        with np.errstate(over="ignore", invalid="ignore"):
            # The std of n values >= 0 with mean m is at most m * sqrt(n-1); the
            # std a sum of n terms computes may round about n/4 ulps past it.
            over = std > mean * math.sqrt(n - 1) * (1 + 2 * n * np.finfo(float).eps)
            if over.any():
                i = int(over.argmax())
                raise ValueError(f"weights_std_by_position[{i}] is {weights[1][i]!r}, above "
                                 f"mean * sqrt(n_rollouts - 1) = "
                                 f"{weights[0][i] * math.sqrt(n - 1)!r}")
            report = _summary(cfg, rho, rho_hat, mean, std)
        for key, value in json.loads(report_json(report)).items():
            got, want = (json.dumps(v, sort_keys=True) for v in (doc[key], value))
            if got != want:
                raise ValueError(f"{key} is {got}, but analyze writes {want} for these values")
        return report
    except RecursionError:
        raise FormatError("malformed range report: JSON nested too deeply to parse") from None
    except KeyError as exc:
        raise FormatError(f"malformed range report: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, NumericalError) as exc:
        raise FormatError(f"malformed range report: {exc}") from exc


def _count(name: str, value, low: int) -> int:
    """``value`` if it is a JSON integer of at least ``low``."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer in [{low}, inf], got {json.dumps(value)}")
    return value


def _numbers(name: str, values, n: int, nullable: bool = False) -> list[float | None]:
    """``values`` as floats (a null as None if ``nullable``) if it is a JSON list of ``n``."""
    if type(values) is not list or len(values) != n:
        got = f"{len(values)} entries" if type(values) is list else json.dumps(values)
        raise ValueError(f"{name} must be a list of {n} numbers, got {got}")
    for i, value in enumerate(values):
        if not (type(value) in (int, float) or value is None and nullable):
            raise ValueError(f"{name}[{i}] must be a number{' or null' * nullable}, "
                             f"got {json.dumps(value)}")
    return [value if value is None else float(value) for value in values]


def _finite_float(text: str) -> float:
    """A JSON number or constant (``NaN``, ``Infinity``, ``-Infinity``) as
    a float; ``ValueError`` unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def profile_csv(report: TemporalRangeReport) -> str:
    """Per-lag weight profile as CSV text, ordered by increasing lag."""
    T = report.config.T
    lines = ["lag,weight,weight_std_across_rollouts"]
    for i in range(T - 1, -1, -1):
        lag = T - 1 - i
        mean = repr(float(report.weights_mean[i]))
        std = repr(float(report.weights_std[i]))
        lines.append(f"{lag},{mean},{std}")
    return "\n".join(lines) + "\n"
