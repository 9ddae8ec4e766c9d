"""Closed-form calibrations and the axiom suite for the range metric.

Two exactly-solvable settings cross-check the generic Jacobian pipeline:

* finite linear temporal maps ``L(z_1..z_T) = sum_t B_t z_t``, whose
  ranges have the closed forms ``rho = sum_t ||B_t|| (T - t)`` and
  ``rho_hat = rho / sum_t ||B_t||``;
* linear recurrences ``h_{t+1} = A h_t + C x_{t+1}`` with readout
  ``y_T = Q h_T``, whose final-output weights are ``||Q A^(T-t) C||``.

The axiom suite exercises the defining properties of those forms on
randomly sampled maps: single-block calibration (with and without
magnitude), additivity over disjoint time support, absolute homogeneity,
and magnitude-weighted averaging of normalized ranges.  The averaging
identity constrains maps of equal total weight, so its trials sample maps
normalized to unit total block norm.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import SpecError
from .linalg import NormKind, Rng, mat_norms
from .metric import (Aggregation, RangeValues, TRConfig, analyze, artifact_json,
                     range_values, temporal_range)
from .gradients import JacobianMode
from .models import CellKind, CellSpec, SequenceModel, build_shift_copy_model

__all__ = [
    "AxiomReport",
    "LinearTemporalMap",
    "RecurrenceSpec",
    "axiom_suite",
    "copyk_oracle",
    "linear_map_as_model",
    "linear_map_range",
    "pipeline_cross_checks",
    "recurrence_as_model",
    "recurrence_profile",
]

# Window of the delay lines that ``pipeline_cross_checks`` analyzes.
COPYK_CHECK_T = 32


@dataclasses.dataclass
class LinearTemporalMap:
    """Finite map ``z_1..z_T -> sum_t B_t z_t`` stored as blocks (T, c, d)."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=np.float64)
        if self.blocks.ndim != 3:
            raise SpecError(f"blocks must be (T, c, d), got {self.blocks.shape}")


def linear_map_range(L: LinearTemporalMap, norm: NormKind = NormKind.FROBENIUS) -> RangeValues:
    """Closed-form ranges of a linear temporal map, whose block norms are its
    final-output weights; rho_hat is None (degenerate) when all blocks are zero."""
    return temporal_range(mat_norms(L.blocks, norm))


@dataclasses.dataclass
class RecurrenceSpec:
    """Linear recurrence ``h' = A h + C x`` with final readout ``Q``."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    T: int

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        p = self.A.shape[0]
        if self.A.shape != (p, p) or self.C.shape[0] != p or self.Q.shape[1] != p:
            raise SpecError(
                f"inconsistent recurrence shapes A={self.A.shape}, "
                f"C={self.C.shape}, Q={self.Q.shape}")
        if self.T < 2:
            raise SpecError(f"window length must be >= 2, got {self.T}")


def recurrence_profile(spec: RecurrenceSpec,
                       norm: NormKind = NormKind.FROBENIUS) -> np.ndarray:
    """Final-output influence weights ``w_t = ||Q A^(T-t) C||`` from matrix powers.

    No differentiation is involved, which makes this an independent oracle
    for the autodiff pipeline on wrapped recurrence models.
    """
    blocks = np.empty((spec.T, spec.Q.shape[0], spec.C.shape[1]))
    power = np.eye(spec.A.shape[0])
    # Fill from t = T (lag 0) backwards, reusing successive powers of A.
    for lag in range(spec.T):
        blocks[spec.T - 1 - lag] = spec.Q @ power @ spec.C
        power = spec.A @ power
    return mat_norms(blocks, norm)


def recurrence_as_model(spec: RecurrenceSpec) -> SequenceModel:
    """Wrap a recurrence as a sequence model with identity encoder."""
    p = spec.A.shape[0]
    params = {"A": spec.A.copy(), "C": spec.C.copy(),
              "dec_W": spec.Q.copy(), "dec_b": np.zeros(spec.Q.shape[0])}
    cell = CellSpec(kind=CellKind.LINEAR_REC, input_dim=spec.C.shape[1], hidden_dim=p)
    return SequenceModel(cell=cell, output_dim=spec.Q.shape[0],
                         encoder_dim=None, params=params)


def linear_map_as_model(L: LinearTemporalMap) -> SequenceModel:
    """Encode a linear temporal map as a delay-line recurrence model.

    The state is the shift register of ``build_shift_copy_model(T - 1, d)``,
    which stacks the last ``T`` inputs; the decoder applies block ``B_t`` to
    the slot holding ``x_t``, so the final output equals
    ``L(x_1..x_T)`` and the final-output Jacobian row is exactly ``B_t``.
    """
    T, c, d = L.blocks.shape
    model = build_shift_copy_model(T - 1, d, np.zeros((c, d)))
    # After T steps, slot j holds x_{T-j}; give it block B_{T-j}.
    model.params["dec_W"] = np.hstack(L.blocks[::-1])
    return model


def copyk_oracle(k: int, T: int, mode: JacobianMode = JacobianMode.FINAL_OUTPUT,
                 aggregation: Aggregation = Aggregation.MEAN) -> float | None:
    """Ground-truth normalized range of an exact ``k``-step delay line over a
    window of ``T`` steps; None where its profile is zero (degenerate).

    Final-output mode reads ``k``.  In multi-output mode only the pairs
    ``s - t = k`` carry a block, so the positions at lags ``l = k..T-1`` each
    have one nonzero block among their ``l`` later outputs: the mean reads
    ``(T-k) / sum_{l=k}^{T-1} 1/l`` and the max, a uniform profile over
    those lags, ``(T+k-1)/2``.  With ``k = 0`` no later output depends on an
    input, so the multi-output profile is zero.
    """
    if not 0 <= k <= T - 1:
        raise SpecError(f"offset k must lie in 0..{T - 1}, got {k}")
    if mode is JacobianMode.FINAL_OUTPUT:
        return float(k)
    if k == 0:
        return None
    if aggregation is Aggregation.MAX:
        return (T + k - 1) / 2
    return (T - k) / math.fsum(1.0 / lag for lag in range(k, T))


@dataclasses.dataclass
class AxiomReport:
    """Max residuals per axiom over randomized trials.  ``seed`` and
    ``spawn_key`` identify the random stream (``Rng.entropy``,
    ``Rng.spawn_key``); the JSON names the spawn key only for a child
    stream."""

    trials: int
    seed: int
    norm: NormKind
    residuals: dict[str, float]
    spawn_key: tuple[int, ...] = ()

    def max_residual(self) -> float:
        return max(self.residuals.values())

    def to_json(self) -> str:
        doc = {
            "trials": self.trials,
            "seed": self.seed,
            "norm": self.norm.value,
            "residuals": {k: self.residuals[k] for k in sorted(self.residuals)},
            "max_residual": self.max_residual(),
        }
        if self.spawn_key:
            doc["spawn_key"] = list(self.spawn_key)
        return artifact_json(doc)


def _trial_maps(rng: Rng, zero_coefficient: bool):
    """Draw one axiom trial: ``(maps, t_single, alpha, a, b)``.

    ``maps`` (6+T, T, c, d) stacks a single-block map at ``t_single``, maps
    L1 and L2 on a random disjoint partition of the positions, L1 + L2,
    ``alpha`` L1, a map with every block drawn, and that map's T
    single-position pieces.  ``a`` (0 when ``zero_coefficient``) and ``b``
    weight the unit-mass combination.  Each block is drawn in position order
    within its map; the draw order fixes the suite's results for a seed.
    """
    T = int(rng.integers(4, 17))
    c = int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    maps = np.zeros((6 + T, T, c, d))
    t_single = int(rng.integers(0, T))
    maps[0, t_single] = rng.gaussian(size=(c, d))
    perm = rng.permutation(T)
    cut = int(rng.integers(1, T))
    maps[1, perm[:cut]] = rng.gaussian(size=(cut, c, d))
    maps[2, perm[cut:]] = rng.gaussian(size=(T - cut, c, d))
    maps[3] = maps[1] + maps[2]
    alpha = float(rng.uniform(low=-3.0, high=3.0))
    maps[4] = alpha * maps[1]
    a = 0.0 if zero_coefficient else float(rng.uniform(low=-2.0, high=2.0))
    b = float(rng.uniform(low=0.5, high=2.0))
    maps[5] = rng.gaussian(size=(T, c, d))
    maps[6 + np.arange(T), np.arange(T)] = maps[5]
    return maps, t_single, alpha, a, b


def axiom_suite(rng: Rng, trials: int = 100,
                norm: NormKind = NormKind.FROBENIUS) -> AxiomReport:
    """Exercise the defining properties of the range forms on random maps.

    Residuals, all of which must vanish up to float64 accumulation:

    * ``single_step_magnitude``: a lone block ``B`` at lag ``k`` gives
      ``rho = ||B|| k``.
    * ``single_step_normalized``: the same map gives ``rho_hat = k``.
    * ``additivity_disjoint``: ``rho`` adds across maps with disjoint
      time support.
    * ``absolute_homogeneity``: ``rho(a L) = |a| rho(L)``.
    * ``weighted_average_disjoint``: for unit-mass maps on disjoint
      support, ``rho_hat(a L1 + b L2)`` is the ``|a|, |b|``-weighted
      average of the parts (checked including a zero coefficient edge).
    * ``decomposition_rho`` / ``decomposition_rho_hat``: the closed forms
      agree with summing single-block contributions one position at a
      time, the uniqueness argument's construction.

    Trials are drawn in order with ``_trial_maps``, so the draws for a seed
    do not change, and then evaluated in shape stacks: the trials whose maps
    share a shape ``(6+T, T, c, d)`` go through ``mat_norms`` and
    ``range_values`` as one ``(n, 6+T, T, c, d)`` stack.  Each matrix and
    each profile is reduced as on its own, so the residuals do not depend on
    the grouping.  A residual that is NaN (a degenerate profile) counts as
    infinite.
    """
    if trials < 1:
        raise SpecError(f"trials must be >= 1, got {trials}")
    groups: dict[tuple, list] = {}
    for trial in range(trials):
        # Include a zero coefficient on a few trials to cover the edge case.
        maps, *scalars = _trial_maps(rng, trial % 7 == 0)
        # Held without the single-position pieces, which copy maps[5].
        groups.setdefault(maps.shape, []).append((maps[:6].copy(), *scalars))
    res = {}
    for (_, T, c, d), draws in groups.items():
        maps = np.zeros((len(draws), 6 + T, T, c, d))
        maps[:, :6] = [draw[0] for draw in draws]
        maps[:, 6 + np.arange(T), np.arange(T)] = maps[:, 5]
        t_single, alpha, a, b = map(np.array, zip(*(draw[1:] for draw in draws)))
        k = T - 1 - t_single
        norms = mat_norms(maps, norm)
        rho, rho_hat = range_values(norms)
        # Weighted averaging needs unit-mass parts.
        mass = norms[:, 1:3].sum(axis=-1)
        U1, U2 = np.moveaxis(maps[:, 1:3] / mass[..., None, None, None], 1, 0)
        combo = a[:, None, None, None] * U1 + b[:, None, None, None] * U2
        _, unit_hat = range_values(mat_norms(np.stack([U1, U2, combo], axis=1), norm))
        want = (abs(a) * unit_hat[:, 0] + abs(b) * unit_hat[:, 1]) / (abs(a) + abs(b))
        # The decomposition sums position by position, not through range_values.
        lag_mass = np.sum(norms[:, 5] * np.arange(T - 1, -1, -1), axis=-1)
        group_res = {
            "single_step_magnitude":
                abs(rho[:, 0] - norms[np.arange(len(draws)), 0, t_single] * k),
            "single_step_normalized": abs(rho_hat[:, 0] - k),
            "additivity_disjoint": abs(rho[:, 3] - rho[:, 1] - rho[:, 2]),
            "absolute_homogeneity": abs(rho[:, 4] - abs(alpha) * rho[:, 1]),
            "weighted_average_disjoint": abs(unit_hat[:, 2] - want),
            "decomposition_rho": abs(rho[:, 5] - np.sum(rho[:, 6:], axis=-1)),
            "decomposition_rho_hat":
                abs(rho_hat[:, 5] - lag_mass / np.sum(norms[:, 5], axis=-1)),
        }
        for key, values in group_res.items():
            worst = float(np.max(np.where(np.isnan(values), math.inf, values)))
            res[key] = max(res.get(key, 0.0), worst)
    return AxiomReport(trials=trials, seed=rng.entropy, norm=norm, residuals=res,
                       spawn_key=rng.spawn_key)


def _stable_recurrence(rng: Rng, p: int, d: int, c: int, T: int) -> RecurrenceSpec:
    A = np.asarray(rng.gaussian(size=(p, p)))
    radius = max(abs(np.linalg.eigvals(A)))
    if radius > 0:
        A *= 0.9 / radius
    C = np.asarray(rng.gaussian(size=(p, d)))
    Q = np.asarray(rng.gaussian(size=(c, p)))
    return RecurrenceSpec(A=A, C=C, Q=Q, T=T)


def pipeline_cross_checks(rng: Rng, trials: int = 20,
                          norm: NormKind = NormKind.FROBENIUS,
                          inject_fault: bool = False) -> dict[str, float]:
    """Cross-check the generic Jacobian pipeline against the closed forms.

    Returns max residuals per check:

    * ``copyk_exact``: the analyzed normalized range of exact delay lines
      (k in {1, 3, 5, 10}, final-output mode, both aggregations, window
      ``COPYK_CHECK_T``) vs ``k``.
    * ``recurrence_weights``: autodiff final-output weights of wrapped
      random stable recurrences vs the matrix-power profile.
    * ``linear_map_consistency``: closed-form ranges of random linear maps
      vs the full pipeline on their delay-line model encoding.

    ``inject_fault`` deliberately corrupts one closed-form weight in the
    recurrence check; a healthy pipeline must then report a residual.

    Raises:
        SpecError: if ``trials < 1``.
    """
    if trials < 1:
        raise SpecError(f"trials must be >= 1, got {trials}")
    T = COPYK_CHECK_T
    residuals = {"copyk_exact": 0.0, "recurrence_weights": 0.0,
                 "linear_map_consistency": 0.0}
    for agg in (Aggregation.MEAN, Aggregation.MAX):
        cfg = TRConfig(norm=norm, aggregation=agg,
                       mode=JacobianMode.FINAL_OUTPUT, T=T)
        for k in (1, 3, 5, 10):
            d = 2
            U = np.asarray(rng.gaussian(size=(2, d)))
            model = build_shift_copy_model(k, d, U)
            rollouts = [np.asarray(rng.gaussian(size=(T, d))) for _ in range(2)]
            report = analyze(model, rollouts, cfg)
            residuals["copyk_exact"] = max(
                residuals["copyk_exact"], abs(report.rho_hat - copyk_oracle(k, T)),
                float(report.rho_hat_std))
    cfg = TRConfig(norm=norm, aggregation=Aggregation.MEAN,
                   mode=JacobianMode.FINAL_OUTPUT, T=16)
    for trial in range(trials):
        p = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        spec = _stable_recurrence(rng, p, d, c, cfg.T)
        closed = recurrence_profile(spec, norm)
        if inject_fault:
            closed[-1] *= 2.0
        model = recurrence_as_model(spec)
        x = np.asarray(rng.gaussian(size=(cfg.T, d)))
        measured = analyze(model, [x], cfg).weights_mean
        residuals["recurrence_weights"] = max(
            residuals["recurrence_weights"],
            float(np.max(np.abs(measured - closed))))

        L = LinearTemporalMap(np.asarray(rng.gaussian(size=(8, c, d))))
        closed_rv = linear_map_range(L, norm)
        map_cfg = TRConfig(norm=norm, aggregation=Aggregation.MEAN,
                           mode=JacobianMode.FINAL_OUTPUT, T=8)
        map_model = linear_map_as_model(L)
        xm = np.asarray(rng.gaussian(size=(8, d)))
        rv = analyze(map_model, [xm], map_cfg)
        residuals["linear_map_consistency"] = max(
            residuals["linear_map_consistency"],
            abs(rv.rho - closed_rv.rho), abs(rv.rho_hat - closed_rv.rho_hat))
    return residuals
