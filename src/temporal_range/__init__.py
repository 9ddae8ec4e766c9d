"""Temporal range analysis for sequence models.

Measures how far back a trained sequence model actually looks by turning
the Jacobian blocks of its per-step vector outputs with respect to past
inputs into a nonnegative influence profile over lags, summarized as a
magnitude-weighted average look-back.  Ships with closed-form oracles,
a randomized axiom suite, desk-scale tasks and training, and behavioral
window ablations that validate measured ranges against the smallest
context a model needs to keep its performance.
"""

__version__ = "0.1.0"

from .ablation import (AblationCurve, DeploymentCheck, ablation_sweep,
                       deployment_check, knee, windowed_forward)
from .cells import CellKind
from .errors import (ConfigError, DivergenceError, FormatError,
                     InvalidMatrix, NumericalError, ShapeMismatch, SpecError,
                     TemporalRangeError, VersionError)
from .gradients import (JacobianBlocks, JacobianMode, LossKind, fd_jacobian,
                        input_jacobians, param_gradients, per_step_jacobians)
from .linalg import NormKind, Rng, mat_norm, mat_norms
from .metric import (Aggregation, RangeValues, TRConfig, TemporalRangeReport,
                     analyze, influence_weights, profile_csv, report_from_json,
                     report_json, temporal_range)
from .models import (CellSpec, SequenceModel, build_shift_copy_model,
                     init_model, load_model, save_model)
from .oracles import (AxiomReport, LinearTemporalMap, RecurrenceSpec,
                      axiom_suite, copyk_oracle, linear_map_as_model,
                      linear_map_range, pipeline_cross_checks,
                      recurrence_as_model, recurrence_profile)
from .tasks import (CopyTaskSpec, Dataset, LabeledSequence, ObsKind,
                    ObsVariant, gen_copyk, gen_imitation, gen_repeatfirst,
                    load_dataset, save_dataset)
from .training import (AdamState, OptConfig, TrainLog, adam_step,
                       clip_by_global_norm, evaluate, train)
