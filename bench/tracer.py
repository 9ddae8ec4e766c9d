"""In-memory span tracing around the program's public functions.

A span is recorded for every call that goes through a wrapped module
attribute or cell method: its name, start, end and parent span.  Wrappers
are installed at each module attribute that callers look up (for example
``training.batch_param_gradients`` as well as
``gradients.batch_param_gradients``), each one wrapping the original
function, so a call is recorded once whichever module it goes through.

Self time is a span's duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

PACKAGE = "temporal_range"
CELL_CLASSES = {"gru": "_GRU", "lstm": "_LSTM", "lem": "_LEM",
                "linear_rec": "_LinearRec"}

# Cell methods that some workload runs; the LEM and linear-recurrence
# backward rules are never called (no workload trains those cells).
CELL_METHODS = [(kind, method)
                for kind in CELL_CLASSES
                for method in ("step", "backward", "step_jacobians")
                if not (method == "backward" and kind in ("lem", "linear_rec"))]

# (module, function name, span name) for every wrapped public function.
FUNCTIONS = [
    ("gradients", "batch_param_gradients", "gradients.batch_param_gradients"),
    ("gradients", "per_step_jacobians", "gradients.per_step_jacobians"),
    ("gradients", "input_jacobians", "gradients.input_jacobians"),
    ("metric", "analyze", "metric.analyze"),
    ("metric", "influence_weights", "metric.influence_weights"),
    ("linalg", "mat_norm", "linalg.mat_norm"),
    ("training", "train", "training.train"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "clip_by_global_norm", "training.clip_by_global_norm"),
    ("training", "evaluate", "training.evaluate"),
    ("ablation", "ablation_sweep", "ablation.ablation_sweep"),
    ("ablation", "deployment_check", "ablation.deployment_check"),
    ("models", "save_model", "models.save_model"),
    ("models", "load_model", "models.load_model"),
    ("tasks", "save_dataset", "tasks.save_dataset"),
    ("tasks", "load_dataset", "tasks.load_dataset"),
    ("tasks", "gen_copyk", "tasks.gen_copyk"),
    ("tasks", "gen_imitation", "tasks.gen_imitation"),
    ("oracles", "axiom_suite", "oracles.axiom_suite"),
    ("oracles", "pipeline_cross_checks", "oracles.pipeline_cross_checks"),
    ("svgplot", "bar_chart", "svgplot"),
    ("svgplot", "line_chart", "svgplot"),
    ("cli", "main", "cli.main"),
]

# Counters kept next to the spans, named as the metrics they become, with
# their units.
COUNTERS = {
    "models.forward_batch.calls": "count",
    "models.forward_batch.steps": "count",
    "gradients.input_jacobians.blocks": "count",
    "gradients.input_jacobians.sensitivity_flops": "flop_computed",
    "linalg.mat_norm.calls": "count",
    "models.save_model.bytes": "bytes",
    "models.load_model.bytes": "bytes",
    "tasks.save_dataset.bytes": "bytes",
    "tasks.load_dataset.bytes": "bytes",
}

SPAN_NAMES = sorted({name for _, _, name in FUNCTIONS}
                    | {"models.forward_batch"}
                    | {f"cells.{kind}.{method}" for kind, method in CELL_METHODS})


def _path_arg(args, kwargs, position, keyword="path"):
    return kwargs[keyword] if keyword in kwargs else args[position]


def _count_forward_batch(counts, args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    shape = np.shape(X)
    counts["models.forward_batch.calls"] += 1
    counts["models.forward_batch.steps"] += shape[0] * shape[1]


def _count_input_jacobians(counts, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    T = np.shape(args[1] if len(args) > 1 else kwargs["x"])[0]
    S, d = model.state_dim, model.cell.input_dim
    counts["gradients.input_jacobians.blocks"] += len(result.blocks)
    # Computed, not measured: forward propagation of sensitivities costs
    # about S^2 * d * T^2 / 2 multiply-adds per rollout.
    counts["gradients.input_jacobians.sensitivity_flops"] += S * S * d * T * T / 2


def _count_mat_norm(counts, args, kwargs, result):
    counts["linalg.mat_norm.calls"] += 1


def _bytes_counter(metric, position):
    def count(counts, args, kwargs, result):
        counts[metric] += os.path.getsize(_path_arg(args, kwargs, position))
    return count


COUNT_HOOKS = {
    "models.forward_batch": _count_forward_batch,
    "gradients.input_jacobians": _count_input_jacobians,
    "linalg.mat_norm": _count_mat_norm,
    "models.save_model": _bytes_counter("models.save_model.bytes", 1),
    "models.load_model": _bytes_counter("models.load_model.bytes", 0),
    "tasks.save_dataset": _bytes_counter("tasks.save_dataset.bytes", 1),
    "tasks.load_dataset": _bytes_counter("tasks.load_dataset.bytes", 0),
}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch the
    program in place and restore it exactly."""

    def __init__(self):
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.counts = {name: 0.0 for name in COUNTERS}
        self._name_index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self._name_index[name]
        hook = COUNT_HOOKS.get(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at each module attribute bound to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapped = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        cells = sys.modules[f"{PACKAGE}.cells"]
        for kind, method in CELL_METHODS:
            cls = getattr(cells, CELL_CLASSES[kind])
            original = cls.__dict__[method].__func__
            self._patch(cls, method,
                        staticmethod(self._wrap(f"cells.{kind}.{method}", original)))
        model_cls = sys.modules[f"{PACKAGE}.models"].SequenceModel
        self._patch(model_cls, "forward_batch",
                    self._wrap("models.forward_batch", model_cls.forward_batch))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.span_name)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name, in seconds, over the spans from
        index ``first`` on (none of which may have a parent before it)."""
        names = np.asarray(self.span_name[first:], dtype=np.int64)
        dur = np.asarray(self.span_end[first:]) - np.asarray(self.span_start[first:])
        parents = np.asarray(self.span_parent[first:], dtype=np.int64) - first
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        per_name = np.bincount(names, weights=dur - child, minlength=len(SPAN_NAMES))
        return {name: float(per_name[i]) for i, name in enumerate(SPAN_NAMES)}

    def save(self, path) -> None:
        """Write every span (name index, start, end, parent) and the name table."""
        np.savez(path, names=np.asarray(SPAN_NAMES),
                 name=np.asarray(self.span_name, dtype=np.int32),
                 start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent, dtype=np.int64))
