"""The three workloads: train-copy, analyze-calib and cli-pipeline.

Each workload is a closed loop in one process: ``setup`` builds every input
from the seed, ``round`` makes the timed calls into the program (one after
another, each issued when the previous one has returned) and ``verify``
checks the outputs of that round with the independent checks in
``checks.py``.  ``verify`` runs with tracing off, so the checks' own calls
into the program are never counted as the program's work.

Every round attempts the same operations, so the share of failed
operations is the same in every run whatever its seed or length.

``round`` returns the round's outputs and ``sections``, the normalised
seconds of its timed sections; ``figures`` turns those into the
workload's own figures (steps/s, rollouts/s, command seconds).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import traceback
from pathlib import Path

import numpy as np

import checks


@dataclasses.dataclass
class Op:
    """One operation of a round and what its check found."""

    name: str
    problems: list[str]
    known_fault: bool = False


def _split_rng(tr, seed: int, n: int):
    return tr.linalg.Rng(seed).split(n)


class TrainCopy:
    """``train()`` on copy-3 with a GRU-32 and a 32-wide encoder.

    Why: training is about 90% of tier-1 time; this puts the forward,
    backward and Adam path under load while the Jacobian engine is idle.
    """

    name = "train-copy"
    figures_units = {"train_steps_per_s": "steps/s"}
    K, T, V = 3, 32, 4
    N_TRAIN, N_HELDOUT = 1500, 500
    HIDDEN, ENCODER = 32, 32
    STEPS, BATCH, LR = 300, 32, 1e-3
    MIN_ACCURACY = 0.9
    GRAD_SEQS, GRAD_COORDS = 4, 20

    def setup(self, tr, seed: int, workdir: Path) -> None:
        self.tr = tr
        data_rng, heldout_rng, init_rng, coord_rng = _split_rng(tr, seed, 4)
        spec = tr.tasks.CopyTaskSpec(k=self.K, T=self.T, V=self.V)
        self.data = tr.tasks.gen_copyk(spec, self.N_TRAIN, data_rng)
        heldout = tr.tasks.gen_copyk(spec, self.N_HELDOUT, heldout_rng)
        self.heldout = (np.stack([s.x for s in heldout]),
                        np.stack([s.targets for s in heldout]),
                        np.stack([s.mask for s in heldout]))
        cell = tr.models.CellSpec(kind=tr.cells.CellKind.GRU, input_dim=self.V,
                                  hidden_dim=self.HIDDEN)
        self.model = tr.models.init_model(cell, self.V, init_rng,
                                          encoder_dim=self.ENCODER)
        self.cfg = tr.training.OptConfig(lr=self.LR, batch_size=self.BATCH,
                                         steps=self.STEPS, seed=seed)
        names = sorted(self.model.params)
        self.coords = []
        for _ in range(self.GRAD_COORDS):
            name = names[int(coord_rng.integers(0, len(names)))]
            self.coords.append((name, int(coord_rng.integers(0, self.model.params[name].size))))

    def round(self, clock) -> dict:
        (trained, log), seconds = clock.time(self.tr.training.train, self.model,
                                             self.data, self.cfg)
        return {"trained": trained, "steps": len(log.losses),
                "sections": {"train": seconds}}

    def figures(self, out: dict) -> dict:
        return {"train_steps_per_s": out["steps"] / out["sections"]["train"]}

    def verify(self, out: dict) -> list[Op]:
        trained = out["trained"]
        _, problems = checks.check_accuracy(trained, *self.heldout, self.MIN_ACCURACY)
        if out["steps"] != self.STEPS:
            problems.append(f"{out['steps']} Adam steps, expected {self.STEPS}")
        X, targets, masks = (a[:self.GRAD_SEQS] for a in self.heldout)
        grads = {name: np.zeros_like(p) for name, p in trained.params.items()}
        loss_kind = self.tr.gradients.LossKind.CROSS_ENTROPY
        for x, tgt, mask in zip(X, targets, masks):
            steps = [s + 1 for s in np.flatnonzero(mask)]
            g = self.tr.gradients.param_gradients(trained, x, tgt, loss_kind, steps)
            for name in grads:
                grads[name] += g[name]
        self._last = (trained, X, targets, masks, grads)
        return [Op("train", problems),
                Op("gradient", checks.check_gradient(trained, X, targets, masks,
                                                     grads, self.coords))]

    def controls(self) -> dict:
        trained, X, targets, masks, grads = self._last
        name, index = self.coords[0]
        bumped = {k: v.copy() for k, v in grads.items()}
        flat = bumped[name].reshape(-1)
        flat[index] += 1e-3 * max(1.0, abs(flat[index]))
        return {
            "accuracy of the untrained model": lambda: checks.check_accuracy(
                self.model, *self.heldout, self.MIN_ACCURACY)[1],
            "perturbed analytic gradient": lambda: checks.check_gradient(
                trained, X, targets, masks, bumped, self.coords[:1]),
        }


class AnalyzeCalib:
    """``analyze()`` over calibration sets; no training.

    Why: this puts the Jacobian engine and the block-norm reduction under
    load.  Multi-output cost grows as T^2 and the spectral norm runs power
    iteration per block, which the spectral and T=128 sections expose.
    """

    name = "analyze-calib"
    figures_units = {"analyze_multi_rollouts_per_s": "rollouts/s",
                     "analyze_spectral_rollouts_per_s": "rollouts/s",
                     "analyze_final_rollouts_per_s": "rollouts/s",
                     "analyze_long_rollouts_per_s": "rollouts/s"}
    CELLS = ("GRU", "LSTM", "LEM")
    V, T, HIDDEN, ENCODER, N_ROLLOUTS = 4, 32, 32, 32, 16
    LONG_T, LONG_HIDDEN, LONG_ROLLOUTS = 128, 64, 4
    REC_P, REC_D, REC_C, REC_ROLLOUTS = 8, 3, 2, 2
    DELAY_K, DELAY_D, DELAY_ROLLOUTS = 5, 4, 4
    # The cell models are fixed, not drawn from the run's seed: power
    # iteration's cost depends on the model's blocks (its iteration count
    # over 4 rollouts varied 2x between random GRU-32 models, and by 5-11%
    # between rollout sets of one model), so a seed-drawn model would make
    # the spectral work differ from run to run.  The seed draws the rollouts.
    MODEL_SEED = 0

    def _cell_model(self, kind: str, hidden: int, rng):
        tr = self.tr
        spec = tr.models.CellSpec(kind=tr.cells.CellKind[kind], input_dim=self.V,
                                  hidden_dim=hidden)
        return tr.models.init_model(spec, self.V, rng, encoder_dim=self.ENCODER)

    def setup(self, tr, seed: int, workdir: Path) -> None:
        self.tr = tr
        rngs = _split_rng(tr, seed, 4)
        fixed = _split_rng(tr, self.MODEL_SEED, 4)
        copy_spec = tr.tasks.CopyTaskSpec(k=3, T=self.T, V=self.V)
        self.rollouts = [s.x for s in tr.tasks.gen_copyk(copy_spec, self.N_ROLLOUTS, rngs[0])]
        self.models = {kind: self._cell_model(kind, self.HIDDEN, rng)
                       for kind, rng in zip(self.CELLS, fixed[1:])}
        long_spec = tr.tasks.CopyTaskSpec(k=3, T=self.LONG_T, V=self.V)
        self.long_rollouts = [s.x for s in
                              tr.tasks.gen_copyk(long_spec, self.LONG_ROLLOUTS, rngs[1])]
        self.long_model = self._cell_model("GRU", self.LONG_HIDDEN, rngs[1])
        r = rngs[2]
        A = np.asarray(r.gaussian(size=(self.REC_P, self.REC_P)))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        C = np.asarray(r.gaussian(size=(self.REC_P, self.REC_D)))
        Q = np.asarray(r.gaussian(size=(self.REC_C, self.REC_P)))
        self.recurrence = (A, C, Q)
        self.rec_model = tr.oracles.recurrence_as_model(
            tr.oracles.RecurrenceSpec(A=A, C=C, Q=Q, T=self.T))
        self.rec_rollouts = [np.asarray(r.gaussian(size=(self.T, self.REC_D)))
                             for _ in range(self.REC_ROLLOUTS)]
        r = rngs[3]
        U = np.asarray(r.gaussian(size=(self.DELAY_D, self.DELAY_D)))
        self.delay_model = tr.models.build_shift_copy_model(self.DELAY_K, self.DELAY_D, U)
        self.delay_rollouts = [np.asarray(r.gaussian(size=(self.T, self.DELAY_D)))
                               for _ in range(self.DELAY_ROLLOUTS)]
        # The known-fault operation reads only fixed inputs (the fixed models
        # and two rollouts drawn from MODEL_SEED), so it fails the same way
        # in every run; on the second rollout the LEM model's multi-output
        # spectral weights are off by 1.5e-5.
        self.fault_xs = [s.x for s in tr.tasks.gen_copyk(copy_spec, 2, fixed[0])]
        # 2x2 block with sigma2 = sigma1 * (1 - 1e-6): power iteration
        # converges as (sigma2/sigma1)^(2k) and stops early on it.
        self.near_tie = np.diag([1.0, 1.0 - 1e-6])
        N, J = tr.linalg.NormKind, tr.gradients.JacobianMode
        cfg = tr.metric.TRConfig
        self.cfg = {
            "multi": cfg(T=self.T),
            "spectral": cfg(norm=N.SPECTRAL, T=self.T),
            "final": cfg(mode=J.FINAL_OUTPUT, T=self.T),
            "long": cfg(T=self.LONG_T),
            "rec_fro": cfg(mode=J.FINAL_OUTPUT, T=self.T),
            "rec_spec": cfg(norm=N.SPECTRAL, mode=J.FINAL_OUTPUT, T=self.T),
        }

    def round(self, clock) -> dict:
        analyze = self.tr.metric.analyze
        reports, sections = {}, {}
        for key in ("multi", "spectral", "final"):
            sections[key] = 0.0
            for kind in self.CELLS:
                reports[key, kind], seconds = clock.time(
                    analyze, self.models[kind], self.rollouts, self.cfg[key])
                sections[key] += seconds
        reports["long"], sections["long"] = clock.time(
            analyze, self.long_model, self.long_rollouts, self.cfg["long"])
        for key in ("rec_fro", "rec_spec"):
            reports[key], sections[key] = clock.time(
                analyze, self.rec_model, self.rec_rollouts, self.cfg[key])
        reports["delay"], sections["delay"] = clock.time(
            analyze, self.delay_model, self.delay_rollouts, self.cfg["final"])
        reports["fault"], sections["fault"] = clock.time(lambda: [
            analyze(self.models[kind], [x], self.cfg["spectral"]).weights_mean
            for kind in self.CELLS for x in self.fault_xs])
        reports["near_tie"], sections["near_tie"] = clock.time(
            self.tr.linalg.mat_norm, self.near_tie, self.tr.linalg.NormKind.SPECTRAL)
        return {"reports": reports, "sections": sections}

    def figures(self, out: dict) -> dict:
        s = out["sections"]
        n = len(self.CELLS) * self.N_ROLLOUTS
        return {"analyze_multi_rollouts_per_s": n / s["multi"],
                "analyze_spectral_rollouts_per_s": n / s["spectral"],
                "analyze_final_rollouts_per_s": n / s["final"],
                "analyze_long_rollouts_per_s": self.LONG_ROLLOUTS / s["long"]}

    def verify(self, out: dict) -> list[Op]:
        reps = out["reports"]
        ops = []
        self._fd = {}
        for kind in self.CELLS:
            J = checks.fd_jacobian_blocks(self.models[kind], self.rollouts[0])
            for key in ("multi", "final"):
                fd = checks.profile_from_blocks(J, final=key == "final")
                r = reps[key, kind]
                ops.append(Op(f"{key}/{kind}",
                              checks.check_range_vs_fd(r.per_rollout_rho[0],
                                                       r.per_rollout_rho_hat[0], fd)
                              + checks.check_rho_hat_bounds(r.per_rollout_rho_hat, self.T)))
                self._fd[key, kind] = fd
            r = reps["spectral", kind]
            # Blocks are c x d = V x V, so their rank is at most V.
            ops.append(Op(f"spectral/{kind}",
                          checks.check_spectral_within_frobenius(
                              r.weights_mean, reps["multi", kind].weights_mean, self.V)
                          + checks.check_rho_hat_bounds(r.per_rollout_rho_hat, self.T)))
        J = checks.fd_jacobian_blocks(self.long_model, self.long_rollouts[0])
        r = reps["long"]
        ops.append(Op("long", checks.check_range_vs_fd(
            r.per_rollout_rho[0], r.per_rollout_rho_hat[0],
            checks.profile_from_blocks(J, final=False))
            + checks.check_rho_hat_bounds(r.per_rollout_rho_hat, self.LONG_T)))
        A, C, Q = self.recurrence
        for key, spectral in (("rec_fro", False), ("rec_spec", True)):
            want = checks.recurrence_weights(A, C, Q, self.T, spectral)
            ops.append(Op(key, checks.check_weights(reps[key].weights_mean, want)))
        ops.append(Op("delay", checks.check_delay_line(reps["delay"].per_rollout_rho_hat,
                                                       self.DELAY_K)))
        ops.append(Op("spectral-exact", self._spectral_exact(reps), known_fault=True))
        self._reps = reps
        return ops

    def _spectral_exact(self, reps) -> list[str]:
        """Known fault: spectral weights against SVD norms of the same blocks."""
        problems = []
        inputs = [(kind, x) for kind in self.CELLS for x in self.fault_xs]
        for (kind, x), got in zip(inputs, reps["fault"]):
            model = self.models[kind]
            blocks = self.tr.gradients.input_jacobians(model, x)
            dense = np.zeros((self.T, self.T, model.output_dim, self.V))
            for (s, t), b in blocks.blocks.items():
                dense[s - 1, t - 1] = b
            want = checks.profile_from_blocks(dense, final=False, spectral=True)
            problems += checks.check_weights(got, want)
        problems += checks.check_weights([reps["near_tie"]], [1.0])
        return problems

    def controls(self) -> dict:
        kind = self.CELLS[0]
        rep = self._reps["multi", kind]
        A, C, Q = self.recurrence
        closed = checks.recurrence_weights(A, C, Q, self.T, False)
        corrupted = closed.copy()
        corrupted[-1] *= 2.0
        return {
            "rho off by 1e-6 against finite differences": lambda: checks.check_range_vs_fd(
                rep.per_rollout_rho[0] * (1 + 1e-6), rep.per_rollout_rho_hat[0],
                self._fd["multi", kind]),
            "rho_hat past T-1": lambda: checks.check_rho_hat_bounds([self.T - 0.5], self.T),
            "spectral weights above Frobenius": lambda: checks.check_spectral_within_frobenius(
                rep.weights_mean * 1.01, rep.weights_mean, self.V),
            "corrupted closed-form weight": lambda: checks.check_weights(
                self._reps["rec_fro"].weights_mean, corrupted),
            "delay line off by 1e-12": lambda: checks.check_delay_line(
                [self.DELAY_K + 1e-12], self.DELAY_K),
        }


class CliPipeline:
    """The user's chain, in-process through ``temporal_range.cli.main``.

    Why: it puts windowed_forward, hex-float checkpoint and dataset I/O,
    the cart-pole simulator, SVG/manifest writing and the many-tiny-model
    use of the Jacobian engine under load; training is a small share.
    """

    name = "cli-pipeline"
    figures_units = {"pipeline_s": "s", "ablate_s": "s", "verify_s": "s"}
    T, N_SEQ, N_ROLLOUTS = 32, 200, 16
    TRAIN_STEPS, HIDDEN = 60, 16
    ORACLE_TRIALS, AXIOM_TRIALS = 40, 600
    RESIDUAL_TOL = 1e-9

    def setup(self, tr, seed: int, workdir: Path) -> None:
        self.tr = tr
        # Pins the timestamp in manifests and SVG comments.
        os.environ["SOURCE_DATE_EPOCH"] = "0"
        self.dir = workdir / "round"
        probes = workdir / "probes"
        shutil.rmtree(probes, ignore_errors=True)
        (probes / "a-directory").mkdir(parents=True)
        # The known-fault commands read fixed inputs that do not depend on
        # the seed.
        probe_model = probes / "delay.model.json"
        tr.models.save_model(tr.models.build_shift_copy_model(1, 4), probe_model)
        d, s = self.dir, str(seed)
        data, model = str(d / "data.json"), str(d / "lstm.model.json")
        analyze = ["analyze", "--model", model, "--data", data, "--T", str(self.T),
                   "--n-rollouts", str(self.N_ROLLOUTS)]
        self.commands = {
            "gen-data": ["gen-data", "--task", "cartpole", "--variant", "stateless",
                         "--T", str(self.T), "--n", str(self.N_SEQ), "--seed", s,
                         "--out", data],
            "train": ["train", "--data", data, "--model", "lstm", "--hidden",
                      str(self.HIDDEN), "--lr", "3e-3", "--steps", str(self.TRAIN_STEPS),
                      "--seed", s, "--out-prefix", str(d / "lstm")],
            "analyze-multi": analyze + ["--mode", "multi", "--out-prefix", str(d / "multi")],
            "analyze-final": analyze + ["--mode", "final", "--out-prefix", str(d / "final")],
            "ablate": ["ablate", "--model", model, "--data", data,
                       "--report", str(d / "final.report.json"), "--deploy",
                       "--out-prefix", str(d / "ablate")],
            "oracle": ["oracle", "--trials", str(self.ORACLE_TRIALS), "--seed", s,
                       "--out", str(d / "oracle.json")],
            "axioms": ["axioms", "--trials", str(self.AXIOM_TRIALS), "--seed", s,
                       "--out", str(d / "axioms.json")],
        }
        self.fault_commands = {
            "ablate-bad-windows": ["ablate", "--model", str(probe_model), "--task", "copy",
                                   "--k", "1", "--T", "8", "--n", "4", "--seed", "0",
                                   "--windows", "1,x",
                                   "--out-prefix", str(probes / "bad-windows")],
            "analyze-directory": ["analyze", "--model", str(probes / "a-directory"),
                                  "--task", "copy", "--k", "1", "--T", "8",
                                  "--n-rollouts", "2", "--seed", "0",
                                  "--out-prefix", str(probes / "directory")],
        }
        self.first_artifacts = None

    def _main(self, argv) -> tuple[int, str]:
        """Run one command as the console script would: exit code, stderr."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = self.tr.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends the script with code 1
                traceback.print_exc()
                code = 1
        return code, err.getvalue()

    def round(self, clock) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        clock.restart()
        results, sections = {}, {}
        for name, argv in (self.commands | self.fault_commands).items():
            results[name], sections[name] = clock.time(self._main, argv)
        return {"results": results, "sections": sections}

    def figures(self, out: dict) -> dict:
        s = out["sections"]
        return {"pipeline_s": sum(s[name] for name in self.commands),
                "ablate_s": s["ablate"], "verify_s": s["oracle"] + s["axioms"]}

    def _read(self, name: str):
        return json.loads((self.dir / name).read_text(encoding="utf-8"))

    def verify(self, out: dict) -> list[Op]:
        results = out["results"]
        ops = {name: Op(name, checks.check_exit(*results[name])) for name in self.commands}
        ops["artifacts-identical"] = Op("artifacts-identical", [])
        if not any(op.problems for op in ops.values()):
            final = self._read("final.report.json")
            deploy = self._read("ablate.deployment.json")
            rows = [line.split(",") for line in
                    (self.dir / "ablate.curve.csv").read_text(encoding="utf-8").splitlines()[1:]]
            ops["analyze-final"].problems += checks.check_rho_hat_bounds(
                final["per_rollout_rho_hat"], self.T)
            ops["ablate"].problems += checks.check_deploy_window(
                deploy["window"], final["rho_hat"])
            ops["ablate"].problems += checks.check_full_window(
                [int(r[0]) for r in rows], [float(r[3]) for r in rows], self.T)
            if not self._read("oracle.json")["passed"]:
                ops["oracle"].problems.append("oracle did not pass")
            residual = self._read("axioms.json")["max_residual"]
            if not residual < self.RESIDUAL_TOL:
                ops["axioms"].problems.append(f"axioms max residual {residual!r}")
            artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(self.dir.iterdir())
                         if p.suffix in (".json", ".csv", ".svg")
                         and not p.name.endswith(".manifest.json")}
            if self.first_artifacts is None:
                self.first_artifacts = artifacts
            ops["artifacts-identical"].problems += checks.check_same_artifacts(
                self.first_artifacts, artifacts)
            self._last = (deploy, final, artifacts)
        faults = [Op(name, checks.check_clean_error(*results[name]), known_fault=True)
                  for name in self.fault_commands]
        return list(ops.values()) + faults

    def controls(self) -> dict:
        deploy, final, artifacts = self._last
        changed = dict(artifacts)
        key = sorted(changed)[0]
        changed[key] = changed[key][::-1]
        return {
            "exit code 1": lambda: checks.check_exit(1, "Traceback"),
            "traceback instead of one error line": lambda: checks.check_clean_error(
                1, "Traceback (most recent call last):\nValueError: x"),
            "deployment window off by one": lambda: checks.check_deploy_window(
                deploy["window"] + 1, final["rho_hat"]),
            "full-window value off by one ulp": lambda: checks.check_full_window(
                [self.T], [math.nextafter(1.0, 2.0)], self.T),
            "one artifact changed": lambda: checks.check_same_artifacts(artifacts, changed),
        }


WORKLOADS = {w.name: w for w in (TrainCopy, AnalyzeCalib, CliPipeline)}
