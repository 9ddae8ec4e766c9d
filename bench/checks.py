"""Independent correctness checks and their negative controls.

Every check recomputes the expected value with NumPy from the inputs alone
(matrix powers, SVD, central differences, its own loss) and returns a list
of problems, empty when the output is correct.  None of them compares
against a stored copy of an earlier output.  ``negative_controls`` feeds
each check a perturbed input and requires it to report a problem, so that
no check is trusted that cannot fail.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 1e-5
# Central differences at FD_STEP reproduce the analytic weights of these
# models to about 1e-10 relative; 1e-7 leaves a wide margin for that error
# and still catches a 1e-6 relative error in the measured range.
FD_RTOL = 1e-7
ORACLE_TOL = 1e-9
# rho_hat = fl(w * k) / w, which rounds away from k by an ulp for some
# weights w when k is not a power of two; allow a few ulps.
DELAY_LINE_ULPS = 8


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def fd_jacobian_blocks(model, x, h: float = FD_STEP, chunk: int = 16) -> np.ndarray:
    """All blocks ``J[s, t] = d y_s / d x_t`` by central differences.

    Batched forward passes over the 2*T*d perturbed copies of ``x``, at most
    ``chunk`` copies each to bound the memory of the step caches; returns
    an array of shape (T, T, c, d) indexed by 0-based (s, t).
    """
    x = np.asarray(x, dtype=np.float64)
    T, d = x.shape
    X = np.repeat(x[None], 2 * T * d, axis=0).reshape(T, d, 2, T, d)
    step = h * np.maximum(1.0, np.abs(x))
    t_idx, j_idx = np.meshgrid(np.arange(T), np.arange(d), indexing="ij")
    X[t_idx, j_idx, 0, t_idx, j_idx] += step
    X[t_idx, j_idx, 1, t_idx, j_idx] -= step
    X = X.reshape(2 * T * d, T, d)
    ys = np.concatenate([model.forward_batch(X[i:i + chunk])[0]
                         for i in range(0, X.shape[0], chunk)])
    ys = ys.reshape(T, d, 2, T, -1)
    J = (ys[:, :, 0] - ys[:, :, 1]) / (2.0 * step[:, :, None, None])
    return J.transpose(2, 0, 3, 1)


def profile_from_blocks(J: np.ndarray, final: bool, spectral: bool = False) -> np.ndarray:
    """Influence weights from dense blocks (T, T, c, d), mean aggregation."""
    T = J.shape[0]
    norms = np.linalg.norm(J, 2 if spectral else "fro", axis=(-2, -1))
    if final:
        return norms[T - 1].copy()
    weights = np.zeros(T)
    for t in range(T - 1):
        weights[t] = norms[t + 1:, t].mean()
    return weights


def range_of(weights: np.ndarray) -> tuple[float, float]:
    T = weights.shape[0]
    lags = np.arange(T - 1, -1, -1, dtype=np.float64)
    rho = float(weights @ lags)
    return rho, rho / float(weights.sum())


def check_range_vs_fd(rho: float, rho_hat: float, fd_weights: np.ndarray) -> list[str]:
    """Measured (rho, rho_hat) of one rollout against the FD profile."""
    want_rho, want_hat = range_of(fd_weights)
    problems = []
    if not abs(rho - want_rho) <= FD_RTOL * abs(want_rho):
        problems.append(f"rho {rho!r} vs finite differences {want_rho!r}")
    if not abs(rho_hat - want_hat) <= FD_RTOL * max(1.0, abs(want_hat)):
        problems.append(f"rho_hat {rho_hat!r} vs finite differences {want_hat!r}")
    return problems


def check_rho_hat_bounds(rho_hats, T: int) -> list[str]:
    bad = [v for v in rho_hats if v is None or not 0.0 <= v <= T - 1]
    return [f"rho_hat outside [0, {T - 1}]: {bad[:3]}"] if bad else []


def check_spectral_within_frobenius(spectral_w, frobenius_w, rank: int) -> list[str]:
    """||B||_2 <= ||B||_F <= sqrt(rank) ||B||_2 for every block, so the mean
    weights of the same rollouts obey the same bounds."""
    s = np.asarray(spectral_w)
    f = np.asarray(frobenius_w)
    slack = 1e-12 * np.maximum(f, 1e-300)
    if np.all(s <= f + slack) and np.all(s * math.sqrt(rank) >= f - slack):
        return []
    return ["spectral weights outside the Frobenius bounds"]


def recurrence_weights(A, C, Q, T: int, spectral: bool) -> np.ndarray:
    """Closed-form final-output weights ``w_t = ||Q A^(T-t) C||``."""
    order = 2 if spectral else "fro"
    return np.array([np.linalg.norm(Q @ np.linalg.matrix_power(A, T - t) @ C, order)
                     for t in range(1, T + 1)])


def check_weights(measured, expected, tol: float = ORACLE_TOL) -> list[str]:
    err = _rel_err(measured, expected)
    return [] if err <= tol else [f"weights differ from the reference by {err:.3e}"]


def check_delay_line(rho_hats, k: int) -> list[str]:
    tol = DELAY_LINE_ULPS * math.ulp(float(k))
    bad = [v for v in rho_hats if v is None or abs(v - k) > tol]
    return [f"delay line k={k}: rho_hat {bad[:3]}"] if bad else []


def check_accuracy(model, X, targets, masks, minimum: float) -> tuple[float, list[str]]:
    """Held-out masked accuracy from the model's forward outputs."""
    ys, _, _ = model.forward_batch(X)
    hits = (ys.argmax(axis=-1) == targets) & masks
    acc = float(hits.sum() / masks.sum())
    return acc, ([] if acc >= minimum else [f"held-out accuracy {acc:.4f} < {minimum}"])


def masked_cross_entropy(model, X, targets, masks) -> float:
    """Summed cross-entropy over masked steps, from forward outputs."""
    ys, _, _ = model.forward_batch(X)
    shifted = ys - ys.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    return float(-(picked * masks).sum())


def check_gradient(model, X, targets, masks, analytic: dict, coords,
                   h: float = FD_STEP, tol: float = 1e-6) -> list[str]:
    """Central differences of ``masked_cross_entropy`` at ``coords``
    [(name, flat index)] against the analytic gradient."""
    problems = []
    for name, index in coords:
        probe = model.copy()
        flat = probe.params[name].reshape(-1)
        orig = flat[index]
        flat[index] = orig + h
        f_plus = masked_cross_entropy(probe, X, targets, masks)
        flat[index] = orig - h
        f_minus = masked_cross_entropy(probe, X, targets, masks)
        fd = (f_plus - f_minus) / (2.0 * h)
        an = float(analytic[name].reshape(-1)[index])
        if not abs(fd - an) <= tol * max(1.0, abs(fd)):
            problems.append(f"d loss / d {name}[{index}]: analytic {an!r}, fd {fd!r}")
    return problems


def check_exit(code: int, stderr: str) -> list[str]:
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {code}: {tail[0][:200]}"]
    return []


def check_clean_error(code: int, stderr: str) -> list[str]:
    """Bad input must end in exit code 2 and exactly one ``error:`` line."""
    lines = stderr.strip().splitlines()
    if code == 2 and len(lines) == 1 and lines[0].startswith("error:"):
        return []
    return [f"exit code {code} with {len(lines)} stderr lines, "
            f"last {lines[-1][:120] if lines else ''!r}"]


def check_full_window(windows, normalized, T: int) -> list[str]:
    bad = [(m, v) for m, v in zip(windows, normalized) if m >= T and v != 1.0]
    return [f"normalized performance at window >= T is not 1.0: {bad}"] if bad else []


def check_deploy_window(window: int, rho_hat: float) -> list[str]:
    want = math.ceil(rho_hat + 1.0)
    return [] if window == want else [f"deployment window {window}, expected {want}"]


def check_same_artifacts(first: dict, now: dict) -> list[str]:
    if first == now:
        return []
    differ = sorted(k for k in first.keys() | now.keys() if first.get(k) != now.get(k))
    return [f"artifacts differ between iterations: {differ}"]


def negative_controls(samples: dict) -> list[str]:
    """Run each check on a perturbed copy of a real input from this run.

    ``samples`` maps a check name to a zero-argument callable that runs
    that check on perturbed data and returns its problem list; a control
    whose check reports nothing is returned as a failure.
    """
    return [f"negative control did not fail: {name}"
            for name, run in samples.items() if not run()]
