"""Dense float64 matrix helpers and a deterministic splittable RNG.

Every numeric object in this package is a plain ``numpy.ndarray`` in
float64.  This module adds the small amount of structure the rest of the
code relies on: the two supported matrix norms and a counter-based random
number generator whose streams are reproducible regardless of how work is
scheduled.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidMatrix, SpecError

__all__ = ["NormKind", "Rng", "mat_norm", "mat_norms"]


class NormKind(enum.Enum):
    """Matrix norm used to turn Jacobian blocks into scalar magnitudes."""

    FROBENIUS = "frobenius"
    SPECTRAL = "spectral"


def mat_norm(m, kind: NormKind = NormKind.FROBENIUS) -> float:
    """Return the Frobenius norm or the largest singular value of ``m``.

    Raises:
        InvalidMatrix: if ``m`` is not 2-D or contains NaN/inf entries.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D array, got ndim={m.ndim}")
    return float(mat_norms(m, kind))


def mat_norms(stack, kind: NormKind = NormKind.FROBENIUS) -> np.ndarray:
    """Norms of every matrix in a stack ``(..., m, n)``, shape ``(...)``.

    The spectral norm of a block ``B`` is ``s * sqrt(lambda_max(G))``, where
    ``s`` is its largest absolute entry and ``G`` the Gram matrix of the
    smaller side of ``B / s``.  Without the scaling, ``G`` of a block near
    1e-170 underflows to 0 and one near 1e160 overflows.  The symmetric
    eigensolver is backward stable, so the relative error is a few ulps.  A
    zero block gives 0 and an empty stack an empty array.

    Raises:
        InvalidMatrix: if the data has fewer than 2 dimensions or contains
            NaN/inf entries.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim < 2:
        raise InvalidMatrix(f"expected a stack of matrices, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix contains non-finite entries")
    if kind is NormKind.FROBENIUS:
        return np.sqrt(np.sum(a * a, axis=(-2, -1)))
    if kind is NormKind.SPECTRAL:
        if a.size == 0:
            return np.zeros(a.shape[:-2])
        scale = np.max(np.abs(a), axis=(-2, -1))
        b = a / np.where(scale > 0.0, scale, 1.0)[..., None, None]
        bt = np.swapaxes(b, -2, -1)
        gram = bt @ b if a.shape[-1] <= a.shape[-2] else b @ bt
        return scale * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    raise SpecError(f"unknown norm kind: {kind!r}")


class Rng:
    """Deterministic, splittable random stream.

    Wraps a counter-based Philox generator keyed by a seed sequence, so the
    same seed and call order produce the same values on every platform.
    ``split`` derives statistically independent child streams that do not
    overlap with the parent's continuation, which keeps fan-out work (e.g.
    per-rollout generation) reproducible regardless of scheduling.  A
    negative seed is a ``SpecError``.
    """

    def __init__(self, seed: int = 0, _seq: np.random.SeedSequence | None = None):
        if _seq is None and seed < 0:
            raise SpecError(f"seed must be >= 0, got {seed}")
        self._seq = np.random.SeedSequence(seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    @property
    def entropy(self) -> int:
        """Root seed material; shared by child streams derived via split."""
        e = self._seq.entropy
        return int(e) if isinstance(e, int) else 0

    @property
    def spawn_key(self) -> tuple[int, ...]:
        """This stream's path from its root through ``split``: the child
        index at each level; empty for a root stream."""
        return tuple(self._seq.spawn_key)

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0):
        return self._gen.uniform(low, high, size=size)

    def gaussian(self, size=None, mean: float = 0.0, std: float = 1.0):
        return self._gen.normal(mean, std, size=size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in ``[low, high)``."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def split(self, n: int = 2) -> list["Rng"]:
        """Derive ``n`` independent child streams without disturbing this one."""
        return [Rng(_seq=seq) for seq in self._seq.spawn(n)]
