"""Dense float64 matrix helpers and a deterministic splittable RNG.

Every numeric object in this package is a plain ``numpy.ndarray`` in
float64.  This module adds the small amount of structure the rest of the
code relies on: validated matrix construction, the two supported matrix
norms, integer matrix powers, and a counter-based random number generator
whose streams are reproducible regardless of how work is scheduled.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidMatrix, ShapeMismatch, SpecError

__all__ = ["NormKind", "Rng", "as_matrix", "mat_norm", "mat_norms", "mat_pow"]


class NormKind(enum.Enum):
    """Matrix norm used to turn Jacobian blocks into scalar magnitudes."""

    FROBENIUS = "frobenius"
    SPECTRAL = "spectral"


def as_matrix(values) -> np.ndarray:
    """Validate and return ``values`` as a finite 2-D float64 array.

    Raises:
        InvalidMatrix: if the data is not 2-D or contains NaN/inf entries.
    """
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix contains non-finite entries")
    return m


def mat_norm(m, kind: NormKind = NormKind.FROBENIUS) -> float:
    """Return the Frobenius norm or the largest singular value of ``m``."""
    return float(mat_norms(as_matrix(m), kind))


def mat_norms(stack, kind: NormKind = NormKind.FROBENIUS) -> np.ndarray:
    """Norms of every matrix in a stack ``(..., m, n)``, shape ``(...)``.

    The spectral norm is the largest singular value from an SVD, exact to
    rounding; an empty stack gives an empty array.

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
        return np.linalg.norm(a, 2, axis=(-2, -1))
    raise SpecError(f"unknown norm kind: {kind!r}")


def mat_pow(a, n: int) -> np.ndarray:
    """Return ``a`` raised to the non-negative integer power ``n``.

    Uses exponentiation by squaring; ``n == 0`` yields the identity.

    Raises:
        ShapeMismatch: if ``a`` is not square.
        SpecError: if ``n`` is negative.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"matrix power requires a square matrix, got {a.shape}")
    if n < 0:
        raise SpecError(f"matrix power requires n >= 0, got {n}")
    result = np.eye(a.shape[0])
    base = a.copy()
    e = int(n)
    while e > 0:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


class Rng:
    """Deterministic, splittable random stream.

    Wraps a counter-based Philox generator keyed by a seed sequence, so the
    same seed and call order produce the same values on every platform.
    ``split`` derives statistically independent child streams that do not
    overlap with the parent's continuation, which keeps fan-out work (e.g.
    per-rollout generation) reproducible regardless of scheduling.
    """

    def __init__(self, seed: int = 0, _seq: np.random.SeedSequence | None = None):
        self._seq = np.random.SeedSequence(seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    @property
    def entropy(self) -> int:
        """Root seed material; shared by child streams derived via split."""
        e = self._seq.entropy
        return int(e) if isinstance(e, int) else 0

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
