import math

import numpy as np
import pytest

from temporal_range.errors import InvalidMatrix
from temporal_range.linalg import NormKind, Rng, mat_norm, mat_norms


def test_frobenius_345_triple():
    assert mat_norm([[3.0, 4.0]], NormKind.FROBENIUS) == pytest.approx(5.0, abs=1e-12)


def test_frobenius_identity():
    assert mat_norm(np.eye(2), NormKind.FROBENIUS) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_spectral_diagonal():
    assert mat_norm(np.diag([2.0, 1.0]), NormKind.SPECTRAL) == pytest.approx(2.0, abs=1e-10)


def test_spectral_matches_svd_on_random_matrices():
    rng = Rng(1)
    for _ in range(50):
        m = np.asarray(rng.gaussian(size=(4, 3)))
        expected = float(np.linalg.svd(m, compute_uv=False)[0])
        assert mat_norm(m, NormKind.SPECTRAL) == pytest.approx(expected, rel=1e-8)


def test_spectral_zero_matrix():
    assert mat_norm(np.zeros((3, 2)), NormKind.SPECTRAL) == 0.0


def test_spectral_survives_ones_vector_in_kernel():
    # [[1, -1]] annihilates the all-ones vector, a natural but wrong guess
    # for the top right singular vector; the norm must still be sqrt(2).
    assert mat_norm([[1.0, -1.0]], NormKind.SPECTRAL) == pytest.approx(
        math.sqrt(2), abs=1e-10)


@pytest.mark.parametrize("kind", [NormKind.FROBENIUS, NormKind.SPECTRAL])
def test_norm_absolute_homogeneity(kind):
    rng = Rng(2)
    for _ in range(100):
        m = np.asarray(rng.gaussian(size=(3, 4)))
        alpha = float(rng.uniform(low=-5.0, high=5.0))
        assert abs(mat_norm(alpha * m, kind) - abs(alpha) * mat_norm(m, kind)) < 1e-12 * max(
            1.0, mat_norm(m, kind))


def test_spectral_no_larger_than_frobenius():
    rng = Rng(3)
    for _ in range(100):
        m = np.asarray(rng.gaussian(size=(5, 3)))
        assert mat_norm(m, NormKind.SPECTRAL) <= mat_norm(m, NormKind.FROBENIUS) + 1e-12


def test_norm_rejects_non_finite():
    with pytest.raises(InvalidMatrix):
        mat_norm([[np.nan, 1.0]])
    with pytest.raises(InvalidMatrix):
        mat_norm([[np.inf], [0.0]], NormKind.SPECTRAL)


def test_mat_norm_takes_one_matrix_only():
    for values in ([1.0, 2.0], np.zeros((2, 2, 2))):
        with pytest.raises(InvalidMatrix, match="2-D"):
            mat_norm(values)


def test_spectral_near_tie_is_exact():
    # Iterative methods converge as (sigma2/sigma1)^(2k); this tie needs an SVD.
    assert abs(mat_norm(np.diag([1.0, 1.0 - 1e-6]), NormKind.SPECTRAL) - 1.0) <= 1e-12


def test_spectral_matches_svd_with_close_top_singular_values():
    rng = Rng(6)
    n, size = 2000, 6
    q1, _ = np.linalg.qr(np.asarray(rng.gaussian(size=(n, size, size))))
    q2, _ = np.linalg.qr(np.asarray(rng.gaussian(size=(n, size, size))))
    sigma2 = np.asarray(rng.uniform(size=n, low=0.9, high=1.0 - 1e-6))
    rest = np.asarray(rng.uniform(size=(n, size - 2))) * sigma2[:, None]
    sigma = np.concatenate([np.ones((n, 1)), sigma2[:, None], rest], axis=1)
    ms = q1 @ (sigma[:, :, None] * q2)
    for m in ms:
        expected = float(np.linalg.svd(m, compute_uv=False)[0])
        assert abs(mat_norm(m, NormKind.SPECTRAL) - expected) <= 1e-12


@pytest.mark.parametrize("kind", [NormKind.FROBENIUS, NormKind.SPECTRAL])
def test_mat_norms_of_a_stack_match_mat_norm(kind):
    stack = np.asarray(Rng(7).gaussian(size=(2, 5, 3, 4)))
    norms = mat_norms(stack, kind)
    assert norms.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        assert norms[idx] == mat_norm(stack[idx], kind)


@pytest.mark.parametrize("kind", [NormKind.FROBENIUS, NormKind.SPECTRAL])
def test_mat_norms_of_an_empty_stack_is_empty(kind):
    norms = mat_norms(np.zeros((0, 3, 2)), kind)
    assert isinstance(norms, np.ndarray)
    assert norms.shape == (0,)


@pytest.mark.parametrize("shape", [(4, 4), (1, 5), (5, 1), (2, 5), (6, 3)])
def test_spectral_mat_norms_match_svd_at_extreme_scales(shape):
    # Unscaled Gram products underflow to 0 at 1e-170 and overflow at 1e160.
    base = np.asarray(Rng(8).gaussian(size=(7,) + shape))
    for scale in (1.0, 1e-170, 1e150, 1e160):
        stack = base * scale
        want = np.linalg.norm(stack, ord=2, axis=(-2, -1))
        got = mat_norms(stack, NormKind.SPECTRAL)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_spectral_mat_norms_of_zero_and_empty_blocks():
    stack = np.asarray(Rng(9).gaussian(size=(3, 2, 5)))
    stack[1] = 0.0
    norms = mat_norms(stack, NormKind.SPECTRAL)
    assert norms[1] == 0.0 and np.all(norms[[0, 2]] > 0.0)
    for shape in [(3, 0, 2), (3, 2, 0)]:
        assert np.array_equal(mat_norms(np.zeros(shape), NormKind.SPECTRAL), np.zeros(3))


@pytest.mark.parametrize("kind", [NormKind.FROBENIUS, NormKind.SPECTRAL])
def test_mat_norms_rejects_non_finite(kind):
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = np.nan
    with pytest.raises(InvalidMatrix):
        mat_norms(stack, kind)
    stack[1, 0, 1] = -np.inf
    with pytest.raises(InvalidMatrix):
        mat_norms(stack, kind)


def test_rng_same_seed_same_streams():
    a = Rng(0)
    b = Rng(0)
    assert np.array_equal(a.uniform(size=10), b.uniform(size=10))
    assert np.array_equal(a.gaussian(size=10), b.gaussian(size=10))
    assert np.array_equal(a.integers(0, 100, size=10), b.integers(0, 100, size=10))
    assert np.array_equal(a.permutation(17), b.permutation(17))


def test_rng_split_children_differ_from_parent_continuation():
    parent = Rng(7)
    reference = Rng(7)
    children = parent.split(2)
    parent_next = parent.uniform(size=8)
    reference_next = reference.uniform(size=8)
    # Splitting must not disturb the parent's own stream.
    assert np.array_equal(parent_next, reference_next)
    child_draws = [c.uniform(size=8) for c in children]
    assert not np.array_equal(child_draws[0], parent_next)
    assert not np.array_equal(child_draws[0], child_draws[1])


def test_rng_split_is_reproducible():
    a = [c.uniform(size=4) for c in Rng(9).split(3)]
    b = [c.uniform(size=4) for c in Rng(9).split(3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_rng_gaussian_mean_law_of_large_numbers():
    draws = Rng(11).gaussian(size=100_000)
    assert -0.02 <= float(np.mean(draws)) <= 0.02
