"""Direction samplers: orthonormality, distribution, reproducibility, and
the stacked routines against the same draws made one at a time."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from zonewton import (
    DirectionSet,
    RngStream,
    gaussian_sphere_sample,
    stiefel_sample,
)
from zonewton.sampling import _haar_frames, _stiefel_columns, _unit_rows


class TestStiefelSample:
    def test_full_frame_orthonormal(self):
        u = stiefel_sample(3, 3, RngStream(0)).vectors
        assert np.linalg.norm(u @ u.T - np.eye(3)) <= 1e-10

    def test_single_direction_is_unit(self):
        ds = stiefel_sample(3, 1, RngStream(1))
        assert abs(np.linalg.norm(ds.vectors[0]) - 1.0) <= 1e-12
        assert ds.frame_size == 3

    def test_more_directions_than_dimension_uses_blocks(self):
        ds = stiefel_sample(3, 5, RngStream(2))
        assert ds.vectors.shape == (5, 3)
        assert ds.frame_size == 3
        first, second = ds.vectors[:3], ds.vectors[3:]
        assert np.linalg.norm(first @ first.T - np.eye(3)) <= 1e-10
        assert np.linalg.norm(second @ second.T - np.eye(2)) <= 1e-10

    def test_orthonormality_sweep(self):
        # 1000 random (d, r, seed) triples with d <= 50
        worst = 0.0
        for seed in range(1000):
            d = 1 + seed % 50
            r = 1 + (7 * seed) % d
            u = stiefel_sample(d, r, RngStream(seed)).vectors
            worst = max(worst, np.linalg.norm(u @ u.T - np.eye(r)))
        assert worst <= 1e-8

    def test_reproducible(self):
        a = stiefel_sample(7, 11, RngStream(42)).vectors
        b = stiefel_sample(7, 11, RngStream(42)).vectors
        assert np.array_equal(a, b)

    def test_block_structure_over_many_frames(self):
        # r = 2d + remainder concatenates full frames plus a truncated one,
        # each internally orthonormal
        d, r = 4, 11
        v = stiefel_sample(d, r, RngStream(17)).vectors
        for start, size in ((0, 4), (4, 4), (8, 3)):
            block = v[start:start + size]
            assert np.linalg.norm(block @ block.T - np.eye(size)) <= 1e-10

    @pytest.mark.parametrize("d,r", [(4, 11), (4, 8), (10, 90), (3, 2)])
    def test_frames_equal_single_frames_drawn_one_at_a_time(self, d, r):
        # the same stream drawn frame by frame through the r <= d path
        # gives the same bits
        stream = RngStream(23)
        sizes = [d] * (r // d) + ([r % d] if r % d else [])
        want = np.vstack([stiefel_sample(d, k, stream).vectors
                          for k in sizes])
        got = stiefel_sample(d, r, RngStream(23)).vectors
        np.testing.assert_array_equal(got, want)
        # F-ordered, one frame or several: the layout decides which BLAS
        # kernel the solver's products take
        assert got.flags.f_contiguous


@pytest.mark.parametrize("d,k", [(5, 3), (5, 5), (4, 12), (4, 11)],
                         ids=["k_below_d", "k_d", "k_3d", "k_2d_plus_rem"])
def test_stiefel_columns_of_a_stack_equal_sequential_samples(d, k):
    # three rows of normals drawn at once give the columns of three
    # stiefel_sample(d, k) calls on the same stream, in order
    stream = RngStream(29)
    want = [stiefel_sample(d, k, stream).vectors for _ in range(3)]
    columns = _stiefel_columns(
        RngStream(29).generator.standard_normal((3, d * k)), d)
    assert columns.shape == (3, d, k) and columns.flags.c_contiguous
    for got, frame in zip(columns, want):
        np.testing.assert_array_equal(got.T, frame)
        assert got.T.flags.f_contiguous


def test_haar_frames_of_a_stack_equal_per_matrix_calls():
    gen = np.random.default_rng(31)
    for shape in [(5, 6, 6), (3, 2, 6, 4), (4, 20, 20)]:
        normals = gen.standard_normal(shape)
        got = _haar_frames(normals)
        flat = normals.reshape(-1, *shape[-2:])
        want = np.array([_haar_frames(m) for m in flat]).reshape(got.shape)
        np.testing.assert_array_equal(got, want)


class TestGaussianSphereSample:
    def test_unit_norms(self):
        ds = gaussian_sphere_sample(5, 3, RngStream(3))
        np.testing.assert_allclose(np.linalg.norm(ds.vectors, axis=1), 1.0,
                                   atol=1e-12)
        assert ds.frame_size == 1

    def test_one_dimensional_signs(self):
        ds = gaussian_sphere_sample(1, 2, RngStream(4))
        assert set(ds.vectors.ravel()) <= {1.0, -1.0}

    def test_empirical_mean_near_zero(self):
        # 3-sigma check on the mean of 1000 unit vectors in the plane
        ds = gaussian_sphere_sample(2, 1000, RngStream(5))
        assert np.linalg.norm(ds.vectors.mean(axis=0)) <= 0.1

    def test_reproducible(self):
        a = gaussian_sphere_sample(4, 6, RngStream(9)).vectors
        b = gaussian_sphere_sample(4, 6, RngStream(9)).vectors
        assert np.array_equal(a, b)


class _ZeroRowsFirst:
    """A generator whose first ``standard_normal`` draw has the rows
    ``zero`` set to 0; later draws pass through unchanged."""

    def __init__(self, seed, zero):
        self._gen = np.random.default_rng(seed)
        self._zero = zero

    def standard_normal(self, size):
        out = self._gen.standard_normal(size)
        if self._zero is not None:
            out[..., self._zero, :] = 0.0
            self._zero = None
        return out


def test_zero_norm_rows_are_redrawn_as_the_sphere_sampler_redraws_them():
    d, r = 3, 5
    gen = np.random.default_rng(41)
    first = gen.standard_normal((r, d))
    first[[1, 3]] = gen.standard_normal((2, d))
    want = first / np.linalg.norm(first, axis=1)[:, None]
    fake = SimpleNamespace(generator=_ZeroRowsFirst(41, [1, 3]))
    np.testing.assert_array_equal(
        gaussian_sphere_sample(d, r, fake).vectors, want)

    # zero rows in two trials of a stack are redrawn from the one
    # generator in one draw, in C order
    stack = np.random.default_rng(42).standard_normal((3, r, d))
    stack[0, 4] = stack[2, [0, 2]] = 0.0
    want = stack.copy()
    want[[0, 2, 2], [4, 0, 2]] = np.random.default_rng(43).standard_normal(
        (3, d))
    want /= np.linalg.norm(want, axis=-1)[..., None]
    sizes, redraws = [], np.random.default_rng(43)

    def standard_normal(size):
        sizes.append(size)
        return redraws.standard_normal(size)

    got = _unit_rows(stack, SimpleNamespace(standard_normal=standard_normal))
    np.testing.assert_array_equal(got, want)
    assert sizes == [(3, d)]


def test_marginal_distributions_indistinguishable():
    """Coordinates of Stiefel columns and normalized Gaussians should be
    statistically identical (two-sample KS at significance 0.001)."""
    d = 5
    n_frames = 20000  # 1e5 column samples
    rng = RngStream(6)
    stiefel_cols = np.vstack([stiefel_sample(d, d, rng).vectors
                              for _ in range(n_frames)])
    gauss = gaussian_sphere_sample(d, n_frames * d, RngStream(7)).vectors
    for coord in range(d):
        stat = ks_2samp(stiefel_cols[:, coord], gauss[:, coord])
        assert stat.pvalue > 0.001


class TestDirectionSet:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError):
            DirectionSet(np.array([[1.0, 1.0]]))

    def test_rejects_false_orthonormal_flag(self):
        # a frame of size 2 whose rows are not orthogonal, first or later
        v = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        with pytest.raises(ValueError, match="row 0"):
            DirectionSet(v, frame_size=2)
        with pytest.raises(ValueError, match="row 2"):
            DirectionSet(np.vstack([np.eye(2), v]), frame_size=2)
        DirectionSet(v, frame_size=1)  # one-row frames claim nothing

    def test_rejects_overfull_orthonormal_flag(self):
        # frame_size must lie in [1, d]
        v = np.array([[1.0], [-1.0]])
        for size in (0, 2):
            with pytest.raises(ValueError, match="frame_size"):
                DirectionSet(v, frame_size=size)
        with pytest.raises(ValueError, match="frame_size"):
            DirectionSet(np.eye(3), frame_size=4)

    def test_frames_may_repeat_and_the_last_be_short(self):
        v = np.vstack([np.eye(3), -np.eye(3), np.eye(3)[:1]])
        assert DirectionSet(v, frame_size=3).frame_size == 3
        assert DirectionSet(np.eye(3)[:2], frame_size=3).r == 2

    @pytest.mark.parametrize("d", [1, 7, 200])
    def test_sampler_output_passes_public_checks(self, d):
        # samplers skip the constructor's checks; their sets must pass them
        rng = RngStream(d)
        for r in (1, d, 2 * d + 1):
            for ds in (stiefel_sample(d, r, rng),
                       gaussian_sphere_sample(d, r, rng)):
                again = DirectionSet(ds.vectors, frame_size=ds.frame_size)
                np.testing.assert_array_equal(again.vectors, ds.vectors)
        assert stiefel_sample(d, 2 * d + 1, rng).frame_size == d

    def test_vectors_are_read_only(self):
        ds = stiefel_sample(3, 2, RngStream(8))
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 5.0

