"""Gradient and Hessian estimators: exactness, bounds, contraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zonewton import (
    DirectionSet,
    HessianEstimate,
    Oracle,
    ProbeResult,
    RngStream,
    directional_curvature,
    estimate_gradient,
    estimate_hessian,
    gaussian_sphere_sample,
    gradient_error_bound,
    make_quadratic,
    random_spd,
    stiefel_sample,
    update_rate_bound,
)
from zonewton.estimators import _frame_update, _rank_one


def quad_oracle(a):
    d = a.shape[0]
    return Oracle(lambda x: 0.5 * float(x @ a @ x), d)


class TestDirectionalCurvature:
    def test_exact_on_quadratics(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        oracle = quad_oracle(a)
        directions = gaussian_sphere_sample(2, 4, RngStream(0))
        probe = oracle.probe_batch(np.array([0.3, -0.7]), directions, mu=1e-4)
        for j in range(4):
            u = directions.vectors[j]
            assert directional_curvature(probe)[j] == pytest.approx(
                float(u @ a @ u), rel=1e-6)

    def test_quartic_one_dimensional(self):
        oracle = Oracle(lambda x: float(x[0] ** 4), 1)
        basis = DirectionSet(np.array([[1.0]]), frame_size=1)
        probe = oracle.probe_batch(np.array([1.0]), basis, mu=0.1)
        assert directional_curvature(probe)[0] == pytest.approx(12.02, abs=1e-9)

    def test_constant_function(self):
        oracle = Oracle(lambda x: 4.0, 3)
        directions = gaussian_sphere_sample(3, 2, RngStream(1))
        probe = oracle.probe_batch(np.zeros(3), directions, mu=0.2)
        assert directional_curvature(probe)[0] == 0.0

    def test_index_out_of_range(self):
        oracle = Oracle(lambda x: 0.0, 2)
        directions = gaussian_sphere_sample(2, 1, RngStream(2))
        probe = oracle.probe_batch(np.zeros(2), directions, mu=0.1)
        with pytest.raises(IndexError):
            directional_curvature(probe)[1]


class TestRankOneUpdate:
    def test_canonical_direction(self):
        est = HessianEstimate.zero(2)
        est.update(np.array([1.0, 0.0]), 2.0)
        np.testing.assert_array_equal(est.matrix, np.diag([2.0, 0.0]))

    def test_diagonal_direction(self):
        est = HessianEstimate.zero(2)
        est.update(np.array([1.0, 1.0]) / np.sqrt(2.0), 3.0)
        np.testing.assert_allclose(est.matrix, np.full((2, 2), 1.5), atol=1e-12)

    def test_matching_property_random(self):
        gen = np.random.default_rng(3)
        for _ in range(200):
            d = int(gen.integers(1, 9))
            h = gen.standard_normal((d, d))
            est = HessianEstimate(h + h.T)
            u = gen.standard_normal(d)
            u /= np.linalg.norm(u)
            c = float(gen.standard_normal() * 10)
            est.update(u, c)
            assert float(u @ est.matrix @ u) == pytest.approx(
                c, rel=1e-9, abs=1e-12)

    def test_symmetry_is_exact(self):
        gen = np.random.default_rng(4)
        est = HessianEstimate.zero(5)
        for _ in range(50):
            u = gen.standard_normal(5)
            u /= np.linalg.norm(u)
            est.update(u, float(gen.standard_normal()))
        assert np.array_equal(est.matrix, est.matrix.T)

    def test_rejects_non_unit_direction(self):
        est = HessianEstimate.zero(3)
        with pytest.raises(ValueError):
            est.update(np.array([1.0, 1.0, 0.0]), 1.0)

    def test_rejects_asymmetric_init(self):
        with pytest.raises(ValueError):
            HessianEstimate(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_a_nan_direction_and_keeps_the_estimate(self):
        est = HessianEstimate.zero(3)
        with pytest.raises(ValueError, match="unit norm"):
            est.update(np.array([np.nan, 0.0, 0.0]), 1.0)
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_init_as_not_finite(self, value):
        # a symmetric matrix: the message must not say "symmetric"
        with pytest.raises(ValueError, match="must be finite"):
            HessianEstimate(np.array([[value, 0.0], [0.0, 1.0]]))


@st.composite
def frame_probes(draw):
    """A symmetric warm start and a probe batch along a Stiefel set of up to
    three frames whose second differences are exactly the drawn curvatures
    (mu = 1, f0 = 0)."""
    d = draw(st.integers(1, 12))
    r = draw(st.integers(1, 3 * d))
    values = st.floats(-100.0, 100.0)
    w = draw(arrays(float, (d, d), elements=values))
    c = draw(arrays(float, r, elements=values))
    frame = stiefel_sample(d, r, RngStream(draw(st.integers(0, 2**32 - 1))))
    probe = ProbeResult(center_value=0.0, plus_values=c / 2,
                        minus_values=c / 2, mu=1.0, directions=frame)
    return w + w.T, c, probe


class TestApplyProbe:
    @settings(max_examples=200, deadline=None)
    @given(frame_probes())
    def test_frame_update_matches_every_direction(self, case):
        warm, c, probe = case
        est = HessianEstimate(warm)
        residuals = est.apply_probe(probe.directions,
                                    directional_curvature(probe))
        h = est.matrix
        v = probe.directions.vectors
        k = probe.directions.frame_size
        # H matches every direction of the last frame, and the first
        # frame's residuals are taken from the warm start
        last, first = v[(probe.r - 1) // k * k:], v[:k]
        scale = 1.0 + np.linalg.norm(warm) + np.linalg.norm(c)
        np.testing.assert_allclose(np.sum((last @ h) * last, axis=1),
                                   c[-len(last):], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            residuals[:k], c[:k] - np.sum((first @ warm) * first, axis=1),
            rtol=0, atol=1e-12 * scale)
        assert np.array_equal(h, h.T)
        sequential = HessianEstimate(warm)
        want_residuals = [sequential.update(u, directional_curvature(probe)[j])
                          for j, u in enumerate(v)]
        np.testing.assert_allclose(residuals, want_residuals,
                                   rtol=0, atol=1e-12 * scale)
        seq = sequential.matrix
        assert np.linalg.norm(h - seq) <= 1e-13 * max(
            np.linalg.norm(seq), np.linalg.norm(warm))

    def test_non_orthonormal_set_applies_updates_in_order(self):
        a = random_spd(3, 4.0, RngStream(19))
        directions = gaussian_sphere_sample(3, 5, RngStream(20))
        probe = quad_oracle(a).probe_batch(np.zeros(3), directions, mu=1e-3)
        est = HessianEstimate.zero(3)
        residuals = est.apply_probe(probe.directions,
                                    directional_curvature(probe))
        want = HessianEstimate.zero(3)
        want_residuals = [want.update(directions.vectors[j],
                                      directional_curvature(probe)[j])
                          for j in range(5)]
        np.testing.assert_array_equal(est.matrix, want.matrix)
        np.testing.assert_array_equal(residuals, want_residuals)


class TestEstimateHessian:
    def test_exact_on_diagonal_quadratic_with_canonical_basis(self):
        a = np.diag([2.0, 4.0])
        oracle = quad_oracle(a)
        basis = DirectionSet(np.eye(2), frame_size=2)
        est, probe = estimate_hessian(oracle, np.array([0.5, -1.0]), basis,
                                      mu=0.3)
        np.testing.assert_allclose(est.matrix, a, atol=1e-10)
        assert oracle.eval_count == 5
        assert probe.r == 2

    def test_warm_start_with_exact_hessian_is_fixed_point(self):
        a = random_spd(4, 5.0, RngStream(5))
        oracle = quad_oracle(a)
        warm = HessianEstimate(a.copy())
        directions = gaussian_sphere_sample(4, 6, RngStream(6))
        est, _ = estimate_hessian(oracle, np.zeros(4), directions, mu=1e-3,
                                  warm_start=warm)
        np.testing.assert_allclose(est.matrix, a, atol=1e-9)

    def test_warm_start_input_untouched(self):
        a = np.diag([1.0, 2.0, 3.0])
        oracle = quad_oracle(a)
        warm = HessianEstimate.zero(3)
        directions = gaussian_sphere_sample(3, 4, RngStream(7))
        estimate_hessian(oracle, np.zeros(3), directions, mu=0.1,
                         warm_start=warm)
        np.testing.assert_array_equal(warm.matrix, np.zeros((3, 3)))

    def test_records_probe_center(self):
        a = np.eye(2)
        oracle = quad_oracle(a)
        x = np.array([1.0, 1.0])
        est, probe = estimate_hessian(
            oracle, x, stiefel_sample(2, 2, RngStream(8)), mu=0.1)
        assert probe.center_value == pytest.approx(1.0)


class TestEstimateGradient:
    def test_exact_on_linear_functions(self):
        c = np.array([1.5, -2.0, 0.25])
        oracle = Oracle(lambda x: float(c @ x), 3)
        basis = stiefel_sample(3, 3, RngStream(9))
        probe = oracle.probe_batch(np.array([0.2, 0.4, -0.6]), basis, mu=0.05)
        g = estimate_gradient(probe)
        np.testing.assert_allclose(g, c, atol=1e-12)

    def test_cubic_error_matches_bound_exactly(self):
        # f(x) = x^3 in 1-d: error (1.331 - 0.729)/0.2 - 3 = 0.01 equals
        # the bound with L2 = 6 (third derivative constant), mu = 0.1.
        oracle = Oracle(lambda x: float(x[0] ** 3), 1)
        basis = DirectionSet(np.array([[1.0]]), frame_size=1)
        probe = oracle.probe_batch(np.array([1.0]), basis, mu=0.1)
        g = estimate_gradient(probe)[0]
        assert g == pytest.approx(3.01, abs=1e-12)
        assert abs(g - 3.0) == pytest.approx(
            gradient_error_bound(1, 6.0, 0.1), abs=1e-12)

    def test_constant_function(self):
        oracle = Oracle(lambda x: 2.5, 2)
        basis = stiefel_sample(2, 2, RngStream(10))
        probe = oracle.probe_batch(np.zeros(2), basis, mu=0.1)
        np.testing.assert_array_equal(estimate_gradient(probe), np.zeros(2))

    def test_requires_orthonormal_basis(self):
        oracle = Oracle(lambda x: 0.0, 3)
        directions = gaussian_sphere_sample(3, 3, RngStream(11))
        probe = oracle.probe_batch(np.zeros(3), directions, mu=0.1)
        with pytest.raises(ValueError, match="orthonormal"):
            estimate_gradient(probe)

    def test_reads_the_first_frame_of_a_multi_frame_set(self):
        d = 4
        fn = lambda x: float(np.sum(np.sin(x)))
        x = np.array([0.3, -1.2, 2.0, 0.7])
        directions = stiefel_sample(d, 2 * d + 1, RngStream(14))
        probe = Oracle(fn, d).probe_batch(x, directions, mu=0.1)
        first = DirectionSet(directions.vectors[:d], frame_size=d)
        want = estimate_gradient(Oracle(fn, d).probe_batch(x, first, mu=0.1))
        np.testing.assert_allclose(estimate_gradient(probe), want,
                                   rtol=1e-15, atol=0)
        # f has Hessian-Lipschitz constant 1
        assert np.linalg.norm(want - np.cos(x)) <= gradient_error_bound(
            d, 1.0, 0.1)

    def test_requires_full_dimension(self):
        oracle = Oracle(lambda x: 0.0, 3)
        directions = stiefel_sample(3, 2, RngStream(12))
        probe = oracle.probe_batch(np.zeros(3), directions, mu=0.1)
        with pytest.raises(ValueError):
            estimate_gradient(probe)

    def test_consumes_zero_evaluations(self):
        oracle = Oracle(lambda x: float(np.sum(x)), 4)
        basis = stiefel_sample(4, 4, RngStream(13))
        probe = oracle.probe_batch(np.zeros(4), basis, mu=0.1)
        before = oracle.eval_count
        estimate_gradient(probe)
        assert oracle.eval_count == before


@pytest.mark.parametrize("d,expected", [
    (2, 0.75),
    (10, 1.0 - 2.0 / 120.0),
    (1, 1.0 / 3.0),
])
def test_update_rate_bound(d, expected):
    assert update_rate_bound(d) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d,L2,mu,expected", [
    (1, 6.0, 0.1, 0.01),
    (3, 0.0, 0.5, 0.0),
    (4, 6.0, 0.01, 4e-4),
])
def test_gradient_error_bound(d, L2, mu, expected):
    assert gradient_error_bound(d, L2, mu) == pytest.approx(expected, rel=1e-12)


def test_gradient_bound_holds_on_pure_cubic():
    """f(x) = sum x_i^3 on ||x||_inf <= 1 has Hessian-Lipschitz constant 6;
    the bound must hold deterministically for every probe."""
    d = 4
    oracle_fn = lambda x: float(np.sum(x**3))
    gen = np.random.default_rng(14)
    rng = RngStream(15)
    for mu in (1e-1, 1e-2, 1e-3):
        bound = gradient_error_bound(d, 6.0, mu)
        for _ in range(40):
            x = gen.uniform(-1.0, 1.0, size=d)
            oracle = Oracle(oracle_fn, d)
            probe = oracle.probe_batch(x, stiefel_sample(d, d, rng), mu)
            g = estimate_gradient(probe)
            exact = 3.0 * x**2
            err = np.linalg.norm(exact - g)
            assert err <= bound + 1e-12 * (1.0 + np.linalg.norm(exact))


def test_mean_squared_error_contracts_at_bounded_rate():
    """Light version of the rate check (the acceptance suite runs the full
    2000-trial version at d in {3, 5, 8})."""
    d = 3
    eta = update_rate_bound(d)
    a = random_spd(d, 2.0, RngStream(16))
    trials, n_updates = 500, 10
    sq = np.empty((trials, n_updates + 1))
    for t in range(trials):
        stream = RngStream(17 + t)
        dirs = gaussian_sphere_sample(d, n_updates, stream)
        oracle = quad_oracle(a)
        probe = oracle.probe_batch(np.zeros(d), dirs, mu=1e-6)
        est = HessianEstimate.zero(d)
        sq[t, 0] = np.linalg.norm(est.matrix - a) ** 2
        for k in range(n_updates):
            est.update(dirs.vectors[k], directional_curvature(probe)[k])
            sq[t, k + 1] = np.linalg.norm(est.matrix - a) ** 2
    mse = sq.mean(axis=0)
    geomean = (mse[-1] / mse[0]) ** (1.0 / n_updates)
    assert geomean <= eta * 1.02


def test_many_updates_converge_to_true_hessian():
    """With r = 50 d^2 sphere directions the estimate should land within 1%
    relative Frobenius error in at least 99 of 100 seeded runs."""
    d = 5
    a = random_spd(d, 8.0, RngStream(18))
    norm_a = np.linalg.norm(a)
    r = 50 * d * d
    hits = 0
    for seed in range(100):
        dirs = gaussian_sphere_sample(d, r, RngStream(1000 + seed))
        est, _ = estimate_hessian(quad_oracle(a), np.zeros(d), dirs, mu=1e-6)
        if np.linalg.norm(est.matrix - a) / norm_a <= 1e-2:
            hits += 1
    assert hits >= 99


@st.composite
def rank_one_stacks(draw):
    """A stack of symmetric warm starts over leading shape (T,) or (T1, T2),
    and for each of them a few unit directions and curvatures."""
    lead = draw(st.sampled_from([(1,), (4,), (7,), (1, 3), (2, 3), (3, 2)]))
    d = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 5))
    values = st.floats(-100.0, 100.0)
    w = draw(arrays(float, lead + (d, d), elements=values))
    c = draw(arrays(float, lead + (steps,), elements=values))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = gen.standard_normal(lead + (steps, d))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return w + np.swapaxes(w, -1, -2), u, c


@settings(max_examples=200, deadline=None)
@given(rank_one_stacks())
def test_stacked_rank_one_matches_sequential_updates(case):
    warm, u, c = case
    h = warm.copy()
    residuals = np.stack([_rank_one(h, u[..., j, :], c[..., j])
                          for j in range(c.shape[-1])], axis=-1)
    for idx in np.ndindex(warm.shape[:-2]):
        est = HessianEstimate(warm[idx])
        want = [est.update(uj, cj) for uj, cj in zip(u[idx], c[idx])]
        scale = 1.0 + np.linalg.norm(warm[idx]) + np.linalg.norm(c[idx])
        np.testing.assert_allclose(residuals[idx], want,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(h[idx], est.matrix,
                                   rtol=0, atol=1e-12 * scale)
        assert np.array_equal(h[idx], h[idx].T)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_stacked_frame_update_matches_apply_probe(trials, d, data):
    # up to three frames per set, so r > d applies several frames in turn
    r = data.draw(st.integers(1, 3 * d))
    values = st.floats(-100.0, 100.0)
    w = data.draw(arrays(float, (trials, d, d), elements=values))
    warm = w + np.swapaxes(w, -1, -2)
    c = data.draw(arrays(float, (trials, r), elements=values))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sets = [stiefel_sample(d, r, RngStream(seed + t)) for t in range(trials)]
    v = np.array([s.vectors for s in sets])
    h = warm.copy()
    residuals = np.concatenate([
        _frame_update(h, v[:, start:start + d], c[:, start:start + d])
        for start in range(0, r, d)], axis=1)
    for t, directions in enumerate(sets):
        est = HessianEstimate(warm[t])
        want = est.apply_probe(directions, c[t])
        scale = 1.0 + np.linalg.norm(warm[t]) + np.linalg.norm(c[t])
        np.testing.assert_allclose(residuals[t], want,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(h[t], est.matrix,
                                   rtol=0, atol=1e-12 * scale)
        assert np.array_equal(h[t], h[t].T)
