"""Solver building blocks and the composed iteration."""

import dataclasses
import math
import threading
import weakref

import numpy as np
import pytest

from zonewton import (
    AdaptiveDirections,
    DirectionSet,
    FederationConfig,
    FixedDirections,
    HessianEstimate,
    Objective,
    Oracle,
    RngStream,
    SolverConfig,
    SolverState,
    TraceRecord,
    adaptive_direction_count,
    contraction_gamma,
    deterministic_fd_costs,
    gaussian_sphere_sample,
    gradient_error_bound,
    iterate,
    iterations,
    logistic_objective,
    make_cubic_box,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    optimal_stepsize,
    partition_dataset,
    random_spd,
    run,
    stiefel_sample,
    update_rate_bound,
    zo_floor_stop,
)
from zonewton import _helpers as helpers_module
from zonewton import _lapack as lapack_module
from zonewton import solver as solver_module
from zonewton.experiments import (
    gradient_bound_verification,
    linear_rate_verification,
    rate_verification,
    sampling_comparison,
)
from zonewton.problems import check_known_derivatives
from zonewton.solver import (
    RUNNING,
    STOPPED_BUDGET,
    STOPPED_MAX_ITER,
    STOPPED_NUMERICAL,
    STOPPED_ZO_FLOOR,
    _clip_inverse,
    _newton_direction,
)
from tests.test_helpers import dead_soon


class TestEigenvalueClip:
    """The clipped inverse behind the Newton step, ``_clip_inverse``."""

    def test_diagonal_clamp(self):
        z, clipped = _clip_inverse(np.diag([5.0, -1.0]), 0.1, 10.0)
        np.testing.assert_allclose(z, np.diag([0.2, 10.0]), atol=1e-12)
        assert clipped

    def test_identity_in_range(self):
        z, clipped = _clip_inverse(np.eye(3), 0.5, 2.0)
        np.testing.assert_allclose(z, np.eye(3), atol=1e-12)
        assert not clipped

    def test_exact_inverse_when_spectrum_inside(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1, 3
        z, clipped = _clip_inverse(h, 0.5, 10.0)
        np.testing.assert_allclose(z, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0,
                                   atol=1e-12)
        assert np.linalg.norm(z @ h - np.eye(2)) <= 1e-8
        assert not clipped

    def test_spectrum_of_result_is_bracketed(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            d = int(gen.integers(1, 8))
            h = gen.standard_normal((d, d))
            h = h + h.T
            z, _ = _clip_inverse(h, 0.5, 4.0)
            w = np.linalg.eigvalsh(z)
            assert w[0] >= 1.0 / 4.0 - 1e-10
            assert w[-1] <= 1.0 / 0.5 + 1e-10

    def test_info_reports_clipping(self):
        assert _clip_inverse(np.diag([5.0, 1.0]), 0.5, 2.0)[1] is True
        assert _clip_inverse(np.eye(2), 0.5, 2.0)[1] is False

    @pytest.mark.parametrize("w", [
        [-2.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0,
         4.0, np.nextafter(4.0, 5.0), 7.0],
        [0.5, 1.0, 4.0]], ids=["clipped", "on-the-bounds"])
    def test_the_clamp_is_np_clip_bit_for_bit(self, w):
        # the decomposition is given, so eigenvalues sit exactly on a bound
        lo, hi = 0.5, 4.0
        w = np.sort(np.array(w))
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal(
            (len(w), len(w))))
        h = (q * w) @ q.T
        z, clipped = _clip_inverse(0.5 * (h + h.T), lo, hi, (w, q))
        want = (q * (1.0 / np.clip(w, lo, hi))) @ q.T
        want = 0.5 * (want + want.T)
        assert np.array_equal(z.view(np.int64), want.view(np.int64))
        assert clipped is bool(w[0] < lo or w[-1] > hi)


def test_dot_product_norm_is_numpy_norm_bit_for_bit():
    # the solver's 1-D norms are math.sqrt(v.dot(v)), the formula
    # np.linalg.norm runs for a real vector; scales above about 1e154
    # overflow the dot product to inf
    gen = np.random.default_rng(0)
    vectors = [scale * gen.standard_normal(d)
               for scale in 10.0 ** np.arange(-300, 201, 25)
               for d in (1, 2, 10, 100, 200)]
    vectors += [np.array(v) for v in ([np.inf, 1.0], [-np.inf], [np.nan, 2.0],
                                      [1.0, np.inf, np.nan], [0.0, -0.0],
                                      [0.0] * 7)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for v in vectors:
            got, want = math.sqrt(v.dot(v)), float(np.linalg.norm(v))
            assert np.float64(got).view(np.int64) == \
                np.float64(want).view(np.int64), v
    big = np.full(3, 1e200)
    for norm in (lambda v: math.sqrt(v.dot(v)), np.linalg.norm):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert norm(big) == np.inf


def _symmetric_with_spectrum(w, gen):
    """Q diag(w) Q^T for a random orthogonal Q, exactly symmetric."""
    q, _ = np.linalg.qr(gen.standard_normal((len(w), len(w))))
    h = (q * w) @ q.T
    return 0.5 * (h + h.T)


def _linear_gate_setting(max_iterations):
    """The linear-rate gate's problem, config and start at d = 10, cond 100
    and gate seed 1, whose direction stream is ``RngStream(2)``: the bounds
    are the true Hessian's extreme eigenvalues, so the estimate's spectrum
    sits on both sides of them and runs of steps clip."""
    d = 10
    stream = RngStream(1)
    problem = make_quadratic(random_spd(d, 100.0, stream),
                             stream.generator.standard_normal(d))
    m, L1 = problem.known.m, problem.known.L1
    config = SolverConfig(
        mu=1e-6, r_policy=FixedDirections(d), alpha=optimal_stepsize(m, L1),
        lambda_min=m, lambda_max=L1, max_iterations=max_iterations)
    v = stream.generator.standard_normal(d)
    return problem, config, problem.known.x_star + v / np.linalg.norm(v)


def _outputs(value):
    return value if isinstance(value, tuple) else (value,)


class TestLapackSeam:
    """``_lapack`` calls numpy's private LAPACK gufuncs directly. It
    must give ``np.linalg``'s outputs bit for bit, and a NaN output exactly
    where ``np.linalg`` raises ``LinAlgError``, so that a numpy whose
    private module changes fails here."""

    LO, HI = 0.5, 20.0

    @staticmethod
    def succeeds(seam, reference, *args):
        """Whether ``reference(*args)`` succeeds; asserts that ``seam``
        gives its bits, or an all-NaN output where it raises. The seam runs
        under an error state that ignores what ``np.linalg`` ignores (LAPACK
        divides by zero on an inf matrix) and the failure's ``invalid``."""
        with np.errstate(all="ignore"):
            got = _outputs(seam(*args))
        try:
            want = _outputs(reference(*args))
        except np.linalg.LinAlgError:
            assert all(np.isnan(out).all() for out in got)
            return False
        assert len(got) == len(want)
        for out, ref in zip(got, want):
            assert out.dtype == ref.dtype == np.float64
            assert out.shape == ref.shape
            assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        return True

    @pytest.mark.parametrize("d", [1, 2, 10, 100, 200])
    @pytest.mark.parametrize("bound", ["lower", "upper"])
    @pytest.mark.parametrize("ulps", [-1, 0, 1], ids=["outside", "on",
                                                       "inside"])
    def test_a_spectrum_at_a_bound_gives_np_linalg_bits(self, d, bound,
                                                          ulps):
        gen = np.random.default_rng([d, ulps + 1, bound == "upper"])
        span = self.HI - self.LO
        w = gen.uniform(self.LO + 0.1 * span, self.HI - 0.1 * span, d)
        edge, inward = ((self.LO, np.inf) if bound == "lower"
                        else (self.HI, -np.inf))
        w[0] = edge if ulps == 0 else np.nextafter(edge, ulps * inward)
        h = _symmetric_with_spectrum(w, gen)
        g = gen.standard_normal(d)
        assert self.succeeds(lapack_module.eigh, np.linalg.eigh, h)
        eye = np.eye(d)
        tested = {"lower": h - self.LO * eye, "upper": self.HI * eye - h}
        factored = {name: self.succeeds(lapack_module.cholesky,
                                        np.linalg.cholesky, a)
                    for name, a in tested.items()}
        if d == 1:
            # h is w itself, so only the bound's own test fails, and it
            # fails on the bound and outside it
            assert factored[bound] is (ulps > 0)
        assert self.succeeds(lapack_module.solve, np.linalg.solve, h, g)

    @pytest.mark.parametrize("d", [1, 2, 10, 100, 200])
    def test_a_singular_solve_is_nan(self, d):
        gen = np.random.default_rng(d)
        h = _symmetric_with_spectrum(gen.uniform(1.0, 2.0, d), gen)
        h[0], h[:, 0] = 0.0, 0.0
        assert not self.succeeds(lapack_module.solve, np.linalg.solve,
                                 h, gen.standard_normal(d))

    def test_an_eigensolver_failure_is_nan(self):
        # np.linalg.eigh raises on some matrices of NaN or inf (with
        # OpenBLAS 0.3.31, d = 10 of NaN and d = 4 of inf) and returns NaN
        # on others
        raised = 0
        for d in (1, 2, 4, 10, 100, 200):
            for value in (np.nan, np.inf):
                raised += not self.succeeds(lapack_module.eigh,
                                            np.linalg.eigh,
                                            np.full((d, d), value))
        assert raised


class TestNewtonDirection:
    LO, HI = 0.5, 20.0

    @pytest.mark.parametrize("d", [1, 2, 5, 30])
    def test_inside_the_bounds_solves_with_the_inverse(self, d):
        gen = np.random.default_rng(d)
        # relative margin 1e-6 to either bound, both margins taken when d > 1
        lo, hi = self.LO * (1 + 1e-6), self.HI * (1 - 1e-6)
        w = np.concatenate([[lo, hi][:d], gen.uniform(lo, hi, max(d - 2, 0))])
        h = _symmetric_with_spectrum(w, gen)
        g = gen.standard_normal(d)
        with np.errstate(invalid="ignore"):
            direction, clipped = _newton_direction(h, g, self.LO, self.HI)
        assert clipped is False
        np.testing.assert_allclose(
            direction, _clip_inverse(h, self.LO, self.HI)[0] @ g, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 5, 30])
    @pytest.mark.parametrize("outside", ["below", "above"])
    def test_outside_the_bounds_is_the_clipped_inverse_bit_for_bit(
            self, d, outside):
        gen = np.random.default_rng(100 + d)
        w = gen.uniform(-5.0, 2.0 * self.HI, d)
        w[0] = -1.0 if outside == "below" else 3.0 * self.HI
        h = _symmetric_with_spectrum(w, gen)
        g = gen.standard_normal(d)
        with np.errstate(invalid="ignore"):
            direction, clipped = _newton_direction(h, g, self.LO, self.HI)
        assert clipped is True
        assert np.array_equal(
            direction, _clip_inverse(h, self.LO, self.HI)[0] @ g)

    def test_eigenvalue_on_a_bound_takes_the_fallback_unclipped(self):
        h = np.diag([self.LO, 2.0 * self.LO])
        g = np.array([1.0, -3.0])
        with np.errstate(invalid="ignore"):
            direction, clipped = _newton_direction(h, g, self.LO, self.HI)
        assert clipped is False
        assert np.array_equal(
            direction, _clip_inverse(h, self.LO, self.HI)[0] @ g)

    @pytest.mark.parametrize("d", [1, 10, 200])
    def test_cholesky_tests_take_the_identity_forms_bit_for_bit(
            self, d, monkeypatch):
        # off the diagonal: +0.0, -0.0 and small values, mirrored exactly
        gen = np.random.default_rng(d)
        h = gen.choice([0.0, -0.0, 1e-3 / d], (d, d)) * gen.choice(
            [1.0, -1.0], (d, d))
        h[np.diag_indices(d)] = gen.uniform(self.LO + 1.0, self.HI - 1.0, d)
        upper = np.triu_indices(d, 1)
        h[upper[::-1]] = h[upper]
        if d > 1:
            assert np.signbit(h[upper][h[upper] == 0.0]).any()
        tested = []
        cholesky = lapack_module.cholesky

        def spy(a):
            tested.append(a.copy())
            return cholesky(a)

        monkeypatch.setattr(lapack_module, "cholesky", spy)
        with np.errstate(invalid="ignore"):
            _newton_direction(h, gen.standard_normal(d), self.LO, self.HI)
        lower, upper = tested
        eye = np.eye(d)
        assert np.array_equal(lower.view(np.int64),
                              (h - self.LO * eye).view(np.int64))
        assert np.array_equal(upper.view(np.int64),
                              (self.HI * eye - h).view(np.int64))

    def test_clip_flag_matches_the_eigenvalues_along_a_run(self, monkeypatch):
        d, seed = 10, 1
        problem, config, x0 = _linear_gate_setting(300)
        m, L1 = problem.known.m, problem.known.L1

        def records():
            state = SolverState.initial(x0, d)
            oracle, rng = problem.make_oracle(), RngStream(seed + 1)
            for _ in range(config.max_iterations):
                state, record = iterate(state, oracle, config, rng)
                yield state, record
            assert state.status == RUNNING

        calls, factored = [], []
        cholesky = lapack_module.cholesky

        def counted(*args):
            calls.append(1)
            return _clip_inverse(*args)

        def spy(a):
            factored.append(1)
            return cholesky(a)

        monkeypatch.setattr(solver_module, "_clip_inverse", counted)
        monkeypatch.setattr(lapack_module, "cholesky", spy)
        verdicts, run = [], []
        for state, record in records():
            w = np.linalg.eigh(state.hessian.matrix)[0]
            assert record.clipped == bool(w[0] < m or w[-1] > L1)
            # a clipped step that follows a clipped step factors nothing
            if verdicts and verdicts[-1] and record.clipped:
                assert not factored
            factored.clear()
            verdicts.append(record.clipped)
            run.append(record)
        # both branches: some steps took the linear solve, some the fallback
        assert 0 < len(calls) < len(verdicts)
        assert any(verdicts)
        assert any(a and b for a, b in zip(verdicts, verdicts[1:]))
        monkeypatch.undo()
        monkeypatch.setattr(solver_module, "_newton_direction",
                            _two_cholesky_direction)
        reference = [record for _, record in records()]
        assert record_bits(run) == record_bits(reference)


def _two_cholesky_direction(h, g, lambda_min, lambda_max, eigh_first=False):
    """The Newton direction in the two-Cholesky order, written out: test
    h - lambda_min I and lambda_max I - h, solve with h when both have a
    factor, and else clamp the spectrum from an eigendecomposition. It
    ignores ``eigh_first``."""
    d = len(g)
    try:
        np.linalg.cholesky(h - lambda_min * np.eye(d))
        np.linalg.cholesky(lambda_max * np.eye(d) - h)
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(h)
        z = (q * (1.0 / np.clip(w, lambda_min, lambda_max))) @ q.T
        z = 0.5 * (z + z.T)
        return z @ g, bool(w[0] < lambda_min or w[-1] > lambda_max)
    return np.linalg.solve(h, g), False


class TestEighFirstMargin:
    """After a clipped step the direction starts from an eigendecomposition,
    and an eigenvalue 2 delta or more outside the bounds skips the Cholesky
    tests, with delta = 2 d^2 eps (|w_1| + |w_d| + lambda_min + lambda_max).
    """

    LO, HI = 0.5, 20.0

    @pytest.mark.parametrize("d", [1, 2, 10, 100])
    @pytest.mark.parametrize("bound", ["lower", "upper"])
    @pytest.mark.parametrize("k", [-10, -2, -0.5, 0, 0.5, 2, 10])
    def test_direction_and_verdict_are_the_two_cholesky_bits(
            self, d, bound, k, monkeypatch):
        gen = np.random.default_rng([d, k < 0, int(abs(k) * 2)])
        span = self.HI - self.LO
        w = gen.uniform(self.LO + 0.1 * span, self.HI - 0.1 * span, d)
        w[0] = self.LO if bound == "lower" else self.HI
        delta = (2 * d * d * np.finfo(float).eps
                 * (abs(w.min()) + abs(w.max()) + self.LO + self.HI))
        w[0] += k * delta
        h = _symmetric_with_spectrum(w, gen)
        g = gen.standard_normal(d)
        want = _two_cholesky_direction(h, g, self.LO, self.HI)
        cholesky, factored = lapack_module.cholesky, []

        def spy(a):
            factored.append(1)
            return cholesky(a)

        monkeypatch.setattr(lapack_module, "cholesky", spy)
        for eigh_first in (False, True):
            factored.clear()
            with np.errstate(invalid="ignore"):
                direction, clipped = _newton_direction(
                    h, g, self.LO, self.HI, eigh_first)
            assert clipped is want[1]
            assert np.array_equal(direction.view(np.int64),
                                  want[0].view(np.int64))
            outside = -k if bound == "lower" else k
            if eigh_first and outside >= 2:
                assert clipped is True and not factored
            else:
                assert factored


def test_optimal_stepsize_and_gamma():
    assert optimal_stepsize(1.0, 2.0) == 0.5
    assert contraction_gamma(optimal_stepsize(1.0, 1.0), 1.0, 1.0, 1.0, 1.0) \
        == pytest.approx(1.0)
    alpha = optimal_stepsize(1.0, 2.0)
    assert contraction_gamma(alpha, 0.5, 2.0, 1.0, 4.0) == pytest.approx(0.0625)


class TestZoFloorStop:
    def test_fires_with_guarantee(self):
        bound = zo_floor_stop(3e-4, 4, 6.0, 0.01, 1.0)
        assert bound == pytest.approx(8e-4)

    def test_quadratics_never_stop(self):
        assert zo_floor_stop(1e-15, 4, 0.0, 0.01, 1.0) is None

    def test_above_threshold_no_stop(self):
        assert zo_floor_stop(1.0, 4, 6.0, 0.01, 1.0) is None


class TestAdaptiveDirectionCount:
    def test_accurate_proxy_keeps_minimum(self):
        assert adaptive_direction_count(1.0, 5, 1.0, 0.0, 1e-6,
                                        update_rate_bound(5), 0.05, 500) == 5

    def test_formula_example(self):
        r = adaptive_direction_count(
            g_norm=0.1 * 1.0 + 0.0, d=5, L1=1.0, L2=0.0, mu=1e-6,
            eta=0.94286, error_proxy=1.0, r_max=500)
        assert r == 5 + 79

    def test_clamped_to_r_max(self):
        r = adaptive_direction_count(0.1, 5, 1.0, 0.0, 1e-6, 0.94286, 1.0, 50)
        assert r == 50

    def test_requires_r_max_at_least_d(self):
        with pytest.raises(ValueError):
            adaptive_direction_count(0.1, 5, 1.0, 0.0, 1e-6, 0.9, 1.0, 3)

    def test_monotone_in_error_proxy_and_gradient(self):
        gen = np.random.default_rng(7)
        eta = update_rate_bound(6)
        for _ in range(200):
            g = float(gen.uniform(1e-3, 1.0))
            proxy = float(gen.uniform(1e-4, 10.0))
            r = adaptive_direction_count(g, 6, 2.0, 1.0, 1e-4, eta, proxy, 500)
            assert 6 <= r <= 500
            # a worse Hessian proxy can only ask for more directions
            r_worse = adaptive_direction_count(g, 6, 2.0, 1.0, 1e-4, eta,
                                               2.0 * proxy, 500)
            assert r_worse >= r
            # a larger gradient loosens the accuracy target
            r_easier = adaptive_direction_count(2.0 * g, 6, 2.0, 1.0, 1e-4,
                                                eta, proxy, 500)
            assert r_easier <= r


def make_unit_start(problem, seed):
    stream = RngStream(seed)
    v = stream.generator.standard_normal(problem.dimension)
    return problem.known.x_star + v / np.linalg.norm(v)


class TestIterate:
    def test_single_iteration_near_exact_newton(self):
        # quadratic + accurate warm Hessian (r = 10 d^2 updates) gives a step
        # that shrinks the error by far more than 100x
        d = 5
        problem = make_quadratic(random_spd(d, 3.0, RngStream(100)), np.zeros(d))
        x0 = make_unit_start(problem, 200)
        config = SolverConfig(mu=1e-3, r_policy=FixedDirections(10 * d * d),
                              alpha=1.0, lambda_min=0.5, lambda_max=6.0,
                              max_iterations=1)
        state, record = iterate(SolverState.initial(x0, d),
                                problem.make_oracle(), config, RngStream(0))
        assert np.linalg.norm(state.x) <= 1e-2
        assert record.r_used == 10 * d * d

    def test_zero_gradient_keeps_iterate(self):
        d = 3
        a = random_spd(d, 2.0, RngStream(101))
        problem = make_quadratic(a, np.zeros(d))  # x* = 0
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              alpha=1.0, lambda_min=0.5, lambda_max=3.0,
                              max_iterations=1)
        state, _ = iterate(SolverState.initial(np.zeros(d), d),
                           problem.make_oracle(), config, RngStream(1))
        np.testing.assert_array_equal(state.x, np.zeros(d))

    def test_fixed_r_equals_d_costs_2d_plus_1(self):
        d = 6
        problem = make_quadratic(np.eye(d), np.zeros(d))
        oracle = problem.make_oracle()
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              alpha=1.0, lambda_min=0.5, lambda_max=2.0,
                              max_iterations=1)
        iterate(SolverState.initial(np.ones(d), d), oracle, config,
                RngStream(2))
        assert oracle.eval_count == 2 * d + 1

    def test_refuses_stopped_state(self):
        d = 2
        problem = make_quadratic(np.eye(d), np.zeros(d))
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=1)
        state = SolverState.initial(np.ones(d), d)
        state.status = STOPPED_MAX_ITER
        with pytest.raises(ValueError):
            iterate(state, problem.make_oracle(), config, RngStream(3))

    @pytest.mark.parametrize("policy,match", [
        (FixedDirections(2), "below d"),
        (AdaptiveDirections(r_max=9), "L1"),
    ], ids=["fixed_r_below_d", "adaptive_without_l1"])
    def test_rejects_a_policy_that_does_not_fit_before_evaluating(
            self, policy, match):
        d = 5
        oracle = make_quadratic(np.eye(d), np.zeros(d)).make_oracle()
        config = SolverConfig(mu=1e-4, r_policy=policy, max_iterations=1)
        with pytest.raises(ValueError, match=match):
            iterate(SolverState.initial(np.ones(d), d), oracle, config,
                    RngStream(4))
        assert oracle.eval_count == 0


class TestRun:
    def test_single_iteration_cap(self):
        d = 3
        problem = make_quadratic(np.eye(d), np.zeros(d))
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=1)
        trace = run(np.ones(d), problem.make_oracle(), config, RngStream(4))
        assert len(trace.records) == 1
        assert trace.status == STOPPED_MAX_ITER

    def test_budget_allows_exactly_one_iteration(self):
        d = 4
        problem = make_quadratic(np.eye(d), np.zeros(d))
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=10)
        oracle = problem.make_oracle(budget=2 * d + 1)
        trace = run(np.ones(d), oracle, config, RngStream(5))
        assert len(trace.records) == 1
        assert trace.status == STOPPED_BUDGET
        assert trace.records[0].evals == 2 * d + 1

    def test_fgap_monotone_to_floor_with_optimal_stepsize(self):
        d = 5
        problem = make_quadratic(random_spd(d, 10.0, RngStream(102)),
                                 np.ones(d))
        known = problem.known
        config = SolverConfig(
            mu=1e-6, r_policy=FixedDirections(d),
            lambda_min=known.m, lambda_max=known.L1,
            max_iterations=400, L1=known.L1, L2=0.0, m=known.m)
        assert config.resolved_alpha() == pytest.approx(known.m / known.L1)
        trace = run(make_unit_start(problem, 201), problem.make_oracle(),
                    config, RngStream(6))
        gaps = np.array([rec.f_value - known.f_star for rec in trace.records])
        floor_hits = np.nonzero(gaps <= 1e-10)[0]
        assert len(floor_hits) > 0
        until = floor_hits[0]
        assert np.all(np.diff(gaps[:until + 1]) <= 0)

    def test_evals_match_oracle_and_strictly_increase(self):
        d = 4
        problem = make_quadratic(random_spd(d, 4.0, RngStream(103)),
                                 np.zeros(d))
        oracle = problem.make_oracle()
        config = SolverConfig(mu=1e-5, r_policy=FixedDirections(2 * d),
                              max_iterations=8)
        trace = run(np.ones(d), oracle, config, RngStream(7))
        evals = [rec.evals for rec in trace.records]
        assert evals[-1] == oracle.eval_count
        assert all(b > a for a, b in zip(evals, evals[1:]))
        assert all(rec.evals - prev == 2 * rec.r_used + 1
                   for prev, rec in zip([0] + evals, trace.records))

    def test_adaptive_policy_respects_bounds(self):
        d = 4
        problem = make_quadratic(random_spd(d, 6.0, RngStream(104)),
                                 np.zeros(d))
        known = problem.known
        config = SolverConfig(
            mu=1e-5, r_policy=AdaptiveDirections(r_max=30),
            lambda_min=known.m, lambda_max=known.L1,
            max_iterations=12, L1=known.L1, L2=0.0, m=known.m)
        trace = run(np.ones(d), problem.make_oracle(), config, RngStream(8))
        assert all(d <= rec.r_used <= 30 for rec in trace.records)
        # the accounting contract holds for varying r_k too
        evals = [rec.evals for rec in trace.records]
        assert all(rec.evals - prev == 2 * rec.r_used + 1
                   for prev, rec in zip([0] + evals, trace.records))

    def test_zo_floor_stop_on_cubic(self):
        problem = make_cubic_box(4, 0.4)
        known = problem.known
        config = SolverConfig(
            mu=1e-3, r_policy=FixedDirections(4), alpha=1.0,
            lambda_min=known.m, lambda_max=known.L1, max_iterations=50,
            L1=known.L1, L2=known.L2, m=known.m)
        trace = run(0.3 * np.ones(4), problem.make_oracle(), config,
                    RngStream(9))
        assert trace.status == STOPPED_ZO_FLOOR
        assert trace.records[-1].zo_bound == pytest.approx(
            4 * known.L2 * 1e-6 / (3 * known.m))

    def test_nan_objective_stops_numerical(self):
        d = 3
        oracle = Oracle(lambda x: float("nan"), d)
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=5)
        trace = run(np.ones(d), oracle, config, RngStream(12))
        assert trace.status == STOPPED_NUMERICAL
        assert len(trace.records) == 1
        np.testing.assert_array_equal(trace.records[0].x, np.ones(d))
        assert oracle.eval_count == 2 * d + 1

    def test_underflowing_mu_squared_stops_numerical(self):
        # at x = 0 the probe points are distinct, but mu^2 underflows to 0,
        # so every second difference is 0/0
        d = 3
        oracle = make_quadratic(np.eye(d), np.ones(d)).make_oracle()
        config = SolverConfig(mu=1e-300, r_policy=FixedDirections(d),
                              max_iterations=5)
        trace = run(np.zeros(d), oracle, config, RngStream(13))
        assert trace.status == STOPPED_NUMERICAL
        assert len(trace.records) == 1
        assert oracle.eval_count == 2 * d + 1

    def test_fixed_r_below_d_rejected(self):
        problem = make_quadratic(np.eye(3), np.zeros(3))
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(2),
                              max_iterations=1)
        with pytest.raises(ValueError, match="below d"):
            run(np.ones(3), problem.make_oracle(), config, RngStream(10))

    def test_adaptive_requires_l1(self):
        problem = make_quadratic(np.eye(3), np.zeros(3))
        config = SolverConfig(mu=1e-4, r_policy=AdaptiveDirections(r_max=9),
                              max_iterations=1)
        with pytest.raises(ValueError, match="L1"):
            run(np.ones(3), problem.make_oracle(), config, RngStream(11))


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(TraceRecord):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(x, y)
            else:
                assert x == y, f.name


class TestIterations:
    """The generator that ``run`` and the gates consume: the stop status
    lands on the last state it yielded, or on the state passed in."""

    d = 3

    def make(self, budget=None, max_iterations=5):
        oracle = make_quadratic(random_spd(self.d, 5.0, RngStream(40)),
                                np.ones(self.d)).make_oracle(budget=budget)
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(self.d),
                              max_iterations=max_iterations)
        return SolverState.initial(np.zeros(self.d), self.d), oracle, config

    def test_budget_below_one_iteration_yields_nothing(self):
        state, oracle, config = self.make(budget=2 * self.d)
        assert list(iterations(state, oracle, config, RngStream(1))) == []
        assert state.status == STOPPED_BUDGET
        assert state.iteration == 0
        assert oracle.eval_count == 2 * self.d

    def test_cap_marks_the_last_yielded_state(self):
        state, oracle, config = self.make(max_iterations=4)
        pairs = list(iterations(state, oracle, config, RngStream(1)))
        assert [s.iteration for s, _ in pairs] == [1, 2, 3, 4]
        assert [s.status for s, _ in pairs] == [RUNNING] * 3 + [
            STOPPED_MAX_ITER]
        assert state.status == RUNNING

    def test_budget_stop_marks_the_last_yielded_state(self):
        state, oracle, config = self.make(budget=3 * (2 * self.d + 1) + 2)
        pairs = list(iterations(state, oracle, config, RngStream(1)))
        assert len(pairs) == 3
        assert pairs[-1][0].status == STOPPED_BUDGET

    def test_a_caller_that_breaks_early_leaves_the_state_running(self):
        state, oracle, config = self.make()
        stream = iterations(state, oracle, config, RngStream(1))
        for state, record in stream:
            if record.iteration == 1:
                break
        stream.close()
        assert state.status == RUNNING
        assert state.iteration == 2

    @pytest.mark.parametrize("budget, max_iterations, status", [
        (None, 6, STOPPED_MAX_ITER), (3 * 7 + 2, 10, STOPPED_BUDGET),
        (6, 10, STOPPED_BUDGET)])
    def test_run_returns_what_the_generator_yields(self, budget,
                                                   max_iterations, status):
        state, oracle, config = self.make(budget, max_iterations)
        pairs = list(iterations(state, oracle, config, RngStream(2)))
        _, oracle, _ = self.make(budget, max_iterations)
        trace = run(np.zeros(self.d), oracle, config, RngStream(2))
        last = pairs[-1][0] if pairs else state
        assert trace.status == last.status == status
        assert_same_records(trace.records, [record for _, record in pairs])
        np.testing.assert_array_equal(trace.x_final, last.x)


def recording_oracle(oracle):
    """``oracle`` with its ``probe_batch`` wrapped to keep every direction
    set it is called with, in call order."""
    probed = []
    probe_batch = oracle.probe_batch

    def record(x, directions, mu, center=None):
        probed.append(directions)
        return probe_batch(x, directions, mu, center)

    oracle.probe_batch = record
    return oracle, probed


def per_iteration_draws(d, r_used, seed):
    """The sets that ``stiefel_sample(d, d)`` then ``stiefel_sample(d, r - d)``
    give, per iteration with r in ``r_used``, from one stream; and the
    stream."""
    stream = RngStream(seed)
    sets = []
    for r in r_used:
        sets.append(stiefel_sample(d, d, stream))
        if r > d:
            sets.append(stiefel_sample(d, r - d, stream))
    return sets, stream


def assert_same_sets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.vectors.flags["F_CONTIGUOUS"]
        assert a.frame_size == b.frame_size


class TestDirectionBlocks:
    """A fixed policy draws its directions a block of iterations ahead; every
    set is the one the per-iteration ``stiefel_sample`` calls give."""

    @staticmethod
    def fixed_run(d, r, iterations, seed, budget=None):
        problem = make_quadratic(random_spd(d, 4.0, RngStream(seed)),
                                 np.ones(d))
        oracle, probed = recording_oracle(problem.make_oracle(budget=budget))
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(r),
                              alpha=0.1, lambda_min=0.5, lambda_max=4.0,
                              max_iterations=iterations)
        rng = RngStream(seed)
        trace = run(np.zeros(d), oracle, config, rng)
        return trace, probed, rng

    @pytest.mark.parametrize("d, r, iterations, block", [
        (30, 30, 20, 9),      # r = d, blocks of 9, 9 and 2
        (16, 48, 15, 10),     # r = 3d
        (16, 37, 16, 13),     # r = 2d + 5
        (30, 41, 8, 6),       # r = d + 11
        (91, 91, 3, 1),       # one frame per block
    ])
    def test_sets_match_per_iteration_draws_across_blocks(
            self, d, r, iterations, block):
        assert max(1, solver_module._BLOCK_BYTES // (8 * d * r)) == block
        trace, probed, _ = self.fixed_run(d, r, iterations, seed=d + r)
        assert len(trace.records) == iterations
        want, _ = per_iteration_draws(d, [r] * iterations, seed=d + r)
        assert_same_sets(probed, want)

    @pytest.mark.parametrize("d, r", [(4, 4), (4, 10)])
    def test_a_capped_run_draws_at_most_its_iterations(self, d, r):
        # the block would hold hundreds of iterations; the cap is 7
        trace, _, rng = self.fixed_run(d, r, 7, seed=5)
        assert len(trace.records) == 7
        _, stream = per_iteration_draws(d, [r] * 7, seed=5)
        assert (rng.generator.standard_normal()
                == stream.generator.standard_normal())

    def test_a_budget_stop_keeps_the_sets_it_probed(self):
        # the budget ends the run inside its fourth iteration's second batch
        d, r = 8, 20
        trace, probed, _ = self.fixed_run(d, r, 10, seed=6,
                                          budget=3 * (2 * r + 1) + 2 * d + 5)
        assert trace.status == STOPPED_BUDGET
        assert len(trace.records) == 3
        want, _ = per_iteration_draws(d, [r] * 4, seed=6)
        assert_same_sets(probed, want[:len(probed)])

    def test_adaptive_policy_draws_per_iteration(self):
        d = 4
        problem = make_quadratic(random_spd(d, 10.0, RngStream(7)),
                                 np.ones(d))
        known = problem.known
        oracle, probed = recording_oracle(problem.make_oracle())
        config = SolverConfig(mu=1e-4, r_policy=AdaptiveDirections(r_max=40),
                              max_iterations=6, L1=known.L1, L2=known.L2,
                              m=known.m)
        rng = RngStream(8)
        trace = run(np.zeros(d), oracle, config, rng)
        r_used = [record.r_used for record in trace.records]
        assert len(set(r_used)) > 1 and max(r_used) > d
        want, stream = per_iteration_draws(d, r_used, seed=8)
        assert_same_sets(probed, want)
        # nothing was drawn ahead
        assert (rng.generator.standard_normal()
                == stream.generator.standard_normal())

    @pytest.mark.parametrize("policy", [
        FixedDirections(10), FixedDirections(6), AdaptiveDirections(r_max=9)],
        ids=["other_r", "other_r_at_the_same_frame_count", "adaptive"])
    def test_a_carried_block_that_does_not_fit_is_refused(self, policy):
        d = 5
        problem = make_quadratic(np.eye(d), np.zeros(d))
        first = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                             max_iterations=10)
        rng = RngStream(9)
        state, _ = iterate(SolverState.initial(np.ones(d), d),
                           problem.make_oracle(), first, rng)
        oracle = problem.make_oracle()
        config = SolverConfig(mu=1e-4, r_policy=policy, max_iterations=10,
                              L1=1.0)
        with pytest.raises(ValueError, match="do not fit"):
            iterate(state, oracle, config, rng)
        assert oracle.eval_count == 0


def record_bits(records):
    """Every field of every record, arrays as bytes and floats by repr, so
    that a signed zero or a NaN payload counts."""
    return [[value.tobytes() if isinstance(value, np.ndarray) else repr(value)
             for value in (getattr(record, f.name)
                           for f in dataclasses.fields(TraceRecord))]
            for record in records]


class _DrawError(Exception):
    pass


class TestDrawAhead:
    """At d = 100 one iteration's normals fill a block, so each block after
    the first is drawn a block ahead, while iterations update and step, on
    a helper when there is a second CPU. The directions, and so every
    output, are the same bits with and without a helper."""

    @staticmethod
    def cubic_run(monkeypatch, workers, r, max_iterations=30, budget=None):
        monkeypatch.setattr(helpers_module, "_WORKERS", workers)
        d = 100
        problem = make_cubic_box(d, 0.25)
        known = problem.known
        oracle, probed = recording_oracle(problem.make_oracle(budget=budget))
        config = SolverConfig(mu=1e-2, r_policy=FixedDirections(r),
                              alpha=1.0, lambda_min=known.m,
                              lambda_max=known.L1,
                              max_iterations=max_iterations, L1=known.L1,
                              L2=known.L2, m=known.m)
        trace = run(np.full(d, 0.2), oracle, config, RngStream(r))
        return trace, probed

    # r = 150 ends in a short frame of 50 directions, and each of its draws
    # ahead holds one iteration; r = 100's hold six. The zeroth-order floor
    # stops the run in its fourth iteration, with a draw pending. A budget
    # of two iterations and a first batch stops r = 150 in its third
    # iteration's second batch, with a draw pending, and r = 100 in its
    # fourth iteration's batch, inside a block, with the next one pending.
    @pytest.mark.parametrize("r", [100, 150])
    @pytest.mark.parametrize("stop", [STOPPED_MAX_ITER, STOPPED_ZO_FLOOR,
                                      STOPPED_BUDGET])
    def test_the_same_bits_with_and_without_a_helper(self, monkeypatch, r,
                                                     stop):
        assert solver_module._BLOCK_BYTES // (8 * 100 * r) <= 1
        kwargs, records = {
            STOPPED_MAX_ITER: (dict(max_iterations=3), 3),
            STOPPED_ZO_FLOOR: ({}, 4),
            STOPPED_BUDGET: (dict(budget=2 * (2 * r + 1) + 2 * 100 + 5),
                             2 if r > 100 else 3),
        }[stop]
        (one, one_probed), (two, two_probed) = (
            self.cubic_run(monkeypatch, workers, r, **kwargs)
            for workers in (1, 2))
        assert one.status == two.status == stop
        assert len(one.records) == records
        assert record_bits(one.records) == record_bits(two.records)
        iterations_probed = len(one.records) + (stop == STOPPED_BUDGET)
        want, _ = per_iteration_draws(100, [r] * iterations_probed, seed=r)
        assert_same_sets(one_probed, want[:len(one_probed)])
        assert_same_sets(two_probed, want[:len(two_probed)])

    def test_a_draw_that_raises_on_a_helper_reaches_the_next_iterate(
            self, monkeypatch):
        monkeypatch.setattr(helpers_module, "_WORKERS", 2)
        main = threading.get_ident()
        raised = threading.Event()
        draw = solver_module._draw
        rng = RngStream(17)

        # Only this run's draws: a helper may still be drawing ahead for a
        # run that an earlier test stopped.
        def failing_off_the_caller(generator, *args):
            if generator is rng.generator and threading.get_ident() != main:
                raised.set()
                raise _DrawError
            return draw(generator, *args)

        monkeypatch.setattr(solver_module, "_draw", failing_off_the_caller)
        d = 100
        oracle = make_quadratic(np.eye(d), np.ones(d)).make_oracle()
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=5)
        state, _ = iterate(SolverState.initial(np.zeros(d), d), oracle,
                           config, rng)
        assert raised.wait(10)
        spent = oracle.eval_count
        with pytest.raises(_DrawError):
            iterate(state, oracle, config, rng)
        assert oracle.eval_count == spent

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_drawn_block_dies_with_its_state(self, monkeypatch, workers):
        monkeypatch.setattr(helpers_module, "_WORKERS", workers)
        d = 100
        oracle = make_quadratic(np.eye(d), np.ones(d)).make_oracle()
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=5)
        state, _ = iterate(SolverState.initial(np.zeros(d), d), oracle,
                           config, RngStream(18))
        frames, extras = state._block[2].result()
        assert extras is None
        ref = weakref.ref(frames)
        del state, frames
        assert dead_soon([ref])


class TestStackedDraws:
    """From d = 65 at r = d, a fixed policy draws iteration 0 in the caller
    and each later block of ``_ahead_count`` iterations a block ahead: the
    fewest whose stacked QR runs without the GIL, or one where their
    normals would exceed ``_AHEAD_BYTES``. Every set is the one the
    per-iteration ``stiefel_sample`` calls give, with and without a
    helper."""

    AHEAD = {(65, 65): 8, (65, 72): 8, (91, 91): 6, (91, 98): 6,
             (100, 100): 6, (100, 107): 6, (128, 128): 4, (128, 135): 1}

    @staticmethod
    def cubic_run(monkeypatch, workers, d, r, max_iterations=30,
                  budget=None, floor=True):
        monkeypatch.setattr(helpers_module, "_WORKERS", workers)
        problem = make_cubic_box(d, 0.25)
        known = problem.known
        oracle, probed = recording_oracle(problem.make_oracle(budget=budget))
        config = SolverConfig(mu=1e-2, r_policy=FixedDirections(r),
                              alpha=1.0, lambda_min=known.m,
                              lambda_max=known.L1,
                              max_iterations=max_iterations, L1=known.L1,
                              L2=known.L2 if floor else None, m=known.m)
        rng = RngStream(d + r)
        trace = run(np.full(d, 0.2), oracle, config, rng)
        return trace, probed, rng

    # The cap, with no floor test, ends the run two iterations into its
    # third block, which it cut short. The zeroth-order floor stops it in
    # its fourth iteration, and the budget in that iteration's first batch:
    # inside the second block wherever a block holds four iterations or
    # more.
    @pytest.mark.parametrize("d, r", list(AHEAD))
    @pytest.mark.parametrize("stop", [STOPPED_MAX_ITER, STOPPED_ZO_FLOOR,
                                      STOPPED_BUDGET])
    def test_the_same_bits_as_per_iteration_draws(self, monkeypatch, d, r,
                                                  stop):
        ahead = solver_module._ahead_count(d, r)
        assert ahead == self.AHEAD[d, r]
        assert solver_module._BLOCK_BYTES // (8 * d * r) <= 1
        kwargs, records = {
            STOPPED_MAX_ITER: (dict(max_iterations=ahead + 3, floor=False),
                               ahead + 3),
            STOPPED_ZO_FLOOR: ({}, 4),
            STOPPED_BUDGET: (dict(budget=3 * (2 * r + 1) + d), 3),
        }[stop]
        (one, one_probed, one_rng), (two, two_probed, two_rng) = (
            self.cubic_run(monkeypatch, workers, d, r, **kwargs)
            for workers in (1, 2))
        assert one.status == two.status == stop
        assert len(one.records) == records
        assert record_bits(one.records) == record_bits(two.records)
        iterations_probed = records + (stop == STOPPED_BUDGET)
        want, stream = per_iteration_draws(d, [r] * iterations_probed,
                                           seed=d + r)
        assert_same_sets(one_probed, want[:len(one_probed)])
        assert_same_sets(two_probed, want[:len(two_probed)])
        if stop == STOPPED_MAX_ITER:
            # the last block was cut at the cap: nothing more was drawn
            next_normal = stream.generator.standard_normal()
            for rng in (one_rng, two_rng):
                assert rng.generator.standard_normal() == next_normal

    @pytest.mark.parametrize("d, counts", [(128, [1, 4, 4, 1]),
                                           (129, [1] * 10)])
    def test_a_draw_ahead_holds_at_most_512_kib(self, monkeypatch, d,
                                                counts):
        # four iterations at d = 128 hold exactly 512 KiB of normals, four
        # at d = 129 more: that draw ahead holds one iteration
        assert 8 * 4 * 128 * 128 == solver_module._AHEAD_BYTES
        monkeypatch.setattr(helpers_module, "_WORKERS", 2)
        drawn, draw = [], solver_module._draw

        def spied_draw(generator, d, r, count):
            drawn.append(count)
            return draw(generator, d, r, count)

        monkeypatch.setattr(solver_module, "_draw", spied_draw)
        oracle, probed = recording_oracle(
            make_quadratic(np.eye(d), np.ones(d)).make_oracle())
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=10)
        trace = run(np.zeros(d), oracle, config, RngStream(d))
        assert trace.status == STOPPED_MAX_ITER
        assert drawn == counts
        want, _ = per_iteration_draws(d, [d] * 10, seed=d)
        assert_same_sets(probed, want)

    @pytest.mark.parametrize("d, r", [key for key, ahead in AHEAD.items()
                                      if ahead > 1])
    def test_every_qr_drawn_ahead_is_stacked_past_the_gil_threshold(
            self, monkeypatch, d, r):
        # numpy's gufunc loop releases the GIL when the outer size times
        # the output's core size exceeds 500 (the _lapack docstring)
        monkeypatch.setattr(helpers_module, "_WORKERS", 2)
        events = []
        draw = solver_module._draw
        householder_q = lapack_module.householder_q

        def spied_draw(generator, d, r, count):
            events.append(("draw", count))
            return draw(generator, d, r, count)

        def spied_householder_q(a):
            events.append(("qr", a.shape))
            return householder_q(a)

        monkeypatch.setattr(solver_module, "_draw", spied_draw)
        monkeypatch.setattr(lapack_module, "householder_q",
                            spied_householder_q)
        trace, _, _ = self.cubic_run(monkeypatch, 2, d, r, floor=False,
                                     max_iterations=2 * self.AHEAD[d, r] + 1)
        assert trace.status == STOPPED_MAX_ITER
        # draws never overlap: each starts once the one before was taken
        assert [event for event in events if event[0] == "draw"] == [
            ("draw", 1), ("draw", self.AHEAD[d, r]),
            ("draw", self.AHEAD[d, r])]
        ahead = events[events.index(("draw", self.AHEAD[d, r])):]
        stacks = [shape for kind, shape in ahead if kind == "qr"]
        assert len(stacks) == 2 * (1 + (r > d))
        for shape in stacks:
            assert shape[-2] == d and math.prod(shape[:-2]) * d > 500


@pytest.mark.parametrize("objective, x0", [
    # the probe points round to x = 1: the rounding test stops it
    (make_quadratic(np.diag([1.0, 2.0, 3.0]), np.ones(3)).fn, np.ones(3)),
    # at x = 0 the points survive, mu^2 underflows to 0 and the second
    # differences are 0 / 0
    (Objective(lambda p: p @ np.array([1.0, -2.0, 3.0])), np.zeros(3))],
    ids=["quadratic", "linear-at-0"])
def test_an_underflowing_mu_stops_numerical_under_a_raising_error_state(
        objective, x0):
    # Before, mu^2 raised "underflow encountered in scalar power" here.
    d = 3
    oracle = Oracle(objective, d)
    config = SolverConfig(mu=1e-300, r_policy=FixedDirections(d),
                          max_iterations=5)
    with np.errstate(all="raise"):
        state, record = iterate(SolverState.initial(x0, d), oracle, config,
                                RngStream(0))
    assert state.status == STOPPED_NUMERICAL
    assert record.r_used == d
    assert oracle.eval_count == 2 * d + 1
    np.testing.assert_array_equal(state.x, x0)
    assert not state.hessian.matrix.any()


@pytest.mark.filterwarnings("error")
def test_an_overflowing_step_stops_numerical_at_its_iteration():
    # alpha = 1e300 throws x to ~1e300, whose squared norm overflows
    d = 4
    oracle = make_quadratic(np.eye(d), np.ones(d)).make_oracle()
    config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d), alpha=1e300,
                          lambda_min=0.5, lambda_max=2.0, max_iterations=5)
    trace = run(np.zeros(d), oracle, config, RngStream(14))
    assert trace.status == STOPPED_NUMERICAL
    assert len(trace.records) == 1
    np.testing.assert_array_equal(trace.records[0].x, np.zeros(d))
    np.testing.assert_array_equal(trace.x_final, np.zeros(d))
    assert oracle.eval_count == 2 * d + 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path, calls", [
    ("clipped", ["cholesky", "eigh"]),
    ("eigh-first", ["cholesky", "eigh", "eigh", "cholesky"])])
def test_an_eigensolver_failure_stops_numerical_at_its_iteration(
        path, calls, monkeypatch):
    # Before, an eigensolver that did not converge raised LinAlgError out
    # of iterate. The estimate of the identity's curvature lies below the
    # bounds [2, 3], so every step clips: the first from the Cholesky
    # tests, the second eigh first after a clipped step. Here the seam's
    # eigh fails at the first step or at the second.
    d = 3
    seen = []
    eigh, cholesky = lapack_module.eigh, lapack_module.cholesky

    def failing_eigh(h):
        seen.append("eigh")
        if path == "eigh-first" and seen.count("eigh") == 1:
            return eigh(h)
        return np.full(d, np.nan), np.full((d, d), np.nan)

    def spied_cholesky(a):
        seen.append("cholesky")
        return cholesky(a)

    monkeypatch.setattr(lapack_module, "eigh", failing_eigh)
    monkeypatch.setattr(lapack_module, "cholesky", spied_cholesky)
    oracle = make_quadratic(np.eye(d), np.ones(d)).make_oracle()
    config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                          lambda_min=2.0, lambda_max=3.0, max_iterations=5)
    x0 = np.full(d, 0.5)
    with np.errstate(all="raise"):
        steps = list(iterations(SolverState.initial(x0, d), oracle, config,
                                RngStream(19)))
    assert seen == calls
    (state, record), before = steps[-1], steps[:-1]
    assert state.status == STOPPED_NUMERICAL
    assert len(steps) == record.iteration + 1 == (path == "eigh-first") + 1
    assert oracle.eval_count == len(steps) * (2 * d + 1)
    assert record.r_used == d and record.step_norm is None
    if before:
        kept = before[-1][0]
        assert kept.status == RUNNING and kept._clipped
        assert state.hessian is kept.hessian
        np.testing.assert_array_equal(state.x, kept.x)
    else:
        assert not state.hessian.matrix.any()
        np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(record.x, state.x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("policy", [FixedDirections(3),
                                    AdaptiveDirections(r_max=9)])
def test_an_overflowing_gradient_norm_stops_numerical(policy):
    # Before, np.linalg.norm(g) raised "overflow encountered in dot" here.
    # Values and curvatures near 1e308 are finite; the gradient's squared
    # norm is not.
    d = 3
    oracle = Oracle(Objective(lambda p: 0.5e308 * np.sum(p * p, axis=1)), d)
    config = SolverConfig(mu=1e-3, r_policy=policy, L1=1.0,
                          max_iterations=5)
    trace = run(1e-3 * np.ones(d), oracle, config, RngStream(15))
    assert trace.status == STOPPED_NUMERICAL
    assert len(trace.records) == 1
    assert trace.records[0].r_used == d
    np.testing.assert_array_equal(trace.x_final, 1e-3 * np.ones(d))
    assert oracle.eval_count == 2 * d + 1


@pytest.mark.filterwarnings("error")
def test_an_estimate_left_not_finite_stops_numerical_before_the_count():
    # Before, the adaptive count raised "cannot convert float NaN to
    # integer" on the residuals of an infinite estimate (exit 2 at the CLI).
    d = 3
    # the constructor refuses a non-finite estimate; an update can leave one
    inf = HessianEstimate.zero(d)
    inf.matrix[:] = np.inf
    state = SolverState(x=np.ones(d), hessian=inf, iteration=0)
    oracle = make_quadratic(np.eye(d), np.ones(d)).make_oracle()
    config = SolverConfig(mu=1e-3, r_policy=AdaptiveDirections(r_max=9),
                          L1=1.0, max_iterations=5)
    new_state, record = iterate(state, oracle, config, RngStream(16))
    assert new_state.status == STOPPED_NUMERICAL
    assert new_state.hessian is inf
    assert record.r_used == d
    np.testing.assert_array_equal(new_state.x, np.ones(d))
    assert oracle.eval_count == 2 * d + 1


@pytest.mark.filterwarnings("error")
def test_an_extra_update_that_overflows_stops_numerical_before_the_step():
    # Before, the second update raised "overflow encountered in add". The
    # frame's batch sees a flat objective and the extra directions' batch a
    # curvature of 1.6e308: finite, but not when added to its transpose.
    d, mu = 3, 1e-3
    calls = []

    def batch(points):
        calls.append(len(points))
        if len(calls) == 1:
            return np.zeros(len(points))
        return np.full(len(points), 0.8e308 * mu * mu)

    oracle = Oracle(Objective(batch), d)
    config = SolverConfig(mu=mu, r_policy=FixedDirections(2 * d),
                          max_iterations=5)
    trace = run(np.zeros(d), oracle, config, RngStream(17))
    assert trace.status == STOPPED_NUMERICAL
    assert calls == [2 * d + 1, 2 * d]
    assert len(trace.records) == 1
    assert trace.records[0].r_used == 2 * d
    np.testing.assert_array_equal(trace.x_final, np.zeros(d))


@pytest.mark.parametrize("policy", [FixedDirections(5),
                                    AdaptiveDirections(r_max=9),
                                    "linear-gate"])
def test_both_probe_batches_run_under_the_caller_error_state(policy,
                                                             monkeypatch):
    # the solver ignores overflow in its own arithmetic, not the objective's;
    # on the linear gate's setting steps clip and Cholesky tests fail, which
    # raise "invalid" under the solver's error state, not the caller's
    states, failed = [], []
    if policy == "linear-gate":
        problem, config, x0 = _linear_gate_setting(60)
        d, seed, objective = len(x0), 2, problem.fn.batch
        cholesky = lapack_module.cholesky

        def spy(a):
            factor = cholesky(a)
            failed.append(math.isnan(factor[0, 0]))
            return factor

        monkeypatch.setattr(lapack_module, "cholesky", spy)
    else:
        d, seed, x0 = 3, 18, np.ones(3)
        config = SolverConfig(mu=1e-3, r_policy=policy, L1=1.0, L2=0.0,
                              max_iterations=3)

        def objective(points):
            return 0.5 * np.sum(points * points, axis=1)

    def batch(points):
        states.append(np.geterr())
        return objective(points)

    oracle = Oracle(Objective(batch), d)
    with np.errstate(all="raise"):
        caller = np.geterr()
        trace = run(x0, oracle, config, RngStream(seed))
    if policy == "linear-gate":
        assert trace.status == STOPPED_MAX_ITER
        assert any(failed) and any(record.clipped for record in trace.records)
    else:
        assert any(record.r_used > d for record in trace.records)
        assert len(states) > len(trace.records)
    assert all(state == caller for state in states)


@pytest.mark.parametrize("name", ["g_norm", "error_proxy"])
def test_direction_count_names_a_nan_input(name):
    # Before, either raised "cannot convert float NaN to integer".
    args = dict(g_norm=0.1, d=5, L1=1.0, L2=0.0, mu=1e-6, eta=0.9,
                error_proxy=1.0, r_max=50)
    args[name] = float("nan")
    with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
        adaptive_direction_count(**args)
    args[name] = float("inf")
    assert 5 <= adaptive_direction_count(**args) <= 50


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0, r_policy=FixedDirections(3))
    with pytest.raises(ValueError):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3), lambda_min=2.0,
                     lambda_max=1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3), lambda_min=0.0,
                     lambda_max=1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3), max_iterations=0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_alpha_that_is_not_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3), alpha=alpha)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.0, -1e-4])
def test_config_rejects_mu_that_is_not_finite_and_positive(mu):
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        SolverConfig(mu=mu, r_policy=FixedDirections(3))


@pytest.mark.parametrize("lambda_min, lambda_max", [
    (1.0, float("inf")), (float("inf"), float("inf")),
    (float("nan"), 1.0), (1.0, float("nan"))])
def test_config_rejects_spectral_bounds_that_are_not_finite(lambda_min,
                                                            lambda_max):
    name = "lambda_max" if np.isfinite(lambda_min) else "lambda_min"
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3),
                     lambda_min=lambda_min, lambda_max=lambda_max)


@pytest.mark.parametrize("lambda_min", [1e-320, 5e-324])
def test_config_rejects_lambda_min_without_a_finite_reciprocal(lambda_min):
    with pytest.raises(ValueError, match="has no finite reciprocal"):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3),
                     lambda_min=lambda_min)


@pytest.mark.parametrize("constants, message", [
    # m = 0 with L2 set divided by zero in the floor's guarantee
    ({"m": 0.0, "L2": 1.0}, "m must be finite and positive"),
    ({"m": -1.0}, "m must be finite and positive"),
    # a NaN m stopped the run at the floor with a NaN guarantee
    ({"m": float("nan"), "L2": 1.0}, "m must be finite and positive"),
    # a NaN L2 kept the floor from ever firing
    ({"L2": float("nan"), "m": 1.0}, "L2 must be finite and >= 0"),
    ({"L2": -1.0, "m": 1.0}, "L2 must be finite and >= 0"),
    ({"L2": float("inf")}, "L2 must be finite and >= 0"),
    ({"L1": 0.0}, "L1 must be finite and positive"),
    ({"L1": float("inf")}, "L1 must be finite and positive"),
    # a NaN L1 failed mid-run in the adaptive direction count
    ({"L1": float("nan"), "r_policy": AdaptiveDirections(9)},
     "L1 must be finite and positive"),
], ids=["m_zero", "m_negative", "m_nan", "L2_nan", "L2_negative", "L2_inf",
        "L1_zero", "L1_inf", "L1_nan_adaptive"])
def test_config_rejects_constants_that_break_the_formulas(constants, message):
    kwargs = {"mu": 1e-4, "r_policy": FixedDirections(3)} | constants
    with pytest.raises(ValueError, match=message):
        SolverConfig(**kwargs)


_NOT_COUNTS = [2.5, 5.0, float("nan"), float("inf"), 0, -3, "4"]
_NOT_COUNT_IDS = ["fraction", "integral_float", "nan", "inf", "zero",
                  "negative", "string"]


# Before these checks a float max_iterations raised TypeError from the block
# draw, or ran 0 iterations (NaN) or never stopped (inf); a float r raised
# TypeError; a NaN r_max capped nothing.
@pytest.mark.parametrize("value", _NOT_COUNTS, ids=_NOT_COUNT_IDS)
def test_config_rejects_max_iterations_that_is_not_a_count(value):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SolverConfig(mu=1e-4, r_policy=FixedDirections(3),
                     max_iterations=value)


@pytest.mark.parametrize("value", _NOT_COUNTS, ids=_NOT_COUNT_IDS)
@pytest.mark.parametrize("policy, name", [(FixedDirections, "r"),
                                          (AdaptiveDirections, "r_max")])
def test_policies_reject_counts_that_are_not_integers(policy, name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        policy(value)


# The other public counts, all checked by sampling._check_count. Before, the
# oracle took a dimension of 2.5 as 2 and a budget of 2.5 as 2,
# FederationConfig took 2.5, deterministic_fd_costs(2.5) returned
# (7.0, 13.5) and the samplers raised TypeError from numpy.
_PUBLIC_COUNTS = {
    "oracle_dimension": ("dimension", lambda n: Oracle(np.sum, n)),
    "oracle_budget": ("budget", lambda n: Oracle(np.sum, 2, budget=n)),
    "n_clients": ("n_clients", FederationConfig),
    "fd_costs_d": ("d", deterministic_fd_costs),
    "stiefel_d": ("d", lambda n: stiefel_sample(n, 2, RngStream(0))),
    "stiefel_r": ("r", lambda n: stiefel_sample(3, n, RngStream(0))),
    "sphere_d": ("d", lambda n: gaussian_sphere_sample(n, 2, RngStream(0))),
    "sphere_r": ("r", lambda n: gaussian_sphere_sample(3, n, RngStream(0))),
    # Before, update_rate_bound(2.5) returned 0.8222 and
    # gradient_error_bound(2.5, 1, 0.1) 0.00417, and the two gates below
    # said "need at least 1 ..." at 0 and raised TypeError at 2.5.
    "rate_bound_d": ("d", update_rate_bound),
    "gradient_bound_d": ("d", lambda n: gradient_error_bound(n, 1.0, 0.1)),
    "rate_gate_trials": ("trials", lambda n: rate_verification(trials=n)),
    "lemma1_gate_points": ("n_points",
                           lambda n: gradient_bound_verification(n_points=n)),
    # Before, these raised TypeError from numpy at 2.5.
    "hessian_zero_d": ("d", HessianEstimate.zero),
    "random_spd_d": ("d", lambda n: random_spd(n, 10.0, RngStream(0))),
    "cubic_box_d": ("d", lambda n: make_cubic_box(n, 0.4)),
    "dataset_n": ("n", lambda n: make_synthetic_dataset(n, 3, RngStream(0))),
    "dataset_d": ("d", lambda n: make_synthetic_dataset(20, n, RngStream(0))),
    "frame_size": ("frame_size", lambda n: DirectionSet(np.eye(3), n)),
    # Before, n_points = 0 checked nothing and returned as if it passed.
    "known_derivatives_points": ("n_points", lambda n: check_known_derivatives(
        make_cubic_box(2, 0.4), n_points=n)),
}


@pytest.mark.parametrize("value", _NOT_COUNTS, ids=_NOT_COUNT_IDS)
@pytest.mark.parametrize("count", list(_PUBLIC_COUNTS))
def test_public_counts_reject_values_that_are_not_counts(count, value):
    name, make = _PUBLIC_COUNTS[count]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        make(value)


@pytest.mark.parametrize("count", list(_PUBLIC_COUNTS))
def test_public_counts_accept_numpy_integers(count):
    _, make = _PUBLIC_COUNTS[count]
    make(np.int64(3))
    make(np.int32(2))


# The counts with a minimum above 1: the gates have nothing to measure at
# d = 1, and the sampling gate's standard errors need 30 trials.
@pytest.mark.parametrize("gate, name, minimum", [
    (rate_verification, "d", 2), (sampling_comparison, "d", 2),
    (linear_rate_verification, "d", 2), (sampling_comparison, "trials", 30)])
def test_gate_counts_reject_values_below_their_minimum(gate, name, minimum):
    message = f"{name} must be an integer >= {minimum}, got {minimum - 1}"
    with pytest.raises(ValueError, match=message):
        gate(**{name: minimum - 1})


# Every public real, all checked by sampling._check_real: name -> (parameter,
# minimum, call). None as minimum means the real must be > 0. Before,
# make_cubic_box(4, nan) built a problem with L1 = nan, make_logistic(data,
# ridge=nan) ran 100 Newton steps and raised RuntimeError,
# make_synthetic_dataset(..., scale=nan) returned NaN features, and
# gradient_error_bound(4, nan, 0.1) and optimal_stepsize(1, nan) returned nan.
_PUBLIC_REALS = {
    "probe_mu": ("mu", None, lambda v: Oracle(np.sum, 2).probe_batch(
        np.zeros(2), DirectionSet(np.eye(2), 2), v)),
    "config_mu": ("mu", None,
                  lambda v: SolverConfig(mu=v, r_policy=FixedDirections(3))),
    "config_lambda_min": ("lambda_min", None, lambda v: SolverConfig(
        mu=1e-4, r_policy=FixedDirections(3), lambda_min=v)),
    "config_lambda_max": ("lambda_max", None, lambda v: SolverConfig(
        mu=1e-4, r_policy=FixedDirections(3), lambda_max=v)),
    "config_alpha": ("alpha", None, lambda v: SolverConfig(
        mu=1e-4, r_policy=FixedDirections(3), alpha=v)),
    "config_L1": ("L1", None, lambda v: SolverConfig(
        mu=1e-4, r_policy=FixedDirections(3), L1=v)),
    "config_m": ("m", None, lambda v: SolverConfig(
        mu=1e-4, r_policy=FixedDirections(3), m=v)),
    "config_L2": ("L2", 0, lambda v: SolverConfig(
        mu=1e-4, r_policy=FixedDirections(3), L2=v)),
    "stepsize_L1": ("L1", None, lambda v: optimal_stepsize(1.0, v)),
    "gradient_bound_L2": ("L2", 0, lambda v: gradient_error_bound(4, v, 0.1)),
    "gradient_bound_mu": ("mu", None,
                          lambda v: gradient_error_bound(4, 1.0, v)),
    "cubic_box_radius": ("box_radius", None, lambda v: make_cubic_box(4, v)),
    "logistic_ridge": ("ridge", None, lambda v: make_logistic(
        make_synthetic_dataset(20, 3, RngStream(0)), v)),
    "dataset_scale": ("scale", None, lambda v: make_synthetic_dataset(
        20, 3, RngStream(0), scale=v)),
    "random_spd_cond": ("cond", 1, lambda v: random_spd(4, v, RngStream(0))),
    "rate_gate_mu": ("mu", None,
                     lambda v: rate_verification(trials=30, mu=v)),
    # Before, a NaN ridge or weight built an objective that returned NaN.
    "objective_ridge": ("ridge", 0, lambda v: logistic_objective(
        make_synthetic_dataset(20, 3, RngStream(0)), v, 0.05)),
    "objective_weight": ("weight", None, lambda v: logistic_objective(
        make_synthetic_dataset(20, 3, RngStream(0)), 0.1, v)),
    "partition_ridge": ("ridge", 0, lambda v: partition_dataset(
        make_synthetic_dataset(20, 3, RngStream(0)), FederationConfig(2),
        RngStream(1), ridge=v)),
    # central differences are exact on a quadratic at any step
    "known_derivatives_mu": ("mu", None, lambda v: check_known_derivatives(
        make_quadratic(np.eye(2), np.ones(2)), mu=v)),
    # Before, contraction_gamma(nan, 1, 2, 1, 2) and
    # zo_floor_stop(1e-9, 4, 2.0, 1e-3, nan) returned nan.
    "gamma_alpha": ("alpha", None, lambda v: contraction_gamma(v, 1, 2, 1, 2)),
    "gamma_m": ("m", None, lambda v: contraction_gamma(0.5, v, 2, 1, 2)),
    "gamma_L1": ("L1", None, lambda v: contraction_gamma(0.5, 1, v, 1, 2)),
    "gamma_lambda_min": ("lambda_min", None,
                         lambda v: contraction_gamma(0.5, 1, 2, v, 2)),
    "gamma_lambda_max": ("lambda_max", None,
                         lambda v: contraction_gamma(0.5, 1, 2, 1, v)),
    "floor_stop_L2": ("L2", 0, lambda v: zo_floor_stop(1e-9, 4, v, 1e-3, 1.0)),
    "floor_stop_mu": ("mu", None,
                      lambda v: zo_floor_stop(1e-9, 4, 2.0, v, 1.0)),
    "floor_stop_m": ("m", None, lambda v: zo_floor_stop(1e-9, 4, 2.0, 1e-3, v)),
    "direction_count_L1": ("L1", None, lambda v: adaptive_direction_count(
        0.1, 5, v, 0.0, 1e-6, 0.9, 1.0, 50)),
    "direction_count_L2": ("L2", 0, lambda v: adaptive_direction_count(
        0.1, 5, 1.0, v, 1e-6, 0.9, 1.0, 50)),
    "direction_count_mu": ("mu", None, lambda v: adaptive_direction_count(
        0.1, 5, 1.0, 0.0, v, 0.9, 1.0, 50)),
    # eta must also be below 1, so the call takes v / 4.
    "direction_count_eta": ("eta", None, lambda v: adaptive_direction_count(
        0.1, 5, 1.0, 0.0, 1e-6, v / 4, 1.0, 50)),
}

# A value just outside each minimum.
_BELOW = {None: 0.0, 0: -1e-300, 1: 0.5}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "below"])
@pytest.mark.parametrize("real", list(_PUBLIC_REALS))
def test_public_reals_reject_values_that_are_not_finite_or_in_range(real,
                                                                    value):
    name, minimum, make = _PUBLIC_REALS[real]
    bad = _BELOW[minimum] if value == "below" else float(value)
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        make(bad)


@pytest.mark.parametrize("real", list(_PUBLIC_REALS))
def test_public_reals_accept_numpy_floats(real):
    _, minimum, make = _PUBLIC_REALS[real]
    make(np.float64(2.0))
    make(np.float32(0 if minimum == 0 else 1))


def test_direction_count_rejects_eta_of_one_or_more():
    # Before, eta = 1 raised ZeroDivisionError.
    for eta in (1.0, 2.0):
        with pytest.raises(ValueError, match=f"^eta must be below 1, got {eta}"):
            adaptive_direction_count(0.1, 5, 1.0, 0.0, 1e-6, eta, 1.0, 50)


# Before, RngStream(2.5) drew seed 2's stream and RngStream(-1) raised
# numpy's "expected non-negative integer".
@pytest.mark.parametrize("seed", [-1, 2.5, "0", None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError,
                       match=f"^seed must be an integer >= 0, got {seed!r}"):
        RngStream(seed)


def test_seed_accepts_zero_and_numpy_integers():
    first = RngStream(2).generator.standard_normal()
    assert RngStream(np.int64(2)).generator.standard_normal() == first
    assert RngStream(np.uint32(2)).seed == 2
    RngStream(0)


def test_numpy_integer_counts_are_accepted():
    d = 4
    problem = make_quadratic(np.eye(d), np.ones(d))
    known = problem.known
    for policy in (FixedDirections(np.int64(2 * d)),
                   AdaptiveDirections(np.int32(3 * d))):
        config = SolverConfig(mu=1e-4, r_policy=policy,
                              max_iterations=np.int64(3), L1=known.L1)
        trace = run(np.zeros(d), problem.make_oracle(), config, RngStream(3))
        assert len(trace.records) == 3


def test_alpha_resolution_order():
    base = dict(mu=1e-4, r_policy=FixedDirections(3))
    assert SolverConfig(**base).resolved_alpha() == 1.0
    assert SolverConfig(**base, L1=4.0, lambda_min=1.0).resolved_alpha() == 0.25
    assert SolverConfig(**base, alpha=0.3, L1=4.0).resolved_alpha() == 0.3
