"""Empirical verification experiments.

Each experiment checks one of the toolkit's guarantees at desk scale and
returns a small report with a ``passed`` flag and printable lines. A gate's
parameters are exactly what a caller may vary: the CLI builds each
verify-* subcommand's flags, types and defaults from the gate's signature,
so the gate and the command line cannot drift apart. Everything else a
gate uses (update counts, slacks, floors, iteration caps, problem sizes)
is a constant in its body, named in its docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import (
    _frame_update,
    _rank_one,
    _second_difference,
    estimate_gradient,
    gradient_error_bound,
    update_rate_bound,
)
from .oracle import Oracle, _check_mu
from .problems import (
    logistic_gap_objective,
    make_cubic_box,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    random_spd,
)
from .sampling import RngStream, gaussian_sphere_sample, stiefel_sample
from .solver import (
    FixedDirections,
    RUNNING,
    SolverConfig,
    SolverState,
    STOPPED_NUMERICAL,
    STOPPED_ZO_FLOOR,
    contraction_gamma,
    iterate,
    optimal_stepsize,
    run,
)

__all__ = [
    "LinearRateReport",
    "QuadraticRateReport",
    "RateReport",
    "GradientBoundReport",
    "SamplingReport",
    "StoppingReport",
    "gradient_bound_verification",
    "linear_rate_verification",
    "quadratic_rate_verification",
    "rate_verification",
    "sampling_comparison",
    "stopping_criterion_check",
]


# ---------------------------------------------------------------------------
# The rate and sampling gates run their trials in blocks. A block's probe
# points fit in _BLOCK_BYTES: without blocks the two gates' allocation peaks
# grow with the trial count (to 7-8 MB at the CLI defaults).

_BLOCK_BYTES = 2**18


def _block_trials(points_per_trial: int, d: int) -> int:
    """Trials per block: as many as fit their probe points, at least one."""
    return max(1, _BLOCK_BYTES // (8 * points_per_trial * d))


def _origin_curvatures(oracle: Oracle, vectors: np.ndarray, mu: float,
                       gate: str) -> np.ndarray:
    """Second central differences at the origin along every direction of a
    stack ``vectors`` (trials, k, d), as an array (trials, k).

    Each trial's 2k+1 points are laid out as its own probe batch would lay
    them out (center, then x + mu u_j, x - mu u_j), and one
    :meth:`Oracle.evaluate_points` call charges and evaluates them all.
    Raises ``FloatingPointError``, naming ``gate`` and mu, if a curvature
    is not finite.
    """
    _check_mu(mu)
    trials, k, d = vectors.shape
    points = np.zeros((trials, 2 * k + 1, d))
    np.multiply(mu, vectors, out=points[:, 1::2])
    np.negative(points[:, 1::2], out=points[:, 2::2])
    values = oracle.evaluate_points(points.reshape(-1, d))
    values = values.reshape(trials, 2 * k + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        curvatures = _second_difference(values[:, 1::2], values[:, :1],
                                        values[:, 2::2], mu)
    if not np.all(np.isfinite(curvatures)):
        raise FloatingPointError(
            f"{gate}: non-finite directional curvature at mu={mu!r}")
    return curvatures


# ---------------------------------------------------------------------------
# Per-update contraction rate of the incremental Hessian estimator.

@dataclass
class RateReport:
    d: int
    trials: int
    eta: float
    threshold: float
    step_ratios: np.ndarray
    max_ratio: float
    geomean_ratio: float
    passed: bool

    def lines(self):
        return [
            f"d={self.d} trials={self.trials} "
            f"max_step_ratio={self.max_ratio:.5f} "
            f"geomean_ratio={self.geomean_ratio:.5f} "
            f"bound={self.eta:.5f} threshold={self.threshold:.5f} "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def rate_verification(d: int = 5, trials: int = 2000, seed: int = 0,
                      mu: float = 1e-6) -> RateReport:
    """Measure the per-update contraction of E||H_k - A||_F^2 on an exact
    quadratic and compare against the 1 - 2/(d^2+2d) bound.

    Directions are i.i.d. uniform on the sphere (the distribution the bound
    assumes), drawn for trial t from its own ``RngStream(seed + 1 + t)``.
    Each trial probes all 15 updates' curvatures in a single batch of 31
    points at the origin; mean squared Frobenius errors are averaged across
    trials and every consecutive ratio must stay below eta * 1.02.

    The trials run in blocks whose probe points fit in 256 KiB: one
    oracle call evaluates a block's points, each trial still charged its
    own 31, and each update is one ``_rank_one`` step on the block's stack
    of estimates. Raises ``ValueError`` for d < 2, where the first update
    recovers the Hessian exactly and leaves no contraction to measure, and
    ``FloatingPointError`` if a curvature is not finite (mu too large or
    too small for the objective's floating-point range).
    """
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    if d < 2:
        raise ValueError(
            f"rate_verification needs d >= 2, got d={d}: at d = 1 the first "
            "update recovers the Hessian exactly")
    n_updates = 15
    eta = update_rate_bound(d)
    a = random_spd(d, cond=3.0, rng=RngStream(seed))
    oracle = make_quadratic(a, np.zeros(d)).make_oracle()
    sq_errors = np.empty((trials, n_updates + 1))
    sq_errors[:, 0] = np.linalg.norm(a) ** 2
    block = _block_trials(2 * n_updates + 1, d)
    for first in range(0, trials, block):
        rows = slice(first, first + block)
        ts = range(trials)[rows]
        v = np.array([gaussian_sphere_sample(d, n_updates,
                                             RngStream(seed + 1 + t)).vectors
                      for t in ts])
        c = _origin_curvatures(oracle, v, mu, "rate_verification")
        h = np.zeros((len(ts), d, d))
        for k in range(n_updates):
            _rank_one(h, v[:, k], c[:, k])
            sq_errors[rows, k + 1] = np.linalg.norm(h - a, axis=(1, 2)) ** 2
    mse = sq_errors.mean(axis=0)
    ratios = mse[1:] / mse[:-1]
    max_ratio = float(np.max(ratios))
    geomean = float((mse[-1] / mse[0]) ** (1.0 / n_updates))
    threshold = eta * 1.02
    return RateReport(d=d, trials=trials, eta=eta, threshold=threshold,
                      step_ratios=ratios, max_ratio=max_ratio,
                      geomean_ratio=geomean, passed=max_ratio <= threshold)


# ---------------------------------------------------------------------------
# Deterministic gradient-error bound.

@dataclass
class GradientBoundReport:
    d: int
    L2: float
    mus: tuple
    n_points: int
    violations: int
    worst_slack: float
    passed: bool

    def lines(self):
        return [
            f"d={self.d} L2={self.L2} mus={list(self.mus)} "
            f"checks={self.n_points * len(self.mus)} "
            f"violations={self.violations} "
            f"worst_error/bound={self.worst_slack:.4f} "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def gradient_bound_verification(seed: int = 0, d: int = 4,
                                n_points: int = 100) -> GradientBoundReport:
    """Check ||grad f - g|| <= d L2 mu^2 / 6 deterministically on the cubic
    box problem with R = 1 (L2 = 2 everywhere), at mu = 0.1, 0.01 and
    0.001, over random points and orthonormal bases. Zero violations are
    allowed; a rounding slack of 1e-12 * (1 + ||grad f||) absorbs
    floating-point noise.
    """
    if n_points < 1:
        raise ValueError(f"need at least 1 point, got {n_points}")
    mus, box_radius = (1e-1, 1e-2, 1e-3), 1.0
    problem = make_cubic_box(d, box_radius)
    grad = problem.known.gradient
    L2 = problem.known.L2
    violations = 0
    worst = 0.0
    stream = RngStream(seed)
    gen = np.random.default_rng(seed + 777)
    for mu in mus:
        bound = gradient_error_bound(d, L2, mu)
        for _ in range(n_points):
            x = gen.uniform(-box_radius, box_radius, size=d)
            basis = stiefel_sample(d, d, stream)
            oracle = problem.make_oracle()
            probe = oracle.probe_batch(x, basis, mu)
            g = estimate_gradient(probe)
            exact = grad(x)
            err = float(np.linalg.norm(exact - g))
            allowance = bound + 1e-12 * (1.0 + float(np.linalg.norm(exact)))
            worst = max(worst, err / allowance)
            if err > allowance:
                violations += 1
    return GradientBoundReport(d=d, L2=L2, mus=mus, n_points=n_points,
                               violations=violations, worst_slack=worst,
                               passed=violations == 0)


# ---------------------------------------------------------------------------
# Global linear rate of the solver on a strongly convex quadratic.

@dataclass
class LinearRateReport:
    d: int
    cond: float
    gamma_star: float
    ratio_bound: float
    max_ratio: float
    iterations_to_floor: Optional[int]
    passed: bool

    def lines(self):
        reached = ("floor reached after "
                   f"{self.iterations_to_floor} iterations"
                   if self.iterations_to_floor is not None
                   else "floor NOT reached")
        return [
            f"d={self.d} cond={self.cond} gamma*={self.gamma_star:.3e} "
            f"max_fgap_ratio={self.max_ratio:.6f} "
            f"bound={self.ratio_bound:.6f} ({reached}) "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def linear_rate_verification(seed: int = 0, d: int = 10, cond: float = 100.0,
                             mu: float = 1e-6) -> LinearRateReport:
    """Run the solver with the rate-optimal stepsize on a conditioned
    quadratic until the first f-gap <= 1e-9, the floor, and check that every
    f-gap contraction down to it stays within (1 - gamma*) + 1e-3,
    gamma* = m lambda_min / (L1 lambda_max). The run drives ``iterate``
    itself and stops there, with 2500 iterations as a guard; if the guard
    ends it first the floor is not reached and the gate fails. Raises
    ``FloatingPointError`` if the run ends ``stopped_numerical``."""
    problem_stream = RngStream(seed)
    a = random_spd(d, cond, problem_stream)
    b = problem_stream.generator.standard_normal(d)
    problem = make_quadratic(a, b)
    m, L1 = problem.known.m, problem.known.L1
    lambda_min, lambda_max = m, L1
    alpha = optimal_stepsize(lambda_min, L1)
    gamma_star = contraction_gamma(alpha, m, L1, lambda_min, lambda_max)
    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(d), alpha=alpha,
        lambda_min=lambda_min, lambda_max=lambda_max,
        max_iterations=2500, L1=L1, L2=0.0, m=m)
    v = problem_stream.generator.standard_normal(d)
    x0 = problem.known.x_star + v / np.linalg.norm(v)
    oracle = problem.make_oracle()
    rng = RngStream(seed + 1)
    state = SolverState.initial(x0, d)
    floor = 1e-9
    gaps = []
    for _ in range(config.max_iterations):
        state, record = iterate(state, oracle, config, rng)
        gaps.append(record.f_value - problem.known.f_star)
        if gaps[-1] <= floor or state.status != RUNNING:
            break
    if state.status == STOPPED_NUMERICAL:
        raise FloatingPointError(
            f"linear_rate_verification: the run ended {state.status} after "
            f"{len(gaps)} iterations at mu={mu!r}")
    iters_to_floor = len(gaps) - 1 if gaps[-1] <= floor else None
    gaps = np.array(gaps)
    ratios = gaps[1:] / gaps[:-1]
    max_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    bound = (1.0 - gamma_star) + 1e-3
    passed = iters_to_floor is not None and max_ratio <= bound
    return LinearRateReport(d=d, cond=cond, gamma_star=gamma_star,
                            ratio_bound=bound, max_ratio=max_ratio,
                            iterations_to_floor=iters_to_floor, passed=passed)


# ---------------------------------------------------------------------------
# Local quadratic rate on regularized logistic regression.

@dataclass
class QuadraticRateReport:
    errors: np.ndarray
    window_start: Optional[int]
    window_length: int
    fitted_K: Optional[float]
    bound_checks: int
    bound_violations: int
    passed: bool

    def lines(self):
        window = ("no quadratic window found"
                  if self.window_start is None or self.fitted_K is None else
                  f"window at k={self.window_start} length="
                  f"{self.window_length} K={self.fitted_K:.3g}")
        return [
            f"errors={np.array2string(self.errors, precision=2, max_line_width=200)}",
            f"{window}; local-bound checks={self.bound_checks} "
            f"violations={self.bound_violations} "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def _quadratic_window(errors, floor: float, k_bound: float, usable):
    """Longest run of consecutive iterations whose errors contract at least
    quadratically with the single constant ``k_bound``; a reported window
    is at least 3 iterations long.

    A pair (e_k, e_{k+1}) qualifies when both errors sit above ``floor``
    (below it the measurement is dominated by the reference minimizer's own
    accuracy and the zeroth-order bias), the iteration is ``usable`` (no
    eigenvalue clamping, so the step used the exact inverse estimate), and
    e_{k+1} <= k_bound * e_k^2. Over the reported window the per-step
    contraction must also sharpen, last <= 0.75 * first: that is the
    quadratic signature, and it rejects linear-rate sequences whose early
    ratios can slip under ``k_bound`` while their contraction stays flat.
    """
    min_length, sharpening = 3, 0.75
    qualifies = []
    for k in range(len(errors) - 1):
        e, e_next = errors[k], errors[k + 1]
        qualifies.append(e > floor and e_next > floor and e_next < e
                         and usable[k] and e_next <= k_bound * e * e)

    runs = []
    run_start = None
    for i, ok in enumerate(qualifies + [False]):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            runs.append((run_start, i - run_start))
            run_start = None

    def sharpens(start, length):
        first = errors[start + 1] / errors[start]
        last = errors[start + length] / errors[start + length - 1]
        return last <= sharpening * first

    best = (None, 0)
    longest_basic = 0
    for start0, run_len in runs:
        longest_basic = max(longest_basic, run_len)
        for length in range(run_len, max(best[1], min_length - 1), -1):
            hits = [s for s in range(start0, start0 + run_len - length + 1)
                    if sharpens(s, length)]
            if hits:
                best = (hits[0], length)
                break
    if best[0] is None:
        return None, longest_basic, None
    run_qs = [errors[k + 1] / errors[k] ** 2
              for k in range(best[0], best[0] + best[1])]
    return best[0], best[1], float(max(run_qs))


def quadratic_rate_verification(seed: int = 0) -> QuadraticRateReport:
    """Check local quadratic convergence and the per-iteration local bound on
    synthetic ridge-regularized logistic regression (n = 200, d = 10,
    features scaled by 2, ridge 0.1) with r = d^2 directions, mu = 1e-7 and
    lambda_min = 0.01, over 25 iterations from distance 0.1 to x*.

    The solver sees the objective in optimum-centered form (values are
    f(x) - f*, computed cancellation-free): at mu = 1e-7 the curvature signal
    in a raw O(1) objective sits below double-precision rounding, while the
    centered values keep full relative accuracy near the optimum. Centering
    changes no derivative, minimizer, or constant.

    Two gates: (1) at least three consecutive iterations contract at least
    quadratically, e_{k+1} <= K e_k^2 with the single analysis constant
    K = (L2 + 2) / (2 lambda_min), with strictly sharpening per-step
    contraction, before the measurement floor; (2) on every pre-floor
    iteration where the clipping was inactive (so the step used the exact
    inverse estimate), the measured error never exceeds
    (L2/(2 lm)) e_k^2 + (||H_k - hess(x_k)||/lm) e_k + d L2 mu^2/(6 lm)
    by more than 1e-10 relative.

    The floor combines the zeroth-order bias bound with the reference
    minimizer's own accuracy (||grad|| <= 1e-13, i.e. distance <= 1e-13/m):
    below it the measured distance says nothing about the algorithm.
    """
    n, d, ridge, mu, lambda_min = 200, 10, 0.1, 1e-7, 0.01
    data = make_synthetic_dataset(n, d, RngStream(seed), scale=2.0)
    problem = make_logistic(data, ridge)
    known = problem.known
    gap_fn = logistic_gap_objective(data, ridge, known.x_star)
    oracle = Oracle(gap_fn, d)

    direction_stream = RngStream(seed + 1)
    u = direction_stream.generator.standard_normal(d)
    x0 = known.x_star + 0.1 * u / np.linalg.norm(u)

    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(d * d), alpha=1.0,
        lambda_min=lambda_min, lambda_max=1e4,
        max_iterations=25, L1=known.L1)
    trace = run(x0, oracle, config, RngStream(seed + 2),
                x_star=known.x_star, f_star=0.0, hessian_fn=known.hessian)

    errors = np.array([rec.x_err for rec in trace.records]
                      + [float(np.linalg.norm(trace.x_final - known.x_star))])
    floor = max(d * known.L2 * mu * mu / (3.0 * known.m),
                10.0 * 1e-13 / known.m)
    k_bound = (known.L2 + 2.0) / (2.0 * lambda_min)
    usable = [not rec.clipped for rec in trace.records]
    start, length, fitted_k = _quadratic_window(errors, floor, k_bound, usable)

    checks = 0
    violations = 0
    for k, rec in enumerate(trace.records):
        if rec.clipped or errors[k] <= floor or errors[k + 1] <= floor:
            continue
        bound = (known.L2 / (2.0 * lambda_min) * errors[k] ** 2
                 + rec.hess_err_spec / lambda_min * errors[k]
                 + d * known.L2 * mu * mu / (6.0 * lambda_min))
        checks += 1
        if errors[k + 1] > bound * (1.0 + 1e-10):
            violations += 1
    passed = length >= 3 and violations == 0 and checks > 0
    return QuadraticRateReport(errors=errors,
                               window_start=start, window_length=length,
                               fitted_K=fitted_k, bound_checks=checks,
                               bound_violations=violations, passed=passed)


# ---------------------------------------------------------------------------
# Stiefel-frame vs normalized-Gaussian direction sampling.

# The Stiefel mean must be at most _SAMPLING_RATIO times the Gaussian mean,
# and below it by this many combined standard errors, so an advantage the
# trials cannot resolve never passes.
_SAMPLING_RATIO = 0.95
_SAMPLING_MIN_Z = 3.0


@dataclass
class SamplingReport:
    d: int
    r: int
    trials: int
    stiefel_mean: float
    stiefel_stderr: float
    gaussian_mean: float
    gaussian_stderr: float
    ratio_threshold: float
    passed: bool

    def lines(self):
        ratio = (self.stiefel_mean / self.gaussian_mean
                 if self.gaussian_mean > 0 else float("nan"))
        stderr = math.hypot(self.stiefel_stderr, self.gaussian_stderr)
        z = ((self.gaussian_mean - self.stiefel_mean) / stderr
             if stderr > 0 else float("nan"))
        return [
            f"d={self.d} r={self.r} trials={self.trials} "
            f"stiefel={self.stiefel_mean:.4f}+-{self.stiefel_stderr:.4f} "
            f"gaussian={self.gaussian_mean:.4f}+-{self.gaussian_stderr:.4f} "
            f"ratio={ratio:.4f} "
            f"threshold={self.ratio_threshold} "
            f"z={z:.2f} min_z={_SAMPLING_MIN_Z} "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def sampling_comparison(d: int = 20, r: int = 20, trials: int = 200,
                        seed: int = 0, mu: float = 1e-6) -> SamplingReport:
    """Compare mean Frobenius error ||H^r - A||_F of cold-start estimates
    built from Stiefel frames vs independent sphere directions on a seeded
    random SPD quadratic. Passes when the Stiefel mean is at most 0.95
    times the Gaussian mean and the gap between the means exceeds three
    combined standard errors.

    Trial t draws its Stiefel set and then its Gaussian set from its own
    ``RngStream(seed + 1 + t)``. The trials run in blocks whose probe
    points fit in 256 KiB: one oracle call evaluates both halves of a
    block, each trial still charged 2r+1 per sampler at the origin. The
    Stiefel estimates take one ``_frame_update`` per frame (r > d gives
    several), the Gaussian ones r ``_rank_one`` steps, each over the
    block's stack. Raises ``FloatingPointError`` if a curvature is not
    finite."""
    if trials < 30:
        raise ValueError(f"need at least 30 trials, got {trials}")
    a = random_spd(d, cond=10.0, rng=RngStream(seed))
    oracle = make_quadratic(a, np.zeros(d)).make_oracle()
    errors = np.empty((2, trials))
    block = _block_trials(2 * (2 * r + 1), d)
    for first in range(0, trials, block):
        rows = slice(first, first + block)
        ts = range(trials)[rows]
        draws = []
        for t in ts:
            stream = RngStream(seed + 1 + t)
            draws.append([sampler(d, r, stream).vectors
                          for sampler in (stiefel_sample,
                                          gaussian_sphere_sample)])
        v = np.array(draws)
        c = _origin_curvatures(oracle, v.reshape(-1, r, d), mu,
                               "sampling_comparison").reshape(len(ts), 2, r)
        h = np.zeros((len(ts), 2, d, d))
        for start in range(0, r, d):
            _frame_update(h[:, 0], v[:, 0, start:start + d],
                          c[:, 0, start:start + d])
        for j in range(r):
            _rank_one(h[:, 1], v[:, 1, j], c[:, 1, j])
        errors[:, rows] = np.linalg.norm(h - a, axis=(2, 3)).T
    err_stiefel, err_gauss = errors
    s_mean = float(err_stiefel.mean())
    g_mean = float(err_gauss.mean())
    s_stderr = float(err_stiefel.std(ddof=1) / math.sqrt(trials))
    g_stderr = float(err_gauss.std(ddof=1) / math.sqrt(trials))
    resolved = g_mean - s_mean > _SAMPLING_MIN_Z * math.hypot(s_stderr, g_stderr)
    return SamplingReport(
        d=d, r=r, trials=trials,
        stiefel_mean=s_mean, stiefel_stderr=s_stderr,
        gaussian_mean=g_mean, gaussian_stderr=g_stderr,
        ratio_threshold=_SAMPLING_RATIO,
        passed=s_mean <= _SAMPLING_RATIO * g_mean and resolved)


# ---------------------------------------------------------------------------
# Zeroth-order stopping criterion.

@dataclass
class StoppingReport:
    status: str
    threshold: float
    final_grad_norm: float
    guarantee: float
    final_error: float
    passed: bool

    def lines(self):
        return [
            f"status={self.status} grad_norm={self.final_grad_norm:.3e} "
            f"threshold={self.threshold:.3e} "
            f"final_error={self.final_error:.3e} "
            f"guarantee={self.guarantee:.3e} "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def stopping_criterion_check(seed: int = 0) -> StoppingReport:
    """Run the solver on the cubic box problem (d = 4, R = 0.4, so m and L2
    are known) at mu = 1e-3 for at most 50 iterations until the
    zeroth-order floor fires, then verify the suboptimality guarantee
    ||x - x*|| <= d L2 mu^2 / (3 m) against the true minimizer."""
    d, box_radius, mu = 4, 0.4, 1e-3
    problem = make_cubic_box(d, box_radius)
    known = problem.known
    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(d), alpha=1.0,
        lambda_min=known.m, lambda_max=known.L1,
        max_iterations=50,
        L1=known.L1, L2=known.L2, m=known.m)
    # The cubic is only convex near the origin; an isotropic positive start
    # keeps every iterate inside the box.
    x0 = 0.75 * box_radius * np.ones(d)
    trace = run(x0, problem.make_oracle(), config, RngStream(seed),
                x_star=known.x_star, f_star=known.f_star)
    final_error = float(np.linalg.norm(trace.x_final - known.x_star))
    guarantee = d * known.L2 * mu * mu / (3.0 * known.m)
    threshold = gradient_error_bound(d, known.L2, mu)
    grad_norm = trace.records[-1].grad_norm_est if trace.records else math.inf
    passed = (trace.status == STOPPED_ZO_FLOOR
              and grad_norm <= threshold
              and final_error <= guarantee)
    return StoppingReport(status=trace.status, threshold=threshold,
                          final_grad_norm=grad_norm, guarantee=guarantee,
                          final_error=final_error, passed=passed)
