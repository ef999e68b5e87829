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
    _gradient,
    _rank_one,
    _second_difference,
    gradient_error_bound,
    update_rate_bound,
)
from .oracle import Oracle, _probe_points, _probe_sides
from .problems import (
    logistic_gap_objective,
    make_cubic_box,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    random_spd,
)
from .sampling import (RngStream, _check_count, _check_real,
                       _stiefel_columns, _unit_rows)
from .solver import (
    FixedDirections,
    SolverConfig,
    SolverState,
    STOPPED_NUMERICAL,
    STOPPED_ZO_FLOOR,
    contraction_gamma,
    iterations,
    optimal_stepsize,
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
# The rate, Lemma 1 and sampling gates run their trials in blocks, each
# trial one probe batch. A block's probe points fit in _BLOCK_BYTES: without
# blocks the gates' allocation peaks grow with the trial count (to 7-8 MB
# at the CLI defaults). Each gate draws all its trials' directions, in trial
# order, from one stream: a block's raw normals are one draw, normalised
# (``_unit_rows``) or orthonormalised (``_stiefel_columns``) in one call, to
# exactly the directions successive sampler calls on that stream would give
# (bar a zero-norm row, never seen, which is redrawn after its block).

_BLOCK_BYTES = 2**18


def _block_trials(points_per_trial: int, d: int) -> int:
    """Trials per block: as many as fit their probe points, at least one."""
    return max(1, _BLOCK_BYTES // (8 * points_per_trial * d))


def _probe_values(oracle: Oracle, centers: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """The values of one probe batch per trial, as an array (trials, 2k+1):
    ``centers`` (trials, d) or (1, d) are the trials' centers x and
    ``steps`` (trials, k, d) their displacements mu u_j.

    Each trial's 2k+1 points are laid out by ``_probe_points``, as its own
    probe batch lays them out, and one :meth:`Oracle.evaluate_points` call
    charges and evaluates them all.
    """
    trials, k, d = steps.shape
    values = oracle.evaluate_points(
        _probe_points(centers, steps).reshape(-1, d))
    return values.reshape(trials, 2 * k + 1)


def _origin_curvatures(oracle: Oracle, vectors: np.ndarray, mu: float,
                       gate: str) -> np.ndarray:
    """Second central differences at the origin along every direction of a
    stack ``vectors`` (trials, k, d), as an array (trials, k), from one
    :func:`_probe_values` call. Raises ``FloatingPointError``, naming
    ``gate`` and mu, if a curvature is not finite.
    """
    _check_real("mu", mu)
    values = _probe_values(oracle, np.zeros((1, vectors.shape[-1])),
                           mu * vectors)
    center, plus, minus = _probe_sides(values)
    curvatures = _second_difference(plus, center, minus, mu)
    if not np.all(np.isfinite(curvatures)):
        raise FloatingPointError(
            f"{gate}: non-finite directional curvature at mu={mu!r}")
    return curvatures


def _solver_iterations(gate: str, x0: np.ndarray, oracle: Oracle,
                       config: SolverConfig, rng: RngStream):
    """:func:`~zonewton.solver.iterations` from x0, raising
    ``FloatingPointError``, naming ``gate``, the iteration count and mu, at
    an iteration that ends the run ``stopped_numerical``."""
    state = SolverState.initial(x0, oracle.dimension)
    for state, record in iterations(state, oracle, config, rng):
        if state.status == STOPPED_NUMERICAL:
            raise FloatingPointError(
                f"{gate}: the run ended {state.status} after "
                f"{state.iteration} iterations at mu={config.mu!r}")
        yield state, record


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
    assumes): trial after trial, those ``gaussian_sphere_sample(d, 15)``
    draws from one ``RngStream(seed + 1)``. Each trial probes all 15
    updates' curvatures in a single batch of 31 points at the origin; mean
    squared Frobenius errors are averaged across trials and every
    consecutive ratio must stay below eta * 1.02.

    The trials run in blocks whose probe points fit in 256 KiB: a block's
    normals are one draw, one ``_unit_rows`` call normalises them, one
    oracle call evaluates its points, each trial still charged its own 31,
    and each update is one ``_rank_one`` step on the block's stack of
    estimates.
    Raises ``ValueError`` for d < 2, where the first update recovers the
    Hessian exactly and leaves no contraction to measure, and
    ``FloatingPointError`` if a curvature is not finite (mu too large or
    too small for the objective's floating-point range).
    """
    _check_count("trials", trials)
    _check_count("d", d, 2)
    n_updates = 15
    eta = update_rate_bound(d)
    a = random_spd(d, cond=3.0, rng=RngStream(seed))
    oracle = make_quadratic(a, np.zeros(d)).make_oracle()
    sq_errors = np.empty((trials, n_updates + 1))
    sq_errors[:, 0] = np.linalg.norm(a) ** 2
    gen = RngStream(seed + 1).generator
    block = _block_trials(2 * n_updates + 1, d)
    for first in range(0, trials, block):
        rows = slice(first, first + block)
        size = min(block, trials - first)
        v = _unit_rows(gen.standard_normal((size, n_updates, d)), gen)
        c = _origin_curvatures(oracle, v, mu, "rate_verification")
        h = np.zeros((size, d, d))
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


def _norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the rows of a stack, each from the dot
    product ``np.linalg.norm`` takes of one vector, so the bits match."""
    return np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])


def gradient_bound_verification(seed: int = 0, d: int = 4,
                                n_points: int = 100) -> GradientBoundReport:
    """Check ||grad f - g|| <= d L2 mu^2 / 6 deterministically on the cubic
    box problem with R = 1 (L2 = 2 everywhere), at mu = 0.1, 0.01 and
    0.001, over random points and orthonormal bases. Zero violations are
    allowed; a rounding slack of 1e-12 * (1 + ||grad f||) absorbs
    floating-point noise.

    The n_points points and bases of each mu, mu by mu, are those drawn one
    at a time by ``uniform`` from ``default_rng(seed + 777)`` and by
    ``stiefel_sample(d, d)`` from ``RngStream(seed)``. The probe batches
    run in blocks whose points fit in 256 KiB: a block's points and raw
    bases are one draw each, one ``_stiefel_columns`` call orthonormalises
    the bases, one oracle call evaluates the points, each point still charged
    2d+1, and one ``_gradient`` call, the formula ``estimate_gradient``
    applies, reads their gradients.
    """
    _check_count("n_points", n_points)
    mus, box_radius = (1e-1, 1e-2, 1e-3), 1.0
    problem = make_cubic_box(d, box_radius)
    L2 = problem.known.L2
    n = len(mus) * n_points
    point_gen = np.random.default_rng(seed + 777)
    basis_gen = RngStream(seed).generator
    mu = np.repeat(mus, n_points)
    bound = np.repeat([gradient_error_bound(d, L2, m) for m in mus], n_points)
    oracle = problem.make_oracle()
    error = np.empty(n)
    allowance = np.empty(n)
    block = _block_trials(2 * d + 1, d)
    for first in range(0, n, block):
        rows = slice(first, first + block)
        size = len(mu[rows])
        x = point_gen.uniform(-box_radius, box_radius, size=(size, d))
        v = _stiefel_columns(
            basis_gen.standard_normal((size, d * d)), d).swapaxes(-1, -2)
        values = _probe_values(oracle, x, mu[rows, None, None] * v)
        _, plus, minus = _probe_sides(values)
        g = _gradient(plus, minus, mu[rows], v)
        exact = problem.known.gradient(x)
        error[rows] = _norms(exact - g)
        allowance[rows] = bound[rows] + 1e-12 * (1.0 + _norms(exact))
    violations = int(np.count_nonzero(error > allowance))
    worst = max(0.0, float(np.max(error / allowance)))
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
    f-gap contraction down to it stays within the theorem's 1 - gamma*,
    gamma* = m lambda_min / (L1 lambda_max). The gate stops the solver's
    ``iterations`` there, with 2500 iterations as a guard; if the guard
    ends it first the floor is not reached and the gate fails. Raises
    ``ValueError`` for d < 2 (a 1 x 1 problem has condition number 1) and
    ``FloatingPointError`` if the run ends ``stopped_numerical``."""
    _check_count("d", d, 2)
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
    floor = 1e-9
    gaps = []
    for _, record in _solver_iterations(
            "linear_rate_verification", x0, problem.make_oracle(), config,
            RngStream(seed + 1)):
        gaps.append(record.f_value - problem.known.f_star)
        if gaps[-1] <= floor:
            break
    iters_to_floor = len(gaps) - 1 if gaps[-1] <= floor else None
    gaps = np.array(gaps)
    ratios = gaps[1:] / gaps[:-1]
    max_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    bound = 1.0 - gamma_star
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
                  if self.window_start is None else
                  f"window at k={self.window_start} length="
                  f"{self.window_length} K={self.fitted_K:.3g}")
        return [
            f"errors={np.array2string(self.errors, precision=2, max_line_width=200)}",
            f"{window}; local-bound checks={self.bound_checks} "
            f"violations={self.bound_violations} "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]


def _quadratic_window(errors, qualifies):
    """The longest window of at least 3 consecutive pairs (e_k, e_{k+1})
    that all ``qualifies`` and whose per-step contraction sharpens, last
    <= 0.75 * first; the earliest among windows of equal length.

    Sharpening is the quadratic signature: it rejects a linear-rate
    sequence whose flat ratios slip under the gate's constant. Returns
    (start, length, max e_{k+1} / e_k^2 over the window), or
    (None, 0, None) when no window exists.
    """
    n = len(qualifies)
    windows = [(start, length)
               for start in range(n) for length in range(3, n - start + 1)
               if all(qualifies[start:start + length])
               and errors[start + length] / errors[start + length - 1]
               <= 0.75 * (errors[start + 1] / errors[start])]
    if not windows:
        return None, 0, None
    start, length = max(windows, key=lambda w: (w[1], -w[0]))
    return start, length, float(max(errors[k + 1] / errors[k] ** 2
                                    for k in range(start, start + length)))


def quadratic_rate_verification(seed: int = 0) -> QuadraticRateReport:
    """Check local quadratic convergence and the per-iteration local bound on
    synthetic ridge-regularized logistic regression (n = 200, d = 10,
    features scaled by 2, ridge 0.1) with r = 4 d^2 directions, mu = 1e-7
    and lambda_min = 0.01, from distance 0.1 to x*. The gate stops the
    solver's ``iterations`` after the first iteration whose new error
    is at or below the measurement floor, where no later pair can be
    measured; 25 iterations stay as a guard.

    With a fixed r the Hessian error contracts by a constant factor per
    iteration and e_k quadratically; at r = d^2 the bound's Hessian-error
    term overtook K e_k^2 within the window's three pairs on some seeds.

    The solver sees the objective in optimum-centered form (values are
    f(x) - f*, computed cancellation-free): at mu = 1e-7 the curvature signal
    in a raw O(1) objective sits below double-precision rounding, while the
    centered values keep full relative accuracy near the optimum. Centering
    changes no derivative, minimizer, or constant.

    A pair (e_k, e_{k+1}) is measurable when its iteration did not clip
    (so the step used the exact inverse estimate) and both errors sit above
    the measurement floor. Two gates: (1) a window of at least three
    consecutive measurable pairs that contract at least quadratically,
    e_{k+1} < e_k and e_{k+1} <= K e_k^2 with the single analysis constant
    K = (L2 + 2) / (2 lambda_min), and whose per-step contraction sharpens
    (see ``_quadratic_window``); (2) on every measurable pair, of which
    there must be at least one, the measured error never exceeds
    (L2/(2 lm)) e_k^2 + (||H_k - hess(x_k)||/lm) e_k + d L2 mu^2/(6 lm)
    by more than 1e-10 relative, with H_k the estimate that step k inverts.

    The floor combines the zeroth-order bias bound with the reference
    minimizer's own accuracy (||grad|| <= 1e-13, i.e. distance <= 1e-13/m):
    below it the measured distance says nothing about the algorithm.
    Raises ``FloatingPointError`` if the run ends ``stopped_numerical``.
    """
    n, d, ridge, mu, lambda_min = 200, 10, 0.1, 1e-7, 0.01
    data = make_synthetic_dataset(n, d, RngStream(seed), scale=2.0)
    known = make_logistic(data, ridge).known
    oracle = Oracle(logistic_gap_objective(data, ridge, known.x_star), d)

    u = RngStream(seed + 1).generator.standard_normal(d)
    x0 = known.x_star + 0.1 * u / np.linalg.norm(u)

    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(4 * d * d), alpha=1.0,
        lambda_min=lambda_min, lambda_max=1e4, max_iterations=25, L1=known.L1)
    floor = max(d * known.L2 * mu * mu / (3.0 * known.m),
                10.0 * 1e-13 / known.m)
    errors, steps = [np.linalg.norm(x0 - known.x_star)], []
    for state, record in _solver_iterations(
            "quadratic_rate_verification", x0, oracle, config,
            RngStream(seed + 2)):
        errors.append(np.linalg.norm(state.x - known.x_star))
        steps.append((record, state.hessian.matrix))
        if errors[-1] <= floor:
            break
    errors = np.array(errors)

    k_bound = (known.L2 + 2.0) / (2.0 * lambda_min)
    measurable = [bool(not rec.clipped and errors[k] > floor
                       and errors[k + 1] > floor)
                  for k, (rec, _) in enumerate(steps)]
    qualifies = [ok and errors[k + 1] < errors[k]
                 and errors[k + 1] <= k_bound * errors[k] * errors[k]
                 for k, ok in enumerate(measurable)]
    start, length, fitted_k = _quadratic_window(errors, qualifies)

    checks = sum(measurable)
    violations = int(sum(
        errors[k + 1] > (known.L2 / (2.0 * lambda_min) * errors[k] ** 2
                         + np.linalg.norm(h - known.hessian(rec.x), 2)
                         / lambda_min * errors[k]
                         + d * known.L2 * mu * mu / (6.0 * lambda_min))
        * (1.0 + 1e-10)
        for k, (rec, h) in enumerate(steps) if measurable[k]))
    passed = start is not None and violations == 0 and checks > 0
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

    Trial after trial, the Stiefel and then the Gaussian set are those
    ``stiefel_sample(d, r)`` and ``gaussian_sphere_sample(d, r)`` draw from
    one ``RngStream(seed + 1)``. The trials run in blocks whose probe points
    fit in 256 KiB: a block's normals are one draw, its Stiefel halves one
    ``_stiefel_columns`` call, its Gaussian halves one ``_unit_rows`` call,
    and one oracle call evaluates both, each trial still charged 2r+1 per
    sampler at the origin. The Stiefel estimates take one ``_frame_update``
    per frame (r > d gives several), the Gaussian ones r ``_rank_one``
    steps, each over the block's stack. Raises ``ValueError`` for d < 2,
    where both samplers recover the Hessian exactly, and
    ``FloatingPointError`` if a curvature is not finite."""
    _check_count("trials", trials, 30)
    _check_count("d", d, 2)
    _check_count("r", r)
    a = random_spd(d, cond=10.0, rng=RngStream(seed))
    oracle = make_quadratic(a, np.zeros(d)).make_oracle()
    errors = np.empty((2, trials))
    gen = RngStream(seed + 1).generator
    block = _block_trials(2 * (2 * r + 1), d)
    for first in range(0, trials, block):
        rows = slice(first, first + block)
        size = min(block, trials - first)
        normals = gen.standard_normal((size, 2, d * r))
        v = np.stack([
            _stiefel_columns(normals[:, 0], d).swapaxes(-1, -2),
            _unit_rows(normals[:, 1].reshape(size, r, d), gen)], axis=1)
        c = _origin_curvatures(oracle, v.reshape(-1, r, d), mu,
                               "sampling_comparison").reshape(size, 2, r)
        h = np.zeros((size, 2, d, d))
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
    ||x - x*|| <= d L2 mu^2 / (3 m) against the true minimizer. Raises
    ``FloatingPointError`` if the run ends ``stopped_numerical``."""
    d, box_radius, mu = 4, 0.4, 1e-3
    problem = make_cubic_box(d, box_radius)
    known = problem.known
    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(d), alpha=1.0,
        lambda_min=known.m, lambda_max=known.L1,
        max_iterations=50, L1=known.L1, L2=known.L2, m=known.m)
    # The cubic is only convex near the origin; an isotropic positive start
    # keeps every iterate inside the box.
    x0 = 0.75 * box_radius * np.ones(d)
    for state, record in _solver_iterations(
            "stopping_criterion_check", x0, problem.make_oracle(), config,
            RngStream(seed)):
        pass
    final_error = float(np.linalg.norm(state.x - known.x_star))
    guarantee = d * known.L2 * mu * mu / (3.0 * known.m)
    threshold = gradient_error_bound(d, known.L2, mu)
    grad_norm = record.grad_norm_est
    passed = (state.status == STOPPED_ZO_FLOOR and grad_norm <= threshold
              and final_error <= guarantee)
    return StoppingReport(status=state.status, threshold=threshold,
                          final_grad_norm=grad_norm, guarantee=guarantee,
                          final_error=final_error, passed=passed)
