"""Derivative-free Newton-type solver.

Each iteration (i) probes one orthonormal frame of d directions and builds
the gradient estimate from it, (ii) checks the zeroth-order stopping
criterion when the problem constants are known, (iii) picks the iteration's
direction count r_k (fixed or adaptive) and probes the remaining r_k - d
directions, feeding all r_k curvatures to the warm-started incremental
Hessian estimate, and (iv) takes the damped Newton step
x <- x - alpha * Z * g, where Z is the estimate's inverse with its spectrum
clipped into [lambda_min, lambda_max]. When the spectrum already lies
strictly inside the bounds, Z g is one linear solve with the estimate;
otherwise it comes from an eigendecomposition. The center value f(x) is
shared between the two probe phases, so one iteration costs exactly
2 r_k + 1 evaluations. A probe batch that holds a non-finite value or
second difference, or whose probe steps are lost to rounding at x, ends the
run as stopped_numerical, and so does a gradient norm or Hessian estimate
that overflows, or a step whose direction, new iterate or length is not
finite.

Under a fixed policy the directions are drawn a block of iterations ahead:
one normal draw of up to 64 KiB, capped by the iterations the run has left,
holds exactly the normals of each iteration's ``stiefel_sample(d, d)`` and
``stiefel_sample(d, r - d)``, and ``sampling._stiefel_columns`` turns them
into the columns those calls return. The state carries the rest of the
block, so the direction stream is consumed in blocks: a caller that draws
from it after ``run`` or ``iterate`` sees other numbers than with
per-iteration draws (no caller in the package does). The adaptive policy's
r_k depends on the state, so it draws per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .estimators import (
    HessianEstimate,
    _gradient,
    directional_curvature,
    gradient_error_bound,
    update_rate_bound,
)
from .oracle import BudgetExhaustedError, Oracle
from .sampling import (DirectionSet, RngStream, _check_count, _check_real,
                       _stiefel_columns, stiefel_sample)

__all__ = [
    "AdaptiveDirections",
    "FixedDirections",
    "RunTrace",
    "SolverConfig",
    "SolverState",
    "TraceRecord",
    "RUNNING",
    "STOPPED_BUDGET",
    "STOPPED_MAX_ITER",
    "STOPPED_NUMERICAL",
    "STOPPED_ZO_FLOOR",
    "adaptive_direction_count",
    "contraction_gamma",
    "iterate",
    "iterations",
    "optimal_stepsize",
    "run",
    "zo_floor_stop",
]

RUNNING = "running"
STOPPED_ZO_FLOOR = "stopped_zo_floor"
STOPPED_MAX_ITER = "stopped_max_iter"
STOPPED_BUDGET = "stopped_budget"
STOPPED_NUMERICAL = "stopped_numerical"


@dataclass(frozen=True)
class FixedDirections:
    """Use the same direction count r at every iteration (r >= d)."""

    r: int

    def __post_init__(self):
        _check_count("r", self.r)


@dataclass(frozen=True)
class AdaptiveDirections:
    """Pick r_k per iteration from the gradient norm and a curvature-residual
    error proxy, clamped to [d, r_max]."""

    r_max: int

    def __post_init__(self):
        _check_count("r_max", self.r_max)


RPolicy = Union[FixedDirections, AdaptiveDirections]


@dataclass
class SolverConfig:
    """Solver parameters; regularity constants are optional and only enable
    the features that need them (adaptive r, the stopping criterion, the
    rate-optimal stepsize). Each real given is finite and positive (L2 may
    be 0), with lambda_min <= lambda_max. ``max_iterations``, like the
    policies' counts, is an integer >= 1."""

    mu: float
    r_policy: RPolicy
    alpha: Optional[float] = None
    lambda_min: float = 1e-6
    lambda_max: float = 1e6
    max_iterations: int = 100
    L1: Optional[float] = None
    L2: Optional[float] = None
    m: Optional[float] = None

    def __post_init__(self):
        _check_real("mu", self.mu)
        _check_real("lambda_min", self.lambda_min)
        _check_real("lambda_max", self.lambda_max)
        if self.lambda_min > self.lambda_max:
            raise ValueError(f"need lambda_min <= lambda_max, got "
                             f"[{self.lambda_min}, {self.lambda_max}]")
        if not math.isfinite(1.0 / self.lambda_min):
            raise ValueError(
                f"lambda_min={self.lambda_min} has no finite reciprocal")
        for name, minimum in (("alpha", None), ("L1", None), ("m", None),
                              ("L2", 0)):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name), minimum)
        _check_count("max_iterations", self.max_iterations)

    def resolved_alpha(self) -> float:
        """Explicit alpha wins; else lambda_min / L1 when L1 is known
        (the rate-optimal global stepsize); else 1 (the local Newton regime)."""
        if self.alpha is not None:
            return self.alpha
        if self.L1 is not None:
            return optimal_stepsize(self.lambda_min, self.L1)
        return 1.0


# Bytes of float64 normals a fixed policy draws at once: the directions of
# as many iterations as fit, at least one.
_BLOCK_BYTES = 64 * 1024


@dataclass
class SolverState:
    """The iterate, the Hessian estimate and the iteration count of a run.

    ``_block`` holds the directions a fixed policy drew ahead and has not
    used yet: (B, d, d) gradient frames and (B, d, r - d) extra directions
    (None when r = d), as columns. It belongs to the run, and ``iterate``
    refuses a state whose block does not fit its config."""

    x: np.ndarray
    hessian: HessianEstimate
    iteration: int
    status: str = RUNNING
    _block: Optional[tuple[np.ndarray, Optional[np.ndarray]]] = field(
        default=None, repr=False)

    @classmethod
    def initial(cls, x0, d: int) -> "SolverState":
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (d,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({d},)")
        return cls(x=x0.copy(), hessian=HessianEstimate.zero(d), iteration=0)


# Field metadata of the TraceRecord fields that the CSV trace leaves out.
_IN_MEMORY = {"csv": False}


@dataclass
class TraceRecord:
    """One iteration's worth of trace data.

    The fields are the CSV columns, in order, except those marked
    ``_IN_MEMORY``: in-memory extras for the verification harness (the
    iterate itself, whether eigenvalue clipping was active, and the
    stopping-criterion guarantee when it fired). The solver leaves f_gap,
    x_err and hess_err_fro empty: a caller with the ground truth fills them.
    """

    iteration: int
    evals: int
    f_value: float
    f_gap: Optional[float] = None
    grad_norm_est: Optional[float] = None
    r_used: Optional[int] = None
    alpha: Optional[float] = None
    step_norm: Optional[float] = None
    x_err: Optional[float] = None
    hess_err_fro: Optional[float] = None
    up_scalars: Optional[int] = None
    down_scalars: Optional[int] = None
    x: Optional[np.ndarray] = field(default=None, metadata=_IN_MEMORY)
    clipped: Optional[bool] = field(default=None, metadata=_IN_MEMORY)
    zo_bound: Optional[float] = field(default=None, metadata=_IN_MEMORY)


@dataclass
class RunTrace:
    records: list
    status: str
    x_final: np.ndarray
    extra: dict = field(default_factory=dict)

    @property
    def total_evals(self) -> int:
        return self.records[-1].evals if self.records else 0


def _clip_inverse(h: np.ndarray, lambda_min: float,
                  lambda_max: float) -> tuple[np.ndarray, bool]:
    """Clamp the spectrum of h into [lambda_min, lambda_max] and invert:
    Z = Q clamp(Lambda)^(-1) Q^T. Returns Z and whether any eigenvalue was
    clamped.

    Every eigenvalue of Z lies in [1/lambda_max, 1/lambda_min], and when the
    spectrum of h already sits inside the bounds Z is exactly the inverse.
    Nothing is checked: ``h`` must be an exactly symmetric float matrix, as
    every update keeps the solver's estimate, and the bounds must satisfy
    0 < lambda_min <= lambda_max < inf, as :class:`SolverConfig` checks. The
    solver calls it through :func:`_newton_direction`, when a Cholesky test
    finds an eigenvalue of h outside the bounds or on one.
    """
    w, q = np.linalg.eigh(h)
    clipped = bool(w[0] < lambda_min or w[-1] > lambda_max)
    w_clamped = np.clip(w, lambda_min, lambda_max)
    z = (q * (1.0 / w_clamped)) @ q.T
    z = 0.5 * (z + z.T)
    return z, clipped


def _newton_direction(h: np.ndarray, g: np.ndarray, lambda_min: float,
                      lambda_max: float) -> tuple[np.ndarray, bool]:
    """The direction Z g, with Z the clipped inverse of :func:`_clip_inverse`,
    and whether any eigenvalue of h was clipped.

    When h - lambda_min I and lambda_max I - h both have a Cholesky factor,
    the spectrum of h lies strictly inside the bounds, so Z is h^(-1) and
    one linear solve gives the direction. Otherwise it is
    ``_clip_inverse(h, ...)[0] @ g`` with that function's verdict, so an
    eigenvalue exactly on a bound is not clipped. ``h`` must be finite and
    exactly symmetric: a Cholesky factorisation of a non-finite matrix need
    not raise.

    The two tested matrices are ``h.copy()`` and ``0.0 - h`` with only the
    diagonal shifted, in place, by -lambda_min and +lambda_max: bit for bit
    the matrices ``h - lambda_min * np.eye(d)`` and
    ``lambda_max * np.eye(d) - h``, signed zeros included, without building
    an identity.
    """
    d = len(g)
    lower = h.copy()
    lower.reshape(-1)[::d + 1] -= lambda_min
    upper = np.subtract(0.0, h, order="C")
    upper.reshape(-1)[::d + 1] += lambda_max
    try:
        np.linalg.cholesky(lower)
        np.linalg.cholesky(upper)
    except np.linalg.LinAlgError:
        z, clipped = _clip_inverse(h, lambda_min, lambda_max)
        return z @ g, clipped
    return np.linalg.solve(h, g), False


def optimal_stepsize(lambda_min: float, L1: float) -> float:
    """Stepsize lambda_min / L1 maximizing the global contraction factor."""
    _check_real("L1", L1)
    return lambda_min / L1


def contraction_gamma(alpha: float, m: float, L1: float,
                      lambda_min: float, lambda_max: float) -> float:
    """Per-iteration f-gap contraction exponent gamma(alpha).

    gamma = (2 m alpha / lambda_max) * (1 - L1 alpha / (2 lambda_min));
    at alpha = lambda_min / L1 this equals m lambda_min / (L1 lambda_max).
    """
    for name, value in (("alpha", alpha), ("m", m), ("L1", L1),
                        ("lambda_min", lambda_min),
                        ("lambda_max", lambda_max)):
        _check_real(name, value)
    return (2.0 * m * alpha / lambda_max) * (1.0 - L1 * alpha / (2.0 * lambda_min))


def zo_floor_stop(g_norm: float, d: int, L2: float, mu: float,
                  m: float) -> Optional[float]:
    """Zeroth-order stopping criterion.

    Once the estimated gradient norm falls to the estimator's own error
    floor d L2 mu^2 / 6, the iterate is already within d L2 mu^2 / (3 m) of
    the minimizer; returns that guarantee (signal to stop) or None.
    """
    threshold = gradient_error_bound(d, L2, mu)
    _check_real("m", m)
    if g_norm <= threshold:
        return d * L2 * mu * mu / (3.0 * m)
    return None


def adaptive_direction_count(g_norm: float, d: int, L1: float, L2: float,
                             mu: float, eta: float, error_proxy: float,
                             r_max: int) -> int:
    """Direction count needed to push the Hessian error below the accuracy
    target epsilon_k = (||g_k|| - d L2 mu^2 / 6) / L1.

    Starting from a Hessian-error proxy rho, the expected squared error
    contracts by eta per update, so s = ceil(log(eps^2 / rho^2) / log(eta))
    extra updates (beyond the d gradient directions) are prescribed; the
    result is clamped to [d, r_max]. eta must lie in (0, 1); g_norm and
    error_proxy may be infinite but not NaN.
    """
    for name, value in (("g_norm", g_norm), ("error_proxy", error_proxy)):
        if math.isnan(value):
            raise ValueError(f"{name} must not be NaN, got {value!r}")
    if r_max < d:
        raise ValueError(f"r_max must be at least d, got r_max={r_max} < d={d}")
    _check_real("L1", L1)
    _check_real("eta", eta)
    if eta >= 1:
        raise ValueError(f"eta must be below 1, got {eta!r}")
    epsilon = (g_norm - gradient_error_bound(d, L2, mu)) / L1
    if epsilon <= 0:
        # Caller should have stopped already; be conservative.
        return r_max
    if error_proxy <= epsilon:
        s = 0
    else:
        ratio = (epsilon / error_proxy) ** 2
        if ratio <= 0:
            return r_max
        s = math.ceil(math.log(ratio) / math.log(eta))
    return max(d, min(d + s, r_max))


def _validate_run_inputs(oracle: Oracle, config: SolverConfig):
    d = oracle.dimension
    policy = config.r_policy
    if isinstance(policy, FixedDirections):
        if policy.r < d:
            raise ValueError(
                f"fixed direction count r={policy.r} is below d={d}; the "
                "gradient estimator needs a full orthonormal frame")
    elif isinstance(policy, AdaptiveDirections):
        if policy.r_max < d:
            raise ValueError(f"r_max={policy.r_max} is below d={d}")
        if config.L1 is None:
            raise ValueError("the adaptive direction policy needs L1")
    else:
        raise TypeError(f"unknown r policy {policy!r}")


# The rounding unit of a float64.
_EPS = float(np.finfo(float).eps)


def _probe_failed(x: np.ndarray, curvatures: np.ndarray, mu: float) -> bool:
    """True when a probe batch, with second differences ``curvatures`` at
    step ``mu``, cannot carry information about f.

    Either a second difference is not finite, or the probe step mu is no
    larger than the rounding unit eps * ||x|| of the iterate. The first
    covers a non-finite function value, which always gives a non-finite
    second difference, and a mu whose square underflows to 0. In the
    second, the probe points x +/- mu*u are lost to rounding (a point equal
    to x implies eps * ||x|| > 2 mu), and a gradient estimate of exactly 0
    would pass the floor test.
    ||x|| is ``math.sqrt(x.dot(x))``, the formula ``np.linalg.norm`` runs
    for a real vector.
    """
    # Written so that a non-finite x fails too.
    return not (np.isfinite(curvatures).all()
                and _EPS * math.sqrt(x.dot(x)) < mu)


def _numerical_stop(state: SolverState, evals: int, f_value: float,
                    r_used: int):
    """Stopped state and trace record for a failed probe batch, gradient,
    Hessian update or step; the Hessian estimate is left as it was and the record keeps the offending
    point."""
    x = state.x
    new_state = SolverState(
        x=x.copy(), hessian=state.hessian,
        iteration=state.iteration + 1, status=STOPPED_NUMERICAL)
    record = TraceRecord(
        iteration=state.iteration, evals=evals, f_value=f_value,
        r_used=r_used, x=x.copy())
    return new_state, record


def _fixed_directions(state: SolverState, d: int, r: int,
                      config: SolverConfig, rng: RngStream):
    """This iteration's frame, its r - d extra directions (None when r = d)
    and the block to carry on, drawing a new block when none is left: as
    many iterations as fit in ``_BLOCK_BYTES`` of normals, at least one, and
    no more than the config's iterations left. Each iteration's row of
    normals is what ``stiefel_sample(d, d)`` then ``stiefel_sample(d, r - d)``
    would draw, so each set is the one those calls return, F-ordered."""
    block = state._block
    if block is None:
        fit = _BLOCK_BYTES // (8 * d * r)
        left = config.max_iterations - state.iteration
        normals = rng.generator.standard_normal((max(1, min(fit, left)),
                                                 d * r))
        block = (_stiefel_columns(normals[:, :d * d], d),
                 _stiefel_columns(normals[:, d * d:], d) if r > d else None)
    frames, extras = block
    frame = DirectionSet._owned(frames[0].T, frame_size=d)
    extra = (None if extras is None
             else DirectionSet._owned(extras[0].T, frame_size=d))
    if len(frames) == 1:
        return frame, extra, None
    return frame, extra, (frames[1:], None if extras is None else extras[1:])


def iterate(state: SolverState, oracle: Oracle, config: SolverConfig,
            rng: RngStream) -> tuple[SolverState, TraceRecord]:
    """Run one solver iteration; returns the new state and its trace record.

    Budget exhaustion inside either probe phase propagates as
    :class:`BudgetExhaustedError`; :func:`iterations` catches it and marks
    the run stopped_budget. A probe batch that fails
    :func:`_probe_failed` stops the run as stopped_numerical before any
    Hessian update. A gradient norm that is not finite, or a Hessian update
    that leaves the estimate not finite, stops it before the floor test, the
    adaptive count and the step; so does a step whose direction, new
    iterate or length is not finite. Each stops it as stopped_numerical at
    this iteration, with x and the state's estimate kept.
    A direction policy that does not fit the oracle (a fixed r below d, an
    adaptive r_max below d or no L1), or a state carrying directions drawn
    for another (d, r) or policy, raises ``ValueError`` before any
    evaluation.

    Under a fixed policy ``rng`` is consumed in blocks of up to 64 KiB of
    normals, capped by ``config.max_iterations`` less the state's iteration;
    the iteration's sets are views of the block, and the returned state
    carries the rest of it. Pass the same stream to every call of a run,
    and draw nothing else from it.
    """
    _validate_run_inputs(oracle, config)
    if state.status != RUNNING:
        raise ValueError(f"cannot iterate a solver in status {state.status!r}")
    d = oracle.dimension
    policy = config.r_policy
    fixed = isinstance(policy, FixedDirections)
    if state._block is not None:
        frames, extras = state._block
        drawn = (frames.shape[-1], frames.shape[-1]
                 + (0 if extras is None else extras.shape[-1]))
        if not fixed or drawn != (d, policy.r):
            raise ValueError(
                f"the state carries directions drawn for (d, r) = {drawn}, "
                f"which do not fit {policy!r} at d={d}")
    x = state.x
    alpha = config.resolved_alpha()

    # (i) one orthonormal frame: gradient + the first d Hessian updates.
    if fixed:
        frame, extra, block = _fixed_directions(state, d, policy.r, config,
                                                rng)
    else:
        frame, block = stiefel_sample(d, d, rng), None
    probe = oracle.probe_batch(x, frame, config.mu)
    curvatures = directional_curvature(probe)
    if _probe_failed(x, curvatures, config.mu):
        return _numerical_stop(state, oracle.eval_count,
                               probe.center_value, d)
    # An overflow in the gradient, its norm or the update shows as a
    # non-finite norm or estimate, which ends the run here. The frame is one
    # full orthonormal basis, so the gradient skips estimate_gradient's check.
    hess = state.hessian.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gradient(probe.plus_values, probe.minus_values, probe.mu,
                      frame.vectors)
        g_norm = math.sqrt(g.dot(g))
        residuals = hess.apply_probe(frame, curvatures)
    if not (math.isfinite(g_norm) and np.isfinite(hess.matrix).all()):
        return _numerical_stop(state, oracle.eval_count,
                               probe.center_value, d)

    # (ii) zeroth-order floor check, when the constants are known.
    if config.L2 is not None and config.m is not None:
        bound = zo_floor_stop(g_norm, d, config.L2, config.mu, config.m)
        if bound is not None:
            new_state = SolverState(
                x=x.copy(), hessian=hess,
                iteration=state.iteration + 1, status=STOPPED_ZO_FLOOR)
            record = TraceRecord(
                iteration=state.iteration, evals=oracle.eval_count,
                f_value=probe.center_value, grad_norm_est=g_norm,
                r_used=d, alpha=alpha, step_norm=0.0, x=x.copy(),
                zo_bound=bound)
            return new_state, record

    # (iii) direction count for this iteration; probe the remaining
    # r_k - d directions, sharing the already-known center value.
    if fixed:
        r_k = policy.r
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            rho = math.sqrt(float(np.mean(residuals ** 2)))
        proxy = rho * math.sqrt(d * (d + 2) / 2.0)
        r_k = adaptive_direction_count(
            g_norm, d, config.L1, config.L2 if config.L2 is not None else 0.0,
            config.mu, update_rate_bound(d), proxy, policy.r_max)
        extra = stiefel_sample(d, r_k - d, rng) if r_k > d else None
    if extra is not None:
        probe2 = oracle.probe_batch(x, extra, config.mu,
                                    center=probe.center_value)
        curvatures = directional_curvature(probe2)
        if _probe_failed(x, curvatures, config.mu):
            return _numerical_stop(state, oracle.eval_count,
                                   probe.center_value, r_k)
        with np.errstate(over="ignore", invalid="ignore"):
            hess.apply_probe(extra, curvatures)
        if not np.isfinite(hess.matrix).all():
            return _numerical_stop(state, oracle.eval_count,
                                   probe.center_value, r_k)

    # (iv) clip, invert, step; SolverConfig has checked the bounds, and the
    # checks above let only a finite estimate through. An overflow anywhere
    # in the step shows as a non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        direction, clipped = _newton_direction(
            hess.matrix, g, config.lambda_min, config.lambda_max)
        x_new = x - alpha * direction
        step = x_new - x
        step_norm = math.sqrt(step.dot(step))
    if not (math.isfinite(step_norm) and np.isfinite(x_new).all()):
        return _numerical_stop(state, oracle.eval_count,
                               probe.center_value, r_k)

    new_state = SolverState(
        x=x_new, hessian=hess, iteration=state.iteration + 1, status=RUNNING,
        _block=block)
    record = TraceRecord(
        iteration=state.iteration, evals=oracle.eval_count,
        f_value=probe.center_value, grad_norm_est=g_norm, r_used=r_k,
        alpha=alpha, step_norm=step_norm, x=x.copy(), clipped=clipped)
    return new_state, record


def iterations(state: SolverState, oracle: Oracle, config: SolverConfig,
               rng: RngStream):
    """Yield ``(state, record)`` for each :func:`iterate` call from
    ``state``: the one loop over ``iterate``.

    Once exhausted, the last state yielded, or ``state`` when none was,
    carries the stop status: the generator marks it stopped_budget when a
    probe phase exhausts the budget and stopped_max_iter at the cap. A
    caller that stops early leaves the state as ``iterate`` returned it.
    """
    while state.status == RUNNING:
        if state.iteration >= config.max_iterations:
            state.status = STOPPED_MAX_ITER
            return
        try:
            state, record = iterate(state, oracle, config, rng)
        except BudgetExhaustedError:
            state.status = STOPPED_BUDGET
            return
        yield state, record


def run(x0, oracle: Oracle, config: SolverConfig,
        rng: RngStream) -> RunTrace:
    """Iterate from x0 until the zeroth-order floor, the budget, a numerical
    failure or the iteration cap stops the run; returns the records that
    :func:`iterations` yields, its stop status and the final iterate.
    ``rng`` is the run's own stream (see :func:`iterate`)."""
    state = SolverState.initial(x0, oracle.dimension)
    records = []
    for state, record in iterations(state, oracle, config, rng):
        records.append(record)
    return RunTrace(records=records, status=state.status,
                    x_final=state.x.copy())
