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
otherwise it comes from an eigendecomposition. Two Cholesky tests tell the
cases apart, except after a clipped step: then the eigendecomposition comes
first, and an eigenvalue beyond a bound by more than a rounding margin,
which proves a test would fail, skips the tests. The eigendecomposition,
the Cholesky tests and the solve call the float64 LAPACK gufuncs that
``np.linalg`` runs, directly, through the private seam :class:`_Lapack`:
the same bits, without ``np.linalg``'s per-call wrapper, and with a
failure shown as a NaN output instead of ``LinAlgError``. The center
value f(x) is shared between the two probe phases, so one iteration costs
exactly 2 r_k + 1 evaluations. A probe batch that holds a non-finite value
or second difference, or whose probe steps are lost to rounding at x, ends
the run as stopped_numerical, and so does a gradient norm or Hessian
estimate that overflows, or a step whose direction, new iterate or length
is not finite, as an eigensolver that fails gives.

Under a fixed policy the directions are drawn a block of iterations ahead:
one normal draw of up to 64 KiB, capped by the iterations the run has left,
holds exactly the normals of each iteration's ``stiefel_sample(d, d)`` and
``stiefel_sample(d, r - d)``, and ``sampling._stiefel_columns`` turns them
into the columns those calls return. The state carries the rest of the
block, so the direction stream is consumed in blocks: a caller that draws
from it after ``run`` or ``iterate`` sees other numbers than with
per-iteration draws (no caller in the package does). When one iteration's
normals take more than half of the 64 KiB (from d = 65 at r = d), every
block is one iteration, and the next one is drawn a block ahead: handed,
after the iteration's first probe batch, to a helper thread pinned to
another CPU (``_helpers``), which draws it while the iteration updates and
steps. On one CPU the next iteration draws it itself. Either way the
directions are the same bits, but the stream is being drawn from on a
helper while such a draw is pending, even after a stop: it belongs to the
run. The adaptive policy's r_k depends on the state, so it draws per
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.linalg import _umath_linalg

from . import _helpers
from .estimators import (
    HessianEstimate,
    _gradient,
    _gradient_error_bound,
    _second_difference,
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
    used yet, with the (d, r) they were drawn for: (B, d, d) gradient frames
    and (B, d, r - d) extra directions (None when r = d), as columns, or the
    pending draw of the next iteration's, a :class:`_helpers.Task` that may
    be running on a helper thread. It belongs to the run, a pending draw
    owns the run's stream, and ``iterate`` refuses a state whose block does
    not fit its config. ``_clipped`` records whether the step that made
    this state clipped, so that the next step's direction starts from an
    eigendecomposition (:func:`_newton_direction`); it changes no bit of
    the run."""

    x: np.ndarray
    hessian: HessianEstimate
    iteration: int
    status: str = RUNNING
    _block: Optional[tuple[tuple[int, int], object]] = field(
        default=None, repr=False)
    _clipped: bool = field(default=False, repr=False)

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


class _Lapack:
    """The solver's seam to LAPACK: the float64 loops of the gufuncs in
    numpy's private ``numpy.linalg._umath_linalg`` that ``np.linalg.eigh``,
    ``np.linalg.cholesky`` and ``np.linalg.solve`` run on a float64 matrix
    (syevd, potrf and gesv), called directly. Only ``np.linalg``'s per-call
    wrapper goes (array conversion, type resolution, a nested error state,
    ``astype`` and ``wrap``), so every output is the same bits.

    A failure (an eigensolver that does not converge, a matrix that is not
    positive definite, a singular system) fills the output with NaN and
    raises the floating-point error ``invalid`` under the caller's error
    state, where ``np.linalg`` raises ``LinAlgError``. The errors of
    LAPACK's own arithmetic (overflow, divide, underflow), which
    ``np.linalg`` ignores, come under the caller's error state too. Nothing
    is checked: each argument must be a float64 array of the right shape.
    tests/test_solver.py checks the bits and the failures against
    ``np.linalg``, so a numpy whose private module changes fails there.
    """

    @staticmethod
    def eigh(h):
        """(w, q): the eigenvalues of h in ascending order and its
        eigenvectors as columns, from the lower triangle."""
        return _umath_linalg.eigh_lo(h, signature="d->dd")

    @staticmethod
    def cholesky(a):
        """The lower Cholesky factor of a, from its lower triangle."""
        return _umath_linalg.cholesky_lo(a, signature="d->d")

    @staticmethod
    def solve(h, g):
        """The solution of h x = g for a vector g."""
        return _umath_linalg.solve1(h, g, signature="dd->d")


def _clip_inverse(h: np.ndarray, lambda_min: float, lambda_max: float,
                  decomposition=None) -> tuple[np.ndarray, bool]:
    """Clamp the spectrum of h into [lambda_min, lambda_max] and invert:
    Z = Q clamp(Lambda)^(-1) Q^T. Returns Z and whether any eigenvalue was
    clamped. ``decomposition``, when given, is ``_Lapack.eigh(h)``, already
    computed.

    Every eigenvalue of Z lies in [1/lambda_max, 1/lambda_min], and when the
    spectrum of h already sits inside the bounds Z is exactly the inverse.
    Nothing is checked: ``h`` must be an exactly symmetric float matrix, as
    every update keeps the solver's estimate, and the bounds must satisfy
    0 < lambda_min <= lambda_max < inf, as :class:`SolverConfig` checks. The
    solver calls it through :func:`_newton_direction`, whenever the spectrum
    of h is not strictly inside the bounds. An eigensolver that fails gives
    NaN eigenvalues and vectors, so Z is NaN and the verdict False; the
    arithmetic runs under the caller's error state.
    """
    w, q = _Lapack.eigh(h) if decomposition is None else decomposition
    clipped = bool(w[0] < lambda_min or w[-1] > lambda_max)
    w_clamped = np.minimum(np.maximum(w, lambda_min), lambda_max)
    z = (q * (1.0 / w_clamped)) @ q.T
    z = 0.5 * (z + z.T)
    return z, clipped


def _cholesky_margin(d: int, w: np.ndarray, lambda_min: float,
                     lambda_max: float) -> float:
    """The margin delta = 2 d^2 eps (|w_1| + |w_d| + lambda_min + lambda_max)
    beyond which an eigenvalue computed by ``_Lapack.eigh`` (LAPACK's
    syevd, as ``np.linalg.eigh`` runs it) proves that a Cholesky test of
    :func:`_newton_direction` fails; ``w`` are the computed eigenvalues of
    the d x d matrix h, in ascending order.

    Let A be the tested h - lambda_min I (the case lambda_max I - h is the
    same with lambda_max), u = eps / 2 and ||.|| the 2-norm. Its shifted
    diagonal is rounded once, so A = h - lambda_min I + D with
    ||D|| <= u (||h|| + lambda_min). If the Cholesky factorisation of A runs
    to completion, its computed factor R satisfies R^T R = A + dA with
    |dA| <= gamma_(d+1) |R^T| |R| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3, whose proof uses only that the
    factorisation completes; any order of the inner products, as in
    LAPACK's blocked potrf, gives the same bound), hence
    ||dA|| <= d gamma_(d+1) ||A|| / (1 - d gamma_(d+1)), which is
    d (d + 1) u ||A|| to first order in u. R^T R is positive semidefinite,
    so the smallest eigenvalue of h is at least
    lambda_min - (d^2 + d + 1) u (||h|| + lambda_min). A backward stable
    symmetric eigensolver computes each eigenvalue within p(d) eps ||h|| of
    the exact one (Weyl's inequality on its backward error; LAPACK's
    documented bound, with p(d) a modest function of d), so a completed
    factorisation gives w_1 >= lambda_min - delta' with
    delta' = ((d^2 + d + 2) / 2) eps (||h|| + lambda_min) + p(d) eps ||h||,
    the extra u covering the rounding of the comparison. With
    ||h|| <= |w_1| + |w_d| to first order, delta covers delta' for any
    p(d) <= (3 d^2 - d - 2) / 2, which is at least d^2 from d = 2 on; at
    d = 1 the eigenvalue is h itself and the test is exact. So
    w_1 < lambda_min - delta, or w_d > lambda_max + delta, means the test
    fails. The margins the solver meets are far larger: on the linear-rate
    gate (gate seeds 1-10) no clipped eigenvalue came within 1e-8 of a
    bound, against a delta below 1e-11.
    The sum is taken in Python floats, so an infinite delta (never
    exceeded) comes without a warning, and so does the NaN delta of a
    failed eigensolver, which no eigenvalue exceeds.
    """
    return 2.0 * d * d * _EPS * (abs(float(w[0])) + abs(float(w[-1]))
                                 + lambda_min + lambda_max)


def _newton_direction(h: np.ndarray, g: np.ndarray, lambda_min: float,
                      lambda_max: float, eigh_first: bool = False,
                      ) -> tuple[np.ndarray, bool]:
    """The direction Z g, with Z the clipped inverse of :func:`_clip_inverse`,
    and whether any eigenvalue of h was clipped.

    When h - lambda_min I and lambda_max I - h both have a Cholesky factor,
    the spectrum of h lies strictly inside the bounds, so Z is h^(-1) and
    one linear solve gives the direction. Otherwise it is
    ``_clip_inverse(h, ...)[0] @ g`` with that function's verdict, so an
    eigenvalue exactly on a bound is not clipped. ``h`` must be finite and
    exactly symmetric: a Cholesky factorisation of a non-finite matrix need
    not fail.

    The LAPACK calls go through :class:`_Lapack`. A failed Cholesky test
    shows as a NaN factor, of which the test reads one element, and a
    failed eigensolver as a NaN direction, which :func:`iterate` stops on.
    Each sets the floating-point error ``invalid``, and the function
    computes under its caller's error state: :func:`iterate` holds one that
    ignores every error, and a direct caller must ignore ``invalid``
    itself, or a failed test warns or raises.

    With ``eigh_first`` (the solver passes whether its previous step
    clipped, since clipped steps come in runs) the eigendecomposition of h
    comes first. An eigenvalue more than :func:`_cholesky_margin` outside
    the bounds proves that a Cholesky test fails, so the clipped inverse is
    returned from that decomposition with no test; otherwise the two tests
    decide as above, and a failed test reuses the decomposition. Either way
    the direction and the verdict are the same bits as without it.

    The two tested matrices are ``h.copy()`` and ``0.0 - h`` with only the
    diagonal shifted, in place, by -lambda_min and +lambda_max: bit for bit
    the matrices ``h - lambda_min * np.eye(d)`` and
    ``lambda_max * np.eye(d) - h``, signed zeros included, without building
    an identity.
    """
    d = len(g)
    decomposition = None
    if eigh_first:
        decomposition = w, _ = _Lapack.eigh(h)
        delta = _cholesky_margin(d, w, lambda_min, lambda_max)
        if w[0] < lambda_min - delta or w[-1] > lambda_max + delta:
            z, clipped = _clip_inverse(h, lambda_min, lambda_max,
                                       decomposition)
            return z @ g, clipped
    lower = h.copy()
    lower.reshape(-1)[::d + 1] -= lambda_min
    upper = np.subtract(0.0, h, order="C")
    upper.reshape(-1)[::d + 1] += lambda_max
    if (math.isnan(_Lapack.cholesky(lower)[0, 0])
            or math.isnan(_Lapack.cholesky(upper)[0, 0])):
        z, clipped = _clip_inverse(h, lambda_min, lambda_max, decomposition)
        return z @ g, clipped
    return _Lapack.solve(h, g), False


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
    _check_count("d", d)
    _check_real("L2", L2, 0)
    _check_real("mu", mu)
    _check_real("m", m)
    return _zo_floor_stop(g_norm, d, L2, mu, m)


def _zo_floor_stop(g_norm: float, d: int, L2: float, mu: float,
                   m: float) -> Optional[float]:
    """:func:`zo_floor_stop` without its checks, for :func:`iterate`, whose
    d is the oracle's dimension and whose L2, mu and m
    :class:`SolverConfig` has checked."""
    if g_norm <= _gradient_error_bound(d, L2, mu):
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


def _steps_lost(x: np.ndarray, mu: float) -> bool:
    """True when the probe step mu is no larger than the rounding unit
    eps * ||x|| of the iterate: the probe points x +/- mu*u are then lost
    to rounding (a point equal to x implies eps * ||x|| > 2 mu), and a
    gradient estimate of exactly 0 would pass the floor test. A non-finite
    x fails too. ||x|| is ``math.sqrt(x.dot(x))``, the formula
    ``np.linalg.norm`` runs for a real vector.
    """
    return not _EPS * math.sqrt(x.dot(x)) < mu


def _numerical_stop(state: SolverState, evals: int, f_value: float,
                    r_used: int):
    """Stopped state and trace record for a failed probe batch, gradient,
    Hessian update or step; the Hessian estimate is left as it was and the
    record keeps the offending point."""
    x = state.x
    new_state = SolverState(
        x=x.copy(), hessian=state.hessian,
        iteration=state.iteration + 1, status=STOPPED_NUMERICAL)
    record = TraceRecord(
        iteration=state.iteration, evals=evals, f_value=f_value,
        r_used=r_used, x=x.copy())
    return new_state, record


def _draw(generator, d: int, r: int, count: int):
    """The (count, d, d) gradient frames and (count, d, r - d) extra
    directions (None when r = d) of ``count`` iterations, as columns, from
    one normal draw: row k holds what iteration k's ``stiefel_sample(d, d)``
    then ``stiefel_sample(d, r - d)`` would draw."""
    normals = generator.standard_normal((count, d * r))
    return (_stiefel_columns(normals[:, :d * d], d),
            _stiefel_columns(normals[:, d * d:], d) if r > d else None)


def _fixed_directions(state: SolverState, d: int, r: int,
                      config: SolverConfig, rng: RngStream):
    """This iteration's frame, its r - d extra directions (None when r = d)
    and the block to carry on, F-ordered.

    A state that carries no block draws one here: as many iterations as fit
    in ``_BLOCK_BYTES`` of normals, at least one, and no more than the
    config's iterations left. When no two iterations fit, every block is
    one iteration and its draw is on the critical path, so unless this is
    the config's last iteration the block carried on is the next
    iteration's draw as a :class:`_helpers.Task`, for :func:`iterate` to
    hand to a helper."""
    fit = _BLOCK_BYTES // (8 * d * r)
    if state._block is None:
        left = config.max_iterations - state.iteration
        block = _draw(rng.generator, d, r, max(1, min(fit, left)))
    else:
        block = state._block[1]
        if isinstance(block, _helpers.Task):
            block = block.result()
    frames, extras = block
    frame = DirectionSet._owned(frames[0].T, frame_size=d)
    extra = (None if extras is None
             else DirectionSet._owned(extras[0].T, frame_size=d))
    if len(frames) > 1:
        rest = (frames[1:], None if extras is None else extras[1:])
    elif fit <= 1 and state.iteration + 1 < config.max_iterations:
        rest = _helpers.Task(_draw, rng.generator, d, r, 1)
    else:
        return frame, extra, None
    return frame, extra, ((d, r), rest)


def iterate(state: SolverState, oracle: Oracle, config: SolverConfig,
            rng: RngStream) -> tuple[SolverState, TraceRecord]:
    """Run one solver iteration; returns the new state and its trace record.

    Budget exhaustion inside either probe phase propagates as
    :class:`BudgetExhaustedError`; :func:`iterations` catches it and marks
    the run stopped_budget. A first probe batch whose steps are lost to
    rounding at x (:func:`_steps_lost`) stops the run before any Hessian
    update. A gradient norm that is not finite, or a Hessian update that
    leaves the estimate not finite (as a non-finite value or second
    difference does), stops it before the floor test, the adaptive count
    and the step; so does a step whose length is not finite, which a
    direction or new iterate that is not finite gives (an eigensolver that
    fails gives a NaN direction). Each stops it as
    stopped_numerical at this iteration, with x and the state's estimate
    kept. The iteration computes under one error state that ignores every
    floating-point error, from the rounding test to the step, and calls the
    objective under the caller's; so a caller's ``np.errstate(all="raise")``
    raises nothing here.
    A direction policy that does not fit the oracle (a fixed r below d, an
    adaptive r_max below d or no L1), or a state carrying directions drawn
    for another (d, r) or policy, raises ``ValueError`` before any
    evaluation.

    Under a fixed policy ``rng`` is consumed in blocks of up to 64 KiB of
    normals, capped by ``config.max_iterations`` less the state's iteration;
    the iteration's sets are views of the block, and the returned state
    carries the rest of it. A block of one iteration is drawn an iteration
    ahead, possibly on a helper thread that is still drawing from ``rng``
    when this returns, and the returned state carries that pending draw. A
    draw that raised there raises here, in the next call. Pass the same
    stream to every call of a run, and draw nothing else from it.
    """
    _validate_run_inputs(oracle, config)
    if state.status != RUNNING:
        raise ValueError(f"cannot iterate a solver in status {state.status!r}")
    d = oracle.dimension
    policy = config.r_policy
    fixed = isinstance(policy, FixedDirections)
    if state._block is not None:
        drawn = state._block[0]
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
    if block is not None and isinstance(block[1], _helpers.Task):
        # Once the batch is done with the helpers, so that the draw runs
        # while this iteration updates and steps.
        _helpers.submit([block[1]])
    # One error state from the rounding test to the step: an overflow
    # anywhere shows as a non-finite norm, estimate, direction or iterate,
    # which ends the run. A non-finite value or second difference (a mu^2
    # that underflows to 0 included) leaves the updated estimate not
    # finite. Every other divisor in the block (2 mu, the clamped
    # eigenvalues) is positive, and an underflow only loses digits below
    # the smallest normal double. A second probe batch, an objective call,
    # runs under the caller's error state instead; its x and mu passed the
    # rounding test here. The frame is one full orthonormal basis, so the
    # gradient skips estimate_gradient's check.
    hess = state.hessian.copy()
    caller = None if fixed and extra is None else np.geterr()
    with np.errstate(all="ignore"):
        if _steps_lost(x, config.mu):
            return _numerical_stop(state, oracle.eval_count,
                                   probe.center_value, d)
        g = _gradient(probe.plus_values, probe.minus_values, probe.mu,
                      frame.vectors)
        g_norm = math.sqrt(g.dot(g))
        residuals = hess.apply_probe(frame, _second_difference(
            probe.plus_values, probe.center_value, probe.minus_values,
            probe.mu))
        if not (math.isfinite(g_norm) and np.isfinite(hess.matrix).all()):
            return _numerical_stop(state, oracle.eval_count,
                                   probe.center_value, d)

        # (ii) zeroth-order floor check, when the constants are known.
        if config.L2 is not None and config.m is not None:
            bound = _zo_floor_stop(g_norm, d, config.L2, config.mu,
                                   config.m)
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
            rho = math.sqrt(float(np.mean(residuals ** 2)))
            proxy = rho * math.sqrt(d * (d + 2) / 2.0)
            r_k = adaptive_direction_count(
                g_norm, d, config.L1,
                config.L2 if config.L2 is not None else 0.0, config.mu,
                update_rate_bound(d), proxy, policy.r_max)
            extra = stiefel_sample(d, r_k - d, rng) if r_k > d else None
        if extra is not None:
            with np.errstate(**caller):
                probe2 = oracle.probe_batch(x, extra, config.mu,
                                            center=probe.center_value)
            hess.apply_probe(extra, _second_difference(
                probe2.plus_values, probe2.center_value,
                probe2.minus_values, probe2.mu))
            if not np.isfinite(hess.matrix).all():
                return _numerical_stop(state, oracle.eval_count,
                                       probe.center_value, r_k)

        # (iv) clip, invert, step; SolverConfig has checked the bounds, and
        # the checks above let only a finite estimate through. After a
        # clipped step the direction starts from an eigendecomposition.
        direction, clipped = _newton_direction(
            hess.matrix, g, config.lambda_min, config.lambda_max,
            state._clipped)
        x_new = x - alpha * direction
        step = x_new - x
        step_norm = math.sqrt(step.dot(step))
    # x is finite (_steps_lost), so a finite step means a finite x_new and
    # direction.
    if not math.isfinite(step_norm):
        return _numerical_stop(state, oracle.eval_count,
                               probe.center_value, r_k)

    new_state = SolverState(
        x=x_new, hessian=hess, iteration=state.iteration + 1, status=RUNNING,
        _block=block, _clipped=clipped)
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
