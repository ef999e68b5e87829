"""Black-box objective oracle with exact evaluation accounting.

Every scalar function query is charged to a thread-safe counter, optionally
capped by a budget. Symmetric probe batches (the raw material for both the
gradient and Hessian estimators) evaluate the center point once and the 2r
displaced points x +/- mu*u_j, so one batch costs exactly 2r+1 evaluations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sampling import DirectionSet, _check_count, _check_real

__all__ = [
    "BudgetExhaustedError",
    "Objective",
    "Oracle",
    "ProbeResult",
    "deterministic_fd_costs",
]


class BudgetExhaustedError(RuntimeError):
    """Raised when an evaluation is requested after the budget is spent.

    ``consumed`` reports how many evaluations the interrupted probe batch had
    already charged; the partial batch itself is discarded so estimators never
    see incomplete probes.
    """

    def __init__(self, message: str, consumed: int = 0):
        super().__init__(message)
        self.consumed = consumed


@dataclass
class ProbeResult:
    """Function values from one symmetric probe batch around a center point.

    ``plus_values[j]`` and ``minus_values[j]`` are f(x + mu*u_j) and
    f(x - mu*u_j) for the j-th direction; ``center_value`` is f(x), shared by
    all directions of the batch.
    """

    center_value: float
    plus_values: np.ndarray
    minus_values: np.ndarray
    mu: float
    directions: DirectionSet

    def __post_init__(self):
        self.plus_values = np.asarray(self.plus_values, dtype=float)
        self.minus_values = np.asarray(self.minus_values, dtype=float)
        if self.plus_values.shape != self.minus_values.shape:
            raise ValueError("plus/minus value arrays must have equal length")
        if len(self.plus_values) != self.directions.r:
            raise ValueError("probe values must match the direction count")

    @property
    def r(self) -> int:
        return len(self.plus_values)


class Objective:
    """A scalar objective written once, in its batch form.

    ``batch(points)`` maps an (m, d) array of points to their m values.
    Calling the objective on one point x returns ``batch(x[None])[0]``, so
    both forms share one formula. :class:`Oracle` evaluates a probe batch
    with a single ``batch`` call.
    """

    def __init__(self, batch: Callable[[np.ndarray], np.ndarray]):
        self.batch = batch

    def __call__(self, x) -> float:
        return float(self.batch(np.asarray(x, dtype=float)[None])[0])


def _pointwise(fn: Callable[[np.ndarray], float]):
    """The batch form of a plain callable: one call per point, in row
    order."""

    def batch(points: np.ndarray) -> np.ndarray:
        return np.fromiter(map(fn, points), dtype=float, count=len(points))

    return batch


class Oracle:
    """Wraps ``f: R^d -> R`` behind an evaluation counter and optional budget.

    If ``fn`` has a ``batch`` attribute, ``fn.batch(points)`` must map an
    (m, d) array of points to their m values; the oracle then evaluates a
    whole probe batch in one call. A plain callable is evaluated one point
    at a time. Either way every point is charged the same.

    The counter increases by exactly one per scalar query and never decreases.
    Once ``eval_count == budget`` any further query raises
    :class:`BudgetExhaustedError` without incrementing the counter. The
    counter is lock-protected so parallel clients (see ``fedsim``) can share
    accounting; single-process flows may simply ignore the lock.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dimension: int,
                 budget: Optional[int] = None):
        _check_count("dimension", dimension)
        if budget is not None:
            _check_count("budget", budget)
        self.fn = fn
        self._batch = getattr(fn, "batch", None) or _pointwise(fn)
        self.dimension = int(dimension)
        self.budget = None if budget is None else int(budget)
        self._count = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    def evaluate_points(self, points) -> np.ndarray:
        """Charge and evaluate the rows of an (m, d) array ``points`` in
        order; every query of the oracle goes through here.

        The whole batch is charged in one locked step, so the budget can
        never be overrun by concurrent callers. When the budget allows only
        a prefix of the rows, that prefix is charged and evaluated, and the
        raised error's ``consumed`` is its length. ``points`` are read as a
        float array first, so any array-like of numbers will do; points
        that are not numbers, or of another shape, raise ``ValueError``, the
        latter naming it, before anything is charged.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(f"points have shape {points.shape}, oracle "
                             f"expects (m, {self.dimension})")
        with self._lock:
            allowed = len(points)
            if self.budget is not None:
                allowed = min(allowed, self.budget - self._count)
            self._count += allowed
        if allowed < len(points):
            if allowed:
                self._batch(points[:allowed])
            raise BudgetExhaustedError(
                f"evaluation budget of {self.budget} exhausted",
                consumed=allowed)
        return self._batch(points)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {x.shape}, oracle expects ({self.dimension},)")
        return x

    def evaluate(self, x) -> float:
        """Return f(x), charging one evaluation."""
        x = self._check_point(x)
        return float(self.evaluate_points(x[None])[0])

    def probe_batch(self, x, directions: DirectionSet, mu: float,
                    center: Optional[float] = None) -> ProbeResult:
        """Evaluate f at x and at x +/- mu*u_j for every direction u_j.

        Charges exactly ``2r + 1`` evaluations; the center f(x) is queried
        once and shared across all r directions. Passing ``center`` (a known
        f(x) from an earlier batch at the same x) skips the center query so
        only ``2r`` evaluations are charged.

        The points are the rows of one matrix, ordered x (unless ``center``
        is given), x + mu*u_1, x - mu*u_1, x + mu*u_2, ...; they are charged
        and evaluated together. On budget exhaustion mid-batch only the
        leading points the budget allows are charged and evaluated, the
        partial results are discarded, and the raised error's ``consumed``
        attribute reports how many evaluations the batch charged.

        The objective's output is checked here: it is read as a float array
        and must hold one value per point, else ``ValueError`` names its
        shape. The ``ProbeResult`` is then built by its public constructor,
        whose checks the arrays pass.
        """
        _check_real("mu", mu)
        x = self._check_point(x)
        if directions.dimension != self.dimension:
            raise ValueError(
                f"directions have dimension {directions.dimension}, "
                f"oracle expects {self.dimension}")
        points = _probe_points(x, mu * directions.vectors, center is None)
        values = np.asarray(self.evaluate_points(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(
                f"the objective returned values of shape {values.shape} for "
                f"points of shape {points.shape}; expected ({len(points)},)")
        centers, plus, minus = _probe_sides(values, center is None)
        return ProbeResult(
            center_value=float(centers[0] if center is None else center),
            plus_values=plus,
            minus_values=minus,
            mu=float(mu),
            directions=directions,
        )


def _probe_points(x: np.ndarray, steps: np.ndarray,
                  with_center: bool = True) -> np.ndarray:
    """The points of a probe batch as the rows of one matrix: x (if
    ``with_center``), x + s_1, x - s_1, x + s_2, ... for the rows s_j of
    ``steps`` (k, d). A stack of batches broadcasts over the leading axes:
    ``x`` (..., d) and ``steps`` (..., k, d) give (..., 2k + 1, d).
    """
    first = 1 if with_center else 0
    *lead, k, d = steps.shape
    points = np.empty((*lead, 2 * k + first, d))
    if with_center:
        points[..., 0, :] = x
    rows = x[..., None, :]
    np.add(rows, steps, out=points[..., first::2, :])
    np.subtract(rows, steps, out=points[..., first + 1::2, :])
    return points


def _probe_sides(values: np.ndarray, with_center: bool = True):
    """The inverse of :func:`_probe_points` on the points' values
    (..., 2k + 1), or (..., 2k) without a center: the views (center
    (..., 1) or (..., 0), plus (..., k), minus (..., k)) of f(x),
    f(x + s_j) and f(x - s_j)."""
    first = 1 if with_center else 0
    return (values[..., :first], values[..., first::2],
            values[..., first + 1::2])


def deterministic_fd_costs(d: int) -> tuple[int, int]:
    """Evaluation counts of the two deterministic finite-difference Hessians.

    Returns ``((d+1)(d+2)/2, 2d^2+1)``: the cost of the forward-difference
    scheme along the canonical basis and of the all-pairs symmetric-difference
    scheme.
    """
    _check_count("d", d)
    return (d + 1) * (d + 2) // 2, 2 * d * d + 1
