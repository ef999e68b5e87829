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

from .sampling import DirectionSet

__all__ = [
    "BudgetExhaustedError",
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
    all directions of the batch. ``fresh_evals`` is the number of evaluations
    this batch actually charged (2r+1, or 2r when a known center was reused).
    """

    center_value: float
    plus_values: np.ndarray
    minus_values: np.ndarray
    mu: float
    directions: DirectionSet
    fresh_evals: int

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


class Oracle:
    """Wraps ``f: R^d -> R`` behind an evaluation counter and optional budget.

    The counter increases by exactly one per scalar query and never decreases.
    Once ``eval_count == budget`` any further query raises
    :class:`BudgetExhaustedError` without incrementing the counter. The
    counter is lock-protected so parallel clients (see ``fedsim``) can share
    accounting; single-process flows may simply ignore the lock.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dimension: int,
                 budget: Optional[int] = None):
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive when set, got {budget}")
        self.fn = fn
        self.dimension = int(dimension)
        self.budget = None if budget is None else int(budget)
        self._count = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    def _charge(self, consumed_in_batch: int = 0):
        # Check-and-increment under the lock so the budget can never be
        # overrun by concurrent callers.
        with self._lock:
            if self.budget is not None and self._count >= self.budget:
                raise BudgetExhaustedError(
                    f"evaluation budget of {self.budget} exhausted",
                    consumed=consumed_in_batch,
                )
            self._count += 1

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {x.shape}, oracle expects ({self.dimension},)")
        return x

    def evaluate(self, x) -> float:
        """Return f(x), charging one evaluation."""
        x = self._check_point(x)
        self._charge()
        return float(self.fn(x))

    def probe_batch(self, x, directions: DirectionSet, mu: float,
                    center: Optional[float] = None) -> ProbeResult:
        """Evaluate f at x and at x +/- mu*u_j for every direction u_j.

        Charges exactly ``2r + 1`` evaluations; the center f(x) is queried
        once and shared across all r directions. Passing ``center`` (a known
        f(x) from an earlier batch at the same x) skips the center query so
        only ``2r`` evaluations are charged.

        On budget exhaustion mid-batch the partial results are discarded and
        the raised error's ``consumed`` attribute reports how many
        evaluations the batch charged before stopping.
        """
        if mu <= 0 or not np.isfinite(mu):
            raise ValueError(f"mu must be a positive finite real, got {mu}")
        x = self._check_point(x)
        if directions.dimension != self.dimension:
            raise ValueError(
                f"directions have dimension {directions.dimension}, "
                f"oracle expects {self.dimension}")
        r = directions.r
        plus = np.empty(r)
        minus = np.empty(r)
        start = self._count
        try:
            center_value = self.evaluate(x) if center is None else float(center)
            # x is checked once above, so the displaced points skip evaluate()
            for j, step in enumerate(mu * directions.vectors):
                self._charge()
                plus[j] = self.fn(x + step)
                self._charge()
                minus[j] = self.fn(x - step)
        except BudgetExhaustedError as exc:
            raise BudgetExhaustedError(
                str(exc), consumed=self._count - start) from None
        return ProbeResult(
            center_value=center_value,
            plus_values=plus,
            minus_values=minus,
            mu=float(mu),
            directions=directions,
            fresh_evals=self._count - start,
        )


def deterministic_fd_costs(d: int) -> tuple[int, int]:
    """Evaluation counts of the two deterministic finite-difference Hessians.

    Returns ``((d+1)(d+2)/2, 2d^2+1)``: the cost of the forward-difference
    scheme along the canonical basis and of the all-pairs symmetric-difference
    scheme.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    return (d + 1) * (d + 2) // 2, 2 * d * d + 1
