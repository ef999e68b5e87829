"""Zeroth-order derivative estimators.

The Hessian estimate is built incrementally: each probed direction u
contributes a rank-one correction H <- H + (c - u^T H u) u u^T, where c is
the central-difference curvature along u, so that after the update the
estimate matches the probed curvature exactly along u. In expectation (over
directions uniform on the sphere) the squared Frobenius error contracts by
eta = 1 - 2/(d^2 + 2d) per update, and the recursion can be warm-started
from the previous iterate's estimate.

A probe batch along a Stiefel set is applied one orthonormal frame at a
time, each frame as one symmetrised block update; sets of i.i.d.
directions are applied one rank-one update at a time. Both formulas are
written once, as the private routines ``_rank_one`` and ``_frame_update``,
which broadcast over leading axes: the verification gates apply them to a
stack of one estimate per trial, and :class:`HessianEstimate` to a single
d x d matrix.

The gradient is estimated along the first frame of d orthonormal probe
directions by central differences, reusing the Hessian probe values at no
extra evaluation cost, with deterministic error at most d * L2 * mu^2 / 6
for an L2-Hessian-Lipschitz objective. Its formula is written once too, as
the broadcasting ``_gradient``, which the Lemma 1 gate applies to a stack
of probe batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import Oracle, ProbeResult
from .sampling import DirectionSet, _check_count, _check_real

__all__ = [
    "HessianEstimate",
    "directional_curvature",
    "estimate_gradient",
    "estimate_hessian",
    "gradient_error_bound",
    "update_rate_bound",
]

_UNIT_TOL = 1e-10


@dataclass
class HessianEstimate:
    """Symmetric d x d curvature estimate, corrected in place by rank-one
    updates.

    ``matrix`` stays exactly symmetric: every update adds a scalar multiple
    of u u^T, and a block update adds a symmetrised increment.
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise ValueError("initial Hessian estimate must be finite")
        if not np.array_equal(self.matrix, self.matrix.T):
            raise ValueError("initial Hessian estimate must be symmetric")

    @classmethod
    def zero(cls, d: int) -> "HessianEstimate":
        _check_count("d", d)
        return cls(np.zeros((d, d)))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def copy(self) -> "HessianEstimate":
        """A copy with its own matrix. A copy of a valid estimate is valid,
        so unlike the constructor it re-runs no checks."""
        clone = object.__new__(HessianEstimate)
        clone.matrix = self.matrix.copy()
        return clone

    def update(self, u, curvature: float) -> float:
        """Apply H <- H + (curvature - u^T H u) u u^T for a unit direction u
        and return the residual curvature - u^T H u it corrected.

        Raises if u is not unit norm: silent normalization would rescale the
        probed curvature and corrupt the estimator's contraction rate, so the
        caller must normalize explicitly.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dimension,):
            raise ValueError(f"direction has shape {u.shape}, expected ({self.dimension},)")
        nrm = np.linalg.norm(u)
        # written so that a NaN norm fails too
        if not abs(nrm - 1.0) <= _UNIT_TOL:
            raise ValueError(f"direction must be unit norm, got ||u|| = {nrm!r}")
        return float(_rank_one(self.matrix, u, float(curvature)))

    def apply_probe(self, directions: DirectionSet,
                    curvatures: np.ndarray) -> np.ndarray:
        """Apply the r rank-one updates of a probe batch, given its
        directions and its second differences c_j
        (:func:`directional_curvature`), in direction order, and return
        their residuals c_j - u_j^T H u_j.

        Within an orthonormal frame the updates do not interact: update j
        leaves u_k^T H u_k unchanged for every other k of the frame. So
        every residual of a frame can be taken from the H the frame starts
        from, and its updates are one block H + V^T diag(residuals) V, with
        the frame's directions as the rows of V. The frames are applied in
        order. A set with ``frame_size`` 1 is applied one :meth:`update` at
        a time.
        """
        v = directions.vectors
        k = directions.frame_size
        if k == 1:
            return np.array([self.update(u, c) for u, c in zip(v, curvatures)])
        if len(v) == k:
            return _frame_update(self.matrix, v, curvatures)
        return np.concatenate([
            _frame_update(self.matrix, v[start:start + k],
                          curvatures[start:start + k])
            for start in range(0, len(v), k)])


def _rank_one(h, u, c):
    """H <- H + (c - u^T H u) u u^T in place, for every index of the leading
    axes; returns the residuals c - u^T H u.

    ``h`` is (..., d, d), ``u`` (..., d) with unit rows and ``c`` (...); the
    leading axes broadcast as in numpy. Nothing is checked.
    """
    residual = c - (u[..., None, :] @ h @ u[..., None])[..., 0, 0]
    h += (u[..., :, None] * u[..., None, :]) * residual[..., None, None]
    return residual


def _frame_update(h, v, c):
    """Apply one orthonormal frame of updates to H as the symmetrised block
    H + V^T diag(c - diag(V H V^T)) V, in place, for every index of the
    leading axes; returns the residuals c - diag(V H V^T).

    ``h`` is (..., d, d), ``v`` (..., k, d) with orthonormal rows and ``c``
    (..., k). Nothing is checked.
    """
    residual = c - ((v @ h) * v).sum(axis=-1)
    increment = (v.swapaxes(-1, -2) * residual[..., None, :]) @ v
    h += 0.5 * (increment + increment.swapaxes(-1, -2))
    return residual


def directional_curvature(probe: ProbeResult) -> np.ndarray:
    """Second central differences (f+ - 2 f0 + f-) / mu^2, one per probed
    direction, in direction order (:func:`_second_difference`). A
    non-finite result (an overflow, a non-finite value, or mu^2
    underflowing to 0) comes without a warning, for the caller to test with
    ``np.isfinite``."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _second_difference(probe.plus_values, probe.center_value,
                                  probe.minus_values, probe.mu)


def _second_difference(plus, center, minus, mu):
    """(plus - 2 center + minus) / mu^2, elementwise, under the caller's
    error state. mu^2 is a numpy float64 power: the value Python's
    ``mu**2`` gives, but an overflow gives inf instead of raising
    ``OverflowError``. Nothing is checked."""
    return (plus - 2.0 * center + minus) / np.float64(mu) ** 2


def estimate_hessian(oracle: Oracle, x, directions: DirectionSet, mu: float,
                     warm_start: Optional[HessianEstimate] = None,
                     ) -> tuple[HessianEstimate, ProbeResult]:
    """Probe all directions in one batch and apply the rank-one updates.

    Starts from ``warm_start`` (copied, the input is left untouched) or the
    zero matrix, consumes exactly 2r+1 evaluations, and applies the r updates
    in direction order (:meth:`HessianEstimate.apply_probe`). Returns the
    probe as well so the gradient estimator can reuse the same function
    values for free.
    """
    if warm_start is None:
        est = HessianEstimate.zero(oracle.dimension)
    else:
        if warm_start.dimension != oracle.dimension:
            raise ValueError("warm start dimension does not match the oracle")
        est = warm_start.copy()
    probe = oracle.probe_batch(x, directions, mu)
    est.apply_probe(directions, directional_curvature(probe))
    return est, probe


def estimate_gradient(probe: ProbeResult) -> np.ndarray:
    """Gradient from the first frame of a probe batch, d orthonormal
    directions.

    g = sum_j (f(x + mu u_j) - f(x - mu u_j)) / (2 mu) * u_j over the
    orthonormal basis u_1..u_d. Consumes zero additional evaluations. Raises
    unless the probe's direction set is made of frames of d directions
    (``frame_size`` d) and holds at least d of them; the caller must then
    probe a Stiefel set with r at least d.
    """
    ds = probe.directions
    d = ds.dimension
    if ds.frame_size != d or ds.r < d:
        raise ValueError(
            "gradient reuse needs a full orthonormal basis: probe along at "
            f"least d={d} directions in orthonormal frames of d (got "
            f"r={ds.r}, frame_size={ds.frame_size})")
    return _gradient(probe.plus_values[:d], probe.minus_values[:d],
                     probe.mu, ds.vectors[:d])


def _gradient(plus, minus, mu, v):
    """sum_j (plus_j - minus_j) / (2 mu) u_j for every index of the leading
    axes.

    ``plus`` and ``minus`` are (..., d), ``mu`` a scalar or (..., 1) and
    ``v`` (..., d, d) with orthonormal rows u_j; the leading axes broadcast
    as in numpy. Nothing is checked.
    """
    coeffs = (plus - minus) / (2.0 * mu)
    return (coeffs[..., None, :] @ v)[..., 0, :]


def update_rate_bound(d: int) -> float:
    """Expected per-update contraction factor of the squared Frobenius error.

    For directions uniform on the unit sphere the incremental update
    satisfies E||H_k - A||_F^2 <= (1 - 2/(d^2 + 2d)) ||H_{k-1} - A||_F^2.
    """
    _check_count("d", d)
    return 1.0 - 2.0 / (d * d + 2.0 * d)


def gradient_error_bound(d: int, L2: float, mu: float) -> float:
    """Deterministic bound d * L2 * mu^2 / 6 on the gradient estimate error.

    Valid for any orthonormal probe basis when the objective's Hessian is
    L2-Lipschitz; quadratics (L2 = 0) are estimated exactly.
    """
    _check_count("d", d)
    _check_real("L2", L2, 0)
    _check_real("mu", mu)
    return _gradient_error_bound(d, L2, mu)


def _gradient_error_bound(d: int, L2: float, mu: float) -> float:
    """:func:`gradient_error_bound` without its checks, for a caller whose
    d, L2 and mu are already checked."""
    return d * L2 * mu * mu / 6.0
