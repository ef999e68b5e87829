"""Test objectives with analytically known structure.

Every factory returns a :class:`ProblemSpec` whose ``known`` record carries
the minimizer, optimum value, closed-form derivatives, and the regularity
constants (strong convexity m, gradient Lipschitz L1, Hessian Lipschitz L2)
valid on the domain the factory's docstring states. The factories do not
re-check their own closed forms: the Tier-1 test suite runs
:func:`check_known_derivatives` on every built-in problem, which guards
against transcription errors without charging every construction its
10 (2d + 1) objective evaluations. Datasets hold their features as one dense
(samples, dimension) float array; the module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _helpers
from .estimators import directional_curvature, estimate_gradient
from .oracle import Objective, Oracle
from .sampling import (DirectionSet, RngStream, _check_count, _check_real,
                       stiefel_sample)

__all__ = [
    "Dataset",
    "KnownInfo",
    "ProblemSpec",
    "check_known_derivatives",
    "load_libsvm",
    "logistic_gap_objective",
    "logistic_objective",
    "make_cubic_box",
    "make_logistic",
    "make_quadratic",
    "make_synthetic_dataset",
    "quadratic_objective",
    "random_spd",
]

# A logistic batch forms its (points x samples) margins in row blocks, and
# its loss needs one scratch block of the same shape. Margins and scratch
# together take at most this many bytes per worker thread, so that a probe
# batch raises the peak memory by _helpers._WORKERS times this at most, not
# by the size of the whole margin matrix.
_BLOCK_BYTES = 1 << 20


@dataclass
class Dataset:
    """Binary-classification samples: labels in {-1, +1} and row features,
    stored as a dense (n, d) float array whatever the dimension.

    Feature indices are 1-based in LIBSVM files and 0-based in memory.
    """

    labels: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)
        if self.labels.ndim != 1 or len(self.labels) == 0:
            raise ValueError("labels must be a non-empty 1-d array")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d (samples, dimension) array")
        if self.features.shape[0] != len(self.labels):
            raise ValueError("features and labels disagree on the sample count")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.labels[indices], self.features[indices])


def load_libsvm(path, dimension: Optional[int] = None) -> Dataset:
    """Parse a LIBSVM-format text file: ``label index:value ...`` per line.

    Labels must parse to +1/-1; 0/1 labels are mapped to -1/+1. Indices are
    1-based and must be strictly increasing within a line; values must be
    finite. The feature dimension is the largest index seen unless
    ``dimension`` overrides it.
    """
    labels = []
    rows = []
    max_index = 0
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                raw = float(tokens[0])
            except ValueError:
                raise ValueError(
                    f"malformed label {tokens[0]!r} at line {lineno}") from None
            if raw in (1.0, -1.0):
                label = raw
            elif raw == 0.0:
                label = -1.0
            else:
                raise ValueError(
                    f"label {tokens[0]!r} at line {lineno} does not map to -1/+1")
            entries = []
            prev_index = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ValueError(
                        f"malformed feature {tok!r} at line {lineno}") from None
                if idx < 1:
                    raise ValueError(f"index {idx} below 1 at line {lineno}")
                if not np.isfinite(val):
                    raise ValueError(
                        f"non-finite feature {tok!r} at line {lineno}")
                if idx <= prev_index:
                    raise ValueError(f"non-increasing index at line {lineno}")
                prev_index = idx
                entries.append((idx - 1, val))
            max_index = max(max_index, prev_index)
            labels.append(label)
            rows.append(entries)
    if not labels:
        raise ValueError(f"no samples found in {path}")
    d = max_index if dimension is None else int(dimension)
    if d < max_index:
        raise ValueError(
            f"dimension override {d} is below the largest index {max_index}")
    features = np.zeros((len(labels), d))
    for i, entries in enumerate(rows):
        for j, val in entries:
            features[i, j] = val
    return Dataset(np.array(labels), features)


def make_synthetic_dataset(n: int, d: int, rng: RngStream,
                           scale: float = 1.0) -> Dataset:
    """Gaussian features with labels from a random linear rule plus noise."""
    _check_count("n", n)
    _check_count("d", d)
    _check_real("scale", scale)
    gen = rng.generator
    features = scale * gen.standard_normal((n, d))
    w_true = gen.standard_normal(d) / np.sqrt(d)
    margins = features @ w_true + 0.5 * gen.standard_normal(n)
    labels = np.where(margins >= 0, 1.0, -1.0)
    return Dataset(labels, features)


@dataclass
class KnownInfo:
    """Ground truth attached to a test problem."""

    x_star: np.ndarray
    f_star: float
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    m: Optional[float] = None
    L1: Optional[float] = None
    L2: Optional[float] = None


@dataclass
class ProblemSpec:
    dimension: int
    fn: Callable[[np.ndarray], float]
    known: KnownInfo
    name: str = "problem"

    def make_oracle(self, budget: Optional[int] = None) -> Oracle:
        return Oracle(self.fn, self.dimension, budget=budget)


def check_known_derivatives(problem: ProblemSpec, seed: int = 0,
                            n_points: int = 10, mu: float = 1e-5):
    """Cross-check closed-form gradient and Hessian diagonal against central
    differences at seeded random points; raises on disagreement."""
    known = problem.known
    gen = np.random.default_rng(seed)
    d = problem.dimension
    oracle = Oracle(problem.fn, d)
    identity = DirectionSet(np.eye(d), frame_size=d)
    for _ in range(n_points):
        x = gen.standard_normal(d) / np.sqrt(d)
        g_exact = np.asarray(known.gradient(x), dtype=float)
        probe = oracle.probe_batch(x, identity, mu)
        g_fd = estimate_gradient(probe)
        if not np.allclose(g_fd, g_exact, rtol=1e-4, atol=1e-6):
            raise ValueError(
                f"{problem.name}: closed-form gradient disagrees with finite "
                "differences")
        h_diag = np.diag(np.asarray(known.hessian(x), dtype=float))
        if not np.allclose(directional_curvature(probe), h_diag,
                           rtol=1e-3, atol=1e-5):
            raise ValueError(
                f"{problem.name}: closed-form Hessian diagonal disagrees "
                "with finite differences")


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def quadratic_objective(a: np.ndarray, b: np.ndarray) -> Objective:
    """f(x) = 1/2 x^T A x - b^T x."""

    def batch(points):
        return 0.5 * _rowdot(points @ a, points) - points @ b

    return Objective(batch)


def make_quadratic(a: np.ndarray, b: np.ndarray) -> ProblemSpec:
    """f(x) = 1/2 x^T A x - b^T x for symmetric positive-definite A.

    Known: x* = A^-1 b, m = lambda_min(A), L1 = lambda_max(A), L2 = 0 (the
    gradient estimator is exact on quadratics).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = len(b)
    if a.shape != (d, d):
        raise ValueError(f"A has shape {a.shape}, expected ({d}, {d})")
    if np.max(np.abs(a - a.T)) > 1e-10 * (1.0 + np.max(np.abs(a))):
        raise ValueError("A must be symmetric")
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0:
        raise ValueError(f"A must be positive definite (min eigenvalue {eigs[0]:.3e})")
    x_star = np.linalg.solve(a, b)
    fn = quadratic_objective(a, b)
    known = KnownInfo(
        x_star=x_star, f_star=fn(x_star),
        gradient=lambda x: a @ x - b,
        hessian=lambda x: a,
        m=float(eigs[0]), L1=float(eigs[-1]), L2=0.0)
    return ProblemSpec(d, fn, known, name="quadratic")


def make_cubic_box(d: int, box_radius: float) -> ProblemSpec:
    """Separable cubic f(x) = sum_i (x_i^3 / 3 + x_i^2 / 2) on the box
    ||x||_inf <= R.

    The per-coordinate third derivative is 2 everywhere, so L2 = 2 globally;
    on the box the Hessian diag(2 x_i + 1) gives L1 = 1 + 2R and
    m = 1 - 2R (reported only when positive). Minimizer x* = 0.
    """
    _check_count("d", d)
    _check_real("box_radius", box_radius)
    r = float(box_radius)

    def batch(points):
        return np.sum(points**3 / 3.0 + points**2 / 2.0, axis=1)

    m = 1.0 - 2.0 * r
    known = KnownInfo(
        x_star=np.zeros(d), f_star=0.0,
        gradient=lambda x: x**2 + x,
        hessian=lambda x: np.diag(2.0 * x + 1.0),
        m=m if m > 0 else None, L1=1.0 + 2.0 * r, L2=2.0)
    return ProblemSpec(d, Objective(batch), known, name="cubic_box")


def _block_rows(n: int) -> int:
    """Rows per block of a batch over n samples: two float blocks of this
    many rows, the margins and the loss scratch, fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (16 * n))


def _sample_sums(points: np.ndarray, dataset: Dataset, loss) -> np.ndarray:
    """For every row p of ``points``, the sum over samples i of
    loss(y_i a_i^T p), formed in row blocks of ``_block_rows(n)`` rows.

    A batch of one block (every ``fedsim`` client batch) forms its margins,
    labels, loss and row sums directly, with no block loop and nothing
    allocated ahead. A batch of more is cut at block boundaries into
    min(``_helpers._WORKERS``, blocks) runs of whole blocks: the calling
    thread runs the first, the package's helper threads the others, and the
    caller any run that no helper has started. Each run is one
    :func:`_block_sums` call, so its blocks are the serial batch's own and
    every value is bit for bit the serial one; each run allocates one pair
    of block buffers (``_BLOCK_BYTES``) in the thread that runs it and
    writes only its own sums. Every run goes under the caller's numpy error
    state, and the first exception a run raised, in run order, is re-raised
    once all runs are done.
    """
    n = len(dataset.labels)
    rows = _block_rows(n)
    if len(points) <= rows:
        z = points @ dataset.features.T
        z *= dataset.labels
        loss(z, np.empty_like(z))
        return z.sum(axis=1)
    sums = np.empty(len(points))
    blocks = -(-len(points) // rows)
    workers = min(_helpers._WORKERS, blocks)
    cuts = [rows * (blocks * k // workers) for k in range(workers + 1)]
    # a helper runs at numpy's default error state, not the caller's
    errstate = dict(np.geterr(), call=np.geterrcall())

    def work(k):
        run = slice(cuts[k], cuts[k + 1])
        # Allocated by the thread that runs the run: under glibc what a
        # thread frees stays in its own malloc arena, and a helper's arena
        # already keeps the room of the solver's direction draws. Allocated
        # by the caller, the buffers left logistic_d200's peak RSS 1.5 MB
        # higher.
        with np.errstate(**errstate):
            _block_sums(points[run], dataset, loss, rows, sums[run],
                        *np.empty((2, rows, n)))

    _helpers.run_all([_helpers.Task(work, k) for k in range(workers)])
    return sums


def _block_sums(points: np.ndarray, dataset: Dataset, loss, rows: int,
                sums: np.ndarray, buffer: np.ndarray, scratch: np.ndarray):
    """:func:`_sample_sums` in one thread, into ``sums``. The margins are
    formed in blocks of ``rows`` rows, in ``buffer``, and
    ``loss(z, scratch)`` maps a block in place, given ``scratch`` of the
    same shape."""
    features_t, labels = dataset.features.T, dataset.labels
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        z = buffer[:len(block)]
        np.matmul(block, features_t, out=z)
        z *= labels
        loss(z, scratch[:len(block)])
        z.sum(axis=1, out=sums[start:start + len(block)])


def _logistic_loss(z: np.ndarray, scratch: np.ndarray):
    """log(1 + exp(-z)), in place, as log1p(exp(-|z|)) + max(-z, 0).

    The stable softplus form that ``np.logaddexp(0, -z)`` evaluates one
    element at a time, here as six whole-array passes: -z into ``scratch``,
    min(-z, z) = -|z| into z, max(-z, 0) in ``scratch``, then exp, log1p
    and the sum in z. ``np.minimum`` and ``np.maximum`` propagate NaN, so a
    NaN margin gives a NaN loss. Every other value has the bits of the
    seven-pass max(-z, 0) + log1p(exp(-|z|)); a NaN's sign bit, which numpy
    leaves unspecified, can differ.
    """
    np.negative(z, out=scratch)
    np.minimum(scratch, z, out=z)
    np.maximum(scratch, 0.0, out=scratch)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    z += scratch


def logistic_objective(dataset: Dataset, ridge: float,
                       weight: float) -> Objective:
    """f(x) = weight * sum_i log(1 + exp(-y_i a_i^T x)) + (ridge/2) ||x||^2.

    Weight 1/n gives the full-dataset objective of :func:`make_logistic`;
    ``fedsim`` gives each client shard weight n_clients/N.
    """

    def batch(points):
        return (weight * _sample_sums(points, dataset, _logistic_loss)
                + 0.5 * ridge * _rowdot(points, points))

    return Objective(batch)


def _sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)), elementwise. For z below
    about -709 exp(-z) overflows to inf, which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logistic_parts(dataset: Dataset, ridge: float):
    x_mat = dataset.features
    y = dataset.labels
    n = dataset.n_samples
    fn = logistic_objective(dataset, ridge, 1.0 / n)

    def gradient(w):
        s = _sigmoid(-y * (x_mat @ w))
        return -(x_mat.T @ (y * s)) / n + ridge * w

    def hessian(w):
        s = _sigmoid(y * (x_mat @ w))
        weights = s * (1.0 - s) / n
        return (x_mat.T @ (weights[:, None] * x_mat)
                + ridge * np.eye(dataset.dimension))

    return fn, gradient, hessian


def _estimate_hessian_lipschitz(fn: Objective, d: int,
                                center: np.ndarray) -> float:
    """Empirical Hessian-Lipschitz constant from directional third differences.

    Samples 200 (x, u) pairs in the ball of radius 0.5 around ``center``,
    drawn from ``default_rng(20240501)``, and takes 1.5 times the largest
    third central difference at step h = 1e-2; for symmetric
    third-derivative tensors the directional form attains the operator norm,
    so this is a usable (not worst-case) estimate. Logged in the returned
    value only; callers should treat it as an estimate. Each sample draws u,
    then the offset of x; all 800 points are evaluated as one batch, written
    into one array, and the draws are freed before the batch runs.
    """
    radius, n_samples, h, seed = 0.5, 200, 1e-2, 20240501
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2, d))
    u = draws[:, 0]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = center + radius * draws[:, 1] / np.sqrt(d)
    points = np.empty((4, n_samples, d))
    for row, step in zip(points, (2 * h, h, -h, -2 * h)):
        np.multiply(u, step, out=row)
        row += x
    del draws, u, x
    values = fn.batch(points.reshape(4 * n_samples, d))
    f2, f1, m1, m2 = values.reshape(4, n_samples)
    third = (f2 - 2 * f1 + 2 * m1 - m2) / (2 * h**3)
    return 1.5 * float(np.max(np.abs(third)))


def _reference_minimizer(gradient, hessian, d: int) -> np.ndarray:
    """Deterministic Newton solve from the origin to ||grad|| <= 1e-13.

    Full steps on the closed-form Hessian, with no line search: near the
    minimizer f changes by less than its own rounding error, so a decrease
    test on f stalls there before the gradient reaches 1e-13.
    """
    x = np.zeros(d)
    for _ in range(100):
        g = gradient(x)
        if np.linalg.norm(g) <= 1e-13:
            return x
        x = x - np.linalg.solve(hessian(x), g)
    raise RuntimeError("reference minimizer failed to reach the target "
                       "gradient norm")


def make_logistic(dataset: Dataset, ridge: float) -> ProblemSpec:
    """Ridge-regularized logistic regression over a labeled dataset.

    f(x) = (1/n) sum_i log(1 + exp(-y_i a_i^T x)) + (ridge/2) ||x||^2.
    Known constants: m = ridge, L1 = ridge + (1/(4n)) sum ||a_i||^2; L2 is
    estimated numerically from directional third differences sampled in the
    ball of radius 0.5 around x* (an estimate, not an analytic bound). The
    minimizer is computed by a deterministic Newton solve on the closed-form
    Hessian to gradient norm <= 1e-13.
    """
    _check_real("ridge", ridge)
    d = dataset.dimension
    fn, gradient, hessian = _logistic_parts(dataset, ridge)
    sq_norms = np.sum(dataset.features**2, axis=1)
    L1 = ridge + float(np.sum(sq_norms)) / (4.0 * dataset.n_samples)
    x_star = _reference_minimizer(gradient, hessian, d)
    known = KnownInfo(
        x_star=x_star, f_star=fn(x_star), gradient=gradient, hessian=hessian,
        m=ridge, L1=L1, L2=_estimate_hessian_lipschitz(fn, d, x_star))
    return ProblemSpec(d, fn, known, name="logistic")


def logistic_gap_objective(dataset: Dataset, ridge: float,
                           x_star: np.ndarray) -> Objective:
    """Logistic objective evaluated as the gap f(x) - f(x_star), computed in
    a cancellation-free form.

    Near the optimum the raw objective is an O(1) constant plus a tiny gap,
    so second differences at very small mu drown in rounding error. This
    variant routes every intermediate through w = x - x_star (a
    difference-of-squares form for the ridge term, and for each sample's
    loss log(1 + t), t = sigma(-z*) (exp(a) - 1), at its margin shift a), so
    the returned values carry precision relative to the gap itself. Where
    log1p would lose digits or fail (t < -1/2, t infinite or NaN, or
    sigma(-z*) below the smallest normal double) the loss is the equal
    log(sigma(z*) + sigma(-z*) exp(a)), a logaddexp of log-sigmoids; a NaN
    margin still gives NaN. Same minimizer, derivatives, and regularity
    constants as the raw objective; its optimum value is exactly 0.
    """
    x_star = np.asarray(x_star, dtype=float)
    z_star = dataset.labels * (dataset.features @ x_star)
    s_star = _sigmoid(-z_star)
    # Below the smallest normal double sigma(-z*) carries few digits, or
    # none at 0, into t; NaN sends those samples to the fallback.
    s_star[s_star < np.finfo(float).tiny] = np.nan
    log_s_pos = -np.logaddexp(0.0, -z_star)
    log_s_neg = -np.logaddexp(0.0, z_star)

    def loss(dz, t):
        # a = -dz. t is inf where exp(a) overflows, and NaN for a NaN
        # margin or a marked sigma(-z*): each takes the fallback, and none
        # of them warns.
        with np.errstate(over="ignore", invalid="ignore"):
            np.negative(dz, out=dz)
            np.expm1(dz, out=t)
            t *= s_star
            if t.min() >= -0.5 and t.max() < np.inf:
                np.log1p(t, out=dz)
                return
            # flat indices: np.nonzero's (rows, cols) pair costs ten times
            # as much to build
            fallback = np.flatnonzero(~((t >= -0.5) & (t < np.inf)))
            cols = fallback % t.shape[1]
            a = dz.flat[fallback]
            t.flat[fallback] = 0.0
            np.log1p(t, out=dz)
            dz.flat[fallback] = np.logaddexp(log_s_pos[cols],
                                             a + log_s_neg[cols])

    def batch(points):
        w = points - x_star
        return (_sample_sums(w, dataset, loss) / dataset.n_samples
                + 0.5 * ridge * _rowdot(w, w + 2.0 * x_star))

    return Objective(batch)


def random_spd(d: int, cond: float, rng: RngStream) -> np.ndarray:
    """Random SPD matrix with spectrum linspace(1, cond, d) in a uniformly
    random orthonormal eigenbasis; lambda_min = 1 and lambda_max = cond."""
    _check_count("d", d)
    _check_real("cond", cond, 1)
    eigs = np.linspace(1.0, float(cond), d)
    q = stiefel_sample(d, d, rng).vectors.T  # columns orthonormal
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)  # exactly symmetric
