"""Search-direction generation.

Two samplers produce unit-norm probe directions: orthonormal frames drawn
uniformly from the Stiefel manifold (the default, giving evenly spread
directions), and independent normalized Gaussians as a baseline for
comparison experiments. Both are driven by an explicitly seeded stream so
every draw is reproducible bit-for-bit.

Each sampler's formula is written once, as a private routine that
broadcasts over leading axes: ``_stiefel_columns`` turns rows of normals
into the columns of orthonormal frames (through ``_haar_frames``, one QR
call per frame shape) and ``_unit_rows`` normalises a stack of normal
rows. The Lemma 1, rate and sampling gates, and the solver under a fixed
direction count, apply them to a block of raw normals drawn from one
stream, and get exactly the directions that successive sampler calls on
that stream would give; such a caller consumes its stream a block ahead.
Every public number of the package is judged by one of the two checks
here, ``_check_count`` for counts and ``_check_real`` for reals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionSet",
    "RngStream",
    "gaussian_sphere_sample",
    "stiefel_sample",
]

_NORM_TOL = 1e-12
_ORTHO_TOL = 1e-10


def _check_count(name: str, value, minimum: int = 1):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    >= ``minimum``, numpy integers included."""
    try:
        if operator.index(value) >= minimum:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name: str, value, minimum=None):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite real
    > 0, or >= ``minimum`` when given, numpy floats included."""
    try:
        if (0 < value < np.inf if minimum is None
                else minimum <= value < np.inf):
            return
    except (TypeError, ValueError):
        pass
    bound = "positive" if minimum is None else f">= {minimum}"
    raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


class RngStream:
    """Seeded random stream (numpy PCG64).

    The same seed and call sequence reproduce identical draws on any
    platform.
    """

    def __init__(self, seed: int):
        _check_count("seed", seed, 0)
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


@dataclass(frozen=True)
class DirectionSet:
    """Ordered collection of r unit-norm d-vectors (rows of ``vectors``).

    The rows form consecutive orthonormal frames of ``frame_size`` rows,
    the last frame possibly shorter. Stiefel sets have ``frame_size`` d;
    ``frame_size`` 1 claims no orthogonality between directions, as for
    i.i.d. sphere draws.
    """

    vectors: np.ndarray
    frame_size: int = 1

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("vectors must be a non-empty (r, d) array")
        norms = np.linalg.norm(v, axis=1)
        # Both tests are written so that NaN fails them.
        if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"directions must be unit norm (worst deviation {worst:.3e})")
        k = self.frame_size
        _check_count("frame_size", k)
        if k > v.shape[1]:
            raise ValueError(f"frame_size={k} exceeds d={v.shape[1]}")
        if k > 1:
            for start in range(0, v.shape[0], k):
                frame = v[start:start + k]
                off = frame @ frame.T - np.eye(frame.shape[0])
                if not np.max(np.abs(off)) <= _ORTHO_TOL:
                    raise ValueError(
                        f"the frame at row {start} is not orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def _owned(cls, vectors: np.ndarray, frame_size: int) -> "DirectionSet":
        """A set over ``vectors``, which the caller hands over and built to be
        unit norm, in orthonormal frames of ``frame_size`` rows; the checks
        are skipped."""
        vectors.setflags(write=False)
        directions = object.__new__(cls)
        object.__setattr__(directions, "vectors", vectors)
        object.__setattr__(directions, "frame_size", frame_size)
        return directions

    @property
    def r(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def _haar_frames(normals: np.ndarray) -> np.ndarray:
    """Uniform orthonormal frames from a (..., d, k) stack of standard
    normals, k <= d: the Q factor of each matrix with each column signed by
    its diag(R) entry, which makes the frame Haar-distributed (Mezzadri
    2007, arXiv:math-ph/0609050). One QR call takes the whole stack; each
    matrix comes out exactly as it would alone.
    """
    q, r = np.linalg.qr(normals)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _unit_rows(normals: np.ndarray, generator) -> np.ndarray:
    """The rows of a (..., d) stack of standard normals scaled to unit norm,
    in place. Rows of norm 0 are first redrawn from ``generator``, all of
    them in one draw in C order, until none is left, as
    ``gaussian_sphere_sample`` redraws them. Returns ``normals``."""
    norms = np.linalg.norm(normals, axis=-1)
    while not norms.all():
        bad = norms == 0.0
        normals[bad] = generator.standard_normal(
            (np.count_nonzero(bad), normals.shape[-1]))
        norms = np.linalg.norm(normals, axis=-1)
    normals /= norms[..., None]
    return normals


def _stiefel_columns(normals: np.ndarray, d: int) -> np.ndarray:
    """The directions ``stiefel_sample(d, k)`` draws from each row of a
    (..., d*k) stack of standard normals, as the columns of a C-ordered
    (..., d, k) array: consecutive orthonormal frames of d columns, the last
    holding the remainder. One ``_haar_frames`` call per frame shape."""
    lead, k = normals.shape[:-1], normals.shape[-1] // d
    n_full, rem = divmod(k, d)
    split = n_full * d * d
    parts = []
    if n_full:
        full = _haar_frames(normals[..., :split].reshape(*lead, n_full, d, d))
        parts.append(np.moveaxis(full, -3, -2).reshape(*lead, d, n_full * d))
    if rem:
        parts.append(_haar_frames(normals[..., split:].reshape(*lead, d, rem)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def stiefel_sample(d: int, r: int, rng: RngStream) -> DirectionSet:
    """Draw r unit directions as columns of uniform Stiefel-manifold frames.

    For r <= d the result is a single orthonormal frame whose columns are
    each marginally uniform on the unit sphere. For r > d, ceil(r/d)
    independent frames are generated and concatenated in generation order,
    the last truncated to the remainder; orthogonality holds within each
    frame, which the set records as ``frame_size`` d.
    """
    _check_count("d", d)
    _check_count("r", r)
    columns = _stiefel_columns(rng.generator.standard_normal(d * r), d)
    return DirectionSet._owned(columns.T, frame_size=d)


def gaussian_sphere_sample(d: int, r: int, rng: RngStream) -> DirectionSet:
    """Draw r independent directions uniform on the unit sphere.

    Standard normal vectors divided by their norms; zero-norm draws (never
    seen in practice) are redrawn. The directions are not orthogonal, which
    is exactly what the sampling-comparison experiments contrast against
    :func:`stiefel_sample`; the set has ``frame_size`` 1.
    """
    _check_count("d", d)
    _check_count("r", r)
    gen = rng.generator
    vecs = _unit_rows(gen.standard_normal((r, d)), gen)
    return DirectionSet._owned(vecs, frame_size=1)
