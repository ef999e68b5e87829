"""The package's one seam to LAPACK: the float64 loops of the gufuncs in
numpy 2's private ``numpy.linalg._umath_linalg`` that ``np.linalg`` runs,
called directly.

The solver's Newton step calls :func:`eigh`, :func:`cholesky` and
:func:`solve`, the gufuncs ``np.linalg.eigh``, ``np.linalg.cholesky`` and
``np.linalg.solve`` run on a float64 matrix (syevd, potrf and gesv). The
Stiefel sampler calls :func:`householder_q`, the two gufuncs
``np.linalg.qr`` runs (geqrf, then orgqr). Only ``np.linalg``'s per-call
wrapper goes (array conversion, type resolution, a nested error state,
``astype``, ``triu`` and ``wrap``), so every output is the same bits.

A failure (an eigensolver that does not converge, a matrix that is not
positive definite, a singular system) fills the output with NaN and
raises the floating-point error ``invalid`` under the caller's error
state, where ``np.linalg`` raises ``LinAlgError``. The errors of LAPACK's
own arithmetic (overflow, divide, underflow), which ``np.linalg`` ignores,
come under the caller's error state too. Nothing is checked: each argument
must be a float64 array of the right shape. tests/test_solver.py checks
the bits and the failures of the first three against ``np.linalg``, and
tests/test_sampling.py the Stiefel frames QR'd through the fourth, so a
numpy whose private module changes fails there.

Which calls keep the GIL. numpy's gufunc loop releases the GIL for a
``qr_r_raw`` or ``solve1`` call only when its outer iterations times the
core size of its output exceed :data:`GIL_FREE_SIZE` (500). That output
is min(m, n) reflector scalars for ``qr_r_raw`` and the d-vector x for
``solve1``, so a single call keeps the GIL below d = 501, and a stacked
geqrf of (B, d, d) frames releases it from B d > 500, one of (B, d, k)
extra directions, k < d, only from B k > 500. ``qr_reduced`` (output
m x n), ``cholesky_lo`` and ``eigh_lo`` released it at one matrix.
Measured with numpy 2.4.6 on a 2-CPU host: the main thread's median
overshoot of a 200 us sleep, the time it waits to take the GIL back,
while a helper thread loops a copy of the input (which releases the GIL)
and the call; median of three processes, against 60-77 us with the
helper idle.

===============  ==============  ==============  ===========
call             stack           outer x output  main thread
===============  ==============  ==============  ===========
``qr_r_raw``     (1, 100, 100)   100             89 us
``qr_r_raw``     (5, 100, 100)   500             1 045 us
``qr_r_raw``     (6, 100, 100)   600             60 us
``qr_r_raw``     (4, 125, 125)   500             1 605 us
``qr_r_raw``     (4, 126, 126)   504             59 us
``qr_r_raw``     (10, 50, 50)    500             330 us
``qr_r_raw``     (11, 50, 50)    550             58 us
``qr_r_raw``     (1, 200, 200)   200             737 us
``qr_r_raw``     (1, 501, 501)   501             63 us
``qr_r_raw``     (6, 100, 7)     42              85 us
``qr_r_raw``     (72, 100, 7)    504             61 us
``qr_reduced``   (1, 100, 7)     700             60 us
``qr_reduced``   (1, 100, 100)   10 000          59 us
``solve1``       (1, 100, 100)   100             100 us
``solve1``       (1, 200, 200)   200             136 us
``cholesky_lo``  (1, 100, 100)                   58 us
``cholesky_lo``  (1, 200, 200)                   57 us
``eigh_lo``      (1, 100, 100)                   58 us
``eigh_lo``      (1, 200, 200)                   57 us
===============  ==============  ==============  ===========

``BENCH_ahead_blocks.json`` holds every run.
"""

from __future__ import annotations

from numpy.linalg import _umath_linalg

# numpy's gufunc loop releases the GIL for a qr_r_raw or solve1 call only
# when the call's outer iterations times the core size of its output
# exceed this.
GIL_FREE_SIZE = 500


def eigh(h):
    """(w, q): the eigenvalues of h in ascending order and its eigenvectors
    as columns, from the lower triangle."""
    return _umath_linalg.eigh_lo(h, signature="d->dd")


def cholesky(a):
    """The lower Cholesky factor of a, from its lower triangle."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


def solve(h, g):
    """The solution of h x = g for a vector g."""
    return _umath_linalg.solve1(h, g, signature="dd->d")


def householder_q(a):
    """The Q factor of each matrix of a finite (..., m, n) stack ``a``,
    n <= m, as a new C-ordered (..., m, n) array: ``qr_r_raw`` (geqrf) in
    place on ``a``, then ``qr_reduced`` (orgqr). ``a`` is left holding
    what geqrf leaves, R on and above the diagonal; it may be a strided
    view."""
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    return _umath_linalg.qr_reduced(a, tau, signature="dd->d")
