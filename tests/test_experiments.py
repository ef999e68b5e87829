"""The rate and sampling gates in trial blocks against the per-trial loop.

The reference functions below are the gates written one trial at a time:
a fresh oracle and one probe batch per trial, then ``HessianEstimate``
updates. The blocked gates must agree with them within 1e-12 and charge
the same evaluations.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from zonewton import (
    HessianEstimate,
    Oracle,
    RngStream,
    directional_curvature,
    estimate_hessian,
    gaussian_sphere_sample,
    make_quadratic,
    random_spd,
    stiefel_sample,
)
from zonewton import experiments


@contextmanager
def created_oracles():
    """Collect every Oracle constructed inside the block."""
    created = []
    init = Oracle.__init__

    def registering_init(instance, *args, **kwargs):
        init(instance, *args, **kwargs)
        created.append(instance)

    Oracle.__init__ = registering_init
    try:
        yield created
    finally:
        Oracle.__init__ = init


def sequential_step_ratios(d, trials, seed, mu=1e-6, n_updates=15):
    a = random_spd(d, cond=3.0, rng=RngStream(seed))
    problem = make_quadratic(a, np.zeros(d))
    sq_errors = np.empty((trials, n_updates + 1))
    for t in range(trials):
        directions = gaussian_sphere_sample(d, n_updates,
                                            RngStream(seed + 1 + t))
        probe = problem.make_oracle().probe_batch(np.zeros(d), directions, mu)
        est = HessianEstimate.zero(d)
        sq_errors[t, 0] = np.linalg.norm(est.matrix - a) ** 2
        for k in range(n_updates):
            est.update(directions.vectors[k], directional_curvature(probe)[k])
            sq_errors[t, k + 1] = np.linalg.norm(est.matrix - a) ** 2
    mse = sq_errors.mean(axis=0)
    return mse[1:] / mse[:-1]


def sequential_sampling_errors(d, r, trials, seed, mu=1e-6):
    a = random_spd(d, cond=10.0, rng=RngStream(seed))
    problem = make_quadratic(a, np.zeros(d))
    errors = np.empty((2, trials))
    for t in range(trials):
        stream = RngStream(seed + 1 + t)
        for i, sampler in enumerate((stiefel_sample, gaussian_sphere_sample)):
            est, _ = estimate_hessian(problem.make_oracle(), np.zeros(d),
                                      sampler(d, r, stream), mu)
            errors[i, t] = np.linalg.norm(est.matrix - a)
    return errors


@pytest.mark.parametrize("d,trials", [(3, 400), (5, 450)])
def test_rate_gate_matches_per_trial_loop(d, trials):
    n_updates = 15
    block = experiments._block_trials(2 * n_updates + 1, d)
    assert trials > block and trials % block != 0
    with created_oracles() as created:
        report = experiments.rate_verification(d=d, trials=trials, seed=3)
    # the last oracle is the gate's; make_quadratic builds one before it to
    # check the problem's closed-form derivatives
    assert created[-1].eval_count == trials * (2 * n_updates + 1)
    want = sequential_step_ratios(d, trials, seed=3)
    np.testing.assert_allclose(report.step_ratios, want, rtol=0, atol=1e-12)
    assert report.max_ratio == pytest.approx(np.max(want), rel=1e-12)


@pytest.mark.parametrize("r", [20, 25])
def test_sampling_gate_matches_per_trial_loop(r):
    d, trials = 20, 45
    block = experiments._block_trials(2 * (2 * r + 1), d)
    assert trials > block and trials % block != 0
    with created_oracles() as created:
        report = experiments.sampling_comparison(d=d, r=r, trials=trials,
                                                 seed=5)
    # the gate's oracle charges each trial one probe batch per sampler
    assert created[-1].eval_count == trials * 2 * (2 * r + 1)
    stiefel, gauss = sequential_sampling_errors(d, r, trials, seed=5)
    got = [report.stiefel_mean, report.stiefel_stderr,
           report.gaussian_mean, report.gaussian_stderr]
    want = [stiefel.mean(), stiefel.std(ddof=1) / math.sqrt(trials),
            gauss.mean(), gauss.std(ddof=1) / math.sqrt(trials)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
