"""The gates against reference versions written the plain way, and against
the faults they exist to catch.

The rate and sampling references are the gates written one trial at a
time: a fresh oracle and one probe batch per trial, then
``HessianEstimate`` updates. The blocked gates must agree with them within
1e-12 and charge the same evaluations. The linear-rate reference runs the
solver for all 2500 iterations and searches the trace for the first f-gap
at the floor; the gate, which stops there, must give an equal report.

The fault matrix plants one bug per gate and checks that the gate, which
passes on gate seed 1 without it, rejects it there.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from zonewton import (
    FixedDirections,
    HessianEstimate,
    Oracle,
    RngStream,
    SolverConfig,
    contraction_gamma,
    directional_curvature,
    estimate_gradient,
    estimate_hessian,
    gaussian_sphere_sample,
    make_quadratic,
    optimal_stepsize,
    random_spd,
    run,
    stiefel_sample,
)
from zonewton import estimators, experiments, solver
from zonewton.estimators import _rank_one, gradient_error_bound
from zonewton.solver import STOPPED_ZO_FLOOR, _newton_direction


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


def full_run_linear_report(seed, d=10, cond=100.0, mu=1e-6):
    problem_stream = RngStream(seed)
    a = random_spd(d, cond, problem_stream)
    b = problem_stream.generator.standard_normal(d)
    problem = make_quadratic(a, b)
    m, L1 = problem.known.m, problem.known.L1
    alpha = optimal_stepsize(m, L1)
    gamma_star = contraction_gamma(alpha, m, L1, m, L1)
    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(d), alpha=alpha, lambda_min=m,
        lambda_max=L1, max_iterations=2500, L1=L1, L2=0.0, m=m)
    v = problem_stream.generator.standard_normal(d)
    x0 = problem.known.x_star + v / np.linalg.norm(v)
    trace = run(x0, problem.make_oracle(), config, RngStream(seed + 1),
                f_star=problem.known.f_star)
    gaps = np.array([rec.f_gap for rec in trace.records])
    above = np.nonzero(gaps <= 1e-9)[0]
    iters_to_floor = int(above[0]) if len(above) else None
    last = iters_to_floor if iters_to_floor is not None else len(gaps) - 1
    ratios = gaps[1:last + 1] / gaps[:last]
    max_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    bound = (1.0 - gamma_star) + 1e-3
    return experiments.LinearRateReport(
        d=d, cond=cond, gamma_star=gamma_star, ratio_bound=bound,
        max_ratio=max_ratio, iterations_to_floor=iters_to_floor,
        passed=iters_to_floor is not None and max_ratio <= bound)


@pytest.mark.parametrize("d,trials", [(3, 400), (5, 450)])
def test_rate_gate_matches_per_trial_loop(d, trials):
    n_updates = 15
    block = experiments._block_trials(2 * n_updates + 1, d)
    assert trials > block and trials % block != 0
    with created_oracles() as created:
        report = experiments.rate_verification(d=d, trials=trials, seed=3)
    # the gate's one oracle charges each trial one probe batch
    assert len(created) == 1
    assert created[0].eval_count == trials * (2 * n_updates + 1)
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
    # the gate's one oracle charges each trial one probe batch per sampler
    assert len(created) == 1
    assert created[0].eval_count == trials * 2 * (2 * r + 1)
    stiefel, gauss = sequential_sampling_errors(d, r, trials, seed=5)
    got = [report.stiefel_mean, report.stiefel_stderr,
           report.gaussian_mean, report.gaussian_stderr]
    want = [stiefel.mean(), stiefel.std(ddof=1) / math.sqrt(trials),
            gauss.mean(), gauss.std(ddof=1) / math.sqrt(trials)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kwargs", [{}, {"d": 30, "cond": 10.0},
                                    {"cond": 1e4}],
                         ids=["defaults", "d30_cond10", "cond1e4"])
def test_linear_gate_stops_at_the_floor_with_the_full_run_report(kwargs):
    with created_oracles() as created:
        report = experiments.linear_rate_verification(seed=3, **kwargs)
    assert report == full_run_linear_report(seed=3, **kwargs)
    # the gate's one oracle charges one 2d+1 batch per iteration it ran:
    # up to the floor, or the 2500-iteration guard when it is not reached
    d = report.d
    iterations = (2500 if report.iterations_to_floor is None
                  else report.iterations_to_floor + 1)
    assert len(created) == 1
    assert created[0].eval_count == iterations * (2 * d + 1)


@pytest.mark.parametrize("seed", [100 * k + 1 for k in range(20)])
def test_stopping_gate_passes_on_the_sweep_seeds(seed):
    # the gate seeds 100k + 1 that the verify_gates benchmark sweeps for
    # the five gates with a command; this gate has none
    report = experiments.stopping_criterion_check(seed=seed)
    assert report.passed, report.lines()[0]
    assert report.status == STOPPED_ZO_FLOOR


def _flipped_rank_one(h, u, c):
    # H - (c - u^T H u) u u^T: the correction subtracted instead of added
    uhu = (u[..., None, :] @ h @ u[..., None])[..., 0, 0]
    return _rank_one(h, u, 2.0 * uhu - c)


def _frozen_frame_update(h, v, c):
    # the residuals of a frame update, with H left as it was
    return c - np.sum((v @ h) * v, axis=-1)


def _scaled_floor(*args):
    return 100.0 * gradient_error_bound(*args)


def _ascent_direction(*args):
    direction, clipped = _newton_direction(*args)
    return -direction, clipped


# gate -> (its planted faults as (module, name, replacement), the verdict)
FAULT_MATRIX = {
    "rate": (experiments.rate_verification,
             [(experiments, "_rank_one", _flipped_rank_one)], "FAIL"),
    "lemma1": (experiments.gradient_bound_verification,
               [(experiments, "estimate_gradient",
                 lambda probe: 1.5 * estimate_gradient(probe))], "FAIL"),
    "sampling": (experiments.sampling_comparison,
                 [(experiments, "stiefel_sample", gaussian_sphere_sample)],
                 "FAIL"),
    # the floor constant is defined once and imported by both modules
    "stopping": (experiments.stopping_criterion_check,
                 [(solver, "gradient_error_bound", _scaled_floor),
                  (experiments, "gradient_error_bound", _scaled_floor)],
                 "FAIL"),
    "quadratic": (experiments.quadratic_rate_verification,
                  [(estimators, "_frame_update", _frozen_frame_update)],
                  "FAIL"),
    # the f-gap grows until the run ends stopped_numerical, which the CLI
    # reports with exit code 3
    "linear": (experiments.linear_rate_verification,
               [(solver, "_newton_direction", _ascent_direction)],
               "FloatingPointError"),
}


def _verdict(gate):
    try:
        report = gate(seed=1)
    except FloatingPointError:
        return "FloatingPointError"
    return "PASS" if report.passed else "FAIL"


@pytest.mark.parametrize("name", list(FAULT_MATRIX))
def test_gate_rejects_the_fault_it_exists_to_catch(name, monkeypatch):
    gate, faults, verdict = FAULT_MATRIX[name]
    assert _verdict(gate) == "PASS"
    for module, attribute, replacement in faults:
        monkeypatch.setattr(module, attribute, replacement)
    assert _verdict(gate) == verdict
