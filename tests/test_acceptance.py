"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from zonewton import (
    AdaptiveDirections,
    FixedDirections,
    HessianEstimate,
    Oracle,
    RngStream,
    SolverConfig,
    estimate_gradient,
    make_quadratic,
    random_spd,
    run,
    stiefel_sample,
)
from zonewton import experiments
from zonewton.cli import main
from zonewton.fedsim import federated_run
from zonewton.solver import STOPPED_ZO_FLOOR
from tests.test_fedsim import quadratic_clients


def _report(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_criterion_1_matching_property():
    """10^4 random rank-one updates match the probed curvature exactly."""
    gen = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        d = int(gen.integers(1, 9))
        h = gen.standard_normal((d, d))
        est = HessianEstimate(h + h.T)
        u = gen.standard_normal(d)
        u /= np.linalg.norm(u)
        c = float(10.0 * gen.standard_normal())
        est.update(u, c)
        worst = max(worst, abs(float(u @ est.matrix @ u) - c) / (1.0 + abs(c)))
    passed = worst <= 1e-9
    _report("matching property", passed, f"worst relative residual {worst:.2e}")
    assert passed


@pytest.mark.parametrize("d", [3, 5, 8])
def test_criterion_2_update_contraction_rate(d):
    """Per-update MSE contraction stays below 1 - 2/(d^2+2d) (+2% slack)."""
    report = experiments.rate_verification(d=d, trials=2000, seed=7, mu=1e-6)
    _report(f"update rate d={d}", report.passed, report.lines()[0])
    assert report.passed


def test_criterion_3_gradient_error_bound():
    """Deterministic gradient bound on the cubic box: zero violations."""
    report = experiments.gradient_bound_verification(seed=3, d=4,
                                                     n_points=100)
    _report("gradient error bound", report.passed, report.lines()[0])
    assert report.passed


def test_criterion_4_evaluation_accounting():
    """Every iteration costs exactly 2 r_k + 1 oracle calls over a
    50-iteration run; the gradient estimate is free."""
    d = 6
    problem = make_quadratic(random_spd(d, 30.0, RngStream(4)), np.ones(d))
    known = problem.known
    oracle = problem.make_oracle()
    config = SolverConfig(
        mu=1e-6, r_policy=AdaptiveDirections(r_max=40),
        lambda_min=known.m, lambda_max=known.L1, max_iterations=50,
        L1=known.L1, m=known.m)
    trace = run(2.0 * np.ones(d), oracle, config, RngStream(5))
    assert len(trace.records) == 50
    evals = [rec.evals for rec in trace.records]
    deltas_ok = all(rec.evals - prev == 2 * rec.r_used + 1
                    for prev, rec in zip([0] + evals, trace.records))
    assert trace.records[-1].evals == oracle.eval_count

    # gradient reuse: estimating g from a probe consumes nothing
    probe_oracle = problem.make_oracle()
    basis = stiefel_sample(d, d, RngStream(6))
    probe = probe_oracle.probe_batch(np.zeros(d), basis, 1e-6)
    before = probe_oracle.eval_count
    estimate_gradient(probe)
    gradient_free = probe_oracle.eval_count == before

    passed = deltas_ok and gradient_free
    _report("evaluation accounting", passed,
            f"50 iterations, total evals {oracle.eval_count}, "
            f"gradient extra evals {probe_oracle.eval_count - before}")
    assert passed


def test_criterion_5_global_linear_rate():
    """f-gap contraction within 1 - gamma* down to the 1e-9 floor
    on a conditioned quadratic with the rate-optimal stepsize."""
    report = experiments.linear_rate_verification(seed=11, d=10, cond=100.0,
                                                  mu=1e-6)
    _report("global linear rate", report.passed, report.lines()[0])
    assert report.passed


def test_criterion_6_local_quadratic_rate():
    """Quadratic error contraction window and the per-iteration local bound
    on regularized logistic regression with r = d^2, mu = 1e-7."""
    report = experiments.quadratic_rate_verification(seed=0)
    _report("local quadratic rate", report.passed, report.lines()[1])
    assert report.passed
    assert report.window_length >= 3
    assert report.bound_violations == 0


def test_criterion_7_stopping_criterion():
    """The solver stops once ||g|| falls to the estimator's error floor, and
    the iterate is then within d L2 mu^2 / (3 m) of the true minimizer."""
    report = experiments.stopping_criterion_check(seed=9)
    _report("stopping criterion", report.passed, report.lines()[0])
    assert report.passed
    assert report.status == STOPPED_ZO_FLOOR


def test_criterion_8_stiefel_vs_gaussian():
    """Stiefel frames beat independent sphere directions by at least 5% in
    mean Frobenius error at d = r = 20."""
    report = experiments.sampling_comparison(d=20, r=20, trials=200, seed=13)
    _report("stiefel advantage", report.passed, report.lines()[0])
    assert report.passed


def test_criterion_9_federated_equivalence():
    """Federated and centralized runs agree to 1e-10 at every iteration on a
    partitioned quadratic; uploads are n (2r+1) scalars per round."""
    d, n, r = 6, 5, 8
    clients, problem, mean_fn = quadratic_clients(n, d, seed=21)
    known = problem.known
    config = SolverConfig(mu=1e-5, r_policy=FixedDirections(r),
                          lambda_min=known.m, lambda_max=known.L1,
                          max_iterations=25, L1=known.L1, L2=0.0, m=known.m)
    x0 = np.ones(d)
    central = run(x0, Oracle(mean_fn, d), config, RngStream(22))
    fed = federated_run(x0, clients, config, RngStream(22))
    assert len(central.records) == len(fed.records) == 25
    worst = max(
        float(np.linalg.norm(rc.x - rf.x))
        for rc, rf in zip(central.records, fed.records))
    worst = max(worst, float(np.linalg.norm(central.x_final - fed.x_final)))
    uploads_ok = all(rec.up_scalars == n * (2 * r + 1) for rec in fed.records)
    passed = worst <= 1e-10 and uploads_ok
    _report("federated equivalence", passed,
            f"max iterate gap {worst:.2e}, uploads/round "
            f"{fed.records[0].up_scalars} = n(2r+1)")
    assert passed


def test_criterion_10_fd_cost_formulas(capsys):
    """The costs subcommand reproduces both deterministic FD counts."""
    expected = {1: (3, 3), 4: (15, 33), 10: (66, 201)}
    ok = True
    for d, (fwd, sym) in expected.items():
        assert main(["costs", "--d", str(d)]) == 0
        out = capsys.readouterr().out.strip()
        ok = ok and out == f"forward={fwd} symmetric={sym}"
    with capsys.disabled():
        _report("fd cost formulas", ok, "d in {1, 4, 10} exact")
    assert ok
