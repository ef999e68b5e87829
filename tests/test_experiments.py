"""The gates against reference versions written the plain way, and against
the faults they exist to catch.

The rate and sampling references are the gates written one trial at a
time: public sampler calls, trial after trial, on one stream, a fresh
oracle and one probe batch per trial, then ``HessianEstimate`` updates.
The blocked gates must agree with them within 1e-12 and charge the same
evaluations. The directions the rate, sampling and Lemma 1 gates
normalise or orthonormalise a block at a time must be exactly the public
samplers' draws, the Lemma 1 gate's worst ratio exactly that of
``estimate_gradient`` on one probe per point, and its allocation peak must
not grow with the point count. The
linear-rate reference runs the solver for all 2500 iterations and searches
the trace for the first f-gap at the floor; the gate, which stops there,
must give an equal report. The quadratic-rate reference likewise runs all
25 iterations, applies the gate's formulas to the whole run and cuts the
errors after the first at the floor; the gate, which stops there, must
give an equal report.

The fault matrix plants one bug per gate and checks that the gate, which
passes on gate seed 1 without it, rejects it there. The quadratic gate's
window search is checked on hand-built error sequences. Every report's
line must be its fields, every float in it reading back bit for bit.
"""

import dataclasses
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from zonewton import (
    FixedDirections,
    HessianEstimate,
    Objective,
    Oracle,
    RngStream,
    SolverConfig,
    SolverState,
    contraction_gamma,
    directional_curvature,
    estimate_gradient,
    estimate_hessian,
    gaussian_sphere_sample,
    iterate,
    make_cubic_box,
    make_quadratic,
    optimal_stepsize,
    random_spd,
    run,
    stiefel_sample,
)
from zonewton import estimators, experiments, solver
from zonewton.estimators import _gradient, _rank_one, gradient_error_bound
from zonewton.solver import RUNNING, STOPPED_ZO_FLOOR, _newton_direction


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
    stream = RngStream(seed + 1)
    for t in range(trials):
        directions = gaussian_sphere_sample(d, n_updates, stream)
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
    stream = RngStream(seed + 1)
    for t in range(trials):
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
    trace = run(x0, problem.make_oracle(), config, RngStream(seed + 1))
    gaps = np.array([rec.f_value - problem.known.f_star
                     for rec in trace.records])
    above = np.nonzero(gaps <= 1e-9)[0]
    iters_to_floor = int(above[0]) if len(above) else None
    last = iters_to_floor if iters_to_floor is not None else len(gaps) - 1
    ratios = gaps[1:last + 1] / gaps[:last]
    max_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    bound = 1.0 - gamma_star
    return experiments.LinearRateReport(
        d=d, cond=cond, gamma_star=gamma_star, ratio_bound=bound,
        max_ratio=max_ratio, iterations_to_floor=iters_to_floor,
        passed=iters_to_floor is not None and max_ratio <= bound)


def full_run_quadratic_report(seed):
    n, d, ridge, mu, lambda_min = 200, 10, 0.1, 1e-7, 0.01
    data = experiments.make_synthetic_dataset(n, d, RngStream(seed),
                                              scale=2.0)
    known = experiments.make_logistic(data, ridge).known
    oracle = Oracle(
        experiments.logistic_gap_objective(data, ridge, known.x_star), d)
    u = RngStream(seed + 1).generator.standard_normal(d)
    x0 = known.x_star + 0.1 * u / np.linalg.norm(u)
    config = SolverConfig(
        mu=mu, r_policy=FixedDirections(4 * d * d), alpha=1.0,
        lambda_min=lambda_min, lambda_max=1e4, max_iterations=25,
        L1=known.L1)
    state, rng = SolverState.initial(x0, d), RngStream(seed + 2)
    records, spec = [], []
    for _ in range(25):
        state, record = iterate(state, oracle, config, rng)
        assert state.status == RUNNING
        records.append(record)
        spec.append(np.linalg.norm(
            state.hessian.matrix - known.hessian(record.x), 2))
    errors = np.array([np.linalg.norm(rec.x - known.x_star)
                       for rec in records]
                      + [np.linalg.norm(state.x - known.x_star)])
    floor = max(d * known.L2 * mu * mu / (3.0 * known.m),
                10.0 * 1e-13 / known.m)
    k_bound = (known.L2 + 2.0) / (2.0 * lambda_min)
    measurable = [not rec.clipped and errors[k] > floor
                  and errors[k + 1] > floor for k, rec in enumerate(records)]
    qualifies = [ok and errors[k + 1] < errors[k]
                 and errors[k + 1] <= k_bound * errors[k] * errors[k]
                 for k, ok in enumerate(measurable)]
    start, length, fitted_k = experiments._quadratic_window(errors,
                                                            qualifies)
    violations = sum(
        errors[k + 1] > (known.L2 / (2.0 * lambda_min) * errors[k] ** 2
                         + spec[k] / lambda_min * errors[k]
                         + d * known.L2 * mu * mu / (6.0 * lambda_min))
        * (1.0 + 1e-10)
        for k in range(25) if measurable[k])
    checks = sum(measurable)
    at_floor = np.nonzero(errors <= floor)[0]
    if len(at_floor):
        errors = errors[:at_floor[0] + 1]
    return experiments.QuadraticRateReport(
        errors=errors, window_start=start, window_length=length,
        fitted_K=fitted_k, K_bound=k_bound, bound_checks=checks,
        bound_violations=violations,
        passed=start is not None and violations == 0 and checks > 0)


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


def _spy(monkeypatch, name):
    """Record the arguments of every call the gates make to the
    experiments-module function ``name``."""
    calls = []
    real = getattr(experiments, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, name, spy)
    return calls


def test_rate_gate_directions_are_the_sphere_sampler_draws(monkeypatch):
    d, trials, seed = 3, 400, 8
    calls = _spy(monkeypatch, "_origin_curvatures")
    experiments.rate_verification(d=d, trials=trials, seed=seed)
    got = np.concatenate([vectors for _, vectors, _, _ in calls])
    stream = RngStream(seed + 1)
    want = [gaussian_sphere_sample(d, 15, stream).vectors
            for _ in range(trials)]
    assert len(calls) > 1
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("r", [20, 25])
def test_sampling_gate_directions_are_the_sampler_draws(monkeypatch, r):
    d, trials, seed = 20, 45, 9
    calls = _spy(monkeypatch, "_origin_curvatures")
    experiments.sampling_comparison(d=d, r=r, trials=trials, seed=seed)
    got = np.concatenate([vectors for _, vectors, _, _ in calls])
    stream = RngStream(seed + 1)
    want = [sampler(d, r, stream).vectors for _ in range(trials)
            for sampler in (stiefel_sample, gaussian_sphere_sample)]
    assert len(calls) > 1
    np.testing.assert_array_equal(got, want)


def test_lemma1_gate_probes_the_points_and_bases_drawn_one_at_a_time(
        monkeypatch):
    d, n_points, seed = 20, 30, 4
    calls = _spy(monkeypatch, "_probe_values")
    experiments.gradient_bound_verification(seed=seed, d=d, n_points=n_points)
    assert len(calls) > 1
    centers = np.concatenate([c for _, c, _ in calls])
    steps = np.concatenate([st for _, _, st in calls])
    stream, gen = RngStream(seed), np.random.default_rng(seed + 777)
    want_centers, want_steps = [], []
    for mu in (1e-1, 1e-2, 1e-3):
        for _ in range(n_points):
            want_centers.append(gen.uniform(-1.0, 1.0, size=d))
            want_steps.append(mu * stiefel_sample(d, d, stream).vectors)
    np.testing.assert_array_equal(centers, want_centers)
    np.testing.assert_array_equal(steps, want_steps)


def _peak_bytes(gate, **kwargs):
    tracemalloc.start()
    try:
        gate(**kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lemma1_gate_allocation_peak_does_not_grow_with_the_points():
    # 300 and 3000 probe batches, both several blocks; all points' bases
    # drawn at once would take 3000 * 20 * 20 * 8 bytes = 9.6 MB
    d = 20
    assert experiments._block_trials(2 * d + 1, d) < 300
    gate = experiments.gradient_bound_verification
    small = _peak_bytes(gate, seed=1, d=d, n_points=100)
    large = _peak_bytes(gate, seed=1, d=d, n_points=1000)
    assert large < 2 * small


def test_lemma1_gate_reads_the_gradient_estimate_of_each_probe():
    # the gate's worst ratio, from one probe per point and estimate_gradient
    d, n_points, seed = 4, 20, 6
    problem = experiments.make_cubic_box(d, 1.0)
    stream, gen = RngStream(seed), np.random.default_rng(seed + 777)
    worst = 0.0
    for mu in (1e-1, 1e-2, 1e-3):
        bound = gradient_error_bound(d, 2.0, mu)
        for _ in range(n_points):
            x = gen.uniform(-1.0, 1.0, size=d)
            probe = problem.make_oracle().probe_batch(
                x, stiefel_sample(d, d, stream), mu)
            exact = problem.known.gradient(x)
            err = np.linalg.norm(exact - estimate_gradient(probe))
            worst = max(worst, err / (bound + 1e-12 * (
                1.0 + np.linalg.norm(exact))))
    report = experiments.gradient_bound_verification(
        seed=seed, d=d, n_points=n_points)
    assert report.worst_slack == worst


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1, 2, 159])
def test_quadratic_gate_stops_at_the_floor_with_the_full_run_report(seed):
    # gate seed 159 FAILed with r = d^2 directions per iteration
    with created_oracles() as created:
        report = experiments.quadratic_rate_verification(seed=seed)
    want = full_run_quadratic_report(seed)
    got, want = vars(report).copy(), vars(want).copy()
    np.testing.assert_array_equal(got.pop("errors"), want.pop("errors"),
                                  strict=True)
    assert got == want
    assert report.passed
    # the gate's one oracle charges one 2r+1 batch per iteration it ran,
    # with r = 4d^2
    d = 10
    assert len(created) == 1
    assert (created[0].eval_count
            == (len(report.errors) - 1) * (2 * 4 * d * d + 1))


@pytest.mark.parametrize("seed", [100 * k + 1 for k in range(20)])
def test_stopping_gate_passes_on_the_sweep_seeds(seed):
    # the gate seeds 100k + 1 that the verify_gates benchmark sweeps for
    # the five gates with a command; this gate has none
    report = experiments.stopping_criterion_check(seed=seed)
    assert report.passed, report.lines()[0]
    assert report.status == STOPPED_ZO_FLOOR


def test_stopping_gate_raises_when_its_run_ends_numerical(monkeypatch):
    # a cubic box whose every value is NaN ends the run stopped_numerical
    def nan_box(d, box_radius):
        problem = make_cubic_box(d, box_radius)
        problem.fn = Objective(lambda points: np.full(len(points), np.nan))
        return problem

    monkeypatch.setattr(experiments, "make_cubic_box", nan_box)
    with pytest.raises(FloatingPointError,
                       match="stopping_criterion_check: the run ended "
                             "stopped_numerical after 1 iterations "
                             "at mu=0.001"):
        experiments.stopping_criterion_check(seed=1)


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


def _unorthogonal_columns(normals, d):
    # each column of d normals scaled to unit norm, not orthogonalised: the
    # sphere sampler's directions in the Stiefel sampler's layout
    columns = normals.reshape(*normals.shape[:-1], -1, d).swapaxes(-1, -2)
    return columns / np.linalg.norm(columns, axis=-2, keepdims=True)


def _short_direction(*args):
    direction, clipped = _newton_direction(*args)
    return 0.95 * direction, clipped


# gate -> (its planted faults as (module, name, replacement), the verdict)
FAULT_MATRIX = {
    "rate": (experiments.rate_verification,
             [(experiments, "_rank_one", _flipped_rank_one)], "FAIL"),
    "lemma1": (experiments.gradient_bound_verification,
               [(experiments, "_gradient",
                 lambda *args: 1.5 * _gradient(*args))], "FAIL"),
    "sampling": (experiments.sampling_comparison,
                 [(experiments, "_stiefel_columns", _unorthogonal_columns)],
                 "FAIL"),
    # the floor constant is defined once and imported by both modules
    "stopping": (experiments.stopping_criterion_check,
                 [(solver, "gradient_error_bound", _scaled_floor),
                  (experiments, "gradient_error_bound", _scaled_floor)],
                 "FAIL"),
    # the run ends stopped_numerical, which the CLI reports with exit code 3
    "quadratic": (experiments.quadratic_rate_verification,
                  [(estimators, "_frame_update", _frozen_frame_update)],
                  "FloatingPointError"),
    # a Newton step 5 % short contracts only linearly near x*
    "quadratic_step": (experiments.quadratic_rate_verification,
                       [(solver, "_newton_direction", _short_direction)],
                       "FAIL"),
    # the f-gap grows until the run ends stopped_numerical, as above
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


def _errors_from_ratios(ratios, e0=0.1):
    # e_0 = e0 and e_{k+1} = ratios[k] * e_k
    return e0 * np.cumprod([1.0] + list(ratios))


def test_quadratic_window_rejects_a_flat_geometric_sequence():
    # every pair qualifies, but the contraction never sharpens
    errors = 0.1 * 0.5 ** np.arange(8)
    assert experiments._quadratic_window(errors, [True] * 7) == (None, 0, None)


def test_quadratic_window_on_a_quadratic_sequence():
    # e_{k+1} = 5 e_k^2 from e_0 = 0.1: ratios 0.5, 0.25, 0.0625, ...
    errors = [0.1]
    for _ in range(4):
        errors.append(5.0 * errors[-1] ** 2)
    start, length, fitted_k = experiments._quadratic_window(
        np.array(errors), [True] * 4)
    assert (start, length) == (0, 4)
    assert fitted_k == pytest.approx(5.0, rel=1e-12)


def test_quadratic_window_picks_the_earlier_of_equal_windows():
    errors = _errors_from_ratios([0.5, 0.25, 0.1, 1.0, 0.5, 0.25, 0.1])
    qualifies = [True, True, True, False, True, True, True]
    start, length, fitted_k = experiments._quadratic_window(errors, qualifies)
    assert (start, length) == (0, 3)
    assert fitted_k == max(errors[k + 1] / errors[k] ** 2 for k in range(3))


def test_quadratic_window_prefers_a_longer_later_window():
    errors = _errors_from_ratios([0.5, 0.25, 0.1, 1.0, 0.5, 0.4, 0.3, 0.1])
    qualifies = [True, True, True, False, True, True, True, True]
    start, length, fitted_k = experiments._quadratic_window(errors, qualifies)
    assert (start, length) == (4, 4)
    assert fitted_k == max(errors[k + 1] / errors[k] ** 2
                           for k in range(4, 8))


# Each gate at a small setting; a single direction is distribution-identical
# under both samplers, so "sampling_r1" FAILs.
SMALL_REPORTS = {
    "rate": lambda: experiments.rate_verification(d=3, trials=100, seed=1),
    "lemma1": lambda: experiments.gradient_bound_verification(seed=1,
                                                              n_points=10),
    "linear": lambda: experiments.linear_rate_verification(seed=1, d=3,
                                                           cond=10.0),
    "quadratic": lambda: experiments.quadratic_rate_verification(seed=1),
    "sampling": lambda: experiments.sampling_comparison(d=5, r=5, trials=30,
                                                        seed=1),
    "sampling_r1": lambda: experiments.sampling_comparison(d=5, r=1,
                                                           trials=30, seed=1),
    "stopping": lambda: experiments.stopping_criterion_check(seed=1),
}


def _same_text(text, value):
    """Whether ``text`` is ``value`` as a report line prints it: a float
    bit for bit (NaN where it is NaN), a sequence element by element."""
    if isinstance(value, (np.ndarray, tuple, list)):
        items = text[1:-1].split(",") if len(value) else []
        return (text[0] + text[-1] == "[]" and len(items) == len(value)
                and all(map(_same_text, items, value)))
    if isinstance(value, (float, np.floating)):
        return float(text).hex() == float(value).hex()
    return text == str(value)


@pytest.mark.parametrize("gate", list(SMALL_REPORTS))
def test_report_line_is_its_fields(gate):
    report = SMALL_REPORTS[gate]()
    assert report.passed == (gate != "sampling_r1")
    [line] = report.lines()
    *pairs, verdict = line.split(" ")
    assert verdict == ("PASS" if report.passed else "FAIL")
    names = [f.name for f in dataclasses.fields(report) if f.name != "passed"]
    assert [pair.split("=", 1)[0] for pair in pairs] == names
    for pair, name in zip(pairs, names):
        assert _same_text(pair.split("=", 1)[1], getattr(report, name)), name


def test_report_line_prints_nan_signed_zero_and_none_exactly():
    report = dataclasses.replace(
        SMALL_REPORTS["sampling"](), ratio=math.nan, z=-0.0,
        stiefel_mean=np.float32(0.1))
    assert " ratio=nan " in report.lines()[0]
    assert " z=-0.0 " in report.lines()[0]
    # a numpy float32 prints as the double it widens to
    assert f" stiefel_mean={float(np.float32(0.1))!r} " in report.lines()[0]
    quadratic = dataclasses.replace(SMALL_REPORTS["quadratic"](),
                                    window_start=None, fitted_K=None,
                                    errors=np.array([]))
    assert quadratic.lines()[0].startswith(
        "errors=[] window_start=None ")
    assert " fitted_K=None " in quadratic.lines()[0]
