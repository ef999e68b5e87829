"""The four workloads: inputs made from the seed, one solve, and its checks.

Each workload has ``setup(timed)`` (build the problem), ``reference(built)``
(untimed, once per run: the benchmark's own ground truth and the start
point), ``solve(built, ref, dir_seed, timed)`` (one solve) and
``check(built, ref, out)`` (untimed: compare the solve with the reference and
return its evaluation count and layer counts). Only what a workload passes
through ``timed(fn, *args)`` is timed. A failed check raises
`Mismatch`. ``warm_solve`` says whether the untimed warm-up includes a solve:
where one solve takes seconds, first-call costs are a small share of it and
the time is better spent on timed repeats. ``setup_probe`` names the probe
that set-up times are rescaled by (see ``run.py``).

Everything that is compared is computed here with plain numpy, apart from
zonewton: the logistic minimizer by Newton's method on the closed-form
derivatives, the quadratic minimizer by ``np.linalg.solve``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from zonewton import experiments, fedsim, oracle, problems, sampling, solver

RIDGE = 0.1


def child_env():
    """The environment for a child interpreter that imports zonewton from
    this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class Mismatch(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _require(ok, message):
    if not ok:
        raise Mismatch(message)


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _logistic_value(features, labels, ridge, x):
    z = labels * (features @ x)
    return float(np.mean(np.logaddexp(0.0, -z))) + 0.5 * ridge * float(x @ x)


def _logistic_minimizer(features, labels, ridge):
    """Newton's method on the closed-form gradient and Hessian, to a gradient
    norm of 1e-12."""
    n, d = features.shape
    x = np.zeros(d)
    for _ in range(50):
        z = labels * (features @ x)
        grad = -(features.T @ (labels * _sigmoid(-z))) / n + ridge * x
        if np.linalg.norm(grad) <= 1e-12:
            return x
        s = _sigmoid(z)
        hess = ((features.T * (s * (1.0 - s) / n)) @ features
                + ridge * np.eye(d))
        x = x - np.linalg.solve(hess, grad)
    raise Mismatch("reference Newton solve did not reach gradient norm 1e-12")


def _check_evals(evals, records):
    charged = sum(2 * rec.r_used + 1 for rec in records)
    _require(evals == charged,
             f"evaluations {evals} != sum(2 r_k + 1) = {charged}")


def _check_zo_stop(trace, ref, known, d, mu):
    _require(trace.status == solver.STOPPED_ZO_FLOOR,
             f"solve ended {trace.status}, expected {solver.STOPPED_ZO_FLOOR}")
    guarantee = d * known.L2 * mu * mu / (3.0 * known.m)
    err = float(np.linalg.norm(trace.x_final - ref.x_star))
    _require(err <= guarantee,
             f"||x - x*|| = {err:.3e} exceeds d L2 mu^2 / (3m) = "
             f"{guarantee:.3e}")


class Logistic:
    """Centralized ridge logistic regression, run to the zeroth-order stop.

    The step is the local Newton step (alpha = 1) with the spectrum clipped to
    [m, L1]; the rate-optimal global step m / L1 = 0.002 would need thousands
    of iterations. ``mu`` puts the stop threshold d L2 mu^2 / 6 midway (on a
    log scale) between the gradient norms of two consecutive iterations, so
    the stop iteration does not flip between direction seeds.
    """

    n = 2000
    d = 200
    mu = 1.3e-3
    dir_seeds = 2
    setups_per_round = 1
    setup_probe = "host"
    warm_solve = False

    def __init__(self, seed):
        self.seed = seed

    def _build(self):
        data = problems.make_synthetic_dataset(self.n, self.d,
                                               sampling.RngStream(self.seed))
        return SimpleNamespace(data=data,
                               problem=problems.make_logistic(data, RIDGE))

    def setup(self, timed):
        return timed(self._build)

    def reference(self, built):
        data, known = built.data, built.problem.known
        x_star = _logistic_minimizer(data.features, data.labels, RIDGE)
        # Both points have gradient norm <= 1e-12 and m = 0.1, so they lie
        # within 2e-11 of the true minimizer.
        _require(np.linalg.norm(x_star - known.x_star) <= 1e-9,
                 "known.x_star disagrees with the reference minimizer")
        return SimpleNamespace(x_star=x_star)

    def config(self, known):
        return solver.SolverConfig(
            mu=self.mu, r_policy=solver.FixedDirections(self.d), alpha=1.0,
            lambda_min=known.m, lambda_max=known.L1, max_iterations=100,
            L1=known.L1, L2=known.L2, m=known.m)

    def solve(self, built, ref, dir_seed, timed):
        problem = built.problem
        counted = problem.make_oracle()
        trace = timed(solver.run, np.zeros(self.d), counted,
                      self.config(problem.known), sampling.RngStream(dir_seed))
        return SimpleNamespace(oracle=counted, trace=trace)

    def check(self, built, ref, out):
        _check_zo_stop(out.trace, ref, built.problem.known, self.d, self.mu)
        _check_evals(out.oracle.eval_count, out.trace.records)
        return out.oracle.eval_count, {}


class FedLogistic(Logistic):
    """The logistic problem at d = 20 split over 50 clients (iid shuffle).

    ``mu`` is placed as for the centralized workload.
    """

    d = 20
    mu = 1.35e-3
    n_clients = 50
    dir_seeds = 4
    setups_per_round = 1
    warm_solve = True

    def _build(self):
        built = super()._build()
        built.clients = fedsim.partition_dataset(
            built.data, fedsim.FederationConfig(self.n_clients),
            sampling.RngStream(self.seed + 1), ridge=RIDGE)
        return built

    def reference(self, built):
        ref = super().reference(built)
        data = built.data
        gen = np.random.default_rng([self.seed, 1])
        for _ in range(5):
            x = ref.x_star + gen.standard_normal(self.d) / np.sqrt(self.d)
            full = _logistic_value(data.features, data.labels, RIDGE, x)
            values = [c.oracle.fn(x) for c in built.clients]
            mean = sum(values) / len(values)
            _require(abs(mean - full) <= 1e-12 * max(1.0, abs(full)),
                     f"client mean {mean!r} != full objective {full!r}")
        return ref

    def solve(self, built, ref, dir_seed, timed):
        before = [c.oracle.eval_count for c in built.clients]
        trace = timed(fedsim.federated_run, np.zeros(self.d), built.clients,
                      self.config(built.problem.known),
                      sampling.RngStream(dir_seed))
        return SimpleNamespace(trace=trace, before=before)

    def check(self, built, ref, out):
        trace = out.trace
        n = self.n_clients
        _check_zo_stop(trace, ref, built.problem.known, self.d, self.mu)
        evals = trace.total_evals
        _check_evals(evals, trace.records)
        for rec in trace.records:
            scalars = 2 * rec.r_used + 1
            _require(rec.up_scalars == n * scalars,
                     f"iteration {rec.iteration} uploads {rec.up_scalars}")
            _require(rec.down_scalars == scalars * self.d,
                     f"iteration {rec.iteration} downloads {rec.down_scalars}")
        # The clients' own counters, not the trace's arithmetic: each client
        # evaluation uploads one scalar, and each point a client evaluates
        # reaches it as d scalars of the broadcast.
        spent = [after - before for after, before in
                 zip(trace.extra["client_eval_counts"], out.before)]
        client_evals = sum(spent)
        _require(client_evals == n * evals,
                 f"clients spent {client_evals}, expected {n} x {evals}")
        _require(len(set(spent)) == 1,
                 f"clients evaluated unequal numbers of points: {set(spent)}")
        up = sum(r.up_scalars for r in trace.records)
        down = sum(r.down_scalars for r in trace.records)
        _require(up == client_evals,
                 f"{up} scalars uploaded, clients evaluated {client_evals}")
        _require(down == spent[0] * self.d,
                 f"{down} scalars downloaded, each client evaluated "
                 f"{spent[0]} points of dimension {self.d}")
        return evals, {
            "fedsim.client_evals": client_evals,
            "fedsim.up_scalars": up,
            "fedsim.down_scalars": down,
        }


class Quadratic:
    """Random SPD quadratic, d = 100, spectrum linspace(1, 100), the default
    step m / L1, run until the f-gap is 0.3 of its starting value.

    The start error has norm 1, spread equally over the eigenvectors of A
    with seeded signs: the iterations to the target then depend on the
    solver, not on how a random start happens to align with the spectrum.
    """

    d = 100
    cond = 100.0
    mu = 1e-5
    target = 0.3
    max_iterations = 1000
    dir_seeds = 4
    setups_per_round = 10
    setup_probe = "host"
    warm_solve = True

    def __init__(self, seed):
        self.seed = seed

    def _build(self):
        stream = sampling.RngStream(self.seed)
        a = problems.random_spd(self.d, self.cond, stream)
        b = stream.generator.standard_normal(self.d)
        return SimpleNamespace(a=a, b=b, problem=problems.make_quadratic(a, b))

    def setup(self, timed):
        return timed(self._build)

    def reference(self, built):
        a = built.a
        x_star = np.linalg.solve(a, built.b)
        _require(np.linalg.norm(x_star - built.problem.known.x_star)
                 <= 1e-10 * (1.0 + np.linalg.norm(x_star)),
                 "known.x_star disagrees with np.linalg.solve")
        _, q = np.linalg.eigh(a)
        signs = np.random.default_rng([self.seed, 2]).choice([-1.0, 1.0],
                                                             self.d)
        err0 = q @ signs / np.sqrt(self.d)
        gap0 = 0.5 * float(err0 @ a @ err0)
        return SimpleNamespace(x_star=x_star, x0=x_star + err0,
                               gap_target=self.target * gap0)

    def solve(self, built, ref, dir_seed, timed):
        return timed(self._solve, built, ref, dir_seed)

    def _solve(self, built, ref, dir_seed):
        known = built.problem.known
        config = solver.SolverConfig(
            mu=self.mu, r_policy=solver.FixedDirections(self.d),
            lambda_min=known.m, lambda_max=known.L1,
            max_iterations=self.max_iterations,
            L1=known.L1, L2=known.L2, m=known.m)
        counted = built.problem.make_oracle()
        rng = sampling.RngStream(dir_seed)
        state = solver.SolverState.initial(ref.x0, self.d)
        records = []
        gap = np.inf
        while (state.status == solver.RUNNING
               and len(records) < self.max_iterations):
            state, record = solver.iterate(state, counted, config, rng)
            records.append(record)
            err = state.x - ref.x_star
            gap = 0.5 * float(err @ built.a @ err)
            if gap <= ref.gap_target:
                break
        return SimpleNamespace(oracle=counted, records=records, gap=gap)

    def check(self, built, ref, out):
        _require(out.gap <= ref.gap_target,
                 f"f-gap {out.gap:.3e} above target {ref.gap_target:.3e} "
                 f"after {len(out.records)} iterations")
        _check_evals(out.oracle.eval_count, out.records)
        return out.oracle.eval_count, {}


@contextmanager
def _created_oracles():
    """Collect every Oracle constructed inside the block."""
    created = []
    init = oracle.Oracle.__init__

    def registering_init(instance, *args, **kwargs):
        init(instance, *args, **kwargs)
        created.append(instance)

    oracle.Oracle.__init__ = registering_init
    try:
        yield created
    finally:
        oracle.Oracle.__init__ = init


class VerifyGates:
    """The five verification gates at their CLI defaults; one solve runs all
    five with the direction seed as the gate seed.

    Set-up is ``import zonewton`` in a fresh interpreter, which every
    ``zonewton verify-*`` call pays. ``sampling_comparison`` runs only at its
    d = 20 default: at small d its verdict depends on the seed.
    """

    dir_seeds = 1
    setups_per_round = 2
    setup_probe = "interpreter"
    warm_solve = False

    def __init__(self, seed):
        self.seed = seed

    def setup(self, timed):
        timed(subprocess.run, [sys.executable, "-c", "import zonewton"],
              env=child_env(), check=True)
        return SimpleNamespace(problem=None)

    def reference(self, built):
        return None

    def solve(self, built, ref, dir_seed, timed):
        # Each gate is its own timed step, so the host-speed rescaling
        # follows the host within the five-second pass.
        with _created_oracles() as created:
            reports = [
                timed(experiments.rate_verification, d=5, trials=2000,
                      seed=dir_seed, mu=1e-6),
                timed(experiments.gradient_bound_verification, seed=dir_seed,
                      d=4, n_points=100),
                timed(experiments.linear_rate_verification, seed=dir_seed,
                      d=10, cond=100.0, mu=1e-6),
                timed(experiments.quadratic_rate_verification, seed=dir_seed),
                timed(experiments.sampling_comparison, d=20, r=20,
                      trials=200, seed=dir_seed, mu=1e-6),
            ]
        return SimpleNamespace(reports=reports, oracles=created)

    def check(self, built, ref, out):
        for report in out.reports:
            _require(report.passed,
                     f"{type(report).__name__} failed: {report.lines()}")
        return sum(o.eval_count for o in out.oracles), {}


WORKLOADS = {
    "logistic_d200": Logistic,
    "quadratic_d100": Quadratic,
    "fed_logistic_c50": FedLogistic,
    "verify_gates": VerifyGates,
}
