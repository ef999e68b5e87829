"""Time two zonewton source trees against each other in one process.

    python tools/interleave.py A B
        [--workload gates|quadratic|logistic|fed] [--pairs N]
        [--seed K ...] [--gates NAME ...] [--d D]

A and B are directories that hold ``zonewton``. Each tree's package is
copied into a temporary directory as ``zonewton_a`` and ``zonewton_b`` (the
package imports itself only relatively), and both are imported into this
process, which runs with one BLAS thread. Both sides then run the workload
once per seed, and the tool exits 1 unless every report or trace record is
the same bit for bit. After that it runs ``--pairs`` timed pairs, A first in
even pairs and B first in odd ones, cycling through the seeds, and prints
each side's median time, the median per-pair ratio B / A and the number of
pairs in which B was faster.

Workloads:

- ``gates`` (default): the gate calls of ``perfbench``'s ``verify_gates``
  at their arguments there, or those of ``--gates``; ``--d`` overrides the
  dimension of every selected gate that takes one. The seeds are gate
  seeds, 1, 101, 201, 301, 401 by default.
- ``quadratic``: the solve of ``perfbench``'s ``quadratic_d100``: a random
  SPD quadratic with spectrum linspace(1, 100), r = d directions, iterated
  until the f-gap is 0.3 of its start; ``--d`` sets d (default 100). The
  seeds are direction seeds, 0-3 by default, and the problem is built from
  seed 0, outside the timing.
- ``logistic``: the solve of ``perfbench``'s ``logistic_d200``: ridge
  logistic regression on n = 2000 synthetic samples at d = 200, r = d,
  run to the zeroth-order stop. The seeds are direction seeds, 1 and 2 by
  default; the dataset and problem are built from seed 0, outside the
  timing, and ``--d`` does not apply.
- ``fed``: the solve of ``perfbench``'s ``fed_logistic_c50``: the same
  logistic regression at d = 20, split over 50 clients, r = d, run to the
  zeroth-order stop through ``fedsim.federated_run``. The seeds are
  direction seeds, 1-4 by default; the dataset and the clients are built
  from seeds 0 and 1, outside the timing, and ``--d`` does not apply.

Alternating pair by pair in one process resolves a few microseconds per
iteration, which separate benchmark runs cannot, and both sides run under
one interpreter: between processes, ``quadratic_d100`` moves by about
10 % with the memory layout of code it never runs.

Run it pinned to one CPU, as ``taskset -c 1 python tools/interleave.py
...``. Where the scheduler does not balance load, an unpinned run can share
a CPU with its own helper threads: a tree timed against itself then read
1.0565, against 0.9987-1.0069 pinned. The tool prints a warning line to
standard error when its affinity set holds more than one CPU.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from fingerprint import _encode, _encode_fields

# Gate -> (function in zonewton.experiments, its arguments in verify_gates).
# tests/test_interleave.py checks them against perfbench's VerifyGates.
GATES = {
    "rate": ("rate_verification", dict(d=5, trials=2000, mu=1e-6)),
    "lemma1": ("gradient_bound_verification", dict(d=4, n_points=100)),
    "linear": ("linear_rate_verification", dict(d=10, cond=100.0, mu=1e-6)),
    "quadratic": ("quadratic_rate_verification", {}),
    "sampling": ("sampling_comparison", dict(d=20, r=20, trials=200,
                                             mu=1e-6)),
}
# The ridge of perfbench's logistic workloads.
RIDGE = 0.1
DEFAULT_SEEDS = {"gates": [1, 101, 201, 301, 401], "quadratic": [0, 1, 2, 3],
                 "logistic": [1, 2], "fed": [1, 2, 3, 4]}


def _pin(value) -> bytes:
    """Bytes that pin a list of reports or trace records exactly, field by
    field, whichever package defined their class."""
    return b"[" + b";".join(map(_encode_fields, value)) + b"]"


def load(src, name: str, workdir: str):
    """Import the ``zonewton`` under ``src`` as the package ``name``."""
    shutil.copytree(Path(src) / "zonewton", Path(workdir) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if workdir not in sys.path:
        sys.path.insert(0, workdir)
    return importlib.import_module(name)


def gates_workload(pkg, gates, d):
    """A function of the gate seed that runs the selected gates."""
    experiments = importlib.import_module(f"{pkg.__name__}.experiments")
    calls = []
    for name in gates:
        function, kwargs = GATES[name]
        if d is not None and "d" in kwargs:
            kwargs = dict(kwargs, d=d)
        calls.append((getattr(experiments, function), kwargs))
    return lambda seed: [call(seed=seed, **kwargs) for call, kwargs in calls]


def quadratic_workload(pkg, d):
    """A function of the direction seed that runs one quadratic solve, as
    ``perfbench``'s ``Quadratic._solve`` does, and returns its records.
    tests/test_interleave.py checks that at d = 100 the records are those
    of ``Quadratic(0)``."""
    import numpy as np

    problems = importlib.import_module(f"{pkg.__name__}.problems")
    sampling = importlib.import_module(f"{pkg.__name__}.sampling")
    solver = importlib.import_module(f"{pkg.__name__}.solver")
    stream = sampling.RngStream(0)
    a = problems.random_spd(d, 100.0, stream)
    problem = problems.make_quadratic(a, stream.generator.standard_normal(d))
    known = problem.known
    _, q = np.linalg.eigh(a)
    signs = np.random.default_rng([0, 2]).choice([-1.0, 1.0], d)
    err0 = q @ signs / np.sqrt(d)
    x0 = known.x_star + err0
    gap_target = 0.3 * 0.5 * float(err0 @ a @ err0)
    config = solver.SolverConfig(
        mu=1e-5, r_policy=solver.FixedDirections(d), lambda_min=known.m,
        lambda_max=known.L1, max_iterations=1000, L1=known.L1, L2=known.L2,
        m=known.m)

    def solve(seed):
        oracle = problem.make_oracle()
        rng = sampling.RngStream(seed)
        state = solver.SolverState.initial(x0, d)
        records = []
        while (state.status == solver.RUNNING
               and len(records) < config.max_iterations):
            state, record = solver.iterate(state, oracle, config, rng)
            records.append(record)
            err = state.x - known.x_star
            if 0.5 * float(err @ a @ err) <= gap_target:
                break
        return records

    return solve


def _logistic_setup(pkg, d, mu):
    """The n = 2000 synthetic dataset of seed 0 at dimension d, its ridge
    logistic problem and the solver config, as ``perfbench``'s ``Logistic``
    builds them."""
    problems = importlib.import_module(f"{pkg.__name__}.problems")
    sampling = importlib.import_module(f"{pkg.__name__}.sampling")
    solver = importlib.import_module(f"{pkg.__name__}.solver")
    data = problems.make_synthetic_dataset(2000, d, sampling.RngStream(0))
    problem = problems.make_logistic(data, RIDGE)
    known = problem.known
    config = solver.SolverConfig(
        mu=mu, r_policy=solver.FixedDirections(d), alpha=1.0,
        lambda_min=known.m, lambda_max=known.L1, max_iterations=100,
        L1=known.L1, L2=known.L2, m=known.m)
    return data, problem, config


def logistic_workload(pkg):
    """A function of the direction seed that runs one logistic solve, as
    ``perfbench``'s ``Logistic.solve`` does, and returns its records.
    tests/test_interleave.py checks that they are those of
    ``Logistic(0)``."""
    import numpy as np

    sampling = importlib.import_module(f"{pkg.__name__}.sampling")
    solver = importlib.import_module(f"{pkg.__name__}.solver")
    d = 200
    _, problem, config = _logistic_setup(pkg, d, 1.3e-3)

    def solve(seed):
        return solver.run(np.zeros(d), problem.make_oracle(), config,
                          sampling.RngStream(seed)).records

    return solve


def fed_workload(pkg):
    """A function of the direction seed that runs one federated solve over
    50 clients, as ``perfbench``'s ``FedLogistic.solve`` does, and returns
    its records. tests/test_interleave.py checks that they are those of
    ``FedLogistic(0)``."""
    import numpy as np

    fedsim = importlib.import_module(f"{pkg.__name__}.fedsim")
    sampling = importlib.import_module(f"{pkg.__name__}.sampling")
    d = 20
    data, _, config = _logistic_setup(pkg, d, 1.35e-3)
    clients = fedsim.partition_dataset(data, fedsim.FederationConfig(50),
                                       sampling.RngStream(1), ridge=RIDGE)

    def solve(seed):
        return fedsim.federated_run(np.zeros(d), clients, config,
                                    sampling.RngStream(seed)).records

    return solve


def _timed(work, seed) -> float:
    gc.collect()
    start = time.perf_counter()
    work(seed)
    return time.perf_counter() - start


def interleave(work_a, work_b, seeds, pairs: int) -> dict:
    """Check that both sides give the same output at every seed, then time
    ``pairs`` alternating pairs; returns both sides' times in pair order."""
    for seed in seeds:
        if _pin(work_a(seed)) != _pin(work_b(seed)):
            raise SystemExit(f"A and B give different outputs at seed {seed}")
    times = {"a": [], "b": []}
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            times[side].append(
                _timed(work_a if side == "a" else work_b, seed))
    return times


def summary(times: dict) -> list:
    """The lines the tool prints for the times of ``interleave``."""
    a, b = times["a"], times["b"]
    ratios = [tb / ta for ta, tb in zip(a, b)]
    wins = sum(tb < ta for ta, tb in zip(a, b))
    return [f"A median {statistics.median(a) * 1e3:.3f} ms",
            f"B median {statistics.median(b) * 1e3:.3f} ms",
            f"median ratio B/A {statistics.median(ratios):.4f}",
            f"B faster in {wins} of {len(ratios)} pairs"]


def main(argv=None) -> int:
    # Before numpy is first imported, which loading a tree does.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="directory holding the A zonewton")
    parser.add_argument("b", help="directory holding the B zonewton")
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS),
                        default="gates")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, nargs="+", dest="seeds")
    parser.add_argument("--gates", nargs="+", choices=list(GATES),
                        default=list(GATES))
    parser.add_argument("--d", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload in ("logistic", "fed") and args.d is not None:
        parser.error(f"--d does not apply to --workload {args.workload}")
    seeds = args.seeds or DEFAULT_SEEDS[args.workload]
    cpus = len(os.sched_getaffinity(0))
    if cpus > 1:
        print(f"warning: unpinned, on {cpus} CPUs; the ratios are steady "
              "only under taskset -c CPU", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        pkg_a = load(args.a, "zonewton_a", workdir)
        pkg_b = load(args.b, "zonewton_b", workdir)
        if args.workload == "gates":
            work_a, work_b = (gates_workload(p, args.gates, args.d)
                              for p in (pkg_a, pkg_b))
        elif args.workload == "quadratic":
            d = 100 if args.d is None else args.d
            work_a, work_b = (quadratic_workload(p, d)
                              for p in (pkg_a, pkg_b))
        elif args.workload == "logistic":
            work_a, work_b = (logistic_workload(p) for p in (pkg_a, pkg_b))
        else:
            work_a, work_b = (fed_workload(p) for p in (pkg_a, pkg_b))
        times = interleave(work_a, work_b, seeds, args.pairs)
    for line in summary(times):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
