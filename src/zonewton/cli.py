"""Command-line front end.

Subcommands: ``run`` and ``fedrun`` execute solver runs and write CSV
traces; the ``verify-*`` subcommands and ``compare-sampling`` run the
empirical verification experiments and signal pass/fail through the exit
code, each with one flag per parameter of its gate, typed and defaulted by
the gate's signature; ``costs`` prints the deterministic finite-difference
evaluation counts. Exit codes: 0 success/pass, 1 verification failure,
2 usage error, 3 numerical failure (a run that ends ``stopped_numerical``:
a non-finite objective value, an iterate so large that rounding swallows
the probe step, or a step that is not finite; or a gate that raises
``FloatingPointError``). The run summary
prints ``evals=``, the evaluations of the last complete iteration, and
``spent=``, the evaluations actually charged (for ``fedrun`` the largest
per-client count, since the budget is per client).

A flat ``key = value`` config file (with ``#`` comments) can seed the run
configuration; explicit flags override file values. Unknown keys are
rejected by name. All randomness is controlled by --seed; no environment
variables are consulted, so reruns with the same BLAS thread count are
byte-identical.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import experiments
from .fedsim import (ClientNode, FederatedObjective, FederationConfig,
                     partition_dataset)
from .oracle import Oracle, deterministic_fd_costs
from .problems import (
    load_libsvm,
    make_cubic_box,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    quadratic_objective,
    random_spd,
)
from .sampling import RngStream
from .solver import (
    STOPPED_NUMERICAL,
    AdaptiveDirections,
    FixedDirections,
    RunTrace,
    SolverConfig,
    SolverState,
    iterations,
)
from .traceio import write_trace_csv

__all__ = ["main", "parse_config_file", "ExperimentConfig"]

class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    dataset_path: Optional[str] = None
    d: Optional[int] = None  # unset: 10, or the dataset file's dimension
    mu: float = 1e-5
    r: Optional[int] = None
    r_policy: str = "fixed"
    r_max: Optional[int] = None
    alpha: Optional[float] = None
    lambda_min: Optional[float] = None
    lambda_max: Optional[float] = None
    max_iters: int = 200
    budget: Optional[int] = None
    seed: int = 0
    n_clients: Optional[int] = None  # fedrun only; unset: 1
    out_path: Optional[str] = None


# Config key -> value parser, in field order; Optional[T] parses as T. Both
# the config file and the run flags are read through this one map.
_CONFIG_KEYS = {
    key: get_args(hint)[0] if get_args(hint) else hint
    for key, hint in get_type_hints(ExperimentConfig).items()
}

_CHOICES = {
    "problem": ("quadratic", "cubic", "logistic"),
    "r_policy": ("fixed", "adaptive"),
}

# Parameter name -> flag, where the flag is not the name dash-separated.
# One map for the run flags and the gate flags.
_FLAG_NAMES = {"out_path": "--out", "n_points": "--points"}

# Gate subcommand -> (gate, help). A gate's parameters are its flags; their
# types and defaults are read from its signature.
_GATES = {
    "verify-rate": (experiments.rate_verification,
                    "per-update contraction rate of the Hessian estimator"),
    "verify-lemma1": (experiments.gradient_bound_verification,
                      "deterministic gradient-error bound on the cubic box"),
    "verify-linear": (experiments.linear_rate_verification,
                      "global linear f-gap contraction on a quadratic"),
    "verify-quadratic": (experiments.quadratic_rate_verification,
                         "local quadratic rate on regularized logistic regression"),
    "compare-sampling": (experiments.sampling_comparison,
                         "Stiefel frames vs normalized Gaussian directions"),
    "verify-stopping": (experiments.stopping_criterion_check,
                        "zeroth-order stopping guarantee on the cubic box"),
}

# verify-rate takes --d repeatedly and runs its gate once per value.
_REPEATED = ("verify-rate", "d")


def _flag(key: str) -> str:
    return _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def parse_config_file(path) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment. Unknown keys
    are rejected with the offending name."""
    values = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: cannot parse value {value!r} for key '{key}'"
                ) from None
    return values


def _merge_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    for key, allowed in _CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise UsageError(f"unknown {key} '{getattr(cfg, key)}'")
    _reject_unread(cfg, args.command)
    return cfg


def _reject_unread(cfg: ExperimentConfig, command: str):
    """A setting the command would never read is a usage error, whether it
    came from a flag or from the config file."""
    unread = {
        "r": (cfg.r_policy == "adaptive", "under r_policy = adaptive"),
        "r_max": (cfg.r_policy == "fixed", "under r_policy = fixed"),
        "n_clients": (command == "run", "by run, only by fedrun"),
        "dataset_path": (cfg.problem != "logistic",
                         f"by the {cfg.problem} problem, only by logistic"),
    }
    for key, (ignored, where) in unread.items():
        if ignored and getattr(cfg, key) is not None:
            raise UsageError(f"config key '{key}' is not read {where}")


def _build_problem(cfg: ExperimentConfig):
    """Deterministic problem construction; the problem draws come from
    seed + 1 so they never collide with the solver's stream at seed.
    Returns the problem, the start point and the logistic dataset (None for
    the other problems).

    A dataset file takes an explicit ``d`` as its feature dimension (below
    the file's largest index that is an error); with ``d`` unset the file
    sets it. Generated problems default to d = 10."""
    stream = RngStream(cfg.seed + 1)
    data = None
    d = 10 if cfg.d is None else cfg.d
    if cfg.problem == "quadratic":
        a = random_spd(d, cond=100.0, rng=stream)
        b = stream.generator.standard_normal(d)
        problem = make_quadratic(a, b)
        v = stream.generator.standard_normal(d)
        x0 = problem.known.x_star + v / np.linalg.norm(v)
    elif cfg.problem == "cubic":
        problem = make_cubic_box(d, box_radius=0.4)
        x0 = 0.3 * np.ones(d)
    else:
        if cfg.dataset_path is not None:
            data = load_libsvm(cfg.dataset_path, dimension=cfg.d)
        else:
            data = make_synthetic_dataset(200, d, stream)
        problem = make_logistic(data, ridge=0.1)
        x0 = np.zeros(problem.dimension)
    return problem, x0, data


def _solver_config(cfg: ExperimentConfig, problem) -> SolverConfig:
    known = problem.known
    d = problem.dimension
    if cfg.r_policy == "adaptive":
        policy = AdaptiveDirections(
            r_max=cfg.r_max if cfg.r_max is not None else 10 * d)
    else:
        policy = FixedDirections(cfg.r if cfg.r is not None else d)
    lambda_min = cfg.lambda_min
    lambda_max = cfg.lambda_max
    if lambda_min is None:
        lambda_min = known.m or 1e-6
    if lambda_max is None:
        lambda_max = known.L1 or 1e6
    return SolverConfig(
        mu=cfg.mu, r_policy=policy, alpha=cfg.alpha,
        lambda_min=lambda_min, lambda_max=lambda_max,
        max_iterations=cfg.max_iters,
        L1=known.L1, L2=known.L2, m=known.m)


def _cmd_run(args) -> int:
    """``run`` and ``fedrun``: drive the solver through :func:`iterations`
    and fill each record's f_gap, x_err and Frobenius Hessian error from the
    problem's ground truth, which the solver never sees."""
    cfg = _merge_config(args)
    federated = args.command == "fedrun"
    if federated and cfg.problem == "cubic":
        raise UsageError("fedrun supports quadratic and logistic problems")
    problem, x0, data = _build_problem(cfg)
    known = problem.known
    if federated:
        oracle = FederatedObjective(_build_clients(cfg, problem, data))
    else:
        oracle = problem.make_oracle(budget=cfg.budget)
    config = _solver_config(cfg, problem)
    state = SolverState.initial(x0, oracle.dimension)
    records = []
    for state, record in iterations(state, oracle, config,
                                    RngStream(cfg.seed)):
        record.f_gap = record.f_value - known.f_star
        record.x_err = float(np.linalg.norm(record.x - known.x_star))
        diff = state.hessian.matrix - known.hessian(record.x)
        record.hess_err_fro = float(np.linalg.norm(diff))
        records.append(record)
    trace = RunTrace(records=records, status=state.status, x_final=state.x)
    spent = oracle.eval_count
    if federated:
        oracle.account(trace)
        spent = max(trace.extra["client_eval_counts"])
    return _finish_run(trace, cfg.out_path or f"{args.command}_trace.csv",
                       spent)


def _build_clients(cfg: ExperimentConfig, problem, data):
    """Clients whose mean objective equals the centralized problem; each
    client's oracle enforces ``cfg.budget`` on its own evaluations. ``data``
    is the logistic dataset the problem was built from."""
    federation = FederationConfig(1 if cfg.n_clients is None else cfg.n_clients)
    n = federation.n_clients
    stream = RngStream(cfg.seed + 2)
    d = problem.dimension
    if cfg.problem == "quadratic":
        # Perturb A and b with zero-sum symmetric noise so the client mean
        # reproduces the centralized quadratic exactly.
        a = problem.known.hessian(np.zeros(d))
        b = a @ problem.known.x_star
        gen = stream.generator
        noise = [gen.standard_normal((d, d)) for _ in range(n)]
        noise = [0.05 * (e + e.T) for e in noise]
        mean_noise = sum(noise) / n
        shifts = [gen.standard_normal(d) for _ in range(n)]
        mean_shift = sum(shifts) / n
        clients = []
        for i in range(n):
            fn = quadratic_objective(a + noise[i] - mean_noise,
                                     b + shifts[i] - mean_shift)
            clients.append(ClientNode(i, Oracle(fn, d, budget=cfg.budget)))
        return clients
    shards = partition_dataset(data, federation, stream, ridge=0.1)
    return [ClientNode(c.client_id, Oracle(c.oracle.fn, d, budget=cfg.budget))
            for c in shards]


def _finish_run(trace, out_path, spent: int) -> int:
    """Write the CSV trace, print the summary line and return the exit code.

    ``evals`` is the count at the last complete iteration; ``spent`` counts
    every charged evaluation, including a batch a budget stop cut short.
    """
    write_trace_csv(trace, out_path)
    if not trace.records:
        print(f"status={trace.status} evals=0 spent={spent} trace={out_path}")
    else:
        last = trace.records[-1]
        print(f"final f_gap={last.f_gap:.6e} status={trace.status} "
              f"iters={len(trace.records)} evals={last.evals} spent={spent} "
              f"trace={out_path}")
    return 3 if trace.status == STOPPED_NUMERICAL else 0


def _gate_params(gate) -> dict:
    """Parameter -> (type, default) from the gate's signature."""
    hints = get_type_hints(gate)
    return {key: (hints[key], param.default)
            for key, param in inspect.signature(gate).parameters.items()}


def _cmd_gate(args) -> int:
    """Run the subcommand's gate (once per --d for verify-rate), print each
    report and return 0 if every report passed, else 1."""
    gate, _ = _GATES[args.command]
    params = _gate_params(gate)
    kwargs = {key: getattr(args, key) for key in params}
    runs = [kwargs]
    command, key = _REPEATED
    if args.command == command:
        runs = [{**kwargs, key: value}
                for value in kwargs[key] or [params[key][1]]]
    code = 0
    for run_kwargs in runs:
        report = gate(**run_kwargs)
        for line in report.lines():
            print(line)
        code = max(code, 0 if report.passed else 1)
    return code


def _cmd_costs(args) -> int:
    forward, symmetric = deterministic_fd_costs(args.d)
    print(f"forward={forward} symmetric={symmetric}")
    return 0


def _add_run_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    for key, parse in _CONFIG_KEYS.items():
        parser.add_argument(_flag(key), dest=key, type=parse,
                            choices=_CHOICES.get(key))


def _add_gate_flags(parser, command, gate):
    for key, (parse, default) in _gate_params(gate).items():
        if (command, key) == _REPEATED:
            parser.add_argument(
                _flag(key), dest=key, type=parse, action="append",
                help=f"repeat for several (default: {default})")
        else:
            parser.add_argument(_flag(key), dest=key, type=parse,
                                default=default, help=f"default: {default}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonewton",
        description="Derivative-free Newton-type optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single-process solver run, CSV trace out")
    _add_run_flags(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("fedrun", help="federated solver run over simulated clients")
    _add_run_flags(p)
    p.set_defaults(handler=_cmd_run)

    for command, (gate, text) in _GATES.items():
        p = sub.add_parser(command, help=text)
        _add_gate_flags(p, command, gate)
        p.set_defaults(handler=_cmd_gate)

    p = sub.add_parser("costs",
                       help="deterministic finite-difference Hessian costs")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_costs)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
