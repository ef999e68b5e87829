# The derivative-free Newton solver end to end.
#
# Each iteration probes one orthonormal frame (gradient + first d curvature
# updates), optionally checks the zeroth-order stopping rule, probes the
# remaining r_k - d directions into the warm-started Hessian estimate, clips
# the estimate's spectrum into [lambda_min, lambda_max], and steps
# x <- x - alpha Z g. Total cost: 2 r_k + 1 evaluations per iteration.
# The solver never sees x*, f* or the true Hessian: the demo drives the
# iterations itself and measures each one against the ground truth.

import numpy as np

from zonewton import (
    FixedDirections,
    RngStream,
    RunTrace,
    SolverConfig,
    SolverState,
    contraction_gamma,
    iterations,
    make_quadratic,
    optimal_stepsize,
    random_spd,
    write_trace_csv,
)

d = 10
stream = RngStream(3)
a = random_spd(d, cond=100.0, rng=stream)
b = stream.generator.standard_normal(d)
problem = make_quadratic(a, b)
known = problem.known

alpha = optimal_stepsize(known.m, known.L1)
gamma = contraction_gamma(alpha, known.m, known.L1, known.m, known.L1)
print(f"quadratic, d={d}, condition number {known.L1 / known.m:.0f}")
print(f"rate-optimal stepsize alpha = {alpha:.4f}; guaranteed per-iteration "
      f"f-gap factor <= {1 - gamma:.6f}\n")

config = SolverConfig(
    mu=1e-6, r_policy=FixedDirections(d), alpha=alpha,
    lambda_min=known.m, lambda_max=known.L1,
    max_iterations=400, L1=known.L1, L2=known.L2, m=known.m)

v = stream.generator.standard_normal(d)
x0 = known.x_star + v / np.linalg.norm(v)
state = SolverState.initial(x0, d)
records = []
for state, rec in iterations(state, problem.make_oracle(), config,
                             RngStream(4)):
    rec.f_gap = rec.f_value - known.f_star
    rec.x_err = float(np.linalg.norm(rec.x - known.x_star))
    rec.hess_err_fro = float(np.linalg.norm(
        state.hessian.matrix - known.hessian(rec.x)))
    records.append(rec)
trace = RunTrace(records=records, status=state.status, x_final=state.x)

print("iter    evals   f-gap        ||x - x*||   ||H - A||_F")
for rec in trace.records[:: len(trace.records) // 10]:
    print(f"{rec.iteration:5d} {rec.evals:8d}   {rec.f_gap:.4e}   "
          f"{rec.x_err:.4e}   {rec.hess_err_fro:.4e}")
print(f"\nstatus: {trace.status}; total evaluations {trace.total_evals} "
      f"(= iterations x (2d+1))")

write_trace_csv(trace, "newton_quadratic_trace.csv")
print("full trace written to newton_quadratic_trace.csv")
