# The derivative-free Newton solver end to end.
#
# Each iteration probes one orthonormal frame (gradient + first d curvature
# updates), optionally checks the zeroth-order stopping rule, probes the
# remaining r_k - d directions into the warm-started Hessian estimate, clips
# the estimate's spectrum into [lambda_min, lambda_max], and steps
# x <- x - alpha Z g. Total cost: 2 r_k + 1 evaluations per iteration.

import numpy as np

from zonewton import (
    FixedDirections,
    RngStream,
    SolverConfig,
    contraction_gamma,
    make_quadratic,
    optimal_stepsize,
    random_spd,
    run,
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
trace = run(x0, problem.make_oracle(), config, RngStream(4),
            x_star=known.x_star, f_star=known.f_star,
            hessian_fn=known.hessian)

print("iter    evals   f-gap        ||x - x*||   ||H - A||_F")
for rec in trace.records[:: len(trace.records) // 10]:
    print(f"{rec.iteration:5d} {rec.evals:8d}   {rec.f_gap:.4e}   "
          f"{rec.x_err:.4e}   {rec.hess_err_fro:.4e}")
print(f"\nstatus: {trace.status}; total evaluations {trace.total_evals} "
      f"(= iterations x (2d+1))")

write_trace_csv(trace, "newton_quadratic_trace.csv")
print("full trace written to newton_quadratic_trace.csv")
