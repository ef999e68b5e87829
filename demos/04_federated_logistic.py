# Federated optimization with value-only communication.
#
# Five clients each hold a shard of a logistic-regression dataset. Per
# round the server broadcasts the probe points and every client returns its
# 2r+1 local function values; averaging them value-wise (always in ascending
# client-id order) reproduces the centralized probe of the mean objective
# exactly, because finite differences are linear in the objective. Nothing
# but scalars crosses the client boundary: no gradients, no data.

import numpy as np

from zonewton import (
    FederationConfig,
    FixedDirections,
    RngStream,
    SolverConfig,
    federated_run,
    make_logistic,
    make_synthetic_dataset,
    partition_dataset,
)

n_samples, d, ridge, n_clients = 200, 10, 0.1, 5
data = make_synthetic_dataset(n_samples, d, RngStream(5))
problem = make_logistic(data, ridge)
known = problem.known

clients = partition_dataset(data, FederationConfig(n_clients), RngStream(6),
                            ridge=ridge)
print(f"{n_samples} samples split across {n_clients} clients "
      f"(client mean objective == full-dataset objective)\n")

r = 30
config = SolverConfig(
    mu=1e-7, r_policy=FixedDirections(r), alpha=1.0,
    lambda_min=0.02, lambda_max=1e4, max_iterations=25,
    L1=known.L1, m=known.m)
trace = federated_run(np.zeros(d), clients, config, RngStream(7))

print("round   f-gap        ||x - x*||   up-scalars  down-scalars")
for rec in trace.records[::4]:
    f_gap = rec.f_value - known.f_star
    x_err = np.linalg.norm(rec.x - known.x_star)
    print(f"{rec.iteration:5d}   {f_gap:.4e}   {x_err:.4e}   "
          f"{rec.up_scalars:8d}   {rec.down_scalars:9d}")

final_err = np.linalg.norm(trace.x_final - known.x_star)
print(f"\nfinal distance to the centrally computed minimizer: {final_err:.2e}")
print(f"per-client evaluations: {trace.extra['client_eval_counts']}")
print(f"uploads per round: {n_clients} clients x (2r+1) = "
      f"{n_clients * (2 * r + 1)} scalars")
