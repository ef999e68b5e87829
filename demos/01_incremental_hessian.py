# Incremental randomized Hessian estimation from function values only.
#
# Each probed direction u costs two function evaluations (plus one shared
# center evaluation per batch) and yields the central-difference curvature
# (f(x+mu u) - 2 f(x) + f(x-mu u)) / mu^2. A rank-one update then makes the
# running estimate match that curvature exactly along u. The squared
# Frobenius error contracts in expectation by 1 - 2/(d^2 + 2d) per update,
# and the estimate can be warm-started across iterates.

import numpy as np

from zonewton import (
    HessianEstimate,
    RngStream,
    directional_curvature,
    estimate_hessian,
    gaussian_sphere_sample,
    make_quadratic,
    random_spd,
    update_rate_bound,
)

d = 8
rng = RngStream(0)
a = random_spd(d, cond=10.0, rng=rng)
problem = make_quadratic(a, np.zeros(d))
oracle = problem.make_oracle()

print(f"target: random SPD Hessian, d={d}, condition number 10")
print(f"expected squared-error contraction per update: "
      f"{update_rate_bound(d):.5f}\n")

# one probe batch of 120 sphere directions, updates applied one at a time
directions = gaussian_sphere_sample(d, 120, rng)
probe = oracle.probe_batch(np.zeros(d), directions, mu=1e-6)
curvatures = directional_curvature(probe)
est = HessianEstimate.zero(d)
print("update   ||H - A||_F")
for k in range(directions.r):
    est.update(directions.vectors[k], curvatures[k])
    if (k + 1) % 20 == 0:
        print(f"{k + 1:6d}   {np.linalg.norm(est.matrix - a):10.6f}")

print(f"\nevaluations spent: {oracle.eval_count} (= 2r+1 = {2 * directions.r + 1})")

# warm start: when the Hessian barely changes, a handful of extra updates
# keeps the estimate current instead of rebuilding it from scratch
oracle2 = problem.make_oracle()
warm, _ = estimate_hessian(oracle2, np.zeros(d),
                           gaussian_sphere_sample(d, 10, rng), mu=1e-6,
                           warm_start=est)
print(f"after 10 warm-started updates: ||H - A||_F = "
      f"{np.linalg.norm(warm.matrix - a):.6f} "
      f"(carried {directions.r} previous updates)")
