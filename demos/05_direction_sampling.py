# Why orthonormal frames: Stiefel sampling vs normalized Gaussians.
#
# Independent sphere directions oversample some of the space and miss other
# parts when r is small; columns of a uniformly random Stiefel frame are
# orthogonal (evenly spread) while each column is still marginally uniform
# on the sphere, which is what the Hessian estimator's contraction rate
# assumes. The effect on estimate accuracy is large for r close to d.

import numpy as np

from zonewton import RngStream, stiefel_sample
from zonewton.experiments import sampling_comparison

# a frame is the Q factor of X = QR with X i.i.d. standard normal, each
# column signed by its diag(R) entry so that the frame is uniformly
# distributed rather than biased by the factorisation's sign convention
rng = RngStream(8)
u = stiefel_sample(5, 5, rng).vectors.T
print("||U^T U - I||_F =", np.linalg.norm(u.T @ u - np.eye(5)), "\n")

print("cold-start Hessian estimate error after r updates, d=20:")
print(f"{'r':>4}  {'stiefel':>10}  {'gaussian':>10}  {'ratio':>6}")
for r in (5, 10, 20, 40):
    rep = sampling_comparison(d=20, r=r, trials=100, seed=9)
    print(f"{r:4d}  {rep.stiefel_mean:10.4f}  {rep.gaussian_mean:10.4f}"
          f"  {rep.stiefel_mean / rep.gaussian_mean:6.3f}")
print("\nratios below 1, and well below once r reaches d: orthonormal "
      "frames extract more curvature information per evaluation")
