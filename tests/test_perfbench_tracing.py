"""The benchmark's per-layer tracer still installs over the package API.

``perfbench/tracing.py`` wraps public functions and a few methods by name,
so renaming or deleting one of them breaks ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import numpy as np

from zonewton import estimators, fedsim, oracle
from zonewton.fedsim import ClientNode, federated_run
from zonewton.sampling import RngStream, gaussian_sphere_sample
from zonewton.solver import FixedDirections, SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_records_and_removes(monkeypatch):
    # Import without leaving bytecode in the benchmark's directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = [estimators.HessianEstimate.__dict__["update"],
                 fedsim.FederatedObjective.__dict__["probe_batch"],
                 oracle.Oracle.__init__, fedsim.solver_run]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        d = 3
        clients = [ClientNode(i, oracle.Oracle(
            lambda x, s=i: float(x @ x) + s, d)) for i in range(2)]
        # r = 3d: the second probe phase spans two frames, each applied as
        # one block
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(3 * d),
                              max_iterations=2)
        federated_run(np.ones(d), clients, config, RngStream(0))
        # sphere directions are the library's remaining sequential-update
        # path
        estimators.estimate_hessian(
            clients[0].oracle, np.ones(d),
            gaussian_sphere_sample(d, d, RngStream(1)), mu=1e-4)
    finally:
        tracer.remove()
    for layer in ("solver.iterate", "fedsim.probe_batch", "estimators.update",
                  "oracle.objective"):
        assert tracer.calls[("solve", layer)] > 0, layer
    assert [estimators.HessianEstimate.__dict__["update"],
            fedsim.FederatedObjective.__dict__["probe_batch"],
            oracle.Oracle.__init__, fedsim.solver_run] == originals
