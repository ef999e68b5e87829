"""zonewton: derivative-free Newton-type optimization.

The toolkit estimates curvature with an incremental randomized rank-one
update driven by central-difference probes, estimates gradients for free
from the same probe values along an orthonormal frame, and runs a clipped
Newton iteration on top — optionally across simulated federated clients
that only ever exchange scalar function values.
"""

from .estimators import (
    HessianEstimate,
    directional_curvature,
    estimate_gradient,
    estimate_hessian,
    gradient_error_bound,
    update_rate_bound,
)
from .fedsim import (
    ClientNode,
    FederatedObjective,
    FederationConfig,
    federated_run,
    partition_dataset,
)
from .oracle import (
    BudgetExhaustedError,
    Objective,
    Oracle,
    ProbeResult,
    deterministic_fd_costs,
)
from .problems import (
    Dataset,
    KnownInfo,
    ProblemSpec,
    load_libsvm,
    logistic_gap_objective,
    logistic_objective,
    make_cubic_box,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    quadratic_objective,
    random_spd,
)
from .sampling import (
    DirectionSet,
    RngStream,
    gaussian_sphere_sample,
    stiefel_sample,
)
from .solver import (
    AdaptiveDirections,
    FixedDirections,
    RunTrace,
    SolverConfig,
    SolverState,
    TraceRecord,
    adaptive_direction_count,
    contraction_gamma,
    iterate,
    optimal_stepsize,
    run,
    zo_floor_stop,
)
from .traceio import CSV_HEADER, write_trace_csv

__version__ = "0.1.0"
