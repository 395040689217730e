"""Sticky-reflecting Brownian motion on the half-space.

Closed-form transition kernel, intrinsic cost and geodesics, exact path
sampling, large-deviation slope experiments, and optimal transport with the
intrinsic cost.
"""

from .geometry import (
    INFINITE_ACTION,
    GeodesicDescription,
    HalfSpacePoint,
    ModelParams,
    Path,
    action,
    cone_contains,
    cone_threshold,
    cost,
    cost_batch,
    euclidean_rate,
    geodesic,
    hamiltonian,
    lagrangian,
    point,
    sticky_rate,
    sticky_rate_profile,
)
from .quadrature import QuadratureError, QuadratureSpec
from .kernel import kernel_total_mass
from .simulate import BatchPaths, SimConfig, simulate_batch
from .ldp import (
    Ball,
    BoundaryPatch,
    LdpEstimate,
    phase_transition_scan,
    sliced_ldp,
    static_ldp,
)
from .transport import (
    DiscreteMeasure,
    TransportPlan,
    displacement_interpolation,
    gamma_limit_experiment,
    kantorovich,
    schrodinger,
)
from .pathopt import minimize_path_action

__version__ = "0.1.0"
