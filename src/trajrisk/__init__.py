"""Collision-risk assessment for planned trajectories under probabilistic
agent predictions.

The toolkit covers three evaluation families for the per-step event
"agent position falls in the ego-fixed ellipsoid":

* exact/numerical for Gaussian mixtures (Imhof quadrature, noncentral-chi2
  moment matching),
* distributionally robust moment bounds (one-tailed Chebyshev on the
  quadratic form or on half-space approximations, sum-of-squares programs),
* Monte Carlo references,

plus a moment-propagation engine that closes polynomial update systems over
a dependence graph, specialized to unicycle agents driven by control
mixtures.  Trajectory risks compose per-step marginals by survival products
and union-bound across agents.
"""

from .chebyshev import (
    HalfSpace,
    RiskBound,
    cheb_bound_halfspace,
    cheb_bound_quadratic,
    ellipse_to_halfspaces,
)
from .distributions import (
    Gaussian2D,
    Gaussian2DMixture,
    MomentTable,
    ScalarComponent,
    ScalarMixture,
    gaussian2d_raw_moments,
    trig_moment,
)
from .engine import (
    BOUND_METHODS,
    METHODS,
    MarginalRisk,
    TrajectoryRisk,
    marginal_risk,
    multi_agent_bound,
    trajectory_risk,
)
from .errors import NumericalError, ValidationError
from .frames import EgoPose, Ellipsoid, rotate_form, to_ego_frame
from .mc import McEstimate, mc_control_risk, mc_position_risk
from .qfmvg import (
    CdfResult,
    SpectralForm,
    imhof_cdf,
    ltz_cdf,
    spectral_reduce,
)
from .scenario import (
    ControlAgent,
    PositionAgent,
    RiskReport,
    Scenario,
    load_scenario,
    run_assess,
    run_oracle,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from .sos import MomentVector, build_sos_program, sos_risk_bound
from .treering import (
    DependenceGraph,
    DubinsBaseMoments,
    MomentDynamics,
    MultiIndex,
    Poly,
    PolySystem,
    derive_position_moments,
    dubins_position_tables,
    dubins_system,
    expand,
    propagate,
)

__version__ = "0.1.0"
