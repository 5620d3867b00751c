"""Deterministic quantum multiobservable control.

Propagation of driven N-level systems, control-landscape gradients and
Gramians, gradient flows on the unitary group, and homotopy tracking of
prescribed paths in U(N) or in multiobservable-expectation space.
"""

from . import errors
from .dynamics import (
    ControlField,
    PropagationResult,
    QuantumSystem,
    StateSpec,
    expectations,
    propagate,
    pure_state,
    zero_field,
)
from .integrate import (
    FlowProblem,
    IntegrationReport,
    euler_integrate,
    rkck_adaptive,
)
from .landscape import (
    KinematicFlowResult,
    ObservableSet,
    analytic_purestate_flow,
    distance_derivative,
    gradient_field,
    kinematic_flow,
    kinematic_maximizer,
    natural_basis_dimension,
    natural_basis_functions,
    natural_basis_rank,
    single_observable_gradients,
    unitary_gradient,
)
from .linalg import (
    condition_number,
    herm_to_vec,
    log_unitary_principal,
    vec_to_herm,
)
from .tracking import (
    GramianReport,
    ObservableTrack,
    UnitaryTrack,
    free_function_min_fluence,
    geodesic_target_observables,
    geodesic_target_unitary,
    gramian_motc,
    gramian_unitary,
    linear_target_observables,
    motc_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ControlField",
    "PropagationResult",
    "QuantumSystem",
    "StateSpec",
    "expectations",
    "propagate",
    "pure_state",
    "zero_field",
    "FlowProblem",
    "IntegrationReport",
    "euler_integrate",
    "rkck_adaptive",
    "KinematicFlowResult",
    "ObservableSet",
    "analytic_purestate_flow",
    "distance_derivative",
    "gradient_field",
    "kinematic_flow",
    "kinematic_maximizer",
    "natural_basis_dimension",
    "natural_basis_functions",
    "natural_basis_rank",
    "single_observable_gradients",
    "unitary_gradient",
    "condition_number",
    "herm_to_vec",
    "log_unitary_principal",
    "vec_to_herm",
    "GramianReport",
    "ObservableTrack",
    "UnitaryTrack",
    "free_function_min_fluence",
    "geodesic_target_observables",
    "geodesic_target_unitary",
    "gramian_motc",
    "gramian_unitary",
    "linear_target_observables",
    "motc_rhs",
]
