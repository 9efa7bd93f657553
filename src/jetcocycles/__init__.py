"""Truncated-jet verification of differential-geometric 1-cocycles.

The package machine-checks, over exact rational and floating scalars, the
canonical lift of an affine connection to phase space, the comparison tensor
of lifted diffeomorphisms, the third-order degree-lowering operator built
from it and its group 1-cocycle identity, together with the classical
cocycles (volume distortion, connection difference, potential integrals, the
1D third-order distortion) and their Lie-algebra shadows.
"""

from .jets import (
    EvaluationError,
    Jet,
    JetShapeError,
    Polynomial,
    SingularJacobianError,
    jet_compose,
    jet_invert,
)
from .maps import (
    CotangentMap,
    DiffeoMap,
    VectorField,
    catalog_entries,
    catalog_get,
    compose,
    cotangent_lift,
    flow_map,
)
from .geometry import (
    Connection,
    TensorField21,
    cocycle_C,
    covariant_derivs,
    lift_connection,
    pullback_connection,
    pullback_tensor,
)
from .operators import (
    LocalDiffOp,
    Symbol,
    act_on_function,
    act_on_operator,
    apply_op,
    apply_op_to_symbol,
    build_L_coordinate,
    build_L_covariant,
    build_L_flat,
)
from .cocycles import (
    DomainError,
    derham_cocycle,
    divergence_cocycle,
    group_algebra_consistency,
    lie_derivative_connection,
    log_volume_cocycle,
    moyal_p3,
    schwarzian_1d,
    vect_embedding_cocycle,
    verify_group_cocycle,
)
from .harness import ScenarioConfig, run_scenario

__version__ = "0.1.0"
