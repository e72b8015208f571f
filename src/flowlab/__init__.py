"""flowlab: simulation and certification toolkit for stochastic flows of SDEs.

The library integrates solution and derivative flows under common noise,
evaluates the bilinear form governing derivative-norm growth in flat,
curvature and embedding coordinates, estimates the moment functionals that
appear in completeness criteria, and issues sampled-evidence certificates for
those criteria, validated against closed-form oracle flows.
"""

from .errors import (
    CapabilityError,
    ContractError,
    DomainError,
    FlowlabError,
    SingularPointError,
)
from .geometry import (
    CurvatureData,
    EmbeddedModel,
    FlatModel,
    ManifoldModel,
    PuncturedFlatModel,
    RescaledFlatModel,
    graph_model,
    metric_norm,
    paraboloid_model,
    pole_distance,
    second_fundamental_form,
    sphere_model,
    tangent_project,
)
from .systems import (
    DriftDecomposition,
    VectorFieldSystem,
    adjoint,
    apply_generator,
    as_ito,
    as_stratonovich,
    convert_calculus,
    effective_drift,
    gradient_brownian_from_embedding,
    isometry_defect,
)
from .expressions import compile_expression, load_system
from .flow import (
    BrownianDriver,
    StepSchedule,
    integrate_derivative_flow,
    integrate_flow,
    outside_balls,
    schedule_for,
    write_trajectory_csv,
)
from .criteria import (
    CertifyConfig,
    GrowthProfile,
    HpReport,
    ScalarField,
    VerdictReport,
    certify,
    check_growth,
    eval_Hp,
    eval_Htilde,
    hp_report,
    lyapunov_drift_bound,
    scalar_field,
)
from .estimators import (
    MomentEstimate,
    estimate_exponential_functional,
    estimate_girsanov_one_completeness,
    estimate_moment_exponent,
    estimate_radial_moment,
    estimate_stopped_moment,
    estimate_sup_derivative_moment,
)
from .semigroup import (
    ScalarObservable,
    estimate_Ptf,
    estimate_deltaPt,
    estimate_nested_Ptf,
    gradient_consistency_check,
    observable,
)
from .scenarios import (
    Scenario,
    builtin,
    oracle_convergence_study,
    oracle_flow,
    ou_exact_states,
    scenario_listing,
)

__version__ = "0.1.0"
