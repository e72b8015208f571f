"""flowlab: simulation and certification toolkit for stochastic flows of SDEs.

The library integrates solution and derivative flows under common noise,
evaluates the bilinear form governing derivative-norm growth in flat,
curvature and embedding coordinates, estimates the moment functionals that
appear in completeness criteria, and issues sampled-evidence certificates for
those criteria, validated against closed-form oracle flows.

The namespace is lazy (PEP 562): ``import flowlab`` loads none of the
submodules.  The first use of an exported name, ``flowlab.builtin`` or
``from flowlab import builtin``, imports the submodule that defines it (and
whatever that submodule imports), and the name is then cached here.  So a
caller that builds a built-in scenario loads ``errors``, ``geometry``,
``systems`` and ``scenarios``; ``load_system`` adds ``expressions``; the
flow, criteria, estimators and semigroup layers load when first used.  A
submodule name such as ``flowlab.criteria`` resolves the same way.
``flowlab.cli`` imports every layer it dispatches to when it is imported.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapabilityError", "ContractError", "DomainError", "FlowlabError",
               "SingularPointError"),
    "geometry": ("CurvatureData", "EmbeddedModel", "FlatModel", "ManifoldModel",
                 "PuncturedFlatModel", "RescaledFlatModel", "graph_model", "metric_norm",
                 "paraboloid_model", "pole_distance", "second_fundamental_form",
                 "sphere_model", "tangent_project"),
    "systems": ("DriftDecomposition", "VectorFieldSystem", "adjoint", "apply_generator",
                "as_ito", "as_stratonovich", "convert_calculus", "effective_drift",
                "gradient_brownian_from_embedding", "isometry_defect"),
    "expressions": ("compile_expression", "load_system"),
    "flow": ("BrownianDriver", "StepSchedule", "integrate_derivative_flow", "integrate_flow",
             "outside_balls", "schedule_for", "write_trajectory_csv"),
    "criteria": ("CertifyConfig", "GrowthProfile", "HpReport", "ScalarField", "VerdictReport",
                 "certify", "check_growth", "eval_Hp", "eval_Htilde", "hp_report",
                 "lyapunov_drift_bound", "scalar_field"),
    "estimators": ("MomentEstimate", "estimate_exponential_functional",
                   "estimate_girsanov_one_completeness", "estimate_moment_exponent",
                   "estimate_radial_moment", "estimate_stopped_moment",
                   "estimate_sup_derivative_moment"),
    "semigroup": ("ScalarObservable", "estimate_Ptf", "estimate_deltaPt",
                  "estimate_nested_Ptf", "gradient_consistency_check", "observable"),
    "scenarios": ("Scenario", "builtin", "oracle_convergence_study", "oracle_flow",
                  "ou_exact_states", "scenario_listing"),
}

#: exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset(_EXPORTS) | {"cli", "parallel", "qmc"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
