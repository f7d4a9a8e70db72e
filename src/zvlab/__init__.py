"""zvlab: numerical workbench for drift-removing transforms of singular SDEs."""

__version__ = "0.1.0"

from .coupling import (
    CouplingConfig,
    harnack_power_check,
    log_harnack_check,
    simulate_pair,
    verify_martingale,
    verify_moment_bound,
)
from .fields import (
    CoefficientSet,
    GridFunction,
    GridSpec,
    NormSpec,
    holder_seminorm,
    lp_lq_norm,
    sample_field,
)
from .pde import lambda_sweep, solve_backward, solve_phi_system
from .report import CheckRecord, RunReport
from .scenarios import Scenario, get_scenario, scenario_names
from .sde import (
    SdeModel,
    SimSpec,
    integrate,
    krylov_estimate,
    original_model,
    transform_consistency,
    transformed_model,
)
from .zvonkin import ZvonkinMap, bilipschitz_certificate, build_zvonkin

__all__ = [
    "CheckRecord",
    "CoefficientSet",
    "CouplingConfig",
    "GridFunction",
    "GridSpec",
    "NormSpec",
    "RunReport",
    "Scenario",
    "SdeModel",
    "SimSpec",
    "ZvonkinMap",
    "bilipschitz_certificate",
    "build_zvonkin",
    "get_scenario",
    "harnack_power_check",
    "holder_seminorm",
    "integrate",
    "krylov_estimate",
    "lambda_sweep",
    "log_harnack_check",
    "lp_lq_norm",
    "original_model",
    "sample_field",
    "scenario_names",
    "simulate_pair",
    "solve_backward",
    "solve_phi_system",
    "transform_consistency",
    "transformed_model",
    "verify_martingale",
    "verify_moment_bound",
]
