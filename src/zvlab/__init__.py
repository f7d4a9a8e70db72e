"""zvlab: numerical workbench for drift-removing transforms of singular SDEs."""

__version__ = "0.1.0"

from .coupling import (
    CouplingConfig,
    calibrate_k1,
    simulate_pair,
    simulate_pairs,
    verify_log_harnack,
    verify_martingale,
    verify_moment_bound,
    verify_power_harnack,
)
from .fields import CoefficientSet, GridSpec, NormSpec
from .pde import lambda_sweep, sample_operator, solve_backward, solve_phi_system
from .report import RunReport
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
from .zvonkin import bilipschitz_certificate, build_zvonkin

__all__ = [
    "CoefficientSet",
    "CouplingConfig",
    "GridSpec",
    "NormSpec",
    "RunReport",
    "Scenario",
    "SdeModel",
    "SimSpec",
    "bilipschitz_certificate",
    "build_zvonkin",
    "calibrate_k1",
    "get_scenario",
    "integrate",
    "krylov_estimate",
    "lambda_sweep",
    "original_model",
    "sample_operator",
    "scenario_names",
    "simulate_pair",
    "simulate_pairs",
    "solve_backward",
    "solve_phi_system",
    "transform_consistency",
    "transformed_model",
    "verify_log_harnack",
    "verify_martingale",
    "verify_moment_bound",
    "verify_power_harnack",
]
