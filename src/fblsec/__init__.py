"""Leakage-failure probability modelling and joint blocklength/redundancy
allocation for round-trip short-packet transmissions over wiretap
channels."""

from .fbl_core import (
    DomainError,
    NumericalError,
    decode_error_prob,
    dispersion,
    q_func,
    q_inv,
)
from .lfp_model import (
    Allocation,
    FeasibleBox,
    LinkErrors,
    lfp,
    lfp_gradient_reduced,
    lfp_value,
    link_errors,
    redundancy_bounds,
)
from .scenario import (
    DegenerateChannelError,
    Scenario,
    db_to_linear,
    load_scenario,
    scenario_from_dict,
)
from .solvers import (
    SolverConfig,
    SolverReport,
    bcd_scalar_min,
    solve_bcd,
    solve_exhaustive,
    solve_mm,
    surrogate_g,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "DegenerateChannelError", "DomainError", "FeasibleBox",
    "LinkErrors", "NumericalError", "Scenario",
    "SolverConfig", "SolverReport",
    "bcd_scalar_min", "db_to_linear", "decode_error_prob",
    "dispersion", "lfp", "lfp_gradient_reduced", "lfp_value",
    "link_errors", "load_scenario", "q_func", "q_inv",
    "redundancy_bounds", "scenario_from_dict",
    "solve_bcd", "solve_exhaustive", "solve_mm", "surrogate_g",
]
