"""Leakage-failure probability modelling and joint blocklength/redundancy
allocation for round-trip short-packet transmissions over wiretap
channels."""

from .fbl_core import (
    DomainError,
    NumericalError,
    capacity,
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
    LinkGeometry,
    Scenario,
    db_to_linear,
    linear_to_db,
    load_scenario,
    sample_scenario,
    scenario_from_dict,
    scenario_to_dict,
    snr_from_geometry,
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
    "LinkErrors", "LinkGeometry", "NumericalError", "Scenario",
    "SolverConfig", "SolverReport",
    "bcd_scalar_min", "capacity", "db_to_linear", "decode_error_prob",
    "dispersion", "lfp", "lfp_gradient_reduced", "lfp_value",
    "linear_to_db", "link_errors", "load_scenario", "q_func", "q_inv",
    "redundancy_bounds", "sample_scenario", "scenario_from_dict",
    "scenario_to_dict", "snr_from_geometry",
    "solve_bcd", "solve_exhaustive", "solve_mm", "surrogate_g",
]
