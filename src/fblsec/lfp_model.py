"""Round-trip objective and feasibility geometry.

The leakage-failure probability (LFP) of a round trip is

    lfp = 1 - (1 - eps_ab) * eps_ae * (1 - eps_ba) * eps_be,

the probability that the two transmissions are not simultaneously
reliable (both legitimate decodes succeed) and secure (both eavesdrops
fail).  This module provides the per-link error evaluation, the
per-direction log success probability, the LFP itself, the redundancy
bounds induced by the reliability/leakage thresholds, and the analytic
LFP gradient in the reduced variable space (m1, d_r1, d_r2) with
m2 = M - m1.

The LFP is always evaluated as -expm1(log P), with log P the sum of the
four per-link log probabilities (via ``log_ndtr``).  This keeps ~1e-14
relative accuracy where a plain 1 - product form loses ~1e-10 (LFP near
1e-6), and keeps the magnitude at deeply reliable operating points where
the plain product rounds to exactly 1 and the LFP to exactly 0.

``lfp``, ``lfp_value``, ``lfp_gradient_reduced``, ``redundancy_bounds``
and ``link_errors`` validate their arguments; ``log_direction_success``
and ``log_round_trip_success`` sit below that boundary and run the
unchecked ``fbl_core.rate_margin`` kernel on whatever they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .fbl_core import (
    LN2,
    DomainError,
    decode_error_prob,
    dispersion,
    log_hazard_ratio,
    q_inv,
    rate_margin,
)
from .scenario import Scenario


@dataclass(frozen=True)
class Allocation:
    """A candidate decision: blocklength split and per-direction
    redundancy.  Values are ints in integer mode, floats in the relaxed
    problems; total bits per direction are always recomputed as
    d_m + d_r, never stored."""

    m1: float
    m2: float
    d_r1: float
    d_r2: float

    def __post_init__(self):
        if not (1 <= self.m1 < math.inf and 1 <= self.m2 < math.inf):
            raise DomainError(f"blocklengths must be finite and >= 1, got {self}")
        if not (0 <= self.d_r1 < math.inf and 0 <= self.d_r2 < math.inf):
            raise DomainError(f"redundancy must be finite and >= 0, got {self}")

    @property
    def is_integral(self):
        return all(float(v).is_integer()
                   for v in (self.m1, self.m2, self.d_r1, self.d_r2))


@dataclass(frozen=True)
class LinkErrors:
    """The four per-link decoding error probabilities."""

    eps_ab: float
    eps_ae: float
    eps_ba: float
    eps_be: float

    def as_tuple(self):
        return (self.eps_ab, self.eps_ae, self.eps_ba, self.eps_be)


@dataclass(frozen=True)
class FeasibleBox:
    """Per-direction redundancy range induced by the thresholds.

    Empty boxes are values, not errors: sweeps must be able to record
    infeasible grid points.
    """

    d_r1_min: float
    d_r1_max: float
    d_r2_min: float
    d_r2_max: float
    feasible: bool


def _check_alloc(scenario, alloc):
    if alloc.m1 + alloc.m2 > scenario.M:
        raise DomainError(
            f"allocation uses {alloc.m1 + alloc.m2} channel uses, "
            f"budget is {scenario.M}")


def link_errors(scenario: Scenario, alloc: Allocation) -> LinkErrors:
    """Evaluate the decoding error probability on all four links."""
    _check_alloc(scenario, alloc)
    d1 = scenario.d_m1 + alloc.d_r1
    d2 = scenario.d_m2 + alloc.d_r2
    return LinkErrors(
        eps_ab=decode_error_prob(scenario.gamma_ab, alloc.m1, d1),
        eps_ae=decode_error_prob(scenario.gamma_ae, alloc.m1, d1),
        eps_ba=decode_error_prob(scenario.gamma_ba, alloc.m2, d2),
        eps_be=decode_error_prob(scenario.gamma_be, alloc.m2, d2),
    )


def log_direction_success(gamma_b, gamma_e, m, d):
    """log[(1 - eps_b) * eps_e] for one direction, tail-exact.

    log(1 - eps_b) = log_ndtr(w_b) and log(eps_e) = log_ndtr(-w_e); both
    stay finite and accurate where the plain probabilities saturate.
    Accepts arrays in d (the exhaustive scan path).  Unchecked, like
    ``rate_margin``: the caller passes in-domain values.
    """
    w_b = rate_margin(gamma_b, m, d)
    w_e = rate_margin(gamma_e, m, d)
    return log_ndtr(w_b) + log_ndtr(-np.asarray(w_e))


def _log_success(scenario, m1, m2, d_r1, d_r2):
    """log of the round-trip success product, each direction at its
    own blocklength."""
    s1 = log_direction_success(scenario.gamma_ab, scenario.gamma_ae,
                               m1, scenario.d_m1 + d_r1)
    s2 = log_direction_success(scenario.gamma_ba, scenario.gamma_be,
                               m2, scenario.d_m2 + d_r2)
    return s1 + s2


def log_round_trip_success(scenario, m1, d_r1, d_r2):
    """log of the round-trip success product at a (possibly relaxed)
    point; m2 = M - m1 throughout the reduced space.  Unchecked."""
    return _log_success(scenario, m1, scenario.M - m1, d_r1, d_r2)


def _check_point(scenario, m1, d_r1, d_r2):
    if not (1 <= m1 <= scenario.M - 1
            and 0 <= scenario.d_m1 + d_r1 < math.inf
            and 0 <= scenario.d_m2 + d_r2 < math.inf):
        raise DomainError(
            f"point (m1={m1!r}, d_r1={d_r1!r}, d_r2={d_r2!r}) lies outside "
            f"1 <= m1 <= M - 1 = {scenario.M - 1} with finite total bits "
            f">= 0")


def lfp_value(scenario, m1, d_r1, d_r2):
    """Scalar LFP at a reduced-space point (m2 = M - m1): the solver
    fast path, -expm1 of the log round-trip success."""
    _check_point(scenario, m1, d_r1, d_r2)
    return -math.expm1(log_round_trip_success(scenario, m1, d_r1, d_r2))


def lfp(scenario: Scenario, alloc: Allocation) -> float:
    """Leakage-failure probability of an allocation, with each direction
    at its own blocklength (``alloc.m2`` may be below M - m1)."""
    _check_alloc(scenario, alloc)
    return -math.expm1(_log_success(scenario, alloc.m1, alloc.m2,
                                    alloc.d_r1, alloc.d_r2))


# ----------------------------------------------------------------------
# Threshold geometry
# ----------------------------------------------------------------------

def _direction_bounds(gamma_b, gamma_e, d_m, eps_b_max, eps_e_max, m):
    """Exact inversion of the error probability through the thresholds.

    Reliability eps_b <= eps_b_max caps the total bits from above,
    leakage eps_e >= eps_e_max from below; working in nats keeps the
    inversion consistent with ``rate_margin`` to the last ulp:

        d * ln2 <= m * ln(1+gamma_b) - sqrt(m * V_b) * Qinv(eps_b_max)
        d * ln2 >= m * ln(1+gamma_e) - sqrt(m * V_e) * Qinv(eps_e_max)
    """
    d_max = (m * math.log1p(gamma_b)
             - math.sqrt(m * dispersion(gamma_b)) * q_inv(eps_b_max)) / LN2 - d_m
    d_min = (m * math.log1p(gamma_e)
             - math.sqrt(m * dispersion(gamma_e)) * q_inv(eps_e_max)) / LN2 - d_m
    return max(0.0, d_min), d_max


def redundancy_bounds(scenario: Scenario, m1: float, m2: float) -> FeasibleBox:
    """Redundancy box [d_r^min, d_r^max] per direction for a given split.

    Re-evaluating the per-link error probability at either bound
    reproduces the corresponding threshold to ~1e-12; the lower bound is
    clamped at zero (negative redundancy is meaningless).  An empty box
    is returned with feasible=False, never raised.
    """
    if not (1.0 <= m1 < math.inf and 1.0 <= m2 < math.inf):
        raise DomainError(
            f"blocklengths must be finite and >= 1, got {m1}, {m2}")
    lo1, hi1 = _direction_bounds(scenario.gamma_ab, scenario.gamma_ae,
                                 scenario.d_m1, scenario.eps_ab_max,
                                 scenario.eps_e_max, m1)
    lo2, hi2 = _direction_bounds(scenario.gamma_ba, scenario.gamma_be,
                                 scenario.d_m2, scenario.eps_ba_max,
                                 scenario.eps_e_max, m2)
    feasible = lo1 <= hi1 and lo2 <= hi2 and hi1 >= 0.0 and hi2 >= 0.0
    return FeasibleBox(d_r1_min=lo1, d_r1_max=hi1,
                       d_r2_min=lo2, d_r2_max=hi2, feasible=feasible)


# ----------------------------------------------------------------------
# Reduced-space gradient
# ----------------------------------------------------------------------

def _link_log_derivatives(gamma, m, d):
    """d(log eps)/d(m,d) and d(log(1-eps))/d(m,d) for one link.

    Built from the hazard ratios phi(w)/Q(+-w), which stay finite where
    eps or its complement underflow.
    """
    w = rate_margin(gamma, m, d)
    v = dispersion(gamma)
    sqrt_mv = math.sqrt(m * v)
    dw_dm = (math.log1p(gamma) + d * LN2 / m) / (2.0 * sqrt_mv)
    dw_dd = -LN2 / sqrt_mv
    # eps = Q(w): dlog(eps) = -phi/Q(w) * dw ; dlog(1-eps) = phi/Q(-w) * dw
    r_eps = log_hazard_ratio(w)
    r_comp = log_hazard_ratio(-w)
    return {
        "dlog_eps_dm": -r_eps * dw_dm,
        "dlog_eps_dd": -r_eps * dw_dd,
        "dlog_comp_dm": r_comp * dw_dm,
        "dlog_comp_dd": r_comp * dw_dd,
    }


def lfp_gradient_reduced(scenario: Scenario, m1: float, d_r1: float,
                         d_r2: float):
    """Analytic gradient of the LFP in (m1, d_r1, d_r2), m2 = M - m1.

    Composed through log derivatives of the four link factors:
    grad lfp = -P * grad log P with P the round-trip success product.
    Matches central finite differences to ~1e-6 relative at interior
    points of the feasible box.
    """
    if not (1.0 < m1 < scenario.M - 1):
        raise DomainError(f"m1 must lie in (1, M-1), got {m1!r}")
    _check_point(scenario, m1, d_r1, d_r2)
    m2 = scenario.M - m1
    d1 = scenario.d_m1 + d_r1
    d2 = scenario.d_m2 + d_r2
    ab = _link_log_derivatives(scenario.gamma_ab, m1, d1)
    ae = _link_log_derivatives(scenario.gamma_ae, m1, d1)
    ba = _link_log_derivatives(scenario.gamma_ba, m2, d2)
    be = _link_log_derivatives(scenario.gamma_be, m2, d2)
    p = math.exp(log_round_trip_success(scenario, m1, d_r1, d_r2))
    # log P = log(1-eps_ab) + log(eps_ae) + log(1-eps_ba) + log(eps_be);
    # backward links see m2 = M - m1, hence the sign flip on their
    # m-derivatives.
    dlogp_dm1 = (ab["dlog_comp_dm"] + ae["dlog_eps_dm"]
                 - ba["dlog_comp_dm"] - be["dlog_eps_dm"])
    dlogp_dr1 = ab["dlog_comp_dd"] + ae["dlog_eps_dd"]
    dlogp_dr2 = ba["dlog_comp_dd"] + be["dlog_eps_dd"]
    return (-p * dlogp_dm1, -p * dlogp_dr1, -p * dlogp_dr2)


__all__ = [
    "Allocation", "LinkErrors", "FeasibleBox",
    "link_errors", "lfp", "lfp_value",
    "log_direction_success", "log_round_trip_success",
    "redundancy_bounds", "lfp_gradient_reduced",
]
