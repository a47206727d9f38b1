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
and ``link_errors`` validate their arguments; ``log_direction_success``,
``log_round_trip_success`` and the solvers' box function ``_split_boxes``
sit below that boundary and run on whatever they are given.

The per-link constants are computed once per scenario
(``link_constants``), not once per call, and hold ln(1+gamma) twice:
the margin kernel's value (``np.log1p``, as ``fbl_core.rate_margin``
computes it) and the threshold boxes' value (``math.log1p``).  The two
differ in the last bit on a few per cent of SNRs.  With the kernel's
value and V(gamma) cached, the scalar round trip evaluates the shared
margin expression (``fbl_core._margin``) in plain floats and makes one
``log_ndtr`` call for its four links, bit for bit what the vector path
(``log_direction_success``) returns at the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr

from .fbl_core import (
    LN2,
    DomainError,
    _margin,
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
    Accepts arrays in m and d (the exhaustive scan and the m1 bracket
    grid).  Unchecked, like ``rate_margin``: the caller passes in-domain
    values.
    """
    w_b = rate_margin(gamma_b, m, d)
    w_e = rate_margin(gamma_e, m, d)
    return log_ndtr(w_b) + log_ndtr(-np.asarray(w_e))


def _log_success(links, m1, m2, d1, d2):
    """log of the round-trip success product at scalar blocklengths and
    total bits, each direction at its own blocklength; ``links`` is
    ``link_constants(scenario)``.

    The four margins go through one ``log_ndtr`` call and are summed per
    direction, then across, in the order ``log_direction_success`` sums
    them, so the result equals the sum of its two directions bit for
    bit.
    """
    (l_ab, v_ab, _, _), (l_ae, v_ae, _, _), (l_ba, v_ba, _, _), \
        (l_be, v_be, _, _) = links
    sqrt = math.sqrt
    a, b, c, d = log_ndtr((_margin(l_ab, v_ab, m1, d1, sqrt),
                           -_margin(l_ae, v_ae, m1, d1, sqrt),
                           _margin(l_ba, v_ba, m2, d2, sqrt),
                           -_margin(l_be, v_be, m2, d2, sqrt))).tolist()
    return (a + b) + (c + d)


def log_round_trip_success(scenario, m1, d_r1, d_r2):
    """log of the round-trip success product at a (possibly relaxed)
    scalar point; m2 = M - m1 throughout the reduced space.  Unchecked."""
    return _log_success(link_constants(scenario), m1, scenario.M - m1,
                        scenario.d_m1 + d_r1, scenario.d_m2 + d_r2)


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
    return -math.expm1(_log_success(link_constants(scenario), alloc.m1,
                                    alloc.m2, scenario.d_m1 + alloc.d_r1,
                                    scenario.d_m2 + alloc.d_r2))


# ----------------------------------------------------------------------
# Threshold geometry
# ----------------------------------------------------------------------

class _Link(NamedTuple):
    """Constants of one link that depend on the scenario alone."""

    log1p: float      # ln(1+gamma) of the margin kernel: np.log1p
    v: float          # dispersion V(gamma)
    box_log1p: float  # ln(1+gamma) of the threshold box: math.log1p
    q: float          # Qinv(threshold)


@lru_cache(maxsize=1024)
def link_constants(scenario: Scenario):
    """The constants (``_Link``) of the links ab, ae, ba, be, in that order.

    Each is computed once, V and Qinv through the checked ``dispersion``
    and ``q_inv``, and cached by the scenario's field values.  ``log1p``
    and ``v`` are the ln(1+gamma) and V(gamma) that
    ``fbl_core.rate_margin`` computes, so the scalar kernel built on
    them returns its bits.
    """
    return tuple(_Link(float(np.log1p(gamma)), dispersion(gamma),
                       math.log1p(gamma), q_inv(eps))
                 for gamma, eps in ((scenario.gamma_ab, scenario.eps_ab_max),
                                    (scenario.gamma_ae, scenario.eps_e_max),
                                    (scenario.gamma_ba, scenario.eps_ba_max),
                                    (scenario.gamma_be, scenario.eps_e_max)))


def _direction_bounds(legit, eve, d_m, m, sqrt=math.sqrt, maximum=max):
    """Exact inversion of the error probability through the thresholds.

    Reliability eps_b <= eps_b_max caps the total bits from above,
    leakage eps_e >= eps_e_max from below; in nats, as the margin
    kernel works:

        d * ln2 <= m * ln(1+gamma_b) - sqrt(m * V_b) * Qinv(eps_b_max)
        d * ln2 >= m * ln(1+gamma_e) - sqrt(m * V_e) * Qinv(eps_e_max)

    The box takes ln(1+gamma) from ``math.log1p`` and the kernel from
    ``np.log1p``, which can differ in the last bit, so the margin at a
    box edge reproduces the threshold to ~1e-12, not to the last ulp.

    ``legit`` and ``eve`` are ``link_constants`` entries.  ``m`` is a
    float with the default ``math`` operations, or an array with
    ``np.sqrt`` and ``np.maximum``; both give the same bits per element.
    """
    d_max = (m * legit.box_log1p - sqrt(m * legit.v) * legit.q) / LN2 - d_m
    d_min = (m * eve.box_log1p - sqrt(m * eve.v) * eve.q) / LN2 - d_m
    return maximum(0.0, d_min), d_max


def _split_boxes(links, scenario, m1, m2, sqrt=math.sqrt, maximum=max):
    """Unchecked boxes of both directions, direction 1 at ``m1`` and 2
    at ``m2``: (d_r1_min, d_r1_max, d_r2_min, d_r2_max, feasible), for
    floats or, with ``np.sqrt`` and ``np.maximum``, arrays."""
    ab, ae, ba, be = links
    lo1, hi1 = _direction_bounds(ab, ae, scenario.d_m1, m1, sqrt, maximum)
    lo2, hi2 = _direction_bounds(ba, be, scenario.d_m2, m2, sqrt, maximum)
    feasible = (lo1 <= hi1) & (lo2 <= hi2) & (hi1 >= 0.0) & (hi2 >= 0.0)
    return lo1, hi1, lo2, hi2, feasible


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
    lo1, hi1, lo2, hi2, feasible = _split_boxes(link_constants(scenario),
                                                scenario, m1, m2)
    return FeasibleBox(d_r1_min=lo1, d_r1_max=hi1,
                       d_r2_min=lo2, d_r2_max=hi2, feasible=feasible)


# ----------------------------------------------------------------------
# Reduced-space gradient
# ----------------------------------------------------------------------

def _link_log_derivatives(link, m, d):
    """d(log eps)/d(m,d) and d(log(1-eps))/d(m,d) for one link, with
    ``link`` its ``link_constants`` entry.

    Built from the hazard ratios phi(w)/Q(+-w), which stay finite where
    eps or its complement underflow.
    """
    w = _margin(link.log1p, link.v, m, d, math.sqrt)
    sqrt_mv = math.sqrt(m * link.v)
    dw_dm = (link.log1p + d * LN2 / m) / (2.0 * sqrt_mv)
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
    c_ab, c_ae, c_ba, c_be = link_constants(scenario)
    ab = _link_log_derivatives(c_ab, m1, d1)
    ae = _link_log_derivatives(c_ae, m1, d1)
    ba = _link_log_derivatives(c_ba, m2, d2)
    be = _link_log_derivatives(c_be, m2, d2)
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
