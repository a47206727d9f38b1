"""Round-trip objective and feasibility geometry.

The leakage-failure probability (LFP) of a round trip is

    lfp = 1 - (1 - eps_ab) * eps_ae * (1 - eps_ba) * eps_be,

the probability that the two transmissions are not simultaneously
reliable (both legitimate decodes succeed) and secure (both eavesdrops
fail).  This module provides the per-link error evaluation, the
per-direction log success probability, the LFP itself, the redundancy
bounds induced by the reliability/leakage thresholds, and the analytic
LFP gradient in the reduced variable space (m1, d_r1, d_r2) with
m2 = M - m1.  A direction's best bits at a blocklength are the root of
one log hazard balance (``_hazard_balance``), which BCD/MM's redundancy
steps (``solvers._direction_balance``), the oracle's first-maximum
estimate (``_first_maximum_start``) and its cell bound
(``_cell_bound``, each link at its own blocklength) all evaluate.

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
(``link_constants``), not once per call, with one ln(1+gamma) per link
(``np.log1p``, as ``fbl_core.rate_margin`` computes it) for the margins
and the threshold boxes alike.  One kernel, ``_link_pair``, evaluates a
link pair's margins and log factors from these constants, on floats or
arrays with the same bits; ``log_direction_success``, the scalar round
trip, ``_direction_log_terms`` and the balance sum it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr

# ``decode_error_prob``, ``dispersion``, ``q_inv`` and ``rate_margin``
# are unused here, but benchmarks/tracing.py instruments them at this
# import site, so the names stay bound.
from .fbl_core import (  # noqa: F401
    LN2,
    DomainError,
    _dispersion,
    _error_prob,
    _log_hazard,
    _margin,
    _q_inv,
    decode_error_prob,
    dispersion,
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
    """Evaluate the decoding error probability on all four links: the
    bits of ``decode_error_prob``, from the scenario's link constants."""
    _check_alloc(scenario, alloc)
    ab, ae, ba, be = link_constants(scenario)
    d1 = scenario.d_m1 + alloc.d_r1
    d2 = scenario.d_m2 + alloc.d_r2
    return LinkErrors(*(_error_prob(_margin(link.log1p, link.v, m, d))
                        for link, m, d in ((ab, alloc.m1, d1),
                                           (ae, alloc.m1, d1),
                                           (ba, alloc.m2, d2),
                                           (be, alloc.m2, d2))))


def _link_pair(legit, eve, m_b, m_e, D, sqrt):
    """The one link kernel: the margins and log success factors of a
    direction's two links at total bits D, the legitimate link at
    blocklength m_b and the eavesdropper at m_e: (w_b, w_e, l_b, l_e).

    ``legit`` and ``eve`` are ``link_constants`` entries.  The factors
    l_b = log_ndtr(w_b) = log(1 - eps_b) and l_e = log_ndtr(-w_e) =
    log(eps_e) stay finite and accurate where the plain probabilities
    saturate; ``math.sqrt`` on floats and ``np.sqrt`` on arrays give the
    same bits.  Unchecked.
    """
    w_b = _margin(legit.log1p, legit.v, m_b, D, sqrt)
    w_e = _margin(eve.log1p, eve.v, m_e, D, sqrt)
    return w_b, w_e, log_ndtr(w_b), log_ndtr(-w_e)


def _direction_log_terms(legit, eve, m, D):
    """A direction's log success l = l_b + l_e and its first and second
    derivatives at scalar blocklength m and total bits D:
    (l, dl/dm, dl/dD, d2l/dm2, d2l/dm dD, d2l/dD2).

    d(log_ndtr)/dx is h(x) = exp(``_log_hazard``(x)), which stays finite
    where the factor saturates, and h'(x) = -h(x) (x + h(x)).  Unchecked.
    """
    w_b, w_e, l_b, l_e = _link_pair(legit, eve, m, m, D, math.sqrt)
    h_b = math.exp(_log_hazard(w_b, l_b))
    h_e = math.exp(_log_hazard(-w_e, l_e))
    s_b, s_e = math.sqrt(m * legit.v), math.sqrt(m * eve.v)
    # per link, s = sqrt(m*V), r = D*ln2/m: dw/dm = (ln(1+gamma) + r)/(2s),
    # -dw/dD = ln2/s, d2w/dm2 = -(ln(1+gamma) + 3r)/(4ms), d2w/dm dD =
    # ln2/(2ms), d2w/dD2 = 0; g is h'(w_b) and h'(-w_e)
    r = D * LN2 / m
    wm_b, wm_e = (legit.log1p + r) / (2.0 * s_b), (eve.log1p + r) / (2.0 * s_e)
    wD_b, wD_e = LN2 / s_b, LN2 / s_e
    g_b, g_e = -h_b * (w_b + h_b), -h_e * (h_e - w_e)
    return (float(l_b + l_e), h_b * wm_b - h_e * wm_e, h_e * wD_e - h_b * wD_b,
            g_b * wm_b * wm_b + g_e * wm_e * wm_e
            - h_b * (legit.log1p + 3.0 * r) / (4.0 * m * s_b)
            + h_e * (eve.log1p + 3.0 * r) / (4.0 * m * s_e),
            -g_b * wm_b * wD_b - g_e * wm_e * wD_e
            + (h_b * wD_b - h_e * wD_e) / (2.0 * m),
            g_b * wD_b * wD_b + g_e * wD_e * wD_e)


def log_direction_success(legit, eve, m, d):
    """A direction's log success l_b + l_e (``_link_pair``) on arrays in
    m and d (the exhaustive scan and the m1 bracket grid).  Unchecked:
    the caller passes in-domain values."""
    _, _, l_b, l_e = _link_pair(legit, eve, m, m, d, np.sqrt)
    return l_b + l_e


def _log_success(links, m1, m2, d1, d2):
    """log of the round-trip success product at scalar blocklengths and
    total bits, each direction at its own blocklength; ``links`` is
    ``link_constants(scenario)``.  The sum of its two directions."""
    ab, ae, ba, be = links
    _, _, l_ab, l_ae = _link_pair(ab, ae, m1, m1, d1, math.sqrt)
    _, _, l_ba, l_be = _link_pair(ba, be, m2, m2, d2, math.sqrt)
    return float((l_ab + l_ae) + (l_ba + l_be))


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
    """Scalar LFP at a reduced-space point (m2 = M - m1), checked:
    -expm1 of the log round-trip success."""
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

    log1p: float  # ln(1+gamma): np.log1p
    v: float      # dispersion V(gamma)
    q: float      # Qinv(threshold)


@lru_cache(maxsize=1024)
def link_constants(scenario: Scenario):
    """The constants (``_Link``) of the links ab, ae, ba, be, in that
    order, cached by the scenario's field values and unchecked
    (``Scenario`` has validated them): ``log1p`` and ``v`` are
    ``fbl_core.rate_margin``'s, so the link kernel returns its bits.
    """
    return tuple(_Link(float(np.log1p(gamma)), float(_dispersion(gamma)),
                       float(_q_inv(eps)))
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

    ``legit`` and ``eve`` are ``link_constants`` entries.  ``m`` is a
    float with the default ``math`` operations, or an array with
    ``np.sqrt`` and ``np.maximum``; both give the same bits per element.
    """
    d_max = (m * legit.log1p - sqrt(m * legit.v) * legit.q) / LN2 - d_m
    d_min = (m * eve.log1p - sqrt(m * eve.v) * eve.q) / LN2 - d_m
    return maximum(0.0, d_min), d_max


def _direction_bound_slopes(legit, eve, m, lo):
    """d/dm and d2/dm2 of ``_direction_bounds``' (d_min, d_max) at a
    scalar blocklength m whose clamped lower bound is ``lo``: (d_min',
    d_max', d_min'', d_max'').

    Each edge (m * ln(1+gamma) - sqrt(m * V) * Qinv) / ln2 - d_m has
    slope s = (ln(1+gamma) - Qinv * sqrt(V / m) / 2) / ln2 and curvature
    (ln(1+gamma) / ln2 - s) / (2m), on the legitimate link for d_max and
    on the eavesdropper for d_min; a lower bound clamped at 0 (``lo`` <=
    0) has slope and curvature 0.  Unchecked.
    """
    slope_hi = (legit.log1p - 0.5 * legit.q * math.sqrt(legit.v / m)) / LN2
    curv_hi = (legit.log1p / LN2 - slope_hi) / (2.0 * m)
    if lo <= 0.0:
        return 0.0, slope_hi, 0.0, curv_hi
    slope_lo = (eve.log1p - 0.5 * eve.q * math.sqrt(eve.v / m)) / LN2
    return (slope_lo, slope_hi, (eve.log1p / LN2 - slope_lo) / (2.0 * m),
            curv_hi)


def _split_boxes(links, scenario, m1, m2):
    """Unchecked boxes of both directions at the float blocklengths,
    direction 1 at ``m1`` and 2 at ``m2``: (d_r1_min, d_r1_max,
    d_r2_min, d_r2_max, feasible)."""
    ab, ae, ba, be = links
    lo1, hi1 = _direction_bounds(ab, ae, scenario.d_m1, m1)
    lo2, hi2 = _direction_bounds(ba, be, scenario.d_m2, m2)
    feasible = lo1 <= hi1 and lo2 <= hi2  # lo >= 0, so hi >= 0 too
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
# Hazard balance and reduced-space gradient
# ----------------------------------------------------------------------

# Smallest margin at which scipy's ``log_ndtr`` returns 0.0 (found by
# float bisection on scipy 1.17.1; ``log_ndtr`` is monotone around it).
# Only ``_first_maximum_start`` uses it: a wrong value costs fallbacks
# to the bisection, never a different table.
_LOG_NDTR_ZERO = 37.67712072049519


def _balanced_start(legit, eve, m_b, m_e, sqrt):
    """The geometry of a direction's hazard balance, the legitimate link
    at blocklength m_b and the eavesdropper at m_e.

    Both margins are linear in the total bits D: w = alpha - c*D.
    Returns (D_bal, c_b, c_e, alpha_e), D_bal the balanced-margin point
    w_b = -w_e.  Floats with ``math.sqrt`` and arrays with ``np.sqrt``
    give the same bits per element.  Unchecked.
    """
    s_b, s_e = sqrt(m_b / legit.v), sqrt(m_e / eve.v)
    c_b, c_e = LN2 / m_b * s_b, LN2 / m_e * s_e
    alpha_e = eve.log1p * s_e
    return (legit.log1p * s_b + alpha_e) / (c_b + c_e), c_b, c_e, alpha_e


def _hazard_balance(legit, eve, m_b, m_e, D, c_b, c_e, log_ratio, sqrt, exp):
    """The log hazard balance r(D) = log(c_e*h(-w_e)) - log(c_b*h(w_b)),
    h = phi/Phi, of a direction at total bits D, its links at
    blocklengths m_b and m_e: (r, dr/dD, w_b, w_e, l_b, l_e, h_b, h_e),
    with ``_link_pair``'s margins and log factors and the hazards h_b,
    h_e.

    r has the sign of g'(D), g = l_b + l_e, and falls strictly in D
    (x + h(x) > 0), so its root is g's maximizer.  (c_b, c_e) are
    ``_balanced_start``'s; ``log_ratio`` = log(c_e / c_b) is the
    caller's.  ``math.sqrt``, ``math.exp`` on floats and ``np.sqrt``,
    ``np.exp`` on arrays.  Costs one link-pair evaluation.  Unchecked.
    """
    w_b, w_e, l_b, l_e = _link_pair(legit, eve, m_b, m_e, D, sqrt)
    lh_b, lh_e = _log_hazard(w_b, l_b), _log_hazard(-w_e, l_e)
    h_b, h_e = exp(lh_b), exp(lh_e)
    # d(log h)/dx = -(x + h(x))
    r = log_ratio + lh_e - lh_b
    slope = -(c_e * (h_e - w_e) + c_b * (w_b + h_b))
    return r, slope, w_b, w_e, l_b, l_e, h_b, h_e


def _first_maximum_start(legit, eve, d_m, m, lo, hi, log_ratio):
    """An estimate of where a direction's log success g first peaks in
    the redundancy, at every blocklength of the array ``m`` with box
    [lo, hi], in redundancy units.

    The constants, d_m and ``log_ratio`` = 0.5 * math.log(V_b / V_e)
    are scalars or per-blocklength arrays.  The start is
    ``_balanced_start``'s balanced-margin point, clipped to the box.
    Where g is exactly 0.0 there (both margins at least
    ``_LOG_NDTR_ZERO``), g's first maximum is the first D at which the
    eavesdropper's log_ndtr(-w_e) reaches 0.0, and the estimate is
    ceil((_LOG_NDTR_ZERO + alpha_e) / c_e).  Elsewhere it is one Newton
    step from the start on ``_hazard_balance``, whose root is
    g'(D) = 0; where that step is not finite the estimate is the start.
    Nothing here is checked.  Costs one link-pair evaluation per
    blocklength.
    """
    balanced, c_b, c_e, alpha_e = _balanced_start(legit, eve, m, m, np.sqrt)
    start = np.minimum(np.maximum(balanced, d_m + lo), d_m + hi)
    r, slope, w_b, w_e, *_ = _hazard_balance(
        legit, eve, m, m, start, c_b, c_e, log_ratio, np.sqrt, np.exp)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = start - r / slope
    newton = np.where(np.isfinite(newton), newton, start)
    plateau = np.ceil((_LOG_NDTR_ZERO + alpha_e) / c_e)
    flat = np.minimum(w_b, -w_e) >= _LOG_NDTR_ZERO
    return np.where(flat, plateau, newton) - d_m


def _cell_bound(legit, eve, m_b, m_e, lo, hi):
    """An upper bound on a direction's log success g(m, D) over a cell
    of blocklengths m in [m_e, m_b] and total bits D in [lo, hi],
    0 <= lo <= hi, and the D* it was taken at: (bound, D*).

    For D >= 0 both margins rise with m, so over the cell
    g <= U(D) = log_ndtr(w_b(m_b, D)) + log_ndtr(-w_e(m_e, D)), which is
    concave in D and so at most its tangent at any D*:
    U(D*) + max(U'(D*) (lo - D*), U'(D*) (hi - D*)), capped at 0.  D* is
    one Newton step on U's ``_hazard_balance`` from the balanced-margin
    point, clipped to [lo, hi]: a step on U' itself falls far short
    where the hazards are tail values; where a hazard overflows (a
    legitimate margin below about -3e9) the bound reads NaN or 0.0.
    ``legit`` and ``eve`` are ``link_constants`` entries, or ``_Link``s
    of arrays that broadcast against the others.  Costs two link-pair
    evaluations per element.  Unchecked.
    """
    balanced, c_b, c_e, _ = _balanced_start(legit, eve, m_b, m_e, np.sqrt)
    args = (c_b, c_e, np.log(c_e / c_b), np.sqrt, np.exp)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        D = np.minimum(np.maximum(balanced, lo), hi)
        r, slope, *_ = _hazard_balance(legit, eve, m_b, m_e, D, *args)
        newton = D - r / slope
        D = np.minimum(np.maximum(np.where(np.isfinite(newton), newton, D),
                                  lo), hi)
        *_, l_b, l_e, h_b, h_e = _hazard_balance(legit, eve, m_b, m_e, D, *args)
        du = c_e * h_e - c_b * h_b
        return np.minimum(l_b + l_e + np.maximum(du * (lo - D), du * (hi - D)),
                          0.0), D


def lfp_gradient_reduced(scenario: Scenario, m1: float, d_r1: float,
                         d_r2: float):
    """Analytic gradient of the LFP in (m1, d_r1, d_r2), m2 = M - m1.

    Composed through each direction's ``_direction_log_terms``:
    grad lfp = -P * grad log P with P the round-trip success product.
    Matches central finite differences to ~1e-6 relative at interior
    points of the feasible box.
    """
    if not (1.0 < m1 < scenario.M - 1):
        raise DomainError(f"m1 must lie in (1, M-1), got {m1!r}")
    _check_point(scenario, m1, d_r1, d_r2)
    ab, ae, ba, be = link_constants(scenario)
    l1, dm1, dd1 = _direction_log_terms(ab, ae, m1, scenario.d_m1 + d_r1)[:3]
    l2, dm2, dd2 = _direction_log_terms(ba, be, scenario.M - m1,
                                        scenario.d_m2 + d_r2)[:3]
    p = math.exp(l1 + l2)
    # direction 2 sees m2 = M - m1, hence the sign flip on its dl/dm
    return (-p * (dm1 - dm2), -p * dd1, -p * dd2)


__all__ = [
    "Allocation", "LinkErrors", "FeasibleBox",
    "link_errors", "lfp", "lfp_value",
    "log_direction_success", "log_round_trip_success",
    "redundancy_bounds", "lfp_gradient_reduced",
]
