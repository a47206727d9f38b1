"""Three optimizers over the round-trip allocation.

* ``solve_exhaustive`` -- integer enumeration, the global oracle.  The
  objective factors into independent per-direction success terms, so
  each direction is maximized over its integer redundancy box at every
  blocklength and the maxima are combined over the splits.  For a fixed
  blocklength a direction's log success is concave in the redundancy
  (log Phi is concave), so its first maximizer is the smallest d with
  g(d+1) <= g(d).  For all blocklengths at once, a Newton estimate (or,
  on an exact 0.0 plateau, the plateau's first point) gives two
  candidates that are checked exactly against that condition; the few
  blocklengths where the check fails are bisected.  About five link
  evaluations per blocklength and direction, O(M) in all, instead of the
  O(M * range) dense scan, with the same first-maximum tie rule.
* ``solve_bcd`` -- block coordinate descent on the relaxed problem:
  an m1 block followed by the exact relaxed optimum of d_r1, then of
  d_r2, in their threshold boxes refreshed after every m1 update (at a
  fixed split each direction's log success is concave in its
  redundancy, so each is a safeguarded Newton solve on the hazard
  balance).  The m1 block moves the split along the profile that
  carries the redundancy pair at its box-relative position: a coarse
  grid finds the best basin, and the root of the profile's closed-form
  slope in its grid bracket refines it.  Both blocks share one
  bracketed root finder (``_bracketed_root``).  In integer mode an
  exact per-split finish follows: the splits floor(m1) - 1 ...
  ceil(m1) + 1 around the relaxed m1, each
  with its best integer redundancy pair from the oracle's own
  per-direction tables (``_best_split``).
* ``solve_mm`` -- the same outer alternation, but the redundancy pair is
  minimized jointly through a majorize-minimize loop on the reciprocal
  success product, built on the model's per-link log terms; the loop
  refuses any step that would increase the true objective, and BCD's
  redundancy step takes over where it stalls.

BCD and MM differ only in their redundancy update and share the outer
loop around it (``_descend``) and the integer finish.

Every accepted step is checked against the incumbent, so traces are
nonincreasing by construction.  All solvers are deterministic functions
of (scenario, config).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# ``dispersion``, ``rate_margin``, ``redundancy_bounds``, ``lfp_value``
# and ``log_round_trip_success`` are unused here, but
# benchmarks/tracing.py instruments them at this import site, so the
# names stay bound.
from .fbl_core import DomainError, NumericalError, dispersion, rate_margin  # noqa: F401
from .lfp_model import (  # noqa: F401
    Allocation,
    LinkErrors,
    _balanced_start,
    _direction_bound_slopes,
    _first_maximum_start,
    _hazard_balance,
    _link_log_terms,
    _log_success,
    _split_boxes,
    lfp_value,
    link_constants,
    log_direction_success,
    log_round_trip_success,
    redundancy_bounds,
)
from .scenario import Scenario

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Bracketing grid for the m1 block: coarse enough to be cheap, fine
# enough to isolate the global basin of the (empirically unimodal)
# split profile.
_M1_GRID = 32
# Run control of BCD and MM: relative stopping tolerance (outer cycle
# and MM step), outer and MM-step caps, and the absolute tolerance in
# m1 of the m1 block's root and feasibility-edge searches, which is
# also the smallest move that lets the MM loop go on.
_REL_TOL = 1e-8
_MAX_OUTER_ITERS = 100
_MAX_INNER_ITERS = 200
_LINE_SEARCH_TOL = 1e-6
# The redundancy block's Newton step tolerance, relative to
# max(1, |D|), and a cap on the steps of every bracketed search;
# bisection alone reaches the cap only on a bracket wider than 1e21
# times its tolerance.
_BLOCK_TOL = 1e-9
_MAX_BLOCK_ITERS = 100
# Absolute floor added to the relative stopping test; below this the
# double-precision evaluation itself is noise.
_STOP_ATOL = 1e-12
# Smallest normal float: ``_first_maxima`` accepts no candidate whose
# nonzero log success is smaller in magnitude.
_TINY = float(np.finfo(float).tiny)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverConfig:
    """Problem and method choices shared by the three solvers.

    ``surrogate_exponent=2`` reproduces the printed form of the
    reciprocal-mean bound, which does not actually upper-bound the
    product (see ``surrogate_g``); with the default 4 the bound holds
    everywhere.  ``mm_safeguard`` switches MM's BCD fallback (see
    ``solve_mm``); ``integer_mode`` rounds BCD/MM's relaxed solution.
    ``full_budget_only`` restricts enumeration to m1 + m2 = M; disabling
    it is only useful for oracle cross-checks, since partial-budget
    optima are never better unless the full-budget boxes are empty
    (eavesdroppers above their legitimate receivers).  Run control is
    fixed: stop when a cycle changes the LFP by at most 1e-8 relative
    plus 1e-12 absolute, or after 100 cycles; at most 200 MM steps,
    MM step tolerance 1e-6; the m1 block's root of the profile slope to
    1e-6 in m1; redundancy-block Newton step tolerance 1e-9 relative.
    """

    surrogate_exponent: int = 4
    mm_safeguard: bool = True
    integer_mode: bool = True
    full_budget_only: bool = True

    def __post_init__(self):
        if self.surrogate_exponent not in (2, 4):
            raise DomainError("surrogate_exponent must be 2 or 4")


@dataclass
class SolverReport:
    """Outcome of one solve: final allocation, objective, per-iteration
    trace [(k, lfp_k)], objective-evaluation count and wall time.

    ``evaluations`` counts link-pair evaluations in the oracle's tables
    (one direction at one blocklength and redundancy), with no final
    re-evaluation of the winner, and the points BCD/MM's descent scores,
    each once: scalar round trips, m1-grid points, the m1 block's
    profile points (a value and its slope from one set of four link
    terms count as one) and MM trial points, whose value is read from
    the four link terms of their surrogate value.  Each hazard-balance
    evaluation of BCD's redundancy block (also MM's fallback) counts as
    one link-pair evaluation, about five per direction and block;
    BCD/MM's integer finish adds its tables' link-pair evaluations,
    about five per direction at each split it tries.
    """

    status: str
    alloc: Allocation | None
    lfp_final: float | None
    trace: list = field(default_factory=list)
    evaluations: int = 0
    wall_time: float = 0.0

    @property
    def iterations(self):
        """Outer iterations run: the last trace index (0 for the oracle
        and for an infeasible start)."""
        return max((k for k, _ in self.trace), default=0)

    def to_dict(self):
        alloc = None
        if self.alloc is not None:
            alloc = {"m1": self.alloc.m1, "m2": self.alloc.m2,
                     "d_r1": self.alloc.d_r1, "d_r2": self.alloc.d_r2}
        return {
            "status": self.status,
            "alloc": alloc,
            "lfp_final": self.lfp_final,
            "iterations": self.iterations,
            "trace": [[k, v] for k, v in self.trace],
            "evaluations": self.evaluations,
            "wall_time": self.wall_time,
        }


def bcd_scalar_min(objective, lo, hi, tol):
    """Golden-section search for the minimizer of a unimodal objective.

    No solver calls it: BCD/MM's blocks find roots of their slopes
    instead (``_bracketed_root``).  It stays public and bound because
    the benchmark's tracer instruments it by name; it goes when the
    tracer's name list is trimmed.

    Returns x with |x - argmin| <= tol.  +inf is a value like any other,
    worse than every finite one (``_m1_profile`` returns it at splits
    with an empty box); NaN aborts with :class:`NumericalError`.  On an
    interval collapsed to a point the point itself is returned.
    """
    if lo > hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    if hi - lo <= tol:
        return 0.5 * (lo + hi)
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while True:
        if math.isnan(fc) or math.isnan(fd):
            raise NumericalError("objective returned NaN")
        if b - a <= tol:
            return 0.5 * (a + b)
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)


# ----------------------------------------------------------------------
# shared solver scaffolding
# ----------------------------------------------------------------------

class _Objective:
    """Negative log round-trip success with an evaluation counter, and
    the solve's link constants.

    Minimizing it is equivalent to minimizing the LFP but it stays
    informative where the LFP itself underflows.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.links = link_constants(scenario)
        self.evaluations = 0

    def box(self, m1, sqrt=math.sqrt, maximum=max):
        """Redundancy boxes of split m1 (m2 = M - m1) and their
        feasibility, straight from the solve's constants, with no check:
        (d_r1_min, d_r1_max, d_r2_min, d_r2_max, feasible).  ``m1`` is a
        float, or an array with ``np.sqrt`` and ``np.maximum``."""
        return _split_boxes(self.links, self.scenario, m1,
                            self.scenario.M - m1, sqrt, maximum)

    def nl(self, m1, d_r1, d_r2):
        """-``log_round_trip_success`` on the solve's own constants,
        unchecked: solver points are in the domain by construction."""
        self.evaluations += 1
        sc = self.scenario
        return -_log_success(self.links, m1, sc.M - m1,
                             sc.d_m1 + d_r1, sc.d_m2 + d_r2)


def _rel_pos(x, lo, hi):
    if hi <= lo:
        return 0.5
    return (x - lo) / (hi - lo)


def _bracketed_root(fn, a, fa, b, fb, x=None, atol=0.0, rtol=0.0):
    """A root of ``fn`` in the bracket [a, b] of a function that falls
    through zero there: fa = fn(a) > 0 > fb = fn(b).

    ``fn(x)`` returns (value, slope), the slope None where it is not
    known.  From the start x (by default the false-position point of
    the ends), each value narrows the bracket to its sign change, and
    the next point is the Newton step where the slope is known, else the
    Illinois false-position step on the bracket ends (an end kept twice
    in a row has its value halved); a step that would leave the bracket
    is replaced by its midpoint (rtsafe).  Stops at a zero or NaN value,
    after a step of at most max(atol, rtol * |step|) or after
    ``_MAX_BLOCK_ITERS`` values, and returns the last point reached.
    """
    if x is None:
        x = (a * fb - b * fa) / (fb - fa)
    kept = 0  # +1: the last value moved a, -1: it moved b
    for _ in range(_MAX_BLOCK_ITERS):
        r, slope = fn(x)
        if r > 0.0:
            if kept > 0:
                fb *= 0.5
            a, fa, kept = x, r, 1
        elif r < 0.0:
            if kept < 0:
                fa *= 0.5
            b, fb, kept = x, r, -1
        else:
            break
        if slope is None:
            step = (a * fb - b * fa) / (fb - fa)
        else:
            step = x - r / slope
        if not a <= step <= b:  # NaN included
            step = 0.5 * (a + b)
        done = abs(step - x) <= max(atol, rtol * abs(step))
        x = step
        if done:
            break
    return x


def _m1_profile(obj, m1, t1, t2):
    """The carried profile p at split m1 and its slope: the objective
    with the redundancy pair at the box-relative positions (t1, t2) of
    split m1's box.

    Returns (p, dp/dm1, d_r1, d_r2), or (+inf, NaN, None, None) where
    the box is empty.  p and its slope come from the same four
    ``_link_log_terms``, p with ``_Objective.nl``'s bits, and count as
    one evaluation.  The slope adds the links' dl/dm to their dl/dd
    times the carried pair's slope, which the box edges give
    (``_direction_bound_slopes``); m2 = M - m1 turns direction 2's
    signs.
    """
    sc = obj.scenario
    m2 = sc.M - m1
    lo1, hi1, lo2, hi2, feasible = obj.box(m1)
    if not feasible:
        return math.inf, math.nan, None, None
    d_r1, d_r2 = lo1 + t1 * (hi1 - lo1), lo2 + t2 * (hi2 - lo2)
    obj.evaluations += 1
    ab, ae, ba, be = obj.links
    ((l_ab, dm_ab, dd_ab), (l_ae, dm_ae, dd_ae),
     (l_ba, dm_ba, dd_ba), (l_be, dm_be, dd_be)) = _link_log_terms(
        obj.links, m1, m2, sc.d_m1 + d_r1, sc.d_m2 + d_r2)
    slo1, shi1 = _direction_bound_slopes(ab, ae, m1, lo1)
    slo2, shi2 = _direction_bound_slopes(ba, be, m2, lo2)
    carry1 = slo1 + t1 * (shi1 - slo1)  # d(d_r1)/dm1
    carry2 = slo2 + t2 * (shi2 - slo2)  # d(d_r2)/dm2 = -d(d_r2)/dm1
    slope = -((dm_ab + dm_ae) + (dd_ab + dd_ae) * carry1
              - (dm_ba + dm_be) - (dd_ba + dd_be) * carry2)
    return -((l_ab + l_ae) + (l_ba + l_be)), slope, d_r1, d_r2


def _nl_grid(obj, m1, d_r1, d_r2, feasible):
    """``_Objective.nl`` at every split of the array ``m1`` with the
    redundancy arrays (d_r1, d_r2), in one vector evaluation with the
    same bits per point; +inf where ``feasible`` is false.  Each
    feasible point counts as one evaluation."""
    scenario = obj.scenario
    ab, ae, ba, be = obj.links
    m = m1[feasible]
    s1 = log_direction_success(ab, ae, m, scenario.d_m1 + d_r1[feasible])
    s2 = log_direction_success(ba, be, scenario.M - m,
                               scenario.d_m2 + d_r2[feasible])
    obj.evaluations += m.size
    vals = np.full(m1.size, math.inf)
    vals[feasible] = -(s1 + s2)
    return vals


def _m1_profile_grid(obj, m1, t1, t2):
    """``_m1_profile``'s values at every split of the array ``m1``, in
    one ``_nl_grid`` call."""
    lo1, hi1, lo2, hi2, feasible = obj.box(m1, np.sqrt, np.maximum)
    return _nl_grid(obj, m1, lo1 + t1 * (hi1 - lo1), lo2 + t2 * (hi2 - lo2),
                    feasible)


def _feasibility_edge(obj, x, y):
    """The feasible end of a bisection between the feasible split x and
    the infeasible split y, to ``_LINE_SEARCH_TOL``: box checks only,
    no link evaluations."""
    for _ in range(_MAX_BLOCK_ITERS):
        if abs(y - x) <= _LINE_SEARCH_TOL:
            break
        mid = 0.5 * (x + y)
        if obj.box(mid)[4]:
            x = mid
        else:
            y = mid
    return x


def _m1_block(obj, m1, d_r1, d_r2, f):
    """One blocklength-split update of (m1, d_r1, d_r2), objective ``f``.

    A plain fixed-redundancy line search cannot leave the thin diagonal
    strip that the thresholds carve out when the legitimate and
    eavesdropper capacities are close, so candidates are evaluated with
    the redundancy pair held at its current box-relative position
    (``_m1_profile``).  A coarse grid on [1, M-1], evaluated in one
    vector call, isolates the best basin.  The profile's slope at the
    grid's best split x points to a neighbour y; where y's box is empty,
    y becomes ``_feasibility_edge``'s split between x and y.  Where the
    slope changes sign between x and y, ``_bracketed_root`` closes in on
    its root with Illinois steps to ``_LINE_SEARCH_TOL``.

    The answer is the best split the block scored, the latest on ties:
    the root finder's points close in on the root, so the latest of
    equal values lies nearest it; without a sign change it is the
    better of x and y.  Its value and carried pair are those of its own
    profile point, so no split is scored twice.  The move is kept only
    if it does not worsen the objective; returns (m1, d_r1, d_r2,
    objective).
    """
    lo1, hi1, lo2, hi2, _ = obj.box(m1)
    t1 = _rel_pos(d_r1, lo1, hi1)
    t2 = _rel_pos(d_r2, lo2, hi2)
    xs = np.linspace(1.0, float(obj.scenario.M - 1), _M1_GRID + 1)
    vals = _m1_profile_grid(obj, xs, t1, t2)
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return m1, d_r1, d_r2, f
    points = {}

    def profile(z):
        if z not in points:
            points[z] = _m1_profile(obj, z, t1, t2)
        return points[z]

    x = float(xs[i])
    s_x = profile(x)[1]
    j = i + 1 if s_x < 0.0 else i - 1 if s_x > 0.0 else i  # 0, NaN: stay
    if j != i and 0 <= j <= _M1_GRID:
        y = float(xs[j])
        if not obj.box(y)[4]:
            y = _feasibility_edge(obj, x, y)
        s_y = profile(y)[1]
        if s_x * s_y < 0.0:
            # the root finder's function falls through zero: -slope
            a, fa, b, fb = (x, -s_x, y, -s_y) if x < y else (y, -s_y, x, -s_x)
            _bracketed_root(lambda z: (-profile(z)[1], None), a, fa, b, fb,
                            atol=_LINE_SEARCH_TOL)
    x = min(reversed(points), key=lambda z: points[z][0])
    value, _, d_r1_new, d_r2_new = points[x]
    if value <= f:
        return x, d_r1_new, d_r2_new, value
    return m1, d_r1, d_r2, f


def _initial_point(obj):
    """Start at the best of 17 splits, the mid-budget split and a
    16-point grid on [1, M-1], each with mid-box redundancy, scored in
    one ``_nl_grid`` call (the first on ties): (m1, d_r1, d_r2,
    objective), or None if no split is feasible."""
    M = obj.scenario.M
    xs = np.concatenate(([float(round(M / 2))], np.linspace(1.0, M - 1.0, 16)))
    lo1, hi1, lo2, hi2, feasible = obj.box(xs, np.sqrt, np.maximum)
    d_r1, d_r2 = 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)
    vals = _nl_grid(obj, xs, d_r1, d_r2, feasible)
    i = int(np.argmin(vals))
    if not feasible[i]:
        return None
    return float(xs[i]), float(d_r1[i]), float(d_r2[i]), float(vals[i])


def _stopped(prev, cur):
    return abs(prev - cur) <= _REL_TOL * abs(prev) + _STOP_ATOL


def _integer_reconstruct(obj, m1):
    """Round a relaxed split m1 to the best integer allocation over the
    splits floor(m1) - 1 ... ceil(m1) + 1 in [1, M - 1], each with its
    exact best redundancy pair (``_best_split``, as the oracle computes
    it).  If no split of that window has an integer box, the oracle's
    over every split is taken.  Returns ``_best_split``'s (allocation,
    log success), or None.
    """
    splits = np.arange(max(1, math.floor(m1) - 1),
                       min(obj.scenario.M - 1, math.ceil(m1) + 1) + 1,
                       dtype=float)
    return (_best_split(obj, splits)
            or _best_split(obj, np.arange(1.0, obj.scenario.M)))


def _report(obj, t_start, status, trace, alloc=None, final=None):
    """Report of a solve started at ``t_start`` (no allocation: none
    was found)."""
    return SolverReport(status=status, alloc=alloc, lfp_final=final,
                        trace=trace, evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


def _descend(scenario, config, redundancy_step):
    """The outer alternation of BCD and MM.

    From ``_initial_point``, each cycle runs the m1 block, refreshes the
    box at the new split, updates the redundancy pair by
    ``redundancy_step(obj, config, m1, d_r1, d_r2, f, (lo1, hi1, lo2,
    hi2))`` and records the LFP -expm1(-f) (``lfp_value``'s bits); the
    incumbent's objective value f is carried, never re-evaluated.  It
    stops when a cycle changes the LFP by at most ``_REL_TOL`` relative
    (with a ``_STOP_ATOL`` floor for LFPs below double-precision
    resolution) or after ``_MAX_OUTER_ITERS`` cycles.  In integer mode
    ``_integer_reconstruct`` finishes exactly at the splits within one
    of floor/ceil of the relaxed m1, with the oracle's per-direction
    tables.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    start = _initial_point(obj)
    if start is None:
        return _report(obj, t_start, STATUS_INFEASIBLE, [])
    m1, d_r1, d_r2, f = start
    trace = [(0, -math.expm1(-f))]
    status = STATUS_MAX_ITERS
    for k in range(1, _MAX_OUTER_ITERS + 1):
        m1, d_r1, d_r2, f = _m1_block(obj, m1, d_r1, d_r2, f)
        box = obj.box(m1)[:4]
        d_r1, d_r2, f = redundancy_step(obj, config, m1, d_r1, d_r2, f, box)
        trace.append((k, -math.expm1(-f)))
        if _stopped(trace[-2][1], trace[-1][1]):
            status = STATUS_CONVERGED
            break
    if not config.integer_mode:
        alloc = Allocation(m1=m1, m2=scenario.M - m1, d_r1=d_r1, d_r2=d_r2)
        return _report(obj, t_start, status, trace, alloc, trace[-1][1])
    best = _integer_reconstruct(obj, m1)
    if best is None:
        return _report(obj, t_start, STATUS_INFEASIBLE, trace)
    alloc, log_p = best
    return _report(obj, t_start, status, trace, alloc, -math.expm1(log_p))


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def _bisect_first_maxima(obj, legit, eve, d_m, m, lo, hi):
    """``_first_maxima`` by bisection: all blocklengths share one
    bisection of about log2(hi - lo) steps for the smallest d in the box
    with g(d+1) <= g(d), or hi if there is none."""
    a, b = lo.copy(), hi.copy()
    active = np.flatnonzero(a < b)
    while active.size:
        mid = np.floor(0.5 * (a[active] + b[active]))
        g = log_direction_success(legit, eve, m[active],
                                  d_m + np.stack((mid, mid + 1.0)))
        obj.evaluations += g.size
        falls = g[1] <= g[0]
        b[active[falls]] = mid[falls]
        a[active[~falls]] = mid[~falls] + 1.0
        active = active[a[active] < b[active]]
    best = log_direction_success(legit, eve, m, d_m + a)
    obj.evaluations += best.size
    return best, a


def _first_maxima(obj, legit, eve, d_m, m, lo, hi):
    """Best integer redundancy of one direction at every blocklength.

    ``legit`` and ``eve`` are the ``link_constants`` entries of the
    direction's two links; ``m``, ``lo`` and ``hi`` are arrays (non-empty
    integer boxes [lo, hi]).  For each m this finds the smallest d in the
    box with g(d+1) <= g(d), or hi if there is none, where g is the
    direction's log success.  g is concave in d (log Phi is concave), so
    that d is the first maximizer a dense scan of the box would return,
    plateau ties included.

    The candidates are e = floor of ``_first_maximum_start``'s estimate,
    clipped to the box, and e + 1; one vector call evaluates g at
    e - 1 ... e + 2.  A candidate d in the box is accepted under the
    bisection's own condition: (d == hi or g(d+1) <= g(d)), not
    (d > lo and g(d) <= g(d-1)), and g(d) is 0.0 or a normal float
    (below the smallest normal float g is not concave in floating
    point).  With the estimate that is five link-pair evaluations per
    blocklength; the few blocklengths where neither candidate passes
    go to ``_bisect_first_maxima``, so every entry is the bisection's.
    Returns (max log success, its d) arrays.
    """
    est = np.floor(_first_maximum_start(legit, eve, d_m, m, lo, hi))
    obj.evaluations += m.size
    ds = np.clip(est, lo, hi) + np.arange(-1.0, 3.0)[:, None]
    g = log_direction_success(legit, eve, m, d_m + ds)
    obj.evaluations += g.size
    c, gc = ds[1:3], g[1:3]
    passes = (((c == hi) | (g[2:] <= gc)) & ~((c > lo) & (gc <= g[:2]))
              & ((gc == 0.0) | (np.abs(gc) >= _TINY)) & (c <= hi))
    # at most one passes: e needs e == hi or g(e+1) <= g(e), e + 1 needs
    # e + 1 <= hi and g(e+1) > g(e)
    second = passes[1]
    best = np.where(second, gc[1], gc[0])
    d = np.where(second, c[1], c[0])
    rest = np.flatnonzero(~(passes[0] | second))
    if rest.size:
        best[rest], d[rest] = _bisect_first_maxima(obj, legit, eve, d_m,
                                                   m[rest], lo[rest], hi[rest])
    return best, d


def _direction_tables(obj, m1, m2):
    """Each direction's best integer redundancy, direction 1 at the
    blocklengths of the array ``m1`` and direction 2 at ``m2``: per
    direction (ok, max log success, its d), where ok marks a non-empty
    integer box and ``_first_maxima`` fills the entries it marks."""
    scenario = obj.scenario
    lo1, hi1, lo2, hi2, _ = _split_boxes(obj.links, scenario, m1, m2,
                                         np.sqrt, np.maximum)
    ab, ae, ba, be = obj.links
    tables = []
    for legit, eve, d_m, m, lo, hi in ((ab, ae, scenario.d_m1, m1, lo1, hi1),
                                       (ba, be, scenario.d_m2, m2, lo2, hi2)):
        lo = np.ceil(lo - 1e-9)
        hi = np.floor(hi + 1e-9)
        ok = hi >= lo
        s = np.full(m.size, -np.inf)
        d = np.zeros(m.size, dtype=np.int64)
        s[ok], d[ok] = _first_maxima(obj, legit, eve, d_m, m[ok],
                                     lo[ok], hi[ok])
        tables.append((ok, s, d))
    return tables


def _best_split(obj, splits):
    """The best full-budget integer allocation over the ascending float
    array ``splits`` of m1 values, each with its exact best redundancy
    pair; the first split on ties, so the smallest (m1, d_r1, d_r2).
    Returns it with its table log success; None when no split has a
    non-empty integer box in both directions.
    """
    M = obj.scenario.M
    (ok1, s1, d1), (ok2, s2, d2) = _direction_tables(obj, splits, M - splits)
    ok = np.flatnonzero(ok1 & ok2)
    if not ok.size:
        return None
    i = ok[np.argmin(-(s1[ok] + s2[ok]))]
    m1 = int(splits[i])
    return (Allocation(m1=m1, m2=M - m1, d_r1=int(d1[i]), d_r2=int(d2[i])),
            float(s1[i] + s2[i]))


def solve_exhaustive(scenario: Scenario, config: SolverConfig | None = None):
    """Global integer optimum by enumeration.

    Each direction's success is maximized over its integer redundancy
    box at every blocklength by ``_first_maxima``.  At full budget
    ``_best_split`` combines them over the splits m1 + m2 = M.  With
    ``full_budget_only=False`` each split m1 is one vector row over
    every m2 <= M - m1: among the row's entries equal to its largest
    sum the smallest d_r2 wins, then the largest m2, and a later split
    replaces the incumbent only on a strictly larger sum.  Either way
    ties resolve to the lexicographically smallest (m1, d_r1, d_r2)
    and, at equal splits, to the fullest budget.  The LFP is -expm1 of
    the winner's table log success, ``lfp``'s bits.
    """
    config = config or SolverConfig()
    if not config.integer_mode:
        raise DomainError("exhaustive search is defined on the integer problem")
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    M = scenario.M

    if config.full_budget_only:
        best = _best_split(obj, np.arange(1.0, M))
    else:
        # both directions over every blocklength 1..M-1; row i pairs
        # m1 = i + 1 with m2 = 1..M-1-i, -inf where a box is empty
        m = np.arange(1.0, M)
        (ok1, s1, d1), (_, s2, d2) = _direction_tables(obj, m, m)
        best, best_sum = None, -math.inf
        for i in np.flatnonzero(ok1).tolist():
            row = s1[i] + s2[:M - 1 - i]
            top = row.max()
            if not top > best_sum:
                continue
            ties = np.flatnonzero(row == top)
            j = int(ties[d2[ties] == d2[ties].min()][-1])
            best_sum = top
            best = (Allocation(m1=i + 1, m2=j + 1, d_r1=int(d1[i]),
                               d_r2=int(d2[j])), float(top))
    if best is None:
        return _report(obj, t_start, STATUS_INFEASIBLE, [])
    alloc, log_p = best
    final = -math.expm1(log_p)
    return _report(obj, t_start, STATUS_CONVERGED, [(0, final)], alloc, final)


# ----------------------------------------------------------------------
# block coordinate descent
# ----------------------------------------------------------------------

def _best_redundancy(obj, legit, eve, d_m, m, lo, hi):
    """A direction's best relaxed redundancy at blocklength m over its
    box [lo, hi]; ``legit`` and ``eve`` are its ``link_constants``
    entries and ``d_m`` its message bits.

    The direction's log success is concave in the total bits D, and
    ``_hazard_balance``'s r(D) has the sign of its slope and falls in D.
    So the answer is lo where r(d_m + lo) <= 0, hi where
    r(d_m + hi) >= 0, and otherwise r's root: Newton from the clipped
    balanced-margin point, bisecting the sign bracket whenever a step
    would leave it (rtsafe), until a step is at most ``_BLOCK_TOL`` *
    max(1, |D|).  Each r evaluation counts as one link-pair evaluation.
    """
    if hi <= lo:
        return lo
    balanced, c_b, c_e, _ = _balanced_start(legit, eve, m, math.sqrt)

    def balance(D):
        obj.evaluations += 1
        return _hazard_balance(legit, eve, m, D, c_b, c_e,
                               math.sqrt, math.exp)[:2]

    a, b = d_m + lo, d_m + hi
    fa = balance(a)[0]
    if fa <= 0.0:
        return lo
    fb = balance(b)[0]
    if fb >= 0.0:
        return hi
    x = _bracketed_root(balance, a, fa, b, fb, min(max(balanced, a), b),
                        atol=_BLOCK_TOL, rtol=_BLOCK_TOL)
    return min(max(x - d_m, lo), hi)


def _bcd_step(obj, config, m1, d_r1, d_r2, f, box):
    """BCD's redundancy update of (d_r1, d_r2) with objective ``f``: the
    exact relaxed d_r1 at blocklength m1 (``_best_redundancy``), then
    d_r2 at M - m1, each kept only if it does not worsen the objective;
    returns (d_r1, d_r2, objective)."""
    lo1, hi1, lo2, hi2 = box
    sc = obj.scenario
    ab, ae, ba, be = obj.links
    x = _best_redundancy(obj, ab, ae, sc.d_m1, m1, lo1, hi1)
    if x != d_r1:
        f_x = obj.nl(m1, x, d_r2)
        if f_x <= f:
            d_r1, f = x, f_x
    x = _best_redundancy(obj, ba, be, sc.d_m2, sc.M - m1, lo2, hi2)
    if x != d_r2:
        f_x = obj.nl(m1, d_r1, x)
        if f_x <= f:
            d_r2, f = x, f_x
    return d_r1, d_r2, f


def solve_bcd(scenario: Scenario, config: SolverConfig | None = None):
    """Cyclic descent m1 -> d_r1 -> d_r2 on the relaxed problem.

    Each redundancy coordinate is set to its exact relaxed optimum over
    its refreshed threshold box (``_bcd_step``, ``_best_redundancy``);
    every update is kept only when it does not worsen the objective, so
    the trace is nonincreasing.  Stopping and integer rounding are
    ``_descend``'s.
    """
    return _descend(scenario, config, _bcd_step)


# ----------------------------------------------------------------------
# majorization-minimization
# ----------------------------------------------------------------------

def surrogate_g(errors: LinkErrors, exponent: int = 4) -> float:
    """Power mean of the four success reciprocals.

    g = ((1/(1-eps_ab) + 1/eps_ae + 1/(1-eps_ba) + 1/eps_be) / 4) ** exponent

    With exponent 4 this upper-bounds the reciprocal success product
    f = 1/((1-eps_ab)*eps_ae*(1-eps_ba)*eps_be) everywhere on (0,1)^4
    (arithmetic mean >= geometric mean, raised to the fourth power).
    With exponent 2 the bound fails -- at all eps = 1/2 the four
    reciprocals equal 2, giving g = 4 < f = 16 -- so 2 is offered only
    for comparison against the squared form and relies on the solver
    safeguard for monotonicity.
    """
    if exponent not in (2, 4):
        raise DomainError("exponent must be 2 or 4")
    eps = errors.as_tuple()
    if any(not (0.0 < e < 1.0) for e in eps):
        raise DomainError(f"error probabilities must lie in (0,1), got {eps}")
    eps_ab, eps_ae, eps_ba, eps_be = eps
    mean = 0.25 * (1.0 / (1.0 - eps_ab) + 1.0 / eps_ae
                   + 1.0 / (1.0 - eps_ba) + 1.0 / eps_be)
    return mean ** exponent


def _anchored_surrogate(terms, anchor, exponent):
    """Value and redundancy gradient of the anchored reciprocal-mean
    surrogate ((A/Ah + B/Bh + C/Ch + D/Dh) / 4) ** exponent at the point
    whose ``_link_log_terms`` are ``terms``; ``anchor`` holds the four
    log success factors at the anchor point.

    Each reciprocal is exp(-l) of its link's log factor l, so its ratio
    to the anchor's is exp(lh - l), with d-derivative -ratio * dl/dd.
    Inside the box every factor is at least its threshold (to the box
    edges' ~1e-12), so no ratio exceeds about 1/threshold and no clamp
    is needed.  Dividing by the anchor makes the bound tight
    there (all four ratios equal one), which is what lets a descent step
    on the surrogate certify descent of the true reciprocal product; the
    unanchored ``surrogate_g`` is this same expression at an
    equal-valued anchor.
    """
    r = [math.exp(lh - l) for (l, _, _), lh in zip(terms, anchor)]
    rd = [ri * dl_dd for ri, (_, _, dl_dd) in zip(r, terms)]
    mean = 0.25 * (r[0] + r[1] + r[2] + r[3])
    pref = -exponent * mean ** (exponent - 1) * 0.25
    return mean ** exponent, pref * (rd[0] + rd[1]), pref * (rd[2] + rd[3])


def _mm_step(obj, config, m1, d_r1, d_r2, f, box):
    """MM's redundancy update, as ``_bcd_step``'s: majorize-minimize
    iterations on the joint pair, then, with ``mm_safeguard``,
    ``_bcd_step`` (each direction's exact relaxed optimum in turn) if
    ``_stopped`` holds across them.

    Each pass anchors the surrogate at the current point and takes one
    backtracking projected-gradient step on it; because the surrogate
    touches the true reciprocal product at the anchor, any surrogate
    decrease is a true decrease (exponent 4).  A trial point's objective
    is the per-direction sum of its link terms (``_log_success``'s
    bits), and an accepted point's terms anchor the next pass.  A step
    that would increase the true objective (possible with exponent 2)
    ends the loop unaccepted, so the loop never raises the objective.
    """
    lo1, hi1, lo2, hi2 = box
    sc = obj.scenario
    exponent = config.surrogate_exponent

    def terms_at(x1, x2):
        return _link_log_terms(obj.links, m1, sc.M - m1,
                               sc.d_m1 + x1, sc.d_m2 + x2)

    x1, x2, f_cur = d_r1, d_r2, f
    terms = terms_at(x1, x2)
    step = 1.0
    for _ in range(_MAX_INNER_ITERS):
        anchor = [l for l, _, _ in terms]
        hv, g1, g2 = _anchored_surrogate(terms, anchor, exponent)
        step = min(step * 2.0, 1e12)
        while True:
            n1 = min(max(x1 - step * g1, lo1), hi1)
            n2 = min(max(x2 - step * g2, lo2), hi2)
            moved = abs(n1 - x1) + abs(n2 - x2)
            if not moved:
                break
            trial = terms_at(n1, n2)
            hn = _anchored_surrogate(trial, anchor, exponent)[0]
            decrease = g1 * (x1 - n1) + g2 * (x2 - n2)
            if hn <= hv - 1e-4 * decrease or step < 1e-14:
                break
            step *= 0.5
        if not moved:
            break  # the projected step stays at the anchor
        obj.evaluations += 1
        f_new = -((trial[0][0] + trial[1][0]) + (trial[2][0] + trial[3][0]))
        if f_new > f_cur:
            break
        rel_gain = abs(f_cur - f_new) / max(abs(f_cur), 1e-300)
        x1, x2, f_cur, terms = n1, n2, f_new, trial
        if rel_gain < _REL_TOL or moved < _LINE_SEARCH_TOL:
            break
    if config.mm_safeguard and _stopped(f, f_cur):
        return _bcd_step(obj, config, m1, x1, x2, f_cur, box)
    return x1, x2, f_cur


def solve_mm(scenario: Scenario, config: SolverConfig | None = None):
    """Nested scheme: m1 block, then a joint redundancy block solved by
    majorize-minimize steps on the reciprocal success product.

    The MM iterations never increase the true objective (a step that
    would is refused).  With ``mm_safeguard`` (default), whenever they
    fail to make relative progress above ``_REL_TOL`` the iteration
    falls back to BCD's exact coordinate-wise redundancy step
    (``_mm_step``) -- this covers both the exponent-2 surrogate (not a
    true upper bound) and the flat tail where surrogate steps stall.
    Stopping and integer rounding are ``_descend``'s, as for BCD.
    """
    return _descend(scenario, config, _mm_step)


__all__ = [
    "SolverConfig", "SolverReport", "bcd_scalar_min", "surrogate_g",
    "solve_exhaustive", "solve_bcd", "solve_mm",
    "STATUS_CONVERGED", "STATUS_MAX_ITERS", "STATUS_INFEASIBLE",
]
