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
  blocklengths where the check fails are bisected: about five link
  evaluations per blocklength and direction, instead of the
  O(M * range) dense scan, with the same first-maximum tie rule.  At
  full budget from M = 500 up, a bound pass over cells of m1 comes
  first: a concave upper bound per cell and direction against a lower
  bound from each cell's midpoint, and only the cells whose bound
  reaches the lower bound are tabulated.  The prune is strict, so the
  allocation and its bits are the full scan's; on an exact 0.0 plateau
  it drops nothing.
* ``solve_bcd`` -- block coordinate descent on the relaxed problem:
  an m1 block followed by the exact relaxed optimum of d_r1 and of
  d_r2, in their threshold boxes refreshed after every m1 update.  At a
  fixed split each direction's log success is concave in its
  redundancy and the objective separates by direction, so each optimum
  is the box edge or the root of the direction's hazard balance, found
  from the incumbent by the edge-or-root rule it shares with MM's step
  (``_edge_or_root``).  The m1 block moves the split along the profile
  that carries the redundancy pair at its box-relative position: a
  coarse grid finds the best basin, and the root of the profile's
  closed-form slope in its grid bracket refines it.  Both blocks and
  MM's step share one bracketed root finder (``_bracketed_root``).  In
  integer mode an exact per-split finish follows: the splits
  floor(m1) - 1 ... ceil(m1) + 1 around the relaxed m1, each with its
  best integer redundancy pair from the oracle's own per-direction
  tables (``_best_split``).
* ``solve_mm`` -- the same outer alternation, but the redundancy pair is
  minimized jointly by majorize-minimize passes on the reciprocal
  success product, each the exact minimizer of the power-mean surrogate
  at the incumbent: per direction, the edge-or-root rule on the hazard
  balance shifted by the anchor's log factors.  A pass that would
  increase the true objective is refused.

BCD and MM differ only in their redundancy update and share the outer
loop around it (``_descend``), the per-direction balances it builds
(``_direction_balance``), the edge-or-root rule and the integer finish.

Every accepted step is checked against the incumbent, so traces are
nonincreasing by construction.  All solvers are deterministic functions
of (scenario, config).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

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
    _cell_bound,
    _direction_bound_slopes,
    _first_maximum_start,
    _hazard_balance,
    _Link,
    _link_log_terms,
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
# and MM pass), outer and MM-pass caps, and the absolute tolerance in
# m1 of the m1 block's root and feasibility-edge searches, which is
# also the smallest move that lets the MM passes go on.
_REL_TOL = 1e-8
_MAX_OUTER_ITERS = 100
_MAX_INNER_ITERS = 200
_LINE_SEARCH_TOL = 1e-6
# The Newton step tolerance of the redundancy block and MM's step,
# relative to max(1, |x|), and a cap on the steps of every bracketed
# search; bisection alone reaches the cap only on a bracket wider than
# 1e21 times its tolerance.
_BLOCK_TOL = 1e-9
_MAX_BLOCK_ITERS = 100
# Absolute floor added to the relative stopping test; below this the
# double-precision evaluation itself is noise.
_STOP_ATOL = 1e-12
# Smallest normal float: ``_first_maxima`` accepts no candidate whose
# nonzero log success is smaller in magnitude.
_TINY = float(np.finfo(float).tiny)
# Budgets below which ``_best_full_budget`` tabulates every split: there
# the cell-bound pass costs more than it saves.  Full scan / pruned,
# median of 25 alternating runs on 2 shared cores (Python 3.11, numpy
# 2.4), at the default point and on four acceptance draws: M = 250
# 0.77 / 0.99 and 0.74 / 0.88 ms, M = 350 0.87 / 0.99 and 0.86 / 0.87,
# M = 500 1.03 / 0.98 and 1.01 / 0.87, M = 700 1.31 / 1.04 and
# 1.27 / 0.94.
_PRUNE_MIN_M = 500

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverConfig:
    """Problem and method choices shared by the three solvers.

    ``integer_mode`` rounds BCD/MM's relaxed solution.
    ``full_budget_only`` restricts enumeration to m1 + m2 = M; disabling
    it is only useful for oracle cross-checks, since partial-budget
    optima are never better unless the full-budget boxes are empty
    (eavesdroppers above their legitimate receivers).  Run control is
    fixed: stop when a cycle changes the LFP by at most 1e-8 relative
    plus 1e-12 absolute, or after 100 cycles; at most 200 MM passes,
    stopping below a 1e-8 relative gain or a 1e-6 move; the m1 block's
    root to 1e-6 in m1; Newton steps to 1e-9 relative.
    """

    integer_mode: bool = True
    full_budget_only: bool = True


@dataclass
class SolverReport:
    """Outcome of one solve: final allocation, objective, per-iteration
    trace [(k, lfp_k)], objective-evaluation count and wall time.

    ``evaluations`` counts link-pair evaluations in the oracle's tables
    (one direction at one blocklength and redundancy), with no final
    re-evaluation of the winner, and in its cell-bound pass (three per
    cell and direction), and the points BCD/MM's descent scores,
    each once: the start's and the m1 grid's points and the m1 block's
    profile points (a value and its slope from one set of four link
    terms count as one).  Each hazard-balance evaluation of BCD's
    redundancy block and of MM's step, which also score their points,
    counts as one link-pair evaluation, about five per direction and
    block; BCD/MM's integer finish adds its tables' link-pair
    evaluations, about five per direction at each split.
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
    worse than every finite one; NaN aborts with
    :class:`NumericalError`.  On an interval collapsed to a point the
    point itself is returned.
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
    """A solve's scenario, link constants and evaluation counter, and the
    boxes of its splits.

    The solvers minimize the negative log round-trip success, which
    orders points as the LFP does but stays informative where the LFP
    itself underflows.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.links = link_constants(scenario)
        self.evaluations = 0

    @cached_property
    def m1_grid(self):
        """The m1 block's ``_M1_GRID`` + 1 splits on [1, M-1] and their
        ``box`` arrays, built once per solve."""
        xs = np.linspace(1.0, float(self.scenario.M - 1), _M1_GRID + 1)
        return xs, self.box(xs, np.sqrt, np.maximum)

    def box(self, m1, sqrt=math.sqrt, maximum=max):
        """Redundancy boxes of split m1 (m2 = M - m1) and their
        feasibility, straight from the solve's constants, with no check:
        (d_r1_min, d_r1_max, d_r2_min, d_r2_max, feasible).  ``m1`` is a
        float, or an array with ``np.sqrt`` and ``np.maximum``."""
        return _split_boxes(self.links, self.scenario, m1,
                            self.scenario.M - m1, sqrt, maximum)


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


def _edge_or_root(fn, x, lo, hi):
    """Where a function F that falls strictly in d has its zero in the
    box [lo, hi], or the box edge it is closest to; ``fn(d)`` returns
    (F(d), F'(d)).

    The answer is x where the Newton step from x rounds to x, else the
    box edge that F(x)'s sign points to where F has not changed sign
    there, else F's root between x and that edge (``_bracketed_root``
    from x, to ``_BLOCK_TOL``).  An answer of x costs one value of
    ``fn``, an edge two.
    """
    f_x, slope = fn(x)
    if x - f_x / slope == x:
        return x
    edge = hi if f_x > 0.0 else lo
    f_edge = fn(edge)[0]
    if f_edge == 0.0 or (f_edge > 0.0) == (f_x > 0.0):
        return edge
    a, fa, b, fb = ((x, f_x, edge, f_edge) if f_x > 0.0
                    else (edge, f_edge, x, f_x))
    return _bracketed_root(fn, a, fa, b, fb, x,
                           atol=_BLOCK_TOL, rtol=_BLOCK_TOL)


def _direction_balance(obj, legit, eve, d_m, m):
    """One direction's ``_hazard_balance`` at blocklength m by redundancy
    d, each d evaluated once (one link-pair evaluation): (r, dr/dD, F',
    l_b - l_e, l_b + l_e).  l_b + l_e is the direction's log success,
    with ``log_round_trip_success``'s bits.  F' is the slope of
    ``_surrogate_min``'s F, dr/dD + d(l_b - l_e)/dD, where
    d(l_b - l_e)/dD = -(c_b h(w_b) + c_e h(-w_e)) = dr/dD + c_b w_b -
    c_e w_e by the balance's slope."""
    _, c_b, c_e, _ = _balanced_start(legit, eve, m, m, math.sqrt)
    # log(c_e / c_b) = log(V_b / V_e) / 2 at one blocklength
    args = (c_b, c_e, 0.5 * math.log(legit.v / eve.v), math.sqrt, math.exp)
    seen = {}

    def at(d):
        if d not in seen:
            obj.evaluations += 1
            r, slope, w_b, w_e, l_b, l_e, _, _ = _hazard_balance(
                legit, eve, m, m, d_m + d, *args)
            seen[d] = (float(r), float(slope),
                       2.0 * slope + c_b * w_b - c_e * w_e,
                       float(l_b - l_e), float(l_b + l_e))
        return seen[d]
    return at


def _m1_profile(obj, m1, t1, t2):
    """The carried profile p at split m1 and its slope: the objective
    with the redundancy pair at the box-relative positions (t1, t2) of
    split m1's box.

    Returns (p, dp/dm1, d_r1, d_r2), or (+inf, NaN, None, None) where
    the box is empty.  p and its slope come from the same four
    ``_link_log_terms``, p with -``log_round_trip_success``'s bits, and
    count as one evaluation.  The slope adds the links' dl/dm to their
    dl/dd times the carried pair's slope, which the box edges give
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
    """-``log_round_trip_success`` at every split of the array ``m1``
    with the redundancy arrays (d_r1, d_r2), in one vector evaluation
    with the same bits per point; +inf where ``feasible`` is false.
    Each feasible point counts as one evaluation."""
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


def _m1_profile_grid(obj, m1, box, t1, t2):
    """``_m1_profile``'s values at every split of the array ``m1``, whose
    ``_Objective.box`` arrays are ``box``, in one ``_nl_grid`` call."""
    lo1, hi1, lo2, hi2, feasible = box
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
    (``_m1_profile``).  A coarse grid on [1, M-1]
    (``_Objective.m1_grid``), evaluated in one vector call, isolates the
    best basin.  The profile's slope at the grid's best split x points
    to a neighbour y; where y's box is empty, y becomes
    ``_feasibility_edge``'s split between x and y.  Where the slope
    changes sign between x and y, ``_bracketed_root`` closes in on its
    root with Illinois steps to ``_LINE_SEARCH_TOL``.

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
    xs, grid_box = obj.m1_grid
    vals = _m1_profile_grid(obj, xs, grid_box, t1, t2)
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
        if not grid_box[4][j]:
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
    answer over every split is taken (``_best_full_budget``).  Returns
    ``_best_split``'s (allocation, log success), or None.
    """
    splits = np.arange(max(1, math.floor(m1) - 1),
                       min(obj.scenario.M - 1, math.ceil(m1) + 1) + 1,
                       dtype=float)
    return _best_split(obj, splits) or _best_full_budget(obj)


def _report(obj, t_start, status, trace, alloc=None, final=None):
    """Report of a solve started at ``t_start`` (no allocation: none
    was found)."""
    return SolverReport(status=status, alloc=alloc, lfp_final=final,
                        trace=trace, evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


def _descend(scenario, config, redundancy_step):
    """The outer alternation of BCD and MM.

    From ``_initial_point``, or from the oracle's answer
    (``_best_full_budget``, infeasible only where that is None) where
    its grid misses a narrow feasible set, each cycle runs the m1 block,
    refreshes the box at the new split, builds each direction's
    ``_direction_balance`` there, updates the redundancy pair by
    ``redundancy_step(dirs, d_r1, d_r2, f)``, dirs = ((at1, lo1, hi1),
    (at2, lo2, hi2)), and records the LFP -expm1(-f) (``lfp_value``'s
    bits); the incumbent's objective value f is carried, never
    re-evaluated.  It stops when a cycle changes the LFP by at most
    ``_REL_TOL`` relative (with a ``_STOP_ATOL`` floor for LFPs below
    double-precision resolution) or after ``_MAX_OUTER_ITERS`` cycles.
    In integer mode ``_integer_reconstruct`` finishes exactly at the
    splits within one of floor/ceil of the relaxed m1, with the oracle's
    per-direction tables.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    start = _initial_point(obj)
    if start is None:
        best = _best_full_budget(obj)
        if best is None:
            return _report(obj, t_start, STATUS_INFEASIBLE, [])
        alloc, log_p = best
        start = (float(alloc.m1), float(alloc.d_r1), float(alloc.d_r2), -log_p)
    m1, d_r1, d_r2, f = start
    ab, ae, ba, be = obj.links
    trace = [(0, -math.expm1(-f))]
    status = STATUS_MAX_ITERS
    for k in range(1, _MAX_OUTER_ITERS + 1):
        m1, d_r1, d_r2, f = _m1_block(obj, m1, d_r1, d_r2, f)
        lo1, hi1, lo2, hi2, _ = obj.box(m1)
        dirs = ((_direction_balance(obj, ab, ae, scenario.d_m1, m1), lo1, hi1),
                (_direction_balance(obj, ba, be, scenario.d_m2,
                                    scenario.M - m1), lo2, hi2))
        d_r1, d_r2, f = redundancy_step(dirs, d_r1, d_r2, f)
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


def _cell_bounds(obj, k):
    """Bounds on the oracle's tables over cells of k splits: the cells
    [a, b] = [1, k], [k + 1, 2k], ... of m1 in [1, M - 1], where
    direction 2 sees m2 in [M - b, M - a].

    Per cell and direction, ``_cell_bound`` bounds the log success over
    the cell's blocklengths and the total bits [d_m, d_m + max(hi(a),
    hi(b)) + 1e-9]: the box's upper edge hi is convex or increasing in
    m, so it peaks at an end of the cell, and the 1e-9 is the integer
    box's slack.  The lower bound is the best sum of the two directions'
    log success at each cell's midpoint split, each at the integer
    redundancy nearest the bound's D* in its box (-inf where no midpoint
    has both boxes).  Where max(hi(a), hi(b)) < -1e-9 no split of the
    cell has an integer box, and its bound, whatever it reads (NaN where
    a hazard overflowed), drops nothing that could win.  Each bound and
    lower-bound evaluation counts as one link-pair evaluation, three per
    cell and direction.
    Returns (per-direction bounds, shape (2, cells), lower bound).
    """
    sc = obj.scenario
    M = sc.M
    a = np.arange(1, M, k)
    b = np.minimum(a + (k - 1), M - 1)
    m1 = np.stack((a, b, (a + b) // 2)).astype(float)  # ends and midpoint
    m2 = M - m1
    lo1, hi1, lo2, hi2, _ = _split_boxes(obj.links, sc, m1, m2,
                                         np.sqrt, np.maximum)
    # both directions stacked: row 0 is direction 1 at m1, row 1 is
    # direction 2 at m2 = M - m1
    ab, ae, ba, be = obj.links
    legit = _Link(*np.array((ab, ba)).T[:, :, None])
    eve = _Link(*np.array((ae, be)).T[:, :, None])
    d_m = np.array(((sc.d_m1,), (sc.d_m2,)), dtype=float)
    top = np.stack((np.maximum(hi1[0], hi1[1]), np.maximum(hi2[0], hi2[1])))
    bound, D = _cell_bound(legit, eve, np.stack((m1[1], m2[0])),
                           np.stack((m1[0], m2[1])), d_m, d_m + (top + 1e-9))
    ilo = np.ceil(np.stack((lo1[2], lo2[2])) - 1e-9)
    ihi = np.floor(np.stack((hi1[2], hi2[2])) + 1e-9)
    d = np.minimum(np.maximum(np.rint(D - d_m), ilo), ihi)
    g = log_direction_success(legit, eve, np.stack((m1[2], m2[2])),
                              d_m + d)
    obj.evaluations += 3 * g.size
    lower = np.where((ihi >= ilo).all(axis=0), g[0] + g[1], -math.inf)
    return bound, float(lower.max())


def _best_full_budget(obj):
    """``_best_split`` over every split m1 = 1 ... M - 1, tabulating only
    the cells of m1 that can win.

    The splits are cut into about 2 sqrt(M) cells of about sqrt(M) / 2
    splits.  A cell whose bound (``_cell_bounds``, summed over the
    directions) is below L - (1e-9 |L| + 1e-300), L the lower bound, is
    dropped: its table entries are at most its bound, so strictly worse
    than the split L came from, and ties survive; a bound that is not
    finite (an overflowed hazard) keeps its cell.  The slack covers
    rounding and, where the tables are subnormal (no longer concave in
    floating point), the few 1e-311 by which an entry can pass its
    bound (at most 6.8e-311 with one-split cells on the 400 instances of
    benchmark ladder seeds 1-20 and suite seeds 1-5).  Where the log
    success is exactly 0.0, L and the bounds are 0.0 and nothing is
    dropped.  Below ``_PRUNE_MIN_M`` every split is tabulated.
    """
    M = obj.scenario.M
    if M < _PRUNE_MIN_M:
        return _best_split(obj, np.arange(1.0, M))
    k = math.isqrt(M) // 2 + 1
    bound, lower = _cell_bounds(obj, k)
    total, slack = bound[0] + bound[1], 1e-9 * abs(lower) + 1e-300
    keep = ~np.isfinite(total) | (total >= lower - slack)
    return _best_split(obj, np.arange(1.0, M)[np.repeat(keep, k)[:M - 1]])


def solve_exhaustive(scenario: Scenario, config: SolverConfig | None = None):
    """Global integer optimum by enumeration.

    Each direction's success is maximized over its integer redundancy
    box at every blocklength by ``_first_maxima``.  At full budget
    ``_best_full_budget`` combines them over the splits m1 + m2 = M:
    from M = 500 up it tabulates only the cells of m1 whose bound
    reaches the best midpoint value (``_cell_bounds``), dropping only
    splits strictly worse than a kept one, so the winner, its tie rule
    and its bits are those of the full scan; below M = 500, and in
    effect on an exact 0.0 plateau, it tabulates every split.  With
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
        best = _best_full_budget(obj)
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

def _direction_min(at, x, lo, hi):
    """BCD's block of one direction: its exact relaxed optimum over the
    box [lo, hi] from the incumbent x; ``at`` is its
    ``_direction_balance``.

    The direction's log success is concave in its redundancy and the
    hazard balance r has the sign of its slope and falls, so the optimum
    is ``_edge_or_root`` of (r, dr/dD) from x.  It is kept only if its
    log success, read from the memo, does not fall below x's.
    """
    n = _edge_or_root(lambda d: at(d)[:2], x, lo, hi)
    return n if at(n)[4] >= at(x)[4] else x


def _bcd_step(dirs, d_r1, d_r2, f):
    """BCD's redundancy update of (d_r1, d_r2) with objective ``f``: one
    ``_direction_min`` per direction; ``dirs`` holds each direction's
    (``_direction_balance``, lo, hi).  The objective of a moved pair is
    the sum of the two memoized log successes.  Returns (d_r1, d_r2,
    objective)."""
    (at1, lo1, hi1), (at2, lo2, hi2) = dirs
    n1 = _direction_min(at1, d_r1, lo1, hi1)
    n2 = _direction_min(at2, d_r2, lo2, hi2)
    if (n1, n2) == (d_r1, d_r2):
        return d_r1, d_r2, f
    return n1, n2, -(at1(n1)[4] + at2(n2)[4])


def solve_bcd(scenario: Scenario, config: SolverConfig | None = None):
    """Cyclic descent m1 -> d_r1 -> d_r2 on the relaxed problem.

    Each redundancy coordinate is set to its exact relaxed optimum over
    its refreshed threshold box, the edge-or-root rule on its hazard
    balance from the incumbent (``_direction_min``); every update is
    kept only when it does not worsen the objective, so the trace is
    nonincreasing.  Stopping and integer rounding are ``_descend``'s.
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
    With exponent 2, the printed form, the bound fails (at all eps = 1/2,
    g = 4 < f = 16).  MM's step minimizes the anchored mean, whose
    minimizer does not depend on the exponent (``_mm_step``).
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


def _surrogate_min(at, x, lo, hi):
    """The redundancy in [lo, hi] that minimizes one direction's part
    r_b + r_e of the surrogate anchored at x, r_i = exp(l̂_i - l_i);
    ``at`` is the direction's ``_direction_balance``.

    The part's slope has the sign of -F, F(d) = r(d) - δ(d), with r the
    hazard balance and δ(d) = (l̂_b - l̂_e) - (l_b(d) - l_e(d)).  F falls
    strictly and F(x) = r(x), so the answer is ``_edge_or_root`` of
    (F, F') from x.
    """
    gap = at(x)[3]

    def shifted(d):
        r, _, slope, gap_d, _ = at(d)
        return r - (gap - gap_d), slope

    return _edge_or_root(shifted, x, lo, hi)


def _mm_step(dirs, d_r1, d_r2, f):
    """MM's redundancy update, as ``_bcd_step``'s: majorize-minimize
    passes on the joint pair.

    A pass moves to the exact minimizer of the surrogate
    ((r_ab + r_ae + r_ba + r_be) / 4)^4 anchored at the current point,
    which separates by direction and does not depend on the exponent:
    one ``_surrogate_min`` per direction.  The surrogate touches the
    reciprocal success product at its anchor and bounds it; the new
    point, scored from the two balances that anchor the next pass, is
    kept only if it is not worse (rounding).
    """
    (at1, lo1, hi1), (at2, lo2, hi2) = dirs
    x1, x2, f_cur = d_r1, d_r2, f
    for _ in range(_MAX_INNER_ITERS):
        n1 = _surrogate_min(at1, x1, lo1, hi1)
        n2 = _surrogate_min(at2, x2, lo2, hi2)
        moved = abs(n1 - x1) + abs(n2 - x2)
        if not moved:
            break
        f_new = -(at1(n1)[4] + at2(n2)[4])
        if f_new > f_cur:
            break
        rel_gain = abs(f_cur - f_new) / max(abs(f_cur), 1e-300)
        x1, x2, f_cur = n1, n2, f_new
        if rel_gain < _REL_TOL or moved < _LINE_SEARCH_TOL:
            break
    return x1, x2, f_cur


def solve_mm(scenario: Scenario, config: SolverConfig | None = None):
    """Nested scheme: m1 block, then a joint redundancy block solved by
    exact majorize-minimize passes on the reciprocal success product
    (``_mm_step``), which never increase the true objective.  Their
    fixed point is BCD's exact redundancy optimum (``_direction_min``):
    the same edge-or-root rule on the unshifted balance.  Stopping and
    integer rounding are ``_descend``'s.
    """
    return _descend(scenario, config, _mm_step)


__all__ = [
    "SolverConfig", "SolverReport", "bcd_scalar_min", "surrogate_g",
    "solve_exhaustive", "solve_bcd", "solve_mm",
    "STATUS_CONVERGED", "STATUS_MAX_ITERS", "STATUS_INFEASIBLE",
]
