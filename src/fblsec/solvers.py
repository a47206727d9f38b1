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
  evaluations per blocklength and direction, both directions in one
  vector pass, instead of the O(M * range) dense scan, with the same
  first-maximum tie rule.  At full budget from M = 500 up, a bound pass
  over cells of m1 comes first: a concave upper bound per cell and
  direction against a lower bound from each cell's midpoint, and only
  the cells whose bound reaches the lower bound are tabulated.  The
  prune is strict, so the allocation and its bits are the full scan's;
  on an exact 0.0 plateau no cell after the first whose midpoint
  reached 0.0 is tabulated.
* ``solve_bcd`` -- block coordinate descent on the relaxed problem:
  an m1 block followed by the exact relaxed optimum of d_r1 and of
  d_r2, in their threshold boxes refreshed after every m1 update.  At a
  fixed split each direction's log success is concave in its
  redundancy and the objective separates by direction, so each optimum
  is the box edge or the root of the direction's hazard balance, found
  from the incumbent by the edge-or-root rule it shares with MM's step
  (``_edge_or_root``): Newton steps toward the edge the balance points
  to, which is evaluated only where a step would leave the box.  The m1
  block moves the split along the profile that carries the redundancy
  pair at its box-relative position: a coarse grid, both directions in
  one vector call, finds the best basin, and Newton steps on the
  profile's log-scaled slope, whose scale does not shrink with the LFP,
  close in on its root between the grid's best split's neighbours, from
  the incumbent split where it lies inside them, else from that best
  split; the neighbours, which the grid scored, are not scored again,
  and slope and second slope are closed form.  Both blocks and MM's
  step share one bracketed Newton root finder (``_bracketed_root``),
  which evaluates no bracket end.  The descent starts from the m1 block
  itself, with the redundancy pair at mid-box, and stops on a relative
  change of the LFP alone, however small the LFP.  In integer mode an
  exact per-split finish follows: the splits
  floor(m1) - 1 ... ceil(m1) + 1 around the relaxed m1, each with its
  best integer redundancy pair from the oracle's own per-direction
  tables (``_best_split``).  Their first estimate is the relaxed pair's
  box-relative position carried to each split's integer box; an entry
  it does not settle takes the oracle's own estimate, so the tables
  are the oracle's, bit for bit.
* ``solve_mm`` -- the same outer alternation, but the redundancy pair is
  minimized by majorize-minimize passes, each the exact minimizer of the
  power-mean surrogate at the incumbent: per direction, the edge-or-root
  rule on the hazard balance shifted by the anchor's log factors.

BCD and MM differ only in their redundancy update, which one pass
(``_redundancy_pass``) applies per direction with one keep rule.  They
share everything else: ``_descend``, the split's boxes and balances
(``_Objective.split``), the edge-or-root rule and the stopping rule.
What depends on the scenario alone, the direction constants and the m1
block's grid with its boxes, is built once per scenario (``_geometry``)
and shared by the BCD, MM and oracle solves of that scenario; a
solve's own state is its ``_Objective``.

Every accepted step is checked against the incumbent, so traces are
nonincreasing by construction.  All solvers are deterministic functions
of (scenario, config).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

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
    _direction_bounds,
    _direction_log_terms,
    _first_maximum_start,
    _hazard_balance,
    _Link,
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
# Run control of BCD and MM: ``_stopped``'s relative change of the
# objective, ``_step_done``'s step relative to max(1, |x|), and one cap
# on the cycles, the MM passes and the values of each search (bisection
# alone reaches it only on a bracket 2^99 times its tolerance).
_REL_TOL = 1e-8
_BLOCK_TOL = 1e-9
_MAX_ITERS = 100
# Smallest normal float: ``_first_maxima`` accepts no candidate whose
# nonzero log success is smaller in magnitude.
_TINY = float(np.finfo(float).tiny)
# Budgets below which ``_best_full_budget`` tabulates every split: there
# the cell-bound pass costs more than it saves.  Full scan / pruned,
# median of 25 alternating runs on 2 shared cores (Python 3.11, numpy
# 2.4), at the default point and per solve on the four SNR draws of
# benchmark ladder seed 1: M = 250 0.62 / 0.77 and 0.61 / 0.72 ms,
# M = 350 0.75 / 0.76 and 0.75 / 0.74, M = 500 0.94 / 0.80 and
# 0.96 / 0.75, M = 700 1.21 / 0.83 and 1.24 / 0.79.
_PRUNE_MIN_M = 500
# The offsets e - 1 ... e + 2 at which ``_first_maxima`` probes.
_PROBES = np.arange(-1.0, 3.0)[:, None]
# The slack by which ``_integer_box`` widens a box against rounding.
_BOX_SLACK = 1e-9

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
    fixed: stop when a cycle changes the LFP by at most 1e-8 relative,
    however small the LFP, and MM's passes by the same rule on the
    objective; every search ends on a step of at most 1e-9 relative to
    max(1, |x|); at most 100 cycles, MM passes or values per search.
    """

    integer_mode: bool = True
    full_budget_only: bool = True


@dataclass
class SolverReport:
    """Outcome of one solve: final allocation, objective, per-iteration
    trace [(k, lfp_k)], link-pair evaluation count and wall time.

    ``evaluations`` counts link pairs, in every solver alike: one
    direction's two links at one blocklength and one total-bits value,
    counted once per point a solver scores (a value and its slopes from
    one evaluation count as one).
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

def _directions(constants, index):
    """(legit, eve, d_m, log ratio) of the directions ``index`` (0s and
    1s) of the (8, 2) array ``constants``, per entry, from one indexing:
    ``_Link``s of arrays and ``_first_maximum_start``'s log ratio
    0.5 * math.log(V_b / V_e)."""
    c = constants[:, index]
    return _Link(*c[:3]), _Link(*c[3:6]), c[6], c[7]


def _split_grid(both, M, m1):
    """The splits of the array ``m1`` as (2, n) rows, direction 1 at m1
    and direction 2 at M - m1, for the directions ``both`` of
    ``_Geometry``: (m, box edge lo, box width hi - lo, feasible per
    split, the link pairs that scoring them counts: two per feasible
    split), with ``_Objective.box``'s bits and feasibility."""
    legit, eve, d_m, _ = both
    m = np.array((m1, M - m1))
    lo, hi = _direction_bounds(legit, eve, d_m, m, np.sqrt, np.maximum)
    feasible = (lo <= hi).all(axis=0)
    return m, lo, hi - lo, feasible, 2 * int(np.count_nonzero(feasible))


class _Geometry(NamedTuple):
    """What BCD, MM and the oracle derive from the scenario alone
    (``_geometry``); every array is read-only."""

    constants: np.ndarray  # (8, 2): ``_directions``' constants by column
    both: tuple            # ``_directions`` of both, as (2, 1) rows
    xs: np.ndarray         # the m1 block's _M1_GRID + 1 splits on [1, M-1]
    grid: tuple            # their ``_split_grid``, link-pair count included


@lru_cache(maxsize=1024)
def _geometry(scenario):
    """The ``_Geometry`` of a scenario, built from ``link_constants`` and
    cached as it is, by the scenario's field values: BCD, MM and the
    oracle of one scenario share it.  The arrays are read-only, because
    every solve of an equal scenario reads the same ones."""
    sc, links = scenario, link_constants(scenario)
    constants = np.array([(*b, *e, d_m, 0.5 * math.log(b.v / e.v))
                          for b, e, d_m in zip(links[::2], links[1::2],
                                               (sc.d_m1, sc.d_m2))]).T
    constants.flags.writeable = False
    both = _directions(constants, np.arange(2)[:, None])
    xs = np.linspace(1.0, float(sc.M - 1), _M1_GRID + 1)
    grid = _split_grid(both, sc.M, xs)
    for a in (*both[0], *both[1], *both[2:], xs, *grid[:4]):
        a.flags.writeable = False
    return _Geometry(constants, both, xs, grid)


class _Objective:
    """A solve's own state: its scenario and evaluation counter.  What
    depends on the scenario alone it reads, built once, from
    ``link_constants`` and the shared ``_geometry``; ``box`` and
    ``split`` give a split's boxes and balances.

    The solvers minimize the negative log round-trip success, which
    orders points as the LFP does but stays informative where the LFP
    itself underflows.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.links = link_constants(scenario)
        self.geometry = _geometry(scenario)
        self.evaluations = 0

    def box(self, m1):
        """Redundancy boxes of the scalar split m1 (m2 = M - m1) and their
        feasibility, straight from the solve's constants, with no check:
        (d_r1_min, d_r1_max, d_r2_min, d_r2_max, feasible)."""
        return _split_boxes(self.links, self.scenario, m1,
                            self.scenario.M - m1)

    def split(self, m1):
        """Both directions' (``_direction_balance``, lo, hi) at the scalar
        split m1 from one ``box`` call: a redundancy update's dirs."""
        (ab, ae, ba, be), sc = self.links, self.scenario
        lo1, hi1, lo2, hi2, _ = self.box(m1)
        r1, r2 = self.geometry.constants[-1].tolist()
        return ((_direction_balance(self, ab, ae, sc.d_m1, r1, m1), lo1, hi1),
                (_direction_balance(self, ba, be, sc.d_m2, r2, sc.M - m1),
                 lo2, hi2))


def _rel_pos(x, lo, hi):
    return 0.5 if hi <= lo else (x - lo) / (hi - lo)


def _positions(dirs, d_r1, d_r2):
    """The box-relative positions (t1, t2) of the pair (d_r1, d_r2) in
    the boxes of ``dirs`` (``_Objective.split``), 1/2 in an empty box."""
    (_, lo1, hi1), (_, lo2, hi2) = dirs
    return _rel_pos(d_r1, lo1, hi1), _rel_pos(d_r2, lo2, hi2)


def _step_done(step, x):
    """The one rule that ends every search of BCD and MM: a step from x
    of at most ``_BLOCK_TOL`` relative to max(1, |x|)."""
    return abs(step - x) <= _BLOCK_TOL * max(1.0, abs(x))


def _bracketed_root(fn, x, lo, hi):
    """A root of ``fn`` in the bracket [lo, hi] of a function that falls
    through zero there, from the start x in it; the ends are never
    evaluated.

    ``fn(x)`` returns (value, slope).  Each value narrows the bracket to
    the side its sign points to, and the next point is the Newton step,
    or the bracket's midpoint where that step would leave the bracket,
    would return to the point before x, or the slope is 0 (rtsafe, Press
    et al., Numerical Recipes, section 9.4).  Where fn keeps one sign
    over the bracket, the points close in on the end it points to.
    Stops at a zero or NaN value, at a step that ``_step_done`` accepts
    or after ``_MAX_ITERS`` values, and returns the last point reached.
    """
    prev = math.nan
    for _ in range(_MAX_ITERS):
        r, slope = fn(x)
        if r > 0.0:
            lo = x
        elif r < 0.0:
            hi = x
        else:
            break
        step = x - r / slope if slope else math.nan
        if not lo <= step <= hi or step == prev:  # NaN included
            step = 0.5 * (lo + hi)
        prev, x = x, step
        if _step_done(x, prev):
            break
    return x


def _edge_or_root(fn, x, lo, hi):
    """Where a function F that falls strictly in d has its zero in the
    box [lo, hi], or the box edge it is closest to; ``fn(d)`` returns
    (F(d), F'(d)).

    Newton steps run from x toward the edge that F(x)'s sign points to
    while F keeps that sign.  The edge is evaluated only where a step
    would leave the box (or is NaN or turns back), and it is the answer
    where F has x's sign there or is 0.  Where F changes sign inside the
    box, at a Newton point or at the edge, the answer is
    ``_bracketed_root``'s between the last point of x's sign and there.
    A step that ``_step_done`` accepts ends the search at the step, so
    an answer of x costs one value of ``fn``, and an edge that the first
    step leaves for costs two.
    """
    f_x, slope = fn(x)
    rises = f_x > 0.0
    edge = hi if rises else lo
    for _ in range(_MAX_ITERS):
        step = x - f_x / slope if slope else math.nan
        if not (x <= step <= edge if rises else edge <= step <= x):
            f_edge = fn(edge)[0]
            if f_edge == 0.0 or (f_edge > 0.0) == rises:
                return edge
            end = edge
            break
        if _step_done(step, x):
            return step
        f_step, s = fn(step)
        if not (f_step > 0.0 if rises else f_step < 0.0):
            end = step  # F changed sign (or is 0 or NaN)
            break
        x, f_x, slope = step, f_step, s
    else:
        return x
    return _bracketed_root(fn, x, min(x, end), max(x, end))


def _direction_balance(obj, legit, eve, d_m, log_ratio, m):
    """One direction's ``_hazard_balance`` at blocklength m by redundancy
    d, each total bits D = d_m + d evaluated once (one link-pair
    evaluation), so two redundancies that round to the same D share it:
    (r, dr/dD, F', l_b - l_e, l_b + l_e); ``log_ratio`` = log(c_e /
    c_b), from ``_Objective.split``.  l_b + l_e is the direction's
    log success, with ``log_round_trip_success``'s bits.  F' is the slope of
    ``_surrogate_min``'s F, dr/dD + d(l_b - l_e)/dD, where
    d(l_b - l_e)/dD = -(c_b h(w_b) + c_e h(-w_e)) = dr/dD + c_b w_b -
    c_e w_e by the balance's slope."""
    _, c_b, c_e, _ = _balanced_start(legit, eve, m, m, math.sqrt)
    args = (c_b, c_e, log_ratio, math.sqrt, math.exp)
    seen = {}

    def at(d):
        D = d_m + d
        if D not in seen:
            obj.evaluations += 1
            r, slope, w_b, w_e, l_b, l_e, _, _ = _hazard_balance(
                legit, eve, m, m, D, *args)
            seen[D] = (float(r), float(slope),
                       2.0 * slope + c_b * w_b - c_e * w_e,
                       float(l_b - l_e), float(l_b + l_e))
        return seen[D]
    return at


def _redundancy_pass(update, dirs, d_r1, d_r2, f):
    """``update(at, x, lo, hi)`` once per direction of ``dirs`` from the
    incumbent (d_r1, d_r2) with objective f, each move kept only where
    its direction's log success, read from the memo ``at``, does not
    fall.  Returns (d_r1, d_r2, objective), a moved pair scored from the
    memo."""
    def keep(at, x, lo, hi):
        n = update(at, x, lo, hi)
        return n if at(n)[4] >= at(x)[4] else x

    (at1, lo1, hi1), (at2, lo2, hi2) = dirs
    n1, n2 = keep(at1, d_r1, lo1, hi1), keep(at2, d_r2, lo2, hi2)
    if (n1, n2) == (d_r1, d_r2):
        return d_r1, d_r2, f
    return n1, n2, -(at1(n1)[4] + at2(n2)[4])


def _carried_direction(legit, eve, d_m, m, t):
    """One direction of ``_m1_profile`` at blocklength m, on the path
    d_r(m) = lo(m) + t (hi(m) - lo(m)) with slope c and curvature k
    (``_direction_bound_slopes``): (l, l_m + l_D c, l_mm + 2 l_mD c +
    l_DD c^2 + l_D k, d_r) from ``_direction_log_terms``, or None where
    the box is empty (``_split_boxes``' test)."""
    lo, hi = _direction_bounds(legit, eve, d_m, m)
    if not lo <= hi:
        return None
    d_r = lo + t * (hi - lo)
    l, l_m, l_D, l_mm, l_mD, l_DD = _direction_log_terms(legit, eve, m,
                                                         d_m + d_r)
    slo, shi, klo, khi = _direction_bound_slopes(legit, eve, m, lo)
    c, k = slo + t * (shi - slo), klo + t * (khi - klo)
    return l, l_m + l_D * c, l_mm + (2.0 * l_mD + l_DD * c) * c + l_D * k, d_r


def _m1_profile(obj, m1, t1, t2):
    """The carried profile p at split m1 and its first two slopes: the
    objective with the redundancy pair at the box-relative positions
    (t1, t2) of split m1's box.

    Returns (p, p', d_r1, d_r2, p''), derivatives in m1, or (+inf, NaN,
    None, None, NaN) where the box is empty: one ``_carried_direction``
    per direction, p with -``log_round_trip_success``'s bits, counted as
    two link pairs.  m2 = M - m1 turns direction 2's p' but not its p''.
    """
    sc = obj.scenario
    ab, ae, ba, be = obj.links
    one = _carried_direction(ab, ae, sc.d_m1, m1, t1)
    two = one and _carried_direction(ba, be, sc.d_m2, sc.M - m1, t2)
    if not two:
        return math.inf, math.nan, None, None, math.nan
    obj.evaluations += 2
    (l1, s1, c1, d_r1), (l2, s2, c2, d_r2) = one, two
    return -(l1 + l2), s2 - s1, d_r1, d_r2, -(c1 + c2)


def _m1_profile_grid(obj, grid, t1, t2):
    """``_m1_profile``'s values at every split of the ``_split_grid``
    ``grid``, both directions in one vector evaluation, with the same
    bits per point; +inf where the box is empty.  Each feasible point
    counts as two link pairs, as the grid holds them."""
    m, lo, span, feasible, pairs = grid
    legit, eve, d_m, _ = obj.geometry.both
    s = log_direction_success(legit, eve, m,
                              d_m + (lo + np.array(((t1,), (t2,))) * span))
    obj.evaluations += pairs
    return np.where(feasible, -(s[0] + s[1]), math.inf)


def _feasibility_edge(obj, x, y):
    """The feasible end of a bisection between the feasible split x and
    the infeasible split y, until ``_step_done`` accepts the step from x
    to y: box checks only, no link evaluations."""
    for _ in range(_MAX_ITERS):
        if _step_done(y, x):
            break
        mid = 0.5 * (x + y)
        if obj.box(mid)[4]:
            x = mid
        else:
            y = mid
    return x


def _m1_block(obj, t1, t2, m1=None):
    """The blocklength-split update of (m1, d_r1, d_r2), with the
    redundancy pair held at the box-relative positions (t1, t2); ``m1``
    is the incumbent split, if there is one.

    A plain fixed-redundancy line search cannot leave the thin diagonal
    strip that the thresholds carve out when the legitimate and
    eavesdropper capacities are close, so candidates are evaluated with
    the redundancy pair held at its box-relative position
    (``_m1_profile``).  A coarse grid on [1, M-1]
    (``_Geometry.grid``), evaluated in one vector call, isolates the
    best basin: the bracket is the grid's best split x's neighbours (x
    itself at a grid end).  The root search starts at the incumbent if
    it lies strictly inside the bracket, else at x, and closes in on
    the profile slope's root toward the end the slope at the start
    points to.  That end is not scored: no grid neighbour scored better
    than x, so on a unimodal profile the root lies short of it, and the
    search is ``_bracketed_root``'s.  Where the neighbour's box is
    empty, the end is ``_feasibility_edge``'s split between the start
    and it, and the profile may fall all the way to that edge, so the
    search is ``_edge_or_root``'s: the edge is scored only where a step
    would leave past it, and is the block's answer where the slope
    still points past it.  The steps run on q = p'/p,
    q' = p''/p - q^2 (p = -log success), and on (p', p'') where p is
    0.0: the raw slope scales with p, which can change by orders of
    magnitude across one bracket.

    The answer is the best split the block scored, the latest on ties:
    the grid's x, with the grid's value and carried pair (the profile's
    bits), then the root finder's points, which close in on the root,
    so the latest of equal values lies nearest it.  Its value and
    carried pair are those it was scored with, so no split is scored
    twice.  Returns (m1, d_r1, d_r2, objective), or None where no grid
    split is feasible.
    """
    _, _, xs, grid = obj.geometry
    vals = _m1_profile_grid(obj, grid, t1, t2)
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return None
    points = {}

    def scaled(z):  # the root finder's function, -q, and its slope
        if z not in points:
            points[z] = _m1_profile(obj, z, t1, t2)
        p, s, _, _, s2 = points[z]
        if not p:
            return -s, -s2
        q = s / p
        return -q, q * q - s2 / p

    below, above = max(i - 1, 0), min(i + 1, _M1_GRID)
    x = float(xs[i])
    start = m1 if m1 is not None and xs[below] < m1 < xs[above] else x
    f = scaled(start)[0]
    if f > 0.0 or f < 0.0:  # 0, NaN: stay
        j = above if f > 0.0 else below
        search, end = _bracketed_root, float(xs[j])
        if not grid[3][j]:
            search, end = _edge_or_root, _feasibility_edge(obj, start, end)
        search(scaled, start, min(start, end), max(start, end))
    _, lo, span, _, _ = grid
    best = (float(vals[i]), x, float(lo[0, i] + t1 * span[0, i]),
            float(lo[1, i] + t2 * span[1, i]))
    for z, (p, _, d_r1, d_r2, _) in points.items():
        if p <= best[0]:
            best = (p, z, d_r1, d_r2)
    value, x, d_r1, d_r2 = best
    return x, d_r1, d_r2, value


def _stopped(prev, cur):
    return abs(prev - cur) <= _REL_TOL * abs(prev)


def _integer_reconstruct(obj, m1, seed):
    """Round a relaxed split m1 to the best integer allocation over the
    splits floor(m1) - 1 ... ceil(m1) + 1 in [1, M - 1], each with its
    exact best redundancy pair (``_best_split``, as the oracle computes
    it, seeded with the relaxed pair's box-relative positions ``seed``).
    If no split of that window has an integer box, the oracle's answer
    over every split is taken (``_best_full_budget``).  Returns
    ``_best_split``'s (allocation, log success), or None.
    """
    splits = np.arange(max(1, math.floor(m1) - 1),
                       min(obj.scenario.M - 1, math.ceil(m1) + 1) + 1,
                       dtype=float)
    return _best_split(obj, splits, seed) or _best_full_budget(obj)


def _report(obj, t_start, status, trace, alloc=None, final=None):
    """Report of a solve started at ``t_start`` (no allocation: none
    was found)."""
    return SolverReport(status=status, alloc=alloc, lfp_final=final,
                        trace=trace, evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


def _descend(scenario, config, redundancy_step):
    """The outer alternation of BCD and MM.

    The start is the m1 block's answer with the redundancy pair at
    mid-box, t1 = t2 = 1/2, or the oracle's answer
    (``_best_full_budget``, infeasible only where that is None) where no
    split of its grid is feasible.  Cycle 1 then updates the redundancy
    pair; every later cycle first runs the m1 block from the incumbent's
    box-relative position and keeps its answer where it does not worsen
    the objective.  The split's ``dirs`` (``_Objective.split``) are built
    at the start and after each kept m1 move only.  A cycle updates the
    redundancy pair by ``redundancy_step(dirs, d_r1, d_r2, f)`` and
    records the LFP -expm1(-f) (``lfp_value``'s bits); the incumbent's
    objective value f is carried, never re-evaluated.  It stops when
    ``_stopped`` holds for consecutive LFPs, or after ``_MAX_ITERS``
    cycles, the one cap of every loop of BCD and MM.  In integer mode
    ``_integer_reconstruct`` finishes exactly at the splits within one
    of floor/ceil of the relaxed m1, with the oracle's per-direction
    tables seeded with the relaxed pair's box-relative positions.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    start = _m1_block(obj, 0.5, 0.5)
    if start is None:
        best = _best_full_budget(obj)
        if best is None:
            return _report(obj, t_start, STATUS_INFEASIBLE, [])
        alloc, log_p = best
        start = (float(alloc.m1), float(alloc.d_r1), float(alloc.d_r2), -log_p)
    m1, d_r1, d_r2, f = start
    dirs = obj.split(m1)
    trace = [(0, -math.expm1(-f))]
    status = STATUS_MAX_ITERS
    for k in range(1, _MAX_ITERS + 1):
        if k > 1:
            moved = _m1_block(obj, *_positions(dirs, d_r1, d_r2), m1)
            if moved is not None and moved[3] <= f:
                m1, d_r1, d_r2, f = moved
                dirs = obj.split(m1)
        d_r1, d_r2, f = redundancy_step(dirs, d_r1, d_r2, f)
        trace.append((k, -math.expm1(-f)))
        if _stopped(trace[-2][1], trace[-1][1]):
            status = STATUS_CONVERGED
            break
    if not config.integer_mode:
        alloc = Allocation(m1=m1, m2=scenario.M - m1, d_r1=d_r1, d_r2=d_r2)
        return _report(obj, t_start, status, trace, alloc, trace[-1][1])
    best = _integer_reconstruct(obj, m1, _positions(dirs, d_r1, d_r2))
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
    with g(d+1) <= g(d), or hi if there is none.  Each step evaluates
    every blocklength but counts only the unfinished ones."""
    a, b = lo, hi
    active = a < b
    while active.any():
        mid = np.floor(0.5 * (a + b))
        g = log_direction_success(legit, eve, m,
                                  d_m + np.array((mid, mid + 1.0)))
        obj.evaluations += 2 * int(np.count_nonzero(active))
        falls = g[1] <= g[0]
        b = np.where(active & falls, mid, b)
        a = np.where(active & ~falls, mid + 1.0, a)
        active = a < b
    best = log_direction_success(legit, eve, m, d_m + a)
    obj.evaluations += best.size
    return best, a


def _first_maxima(obj, legit, eve, d_m, m, lo, hi, log_ratio, t=None):
    """Best integer redundancy of one direction at every blocklength.

    ``legit`` and ``eve`` are the ``link_constants`` entries of the
    direction's two links, or per-entry ``_directions``, as are d_m,
    ``_first_maximum_start``'s ``log_ratio`` and the seed ``t``; ``m``,
    ``lo`` and ``hi`` are arrays (non-empty integer boxes [lo, hi]).
    For each m this finds the smallest d in the box with g(d+1) <= g(d),
    or hi if there is none, where g is the direction's log success.  g
    is concave in d (log Phi is concave), so that d is the first
    maximizer a dense scan of the box would return, plateau ties
    included.

    The candidates are e = floor of an estimate, clipped to the box, and
    e + 1; one vector call evaluates g at e - 1 ... e + 2.  A candidate
    d in the box is accepted under the bisection's own condition:
    (d == hi or g(d+1) <= g(d)), not (d > lo and g(d) <= g(d-1)), and
    g(d) is 0.0 or a normal float (below the smallest normal float g is
    not concave in floating point).  Only the first maximum passes, so
    every accepted entry is the bisection's, whatever the estimate.  The
    estimate is lo + t (hi - lo) where a box-relative seed t is given
    (BCD/MM's finish, from the relaxed pair), four link-pair evaluations
    per blocklength, and the blocklengths where neither candidate passes
    go to the unseeded call.  Without a seed it is
    ``_first_maximum_start``'s, five evaluations per blocklength, and
    the few blocklengths where neither candidate passes go to
    ``_bisect_first_maxima``.  Returns (max log success, its d) arrays.
    """
    if t is None:
        est = _first_maximum_start(legit, eve, d_m, m, lo, hi, log_ratio)
        obj.evaluations += m.size
    else:
        est = lo + t * (hi - lo)
    ds = np.minimum(np.maximum(np.floor(est), lo), hi) + _PROBES
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
    rest = (~(passes[0] | second)).nonzero()[0]
    if rest.size:
        def at(x):
            return x[rest] if np.ndim(x) else x
        args = (obj, _Link(*map(at, legit)), _Link(*map(at, eve)), at(d_m),
                m[rest], lo[rest], hi[rest])
        best[rest], d[rest] = (_bisect_first_maxima(*args) if t is None
                               else _first_maxima(*args, at(log_ratio)))
    return best, d


def _integer_box(lo, hi):
    """(first, last) integer arrays of [lo, hi] widened by the slack."""
    return np.ceil(lo - _BOX_SLACK), np.floor(hi + _BOX_SLACK)


def _direction_tables(obj, m1, m2, seed=None):
    """Each direction's best integer redundancy, direction 1 at the
    blocklengths of the array ``m1`` and direction 2 at ``m2``: per
    direction (ok, max log success, its d), where ok marks a non-empty
    integer box.  One ``_direction_bounds`` call gives both directions'
    boxes and one ``_first_maxima`` call fills every entry ok marks, each
    on the two directions' concatenated entries, whose constants are
    indexed again only where some entry has no box.  ``seed`` is
    ``_first_maxima``'s box-relative seed per direction, (t1, t2), or
    None; it changes the evaluations, never the tables."""
    n = m1.size
    direction = np.arange(2 * n) // n
    m = np.concatenate((m1, m2))
    constants = obj.geometry.constants
    legit, eve, d_m, log_ratio = _directions(constants, direction)
    lo, hi = _integer_box(*_direction_bounds(legit, eve, d_m, m, np.sqrt,
                                             np.maximum))
    ok = hi >= lo
    i = slice(None)  # the finish's usual case: every entry has a box
    if not ok.all():
        i = ok.nonzero()[0]
        legit, eve, d_m, log_ratio = _directions(constants, direction[i])
    t = None if seed is None else np.array(seed)[direction[i]]
    s = np.full(2 * n, -np.inf)
    d = np.zeros(2 * n, dtype=np.int64)
    s[i], d[i] = _first_maxima(obj, legit, eve, d_m, m[i], lo[i], hi[i],
                               log_ratio, t)
    return (ok[:n], s[:n], d[:n]), (ok[n:], s[n:], d[n:])


def _best_split(obj, splits, seed=None):
    """The best full-budget integer allocation over the ascending float
    array ``splits`` of m1 values, each with its exact best redundancy
    pair; the first split on ties, so the smallest (m1, d_r1, d_r2).
    Returns it with its table log success; None when no split has a
    non-empty integer box in both directions.  ``seed`` is
    ``_direction_tables``'.
    """
    M = obj.scenario.M
    (ok1, s1, d1), (ok2, s2, d2) = _direction_tables(obj, splits, M - splits,
                                                     seed)
    ok = (ok1 & ok2).nonzero()[0]
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
    hi(b)) + ``_BOX_SLACK``]: the box's upper edge hi is convex or
    increasing in m, so it peaks at an end of the cell, and the slack is
    ``_integer_box``'s.  The lower bound is the best sum of the two
    directions' log success at each cell's midpoint split, each at the
    integer redundancy nearest the bound's D* in its box (-inf where no
    midpoint has both boxes).  Where max(hi(a), hi(b)) < -slack no split of the
    cell has an integer box, and its bound, whatever it reads (NaN where
    a hazard overflowed), drops nothing that could win.  Each bound and
    lower-bound evaluation counts as one link-pair evaluation, three per
    cell and direction.
    Returns (per-direction bounds, shape (2, cells), lower bound, the
    first cell whose midpoint reaches the lower bound).
    """
    M = obj.scenario.M
    a = np.arange(1, M, k)
    b = np.minimum(a + (k - 1), M - 1)
    m1 = np.array((a, b, (a + b) // 2), dtype=float)  # ends and midpoint
    m2 = M - m1
    # both directions stacked: row 0 is direction 1 at m1, row 1 is
    # direction 2 at m2 = M - m1; the boxes of (ends, midpoint) x rows
    legit, eve, d_m, _ = obj.geometry.both
    lo, hi = _direction_bounds(legit, eve, d_m, np.stack((m1, m2), axis=1),
                               np.sqrt, np.maximum)
    top = np.maximum(hi[0], hi[1]) + _BOX_SLACK
    bound, D = _cell_bound(legit, eve, np.array((m1[1], m2[0])),
                           np.array((m1[0], m2[1])), d_m, d_m + top)
    ilo, ihi = _integer_box(lo[2], hi[2])
    d = np.minimum(np.maximum(np.rint(D - d_m), ilo), ihi)
    g = log_direction_success(legit, eve, np.array((m1[2], m2[2])), d_m + d)
    obj.evaluations += 3 * g.size
    mid = np.where((ihi >= ilo).all(axis=0), g[0] + g[1], -math.inf)
    return bound, float(mid.max()), int(mid.argmax())


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
    benchmark ladder seeds 1-20 and suite seeds 1-5).  Where L is 0.0 no
    sum exceeds it, so the first split that reaches it wins: every cell
    after the first whose midpoint reached 0.0 is dropped too.  Below
    ``_PRUNE_MIN_M`` every split is tabulated.  The splits are built
    from the kept cells alone, so memory is O(sqrt(M) + kept splits),
    never O(M): at the default point with M = 1e8, 12 MiB traced peak.
    """
    M = obj.scenario.M
    if M < _PRUNE_MIN_M:
        return _best_split(obj, np.arange(1.0, M))
    k = math.isqrt(M) // 2 + 1
    bound, lower, first = _cell_bounds(obj, k)
    total, slack = bound[0] + bound[1], 1e-9 * abs(lower) + 1e-300
    keep = ~np.isfinite(total) | (total >= lower - slack)
    if lower == 0.0:
        # the exact 0.0 plateau (ROADMAP item 3): with log LFP it prunes
        # like any other budget, and this cut goes
        keep[first + 1:] = False
    # cell j holds the splits j k + 1 ... j k + k; the last may pass M - 1
    splits = (keep.nonzero()[0][:, None] * k + np.arange(1.0, k + 1)).ravel()
    return _best_split(obj, splits[splits < M])


def solve_exhaustive(scenario: Scenario, config: SolverConfig | None = None):
    """Global integer optimum by enumeration.

    Each direction's success is maximized over its integer redundancy
    box at every blocklength by one ``_first_maxima`` call for both
    directions.  At full budget ``_best_full_budget`` combines them over
    the splits m1 + m2 = M: from M = 500 up it tabulates only the cells
    of m1 whose bound reaches the best midpoint value (``_cell_bounds``),
    and on an exact 0.0 plateau none after the first cell whose midpoint
    reached it, dropping only splits that cannot win, so the winner, its
    tie rule and its bits are those of the full scan; below M = 500 it
    tabulates every split.  Its memory grows with sqrt(M), not M: at
    the default point M = 1e8 solves in 0.05 s, 1e10 in 0.4 s and 1e11
    in 1.4 s at 433 MB peak RSS (2 shared cores, Python 3.11, numpy
    2.4).  With ``full_budget_only=False``, O(M) in time and memory,
    split m1 pairs with every m2 <= M - m1 through a prefix maximum of
    direction 2's table: the first split with the largest sum wins, and
    among its entries equal to that sum the smallest d_r2, then the
    largest m2.  Either way ties resolve to the lexicographically
    smallest (m1, d_r1, d_r2) and, at equal splits, to the fullest
    budget.  The LFP is -expm1 of the winner's table log success,
    ``lfp``'s bits.
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
        # both directions over every blocklength 1..M-1, -inf where a box
        # is empty; split m1 = i + 1's largest sum over m2 = 1..M-1-i is
        # s1 plus a prefix maximum of s2, as rounding is monotone
        m = np.arange(1.0, M)
        (_, s1, d1), (_, s2, d2) = _direction_tables(obj, m, m)
        tops = s1 + np.maximum.accumulate(s2)[::-1]
        i = int(tops.argmax())
        best = None
        if tops[i] > -math.inf:
            row = s1[i] + s2[:M - 1 - i]
            ties = (row == tops[i]).nonzero()[0]
            j = int(ties[d2[ties] == d2[ties].min()][-1])
            best = (Allocation(m1=i + 1, m2=j + 1, d_r1=int(d1[i]),
                               d_r2=int(d2[j])), float(tops[i]))
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
    is ``_edge_or_root`` of (r, dr/dD) from x.  ``_redundancy_pass``
    keeps it only where its log success does not fall (rounding).
    """
    return _edge_or_root(lambda d: at(d)[:2], x, lo, hi)


def solve_bcd(scenario: Scenario, config: SolverConfig | None = None):
    """Cyclic descent m1 -> d_r1 -> d_r2 on the relaxed problem.

    Each redundancy coordinate is set to its exact relaxed optimum over
    its refreshed threshold box, the edge-or-root rule on its hazard
    balance from the incumbent (``_direction_min``), in one
    ``_redundancy_pass`` per cycle: the block is exact.  Every update is
    kept only when it does not worsen the objective, so the trace is
    nonincreasing.  Stopping and integer rounding are ``_descend``'s.
    """
    return _descend(scenario, config,
                    partial(_redundancy_pass, _direction_min))


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
    """MM's redundancy update: ``_redundancy_pass``es of
    ``_surrogate_min`` (BCD's is one pass of ``_direction_min``), each to the exact minimizer of the surrogate
    ((r_ab + r_ae + r_ba + r_be) / 4)^4 anchored at the current point,
    which separates by direction and does not depend on the exponent.
    Per direction, AM-GM gives ((r_b + r_e) / 2)^2 >= r_b r_e =
    exp(l̂ - l), 1 at the anchor, so the pass's keep only guards against
    rounding.  The passes stop when ``_stopped`` holds for consecutive
    objectives, as it does after a pass that leaves the pair unchanged."""
    for _ in range(_MAX_ITERS):
        f_prev = f
        d_r1, d_r2, f = _redundancy_pass(_surrogate_min, dirs, d_r1, d_r2, f)
        if _stopped(f_prev, f):
            break
    return d_r1, d_r2, f


def solve_mm(scenario: Scenario, config: SolverConfig | None = None):
    """Nested scheme: m1 block, then a redundancy block solved by exact
    majorize-minimize passes on the reciprocal success product
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
