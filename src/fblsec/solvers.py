"""Three optimizers over the round-trip allocation.

* ``solve_exhaustive`` -- integer enumeration, the global oracle.  The
  objective factors into independent per-direction success terms, so
  each direction is maximized over its integer redundancy box at every
  blocklength and the maxima are combined over the splits.  For a fixed
  blocklength a direction's log success is concave in the redundancy
  (log Phi is concave), so its first maximizer -- the smallest d with
  g(d+1) <= g(d) -- is found by bisection, for all blocklengths at once:
  O(M * log(range)) link evaluations instead of the O(M * range) dense
  scan, with the same first-maximum tie rule.
* ``solve_bcd`` -- block coordinate descent on the relaxed problem:
  an m1 block followed by golden-section minimization in d_r1 and d_r2,
  with threshold bounds refreshed after every m1 update and optional
  integer reconstruction at the end.
* ``solve_mm`` -- the same outer alternation, but the redundancy pair is
  minimized jointly through a majorize-minimize loop on the reciprocal
  success product, safeguarded against any increase of the true
  objective.

BCD and MM differ only in their redundancy update and share the outer
loop around it (``_descend``).

Every accepted step is checked against the incumbent, so traces are
nonincreasing by construction.  All solvers are deterministic functions
of (scenario, config, init).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# ``dispersion``, ``rate_margin`` and ``redundancy_bounds`` are unused
# here, but benchmarks/tracing.py instruments them at this import site,
# so the names stay bound.
from .fbl_core import DomainError, LN2, NumericalError, _margin, dispersion, rate_margin  # noqa: F401
from .lfp_model import (  # noqa: F401
    Allocation,
    LinkErrors,
    _split_boxes,
    lfp,
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
# and MM step), outer and MM-step caps, golden-section/MM step tolerance.
_REL_TOL = 1e-8
_MAX_OUTER_ITERS = 100
_MAX_INNER_ITERS = 200
_LINE_SEARCH_TOL = 1e-6
# Absolute floor added to the relative stopping test; below this the
# double-precision evaluation itself is noise.
_STOP_ATOL = 1e-12

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverConfig:
    """Problem and method choices shared by the three solvers.

    ``surrogate_exponent=2`` reproduces the printed form of the
    reciprocal-mean bound, which does not actually upper-bound the
    product (see ``surrogate_g``); with the default 4 the bound holds
    everywhere.  ``mm_safeguard`` is MM's guard and fallback (see
    ``solve_mm``); ``integer_mode`` rounds BCD/MM's relaxed solution.
    ``full_budget_only`` restricts enumeration to m1 + m2 = M; disabling
    it is only useful for oracle cross-checks, since partial-budget
    optima are never better unless the full-budget boxes are empty
    (eavesdroppers above their legitimate receivers).  Run control is
    fixed: stop at a relative LFP change of 1e-8 per cycle or after 100
    cycles, at most 200 MM steps, step tolerance 1e-6.
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
    trace [(k, lfp_k)], objective-evaluation count and wall time."""

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

    Returns x with |x - argmin| <= tol.  Non-finite objective values
    abort with :class:`NumericalError`; on an interval collapsed to a
    point the point itself is returned.
    """
    if lo > hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    if hi - lo <= tol:
        return 0.5 * (lo + hi)
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    if not (math.isfinite(fc) and math.isfinite(fd)):
        raise NumericalError("objective returned a non-finite value")
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise NumericalError("objective returned a non-finite value")
    return 0.5 * (a + b)


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
        self.evaluations += 1
        return -log_round_trip_success(self.scenario, m1, d_r1, d_r2)

    def lfp(self, m1, d_r1, d_r2):
        self.evaluations += 1
        return lfp_value(self.scenario, m1, d_r1, d_r2)


def _rel_pos(x, lo, hi):
    if hi <= lo:
        return 0.5
    return (x - lo) / (hi - lo)


def _carried(obj, m1, t1, t2, sqrt=math.sqrt, maximum=max):
    """Feasibility of split m1 and the redundancy pair at the
    box-relative positions (t1, t2) of its box; for a float m1, or an
    array with ``np.sqrt`` and ``np.maximum``."""
    lo1, hi1, lo2, hi2, feasible = obj.box(m1, sqrt, maximum)
    return feasible, lo1 + t1 * (hi1 - lo1), lo2 + t2 * (hi2 - lo2)


def _m1_profile(obj, m1, t1, t2):
    """Objective along the split with redundancy carried at fixed
    box-relative positions; +inf where the box is empty."""
    feasible, a, b = _carried(obj, m1, t1, t2)
    if not feasible:
        return math.inf, None, None
    return obj.nl(m1, a, b), a, b


def _m1_profile_grid(obj, m1, t1, t2):
    """``_m1_profile`` values at every split of the array ``m1``, in
    one vector evaluation with the same bits per point; each feasible
    point counts as one evaluation."""
    scenario = obj.scenario
    feasible, a, b = _carried(obj, m1, t1, t2, np.sqrt, np.maximum)
    m = m1[feasible]
    s1 = log_direction_success(scenario.gamma_ab, scenario.gamma_ae, m,
                               scenario.d_m1 + a[feasible])
    s2 = log_direction_success(scenario.gamma_ba, scenario.gamma_be,
                               scenario.M - m, scenario.d_m2 + b[feasible])
    obj.evaluations += m.size
    vals = np.full(m1.size, math.inf)
    vals[feasible] = -(s1 + s2)
    return vals


def _m1_block(obj, m1, d_r1, d_r2):
    """One blocklength-split update.

    A plain fixed-redundancy line search cannot leave the thin diagonal
    strip that the thresholds carve out when the legitimate and
    eavesdropper capacities are close, so candidates are evaluated with
    the redundancy pair held at its current box-relative position; a
    coarse bracket on [1, M-1], evaluated in one vector call, isolates
    the best basin before the golden-section refinement.  The move is accepted only if it improves
    the incumbent.
    """
    lo1, hi1, lo2, hi2, _ = obj.box(m1)
    t1 = _rel_pos(d_r1, lo1, hi1)
    t2 = _rel_pos(d_r2, lo2, hi2)
    xs = np.linspace(1.0, float(obj.scenario.M - 1), _M1_GRID + 1)
    vals = _m1_profile_grid(obj, xs, t1, t2)
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return m1, d_r1, d_r2
    a = xs[max(0, i - 1)]
    b = xs[min(_M1_GRID, i + 1)]
    cand = bcd_scalar_min(lambda x: _m1_profile(obj, x, t1, t2)[0], a, b,
                          _LINE_SEARCH_TOL)
    v_new, dr1_new, dr2_new = _m1_profile(obj, cand, t1, t2)
    if v_new <= obj.nl(m1, d_r1, d_r2):
        return cand, dr1_new, dr2_new
    return m1, d_r1, d_r2


def _coord_min(obj_1d, x_cur, lo, hi):
    """Golden-section step in one coordinate, kept only if it improves."""
    if hi <= lo:
        x = lo
    else:
        x = bcd_scalar_min(obj_1d, lo, hi, _LINE_SEARCH_TOL)
    return x if obj_1d(x) <= obj_1d(x_cur) else x_cur


def _check_init(scenario, init):
    """A start must leave the backward direction at least one channel
    use: 1 <= init.m1 <= M - 1 (``Allocation`` guarantees the lower
    end)."""
    if init is not None and not init.m1 <= scenario.M - 1:
        raise DomainError(f"init.m1 must be <= M - 1 = {scenario.M - 1}, "
                          f"got {init.m1!r}")


def _initial_point(obj, init):
    """Start at the given allocation, else at the mid-budget split with
    mid-box redundancy; on an infeasible start, retry on a 16-point
    split grid before giving up."""
    scenario = obj.scenario
    if init is not None:
        lo1, hi1, lo2, hi2, feasible = obj.box(init.m1)
        if feasible:
            d_r1 = min(max(init.d_r1, lo1), hi1)
            d_r2 = min(max(init.d_r2, lo2), hi2)
            return float(init.m1), d_r1, d_r2
    candidates = [float(round(scenario.M / 2))]
    candidates += list(np.linspace(1.0, scenario.M - 1.0, 16))
    best = None
    for m1 in candidates:
        lo1, hi1, lo2, hi2, feasible = obj.box(m1)
        if not feasible:
            continue
        d_r1 = 0.5 * (lo1 + hi1)
        d_r2 = 0.5 * (lo2 + hi2)
        val = obj.nl(m1, d_r1, d_r2)
        if best is None or val < best[0]:
            best = (val, m1, d_r1, d_r2)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _stopped(prev, cur):
    return abs(prev - cur) <= _REL_TOL * abs(prev) + _STOP_ATOL


def _integer_reconstruct(obj, m1, d_r1, d_r2, extra=None):
    """Round a relaxed solution by comparing the feasible corner points.

    Up to 2^3 floor/ceil corners are evaluated after filtering through
    the integer redundancy box at each candidate split; if every corner
    is infeasible, all integer splits are scanned once with the
    redundancy clamped into the box.  ``extra`` adds one more integer
    candidate to the comparison (a caller-provided integral start, so
    seeding with a known allocation can never yield something worse).
    Returns None when no integer-feasible allocation is found at all.
    """
    scenario = obj.scenario

    def candidates_for(im1):
        lo1, hi1, lo2, hi2, feasible = obj.box(float(im1))
        if not feasible:
            return None
        ilo1 = math.ceil(lo1 - 1e-9)
        ihi1 = math.floor(hi1 + 1e-9)
        ilo2 = math.ceil(lo2 - 1e-9)
        ihi2 = math.floor(hi2 + 1e-9)
        if ihi1 < ilo1 or ihi2 < ilo2:
            return None
        c1 = sorted({min(max(math.floor(d_r1), ilo1), ihi1),
                     min(max(math.ceil(d_r1), ilo1), ihi1)})
        c2 = sorted({min(max(math.floor(d_r2), ilo2), ihi2),
                     min(max(math.ceil(d_r2), ilo2), ihi2)})
        return [(a, b) for a in c1 for b in c2]

    best = None
    if extra is not None:
        em1, ea, eb = extra
        lo1, hi1, lo2, hi2, feasible = obj.box(float(em1))
        if (1 <= em1 <= scenario.M - 1 and feasible
                and lo1 - 1e-9 <= ea <= hi1 + 1e-9
                and lo2 - 1e-9 <= eb <= hi2 + 1e-9):
            best = (obj.nl(float(em1), float(ea), float(eb)), em1, ea, eb)
    for im1 in sorted({math.floor(m1), math.ceil(m1)}):
        if not 1 <= im1 <= scenario.M - 1:
            continue
        cands = candidates_for(im1)
        if cands is None:
            continue
        for a, b in cands:
            key = (obj.nl(float(im1), float(a), float(b)), im1, a, b)
            if best is None or key < best:
                best = key
    if best is None:
        # corner rounding failed; one pass over every integer split
        for im1 in range(1, scenario.M):
            cands = candidates_for(im1)
            if cands is None:
                continue
            a, b = cands[0]
            key = (obj.nl(float(im1), float(a), float(b)), im1, a, b)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    _, im1, a, b = best
    return Allocation(m1=im1, m2=scenario.M - im1, d_r1=a, d_r2=b)


def _integral_init_candidate(scenario, init):
    if init is None or not init.is_integral:
        return None
    if init.m1 + init.m2 != scenario.M:
        return None
    return (int(init.m1), int(init.d_r1), int(init.d_r2))


def _report(obj, t_start, status, trace, alloc=None, final=None):
    """Report of a solve started at ``t_start`` (no allocation: none
    was found)."""
    return SolverReport(status=status, alloc=alloc, lfp_final=final,
                        trace=trace, evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


def _descend(scenario, config, init, redundancy_step):
    """The outer alternation of BCD and MM.

    From ``_initial_point``, each cycle runs the m1 block, refreshes the
    box at the new split, updates the redundancy pair by
    ``redundancy_step(obj, config, m1, d_r1, d_r2, (lo1, hi1, lo2,
    hi2))`` and records the LFP.  It stops when a cycle changes the LFP
    by at most ``_REL_TOL`` relative (with a ``_STOP_ATOL`` floor for
    LFPs below double-precision resolution) or after
    ``_MAX_OUTER_ITERS`` cycles.  In integer mode ``_integer_reconstruct``
    rounds the result, with an integral full-budget ``init`` as one more
    candidate.
    """
    config = config or SolverConfig()
    _check_init(scenario, init)
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    start = _initial_point(obj, init)
    if start is None:
        return _report(obj, t_start, STATUS_INFEASIBLE, [])
    m1, d_r1, d_r2 = start
    trace = [(0, obj.lfp(m1, d_r1, d_r2))]
    status = STATUS_MAX_ITERS
    for k in range(1, _MAX_OUTER_ITERS + 1):
        m1, d_r1, d_r2 = _m1_block(obj, m1, d_r1, d_r2)
        box = obj.box(m1)[:4]
        d_r1, d_r2 = redundancy_step(obj, config, m1, d_r1, d_r2, box)
        trace.append((k, obj.lfp(m1, d_r1, d_r2)))
        if _stopped(trace[-2][1], trace[-1][1]):
            status = STATUS_CONVERGED
            break
    if not config.integer_mode:
        alloc = Allocation(m1=m1, m2=scenario.M - m1, d_r1=d_r1, d_r2=d_r2)
        return _report(obj, t_start, status, trace, alloc,
                       obj.lfp(m1, d_r1, d_r2))
    alloc = _integer_reconstruct(obj, m1, d_r1, d_r2,
                                 extra=_integral_init_candidate(scenario, init))
    if alloc is None:
        return _report(obj, t_start, STATUS_INFEASIBLE, trace)
    return _report(obj, t_start, status, trace, alloc,
                   obj.lfp(float(alloc.m1), float(alloc.d_r1),
                           float(alloc.d_r2)))


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def _first_maxima(obj, gamma_b, gamma_e, d_m, m, lo, hi):
    """Best integer redundancy of one direction at every blocklength.

    ``m``, ``lo`` and ``hi`` are arrays (non-empty integer boxes
    [lo, hi]).  For each m this finds the smallest d in the box with
    g(d+1) <= g(d), or hi if there is none, where g is the direction's
    log success; all blocklengths share one bisection of about
    log2(hi - lo) steps.  g is concave in d (log Phi is concave), so that
    d is the first maximizer a dense scan of the box would return, plateau
    ties included.  Returns (max log success, its d) arrays.
    """
    a, b = lo.copy(), hi.copy()
    active = np.flatnonzero(a < b)
    while active.size:
        mid = np.floor(0.5 * (a[active] + b[active]))
        g = log_direction_success(gamma_b, gamma_e, m[active],
                                  d_m + np.stack((mid, mid + 1.0)))
        obj.evaluations += g.size
        falls = g[1] <= g[0]
        b[active[falls]] = mid[falls]
        a[active[~falls]] = mid[~falls] + 1.0
        active = active[a[active] < b[active]]
    best = log_direction_success(gamma_b, gamma_e, m, d_m + a)
    obj.evaluations += best.size
    return best, a


def solve_exhaustive(scenario: Scenario, config: SolverConfig | None = None):
    """Global integer optimum by enumeration.

    For every split m1 (and, with ``full_budget_only=False``, every
    m2 <= M - m1, largest first) the per-direction success is maximized
    over the integer redundancy box by ``_first_maxima``; the incumbent
    is replaced only on strict improvement, so ties resolve to the
    lexicographically smallest (m1, d_r1, d_r2) and, at equal splits,
    to the fullest budget.
    """
    config = config or SolverConfig()
    if not config.integer_mode:
        raise DomainError("exhaustive search is defined on the integer problem")
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    M = scenario.M

    # Both directions tabulated over every blocklength 1..M-1: direction
    # 1 at m1, direction 2 at m2.
    m = np.arange(1, M, dtype=float)
    lo1, hi1, lo2, hi2, _ = _split_boxes(obj.links, scenario, m, m,
                                         np.sqrt, np.maximum)
    tables = []
    for gamma_b, gamma_e, d_m, lo, hi in (
            (scenario.gamma_ab, scenario.gamma_ae, scenario.d_m1, lo1, hi1),
            (scenario.gamma_ba, scenario.gamma_be, scenario.d_m2, lo2, hi2)):
        lo = np.ceil(lo - 1e-9)
        hi = np.floor(hi + 1e-9)
        ok = hi >= lo
        s = np.full(m.size, -np.inf)
        d = np.zeros(m.size, dtype=np.int64)
        s[ok], d[ok] = _first_maxima(obj, gamma_b, gamma_e, d_m, m[ok],
                                     lo[ok], hi[ok])
        tables.append((ok, s, d))
    (ok1, s1, d1), (ok2, s2, d2) = tables

    best = None  # (m1, d_r1, d_r2, m2)
    if config.full_budget_only:
        # m2 = M - m1 reverses the direction-2 table
        ok = ok1 & ok2[::-1]
        if ok.any():
            splits = np.flatnonzero(ok)
            neg = -(s1[splits] + s2[::-1][splits])
            i = int(splits[np.argmin(neg)])
            best = (i + 1, int(d1[i]), int(d2[M - 2 - i]), M - 1 - i)
    else:
        dir1 = list(zip(ok1.tolist(), s1.tolist(), d1.tolist()))
        dir2 = list(zip(ok2.tolist(), s2.tolist(), d2.tolist()))
        best_key = None
        for m1 in range(1, M):
            ok, sv1, dr1 = dir1[m1 - 1]
            if not ok:
                continue
            for m2 in range(M - m1, 0, -1):
                ok, sv2, dr2 = dir2[m2 - 1]
                if not ok:
                    continue
                key = (-(sv1 + sv2), m1, dr1, dr2)
                if best_key is None or key < best_key:
                    best_key, best = key, (m1, dr1, dr2, m2)
    if best is None:
        return _report(obj, t_start, STATUS_INFEASIBLE, [])
    m1, dr1, dr2, m2 = best
    alloc = Allocation(m1=m1, m2=m2, d_r1=dr1, d_r2=dr2)
    obj.evaluations += 1
    final = lfp(scenario, alloc)
    return _report(obj, t_start, STATUS_CONVERGED, [(0, final)], alloc, final)


# ----------------------------------------------------------------------
# block coordinate descent
# ----------------------------------------------------------------------

def _bcd_step(obj, config, m1, d_r1, d_r2, box):
    """BCD's redundancy update: one golden-section step in d_r1, then
    one in d_r2, each kept only if it does not worsen the objective."""
    lo1, hi1, lo2, hi2 = box
    d_r1 = _coord_min(lambda x: obj.nl(m1, x, d_r2), d_r1, lo1, hi1)
    d_r2 = _coord_min(lambda x: obj.nl(m1, d_r1, x), d_r2, lo2, hi2)
    return d_r1, d_r2


def solve_bcd(scenario: Scenario, config: SolverConfig | None = None,
              init: Allocation | None = None):
    """Cyclic descent m1 -> d_r1 -> d_r2 on the relaxed problem.

    Each redundancy coordinate is minimized by golden-section search
    over its refreshed threshold box (``_bcd_step``); every update is
    kept only when it does not worsen the objective, so the trace is
    nonincreasing.  Stopping and integer rounding are ``_descend``'s.
    """
    return _descend(scenario, config, init, _bcd_step)


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


def _success_reciprocals(obj, m1, d_r1, d_r2):
    """The four reciprocals (A, B, C, D) and the per-link d-derivative
    of each, at a reduced-space point."""
    scenario = obj.scenario
    m2 = scenario.M - m1
    d1 = scenario.d_m1 + d_r1
    d2 = scenario.d_m2 + d_r2
    ab, ae, ba, be = obj.links
    out = []
    for (log1p, v, _, _), m, d, legit in ((ab, m1, d1, True),
                                          (ae, m1, d1, False),
                                          (ba, m2, d2, True),
                                          (be, m2, d2, False)):
        w = _margin(log1p, v, m, d, math.sqrt)
        eps = 0.5 * math.erfc(w / math.sqrt(2.0))
        eps = min(max(eps, 1e-300), 1.0 - 1e-16)
        deps = (math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
                * LN2 / math.sqrt(m * v))
        if legit:
            val = 1.0 / (1.0 - eps)
            dval = deps * val * val
        else:
            val = 1.0 / eps
            dval = -deps * val * val
        out.append((val, dval))
    return out


def _anchored_surrogate(terms, anchor, exponent):
    """Value and redundancy gradient of the anchored reciprocal-mean
    surrogate ((A/Ah + B/Bh + C/Ch + D/Dh) / 4) ** exponent at the point
    whose ``_success_reciprocals`` are ``terms``.

    Dividing each reciprocal by its value at the anchor point makes the
    bound tight there (all four ratios equal one), which is what lets a
    descent step on the surrogate certify descent of the true
    reciprocal product; the unanchored ``surrogate_g`` is this same
    expression at an equal-valued anchor.
    """
    (a, da), (b, db), (c, dc), (d, dd) = terms
    ah, bh, ch, dh = anchor
    mean = 0.25 * (a / ah + b / bh + c / ch + d / dh)
    val = mean ** exponent
    pref = exponent * mean ** (exponent - 1) * 0.25
    g1 = pref * (da / ah + db / bh)
    g2 = pref * (dc / ch + dd / dh)
    return val, g1, g2


def _mm_dr_block(obj, m1, d_r1, d_r2, box, exponent):
    """Joint redundancy update by majorize-minimize iterations.

    Each pass anchors the surrogate at the current point and takes one
    backtracking projected-gradient step on it; because the surrogate
    touches the true reciprocal product at the anchor, any surrogate
    decrease is a true decrease (exponent 4).  Steps that would increase
    the true objective (possible with exponent 2) end the loop.
    """
    lo1, hi1, lo2, hi2 = box
    x1, x2 = d_r1, d_r2
    f_cur = obj.nl(m1, x1, x2)
    step = 1.0
    for _ in range(_MAX_INNER_ITERS):
        terms = _success_reciprocals(obj, m1, x1, x2)
        anchor = tuple(v for v, _ in terms)
        hv, g1, g2 = _anchored_surrogate(terms, anchor, exponent)
        step = min(step * 2.0, 1e12)
        while True:
            n1 = min(max(x1 - step * g1, lo1), hi1)
            n2 = min(max(x2 - step * g2, lo2), hi2)
            hn = _anchored_surrogate(_success_reciprocals(obj, m1, n1, n2),
                                     anchor, exponent)[0]
            decrease = g1 * (x1 - n1) + g2 * (x2 - n2)
            if hn <= hv - 1e-4 * decrease or step < 1e-14:
                break
            step *= 0.5
        f_new = obj.nl(m1, n1, n2)
        if f_new > f_cur:
            break
        moved = abs(n1 - x1) + abs(n2 - x2)
        rel_gain = abs(f_cur - f_new) / max(abs(f_cur), 1e-300)
        x1, x2, f_cur = n1, n2, f_new
        if rel_gain < _REL_TOL or moved < _LINE_SEARCH_TOL:
            break
    return x1, x2


def _mm_step(obj, config, m1, d_r1, d_r2, box):
    """MM's redundancy update: ``_mm_dr_block``, with ``mm_safeguard``
    kept only if the LFP does not rise and followed by ``_bcd_step``
    unless the LFP fell by more than ``_REL_TOL`` (+ ``_STOP_ATOL``)."""
    f_before = obj.lfp(m1, d_r1, d_r2)
    x1, x2 = _mm_dr_block(obj, m1, d_r1, d_r2, box, config.surrogate_exponent)
    f_after = obj.lfp(m1, x1, x2)
    if not config.mm_safeguard:
        return x1, x2
    if f_after <= f_before:
        d_r1, d_r2 = x1, x2
    if f_before - f_after <= _REL_TOL * abs(f_before) + _STOP_ATOL:
        d_r1, d_r2 = _bcd_step(obj, config, m1, d_r1, d_r2, box)
    return d_r1, d_r2


def solve_mm(scenario: Scenario, config: SolverConfig | None = None,
             init: Allocation | None = None):
    """Nested scheme: m1 block, then a joint redundancy block solved by
    majorize-minimize steps on the reciprocal success product.

    With ``mm_safeguard`` (default) the redundancy block result is kept
    only if it does not increase the true objective, and whenever the
    block fails to make relative progress above ``_REL_TOL`` the
    iteration falls back to BCD's coordinate-wise golden-section step
    (``_mm_step``) -- this covers both the exponent-2 surrogate (not a
    true upper bound) and the flat tail where surrogate steps stall.
    Stopping and integer rounding are ``_descend``'s, as for BCD.
    """
    return _descend(scenario, config, init, _mm_step)


__all__ = [
    "SolverConfig", "SolverReport", "bcd_scalar_min", "surrogate_g",
    "solve_exhaustive", "solve_bcd", "solve_mm",
    "STATUS_CONVERGED", "STATUS_MAX_ITERS", "STATUS_INFEASIBLE",
]
