"""Three optimizers over the round-trip allocation.

* ``solve_exhaustive`` -- integer enumeration, the global oracle.  The
  objective factors into independent per-direction success terms, so for
  each blocklength split the scan maximizes each direction over its
  integer redundancy range and combines the maxima; this evaluates the
  same candidate set as the full cross product but in
  O(M * (d_r1_range + d_r2_range)) work.
* ``solve_bcd`` -- block coordinate descent on the relaxed problem:
  an m1 block followed by golden-section minimization in d_r1 and d_r2,
  with threshold bounds refreshed after every m1 update and optional
  integer reconstruction at the end.
* ``solve_mm`` -- the same outer alternation, but the redundancy pair is
  minimized jointly through a majorize-minimize loop on the reciprocal
  success product, safeguarded against any increase of the true
  objective.

Every accepted step is checked against the incumbent, so traces are
nonincreasing by construction.  All solvers are deterministic functions
of (scenario, config, init).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fbl_core import DomainError, LN2, NumericalError, dispersion, rate_margin
from .lfp_model import (
    Allocation,
    LinkErrors,
    lfp,
    lfp_value,
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
# Absolute floor added to the relative stopping test; below this the
# double-precision evaluation itself is noise.
_STOP_ATOL = 1e-12

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverConfig:
    """Run-control knobs shared by the three solvers.

    ``surrogate_exponent=2`` reproduces the printed form of the
    reciprocal-mean bound, which does not actually upper-bound the
    product (see ``surrogate_g``); with the default 4 the bound holds
    everywhere.  ``full_budget_only`` restricts enumeration to
    m1 + m2 = M; disabling it is only useful for oracle cross-checks,
    since partial-budget optima are never better unless the full-budget
    boxes are empty (eavesdroppers above their legitimate receivers).
    """

    rel_tol: float = 1e-8
    max_outer_iters: int = 100
    max_inner_iters: int = 200
    line_search_tol: float = 1e-6
    surrogate_exponent: int = 4
    mm_safeguard: bool = True
    integer_mode: bool = True
    full_budget_only: bool = True

    def __post_init__(self):
        if self.rel_tol <= 0 or self.line_search_tol <= 0:
            raise DomainError("tolerances must be > 0")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise DomainError("iteration caps must be >= 1")
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

    def to_dict(self):
        alloc = None
        if self.alloc is not None:
            alloc = {"m1": self.alloc.m1, "m2": self.alloc.m2,
                     "d_r1": self.alloc.d_r1, "d_r2": self.alloc.d_r2}
        return {
            "status": self.status,
            "alloc": alloc,
            "lfp_final": self.lfp_final,
            "iterations": max((k for k, _ in self.trace), default=0),
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
    """Negative log round-trip success with an evaluation counter.

    Minimizing it is equivalent to minimizing the LFP but it stays
    informative where the LFP itself underflows.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.evaluations = 0

    def nl(self, m1, d_r1, d_r2):
        self.evaluations += 1
        return -log_round_trip_success(self.scenario, m1, d_r1, d_r2)

    def lfp(self, m1, d_r1, d_r2):
        self.evaluations += 1
        return lfp_value(self.scenario, m1, d_r1, d_r2)


def _box(scenario, m1):
    return redundancy_bounds(scenario, m1, scenario.M - m1)


def _rel_pos(x, lo, hi):
    if hi <= lo:
        return 0.5
    return (x - lo) / (hi - lo)


def _m1_profile(obj, m1, t1, t2):
    """Objective along the split with redundancy carried at fixed
    box-relative positions; +inf where the box is empty."""
    box = _box(obj.scenario, m1)
    if not box.feasible:
        return math.inf, None, None
    a = box.d_r1_min + t1 * (box.d_r1_max - box.d_r1_min)
    b = box.d_r2_min + t2 * (box.d_r2_max - box.d_r2_min)
    return obj.nl(m1, a, b), a, b


def _m1_block(obj, m1, d_r1, d_r2, tol):
    """One blocklength-split update.

    A plain fixed-redundancy line search cannot leave the thin diagonal
    strip that the thresholds carve out when the legitimate and
    eavesdropper capacities are close, so candidates are evaluated with
    the redundancy pair held at its current box-relative position; a
    coarse bracket on [1, M-1] isolates the best basin before the
    golden-section refinement.  The move is accepted only if it improves
    the incumbent.
    """
    scenario = obj.scenario
    box = _box(scenario, m1)
    t1 = _rel_pos(d_r1, box.d_r1_min, box.d_r1_max)
    t2 = _rel_pos(d_r2, box.d_r2_min, box.d_r2_max)
    lo, hi = 1.0, float(scenario.M - 1)
    xs = np.linspace(lo, hi, _M1_GRID + 1)
    vals = [_m1_profile(obj, x, t1, t2)[0] for x in xs]
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return m1, d_r1, d_r2
    a = xs[max(0, i - 1)]
    b = xs[min(_M1_GRID, i + 1)]
    cand = bcd_scalar_min(lambda x: _m1_profile(obj, x, t1, t2)[0], a, b, tol)
    v_new, dr1_new, dr2_new = _m1_profile(obj, cand, t1, t2)
    if v_new <= obj.nl(m1, d_r1, d_r2):
        return cand, dr1_new, dr2_new
    return m1, d_r1, d_r2


def _coord_min(obj_1d, x_cur, lo, hi, tol):
    """Golden-section step in one coordinate, kept only if it improves."""
    if hi <= lo:
        x = lo
    else:
        x = bcd_scalar_min(obj_1d, lo, hi, tol)
    return x if obj_1d(x) <= obj_1d(x_cur) else x_cur


def _initial_point(obj, config, init):
    """Start at the given allocation, else at the mid-budget split with
    mid-box redundancy; on an infeasible start, retry on a 16-point
    split grid before giving up."""
    scenario = obj.scenario
    if init is not None:
        box = _box(scenario, init.m1)
        if box.feasible:
            d_r1 = min(max(init.d_r1, box.d_r1_min), box.d_r1_max)
            d_r2 = min(max(init.d_r2, box.d_r2_min), box.d_r2_max)
            return float(init.m1), d_r1, d_r2
    candidates = [float(round(scenario.M / 2))]
    candidates += list(np.linspace(1.0, scenario.M - 1.0, 16))
    best = None
    for m1 in candidates:
        box = _box(scenario, m1)
        if not box.feasible:
            continue
        d_r1 = 0.5 * (box.d_r1_min + box.d_r1_max)
        d_r2 = 0.5 * (box.d_r2_min + box.d_r2_max)
        val = obj.nl(m1, d_r1, d_r2)
        if best is None or val < best[0]:
            best = (val, m1, d_r1, d_r2)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _stopped(prev, cur, rel_tol):
    return abs(prev - cur) <= rel_tol * abs(prev) + _STOP_ATOL


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
        box = _box(scenario, float(im1))
        if not box.feasible:
            return None
        ilo1 = math.ceil(box.d_r1_min - 1e-9)
        ihi1 = math.floor(box.d_r1_max + 1e-9)
        ilo2 = math.ceil(box.d_r2_min - 1e-9)
        ihi2 = math.floor(box.d_r2_max + 1e-9)
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
        box = _box(scenario, float(em1))
        if (1 <= em1 <= scenario.M - 1 and box.feasible
                and box.d_r1_min - 1e-9 <= ea <= box.d_r1_max + 1e-9
                and box.d_r2_min - 1e-9 <= eb <= box.d_r2_max + 1e-9):
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


def _finish(obj, config, status, m1, d_r1, d_r2, trace, t_start,
            extra_integer=None):
    if config.integer_mode:
        alloc = _integer_reconstruct(obj, m1, d_r1, d_r2, extra=extra_integer)
        if alloc is None:
            return SolverReport(status=STATUS_INFEASIBLE, alloc=None,
                                lfp_final=None, trace=trace,
                                evaluations=obj.evaluations,
                                wall_time=time.perf_counter() - t_start)
        final = obj.lfp(float(alloc.m1), float(alloc.d_r1), float(alloc.d_r2))
    else:
        alloc = Allocation(m1=m1, m2=obj.scenario.M - m1, d_r1=d_r1, d_r2=d_r2)
        final = obj.lfp(m1, d_r1, d_r2)
    return SolverReport(status=status, alloc=alloc, lfp_final=final,
                        trace=trace, evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


def _infeasible(obj, t_start):
    return SolverReport(status=STATUS_INFEASIBLE, alloc=None, lfp_final=None,
                        trace=[], evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def solve_exhaustive(scenario: Scenario, config: SolverConfig | None = None):
    """Global integer optimum by enumeration.

    For every split m1 (and, with ``full_budget_only=False``, every
    m2 <= M - m1, largest first) the per-direction success is maximized
    over the integer redundancy box; the incumbent is replaced only on
    strict improvement, so ties resolve to the lexicographically
    smallest (m1, d_r1, d_r2) and, at equal splits, to the fullest
    budget.
    """
    config = config or SolverConfig()
    if not config.integer_mode:
        raise DomainError("exhaustive search is defined on the integer problem")
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    M = scenario.M

    # Direction-2 scans are reused across (m1, m2) pairs: cache by m2.
    dir2_cache = {}

    def dir2(m2):
        if m2 not in dir2_cache:
            box = redundancy_bounds(scenario, float(M - m2), float(m2))
            lo = math.ceil(box.d_r2_min - 1e-9)
            hi = math.floor(box.d_r2_max + 1e-9)
            if hi < lo:
                dir2_cache[m2] = None
            else:
                d_r = np.arange(lo, hi + 1, dtype=float)
                ls = log_direction_success(scenario.gamma_ba, scenario.gamma_be,
                                           float(m2), scenario.d_m2 + d_r)
                i = int(np.argmax(ls))
                obj.evaluations += d_r.size
                dir2_cache[m2] = (float(ls[i]), int(d_r[i]))
        return dir2_cache[m2]

    best = None  # (-log_success, m1, d_r1, d_r2, m2)
    for m1 in range(1, M):
        box = redundancy_bounds(scenario, float(m1), float(M - m1))
        lo1 = math.ceil(box.d_r1_min - 1e-9)
        hi1 = math.floor(box.d_r1_max + 1e-9)
        if hi1 < lo1:
            continue
        d_r = np.arange(lo1, hi1 + 1, dtype=float)
        ls1 = log_direction_success(scenario.gamma_ab, scenario.gamma_ae,
                                    float(m1), scenario.d_m1 + d_r)
        obj.evaluations += d_r.size
        i1 = int(np.argmax(ls1))
        s1, dr1 = float(ls1[i1]), int(d_r[i1])
        m2_values = (M - m1,) if config.full_budget_only else range(M - m1, 0, -1)
        for m2 in m2_values:
            res2 = dir2(m2)
            if res2 is None:
                continue
            s2, dr2 = res2
            key = (-(s1 + s2), m1, dr1, dr2)
            if best is None or key < (best[0], best[1], best[2], best[3]):
                best = (key[0], m1, dr1, dr2, m2)
    if best is None:
        return _infeasible(obj, t_start)
    _, m1, dr1, dr2, m2 = best
    alloc = Allocation(m1=m1, m2=m2, d_r1=dr1, d_r2=dr2)
    obj.evaluations += 1
    final = lfp(scenario, alloc)
    return SolverReport(status=STATUS_CONVERGED, alloc=alloc, lfp_final=final,
                        trace=[(0, final)], evaluations=obj.evaluations,
                        wall_time=time.perf_counter() - t_start)


# ----------------------------------------------------------------------
# block coordinate descent
# ----------------------------------------------------------------------

def solve_bcd(scenario: Scenario, config: SolverConfig | None = None,
              init: Allocation | None = None):
    """Cyclic descent m1 -> d_r1 -> d_r2 on the relaxed problem.

    Each redundancy coordinate is minimized by golden-section search
    over its refreshed threshold box; every update is kept only when it
    does not worsen the objective, so the trace is nonincreasing.  Stops
    when the relative LFP change per cycle falls below ``rel_tol`` (with
    a 1e-12 absolute floor for operating points where the LFP itself is
    below double-precision resolution) or at ``max_outer_iters``.  In
    integer mode the relaxed solution is rounded through the feasible
    corner comparison.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    start = _initial_point(obj, config, init)
    if start is None:
        return _infeasible(obj, t_start)
    m1, d_r1, d_r2 = start
    tol = config.line_search_tol
    trace = [(0, obj.lfp(m1, d_r1, d_r2))]
    status = STATUS_MAX_ITERS
    for k in range(1, config.max_outer_iters + 1):
        m1, d_r1, d_r2 = _m1_block(obj, m1, d_r1, d_r2, tol)
        box = _box(scenario, m1)
        d_r1 = _coord_min(lambda x: obj.nl(m1, x, d_r2), d_r1,
                          box.d_r1_min, box.d_r1_max, tol)
        d_r2 = _coord_min(lambda x: obj.nl(m1, d_r1, x), d_r2,
                          box.d_r2_min, box.d_r2_max, tol)
        trace.append((k, obj.lfp(m1, d_r1, d_r2)))
        if _stopped(trace[-2][1], trace[-1][1], config.rel_tol):
            status = STATUS_CONVERGED
            break
    return _finish(obj, config, status, m1, d_r1, d_r2, trace, t_start,
                   extra_integer=_integral_init_candidate(scenario, init))


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


def _success_reciprocals(scenario, m1, d_r1, d_r2):
    """The four reciprocals (A, B, C, D) and the per-link d-derivative
    of each, at a reduced-space point."""
    m2 = scenario.M - m1
    d1 = scenario.d_m1 + d_r1
    d2 = scenario.d_m2 + d_r2
    out = []
    for gamma, m, d, legit in ((scenario.gamma_ab, m1, d1, True),
                               (scenario.gamma_ae, m1, d1, False),
                               (scenario.gamma_ba, m2, d2, True),
                               (scenario.gamma_be, m2, d2, False)):
        w = rate_margin(gamma, m, d)
        eps = 0.5 * math.erfc(w / math.sqrt(2.0))
        eps = min(max(eps, 1e-300), 1.0 - 1e-16)
        deps = (math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
                * LN2 / math.sqrt(m * dispersion(gamma)))
        if legit:
            val = 1.0 / (1.0 - eps)
            dval = deps * val * val
        else:
            val = 1.0 / eps
            dval = -deps * val * val
        out.append((val, dval))
    return out


def _anchored_surrogate(scenario, m1, x1, x2, anchor, exponent):
    """Value and redundancy gradient of the anchored reciprocal-mean
    surrogate ((A/Ah + B/Bh + C/Ch + D/Dh) / 4) ** exponent.

    Dividing each reciprocal by its value at the anchor point makes the
    bound tight there (all four ratios equal one), which is what lets a
    descent step on the surrogate certify descent of the true
    reciprocal product; the unanchored ``surrogate_g`` is this same
    expression at an equal-valued anchor.
    """
    terms = _success_reciprocals(scenario, m1, x1, x2)
    (a, da), (b, db), (c, dc), (d, dd) = terms
    ah, bh, ch, dh = anchor
    mean = 0.25 * (a / ah + b / bh + c / ch + d / dh)
    val = mean ** exponent
    pref = exponent * mean ** (exponent - 1) * 0.25
    g1 = pref * (da / ah + db / bh)
    g2 = pref * (dc / ch + dd / dh)
    return val, g1, g2


def _mm_dr_block(obj, m1, d_r1, d_r2, box, config):
    """Joint redundancy update by majorize-minimize iterations.

    Each pass anchors the surrogate at the current point and takes one
    backtracking projected-gradient step on it; because the surrogate
    touches the true reciprocal product at the anchor, any surrogate
    decrease is a true decrease (exponent 4).  Steps that would increase
    the true objective (possible with exponent 2) end the loop.
    """
    scenario = obj.scenario
    lo1, hi1 = box.d_r1_min, box.d_r1_max
    lo2, hi2 = box.d_r2_min, box.d_r2_max
    x1, x2 = d_r1, d_r2
    f_cur = obj.nl(m1, x1, x2)
    step = 1.0
    accepted = 0
    for _ in range(config.max_inner_iters):
        anchor = tuple(v for v, _ in _success_reciprocals(scenario, m1, x1, x2))
        hv, g1, g2 = _anchored_surrogate(scenario, m1, x1, x2, anchor,
                                         config.surrogate_exponent)
        step = min(step * 2.0, 1e12)
        while True:
            n1 = min(max(x1 - step * g1, lo1), hi1)
            n2 = min(max(x2 - step * g2, lo2), hi2)
            hn = _anchored_surrogate(scenario, m1, n1, n2, anchor,
                                     config.surrogate_exponent)[0]
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
        accepted += 1
        if rel_gain < config.rel_tol or moved < config.line_search_tol:
            break
    return x1, x2, accepted


def solve_mm(scenario: Scenario, config: SolverConfig | None = None,
             init: Allocation | None = None):
    """Nested scheme: m1 block, then a joint redundancy block solved by
    majorize-minimize steps on the reciprocal success product.

    With ``mm_safeguard`` (default) the redundancy block result is kept
    only if it does not increase the true objective, and whenever the
    block fails to make relative progress above ``rel_tol`` the
    iteration falls back to coordinate-wise golden-section descent --
    this covers both the exponent-2 surrogate (not a true upper bound)
    and the flat tail where surrogate steps stall.  Termination and
    integer reconstruction mirror ``solve_bcd``.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    obj = _Objective(scenario)
    start = _initial_point(obj, config, init)
    if start is None:
        return _infeasible(obj, t_start)
    m1, d_r1, d_r2 = start
    tol = config.line_search_tol
    trace = [(0, obj.lfp(m1, d_r1, d_r2))]
    status = STATUS_MAX_ITERS
    for k in range(1, config.max_outer_iters + 1):
        m1, d_r1, d_r2 = _m1_block(obj, m1, d_r1, d_r2, tol)
        box = _box(scenario, m1)
        f_before = obj.lfp(m1, d_r1, d_r2)
        x1, x2, _ = _mm_dr_block(obj, m1, d_r1, d_r2, box, config)
        f_after = obj.lfp(m1, x1, x2)
        if (not config.mm_safeguard) or f_after <= f_before:
            d_r1, d_r2 = x1, x2
        if config.mm_safeguard and \
                f_before - f_after <= config.rel_tol * abs(f_before) + _STOP_ATOL:
            d_r1 = _coord_min(lambda x: obj.nl(m1, x, d_r2), d_r1,
                              box.d_r1_min, box.d_r1_max, tol)
            d_r2 = _coord_min(lambda x: obj.nl(m1, d_r1, x), d_r2,
                              box.d_r2_min, box.d_r2_max, tol)
        trace.append((k, obj.lfp(m1, d_r1, d_r2)))
        if _stopped(trace[-2][1], trace[-1][1], config.rel_tol):
            status = STATUS_CONVERGED
            break
    return _finish(obj, config, status, m1, d_r1, d_r2, trace, t_start,
                   extra_integer=_integral_init_candidate(scenario, init))


__all__ = [
    "SolverConfig", "SolverReport", "bcd_scalar_min", "surrogate_g",
    "solve_exhaustive", "solve_bcd", "solve_mm",
    "STATUS_CONVERGED", "STATUS_MAX_ITERS", "STATUS_INFEASIBLE",
]
