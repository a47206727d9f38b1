"""Test-only reference for ``solve_exhaustive`` and for BCD/MM's
integer finish: the dense scan.

For every split it evaluates each direction's log success at every
integer redundancy of the box and keeps the first maximum (``argmax``),
then combines the per-direction maxima with the solver's key
(-(s1 + s2), m1, d_r1, d_r2), replacing the incumbent only on strict
improvement.  It costs O(M * redundancy range), so it is meant for
M <= 200; the cross product over (m1, d_r1, d_r2) in ``test_solvers``
checks it in turn for M <= 40.
"""

import math

import numpy as np

from fblsec import Allocation, lfp, redundancy_bounds
from fblsec.lfp_model import link_constants, log_direction_success


def _integer_box(lo, hi):
    lo = math.ceil(lo - 1e-9)
    hi = math.floor(hi + 1e-9)
    return (lo, hi) if hi >= lo else None


def _first_max(legit, eve, m, d_m, box):
    lo, hi = box
    d_r = np.arange(lo, hi + 1, dtype=float)
    ls = log_direction_success(legit, eve, float(m), d_m + d_r)
    i = int(np.argmax(ls))
    return float(ls[i]), int(d_r[i])


def dense_split(scenario, m1):
    """(Allocation, LFP) of the first maxima at the full-budget split
    m1, or (None, None) when either integer box is empty."""
    m2 = scenario.M - m1
    box = redundancy_bounds(scenario, float(m1), float(m2))
    ibox1 = _integer_box(box.d_r1_min, box.d_r1_max)
    ibox2 = _integer_box(box.d_r2_min, box.d_r2_max)
    if ibox1 is None or ibox2 is None:
        return None, None
    ab, ae, ba, be = link_constants(scenario)
    _, dr1 = _first_max(ab, ae, m1, scenario.d_m1, ibox1)
    _, dr2 = _first_max(ba, be, m2, scenario.d_m2, ibox2)
    alloc = Allocation(m1=m1, m2=m2, d_r1=dr1, d_r2=dr2)
    return alloc, lfp(scenario, alloc)


def dense_exhaustive(scenario, full_budget_only=True):
    """(Allocation, LFP) of the integer optimum, or (None, None) when
    no split has a non-empty integer box in both directions."""
    M = scenario.M
    ab, ae, ba, be = link_constants(scenario)
    dir2 = {}

    def direction2(m2):
        if m2 not in dir2:
            box = redundancy_bounds(scenario, float(M - m2), float(m2))
            ibox = _integer_box(box.d_r2_min, box.d_r2_max)
            dir2[m2] = None if ibox is None else _first_max(
                ba, be, m2, scenario.d_m2, ibox)
        return dir2[m2]

    best = None  # (key, m2)
    for m1 in range(1, M):
        box = redundancy_bounds(scenario, float(m1), float(M - m1))
        ibox = _integer_box(box.d_r1_min, box.d_r1_max)
        if ibox is None:
            continue
        s1, dr1 = _first_max(ab, ae, m1, scenario.d_m1, ibox)
        for m2 in ((M - m1,) if full_budget_only else range(M - m1, 0, -1)):
            res2 = direction2(m2)
            if res2 is None:
                continue
            s2, dr2 = res2
            key = (-(s1 + s2), m1, dr1, dr2)
            if best is None or key < best[0]:
                best = (key, m2)
    if best is None:
        return None, None
    (_, m1, dr1, dr2), m2 = best
    alloc = Allocation(m1=m1, m2=m2, d_r1=dr1, d_r2=dr2)
    return alloc, lfp(scenario, alloc)
