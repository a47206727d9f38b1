"""Solver correctness: enumeration against an independent brute force,
descent contracts, the shared root finder and edge-or-root rule, BCD's
redundancy block, MM's majorize step, rounding and determinism."""

import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fblsec import (
    DomainError,
    LinkErrors,
    NumericalError,
    SolverConfig,
    bcd_scalar_min,
    lfp,
    lfp_value,
    link_errors,
    load_scenario,
    redundancy_bounds,
    solve_bcd,
    solve_exhaustive,
    solve_mm,
    surrogate_g,
)
from fblsec import solvers
from fblsec.lfp_model import (
    _balanced_start,
    _cell_bound,
    _direction_bounds,
    _hazard_balance,
    _link_pair,
    link_constants,
    log_direction_success,
    log_round_trip_success,
)
from fblsec.solvers import (
    _BLOCK_TOL,
    _M1_GRID,
    _best_full_budget,
    _best_split,
    _bisect_first_maxima,
    _bracketed_root,
    _cell_bounds,
    _direction_min,
    _direction_tables,
    _edge_or_root,
    _first_maxima,
    _geometry,
    _integer_reconstruct,
    _m1_block,
    _m1_profile,
    _m1_profile_grid,
    _Objective,
    _redundancy_pass,
    _split_grid,
    _surrogate_min,
)

from conftest import (
    ACCEPTANCE_BATCH,
    REPO_ROOT,
    SCENARIO_DIR,
    SOLVER_SUITE,
    draw_random_scenario,
    make_scenario,
    random_feasible_suite,
    sample_interior_point,
    violations,
)
from dense_oracle import dense_exhaustive, dense_split
from iterative_golden import GOLDEN_PATH, golden_records

# the benchmark's seeded instance sets
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from workloads import ladder_instances, suite_instances  # noqa: E402


def brute_force_optimum(scenario, full_budget_only=False):
    """Independent re-enumeration: every (m1, m2, d_r1, d_r2) with
    m1 + m2 <= M is scored through the full outer product of the two
    direction grids, not through per-direction maxima."""
    best_val = -np.inf
    best = None
    M = scenario.M
    ab, ae, ba, be = link_constants(scenario)
    for m1 in range(1, M):
        m2_range = [M - m1] if full_budget_only else range(1, M - m1 + 1)
        for m2 in m2_range:
            box = redundancy_bounds(scenario, float(m1), float(m2))
            lo1 = math.ceil(box.d_r1_min - 1e-9)
            hi1 = math.floor(box.d_r1_max + 1e-9)
            lo2 = math.ceil(box.d_r2_min - 1e-9)
            hi2 = math.floor(box.d_r2_max + 1e-9)
            if hi1 < lo1 or hi2 < lo2:
                continue
            d1 = np.arange(lo1, hi1 + 1, dtype=float)
            d2 = np.arange(lo2, hi2 + 1, dtype=float)
            ls1 = log_direction_success(ab, ae, float(m1), scenario.d_m1 + d1)
            ls2 = log_direction_success(ba, be, float(m2), scenario.d_m2 + d2)
            total = ls1[:, None] + ls2[None, :]
            i, j = np.unravel_index(int(np.argmax(total)), total.shape)
            if total[i, j] > best_val:
                best_val = float(total[i, j])
                best = (m1, m2, int(d1[i]), int(d2[j]))
    if best is None:
        return None, None
    m1, m2, dr1, dr2 = best
    return lfp_value(scenario, float(m1), float(dr1), float(dr2)), best


SMALL = make_scenario(d_m1=2, d_m2=2, M=40)
# The default operating point at a kilobit budget: 20 message bits per
# direction, thresholds 1/2, symmetric 4.77/0 dB links.
DEFAULT_M1000 = make_scenario(M=1000)
# When the eavesdropper capacity sits just below the legitimate one, the
# thresholds carve the feasible set into a thin diagonal strip in (m1,
# d_r1) and fixed-redundancy split updates can only crawl along it.  This
# instance regressed to a 0.049 LFP gap under that naive scheme; the
# box-relative split carry keeps both iterative solvers at the oracle.
NEAR_DEGENERATE = make_scenario(
    gamma_ab=1.1724898685987892, gamma_ae=0.9793948492744282,
    gamma_ba=6.089165608101732, gamma_be=0.2099366309057787,
    d_m1=4, d_m2=4, M=197)
# Benchmark ladder seed 1: its rung 7 (M = 1000) ends at LFP ~4e-190,
# rung 8 (M = 4000) on an exact LFP 0.0 plateau.
LADDER_1 = ladder_instances(1)


class TestBcdScalarMin:
    """The golden section stays public (the benchmark tracer looks it
    up by name) although no solver calls it."""

    def test_quadratic(self):
        x = bcd_scalar_min(lambda x: (x - 3.0) ** 2, 0.0, 10.0, 1e-6)
        assert x == pytest.approx(3.0, abs=1e-6)

    def test_boundary_minimum(self):
        x = bcd_scalar_min(lambda x: abs(x - 2.0), 2.0, 9.0, 1e-6)
        assert x == pytest.approx(2.0, abs=1e-6)

    def test_against_dense_grid_on_lfp_slice(self):
        sc = SMALL
        f = lambda m1: lfp_value(sc, m1, 20.0, 20.0)
        lo, hi = 12.0, 28.0
        x = bcd_scalar_min(f, lo, hi, 1e-6)
        grid = np.arange(lo, hi, 0.001)
        x_grid = grid[int(np.argmin([f(g) for g in grid]))]
        assert abs(x - x_grid) <= 1e-6 + 0.001

    def test_infinite_region_is_worse(self):
        # +inf on either side of the minimum (as _m1_profile at splits
        # with an empty box) is a worse value, not an error
        for lo_inf, hi_inf in ((2.0, math.inf), (-math.inf, 5.0)):
            f = lambda x: (x - 3.0) ** 2 if lo_inf <= x <= hi_inf else math.inf
            x = bcd_scalar_min(f, 0.0, 10.0, 1e-6)
            assert x == pytest.approx(3.0, abs=1e-6)

    def test_non_finite_objective(self):
        with pytest.raises(NumericalError):
            bcd_scalar_min(lambda x: float("nan"), 0.0, 1.0, 1e-6)

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            bcd_scalar_min(lambda x: x, 1.0, 0.0, 1e-6)


class TestSurrogate:
    def test_equality_at_balanced_point(self):
        errs = LinkErrors(0.5, 0.5, 0.5, 0.5)
        f = 1.0 / (0.5 ** 4)
        assert surrogate_g(errs, 4) == pytest.approx(f, rel=1e-14)

    def test_printed_exponent_is_not_an_upper_bound(self):
        errs = LinkErrors(0.5, 0.5, 0.5, 0.5)
        f = 16.0
        assert surrogate_g(errs, 2) == pytest.approx(4.0, rel=1e-14)
        assert surrogate_g(errs, 2) < f

    def test_upper_bound_random_tuples(self):
        rng = np.random.default_rng(23)
        eps = rng.uniform(1e-6, 1.0 - 1e-6, size=(10_000, 4))
        for e in eps:
            errs = LinkErrors(*e)
            f = 1.0 / ((1 - e[0]) * e[1] * (1 - e[2]) * e[3])
            assert surrogate_g(errs, 4) >= f * (1.0 - 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            surrogate_g(LinkErrors(0.0, 0.5, 0.5, 0.5), 4)
        with pytest.raises(DomainError):
            surrogate_g(LinkErrors(0.5, 0.5, 0.5, 0.5), 3)


class TestExhaustive:
    def test_against_brute_force_full_budget(self):
        report = solve_exhaustive(SMALL)
        val, alloc = brute_force_optimum(SMALL, full_budget_only=True)
        assert report.status == "converged"
        assert (report.alloc.m1, report.alloc.m2,
                report.alloc.d_r1, report.alloc.d_r2) == alloc
        assert report.lfp_final == pytest.approx(val, rel=1e-12)

    def test_against_brute_force_partial_budgets(self):
        config = SolverConfig(full_budget_only=False)
        report = solve_exhaustive(SMALL, config)
        val, alloc = brute_force_optimum(SMALL, full_budget_only=False)
        assert report.lfp_final == pytest.approx(val, rel=1e-12)
        assert report.alloc.m1 + report.alloc.m2 == SMALL.M
        assert alloc[0] + alloc[1] == SMALL.M

    def test_forced_single_allocation(self):
        # budget barely above the message sizes leaves one usable split
        sc = make_scenario(gamma_ab=20.0, gamma_ae=0.05, gamma_ba=20.0,
                           gamma_be=0.05, d_m1=1, d_m2=1, M=2)
        report = solve_exhaustive(sc)
        assert report.status == "converged"
        assert (report.alloc.m1, report.alloc.m2) == (1, 1)

    def test_partial_budget_optimum_scored_at_its_own_m2(self):
        # both eavesdroppers above their legitimate receivers with loose
        # reliability ceilings: the boxes are non-empty only for short
        # blocks, so the free-enumeration optimum leaves budget unused
        sc = make_scenario(gamma_ab=1.0, gamma_ae=1.2, gamma_ba=1.0,
                           gamma_be=1.2, d_m1=2, d_m2=2, M=40,
                           eps_ab_max=0.8, eps_ba_max=0.8, eps_e_max=0.3)
        report = solve_exhaustive(sc, SolverConfig(full_budget_only=False))
        alloc = report.alloc
        assert alloc.m1 + alloc.m2 < sc.M
        e = link_errors(sc, alloc)
        composed = 1.0 - (1.0 - e.eps_ab) * e.eps_ae * (1.0 - e.eps_ba) * e.eps_be
        assert report.lfp_final == pytest.approx(composed, rel=1e-12)

    def test_infeasible_scenario(self):
        sc = make_scenario(gamma_ab=1.0, gamma_ae=1.2, d_m1=4, d_m2=4, M=60)
        report = solve_exhaustive(sc)
        assert report.status == "infeasible"
        assert report.alloc is None

    def test_relaxed_mode_rejected(self):
        with pytest.raises(DomainError):
            solve_exhaustive(SMALL, SolverConfig(integer_mode=False))

    def test_deterministic(self):
        a = solve_exhaustive(SMALL)
        b = solve_exhaustive(SMALL)
        assert a.alloc == b.alloc and a.lfp_final == b.lfp_final


@pytest.fixture(scope="module")
def dense_suite():
    return [sc for seed in (11, 12)
            for sc in random_feasible_suite(8, seed=seed, m_lo=40, m_hi=200)]


class TestExhaustiveAgainstDenseScan:
    """The per-direction bisection against the dense first-maximum scan
    it replaced (``dense_oracle``): same allocation, same LFP bits."""

    @pytest.mark.parametrize("full_budget_only", [True, False])
    def test_same_allocation_and_lfp_bits(self, dense_suite, full_budget_only):
        config = SolverConfig(full_budget_only=full_budget_only)
        for sc in dense_suite:
            report = solve_exhaustive(sc, config)
            alloc, value = dense_exhaustive(sc, full_budget_only)
            assert report.alloc == alloc
            assert report.lfp_final.hex() == value.hex()

    @pytest.mark.parametrize("M", [80, 150, 400])
    @pytest.mark.parametrize("gamma_ba", [1000.0, 30.0])
    def test_partial_budget_on_underflowing_optima(self, gamma_ba, M):
        # the 30 dB / -20 dB family of ``TestExhaustivePlateauTies``:
        # log successes round to 0.0, so many sums tie at the optimum
        sc = make_scenario(gamma_ab=1000.0, gamma_ae=0.01, gamma_ba=gamma_ba,
                           gamma_be=0.01, d_m1=4, d_m2=4, M=M)
        report = solve_exhaustive(sc, SolverConfig(full_budget_only=False))
        alloc, value = dense_exhaustive(sc, full_budget_only=False)
        assert report.alloc == alloc
        assert report.lfp_final.hex() == value.hex()
        if gamma_ba == 1000.0:
            a = report.alloc
            assert (a.m1, a.m2, a.d_r1, a.d_r2) == (39, 40, 45, 45)
            assert report.lfp_final == 0.0

    def test_dense_scan_matches_cross_product(self):
        alloc, value = dense_exhaustive(SMALL)
        val, best = brute_force_optimum(SMALL, full_budget_only=True)
        assert (alloc.m1, alloc.m2, alloc.d_r1, alloc.d_r2) == best
        assert value == val


class TestExhaustivePlateauTies:
    """30 dB legitimate links against -20 dB eavesdroppers: the log
    success rounds to exactly 0.0 over a range of redundancy, so several
    splits and several redundancies tie at the optimum.  The oracle
    must return the lexicographically smallest (m1, d_r1, d_r2), which
    is the first point of each plateau, not the continuous maximizer."""

    SC = make_scenario(gamma_ab=1000.0, gamma_ae=0.01, gamma_ba=1000.0,
                       gamma_be=0.01, d_m1=4, d_m2=4, M=80)

    @staticmethod
    def split_max(sc, m1):
        """Dense per-split maximum of the total log success."""
        box = redundancy_bounds(sc, float(m1), float(sc.M - m1))
        d1 = np.arange(math.ceil(box.d_r1_min - 1e-9),
                       math.floor(box.d_r1_max + 1e-9) + 1.0)
        d2 = np.arange(math.ceil(box.d_r2_min - 1e-9),
                       math.floor(box.d_r2_max + 1e-9) + 1.0)
        ab, ae, ba, be = link_constants(sc)
        return (log_direction_success(ab, ae, float(m1), sc.d_m1 + d1).max()
                + log_direction_success(ba, be, float(sc.M - m1),
                                        sc.d_m2 + d2).max())

    def test_smallest_tied_allocation(self):
        sc = self.SC
        report = solve_exhaustive(sc)
        a = report.alloc
        _, best = brute_force_optimum(sc, full_budget_only=True)
        assert (a.m1, a.m2, a.d_r1, a.d_r2) == best
        assert report.lfp_final == 0.0
        # the tie spans splits: the next split reaches the same optimum
        assert self.split_max(sc, a.m1) == self.split_max(sc, a.m1 + 1) == 0.0
        assert self.split_max(sc, a.m1 - 1) < 0.0
        # direction 2 sits at the first point of an exact 0.0 plateau
        _, _, ba, be = link_constants(sc)
        ls2 = log_direction_success(ba, be, float(a.m2),
                                    sc.d_m2 + np.arange(a.d_r2 - 1, a.d_r2 + 3))
        assert ls2[0] < 0.0 and np.all(ls2[1:] == 0.0)

    def test_partial_budget_tie_rule(self):
        config = SolverConfig(full_budget_only=False)
        report = solve_exhaustive(self.SC, config)
        alloc, value = dense_exhaustive(self.SC, full_budget_only=False)
        assert report.alloc == alloc
        assert report.lfp_final == value == 0.0


def direction_boxes(sc):
    """(legit, eve, d_m, m, lo, hi) of both directions over every
    blocklength with a non-empty integer box, as ``solve_exhaustive``
    tabulates them: the vector boxes of ``_direction_bounds``."""
    ab, ae, ba, be = link_constants(sc)
    m = np.arange(1, sc.M, dtype=float)
    out = []
    for legit, eve, d_m in ((ab, ae, sc.d_m1), (ba, be, sc.d_m2)):
        lo, hi = _direction_bounds(legit, eve, d_m, m, np.sqrt, np.maximum)
        lo = np.ceil(lo - 1e-9)
        hi = np.floor(hi + 1e-9)
        ok = hi >= lo
        out.append((legit, eve, d_m, m[ok], lo[ok], hi[ok]))
    return out


def hex_list(values):
    return [float(v).hex() for v in values]


def log_ratio(legit, eve):
    """``_first_maximum_start``'s log ratio of a direction's links."""
    return 0.5 * math.log(legit.v / eve.v)


class TestFirstMaxima:
    """The checked start of ``_first_maxima`` against the bisection it
    replaces: every per-direction table, d and value, bit for bit."""

    DEFAULT = load_scenario(REPO_ROOT / "scenarios" / "roundtrip_default.json")
    # M = 4000 acceptance draws whose maxima at some blocklengths are
    # subnormal (direction 1 near m = 3525, direction 2 near m = 3850),
    # where g is not concave in floating point and a checked start
    # would disagree with the bisection.
    SUBNORMAL = [
        make_scenario(2.113798685480762, 0.20133755123240113,
                      2.9121206364118897, 0.6640210170604759,
                      d_m1=4, d_m2=4, M=4000),
        make_scenario(2.249482411204309, 0.5413754636074669,
                      5.07149525471312, 0.9761767830937178,
                      d_m1=4, d_m2=4, M=4000),
    ]
    SCENARIOS = [TestExhaustivePlateauTies.SC,
                 dataclasses.replace(DEFAULT, M=5000)] + SUBNORMAL

    @staticmethod
    def assert_same_tables(sc):
        for legit, eve, d_m, m, lo, hi in direction_boxes(sc):
            s, d = _first_maxima(_Objective(sc), legit, eve, d_m, m, lo, hi,
                                 log_ratio(legit, eve))
            sb, db = _bisect_first_maxima(_Objective(sc), legit, eve, d_m,
                                          m, lo, hi)
            assert d.tolist() == db.tolist()
            assert hex_list(s) == hex_list(sb)

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_tables_match_bisection(self, sc):
        self.assert_same_tables(sc)

    @pytest.mark.parametrize("sc, direction, m", [(SUBNORMAL[0], 0, 3525),
                                                  (SUBNORMAL[1], 1, 3850)])
    def test_subnormal_maximum_goes_to_bisection(self, sc, direction, m,
                                                 monkeypatch):
        sent = []

        def bisect(obj, legit, eve, d_m, ms, lo, hi):
            sent.extend(ms.tolist())
            return _bisect_first_maxima(obj, legit, eve, d_m, ms, lo, hi)

        monkeypatch.setattr(solvers, "_bisect_first_maxima", bisect)
        legit, eve, d_m, ms, lo, hi = direction_boxes(sc)[direction]
        s, d = _first_maxima(_Objective(sc), legit, eve, d_m, ms, lo, hi,
                             log_ratio(legit, eve))
        value = s[ms == m][0]
        assert value != 0.0 and abs(value) < np.finfo(float).tiny
        assert m in sent

    def test_fallback_alone_gives_the_tables(self, monkeypatch):
        # every estimate at the box's lower end: only maxima at lo or
        # lo + 1 pass the check, all others go to the bisection
        sent = []

        def bisect(obj, legit, eve, d_m, m, lo, hi):
            sent.append(m.size)
            return _bisect_first_maxima(obj, legit, eve, d_m, m, lo, hi)

        monkeypatch.setattr(solvers, "_first_maximum_start",
                            lambda legit, eve, d_m, m, lo, hi, log_ratio: lo)
        monkeypatch.setattr(solvers, "_bisect_first_maxima", bisect)
        sc = dataclasses.replace(self.DEFAULT, M=1000)
        self.assert_same_tables(sc)
        expected = 0
        for legit, eve, d_m, m, lo, hi in direction_boxes(sc):
            _, d = _bisect_first_maxima(_Objective(sc), legit, eve, d_m,
                                        m, lo, hi)
            expected += int(np.count_nonzero(d > lo + 1.0))
        assert expected > 0 and sum(sent) == expected

    @staticmethod
    def assert_one_pass_tables(sc):
        # ``_direction_tables`` serves both directions with one
        # ``_first_maxima`` call on per-entry constants; here against one
        # call per direction with the scalar constants
        m = np.arange(1.0, sc.M)
        obj, ref = _Objective(sc), _Objective(sc)
        tables = _direction_tables(obj, m, m)
        for (ok, s, d), (legit, eve, d_m, m_ok, lo, hi) in zip(
                tables, direction_boxes(sc)):
            sb, db = _first_maxima(ref, legit, eve, d_m, m_ok, lo, hi,
                                   log_ratio(legit, eve))
            assert m[ok].tolist() == m_ok.tolist()
            assert d[ok].tolist() == db.tolist()
            assert hex_list(s[ok]) == hex_list(sb)
        assert obj.evaluations == ref.evaluations

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_one_pass_tables_match_per_direction_calls(self, sc):
        self.assert_one_pass_tables(sc)

    def test_one_pass_tables_on_the_prune_suite(self, prune_suite):
        for sc in prune_suite:
            self.assert_one_pass_tables(sc)

    @pytest.mark.parametrize("M", [1000, 5000])
    def test_at_most_six_evaluations_per_blocklength(self, M):
        # the tables over every split, as the oracle's unpruned scan
        # builds them
        sc = dataclasses.replace(self.DEFAULT, M=M)
        blocklengths = sum(m.size for _, _, _, m, _, _ in direction_boxes(sc))
        obj = _Objective(sc)
        _best_split(obj, np.arange(1.0, M))
        assert obj.evaluations <= 6 * blocklengths


def full_scan(sc):
    """``_best_split`` over every split: the oracle without the cell
    prune, as (allocation, LFP) or (None, None)."""
    best = _best_split(_Objective(sc), np.arange(1.0, sc.M))
    if best is None:
        return None, None
    return best[0], -math.expm1(best[1])


@pytest.fixture(scope="module")
def prune_suite():
    """Seeded acceptance draws at M = 250, 1000 and 4000, an instance
    whose optimum underflows to LFP 0.0 and the subnormal-table draws of
    ``TestFirstMaxima``."""
    rng = np.random.default_rng(20250101)
    out = [draw_random_scenario(rng, m_lo=M, m_hi=M)
           for M in (250, 1000, 4000) for _ in range(3)]
    out.append(make_scenario(gamma_ab=1000.0, gamma_ae=0.01, gamma_ba=1000.0,
                             gamma_be=0.01, d_m1=4, d_m2=4, M=1000))
    return out + TestFirstMaxima.SUBNORMAL


class TestPrunedOracle:
    """The full-budget oracle tabulates only the cells of m1 whose bound
    reaches the lower bound (``_best_full_budget``), with the full
    scan's allocation and LFP bits."""

    DEFAULT = TestFirstMaxima.DEFAULT

    @staticmethod
    def tabulated(monkeypatch):
        """Record the splits every ``_best_split`` call tabulates."""
        seen = []

        def spy(obj, splits):
            seen.append(splits)
            return _best_split(obj, splits)

        monkeypatch.setattr(solvers, "_best_split", spy)
        return seen

    def test_same_result_as_the_full_scan(self, prune_suite, monkeypatch):
        # prune at every budget, M = 250 included
        monkeypatch.setattr(solvers, "_PRUNE_MIN_M", 2)
        seen = self.tabulated(monkeypatch)
        zero = pruned = 0
        for sc in prune_suite:
            report = solve_exhaustive(sc)
            alloc, value = full_scan(sc)
            assert report.alloc == alloc
            assert report.status == ("converged" if alloc else "infeasible")
            if alloc is not None:
                assert report.lfp_final.hex() == value.hex()
                zero += value == 0.0
            cut = seen[-1].size < sc.M - 1
            pruned += cut
            # an exact LFP 0.0 optimum is pruned too (the plateau cut)
            assert cut or value != 0.0
        assert zero and pruned >= len(prune_suite) // 2

    @pytest.mark.parametrize("k", [1, 23, 200])
    def test_every_table_entry_within_its_cell_bound(self, prune_suite, k):
        for sc in prune_suite:
            obj = _Objective(sc)
            bound, lower, first = _cell_bounds(obj, k)
            m = np.arange(1.0, sc.M)
            tables = _direction_tables(obj, m, sc.M - m)
            cell = np.arange(sc.M - 1) // k
            for (ok, s, _), b in zip(tables, bound):
                b = b[cell[ok]]
                assert np.all(s[ok] <= b + (1e-9 * np.abs(b) + 1e-300))
            # the lower bound is a table sum's value at some split
            both = tables[0][0] & tables[1][0]
            if both.any():
                total = np.where(both, tables[0][1] + tables[1][1], -math.inf)
                best = total.max()
                assert lower <= best + (1e-9 * abs(best) + 1e-300)
                # ... and at most the table sum at cell ``first``'s midpoint
                mid = (first * k + 1 + min(first * k + k, sc.M - 1)) // 2
                assert lower <= total[mid - 1] + (1e-9 * abs(best) + 1e-300)
            else:
                assert lower == -math.inf

    @staticmethod
    def cell_reference(sc, k):
        """``_cell_bounds``' (bounds, lower bound, first cell), rebuilt one
        direction at a time from the scalar ``link_constants`` entries:
        ab/ae over m1 and ba/be over m2 = M - m1."""
        M, slack = sc.M, solvers._BOX_SLACK
        ab, ae, ba, be = link_constants(sc)
        a = np.arange(1.0, M, k)
        b = np.minimum(a + (k - 1), M - 1)
        mid = (a + b) // 2
        bounds, total, ok = [], 0.0, True
        # (legit, eve, d_m, shortest, longest and midpoint blocklength)
        for legit, eve, d_m, short, long, m in (
                (ab, ae, sc.d_m1, a, b, mid),
                (ba, be, sc.d_m2, M - b, M - a, M - mid)):
            lo, hi = _direction_bounds(legit, eve, d_m,
                                       np.array((short, long, m)), np.sqrt,
                                       np.maximum)
            # the legitimate margin peaks at the longest blocklength, the
            # eavesdropper's at the shortest
            bound, D = _cell_bound(legit, eve, long, short, d_m,
                                   d_m + np.maximum(hi[0], hi[1]) + slack)
            ilo, ihi = np.ceil(lo[2] - slack), np.floor(hi[2] + slack)
            d = np.minimum(np.maximum(np.rint(D - d_m), ilo), ihi)
            total = total + log_direction_success(legit, eve, m, d_m + d)
            ok = ok & (ihi >= ilo)
            bounds.append(bound)
        total = np.where(ok, total, -math.inf)
        return bounds, float(total.max()), int(total.argmax())

    @pytest.mark.parametrize("k", [None, 23])
    def test_cell_bounds_match_a_per_direction_reference(self, prune_suite,
                                                         k):
        # bit for bit, at the pruning's own cell size and at 23
        for sc in prune_suite + [dataclasses.replace(self.DEFAULT, M=4000)]:
            cells = k or math.isqrt(sc.M) // 2 + 1
            bound, lower, first = _cell_bounds(_Objective(sc), cells)
            ref, ref_lower, ref_first = self.cell_reference(sc, cells)
            assert bound.shape == (2, len(ref[0]))
            for row, ref_row in zip(bound, ref):
                assert [v.hex() for v in row.tolist()] == \
                    [v.hex() for v in ref_row.tolist()], sc
            assert (lower, first) == (ref_lower, ref_first), sc

    @pytest.mark.parametrize("M", [700, 4000])
    def test_mirrored_tie_survives(self, M, monkeypatch):
        # the symmetric default point ties at the mirrored splits
        # M / 2 - 1 and M / 2 + 1; both stay tabulated
        sc = dataclasses.replace(self.DEFAULT, M=M)
        obj = _Objective(sc)
        m = np.arange(1.0, M)
        (ok1, s1, _), (ok2, s2, _) = _direction_tables(obj, m, M - m)
        total = np.where(ok1 & ok2, s1 + s2, -math.inf)
        ties = m[total == total.max()]
        assert ties.tolist() == [M / 2 - 1, M / 2 + 1]
        seen = self.tabulated(monkeypatch)
        report = solve_exhaustive(sc)
        assert seen[-1].size < M - 1
        assert np.isin(ties, seen[-1]).all()
        assert (report.alloc, report.lfp_final) == full_scan(sc)
        if M == 700:
            a = report.alloc
            assert (a.m1, a.m2, a.d_r1, a.d_r2) == (349, 351, 494, 497)

    def test_bound_at_the_threshold_is_kept(self, monkeypatch):
        # every cell's bound sum lands exactly on the prune threshold
        # L - (1e-9 |L| + 1e-300) of L = 0.0: the prune is strict, so
        # every split is still tabulated
        def at_threshold(obj, k):
            # no midpoint before the last cell reaches L
            cells = -(-(obj.scenario.M - 1) // k)
            return (np.stack((np.full(cells, -1e-300), np.zeros(cells))), 0.0,
                    cells - 1)

        monkeypatch.setattr(solvers, "_cell_bounds", at_threshold)
        seen = self.tabulated(monkeypatch)
        sc = dataclasses.replace(self.DEFAULT, M=1000)
        assert _best_full_budget(_Objective(sc)) is not None
        assert seen[-1].tolist() == list(range(1, 1000))

    # optima of exactly LFP 0.0: the M = 1000 instance of ``prune_suite``
    # and an M = 4000 draw of benchmark ladder seed 1, which took 9,818
    # and 25,712 evaluations when the plateau dropped no cell
    PLATEAU = [
        (make_scenario(gamma_ab=1000.0, gamma_ae=0.01, gamma_ba=1000.0,
                       gamma_be=0.01, d_m1=4, d_m2=4, M=1000), 9_818),
        (make_scenario(9.164686181779189, 0.1876313853038582,
                       5.777107886509391, 0.1220468195574183,
                       d_m1=4, d_m2=4, M=4000), 25_712),
    ]

    @pytest.mark.parametrize("sc, uncut", PLATEAU)
    def test_plateau_stops_at_the_first_zero_cell(self, sc, uncut,
                                                  monkeypatch):
        M = sc.M
        k = math.isqrt(M) // 2 + 1
        m = np.arange(1.0, M)
        (ok1, s1, _), (ok2, s2, _) = _direction_tables(_Objective(sc), m,
                                                       M - m)
        total = np.where(ok1 & ok2, s1 + s2, -math.inf)
        a = np.arange(1, M, k)
        mid = (a + np.minimum(a + (k - 1), M - 1)) // 2
        first = int(np.argmax(total[mid - 1] == 0.0))
        assert total[mid[first] - 1] == 0.0
        seen = self.tabulated(monkeypatch)
        report = solve_exhaustive(sc)
        alloc, value = full_scan(sc)
        assert report.alloc == alloc
        assert report.lfp_final.hex() == value.hex() == (0.0).hex()
        # nothing after cell ``first`` is tabulated
        assert seen[-1].max() <= min(a[first] + (k - 1), M - 1)
        assert report.evaluations <= uncut / 5

    def test_default_point_evaluates_a_tenth_of_the_full_scan(self):
        # bound pass included; the full scan takes 49,900 evaluations
        sc = dataclasses.replace(self.DEFAULT, M=5000)
        obj = _Objective(sc)
        _best_split(obj, np.arange(1.0, 5000.0))
        assert obj.evaluations == 49_900
        assert solve_exhaustive(sc).evaluations < obj.evaluations / 10

    # direction 2 needs one symbol, so the optimum m1 = M - 1 = 996 lies
    # in the last cell, which holds 4 of its k = 16 splits
    LAST_CELL = make_scenario(gamma_ab=1.0, gamma_ae=0.5, gamma_ba=1e6,
                              gamma_be=0.01, d_m2=1, M=997)

    @pytest.mark.parametrize("sc", [
        *(dataclasses.replace(TestFirstMaxima.DEFAULT, M=M)
          for M in (500, 997, 4000, 10**5)),
        *(sc for sc, _ in PLATEAU),
        LAST_CELL,
    ], ids=["500", "997", "4000", "1e5", "plateau-1000", "plateau-4000",
            "last-cell"])
    def test_splits_are_the_kept_cells_mask(self, sc, monkeypatch):
        # the splits ``_best_split`` receives are the kept cells' mask
        # over every split m1 = 1 ... M - 1, partial last cell included
        cells = []

        def cell_spy(obj, k):
            cells.append((k, _cell_bounds(obj, k)))
            return cells[-1][1]

        monkeypatch.setattr(solvers, "_cell_bounds", cell_spy)
        seen = self.tabulated(monkeypatch)
        M = sc.M
        report = solve_exhaustive(sc)
        [(k, (bound, lower, first))] = cells
        total = bound[0] + bound[1]
        keep = ~np.isfinite(total) | (total >= lower
                                      - (1e-9 * abs(lower) + 1e-300))
        if lower == 0.0:
            keep[first + 1:] = False
        expected = np.arange(1.0, M)[np.repeat(keep, k)[:M - 1]]
        assert seen[-1].dtype == expected.dtype
        assert np.array_equal(seen[-1], expected)
        assert 0 < expected.size < M - 1
        if sc is self.LAST_CELL:
            assert (M - 1) % k and keep[-1]
            assert report.alloc.m1 == M - 1

    def test_memory_follows_the_kept_cells_not_the_budget(self):
        # at M = 1e8 every split m1 as a float is 763 MiB; the cells and
        # the kept cells' splits take about 12 MiB
        sc = dataclasses.replace(self.DEFAULT, M=10**8)
        tracemalloc.start()
        try:
            report = solve_exhaustive(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "converged"
        assert peak < 64 * 2**20


class TestBcd:
    def test_infeasible_scenario(self):
        sc = make_scenario(gamma_ab=1.0, gamma_ae=1.2, d_m1=4, d_m2=4, M=60)
        report = solve_bcd(sc)
        assert report.status == "infeasible"

    def test_deterministic(self):
        a = solve_bcd(SMALL)
        b = solve_bcd(SMALL)
        assert a.alloc == b.alloc and a.trace == b.trace

    def test_relaxed_mode_returns_reals(self):
        report = solve_bcd(SMALL, SolverConfig(integer_mode=False))
        assert report.status == "converged"
        assert isinstance(report.alloc.d_r1, float)
        assert report.alloc.m1 + report.alloc.m2 == pytest.approx(SMALL.M)


class TestMm:
    def test_joint_scheme_needs_no_more_iterations(self):
        bcd, mm = solve_bcd(DEFAULT_M1000), solve_mm(DEFAULT_M1000)
        assert mm.trace[-1][0] <= bcd.trace[-1][0]

    def test_safeguard_field_is_gone(self):
        # MM is its majorize-minimize passes alone: no fallback to switch
        with pytest.raises(TypeError):
            SolverConfig(mm_safeguard=False)

    def test_never_enters_bcd_step(self, monkeypatch):
        # BCD's step is one pass of _direction_min; MM's passes never
        # call it
        def direction_min(*args):
            raise AssertionError("MM called BCD's redundancy block")

        monkeypatch.setattr(solvers, "_direction_min", direction_min)
        for sc in [SMALL] + SOLVER_SUITE:
            assert solve_mm(sc).status == "converged"

    def test_deterministic(self):
        a = solve_mm(SMALL)
        b = solve_mm(SMALL)
        assert a.alloc == b.alloc and a.trace == b.trace


def counted(fn):
    """``fn`` and the list of the points it has been called at."""
    seen = []

    def wrapped(x):
        seen.append(x)
        return fn(x)
    return wrapped, seen


class TestBracketedRoot:
    """The shared root finder on functions whose steps are known."""

    def test_newton_step_leaving_the_bracket_is_bisected(self):
        # F = -atan(x - 1): from x = 8 the Newton step lands at -63.4,
        # outside [-10, 8], so the next point is that bracket's midpoint
        fn, seen = counted(lambda x: (-math.atan(x - 1.0),
                                      -1.0 / (1.0 + (x - 1.0) ** 2)))
        root = _bracketed_root(fn, 8.0, -10.0, 10.0)
        assert seen[:2] == [8.0, -1.0]
        assert abs(root - 1.0) <= 1e-12
        assert len(seen) < 15

    def test_zero_slope_is_bisected(self):
        # F = 1 - x^10 on [0, 2] with a slope of 0: from the start every
        # step is the bracket's midpoint, down to a step of 1e-9
        fn, seen = counted(lambda x: (1.0 - x ** 10, 0.0))
        root = _bracketed_root(fn, 0.5, 0.0, 2.0)
        assert seen[:3] == [0.5, 1.25, 0.875]
        assert abs(root - 1.0) <= 2.0 * _BLOCK_TOL

    def test_stops_at_an_exact_zero(self):
        fn, seen = counted(lambda x: (0.5 - x, -1.0))
        assert _bracketed_root(fn, 0.25, 0.0, 1.0) == 0.5
        assert seen == [0.25, 0.5]
        # where the slope vanishes with the value, no step is taken
        fn, seen = counted(lambda x: (-(x - 0.5) ** 3, -3.0 * (x - 0.5) ** 2))
        assert _bracketed_root(fn, 0.5, 0.0, 1.0) == 0.5
        assert seen == [0.5]

    def test_ends_are_never_evaluated(self):
        # F = 5 - x keeps its sign over [0, 2]: the points close in on
        # the end it points to without evaluating either end
        fn, seen = counted(lambda x: (5.0 - x, -1.0))
        root = _bracketed_root(fn, 1.0, 0.0, 2.0)
        assert abs(root - 2.0) <= 2.0 * _BLOCK_TOL
        assert 0.0 not in seen and 2.0 not in seen

    def test_step_back_to_the_point_before_is_bisected(self):
        # a step of F with slope -2: from 0.25 Newton goes to 0.75 and
        # from there straight back to 0.25; that step is bisected, so
        # the points close in on the sign change at 0.5 instead of
        # alternating between two points until the cap
        fn, seen = counted(lambda x: (1.0, -2.0) if x < 0.5 else (-1.0, -2.0))
        root = _bracketed_root(fn, 0.25, 0.0, 1.0)
        assert seen[:3] == [0.25, 0.75, 0.5]
        assert abs(root - 0.5) <= 2.0 * _BLOCK_TOL
        assert len(seen) < 40


class TestEdgeOrRoot:
    """The edge-or-root rule BCD's block and MM's step share."""

    def test_anchor_at_the_root_costs_one_value(self):
        fn, seen = counted(lambda d: (3.0 - d, -1.0))
        assert _edge_or_root(fn, 3.0, 0.0, 10.0) == 3.0
        assert seen == [3.0]

    def test_one_sign_over_the_box_gives_the_edge_it_points_to(self):
        fn, seen = counted(lambda d: (5.0 - d, -1.0))
        assert _edge_or_root(fn, 1.0, 0.0, 2.0) == 2.0  # F > 0: rises
        assert seen == [1.0, 2.0]
        fn, seen = counted(lambda d: (5.0 - d, -1.0))
        assert _edge_or_root(fn, 8.0, 7.0, 9.0) == 7.0  # F < 0: falls
        assert seen == [8.0, 7.0]

    def test_edge_at_a_zero_is_returned(self):
        fn, seen = counted(lambda d: (2.0 - d, -0.5))
        assert _edge_or_root(fn, 1.0, 0.0, 2.0) == 2.0
        assert seen == [1.0, 2.0]

    def test_root_between_the_anchor_and_the_edge(self):
        # a nonlinear F so that Newton from the anchor is not exact; its
        # first step leaves the box, so the edge is probed
        fn, seen = counted(lambda d: (math.exp(-d) - 0.25,
                                      -math.exp(-d)))
        root = _edge_or_root(fn, 4.0, 0.0, 10.0)
        assert seen[:2] == [4.0, 0.0]
        assert abs(root - math.log(4.0)) <= 1e-9

    def test_interior_root_evaluates_no_edge(self):
        # convex F: Newton from below approaches the root from one side;
        # concave F: the first step overshoots it, inside the box.  No
        # step leaves the box, so neither edge is evaluated
        for f, root in ((lambda d: (math.exp(-d) - 0.25, -math.exp(-d)),
                         math.log(4.0)),
                        (lambda d: (1.0 - d * d, -2.0 * d), 1.0)):
            fn, seen = counted(f)
            assert abs(_edge_or_root(fn, 0.5, 0.25, 10.0) - root) <= 1e-9
            assert seen[0] == 0.5 and len(seen) > 3
            assert 0.25 not in seen and 10.0 not in seen

    def test_edge_after_two_values_where_the_first_step_leaves(self):
        # F < 0 over [3, 10]: the step from 4 lands at -8.6, below the
        # box, and the edge 3 keeps F's sign
        fn, seen = counted(lambda d: (math.exp(-d) - 0.25, -math.exp(-d)))
        assert _edge_or_root(fn, 4.0, 3.0, 10.0) == 3.0
        assert seen == [4.0, 3.0]

    def test_edge_is_evaluated_when_a_later_step_leaves(self):
        # F > 0 over [-1, 1]: the step from 0 stays in the box at 0.75,
        # the next would leave it, and the edge 1 keeps F's sign
        fn, seen = counted(lambda d: (math.exp(-d) - 0.25, -math.exp(-d)))
        assert _edge_or_root(fn, 0.0, -1.0, 1.0) == 1.0
        assert seen == [0.0, 0.75, 1.0]

    def test_point_box_gives_its_point(self):
        fn, seen = counted(lambda d: (5.0 - d, -1.0))
        assert _edge_or_root(fn, 3.0, 3.0, 3.0) == 3.0
        assert set(seen) == {3.0}


def interior_anchors(count, seed=29):
    """``count`` seeded (scenario, m1, d_r1, d_r2) interior points."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        sc = draw_random_scenario(rng)
        pt = sample_interior_point(rng, sc)
        if pt is not None:
            out.append((sc, *pt))
    return out


def direction_steps(sc, m1, d_r1, d_r2):
    """(legit, eve, d_m, m, lo, hi, x, at) of both directions of a
    redundancy step anchored at (d_r1, d_r2) on split m1, each (at, lo,
    hi) fresh from ``_Objective.split`` as ``_descend`` builds it."""
    obj = _Objective(sc)
    ab, ae, ba, be = obj.links
    for (legit, eve, d_m, m, x), (at, lo, hi) in zip(
            ((ab, ae, sc.d_m1, m1, d_r1), (ba, be, sc.d_m2, sc.M - m1, d_r2)),
            obj.split(m1)):
        yield legit, eve, d_m, m, lo, hi, x, at


class TestMmStep:
    """MM's majorize step: per direction, the exact minimizer of its part
    r_b + r_e of the surrogate anchored at the incumbent, found as the
    root of the shifted hazard balance F."""

    ANCHORS = interior_anchors(100)

    @staticmethod
    def surrogate_part(legit, eve, d_m, m, x):
        """r_b + r_e anchored at x, less its constant exp(l̂_b) + exp(l̂_e),
        as a function of d, from ``_link_pair``'s log factors.

        r_i = exp(l̂_i - l_i) is exp(l̂_i) + exp(l̂_i) * expm1(-l_i); near
        success 1 the factors are tiny, r_i rounds to 1 and the plain
        sum is flat over a wide range of d, while each term
        exp(l̂_i) * expm1(-l_i) keeps its relative precision."""
        def log_factors(d):
            return _link_pair(legit, eve, m, m, d_m + d, math.sqrt)[2:]

        lb_hat, le_hat = log_factors(x)

        def part(d):
            l_b, l_e = log_factors(d)
            return (math.exp(lb_hat) * math.expm1(-l_b)
                    + math.exp(le_hat) * math.expm1(-l_e))
        return part

    def test_root_minimizes_the_surrogate_part(self):
        moved = 0
        for sc, m1, d_r1, d_r2 in self.ANCHORS:
            for legit, eve, d_m, m, lo, hi, x, at in direction_steps(
                    sc, m1, d_r1, d_r2):
                step = _surrogate_min(at, x, lo, hi)
                assert lo <= step <= hi
                part = self.surrogate_part(legit, eve, d_m, m, x)
                ref = minimize_scalar(part, bounds=(lo, hi), method="bounded",
                                      options={"xatol": 1e-10}).x
                assert abs(step - ref) <= 1e-6 * (d_m + ref), (sc, m, x)
                assert part(step) <= part(x)
                moved += step != x
        assert moved > 100

    def test_step_never_lowers_its_directions_log_success(self):
        # AM-GM: ((r_b + r_e) / 2)^2 >= r_b r_e = exp(l̂ - l), 1 at the
        # anchor, so the surrogate's minimizer keeps l >= l̂; the pass's
        # per-direction keep only guards against rounding
        steps = moved = 0
        for sc, m1, d_r1, d_r2 in interior_anchors(400):
            for *_, lo, hi, x, at in direction_steps(sc, m1, d_r1, d_r2):
                step = _surrogate_min(at, x, lo, hi)
                assert at(step)[4] >= at(x)[4], (sc, m1, x)
                steps += 1
                moved += step != x
        assert steps == 800 and moved > 400

    def test_bcd_block_answer_is_a_fixed_point(self):
        # BCD's block from the anchor, then MM's step anchored at its
        # answer: the shifted balance there is the plain one, so the
        # step stays put
        edges = 0
        for sc, m1, d_r1, d_r2 in self.ANCHORS:
            for legit, eve, d_m, m, lo, hi, x, at in direction_steps(
                    sc, m1, d_r1, d_r2):
                best = _direction_min(at, x, lo, hi)
                step = _surrogate_min(at, best, lo, hi)
                if best in (lo, hi):
                    edges += 1
                    assert step == best
                else:
                    assert abs(step - best) <= 1e-9 * max(1.0, d_m + best)
        assert 0 < edges < 200

    def test_shifted_balance_is_the_balance_at_its_anchor(self, monkeypatch):
        # the edge-or-root rule's F at the anchor is the hazard balance,
        # bit for bit; F falls, and where the root finder runs, its
        # bracket starts at one end and F changes sign across it
        calls = []
        edge_or_root, root = solvers._edge_or_root, solvers._bracketed_root

        def recorded(fn, x, lo, hi):
            calls.append((fn, x))
            return edge_or_root(fn, x, lo, hi)

        def recorded_root(fn, x, lo, hi):
            calls.append((lo, hi, x))
            return root(fn, x, lo, hi)

        monkeypatch.setattr(solvers, "_edge_or_root", recorded)
        monkeypatch.setattr(solvers, "_bracketed_root", recorded_root)
        anchors = bracketed = 0
        for sc, m1, d_r1, d_r2 in self.ANCHORS:
            for legit, eve, d_m, m, lo, hi, x, at in direction_steps(
                    sc, m1, d_r1, d_r2):
                calls.clear()
                _surrogate_min(at, x, lo, hi)
                (fn, anchor), *bracket = calls
                anchors += 1
                _, c_b, c_e, _ = _balanced_start(legit, eve, m, m,
                                                 math.sqrt)
                r = _hazard_balance(legit, eve, m, m, d_m + x, c_b, c_e,
                                    0.5 * math.log(legit.v / eve.v),
                                    math.sqrt, math.exp)[0]
                assert anchor == x
                assert fn(x)[0].hex() == float(r).hex()
                if not bracket:
                    continue  # the answer is a box edge or a Newton step
                bracketed += 1
                (a, b, start), = bracket
                assert lo <= a < b <= hi and start in (a, b)
                assert fn(a)[0] > 0.0 >= fn(b)[0]
                assert fn(a)[1] < 0.0 and fn(b)[1] < 0.0
        assert anchors == 200 and bracketed > 50


# The sets whose oracle, BCD and MM solves ``conftest.violations`` judges
# here.  It judges the whole-domain draws in ``test_domain``, and the
# acceptance batch and benchmark sets in ``TestReachesTheOracle``.
INSTANCE_SETS = {
    "small": [SMALL],
    "default_M1000": [DEFAULT_M1000],
    "near_degenerate": [NEAR_DEGENERATE],
    "solver_suite": SOLVER_SUITE,
}


@pytest.mark.parametrize("name", INSTANCE_SETS)
def test_instance_set_keeps_every_invariant(name):
    for sc in INSTANCE_SETS[name]:
        reports = {"bcd": solve_bcd(sc), "mm": solve_mm(sc)}
        assert violations(sc, solve_exhaustive(sc), reports) == [], sc


@pytest.fixture(scope="module")
def finish_suite():
    """(scenario, oracle, relaxed, integer) reports of BCD and MM on the
    solver suite and the acceptance batch; the relaxed solve ends at the
    m1 that the integer solve rounds."""
    out = []
    for sc in SOLVER_SUITE + ACCEPTANCE_BATCH:
        oracle = solve_exhaustive(sc)
        for solve in (solve_bcd, solve_mm):
            out.append((sc, oracle,
                        solve(sc, SolverConfig(integer_mode=False)),
                        solve(sc)))
    return out


class TestIntegerFinish:
    """BCD/MM's integer finish against the dense scan: the redundancy
    pair at the chosen split is that split's first maximum, and the LFP
    is at least as good as the best split of the window floor(m1) - 1
    ... ceil(m1) + 1 around the relaxed m1 and never below the
    oracle's."""

    def test_first_maximum_at_the_chosen_split(self, finish_suite):
        for sc, _, _, report in finish_suite:
            alloc, value = dense_split(sc, report.alloc.m1)
            assert report.alloc == alloc
            assert report.lfp_final.hex() == value.hex()

    def test_best_rounded_split_never_below_the_oracle(self, finish_suite):
        for sc, oracle, relaxed, report in finish_suite:
            m1 = relaxed.alloc.m1
            window = range(max(1, math.floor(m1) - 1),
                           min(sc.M - 1, math.ceil(m1) + 1) + 1)
            values = [dense_split(sc, s)[1] for s in window]
            assert report.lfp_final <= min(v for v in values if v is not None)
            assert report.lfp_final >= oracle.lfp_final

    @pytest.mark.parametrize("sc", SOLVER_SUITE + [LADDER_1[8]])
    def test_seeded_tables_are_the_unseeded_ones(self, sc, monkeypatch):
        # every split's tables, as the oracle builds them, from seeds at
        # the boxes' ends and inside them; on the LFP 0.0 plateau of
        # LADDER_1[8] entries fall through to the unseeded estimate
        m = np.arange(1.0, sc.M)
        plain = _direction_tables(_Objective(sc), m, sc.M - m)
        estimated = []
        start = solvers._first_maximum_start

        def recorded(legit, eve, d_m, m, *args):
            estimated.append(m.size)
            return start(legit, eve, d_m, m, *args)

        monkeypatch.setattr(solvers, "_first_maximum_start", recorded)
        for seed in ((0.0, 1.0), (0.5, 0.5), (0.3, 0.9)):
            seeded = _direction_tables(_Objective(sc), m, sc.M - m, seed)
            for (ok, s, d), (ok_s, s_s, d_s) in zip(plain, seeded):
                assert ok.tolist() == ok_s.tolist()
                assert d.tolist() == d_s.tolist()
                assert hex_list(s) == hex_list(s_s)
        if sc is LADDER_1[8]:
            assert sum(estimated) > 0

    @pytest.mark.parametrize("sc", SOLVER_SUITE + [LADDER_1[8]])
    def test_seed_is_the_relaxed_pairs_position(self, sc, monkeypatch):
        # the finish's seed is where the relaxed solve left its pair in
        # the boxes of its split
        seeds = []
        reconstruct = solvers._integer_reconstruct

        def recorded(obj, m1, seed):
            seeds.append((m1, seed))
            return reconstruct(obj, m1, seed)

        monkeypatch.setattr(solvers, "_integer_reconstruct", recorded)
        for solve in (solve_bcd, solve_mm):
            seeds.clear()
            relaxed = solve(sc, SolverConfig(integer_mode=False)).alloc
            solve(sc)
            (m1, (t1, t2)), = seeds
            lo1, hi1, lo2, hi2, _ = _Objective(sc).box(m1)
            assert m1 == relaxed.m1
            assert (t1, t2) == ((relaxed.d_r1 - lo1) / (hi1 - lo1),
                                (relaxed.d_r2 - lo2) / (hi2 - lo2))

    def test_no_integer_box_at_either_split_gives_the_oracle(self):
        # the window of m1 = 2.0 is splits 1, 2 and 3, none of which has
        # an integer box in the forward direction
        sc = NEAR_DEGENERATE
        for m1 in (1, 2, 3):
            assert dense_split(sc, m1) == (None, None)
        alloc, log_p = _integer_reconstruct(_Objective(sc), 2.0, None)
        oracle = solve_exhaustive(sc)
        assert alloc == oracle.alloc
        assert -math.expm1(log_p) == oracle.lfp_final


def gate_instances():
    """(name, scenario) of the acceptance batch and of benchmark suite and
    ladder seeds 1-3."""
    out = [(f"acceptance_{i}", sc) for i, sc in enumerate(ACCEPTANCE_BATCH)]
    for seed in (1, 2, 3):
        out += [(f"suite{seed}_{i}", sc)
                for i, sc in enumerate(suite_instances(seed))]
        out += [(f"ladder{seed}_{i}", sc)
                for i, sc in enumerate(ladder_instances(seed))]
    return out


@pytest.fixture(scope="module")
def gate_reports():
    """(name, scenario, oracle, {(method, integer_mode): report}) per
    gate instance."""
    out = []
    for name, sc in gate_instances():
        reports = {(method, integer):
                   solve(sc, SolverConfig(integer_mode=integer))
                   for method, solve in (("bcd", solve_bcd), ("mm", solve_mm))
                   for integer in (True, False)}
        out.append((name, sc, solve_exhaustive(sc), reports))
    return out


class TestReachesTheOracle:
    """BCD and MM against the oracle by relative gap, on the acceptance
    batch and benchmark suite and ladder seeds 1-3: the LFP ranges down
    to 1e-300 and below, where an absolute gap says nothing."""

    GAP = 1e-9
    # exact ties on an LFP 0.0 plateau where BCD/MM's allocation (m1,
    # m2, d_r1, d_r2) is not the oracle's smallest tied one
    PLATEAU_TIES = {
        "ladder1_8": (1269, 2731, 1356, 1739),
        "ladder2_5": (2506, 1494, 2399, 1454),
        "ladder3_8": (2319, 1681, 3215, 1533),
    }

    def test_integer_result_within_the_gap(self, gate_reports):
        ties = {}
        for name, sc, oracle, reports in gate_reports:
            integer = {method: reports[method, True] for method in ("bcd", "mm")}
            assert violations(sc, oracle, integer, self.GAP) == [], name
            for report in integer.values():
                if report.alloc != oracle.alloc:
                    assert report.lfp_final == 0.0, name
                    ties[name] = dataclasses.astuple(report.alloc)
        assert ties == self.PLATEAU_TIES

    def test_relaxed_result_not_worse_than_the_integer_oracle(self,
                                                              gate_reports):
        for name, _, oracle, reports in gate_reports:
            for method in ("bcd", "mm"):
                report = reports[method, False]
                assert report.status == "converged", (name, method)
                assert (report.lfp_final
                        <= oracle.lfp_final * (1.0 + self.GAP)), (name, method)


class TestRedundancyBlock:
    """BCD's exact relaxed redundancy block (``_direction_min``, from an
    interior anchor) on the solver suite and the acceptance batch, each
    direction at several splits: no point of a dense grid over the box
    beats its answer, its hazard balance vanishes at an interior answer,
    and a box on one side of the balance's root gives that side's
    edge."""

    SCENARIOS = SOLVER_SUITE + ACCEPTANCE_BATCH
    # the anchors' box-relative positions
    ANCHORS = (0.1, 0.5, 0.9)

    @staticmethod
    def blocks(sc):
        """(legit, eve, d_m, m, lo, hi, x, at) of both directions at five
        splits with a non-empty box, from three interior anchors each."""
        for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
            m1 = 1.0 + frac * (sc.M - 2)
            lo1, hi1, lo2, hi2, _ = _Objective(sc).box(m1)
            for t in TestRedundancyBlock.ANCHORS:
                for block in direction_steps(sc, m1, lo1 + t * (hi1 - lo1),
                                             lo2 + t * (hi2 - lo2)):
                    if block[5] > block[4]:
                        yield block

    @staticmethod
    def balance(legit, eve, d_m, m, d):
        _, c_b, c_e, _ = _balanced_start(legit, eve, m, m, math.sqrt)
        return _hazard_balance(legit, eve, m, m, d_m + d, c_b, c_e,
                               0.5 * math.log(legit.v / eve.v),
                               math.sqrt, math.exp)[0]

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_no_grid_point_is_better(self, sc):
        for legit, eve, d_m, m, lo, hi, x, at in self.blocks(sc):
            d = _direction_min(at, x, lo, hi)
            assert lo <= d <= hi
            grid = log_direction_success(legit, eve, m,
                                         d_m + np.linspace(lo, hi, 2001))
            g = float(log_direction_success(legit, eve, m, d_m + d))
            assert g >= grid.max() - 1e-12 * abs(grid.max())
            assert at(d)[4] == g

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_balance_vanishes_at_an_interior_answer(self, sc):
        interior = 0
        for legit, eve, d_m, m, lo, hi, x, at in self.blocks(sc):
            d = _direction_min(at, x, lo, hi)
            if lo < d < hi:
                interior += 1
                assert abs(self.balance(legit, eve, d_m, m, d)) <= 1e-12
        assert interior

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_box_on_one_side_of_the_root_gives_its_edge(self, sc):
        for legit, eve, d_m, m, lo, hi, x, at in self.blocks(sc):
            d = _direction_min(at, x, lo, hi)
            # above the root r < 0 throughout, so g falls from the low edge
            above = (d + 1.0, d + 5.0)
            assert self.balance(legit, eve, d_m, m, above[1]) < 0.0
            assert _direction_min(at, d + 3.0, *above) == above[0]
            below = (max(0.0, d - 5.0), d - 1.0)
            if below[1] > below[0]:
                assert self.balance(legit, eve, d_m, m, below[0]) > 0.0
                assert (_direction_min(at, 0.5 * (below[0] + below[1]),
                                       *below) == below[1])

    @pytest.mark.parametrize("sc", SCENARIOS[:6])
    def test_step_scores_the_pair_it_returns(self, sc):
        # BCD's step, one _redundancy_pass of _direction_min: its
        # objective is the round trip's at the pair it returns, bit for
        # bit, and a second step barely moves it
        for frac in (0.2, 0.5, 0.8):
            m1 = 1.0 + frac * (sc.M - 2)
            lo1, hi1, lo2, hi2, _ = _Objective(sc).box(m1)
            for t in self.ANCHORS:
                d_r1, d_r2 = lo1 + t * (hi1 - lo1), lo2 + t * (hi2 - lo2)
                dirs = [(at, lo, hi) for *_, lo, hi, _, at in
                        direction_steps(sc, m1, d_r1, d_r2)]
                f = -log_round_trip_success(sc, m1, d_r1, d_r2)
                n1, n2, f_new = _redundancy_pass(_direction_min, dirs,
                                                 d_r1, d_r2, f)
                assert f_new.hex() == (
                    -log_round_trip_success(sc, m1, n1, n2)).hex()
                assert f_new <= f
                again = _redundancy_pass(_direction_min, dirs, n1, n2,
                                         f_new)
                assert again[2] <= f_new
                for n, m in zip((n1, n2), again[:2]):
                    assert abs(m - n) <= 1e-9 * max(1.0, n)

    # (scenario, direction, split fraction) with the threshold box and
    # its two parts split at 30 %, each from its midpoint: 54 blocks with
    # interior and edge answers
    PINNED_SCENARIOS = (
        SMALL, make_scenario(gamma_ba=8.0, gamma_be=0.3, M=1000),
        NEAR_DEGENERATE)
    PINNED = (
        '0x1.5a3678db6932dp+3', '0x1.25c28f5c28f5dp+3', '0x1.5a3678db6932dp+3',
        '0x1.6353898affad6p+5', '0x1.368f5c28f5c29p+5', '0x1.6353898affad6p+5',
        '0x1.ba05b2ec751bfp+4', '0x1.8000000000000p+4', '0x1.ba05b2ec751bfp+4',
        '0x1.ba05b2ec751bfp+4', '0x1.8000000000000p+4', '0x1.ba05b2ec751bfp+4',
        '0x1.368f9b3b61f09p+5', '0x1.0f0a3d70a3d70p+5', '0x1.368f9b3b61f0ap+5',
        '0x1.06cfa6bb51c45p+4', '0x1.c3d70a3d70a3fp+3', '0x1.06cfa6bb51c45p+4',
        '0x1.1381532efc528p+8', '0x1.e18f5c28f5c2ap+7', '0x1.1381532efc528p+8',
        '0x1.210317750d8a1p+10', '0x1.dc026ce33a90ap+9', '0x1.210317750d8a0p+10',
        '0x1.66219fed93b42p+9', '0x1.3afffffffffffp+9', '0x1.66219fed93b42p+9',
        '0x1.65d4814cb18dfp+9', '0x1.25fbe178cbec9p+9', '0x1.65d4814cb18dep+9',
        '0x1.f90cee9f202d2p+9', '0x1.bcbd70a3d70a3p+9', '0x1.f90cee9f202d1p+9',
        '0x1.a611700ebdf8bp+8', '0x1.59445e63aefe7p+8', '0x1.a611700ebdf8ap+8',
        '0x1.315eaed344db8p+5', '0x1.281c614715985p+5', '0x1.315eaed344db8p+5',
        '0x1.712d4136fe5a3p+7', '0x1.3e9a5b1fad09ep+7', '0x1.712d4136fe5a2p+7',
        '0x1.8ee338b698180p+6', '0x1.83fc8af91f639p+6', '0x1.8ee338b69817fp+6',
        '0x1.c9a7b0159ddb0p+6', '0x1.89d05b830eef1p+6', '0x1.c9a7b0159ddafp+6',
        '0x1.197c6b5289826p+7', '0x1.11f86399168eep+7', '0x1.197c6b5289827p+7',
        '0x1.0e85bdeeaabd4p+6', '0x1.cf1ae8b5b9ad4p+5', '0x1.0e85bdeeaabd5p+6',
    )

    def test_pinned_outputs(self):
        out, evaluations = [], 0
        for sc in self.PINNED_SCENARIOS:
            obj = _Objective(sc)
            for frac in (0.2, 0.5, 0.7):
                m1 = 1.0 + frac * (sc.M - 2)
                for i, (_, lo, hi) in enumerate(obj.split(m1)):
                    cut = lo + 0.3 * (hi - lo)
                    for a, b in ((lo, hi), (lo, cut), (cut, hi)):
                        at = obj.split(m1)[i][0]  # a fresh memo per block
                        out.append(_direction_min(at, 0.5 * (a + b), a, b))
            evaluations += obj.evaluations
        assert hex_list(out) == list(self.PINNED)
        assert evaluations == 174

    def test_few_evaluations_per_block(self, monkeypatch):
        # a box edge is evaluated only where a Newton step would leave
        # the box: on average at most three link pairs per block from the
        # incumbents of BCD's solves of the benchmark suite's first seed
        # (about 2.7), and at most 4.5 from the MM step tests' interior
        # anchors (about 4.3)
        objs, counts = [], []
        balance, block = solvers._direction_balance, solvers._direction_min

        def recorded_balance(obj, *args):
            objs[:] = [obj]
            return balance(obj, *args)

        def counted_block(*args):
            before = objs[0].evaluations
            out = block(*args)
            counts.append(objs[0].evaluations - before)
            return out

        monkeypatch.setattr(solvers, "_direction_balance", recorded_balance)
        monkeypatch.setattr(solvers, "_direction_min", counted_block)
        for sc in suite_instances(1):
            solve_bcd(sc)
        assert len(counts) > 200 and sum(counts) <= 3.0 * len(counts)
        counts.clear()
        for sc, m1, d_r1, d_r2 in TestMmStep.ANCHORS:
            for *_, lo, hi, x, at in direction_steps(sc, m1, d_r1, d_r2):
                counted_block(at, x, lo, hi)
        assert len(counts) == 200 and sum(counts) <= 4.5 * len(counts)

    def test_point_box_gives_its_point_from_one_evaluation(self):
        obj = _Objective(SMALL)
        for d in (0.0, 3.0, 7.5):
            at = obj.split(20.0)[0][0]
            before = obj.evaluations
            assert _direction_min(at, d, d, d) == d
            assert obj.evaluations == before + 1

    def test_mirrored_tie_takes_the_oracles_allocation(self):
        # at M = 700 the default point's splits 349 and 351 tie to the
        # last bit; the oracle takes the smaller, and so must BCD and MM
        sc = dataclasses.replace(
            load_scenario(SCENARIO_DIR / "roundtrip_default.json"), M=700)
        oracle = solve_exhaustive(sc)
        assert (oracle.alloc.m1, oracle.alloc.m2) == (349, 351)
        for solve in (solve_bcd, solve_mm):
            report = solve(sc)
            assert report.alloc == oracle.alloc
            assert report.lfp_final == oracle.lfp_final


class TestReportSurface:
    def test_to_dict_roundtrips_json(self):
        import json
        report = solve_bcd(SMALL)
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["status"] == "converged"
        assert parsed["alloc"]["m1"] + parsed["alloc"]["m2"] == SMALL.M
        assert parsed["trace"][0][0] == 0

    def test_evaluation_counter_positive(self):
        report = solve_bcd(SMALL)
        assert report.evaluations > 0
        assert report.wall_time >= 0.0


class TestRunControl:
    """The one iteration cap of BCD and MM."""

    @pytest.mark.parametrize("solve", [solve_bcd, solve_mm])
    def test_outer_cap_stops_with_max_iters(self, solve, monkeypatch,
                                            small_scenario_path):
        # the first cycle moves the LFP (0.17091 -> 0.16972), so one
        # cycle cannot satisfy the stopping test
        monkeypatch.setattr(solvers, "_MAX_ITERS", 1)
        sc = load_scenario(small_scenario_path)
        report = solve(sc)
        assert report.status == "max_iters"
        assert len(report.trace) == 2
        assert report.iterations == 1
        a = report.alloc
        assert all(float(v).is_integer() for v in (a.m1, a.m2, a.d_r1, a.d_r2))
        assert report.lfp_final == lfp(sc, report.alloc)


class TestEvaluatedOnce:
    """BCD and MM carry the incumbent's objective value instead of
    scoring it again, the m1 block takes its answer's value from the
    point that scored it (its grid or its profile), and both redundancy
    steps score their points from the hazard-balance evaluations they
    solve on, each evaluated once."""

    @pytest.mark.parametrize("solve", [solve_bcd, solve_mm])
    def test_no_point_scored_twice_in_a_cycle(self, solve, monkeypatch):
        # the m1 block's scalar profile points (its one grid call is a
        # vector evaluation)
        cycles = []  # the points scored in each cycle
        m1_block, m1_profile = solvers._m1_block, solvers._m1_profile

        def recorded_profile(obj, m1, t1, t2):
            out = m1_profile(obj, m1, t1, t2)
            if out[2] is not None:  # a feasible split, scored
                cycles[-1].append((m1, out[2], out[3]))
            return out

        def new_cycle(*args):
            cycles.append([])
            return m1_block(*args)

        monkeypatch.setattr(solvers, "_m1_profile", recorded_profile)
        monkeypatch.setattr(solvers, "_m1_block", new_cycle)
        for sc in SOLVER_SUITE:
            cycles.clear()
            solve(sc)
            assert len(cycles) > 1
            assert any(len(points) > 2 for points in cycles)
            for points in cycles:
                assert len(set(points)) == len(points), sc

    def test_no_link_terms_built_twice_in_an_mm_step(self, monkeypatch):
        self.check_step_balances(solve_mm, "_mm_step", monkeypatch)

    def test_no_link_terms_built_twice_in_a_bcd_step(self, monkeypatch):
        # BCD's step is one pass
        self.check_step_balances(solve_bcd, "_redundancy_pass", monkeypatch)

    def check_step_balances(self, solve, step, monkeypatch):
        """The link pairs each redundancy step of ``solve`` evaluates:
        its hazard balances, each once and counted once in
        ``evaluations``, and no ``_direction_log_terms``."""
        steps = []  # (legit, m, D) of each step's balances
        balance, redundancy_step = solvers._hazard_balance, getattr(solvers,
                                                                    step)
        terms, direction_balance = (solvers._direction_log_terms,
                                    solvers._direction_balance)
        in_step, objs = [], []

        def recorded_balance(legit, eve, m_b, m_e, D, *args):
            if in_step:
                steps[-1].append((legit, m_b, m_e, D))
            return balance(legit, eve, m_b, m_e, D, *args)

        def recorded_terms(*args):
            assert not in_step
            return terms(*args)

        def recorded_direction(obj, *args):
            objs[:] = [obj]
            return direction_balance(obj, *args)

        def new_step(*args):
            steps.append([])
            in_step.append(True)
            before = objs[0].evaluations
            try:
                return redundancy_step(*args)
            finally:
                in_step.clear()
                assert objs[0].evaluations - before == len(steps[-1])

        monkeypatch.setattr(solvers, "_hazard_balance", recorded_balance)
        monkeypatch.setattr(solvers, "_direction_log_terms", recorded_terms)
        monkeypatch.setattr(solvers, "_direction_balance", recorded_direction)
        monkeypatch.setattr(solvers, step, new_step)
        for sc in SOLVER_SUITE:
            steps.clear()
            solve(sc)
            assert any(len(points) > 4 for points in steps)
            for points in steps:
                assert len(set(points)) == len(points), sc


class TestM1BracketGrid:
    """The m1 block's one-call bracket grid against the scalar profile,
    point for point and bit for bit, the start it gives and the split
    it ends at."""

    # LADDER_1[7] ends where the profile's slopes are so small that
    # their product underflows
    SCENARIOS = ([SMALL, NEAR_DEGENERATE, TestExhaustivePlateauTies.SC,
                  DEFAULT_M1000]
                 + random_feasible_suite(4, seed=99) + [LADDER_1[7]])

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_grid_matches_scalar_profile(self, sc):
        obj = _Objective(sc)
        grids = (np.linspace(1.0, float(sc.M - 1), _M1_GRID + 1),
                 np.arange(1.0, float(sc.M)))
        for xs in grids:
            for t1, t2 in ((0.0, 0.0), (1.0, 1.0), (0.25, 0.75), (0.5, 0.5)):
                before = obj.evaluations
                grid = _m1_profile_grid(obj, _split_grid(
                    obj.geometry.constants, sc.M, xs), t1, t2)
                grid_count = obj.evaluations - before
                scalar = [_m1_profile(obj, x, t1, t2)[0] for x in xs]
                scalar_count = obj.evaluations - before - grid_count
                assert grid_count == scalar_count == \
                    2 * sum(math.isfinite(v) for v in scalar)
                assert [float(v).hex() for v in grid] == \
                    [float(v).hex() for v in scalar]

    @pytest.mark.parametrize("sc", SCENARIOS + [
        make_scenario(gamma_ab=1.0, gamma_ae=1.2, d_m1=4, d_m2=4, M=60)])
    def test_start_matches_scalar_candidates(self, sc, monkeypatch):
        # the solve's first m1 block runs at mid-box and the start is the
        # best value it scored, on its grid or its profile; with no
        # feasible grid split the start is the oracle's answer
        blocks = []  # (t1, t2, values scored) of each m1 block
        grid, profile, block = (solvers._m1_profile_grid,
                                solvers._m1_profile, solvers._m1_block)

        def recorded_grid(*args):
            vals = grid(*args)
            blocks[-1][2].extend(vals)
            return vals

        def recorded_profile(*args):
            out = profile(*args)
            blocks[-1][2].append(out[0])
            return out

        def recorded_block(obj, t1, t2, m1=None):
            blocks.append((t1, t2, []))
            return block(obj, t1, t2, m1)

        monkeypatch.setattr(solvers, "_m1_profile_grid", recorded_grid)
        monkeypatch.setattr(solvers, "_m1_profile", recorded_profile)
        monkeypatch.setattr(solvers, "_m1_block", recorded_block)
        report = solve_bcd(sc, SolverConfig(integer_mode=False))
        t1, t2, values = blocks[0]
        assert (t1, t2) == (0.5, 0.5)
        if math.isinf(min(values)):
            assert report.trace[:1] == solve_exhaustive(sc).trace
        else:
            assert report.trace[0] == (0, -math.expm1(-min(values)))

    @staticmethod
    def grid_best(sc, t1=0.5, t2=0.5):
        """The grid's splits and the index of its best one at (t1, t2)."""
        obj = _Objective(sc)
        vals = _m1_profile_grid(obj, obj.geometry.grid, t1, t2)
        return obj.geometry.xs, int(np.argmin(vals))

    def test_root_starts_at_an_incumbent_inside_its_bracket(self,
                                                            monkeypatch):
        # the block's first profile point is the incumbent where it lies
        # strictly inside the bracket of the grid's best split's
        # neighbours, else that split; from that split the answer is the
        # block's answer without an incumbent
        points = []
        profile = solvers._m1_profile

        def recorded(obj, z, t1, t2):
            points.append(z)
            return profile(obj, z, t1, t2)

        monkeypatch.setattr(solvers, "_m1_profile", recorded)
        inside = 0
        for sc in self.SCENARIOS:
            xs, i = self.grid_best(sc)
            points.clear()
            plain = _m1_block(_Objective(sc), 0.5, 0.5)
            assert points[0] == xs[i]
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, _M1_GRID)]
            for m1 in (a, b, a - 1.0, b + 1.0, 0.5 * (a + xs[i]),
                       0.5 * (xs[i] + b)):
                points.clear()
                moved = _m1_block(_Objective(sc), 0.5, 0.5, float(m1))
                if a < m1 < b:
                    inside += 1
                    assert points[0] == m1, (sc, m1)
                else:
                    assert points[0] == xs[i], (sc, m1)
                    assert moved == plain
        assert inside >= 10

    def test_answer_never_worse_than_the_grids_best_split(self,
                                                          monkeypatch):
        # with the root search cut short, an incumbent inside the bracket
        # that scores worse than the grid's best split leaves that
        # split, with the profile's value and carried pair, as the answer
        for search in ("_bracketed_root", "_edge_or_root"):
            monkeypatch.setattr(solvers, search, lambda *a, **k: None)
        checked = 0
        for sc in self.SCENARIOS:
            xs, i = self.grid_best(sc)
            best = _m1_profile(_Objective(sc), xs[i], 0.5, 0.5)
            for m1 in (0.5 * (xs[max(i - 1, 0)] + xs[i]),
                       0.5 * (xs[i] + xs[min(i + 1, _M1_GRID)])):
                if m1 == xs[i] or _m1_profile(_Objective(sc), m1, 0.5,
                                              0.5)[0] <= best[0]:
                    continue
                checked += 1
                assert _m1_block(_Objective(sc), 0.5, 0.5, float(m1)) == (
                    xs[i], best[2], best[3], best[0])
        assert checked >= 5

    def test_no_bracket_end_is_scored(self, monkeypatch):
        # in the blocks of BCD and MM solves: the grid's best split's
        # neighbours are never scored, and a feasibility edge only where
        # the Newton step from the point scored before it would leave
        # past it, as the edge-or-root rule probes a box edge
        blocks = []  # per block: (t1, t2, neighbours, edges, points)
        grid, profile, edge = (solvers._m1_profile_grid, solvers._m1_profile,
                               solvers._feasibility_edge)

        def recorded_grid(obj, g, t1, t2):
            vals = grid(obj, g, t1, t2)
            i, xs = int(np.argmin(vals)), obj.geometry.xs
            blocks.append((t1, t2, {xs[j] for j in (i - 1, i + 1)
                                    if 0 <= j <= _M1_GRID}, set(), []))
            return vals

        def recorded_profile(obj, z, t1, t2):
            blocks[-1][4].append(z)
            return profile(obj, z, t1, t2)

        def recorded_edge(obj, x, y):
            out = edge(obj, x, y)
            blocks[-1][3].add(out)
            return out

        monkeypatch.setattr(solvers, "_m1_profile_grid", recorded_grid)
        monkeypatch.setattr(solvers, "_m1_profile", recorded_profile)
        monkeypatch.setattr(solvers, "_feasibility_edge", recorded_edge)
        edges = scored = 0
        for sc in self.SCENARIOS + SOLVER_SUITE + ACCEPTANCE_BATCH:
            blocks.clear()
            solve_bcd(sc)
            solve_mm(sc)
            for t1, t2, neighbours, ends, points in blocks:
                assert not neighbours & set(points), sc
                edges += bool(ends)
                for k in (k for k, z in enumerate(points) if z in ends):
                    scored += 1
                    # the root finder's function, as the block scales it
                    p, s, _, _, s2 = profile(_Objective(sc), points[k - 1],
                                             t1, t2)
                    f, slope = (-s, -s2) if not p else (-s / p, (s / p) ** 2
                                                        - s2 / p)
                    step = points[k - 1] - f / slope
                    assert not (min(points[k - 1], points[k]) <= step
                                <= max(points[k - 1], points[k])), sc
        assert edges > 10 and scored > 0

    def test_few_profile_points_per_block(self, monkeypatch):
        # Newton steps on the log-scaled slope from the incumbent or the
        # grid's best split, with no grid neighbour scored: about three and
        # a half scalar profile points per block on the benchmark suite's
        # first seed
        blocks, points = [], []
        block, profile = solvers._m1_block, solvers._m1_profile

        def recorded_block(*args):
            blocks.append(1)
            return block(*args)

        def recorded_profile(*args):
            points.append(1)
            return profile(*args)

        monkeypatch.setattr(solvers, "_m1_block", recorded_block)
        monkeypatch.setattr(solvers, "_m1_profile", recorded_profile)
        for sc in suite_instances(1):
            solve_bcd(sc)
            solve_mm(sc)
        assert len(points) <= 4.5 * len(blocks)

    def test_grid_sees_infeasible_splits(self):
        # the near-degenerate forward direction is empty at short blocks
        obj = _Objective(NEAR_DEGENERATE)
        xs = np.arange(1.0, float(obj.scenario.M))
        grid = _m1_profile_grid(obj, _split_grid(
            obj.geometry.constants, obj.scenario.M, xs), 0.5, 0.5)
        assert np.isinf(grid).any() and np.isfinite(grid).any()

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_block_ends_at_a_slope_sign_change_or_an_edge(self, sc):
        # from each box-relative position and incumbent the block meets
        # in a BCD and an MM solve, the start's included
        positions = []
        block = solvers._m1_block

        def recorded(obj, t1, t2, m1=None):
            positions.append((t1, t2, m1))
            return block(obj, t1, t2, m1)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_m1_block", recorded)
            solve_bcd(sc)
            solve_mm(sc)
        assert positions
        grid_edges = (1.0, float(sc.M - 1))
        for t1, t2, m1 in positions:
            obj = _Objective(sc)
            x, a, b, value = _m1_block(obj, t1, t2, m1)
            # probes far enough out that the slopes' rounding, about
            # 1e-15 where the profile is flat, cannot hide their signs
            tol = 1e-6 * max(1.0, x)
            point = _m1_profile(_Objective(sc), x, t1, t2)
            assert (value, a, b) == (point[0], point[2], point[3])
            if x in grid_edges:
                continue
            if not (obj.box(x - tol)[4] and obj.box(x + tol)[4]):
                continue  # a feasibility edge
            below = _m1_profile(obj, x - tol, t1, t2)[1]
            above = _m1_profile(obj, x + tol, t1, t2)[1]
            assert below <= 0.0 <= above, (m1, x, below, above)


class TestSharedGeometry:
    """The geometry that BCD, MM and the oracle derive from the scenario
    alone (``_geometry``): read-only, one per scenario value, and a
    solve on a cold cache reports what a warm one does."""

    def test_arrays_are_read_only(self):
        g = _geometry(SMALL)
        arrays = [g.constants, g.xs, *g.grid[0], *g.grid[1], *g.grid[2:7]]
        assert len(arrays) == 13
        # the grid's link pairs per scoring: two per feasible split
        assert g.grid[7] == 2 * np.count_nonzero(g.grid[6]) > 0
        for a in arrays:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_equal_scenarios_share_one_geometry(self):
        twin = make_scenario(d_m1=2, d_m2=2, M=40)
        assert twin == SMALL and twin is not SMALL
        assert _Objective(twin).geometry is _Objective(SMALL).geometry
        other = dataclasses.replace(SMALL, M=41)
        assert _Objective(other).geometry is not _Objective(SMALL).geometry

    @pytest.mark.parametrize("solve", [solve_bcd, solve_mm, solve_exhaustive])
    def test_cold_cache_gives_the_warm_report(self, solve):
        def report(sc):
            out = solve(sc).to_dict()
            del out["wall_time"]
            return json.dumps(out)

        for sc in SOLVER_SUITE + [DEFAULT_M1000]:
            report(sc)
            warm = report(sc)
            _geometry.cache_clear()
            assert report(sc) == warm
            assert _geometry.cache_info().misses == 1


class TestM1ProfileSlope:
    """``_m1_profile``'s slope against central differences of its own
    value and its second slope against those of its slope, at feasible
    splits away from the lower edges' clamp at 0 (a kink), and its value
    against -``log_round_trip_success`` at the carried pair, bit for
    bit.  A threshold of 1/2 makes its link's Qinv 0, so the
    second scenario's thresholds are not 1/2."""

    SCENARIOS = (
        DEFAULT_M1000,
        make_scenario(gamma_ab=4.0, gamma_ae=0.5, gamma_ba=2.5, gamma_be=0.3,
                      d_m1=8, d_m2=12, M=400, eps_ab_max=0.1, eps_ba_max=0.2,
                      eps_e_max=0.3),
        NEAR_DEGENERATE,
    )
    POSITIONS = ((0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.8, 0.1))

    @staticmethod
    def clamps(obj, x):
        lo1, _, lo2, _, _ = obj.box(x)
        return lo1 <= 0.0, lo2 <= 0.0

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_slope_matches_central_differences(self, sc):
        obj = _Objective(sc)
        splits = np.concatenate((np.linspace(2.0, sc.M - 2.0, 41),
                                 [3.5, 7.0, 12.0, sc.M - 7.0, sc.M - 3.5]))
        seen = set()
        for x in splits:
            # the slope's difference takes a wider step: the slope is a
            # difference of the two directions' slopes, often orders of
            # magnitude below them, so its rounding is larger
            h, h2 = 1e-5 * min(x, sc.M - x), 1e-4 * min(x, sc.M - x)
            if not all(obj.box(z)[4] for z in (x - h2, x, x + h2)):
                continue
            if self.clamps(obj, x - h2) != self.clamps(obj, x + h2):
                continue  # the clamp's kink lies within the difference
            seen.add(self.clamps(obj, x))
            for t1, t2 in self.POSITIONS:
                value, slope, _, _, curvature = _m1_profile(obj, x, t1, t2)
                central = (_m1_profile(obj, x + h, t1, t2)[0]
                           - _m1_profile(obj, x - h, t1, t2)[0]) / (2.0 * h)
                # the floor is the difference's rounding, ~ulp(value) / h
                assert abs(central - slope) <= (1e-5 * abs(slope)
                                                + 1e-10 * abs(value)), \
                    (x, t1, t2, slope, central)
                central = (_m1_profile(obj, x + h2, t1, t2)[1]
                           - _m1_profile(obj, x - h2, t1, t2)[1]) / (2.0 * h2)
                assert abs(central - curvature) <= (1e-5 * abs(curvature)
                                                    + 1e-10 * abs(value)), \
                    (x, t1, t2, curvature, central)
        # clamped and unclamped lower edges both met
        assert {c for pair in seen for c in pair} == {False, True}, seen

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_value_and_pair_are_the_objectives(self, sc):
        obj = _Objective(sc)
        for x in np.linspace(1.0, sc.M - 1.0, 97):
            for t1, t2 in self.POSITIONS:
                value, slope, d_r1, d_r2, curvature = _m1_profile(obj, x, t1,
                                                                  t2)
                lo1, hi1, lo2, hi2, feasible = obj.box(x)
                if not feasible:
                    assert (value, d_r1, d_r2) == (math.inf, None, None)
                    assert math.isnan(slope) and math.isnan(curvature)
                    continue
                assert (d_r1, d_r2) == (lo1 + t1 * (hi1 - lo1),
                                        lo2 + t2 * (hi2 - lo2))
                assert value.hex() == (
                    -log_round_trip_success(sc, x, d_r1, d_r2)).hex()


class TestIterativeGolden:
    """BCD and MM (default, relaxed) on the solver suite, both scenario
    files and eight acceptance draws, against
    tests/data/iterative_golden.json: status, allocation, lfp_final,
    trace and evaluation count, exactly."""

    def test_reports_match_golden_file(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        current = golden_records()
        assert current.keys() == golden.keys()
        for name, modes in golden.items():
            assert current[name].keys() == modes.keys(), name
            for mode, record in modes.items():
                assert current[name][mode] == record, (name, mode)
