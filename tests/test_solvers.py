"""Solver correctness: enumeration against an independent brute force,
descent contracts, the shared root finder and edge-or-root rule, BCD's
redundancy block, MM's majorize step, rounding and determinism."""

import dataclasses
import json
import math
import sys

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
    _hazard_balance,
    _link_pair,
    _split_boxes,
    link_constants,
    log_direction_success,
    log_round_trip_success,
)
from fblsec.solvers import (
    _LINE_SEARCH_TOL,
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
    _integer_reconstruct,
    _m1_block,
    _m1_profile,
    _m1_profile_grid,
    _Objective,
    _redundancy_pass,
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
    tabulates them."""
    ab, ae, ba, be = link_constants(sc)
    m = np.arange(1, sc.M, dtype=float)
    lo1, hi1, lo2, hi2, _ = _split_boxes((ab, ae, ba, be), sc, m, m,
                                         np.sqrt, np.maximum)
    out = []
    for legit, eve, d_m, lo, hi in ((ab, ae, sc.d_m1, lo1, hi1),
                                    (ba, be, sc.d_m2, lo2, hi2)):
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
        root = _bracketed_root(fn, -10.0, math.atan(11.0), 10.0,
                               -math.atan(9.0), 8.0, atol=1e-12)
        assert seen[:2] == [8.0, -1.0]
        assert abs(root - 1.0) <= 1e-12
        assert len(seen) < 15

    def test_zero_slope_is_bisected(self):
        # F = 1 - x^10 on [0, 2] with a slope of 0: from the
        # false-position start every step is the bracket's midpoint
        fn, seen = counted(lambda x: (1.0 - x ** 10, 0.0))
        root = _bracketed_root(fn, 0.0, 1.0, 2.0, 1.0 - 2.0 ** 10,
                               atol=1e-12)
        x0 = 2.0 / 1024.0
        assert seen[:3] == [x0, 0.5 * (x0 + 2.0), 0.5 * (x0 + seen[1])]
        assert abs(root - 1.0) <= 1e-12

    def test_stops_at_an_exact_zero(self):
        fn, seen = counted(lambda x: (0.5 - x, -1.0))
        assert _bracketed_root(fn, 0.0, 0.5, 1.0, -0.5) == 0.5
        assert seen == [0.5]
        # where the slope vanishes with the value, no step is taken
        fn, seen = counted(lambda x: (-(x - 0.5) ** 3, -3.0 * (x - 0.5) ** 2))
        assert _bracketed_root(fn, 0.0, 0.125, 1.0, -0.125) == 0.5
        assert seen == [0.5]


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
        # a nonlinear F so that Newton from the anchor is not exact
        fn, seen = counted(lambda d: (math.exp(-d) - 0.25,
                                      -math.exp(-d)))
        root = _edge_or_root(fn, 4.0, 0.0, 10.0)
        assert seen[:2] == [4.0, 0.0]
        assert abs(root - math.log(4.0)) <= 1e-9

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
        # the root finder's F at the anchor is the hazard balance, bit
        # for bit; F falls, and its bracket ends have opposite signs
        brackets = []
        root = solvers._bracketed_root

        def recorded(fn, a, fa, b, fb, x, **kwargs):
            brackets.append((fn, a, fa, b, fb, x))
            return root(fn, a, fa, b, fb, x, **kwargs)

        monkeypatch.setattr(solvers, "_bracketed_root", recorded)
        checked = 0
        for sc, m1, d_r1, d_r2 in self.ANCHORS:
            for legit, eve, d_m, m, lo, hi, x, at in direction_steps(
                    sc, m1, d_r1, d_r2):
                brackets.clear()
                _surrogate_min(at, x, lo, hi)
                if not brackets:
                    continue  # the answer is a box edge
                checked += 1
                fn, a, fa, b, fb, start = brackets[0]
                _, c_b, c_e, _ = _balanced_start(legit, eve, m, m,
                                                 math.sqrt)
                r = _hazard_balance(legit, eve, m, m, d_m + x, c_b, c_e,
                                    0.5 * math.log(legit.v / eve.v),
                                    math.sqrt, math.exp)[0]
                assert start == x and x in (a, b)
                assert fn(x)[0].hex() == float(r).hex()
                assert fa > 0.0 > fb
                assert fn(a)[1] < 0.0 and fn(b)[1] < 0.0
        assert checked > 100


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

    def test_no_integer_box_at_either_split_gives_the_oracle(self):
        # the window of m1 = 2.0 is splits 1, 2 and 3, none of which has
        # an integer box in the forward direction
        sc = NEAR_DEGENERATE
        for m1 in (1, 2, 3):
            assert dense_split(sc, m1) == (None, None)
        alloc, log_p = _integer_reconstruct(_Objective(sc), 2.0)
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
        "ladder1_8": (1374, 2626, 1424, 1696),
        "ladder2_5": (2506, 1494, 2399, 1454),
        "ladder3_8": (2373, 1627, 3268, 1502),
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
        assert evaluations == 210

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
    """The fixed outer-iteration cap."""

    @pytest.mark.parametrize("solve", [solve_bcd, solve_mm])
    def test_outer_cap_stops_with_max_iters(self, solve, monkeypatch,
                                            small_scenario_path):
        # the first cycle moves the LFP (0.17091 -> 0.16972), so one
        # cycle cannot satisfy the stopping test
        monkeypatch.setattr(solvers, "_MAX_OUTER_ITERS", 1)
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
    scoring it again, the m1 block takes its answer's value from that
    split's own profile point, and both redundancy steps score their
    points from the hazard-balance evaluations they solve on, each
    evaluated once."""

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

    # ladder_instances(1)[7] (M = 1000) ends at LFP ~4e-190, where the
    # profile's slopes are so small that their product underflows
    SCENARIOS = ([SMALL, NEAR_DEGENERATE, TestExhaustivePlateauTies.SC,
                  DEFAULT_M1000]
                 + random_feasible_suite(4, seed=99) + [ladder_instances(1)[7]])

    @pytest.mark.parametrize("sc", SCENARIOS)
    def test_grid_matches_scalar_profile(self, sc):
        obj = _Objective(sc)
        grids = (np.linspace(1.0, float(sc.M - 1), _M1_GRID + 1),
                 np.arange(1.0, float(sc.M)))
        for xs in grids:
            for t1, t2 in ((0.0, 0.0), (1.0, 1.0), (0.25, 0.75), (0.5, 0.5)):
                before = obj.evaluations
                grid = _m1_profile_grid(obj, obj.split_grid(xs), t1, t2)
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

    def test_root_starts_at_an_incumbent_inside_its_bracket(self,
                                                            monkeypatch):
        # an incumbent strictly inside the bracket is the root's first
        # point; on or outside its ends the root starts at the
        # false-position point, as without an incumbent
        calls = []
        root = solvers._bracketed_root

        def recorded(fn, a, fa, b, fb, x=None, **kwargs):
            calls.append((a, b, x))
            return root(fn, a, fa, b, fb, x, **kwargs)

        monkeypatch.setattr(solvers, "_bracketed_root", recorded)
        bracketed = 0
        for sc in self.SCENARIOS:
            calls.clear()
            plain = _m1_block(_Objective(sc), 0.5, 0.5)
            if not calls:
                continue
            bracketed += 1
            (a, b, start), = calls
            assert start is None
            for m1, want in ((a, None), (b, None), (a - 1.0, None),
                             (b + 1.0, None), (0.5 * (a + b), 0.5 * (a + b))):
                calls.clear()
                moved = _m1_block(_Objective(sc), 0.5, 0.5, m1)
                assert calls == [(a, b, want)], (sc, m1)
                if want is None:
                    assert moved == plain
        assert bracketed >= 5

    def test_few_profile_points_per_block(self, monkeypatch):
        # Newton steps on the log-scaled slope: about five scalar profile
        # points per block on the benchmark suite's first seed, against
        # about eight with false-position steps
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
        assert len(points) <= 6.0 * len(blocks)

    def test_grid_sees_infeasible_splits(self):
        # the near-degenerate forward direction is empty at short blocks
        obj = _Objective(NEAR_DEGENERATE)
        xs = np.arange(1.0, float(obj.scenario.M))
        grid = _m1_profile_grid(obj, obj.split_grid(xs), 0.5, 0.5)
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
        tol = _LINE_SEARCH_TOL
        grid_edges = (1.0, float(sc.M - 1))
        for t1, t2, m1 in positions:
            obj = _Objective(sc)
            x, a, b, value = _m1_block(obj, t1, t2, m1)
            point = _m1_profile(_Objective(sc), x, t1, t2)
            assert (value, a, b) == (point[0], point[2], point[3])
            if x in grid_edges:
                continue
            if not (obj.box(x - tol)[4] and obj.box(x + tol)[4]):
                continue  # a feasibility edge
            below = _m1_profile(obj, x - tol, t1, t2)[1]
            above = _m1_profile(obj, x + tol, t1, t2)[1]
            assert below <= 0.0 <= above, (m1, x, below, above)


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
