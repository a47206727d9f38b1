"""The solvers over the whole input domain, from seeded draws.

Each draw is a scenario anywhere in what ``Scenario`` accepts: SNRs in
[-30, 40] dB, or with probability 0.3 in [-3000, 1500] dB, message
sizes from {0, 1, 4, 20, 200}, budgets M in [2, 3000] and thresholds
log-uniform down to 1e-300.  A draw's JSON form either builds
(``scenario_from_dict``, as the CLI builds it) or raises
``DomainError``; every scenario that builds is solved by all three
methods, with every warning an error (``filterwarnings``), and judged
by ``conftest.violations``.  The CLI
tests run ``fblsec solve`` in this process through
``test_bench_cli.run_main``, which fails on any warning; the process
boundary itself is probed in ``test_bench_cli``.
"""

import json
import math

import numpy as np
import pytest

from fblsec import (
    DomainError,
    SolverConfig,
    scenario_from_dict,
    solve_bcd,
    solve_exhaustive,
    solve_mm,
    solvers,
)
from fblsec.bench_cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK
from conftest import violations
from test_bench_cli import run_main, write_scenario

LINKS = ("ab", "ae", "ba", "be")
# a feasible set of two splits (m1 in {15, 16}) that the 33-point grid of
# BCD/MM's m1 block, and so of their start, misses
NARROW = {"gamma_ab_db": 19.56197444185515, "gamma_ae_db": 38.182100212393706,
          "gamma_ba_db": 4.90490946641016, "gamma_be_db": -27.36894504446687,
          "d_m1": 1, "d_m2": 4, "M": 2107,
          "eps_ab_max": 1.67134218652424e-63,
          "eps_ba_max": 2.0262442380868608e-22,
          "eps_e_max": 2.335130315605269e-252}
# Seed 226, draw 131: the m1 profile's scaled slope is subnormal, and a
# Newton step from one side of its root lands on the point before, on
# the other side
SUBNORMAL_SLOPE = {"gamma_ab_db": 37.90783791845497,
                   "gamma_ae_db": -6.579457118768147,
                   "gamma_ba_db": 13.872289441129311,
                   "gamma_be_db": -10.151012725190139,
                   "d_m1": 20, "d_m2": 1, "M": 1335,
                   "eps_ab_max": 1.61567144827451e-253,
                   "eps_ba_max": 7.122129975474088e-136,
                   "eps_e_max": 5.979490687091041e-144}
# Seed 209, draw 145: the relaxed optimum sits at a short block (m1 about
# 6.45), and its LFP with every search run to a 1e-13 step
SHORT_BLOCK = {"gamma_ab_db": 39.86425791677375,
               "gamma_ae_db": -13.022605147766559,
               "gamma_ba_db": 25.962759372905275,
               "gamma_be_db": 8.935220467509097,
               "d_m1": 20, "d_m2": 4, "M": 678,
               "eps_ab_max": 4.07505175700077e-42,
               "eps_ba_max": 1.378003623584561e-250,
               "eps_e_max": 1.9632792627733011e-289}
SHORT_BLOCK_LFP = 1.0450513727949467e-70


def draw(rng):
    """One scenario's JSON fields (SNRs in dB)."""
    lo, hi = (-3000.0, 1500.0) if rng.random() < 0.3 else (-30.0, 40.0)
    snr_db = rng.uniform(lo, hi, 4)
    d_m = rng.choice([0, 1, 4, 20, 200], 2)
    M = int(rng.integers(2, 3001))
    eps = 10.0 ** rng.uniform(-300.0, math.log10(0.999999), 3)
    return {**{f"gamma_{k}_db": float(v) for k, v in zip(LINKS, snr_db)},
            "d_m1": int(d_m[0]), "d_m2": int(d_m[1]), "M": M,
            "eps_ab_max": float(eps[0]), "eps_ba_max": float(eps[1]),
            "eps_e_max": float(eps[2])}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_draws_keep_every_invariant(seed):
    rng = np.random.default_rng(seed)
    built, failures = 0, []
    for i in range(200):
        cfg = draw(rng)
        try:
            sc = scenario_from_dict(cfg)
        except DomainError:
            continue
        built += 1
        reports = {"bcd": solve_bcd(sc), "mm": solve_mm(sc)}
        failures += [(i, cfg, v)
                     for v in violations(sc, solve_exhaustive(sc), reports)]
    assert built > 100
    assert failures == []


def test_a_feasible_set_the_start_grid_misses_is_solved():
    sc = scenario_from_dict(NARROW)
    oracle, bcd, mm = solve_exhaustive(sc), solve_bcd(sc), solve_mm(sc)
    assert oracle.status == bcd.status == mm.status == "converged"
    assert (oracle.alloc.m1, oracle.alloc.m2, oracle.alloc.d_r1,
            oracle.alloc.d_r2) == (15, 2092, 2, 152)
    assert bcd.alloc == mm.alloc == oracle.alloc


def test_root_search_never_steps_back_where_the_slope_is_subnormal(
        monkeypatch):
    # every bracketed root search of both solves ends short of the cap
    values = []  # per search
    root = solvers._bracketed_root

    def counted(fn, *args, **kwargs):
        values.append(0)

        def value(x):
            values[-1] += 1
            return fn(x)
        return root(value, *args, **kwargs)

    monkeypatch.setattr(solvers, "_bracketed_root", counted)
    sc = scenario_from_dict(SUBNORMAL_SLOPE)
    reports = {"bcd": solve_bcd(sc), "mm": solve_mm(sc)}
    assert violations(sc, solve_exhaustive(sc), reports) == []
    assert values and max(values) < 100


@pytest.mark.parametrize("solve", [solve_bcd, solve_mm])
def test_short_block_relaxed_optimum_is_converged(solve, monkeypatch):
    # the m1 root ends on the step rule of every other search, so the
    # relaxed LFP is the one a 1e-13 step gives, to the 1e-8 at which
    # the descent itself stops
    sc = scenario_from_dict(SHORT_BLOCK)
    relaxed = SolverConfig(integer_mode=False)
    lfp = solve(sc, relaxed).lfp_final
    monkeypatch.setattr(solvers, "_BLOCK_TOL", 1e-13)
    tight = solve(sc, relaxed).lfp_final
    assert math.isclose(tight, SHORT_BLOCK_LFP, rel_tol=1e-10, abs_tol=0.0)
    assert math.isclose(lfp, tight, rel_tol=1e-8, abs_tol=0.0)


@pytest.mark.parametrize("method", ["exhaustive", "bcd", "mm"])
def test_cli_solves_the_narrow_feasible_set(capsys, tmp_path, method):
    code, out, err = run_main(capsys, [
        "solve", "--scenario", write_scenario(tmp_path, **NARROW),
        "--method", method])
    assert code == EXIT_OK, err
    alloc = json.loads(out)["alloc"]
    assert alloc == {"m1": 15, "m2": 2092, "d_r1": 2, "d_r2": 152}


@pytest.mark.parametrize("seed, method", [(4, "exhaustive"), (5, "bcd"),
                                          (6, "mm")])
def test_cli_probes_exit_cleanly(capsys, tmp_path, seed, method):
    # the first draws of a seed that build and that do not, through the
    # CLI with every warning recorded
    rng = np.random.default_rng(seed)
    probes = {}
    while len(probes) < 2:
        cfg = draw(rng)
        try:
            scenario_from_dict(cfg)
            probes.setdefault("builds", cfg)
        except DomainError:
            probes.setdefault("rejected", cfg)
    for kind, cfg in probes.items():
        code, _, err = run_main(capsys, [
            "solve", "--scenario", write_scenario(tmp_path, **cfg),
            "--method", method])
        expected = ((EXIT_OK, EXIT_INFEASIBLE) if kind == "builds"
                    else (EXIT_INPUT,))
        assert code in expected, (cfg, err)
