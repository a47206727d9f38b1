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
    scenario_from_dict,
    solve_bcd,
    solve_exhaustive,
    solve_mm,
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
