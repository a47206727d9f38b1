"""The golden files and their writer.

``tests/data/iterative_golden.json`` pins every solve bit for bit
(status, allocation, ``lfp_final``, trace and evaluation count): BCD
and MM in every mode, relaxed included, BCD and MM restarted from the
oracle's allocation, and the exhaustive oracle at full budget and, up
to ``PARTIAL_BUDGET_MAX_M``, at partial budget.  A change to the
evaluation path or the solver scaffolding that moves any last bit shows
up.  ``tests/data/sweep_default_M200-1000.csv`` is the CLI sweep of
``SWEEP_ARGV`` over the default operating point, compared on every
column but ``wall_time``.  Regenerate both only for an intended change
of results:

    PYTHONPATH=src python3 tests/iterative_golden.py
"""

import json
import shutil
import tempfile
from pathlib import Path

from fblsec import (
    SolverConfig,
    load_scenario,
    solve_bcd,
    solve_exhaustive,
    solve_mm,
)
from fblsec.bench_cli import main

from conftest import SCENARIO_DIR, random_feasible_suite

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "iterative_golden.json"
SWEEP_GOLDEN_PATH = DATA_DIR / "sweep_default_M200-1000.csv"
# The golden sweep's arguments, without ``--out``.
SWEEP_ARGV = [
    "sweep", "--scenario", str(SCENARIO_DIR / "roundtrip_default.json"),
    "--vary", "M", "--from", "200", "--to", "1000", "--step", "100",
    "--methods", "exhaustive,bcd,mm"]

# The seeds of the solver suite (test_solvers) and of the acceptance
# batch (test_acceptance), whose first eight draws are used here.
SOLVER_SUITE_SEED = 321
ACCEPTANCE_SEED = 20240801

MODES = (
    ("bcd", solve_bcd, SolverConfig()),
    ("bcd_relaxed", solve_bcd, SolverConfig(integer_mode=False)),
    ("mm", solve_mm, SolverConfig()),
    ("mm_relaxed", solve_mm, SolverConfig(integer_mode=False)),
    ("mm_exponent2", solve_mm, SolverConfig(surrogate_exponent=2)),
)
# Restarts from the oracle's (integral, full-budget) allocation: the
# entry check, the clamp of the start into its box and the integral
# start's split as a rounding candidate.
RESTART_MODES = (("bcd_restart", solve_bcd), ("mm_restart", solve_mm))
# The partial-budget oracle is O(M^2) in its split pairs.
PARTIAL_BUDGET_MAX_M = 200


def instances():
    """(name, scenario) pairs: the solver suite, both scenario files and
    eight acceptance draws."""
    out = [(f"solver_suite_{i}", sc) for i, sc in enumerate(
        random_feasible_suite(6, seed=SOLVER_SUITE_SEED, m_lo=40, m_hi=120))]
    out += [(path.stem, load_scenario(path))
            for path in sorted(SCENARIO_DIR.glob("*.json"))]
    out += [(f"acceptance_{i}", sc) for i, sc in enumerate(
        random_feasible_suite(8, seed=ACCEPTANCE_SEED))]
    return out


def _exact(x):
    """An int as itself, a float as its hex string."""
    return x if isinstance(x, int) else float(x).hex()


def report_record(report):
    """The exactly comparable fields of a SolverReport."""
    a = report.alloc
    return {
        "status": report.status,
        "alloc": None if a is None else [_exact(v) for v in
                                         (a.m1, a.m2, a.d_r1, a.d_r2)],
        "lfp_final": None if report.lfp_final is None
        else report.lfp_final.hex(),
        "trace": [[k, v.hex()] for k, v in report.trace],
        "evaluations": report.evaluations,
    }


def instance_records(sc):
    """{mode: record} of one instance."""
    records = {mode: report_record(solve(sc, config))
               for mode, solve, config in MODES}
    oracle = solve_exhaustive(sc)
    for mode, solve in RESTART_MODES:
        records[mode] = report_record(solve(sc, init=oracle.alloc))
    records["exhaustive"] = report_record(oracle)
    if sc.M <= PARTIAL_BUDGET_MAX_M:
        records["exhaustive_partial"] = report_record(
            solve_exhaustive(sc, SolverConfig(full_budget_only=False)))
    return records


def golden_records():
    """{instance: {mode: record}} for every instance and mode."""
    return {name: instance_records(sc) for name, sc in instances()}


def write_golden_sweep():
    """Run the golden sweep and copy its CSV, not the plot script the
    sweep writes beside it, to ``SWEEP_GOLDEN_PATH``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / SWEEP_GOLDEN_PATH.name
        if main(SWEEP_ARGV + ["--out", str(out)]) != 0:
            raise SystemExit("golden sweep failed")
        shutil.copyfile(out, SWEEP_GOLDEN_PATH)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_records(), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    write_golden_sweep()
    print(f"wrote {SWEEP_GOLDEN_PATH}")
