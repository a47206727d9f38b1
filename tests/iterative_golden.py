"""Golden BCD/MM reports: the instances, the solver modes, the recorded
fields, and the writer of ``tests/data/iterative_golden.json``.

The golden file pins every iterative solve bit for bit (status,
allocation, ``lfp_final``, trace and evaluation count), relaxed modes
included, so a change to the scalar evaluation path that moves any last
bit shows up.  Regenerate it only for an intended change of results:

    PYTHONPATH=src python3 tests/iterative_golden.py
"""

import json
from pathlib import Path

from fblsec import SolverConfig, load_scenario, solve_bcd, solve_mm

from conftest import SCENARIO_DIR, random_feasible_suite

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "iterative_golden.json"

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


def golden_records():
    """{instance: {mode: record}} for every instance and mode."""
    return {name: {mode: report_record(solve(sc, config))
                   for mode, solve, config in MODES}
            for name, sc in instances()}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_records(), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
