"""The golden files and their writer.

``tests/data/iterative_golden.json`` pins every solve bit for bit
(status, allocation, ``lfp_final``, trace and evaluation count): BCD
and MM in every mode, relaxed included, and the exhaustive oracle at
full budget and, up to ``PARTIAL_BUDGET_MAX_M``, at partial budget.
A change to the evaluation path or the solver scaffolding that moves
any last bit shows up.  ``tests/data/sweep_default_M200-1000.csv`` is
the CLI sweep of ``SWEEP_ARGV`` over the default operating point,
compared on every column but ``wall_time``; the writer keeps the
committed CSV when only that column differs.
``tests/data/converge_<scenario>.csv`` is the CLI ``converge`` output of
BCD and MM on each ``scenarios/*.json`` file (``converge_argv``),
compared byte for byte.  Regenerate them all only for an intended
change of results:

    PYTHONPATH=src python3 tests/iterative_golden.py
"""

import csv
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

from conftest import ACCEPTANCE_BATCH, SCENARIO_DIR, SOLVER_SUITE

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "iterative_golden.json"
SWEEP_GOLDEN_PATH = DATA_DIR / "sweep_default_M200-1000.csv"
# The golden sweep's arguments, without ``--out``.
SWEEP_ARGV = [
    "sweep", "--scenario", str(SCENARIO_DIR / "roundtrip_default.json"),
    "--vary", "M", "--from", "200", "--to", "1000", "--step", "100",
    "--methods", "exhaustive,bcd,mm"]


def converge_argv(path):
    """The golden ``converge`` run of the scenario file ``path``, without
    ``--out``."""
    return ["converge", "--scenario", str(path), "--methods", "bcd,mm"]


def converge_golden_paths():
    """(scenario file, golden converge CSV) pairs, one per scenario
    file."""
    return [(path, DATA_DIR / f"converge_{path.stem}.csv")
            for path in sorted(SCENARIO_DIR.glob("*.json"))]


MODES = (
    ("bcd", solve_bcd, SolverConfig()),
    ("bcd_relaxed", solve_bcd, SolverConfig(integer_mode=False)),
    ("mm", solve_mm, SolverConfig()),
    ("mm_relaxed", solve_mm, SolverConfig(integer_mode=False)),
)
# The instances that get a partial-budget oracle record: every one but
# roundtrip_default (M = 1000).  The cap fixes which records the golden
# file holds, not a cost: the partial path is O(M), two tables over the
# blocklengths 1 ... M - 1 and a prefix maximum.
PARTIAL_BUDGET_MAX_M = 200


def instances():
    """(name, scenario) pairs: the solver suite, both scenario files and
    the first eight draws of the acceptance batch."""
    out = [(f"solver_suite_{i}", sc) for i, sc in enumerate(SOLVER_SUITE)]
    out += [(path.stem, load_scenario(path))
            for path in sorted(SCENARIO_DIR.glob("*.json"))]
    out += [(f"acceptance_{i}", sc)
            for i, sc in enumerate(ACCEPTANCE_BATCH[:8])]
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
    records["exhaustive"] = report_record(solve_exhaustive(sc))
    if sc.M <= PARTIAL_BUDGET_MAX_M:
        records["exhaustive_partial"] = report_record(
            solve_exhaustive(sc, SolverConfig(full_budget_only=False)))
    return records


def golden_records():
    """{instance: {mode: record}} for every instance and mode."""
    return {name: instance_records(sc) for name, sc in instances()}


def strip_wall_time(path):
    """CSV text with the wall_time column blanked (it is the one
    legitimately run-dependent field)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = header.index("wall_time")
        rows.append(header)
        for row in reader:
            row[idx] = ""
            rows.append(row)
    return "\n".join(",".join(r) for r in rows)


def write_golden_sweep():
    """Run the golden sweep and copy its CSV, not the plot script the
    sweep writes beside it, to ``SWEEP_GOLDEN_PATH``, unless the
    committed CSV matches it on every column but ``wall_time``.
    Returns whether the file was written."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / SWEEP_GOLDEN_PATH.name
        if main(SWEEP_ARGV + ["--out", str(out)]) != 0:
            raise SystemExit("golden sweep failed")
        if (SWEEP_GOLDEN_PATH.exists() and strip_wall_time(out)
                == strip_wall_time(SWEEP_GOLDEN_PATH)):
            return False
        shutil.copyfile(out, SWEEP_GOLDEN_PATH)
        return True


def write_golden_converge():
    """Run the golden ``converge`` of every scenario file into its
    golden CSV."""
    for path, out in converge_golden_paths():
        if main(converge_argv(path) + ["--out", str(out)]) != 0:
            raise SystemExit(f"golden converge of {path.name} failed")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_records(), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    if write_golden_sweep():
        print(f"wrote {SWEEP_GOLDEN_PATH}")
    else:
        print(f"kept {SWEEP_GOLDEN_PATH}: only wall_time differs")
    write_golden_converge()
    print(f"wrote {DATA_DIR}/converge_*.csv")
