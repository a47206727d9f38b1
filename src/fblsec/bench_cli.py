"""Command-line front end and experiment harness.

Subcommands
-----------
solve     one scenario, one method, JSON report on stdout
converge  per-iteration LFP traces as CSV, with the enumeration optimum
          as a constant benchmark series
sweep     grid sweep over one scenario field, CSV plus a generated
          matplotlib plot script (log-scale LFP against the swept value)
validate  Monte-Carlo check of the analytic LFP at a given allocation

Exit codes are uniform across subcommands: 0 success, 1 input error,
2 infeasible.  CSV output is deterministic for fixed inputs (no
timestamps; the wall_time column is informational and excluded from
golden comparisons).  A sweep solves its grid points one after another
in the calling process and writes the rows in grid order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .fbl_core import DomainError
from .lfp_model import Allocation, link_errors, lfp_value
from .scenario import _MAX_INTEGER, Scenario, db_to_linear, load_scenario
from .solvers import (
    STATUS_INFEASIBLE,
    SolverConfig,
    solve_bcd,
    solve_exhaustive,
    solve_mm,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2

_METHODS = {
    "exhaustive": solve_exhaustive,
    "bcd": solve_bcd,
    "mm": solve_mm,
}

# Trials ``validate`` draws at a time: 8 MiB of uniforms whatever
# --trials is.  ``Generator.random`` fills in sequence, so the draws,
# and the output, do not depend on it.
_VALIDATE_CHUNK = 1 << 18

# The most grid points a sweep takes.  Its grid is built as one list
# before the first point is solved, and each point is up to three
# solves, so a larger grid would run for hours or exhaust memory first.
_MAX_SWEEP_POINTS = 10_000

SWEEP_FIELDS = ("gamma_ab_db", "gamma_ae_db", "gamma_ba_db", "gamma_be_db",
                "M", "tx_power")


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description: which field and the grid."""

    vary: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.vary not in SWEEP_FIELDS:
            raise DomainError(f"cannot sweep {self.vary!r}; "
                              f"choose one of {SWEEP_FIELDS}")
        for flag, v in (("--from", self.start), ("--to", self.stop),
                        ("--step", self.step)):
            if not math.isfinite(v):
                raise DomainError(f"sweep {flag} must be finite, got {v!r}")
        if self.vary == "M":
            # a fractional grid rounds to repeated and skipped budgets
            for flag, v in (("--from", self.start), ("--step", self.step)):
                if not float(v).is_integer():
                    raise DomainError(f"sweep --vary M needs an integer "
                                      f"{flag}, got {v!r}")
        if not self.start < self.stop:
            raise DomainError(f"sweep --from must be below --to, got "
                              f"--from {self.start!r} --to {self.stop!r}")
        if self.step <= 0:
            raise DomainError(f"sweep --step must be > 0, got {self.step!r}")
        # values()'s last index, floor(spans + 1e-9), is below the cap
        spans = (self.stop - self.start) / self.step
        if not spans + 1e-9 < _MAX_SWEEP_POINTS:  # inf included
            raise DomainError(
                f"sweep --step {self.step!r} is too small: the grid may "
                f"hold at most {_MAX_SWEEP_POINTS} points")

    def values(self):
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        vals = [self.start + i * self.step for i in range(n + 1)]
        if self.vary == "M":
            vals = [float(int(round(v))) for v in vals]
        return vals


RESULT_COLUMNS = ("vary", "value", "method", "status", "lfp", "m1", "m2",
                  "d_r1", "d_r2", "iterations", "evaluations", "wall_time",
                  "lfp_ibl")


def apply_sweep_value(scenario: Scenario, vary: str, value: float) -> Scenario:
    """Scenario with one swept field replaced.

    tx_power scales all four SNRs linearly relative to the scenario's
    baseline (the configured SNRs correspond to 1 W).
    """
    if vary == "M":
        m = int(round(value))
        if m < 2:
            raise DomainError(f"swept M must be >= 2, got {value}")
        return replace(scenario, M=m)
    if vary == "tx_power":
        if value <= 0:
            raise DomainError("tx_power must be > 0")
        return replace(scenario,
                       gamma_ab=scenario.gamma_ab * value,
                       gamma_ae=scenario.gamma_ae * value,
                       gamma_ba=scenario.gamma_ba * value,
                       gamma_be=scenario.gamma_be * value)
    link = vary[len("gamma_"):-len("_db")]
    return replace(scenario, **{f"gamma_{link}": float(db_to_linear(value))})


def ibl_reference_lfp(scenario: Scenario) -> float:
    """Infinite-blocklength reference.

    In the asymptotic regime decoding is a step function of the rate:
    below capacity errors vanish, above it they are certain.  A
    direction can then be made simultaneously reliable and secure
    exactly when the legitimate capacity exceeds the eavesdropper's, so
    the reference LFP is 0 when both directions have a positive capacity
    gap and 1 otherwise.  This is a reconstruction of the usual
    asymptotic comparison curve, not a finite-m quantity.
    """
    forward = scenario.gamma_ab > scenario.gamma_ae
    backward = scenario.gamma_ba > scenario.gamma_be
    return 0.0 if (forward and backward) else 1.0


def _parse_methods(text, allowed, note=""):
    """The comma-separated method names of a ``--methods`` flag: at least
    one, each in ``allowed`` and none twice."""
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if (not methods or not set(methods) <= set(allowed)
            or len(set(methods)) != len(methods)):
        raise DomainError(f"--methods takes distinct names from "
                          f"{','.join(allowed)}, got {text!r}{note}")
    return methods


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    # the oracle solves the integer problem whatever --relaxed says
    config = SolverConfig(integer_mode=not args.relaxed
                          or args.method == "exhaustive")
    report = _METHODS[args.method](scenario, config)
    json.dump(report.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_INFEASIBLE if report.status == STATUS_INFEASIBLE else EXIT_OK


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------

def cmd_converge(args) -> int:
    methods = _parse_methods(args.methods, ("bcd", "mm"),
                             "; the exhaustive series is always written")
    scenario = load_scenario(args.scenario)
    reports = {m: _METHODS[m](scenario) for m in methods}
    bench = _METHODS["exhaustive"](scenario)
    if bench.status == STATUS_INFEASIBLE or any(
            r.status == STATUS_INFEASIBLE for r in reports.values()):
        sys.stderr.write("error: scenario infeasible\n")
        return EXIT_INFEASIBLE
    max_k = max(r.iterations for r in reports.values())
    rows = [{"method": "exhaustive", "k": k, "lfp": bench.lfp_final}
            for k in range(max_k + 1)]
    rows += [{"method": m, "k": k, "lfp": v}
             for m in methods for k, v in reports[m].trace]
    _write_rows(args.out, rows, ("method", "k", "lfp"))
    return EXIT_OK


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _sweep_point(scenario, vary, value, methods):
    """The CSV rows of one grid point, one per method."""
    try:
        point = apply_sweep_value(scenario, vary, value)
    except DomainError as exc:
        # keep the cell CSV-safe: no separators from the message
        reason = str(exc).replace(",", ";").replace("\n", " ")
        return [{"vary": vary, "value": value, "method": method,
                 "status": f"error({reason})", "lfp_ibl": ""}
                for method in methods]
    rows = []
    for method in methods:
        report = _METHODS[method](point)
        row = {"vary": vary, "value": value, "method": method,
               "status": report.status,
               "lfp_ibl": ibl_reference_lfp(point)}
        if report.status != STATUS_INFEASIBLE:
            row.update({
                "lfp": report.lfp_final,
                "m1": report.alloc.m1, "m2": report.alloc.m2,
                "d_r1": report.alloc.d_r1, "d_r2": report.alloc.d_r2,
                "iterations": report.iterations,
                "evaluations": report.evaluations,
                "wall_time": report.wall_time,
            })
        rows.append(row)
    return rows


def _format_cell(v):
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(path, rows, columns):
    """The CSV of ``rows`` (dicts), one line per row in ``columns``'
    order, a missing cell empty."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Generated alongside {csv_name}; renders minimized LFP (log scale)
# against the swept value.  Requires matplotlib, which the generating
# package itself never imports.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
ibl = []
with open({csv_name!r}, newline="") as fh:
    for row in csv.DictReader(fh):
        if row["status"] != "infeasible" and row["lfp"]:
            series[row["method"]].append((float(row["value"]),
                                          float(row["lfp"])))
        if row["lfp_ibl"]:
            ibl.append((float(row["value"]), float(row["lfp_ibl"])))

fig, ax = plt.subplots()
for method, pts in series.items():
    pts.sort()
    ax.semilogy([p[0] for p in pts], [max(p[1], 1e-300) for p in pts],
                marker="o", label=method)
if ibl:
    seen = sorted(set(ibl))
    ax.semilogy([p[0] for p in seen], [max(p[1], 1e-300) for p in seen],
                linestyle="--", color="gray", label="ibl reference")
ax.set_xlabel({vary!r})
ax.set_ylabel("leakage-failure probability")
ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
"""


def _write_plot_script(csv_path, vary):
    base, _ = os.path.splitext(csv_path)
    script_path = base + "_plot.py"
    csv_name = os.path.basename(csv_path)
    png_name = os.path.basename(base) + ".png"
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv_name=csv_name, png_name=png_name,
                                       vary=vary))
    return script_path


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    methods = _parse_methods(args.methods, tuple(_METHODS))
    spec = SweepSpec(vary=args.vary, start=args.start, stop=args.stop,
                     step=args.step)
    rows = [row for value in spec.values()
            for row in _sweep_point(scenario, spec.vary, value, methods)]
    _write_rows(args.out, rows, RESULT_COLUMNS)
    _write_plot_script(args.out, spec.vary)
    return EXIT_OK


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.trials < 1000:
        raise DomainError("--trials must be >= 1000")
    if not 1 <= args.m1 <= scenario.M - 1:
        raise DomainError(f"--m1 must lie in [1, {scenario.M - 1}]")
    for flag, v in (("--dr1", args.dr1), ("--dr2", args.dr2)):
        if not 0 <= v <= _MAX_INTEGER:
            raise DomainError(f"{flag} must lie in [0, {_MAX_INTEGER}]")
    if args.seed < 0:
        raise DomainError("--seed must be >= 0")
    alloc = Allocation(m1=args.m1, m2=scenario.M - args.m1,
                       d_r1=args.dr1, d_r2=args.dr2)
    errors = link_errors(scenario, alloc)
    analytic = lfp_value(scenario, float(alloc.m1),
                         float(alloc.d_r1), float(alloc.d_r2))
    # One Bernoulli event per link and per trial: both legitimate
    # decodes must succeed and both eavesdrops must fail.
    rng = np.random.default_rng(args.seed)
    successes = 0
    for start in range(0, args.trials, _VALIDATE_CHUNK):
        u = rng.random((min(_VALIDATE_CHUNK, args.trials - start), 4))
        successes += int(np.count_nonzero((u[:, 0] < 1.0 - errors.eps_ab)
                                          & (u[:, 1] < errors.eps_ae)
                                          & (u[:, 2] < 1.0 - errors.eps_ba)
                                          & (u[:, 3] < errors.eps_be)))
    empirical = 1.0 - successes / args.trials
    band = 4.0 * math.sqrt(max(analytic * (1.0 - analytic), 0.0) / args.trials)
    std_error = math.sqrt(max(empirical * (1.0 - empirical), 0.0) / args.trials)
    out = {
        "analytic_lfp": analytic,
        "empirical_lfp": empirical,
        "trials": args.trials,
        "seed": args.seed,
        "std_error": std_error,
        "band_4sigma": band,
        "within_band": bool(abs(empirical - analytic) <= band),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the harness reserves 2
    for infeasible problems, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _build_parser():
    parser = _Parser(prog="fblsec",
                     description="Round-trip short-packet security: "
                                 "leakage-failure probability solvers "
                                 "and experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")

    p_solve = sub.add_parser("solve", help="solve one scenario")
    add_common(p_solve)
    p_solve.add_argument("--method", required=True, choices=sorted(_METHODS))
    p_solve.add_argument("--relaxed", action="store_true",
                         help="report the relaxed (real-valued) solution")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="write per-iteration traces")
    add_common(p_conv)
    p_conv.add_argument("--methods", default="bcd,mm",
                        help="comma-separated iterative methods (bcd, mm); "
                             "the exhaustive series is always written")
    p_conv.add_argument("--out", required=True, help="output CSV path")
    p_conv.set_defaults(func=cmd_converge)

    p_sweep = sub.add_parser("sweep", help="sweep one field over a grid")
    add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True, choices=SWEEP_FIELDS)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--methods", required=True,
                         help="comma-separated subset of exhaustive,bcd,mm")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate",
                           help="Monte-Carlo check of the analytic LFP")
    add_common(p_val)
    p_val.add_argument("--m1", type=int, required=True)
    p_val.add_argument("--dr1", type=int, required=True)
    p_val.add_argument("--dr2", type=int, required=True)
    p_val.add_argument("--trials", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: {args.scenario}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}\n")
        return EXIT_INPUT
    except (DomainError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except MemoryError as exc:
        # a budget M up to 2**43 is valid input, but its oracle tables
        # may not fit in the memory this process may take; numpy names
        # the allocation, Python's own allocator gives no message
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
