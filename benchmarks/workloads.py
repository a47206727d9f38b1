"""Workloads of the fblsec benchmark: seeded instances, the call cycle
and the output checks.

Each workload is built by its constructor, which is the set-up: it
generates the seeded instances, computes the references every output is
checked against and warms up.  ``cases`` is the cycle the closed loop in
``harness.py`` drives, ``call`` makes one call into the library's
public API and ``check`` turns its output into an ``Outcome``.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

import fblsec
from fblsec import bench_cli, lfp_model, solvers

import metrics

# Acceptance distribution of the test suite: legitimate SNRs 0..10 dB,
# eavesdropper SNRs -10..0 dB, message size 4, thresholds 1/2.
D_M = 4
THRESHOLD = 0.5
SUITE_M = (40, 1000)          # log-uniform blocklength budget range
SUITE_SIZE = 32               # instances per run, a power of two (Sobol)
LADDER_M = (250, 1000, 4000)
LADDER_DRAWS = 4              # SNR draws, each solved at every rung
# The sweep regenerates one figure at the default operating point of
# scenarios/roundtrip_default.json; see SweepCli for why it is fixed.
FIGURE_POINT = {
    "gamma_ab_db": 4.771212547196624, "gamma_ae_db": 0.0,
    "gamma_ba_db": 4.771212547196624, "gamma_be_db": 0.0,
    "d_m1": 20, "d_m2": 20, "M": 1000,
    "eps_ab_max": 0.5, "eps_ba_max": 0.5, "eps_e_max": 0.5,
}
SWEEP_GRID = tuple(range(200, 1001, 100))
SWEEP_METHODS = ("bcd", "mm")
POOL_WORKERS = 2              # set-up pool and sweep pool alike; nproc is 2
POOL_THREADS = str(POOL_WORKERS)  # FBLSEC_THREADS of a sweep over the pool

GAP_MISS = 1e-9               # relative gap above which a bcd/mm result misses
BEAT_TOL = 1e-12              # relative undercut of an optimum that is a failure
AGREE_TOL = 1e-12             # relative lfp_final vs lfp() disagreement
BOX_SLACK = 1e-9              # same slack the solvers use on box edges


class SetupError(RuntimeError):
    """A reference computed during set-up failed its own checks."""


# ----------------------------------------------------------------------
# seeded instances
# ----------------------------------------------------------------------

def sobol_points(seed, dims):
    """Endless scrambled Sobol sequence in [0, 1)^dims.

    Every point is uniform, so each instance follows the acceptance
    distribution; the first 2^k points also cover each axis evenly, so a
    32-instance set does not swing between mostly-easy and mostly-hard
    draws from one seed to the next.
    """
    sampler = qmc.Sobol(d=dims, scramble=True, rng=np.random.default_rng(seed))
    while True:
        yield from sampler.random(SUITE_SIZE)


def _from_db(db):
    return 10.0 ** (db / 10.0)


def acceptance_scenario(u, M):
    """Scenario from four uniforms (SNRs of ab, ae, ba, be) and a budget:
    legitimate links 0..10 dB, eavesdroppers -10..0 dB."""
    return fblsec.Scenario(
        gamma_ab=_from_db(u[0] * 10.0), gamma_ae=_from_db(u[1] * 10.0 - 10.0),
        gamma_ba=_from_db(u[2] * 10.0), gamma_be=_from_db(u[3] * 10.0 - 10.0),
        d_m1=D_M, d_m2=D_M, M=M,
        eps_ab_max=THRESHOLD, eps_ba_max=THRESHOLD, eps_e_max=THRESHOLD)


def integer_feasible(scenario):
    """True when some split admits integer redundancy in both boxes
    (scanned from the middle split outwards, where it usually is)."""
    M = scenario.M
    for m1 in sorted(range(1, M), key=lambda m: abs(2 * m - M)):
        box = lfp_model.redundancy_bounds(scenario, float(m1), float(M - m1))
        if (box.feasible
                and math.floor(box.d_r1_max + BOX_SLACK) >= math.ceil(box.d_r1_min - BOX_SLACK)
                and math.floor(box.d_r2_max + BOX_SLACK) >= math.ceil(box.d_r2_min - BOX_SLACK)):
            return True
    return False


def suite_instances(seed):
    """SUITE_SIZE feasible instances, M log-uniform in SUITE_M;
    infeasible draws are replaced by the next point of the sequence."""
    lo, hi = SUITE_M
    out = []
    for u in sobol_points(seed, 5):
        M = int(round(math.exp(math.log(lo) + u[0] * math.log(hi / lo))))
        scenario = acceptance_scenario(u[1:], M)
        if integer_feasible(scenario):
            out.append(scenario)
            if len(out) == SUITE_SIZE:
                return out


def ladder_instances(seed):
    """LADDER_DRAWS SNR draws, each at every budget of LADDER_M."""
    out = []
    for u in sobol_points(seed, 4):
        rungs = [acceptance_scenario(u, M) for M in LADDER_M]
        if all(integer_feasible(s) for s in rungs):
            out.extend(rungs)
            if len(out) == LADDER_DRAWS * len(LADDER_M):
                return out


def solve_all(jobs):
    """Run (function, scenario) jobs on a pool of POOL_WORKERS processes;
    results in job order.

    The workers are forked, as the CLI's own sweep pool is: the process
    runs no thread of its own here, and a spawned pool would leave
    multiprocessing's resource-tracker process running until exit.
    """
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(POOL_WORKERS, mp_context=ctx) as pool:
        futures = [pool.submit(fn, scenario) for fn, scenario in jobs]
        return [f.result() for f in futures]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_result(scenario, status, alloc, value):
    """Problems with one solver result; empty when it passes.

    ``alloc`` is (m1, m2, d_r1, d_r2).  A result must be feasible,
    finite, integral, use the full budget, sit inside the threshold box
    and agree with the public ``lfp()`` of its allocation.
    """
    if status == solvers.STATUS_INFEASIBLE or alloc is None:
        return ["unexpected infeasible"]
    problems = []
    if value is None or not math.isfinite(value):
        problems.append(f"non-finite LFP {value!r}")
    m1, m2, d_r1, d_r2 = alloc
    if (not all(float(x).is_integer() for x in alloc)
            or m1 < 1 or m2 < 1 or m1 + m2 != scenario.M):
        return problems + [f"allocation {alloc} outside the budget {scenario.M}"]
    box = lfp_model.redundancy_bounds(scenario, float(m1), float(m2))
    if not (box.feasible
            and box.d_r1_min - BOX_SLACK <= d_r1 <= box.d_r1_max + BOX_SLACK
            and box.d_r2_min - BOX_SLACK <= d_r2 <= box.d_r2_max + BOX_SLACK):
        return problems + [f"allocation {alloc} outside the threshold box"]
    if problems:
        return problems
    public = lfp_model.lfp(scenario, lfp_model.Allocation(m1, m2, d_r1, d_r2))
    if not math.isclose(public, value, rel_tol=AGREE_TOL, abs_tol=0.0):
        problems.append(f"lfp_final {value!r} disagrees with lfp() {public!r}")
    return problems


def _alloc(report):
    a = report.alloc
    return None if a is None else (a.m1, a.m2, a.d_r1, a.d_r2)


def check_report(scenario, report):
    """``check_result`` of a SolverReport."""
    return check_result(scenario, report.status, _alloc(report), report.lfp_final)


def report_row(method, scenario, report):
    """The recorded result of one solve."""
    return {"method": method, "M": scenario.M, "status": report.status,
            "alloc": _alloc(report), "lfp": report.lfp_final,
            "evaluations": report.evaluations,
            "outer_iters": report.to_dict()["iterations"]}


@dataclass
class Case:
    """One entry of a workload's call cycle."""

    name: str
    method: str
    scenario: object = None
    reference: float | None = None   # oracle LFP a bcd/mm result may not beat
    rivals: dict = field(default_factory=dict)  # bcd/mm rows the oracle may not lose to


@dataclass
class Outcome:
    """The checked output of one call."""

    problems: list
    rows: list                  # results of the call; bcd/mm rows carry "ref"
    rivals: list = field(default_factory=list)  # set-up results it was checked against


def _require(problems, what):
    if problems:
        raise SetupError(f"{what}: {'; '.join(problems)}")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class IterativeSuite:
    """Alternating solve_bcd / solve_mm over seeded acceptance instances,
    each checked against its exhaustive optimum from set-up."""

    name = "iterative_suite"

    def __init__(self, seed, workdir):
        t = time.perf_counter()
        instances = suite_instances(seed)
        self.build_s = time.perf_counter() - t
        oracle = solve_all([(solvers.solve_exhaustive, s) for s in instances])
        self.cases = []
        for i, (scenario, ref) in enumerate(zip(instances, oracle)):
            _require(check_report(scenario, ref), f"oracle of instance {i}")
            for method in ("bcd", "mm"):
                self.cases.append(Case(f"i{i:02d}.{method}", method, scenario,
                                       reference=ref.lfp_final))
        for case in self.cases[:2]:
            self.call(case)

    def call(self, case):
        return getattr(solvers, f"solve_{case.method}")(case.scenario)

    def check(self, case, report):
        row = dict(report_row(case.method, case.scenario, report), ref=case.reference)
        problems = check_report(case.scenario, report)
        if not problems and metrics.beats(report.lfp_final, case.reference, BEAT_TOL):
            problems.append(f"{case.method} LFP {report.lfp_final!r} beats the "
                            f"oracle {case.reference!r}")
        return Outcome(problems, [row])


class OracleLadder:
    """solve_exhaustive on seeded acceptance SNRs at M = 250, 1000, 4000;
    each optimum is checked against bcd and mm results from set-up."""

    name = "oracle_ladder"

    def __init__(self, seed, workdir):
        t = time.perf_counter()
        instances = ladder_instances(seed)
        self.build_s = time.perf_counter() - t
        jobs = [(fn, s) for s in instances for fn in (solvers.solve_bcd, solvers.solve_mm)]
        reports = iter(solve_all(jobs))
        self.cases = []
        for j, scenario in enumerate(instances):
            rivals = {}
            for method in ("bcd", "mm"):
                report = next(reports)
                _require(check_report(scenario, report), f"{method} on ladder instance {j}")
                rivals[method] = report_row(method, scenario, report)
            self.cases.append(Case(f"d{j // len(LADDER_M)}.M{scenario.M}", "exhaustive",
                                   scenario, rivals=rivals))
        self.call(self.cases[0])

    def call(self, case):
        return solvers.solve_exhaustive(case.scenario)

    def check(self, case, report):
        problems = check_report(case.scenario, report)
        rivals = []
        for method, rival in case.rivals.items():
            rivals.append(dict(rival, ref=report.lfp_final))
            if not problems and metrics.beats(rival["lfp"], report.lfp_final, BEAT_TOL):
                problems.append(f"oracle LFP {report.lfp_final!r} beaten by "
                                f"{method} {rival['lfp']!r}")
        return Outcome(problems, [report_row("exhaustive", case.scenario, report)], rivals)


class SweepCli:
    """The `sweep` subcommand run in-process, driven by the traced
    iterative_suite run for the bench_cli layer; it is not a timed
    workload of its own.  Timed, a sweep is the same bcd/mm solves as
    iterative_suite (the CLI adds a few ms to a 2 s sweep), and sweeps
    over two worker processes on a two-core shared host spread run to
    run past any useful bound.

    The sweep regenerates one figure, so its scenario is the fixed
    default operating point and the seed does not change it: across
    seeded acceptance SNRs the work of the same sweep varies by a factor
    of three (solves stop after one to six cycles), which would swamp
    any change to the code.  Every row is checked against the exhaustive
    optimum at its budget, computed in set-up.
    """

    def __init__(self, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        scenario_path = workdir / "figure_scenario.json"
        scenario_path.write_text(json.dumps(FIGURE_POINT, indent=2) + "\n")
        base = fblsec.scenario_from_dict(FIGURE_POINT)
        self.points = {M: bench_cli.apply_sweep_value(base, "M", M) for M in SWEEP_GRID}
        self.csv_path = workdir / "figure_sweep.csv"
        self.argv = ["sweep", "--scenario", str(scenario_path), "--vary", "M",
                     "--from", str(SWEEP_GRID[0]), "--to", str(SWEEP_GRID[-1]),
                     "--step", str(SWEEP_GRID[1] - SWEEP_GRID[0]),
                     "--methods", ",".join(SWEEP_METHODS), "--out", str(self.csv_path)]
        largest_first = sorted(SWEEP_GRID, reverse=True)
        oracle = dict(zip(largest_first, solve_all(
            [(solvers.solve_exhaustive, self.points[M]) for M in largest_first])))
        for M in SWEEP_GRID:
            _require(check_report(self.points[M], oracle[M]), f"oracle at M={M}")
        self.references = {M: oracle[M].lfp_final for M in SWEEP_GRID}
        self.cases = [Case("sweep", "sweep")]
        self.first_csv = None
        outcome = self.check(self.cases[0], self.call(self.cases[0]))
        _require(outcome.problems, "warm-up sweep")

    def call(self, case, threads="1"):
        saved = os.environ.get("FBLSEC_THREADS")
        os.environ["FBLSEC_THREADS"] = threads
        try:
            code = bench_cli.main(self.argv)
        finally:
            if saved is None:
                del os.environ["FBLSEC_THREADS"]
            else:
                os.environ["FBLSEC_THREADS"] = saved
        return code, self.csv_path.read_text(encoding="utf-8")

    def check(self, case, output):
        code, text = output
        if code != 0:
            return Outcome([f"sweep exited with {code}"], [])
        if self.first_csv is None:
            self.first_csv = text
        problems = []
        if not metrics.same_csv_ignoring_time(text, self.first_csv):
            problems.append("sweep CSV differs from the first one outside wall_time")
        rows = []
        for rec in csv.DictReader(io.StringIO(text)):
            M = int(float(rec["value"]))
            scenario = self.points.get(M)
            if scenario is None or rec["method"] not in SWEEP_METHODS:
                problems.append(f"unexpected row {rec['method']} at {rec['value']}")
                continue
            ref = self.references[M]
            alloc = value = None
            if rec["status"] in (solvers.STATUS_CONVERGED, solvers.STATUS_MAX_ITERS):
                alloc = tuple(float(rec[k]) for k in ("m1", "m2", "d_r1", "d_r2"))
                value = float(rec["lfp"])
                row_problems = check_result(scenario, rec["status"], alloc, value)
            else:
                row_problems = [f"unexpected status {rec['status']}"]
            if not row_problems and metrics.beats(value, ref, BEAT_TOL):
                row_problems.append(f"LFP {value!r} beats the oracle {ref!r}")
            problems += [f"{rec['method']} at M={M}: {p}" for p in row_problems]
            rows.append({"method": rec["method"], "M": M, "status": rec["status"],
                         "alloc": alloc, "lfp": value, "ref": ref,
                         "evaluations": int(rec["evaluations"] or 0),
                         "outer_iters": int(rec["iterations"] or 0),
                         "wall_time": float(rec["wall_time"] or 0.0)})
        if len(rows) != len(SWEEP_GRID) * len(SWEEP_METHODS):
            problems.append(f"sweep wrote {len(rows)} rows")
        return Outcome(problems, rows)


WORKLOADS = {w.name: w for w in (IterativeSuite, OracleLadder)}
