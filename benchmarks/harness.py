"""The closed loop, the ledger of checked outcomes, the metrics and the
run record of the fblsec benchmark.  ``run.py`` is the entry point."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import fblsec

import hostspeed
import metrics
from tracing import Tracer, enclosing, self_times
from workloads import (GAP_MISS, POOL_THREADS, POOL_WORKERS, WORKLOADS, IterativeSuite,
                       Outcome, SweepCli)

SETUP_REPEATS = 3
SETUP_KERNEL_RUNS = 10   # host-speed kernel runs before each set-up
SWEEPS = 3          # single-worker and pool sweeps each, in the traced iterative_suite run
OUT_DIR = "out"     # under the benchmark's directory; ignored by git


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass
class Phase:
    """The calls of one measured phase, in call order."""

    cases: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # output, or the exception text
    durations_ns: list = field(default_factory=list)
    kernel_ns: list = field(default_factory=list)   # host-speed kernel, one per call
    elapsed_s: float = 0.0

    @property
    def calls_per_s(self):
        return len(self.durations_ns) / (self.elapsed_s - sum(self.kernel_ns) / 1e9)

    @property
    def call_ids(self):
        return set(range(len(self.cases)))


def run_phase(workload, seconds=0.0, *, tracer=None, cycles=None, host_speed=False,
              **call_kwargs):
    """Drive ``workload.cases`` as a closed loop in whole cycles.

    With ``cycles`` the phase runs exactly that many; otherwise it stops
    at the cycle boundary nearest to ``seconds``, so every case is
    called equally often and calls_per_s does not depend on where in a
    cycle the time ran out.  With a tracer each call's spans carry its
    own call id; with ``host_speed`` the host-speed kernel runs before
    each call, outside its time.
    """
    phase = Phase()
    clock = time.perf_counter_ns
    start = time.perf_counter()
    done = 0
    while True:
        for case in workload.cases:
            if host_speed:
                phase.kernel_ns += hostspeed.time_kernel()
            ctx = (tracer.call(len(phase.cases)) if tracer
                   else contextlib.nullcontext())
            t0 = clock()
            try:
                with ctx:
                    out = workload.call(case, **call_kwargs)
            except Exception as exc:   # a call that raises is a failed call
                out = f"raised {type(exc).__name__}: {exc}"
            phase.durations_ns.append(clock() - t0)
            phase.cases.append(case)
            phase.outputs.append(out)
        done += 1
        phase.elapsed_s = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif phase.elapsed_s * (1.0 + 0.5 / done) >= seconds:
            break
    return phase


class Ledger:
    """Checked outcomes of every call and the first result rows of each
    case, set-up rivals included; a later call of a case must reproduce
    them."""

    def __init__(self):
        self.outcomes = []
        self.first_rows = {}
        self.counts = {}
        self.failures = []

    def check(self, workload, phase):
        """Check every output of a phase; returns the phase's outcomes."""
        outcomes = []
        for case, out in zip(phase.cases, phase.outputs):
            outcome = (Outcome([out], []) if isinstance(out, str)
                       else workload.check(case, out))
            problems = list(outcome.problems)
            rows = [{k: v for k, v in row.items() if k != "wall_time"}
                    for row in outcome.rows + outcome.rivals]
            first = self.first_rows.setdefault(case.name, rows)
            if not problems and rows != first:
                problems.append("result differs from the first call of this case")
            self.counts[case.name] = self.counts.get(case.name, 0) + 1
            if problems:
                self.failures.append({"case": case.name, "problems": problems})
            self.outcomes.append(problems)
            outcomes.append(outcome)
        return outcomes

    def gaps(self):
        """Relative gaps of the distinct bcd/mm results to the oracle."""
        return [metrics.rel_gap(row["lfp"], row["ref"])
                for rows in self.first_rows.values() for row in rows
                if row["method"] in ("bcd", "mm") and row["lfp"] is not None]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def peak_rss_mb():
    """High-water RSS of this process plus POOL_WORKERS times the
    largest child's: the set-up pool and the sweep pool both run that
    many workers at once."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + POOL_WORKERS * child) / 1024.0


def end_to_end_metrics(setup_s, setup_kernel_ns, phase):
    """Raw end-to-end figures, and the same at the reference host speed
    (see hostspeed.py): set-up by the kernel runs made during set-up,
    calls by those of the timed phase."""
    p50_ms = statistics.median(phase.durations_ns) / 1e6
    raw = {
        "setup_s": (setup_s, "s"),
        "call_ms.p50": (p50_ms, "ms"),
        "calls_per_s": (phase.calls_per_s, "1/s"),
    }
    call_scale = hostspeed.scale(phase.kernel_ns)
    scaled = {
        "setup_s": (setup_s * hostspeed.scale(setup_kernel_ns), "s"),
        "call_ms.p50": (p50_ms * call_scale, "ms"),
        "calls_per_s": (phase.calls_per_s / call_scale, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return raw, scaled


def quality_metrics(phase, ledger):
    """Tail latency of the untraced phase and accuracy over the checked
    calls so far.  None marks a metric that does not apply."""
    ms = [d / 1e6 for d in phase.durations_ns]
    gaps = ledger.gaps()
    return {
        "call_ms.p90": (metrics.tail_percentile(ms, 0.9), "ms"),
        "call_ms.p90.samples": (len(ms), "count"),
        # an infinite gap (LFP underflow in the oracle only) counts as a
        # miss; the maximum is taken over the finite ones
        "lfp_rel_gap.max": (max((g for g in gaps if math.isfinite(g)), default=0.0),
                            "ratio"),
        "gap_miss_frac": (sum(g > GAP_MISS for g in gaps) / len(gaps), "ratio"),
    }


def span_metrics(spans, phase, outcomes):
    """Per-layer metrics from the spans of one traced phase, per call of
    the phase (library functions) or per solve (solvers); ``outcomes``
    are that phase's checked outputs.  None marks a metric that does not
    apply to the workload."""
    calls = phase.call_ids
    n_calls = len(calls)
    rows = [row for o in outcomes for row in o.rows]
    selfs = self_times(spans)
    agg = {}
    for i, (name, start, end, _, call_id, elements) in enumerate(spans):
        if call_id in calls:
            a = agg.setdefault(name, [0, 0, 0, 0])
            a[0] += 1
            a[1] += elements
            a[2] += end - start
            a[3] += selfs[i]

    def total(name, k):
        return agg.get(name, [0, 0, 0, 0])[k]

    def ratio(num, den):
        return num / den if den else None

    out = {}
    for name, fields in (
            ("fbl_core.rate_margin", ("calls", "elements", "self_ms")),
            ("fbl_core.q_inv", ("calls",)),
            ("lfp_model.log_round_trip_success", ("calls", "us_per_call", "self_ms")),
            ("lfp_model.lfp_value", ("calls", "self_ms")),
            ("lfp_model.log_direction_success", ("elements", "self_ms")),
            ("lfp_model.redundancy_bounds", ("calls", "us_per_call"))):
        values = {"calls": (total(name, 0) / n_calls, "count"),
                  "elements": (total(name, 1) / n_calls, "count"),
                  "self_ms": (total(name, 3) / 1e6 / n_calls, "ms"),
                  "us_per_call": (ratio(total(name, 2) / 1e3, total(name, 0)), "us")}
        for f in fields:
            out[f"{name}.{f}"] = values[f]
    for method in ("bcd", "mm", "exhaustive"):
        name = f"solvers.solve_{method}"
        mine = [r for r in rows if r["method"] == method]
        out[f"{name}.wall_ms"] = (ratio(total(name, 2) / 1e6, total(name, 0)), "ms")
        out[f"{name}.self_ms"] = (ratio(total(name, 3) / 1e6, total(name, 0)), "ms")
        for key in ("evaluations", "outer_iters"):
            out[f"{name}.{key}"] = (ratio(sum(r[key] for r in mine), len(mine)), "count")
    iterative = total("solvers.solve_bcd", 0) + total("solvers.solve_mm", 0)
    out["solvers.bcd_scalar_min.calls"] = (
        ratio(total("solvers.bcd_scalar_min", 0), iterative), "count")
    owner = enclosing(spans, "solvers.solve_")
    in_mm = sum(1 for i, s in enumerate(spans)
                if s[0] == "solvers.bcd_scalar_min" and s[4] in calls
                and owner[i] >= 0 and spans[owner[i]][0] == "solvers.solve_mm")
    mm_iters = sum(r["outer_iters"] for r in rows if r["method"] == "mm")
    out["solvers.mm.fallback_per_iter"] = (ratio(in_mm - mm_iters, mm_iters), "ratio")
    exh = [r for r in rows if r["method"] == "exhaustive"]
    out["solvers.solve_exhaustive.elements_per_split"] = (
        ratio(sum(r["evaluations"] for r in exh), sum(r["M"] - 1 for r in exh)), "count")
    return out


def sweep_metrics(workdir, ledger):
    """The bench_cli layer: SWEEPS untraced sweeps of the fixed figure
    with one worker, then SWEEPS over the worker pool; medians over the
    sweeps of each kind."""
    def busy_ms(outcome):
        return 1e3 * sum(row["wall_time"] for row in outcome.rows)

    sweep = SweepCli(workdir)
    one_worker = run_phase(sweep, cycles=SWEEPS)
    pool = run_phase(sweep, cycles=SWEEPS, threads=POOL_THREADS)
    one_outcomes = ledger.check(sweep, one_worker)
    pool_outcomes = ledger.check(sweep, pool)
    one = [d / 1e6 for d in one_worker.durations_ns]
    two = [d / 1e6 for d in pool.durations_ns]
    one_ms = statistics.median(one)
    workers = int(POOL_THREADS)
    return {
        "bench_cli.sweep_1worker_ms": (one_ms, "ms"),
        "bench_cli.parallel_speedup": (one_ms / statistics.median(two), "ratio"),
        "bench_cli.pool_efficiency": (statistics.median(
            [busy_ms(o) / (ms * workers) for o, ms in zip(pool_outcomes, two)]), "ratio"),
        "bench_cli.serial_overhead_ms": (statistics.median(
            [ms - busy_ms(o) for o, ms in zip(one_outcomes, one)]), "ms"),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def git_commit(root):
    """HEAD commit of the git work tree at ``root``, read from its
    ``.git`` directory; "unknown" when there is none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "FBLSEC_THREADS": os.environ.get("FBLSEC_THREADS"),
        "pool_sweep_FBLSEC_THREADS": POOL_THREADS,
    }


def traced_metrics(workload, tracer, ledger, untraced, workdir):
    """Per-layer metrics: one traced cycle after the untraced phase and,
    after iterative_suite, whose solvers the sweep runs, the bench_cli
    layer's sweeps."""
    with tracer.instrument(fblsec):
        traced = run_phase(workload, tracer=tracer, cycles=1)
    results = span_metrics(tracer.spans, traced, ledger.check(workload, traced))
    results["trace.overhead_frac"] = (untraced.calls_per_s / traced.calls_per_s - 1.0,
                                      "ratio")
    # the gaps are the workload's own; the sweep's rows come after
    results.update(quality_metrics(untraced, ledger))
    if isinstance(workload, IterativeSuite):
        results.update(sweep_metrics(workdir, ledger))
    else:
        results.update({k: (None, "ms" if k.endswith("_ms") else "ratio") for k in (
            "bench_cli.sweep_1worker_ms", "bench_cli.parallel_speedup",
            "bench_cli.pool_efficiency", "bench_cli.serial_overhead_ms")})
    results["fail_frac"] = (metrics.fail_frac(ledger.outcomes), "ratio")
    return results


def run(workload_name, seed, seconds, trace, import_s, bench_dir):
    """Set up, measure and check one workload; print the metrics, the
    last line being the JSON result, and write the run record."""
    out_dir = bench_dir / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload_name}-seed{seed}-trace{trace}"
    workdir = out_dir / tag

    # Only the untraced run reports setup_s, so only it sets up repeatedly.
    setup_times, build_times, setup_kernel_ns = [], [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        setup_kernel_ns += hostspeed.time_kernel(SETUP_KERNEL_RUNS)
        t = time.perf_counter()
        workload = WORKLOADS[workload_name](seed, workdir)
        setup_times.append(time.perf_counter() - t)
        build_times.append(workload.build_s)

    ledger = Ledger()
    untraced = run_phase(workload, seconds, host_speed=True)
    ledger.check(workload, untraced)
    raw = None
    if not trace:
        raw, results = end_to_end_metrics(import_s + statistics.median(setup_times),
                                          setup_kernel_ns, untraced)
    else:
        tracer = Tracer()
        results = traced_metrics(workload, tracer, ledger, untraced, workdir)
        results["scenario.build_ms"] = (1e3 * statistics.median(build_times), "ms")
        tracer.write(out_dir / f"{tag}-spans.jsonl")

    attempted = len(ledger.outcomes)
    failed = sum(1 for p in ledger.outcomes if p)
    not_applicable = sorted(k for k, (v, _) in results.items() if v is None)
    metric_out = {k: {"value": float(v) if v is not None else 0.0, "unit": unit}
                  for k, (v, unit) in results.items()}
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(bench_dir.parent.resolve()),
        "setup": {"import_s": import_s, "repeats_s": setup_times,
                  "build_s": build_times},
        "calls": {"attempted": attempted, "failed": failed, "per_case": ledger.counts},
        "cases": ledger.first_rows,
        "failures": ledger.failures[:100],
        "metrics": metric_out,
        "not_applicable": not_applicable,
        "host_speed": {"reference_ms": hostspeed.REFERENCE_MS,
                       "setup_kernel_ms": statistics.median(setup_kernel_ns) / 1e6,
                       "phase_kernel_ms": statistics.median(untraced.kernel_ns) / 1e6,
                       "raw_metrics": raw and {k: v for k, (v, _) in raw.items()}},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for k, m in metric_out.items():
        note = "  (does not apply)" if k in not_applicable else ""
        print(f"{k:48s} {m['value']:.6g} {m['unit']}{note}")
    for k, (v, unit) in (raw or {}).items():
        print(f"{'raw ' + k:48s} {v:.6g} {unit}")
    for failure in ledger.failures[:10]:
        print(f"FAILED {failure['case']}: {'; '.join(failure['problems'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metric_out}))
    return 0
