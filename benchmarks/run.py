"""fblsec benchmark: one workload, one run.

    python3 benchmarks/run.py --workload iterative_suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its
``src/`` directory, never from an installed copy, and the run fails
(exit 2) when that directory is missing.

Workloads (closed loop, one client, whole cycles):

* ``iterative_suite`` -- solve_bcd and solve_mm alternating over 32
  seeded instances of the acceptance distribution (legitimate SNR
  0..10 dB, eavesdropper SNR -10..0 dB, d_m = 4, thresholds 1/2, M
  log-uniform in [40, 1000]), each checked against its exhaustive
  optimum computed in set-up.  Its traced run also drives the
  ``sweep`` subcommand for the bench_cli layer (see below).
* ``oracle_ladder`` -- solve_exhaustive on 4 seeded SNR draws of the
  same distribution, each at M = 250, 1000 and 4000, each checked
  against bcd and mm results computed in set-up.

``--trace 0`` prints the end-to-end metrics: set-up time (import, plus
the median of three complete set-ups), median call time, calls per
second and peak memory.  The three timings are reported at a fixed host
speed, measured by a reference kernel run before every call and each
set-up (see ``hostspeed.py``); the raw figures are printed above the
result and kept in the run record.  ``--trace 1`` repeats the untraced
phase, then records spans around the library's functions for one cycle
and prints the per-layer metrics; library counts and times are per
workload call, solver figures per solve.  For iterative_suite it also
times ``fblsec sweep --vary M --from 200 --to 1000 --step 100 --methods
bcd,mm`` in-process on the default operating point, three times with
FBLSEC_THREADS=1 and three times with 2, each row checked against the
exhaustive optimum at its budget and each CSV against the first
(wall_time aside).  Metrics that do not apply to a workload print 0 and
are listed under ``not_applicable`` in the run record.  Every run writes
that record (environment, call counts, per-case allocations and LFPs,
failures) to ``benchmarks/out/<workload>-seed<n>-trace<t>.json``; traced
runs also write their spans there as JSON lines.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("iterative_suite", "oracle_ladder")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "fblsec" / "__init__.py").is_file():
        sys.stderr.write(f"error: the fblsec sources are missing under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fblsec   # the library with numpy and scipy: part of set-up time
    import_s = time.perf_counter() - t0
    if Path(fblsec.__file__).resolve().parent != SRC / "fblsec":
        sys.stderr.write(f"error: imported fblsec from {fblsec.__file__}, not {SRC}\n")
        return 2

    import harness
    from workloads import SetupError
    try:
        return harness.run(args.workload, args.seed, args.seconds, args.trace,
                           import_s, BENCH_DIR)
    except SetupError as exc:
        sys.stderr.write(f"error: set-up check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
