"""The benchmark's own arithmetic: percentiles, failure shares, relative
gaps and the sweep CSV comparison.  Pure functions, tested in
``test_bench_arith.py``."""

from __future__ import annotations

import math

# Sweep CSV column that holds measured time; it is expected to differ
# between otherwise identical sweeps.
TIME_COLUMN = "wall_time"


def tail_percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile of ``values``, or None unless at least
    ``min_beyond`` samples lie strictly beyond its rank.

    With q = 0.9 that needs 100 samples: rank ceil(0.9 n) leaves
    n - ceil(0.9 n) samples above it.
    """
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(q * n)
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def fail_frac(outcomes):
    """Share of failed calls; ``outcomes`` holds one list of problems
    per attempted call, empty when the call passed every check."""
    if not outcomes:
        raise ValueError("no calls attempted")
    return sum(1 for problems in outcomes if problems) / len(outcomes)


def rel_gap(value, reference):
    """(value - reference) / reference.  An LFP can underflow to exactly
    0 at large budgets: two zeros have no gap, a positive value against a
    zero reference an infinite one."""
    if reference == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return (value - reference) / reference


def beats(value, reference, rel_tol):
    """True when ``value`` is lower than ``reference`` by more than the
    relative tolerance, i.e. a claimed optimum has been undercut."""
    return value < reference * (1.0 - rel_tol)


def csv_without_column(text, column=TIME_COLUMN):
    """The CSV text with one column cut out of every line and all other
    bytes kept, for comparing sweeps whose only expected difference is
    measured time.  The sweep CSV never quotes, so cells split on ','."""
    lines = text.split("\n")
    header = lines[0].split(",")
    if column not in header:
        return text
    drop = header.index(column)
    kept = []
    for line in lines:
        cells = line.split(",")
        if len(cells) == len(header):
            del cells[drop]
        kept.append(",".join(cells))
    return "\n".join(kept)


def same_csv_ignoring_time(a, b):
    return csv_without_column(a) == csv_without_column(b)
