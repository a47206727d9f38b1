"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps the library's public functions *where they are
imported* (``solvers.log_round_trip_success``, ``lfp_model.rate_margin``,
...) because a module calls the name bound in its own namespace, so
patching only the defining module would miss most calls.  Each call
through a wrapper records one span; nothing under ``src/`` changes, and
outside ``Tracer.instrument`` the original functions are in place, so
untraced runs pay nothing.

A span is the tuple ``(name, start_ns, end_ns, parent, call_id,
elements)``; its id is its index in ``Tracer.spans`` and ``parent`` is
the id of the enclosing span or -1.  ``call_id`` is the workload call
the span belongs to; ``elements`` is the size of the returned array for
vectorized kernels, else 0.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

# (module, attribute, span name, count returned elements).  A span name
# is the *defining* module's name, whichever module the call comes from.
LIBRARY_CALL_SITES = (
    ("fbl_core", "rate_margin", "fbl_core.rate_margin", True),
    ("lfp_model", "rate_margin", "fbl_core.rate_margin", True),
    ("solvers", "rate_margin", "fbl_core.rate_margin", True),
    ("lfp_model", "q_inv", "fbl_core.q_inv", False),
    ("lfp_model", "dispersion", "fbl_core.dispersion", False),
    ("solvers", "dispersion", "fbl_core.dispersion", False),
    ("lfp_model", "decode_error_prob", "fbl_core.decode_error_prob", False),
    ("lfp_model", "log_direction_success", "lfp_model.log_direction_success", True),
    ("solvers", "log_direction_success", "lfp_model.log_direction_success", True),
    ("lfp_model", "log_round_trip_success", "lfp_model.log_round_trip_success", False),
    ("solvers", "log_round_trip_success", "lfp_model.log_round_trip_success", False),
    ("lfp_model", "lfp_value", "lfp_model.lfp_value", False),
    ("solvers", "lfp_value", "lfp_model.lfp_value", False),
    ("solvers", "redundancy_bounds", "lfp_model.redundancy_bounds", False),
    ("solvers", "bcd_scalar_min", "solvers.bcd_scalar_min", False),
    ("solvers", "solve_bcd", "solvers.solve_bcd", False),
    ("solvers", "solve_mm", "solvers.solve_mm", False),
    ("solvers", "solve_exhaustive", "solvers.solve_exhaustive", False),
    ("bench_cli", "load_scenario", "scenario.load_scenario", False),
)

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "call_id", "elements")

# The CLI dispatches through this table, which holds its own references.
CLI_METHOD_TABLE = ("bench_cli", "_METHODS")


def layer(name):
    """Layer of a span: the module prefix of its name."""
    return name.split(".", 1)[0]


class Tracer:
    """Records spans while ``enabled``; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.call_id = -1
        self.enabled = False
        self._stack = []
        # Sweep workers forked from a traced process inherit the wrappers;
        # their spans would be lost with the worker, so they record none.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def wrap(self, name, fn, count_elements=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.call_id,
                                  int(np.size(out)) if count_elements else 0)
            return out

        return traced

    @contextlib.contextmanager
    def instrument(self, package):
        """Install wrappers at every call site in ``package`` (the
        imported ``fblsec`` package) and remove them on exit."""
        restore = []
        try:
            for module, attr, name, count in LIBRARY_CALL_SITES:
                mod = getattr(package, module)
                original = getattr(mod, attr)
                restore.append((setattr, mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, count))
            module, attr = CLI_METHOD_TABLE
            table = getattr(getattr(package, module), attr)
            for method, original in list(table.items()):
                restore.append((dict.__setitem__, table, method, original))
                table[method] = self.wrap(f"solvers.solve_{method}", original)
            yield self
        finally:
            for setter, obj, key, original in reversed(restore):
                setter(obj, key, original)

    @contextlib.contextmanager
    def call(self, call_id):
        """Record the spans of one workload call under ``call_id``."""
        self.call_id = call_id
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def write(self, path):
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span, its id being its line number after the header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans):
    """Self time (ns) of every span.

    A span's self time is its duration minus the part covered by spans
    of *other* layers below it.  Children in the span's own layer are
    looked through, so ``solvers.solve_bcd`` loses the time of the
    ``lfp_model``/``fbl_core`` calls made from inside
    ``solvers.bcd_scalar_min`` but keeps the search's own bookkeeping.
    Spans are stored parent-first, so one backward pass suffices.
    """
    covered = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _, _ = spans[i]
        if parent < 0:
            continue
        if layer(spans[parent][0]) == layer(name):
            covered[parent] += covered[i]
        else:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _, _) in enumerate(spans)]


def enclosing(spans, prefix):
    """For each span, the id of its nearest ancestor-or-self whose name
    starts with ``prefix`` (-1 if none)."""
    out = [-1] * len(spans)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if name.startswith(prefix):
            out[i] = i
        elif parent >= 0:
            out[i] = out[parent]
    return out
