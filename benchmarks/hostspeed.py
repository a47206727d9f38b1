"""Host-speed reference for the end-to-end figures.

On a shared host the same code runs at a speed that drifts with the
neighbours' load: on a 2-core host a fixed solve's median over 10 s
windows moved between 75 and 126 ms within five minutes, and a run's
median call time halved within twenty.  CPU time moves with wall time,
so no clock leaves the drift out.  The timed phase therefore runs
``kernel`` -- fixed work of the kinds the library does, using no fblsec
code -- before every call, and the end-to-end times are reported at the
host speed where the kernel takes ``REFERENCE_MS``: each is multiplied
by ``scale`` of the kernel's times around it.  Over the same five
minutes the scaled solve time moved by 5 % (quartile spread of 10 s
windows) where the raw one moved by 36 %.  The raw figures go to the
run record.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import special

REFERENCE_MS = 2.5
_X = np.linspace(-8.0, 8.0, 4096)


def kernel():
    """One vector ``log_ndtr`` and a Python loop of scalar numpy, scipy
    and math calls with the library's per-call validation pattern."""
    acc = float(np.sum(special.log_ndtr(_X)))
    for i in range(150):
        v = np.asarray(0.5 + i * 1e-3, dtype=float)
        if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
            raise ArithmeticError(f"reference kernel input {v!r}")
        acc += (float(special.log_ndtr(-v)) + math.log1p(float(v))
                + float(np.sqrt(v) * np.log(v + 1.0)))
    return acc


def time_kernel(runs=1):
    """Durations (ns) of ``runs`` kernel runs."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        kernel()
        out.append(time.perf_counter_ns() - t0)
    return out


def scale(kernel_ns):
    """Factor that turns a time measured while the kernel took
    ``kernel_ns`` (its median) into one at the reference speed; rates
    are divided by it."""
    return REFERENCE_MS * 1e6 / statistics.median(kernel_ns)
