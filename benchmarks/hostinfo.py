"""Host record and speedup reporting shared by the gate benchmarks.

Every ``BENCH_*.json`` written by ``bench_pipeline``, ``bench_streaming``
and ``bench_serve`` carries :func:`host_record`, so a number can be read
against the machine that produced it. A parallel speedup taken with more
workers than the host has cores measures contention, not scaling; it is
recorded as :data:`NOT_MEASURABLE` instead of as a slowdown.
"""

import os
import platform

import numpy as np
import scipy

NOT_MEASURABLE = "not_measurable"


def cores():
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_record():
    """Core count and library versions of this run."""
    return {
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def format_speedup(value):
    """``1.23x``, or ``not_measurable`` as is."""
    return value if value == NOT_MEASURABLE else f"{value:.2f}x"
