"""Host normalization: a fixed reference kernel paired with every timed unit.

The vCPUs this benchmark runs on change speed by 20-40% over seconds to
minutes because of neighbouring load, whatever the code does; CPU time
does not help (the vCPU is slowed, not descheduled). Every timed unit of
work is therefore paired with a reference slice -- one call of
:func:`reference_kernel`, run while the program under test is idle --
and reported as ``unit_time * REF_NOMINAL_S / ref_paired``: the time the
unit would have taken at a fixed nominal host speed.

The reference kernel and ``REF_NOMINAL_S`` are part of the benchmark's
definition. Changing either changes every normalized number, so later
changes to the program must leave this file alone.
"""

from __future__ import annotations

import os
import platform
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

#: Nominal duration of one reference slice, in seconds. Normalized
#: values read as "at the host speed where one slice takes this long".
REF_NOMINAL_S = 0.005

#: Reference slices on each side of a unit whose mean pairs with it. The
#: host's speed flips between two levels within tens of milliseconds and
#: drifts over seconds; one slice samples a single level, while the mean
#: of a few around the unit tracks the mix the unit itself ran at.
PAIR_RADIUS = 2

#: Benchmark-process CPU time allowed outside the slice's own thread
#: during one slice (seconds). Idle processes read up to ~2 ms here from
#: clock granularity; a thread left working through a slice reads ~5 ms.
SELF_IDLE_TOL_S = 0.003

#: Server CPU time allowed across all reference slices of a run, as a
#: share of their wall time, plus two clock ticks of rounding.
SERVER_IDLE_SHARE = 0.05

_REF_ROWS = np.random.default_rng(20170624).standard_normal((64, 512))


def reference_kernel() -> float:
    """A fixed mix of interpreter work and numpy FFTs (~5 ms)."""
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) % 65521
    total = 0.0
    for _ in range(24):
        total += float(np.fft.rfft(_REF_ROWS, axis=1)[3, 5].real)
    return acc + total


def _proc_ticks(pid: int) -> int:
    """utime + stime of process ``pid``, in clock ticks."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


class RefClock:
    """Runs reference slices and checks the program is idle during each.

    ``server_pid``, once set, is a second process whose CPU ticks must
    stay (in aggregate) within ``SERVER_IDLE_SHARE`` of the slices' wall
    time.
    """

    def __init__(self) -> None:
        self.server_pid: Optional[int] = None
        self.slices: List[float] = []
        self.self_violations = 0
        self._server_ticks = 0
        #: CPUs the slices rotate over (the process's own by default).
        self.cpus: Optional[List[int]] = None
        reference_kernel()  # the first call pays one-off warm-up costs

    def slice(self) -> float:
        if not self.cpus:
            return self._slice()
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[len(self.slices) % len(self.cpus)]})
        try:
            return self._slice()
        finally:
            os.sched_setaffinity(0, home)

    def _slice(self) -> float:
        pid = self.server_pid
        ticks0 = _proc_ticks(pid) if pid else 0
        proc0 = time.process_time()
        thread0 = time.thread_time()
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        own = time.thread_time() - thread0
        if time.process_time() - proc0 - own > SELF_IDLE_TOL_S:
            self.self_violations += 1
        if pid:
            self._server_ticks += _proc_ticks(pid) - ticks0
        self.slices.append(elapsed)
        return elapsed

    def server_busy(self) -> bool:
        """True when the server used CPU during the slices beyond the
        stated tolerance."""
        if not self.server_pid or not self.slices:
            return False
        hz = os.sysconf("SC_CLK_TCK")
        allowed = SERVER_IDLE_SHARE * sum(self.slices) + 2.0 / hz
        return self._server_ticks / hz > allowed

    def quiet(self) -> bool:
        return self.self_violations == 0 and not self.server_busy()

    def median_ms(self) -> float:
        return float(np.median(self.slices)) * 1e3 if self.slices else 0.0


class PairedTimer:
    """Times units of work; each group of units is followed by reference
    slices, and each unit is scaled by the mean slice of the groups
    around its own."""

    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.units: List[float] = []
        self._group_of: List[int] = []
        self._group_refs: List[float] = []

    @contextmanager
    def unit(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.units.append(time.perf_counter() - t0)
            self._group_of.append(len(self._group_refs))

    def end_group(self, slices: int = 1) -> None:
        self._group_refs.append(
            float(np.mean([self.clock.slice() for _ in range(slices)]))
        )

    def scales(self) -> np.ndarray:
        """Per-unit factor ``REF_NOMINAL_S / ref_paired``."""
        refs = np.asarray(self._group_refs)
        if len(refs) == 0:
            raise RuntimeError("no reference slice was paired with the units")
        paired = np.array([
            refs[max(0, g - PAIR_RADIUS):g + PAIR_RADIUS + 1].mean()
            for g in range(len(refs))
        ])
        groups = np.minimum(np.asarray(self._group_of), len(refs) - 1)
        return REF_NOMINAL_S / paired[groups]

    def raw(self) -> np.ndarray:
        return np.asarray(self.units)

    def normalized(self) -> np.ndarray:
        return self.raw() * self.scales()


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_record(seed: int, clock: RefClock) -> Dict[str, object]:
    """What every result records about the host and the libraries."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):
        pass
    return {
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ref_ms_median": round(clock.median_ms(), 4),
        "ref_nominal_ms": REF_NOMINAL_S * 1e3,
    }
