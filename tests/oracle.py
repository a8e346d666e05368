"""Reference oracles the fast paths are checked against.

- :class:`ScalarMonitor`, the scalar reference monitor. Production
  monitoring has one execution path (DESIGN.md D24): a chunk -- a whole
  batch signal, a stream chunk, or one fleet session's round -- is
  planned by :func:`repro.core.monitor.plan_chunks_pooled`, its
  accept-only prefix committed in bulk, and only divergences replayed
  through :meth:`Monitor.step`. :class:`ScalarMonitor` is Algorithm 1
  without any of that: one :meth:`step` per window, chronological
  history reads, and one two-sample test per tested dimension. Every
  bit-identity suite compares the fast path against it (directly, or
  through isolated streams that the oracle suite pins).
- :func:`schedule_path` and :func:`waveform`, the simulator's compile
  kernels as a per-instruction loop over numpy arrays and a
  per-instruction slice loop. The production kernels
  (:mod:`repro.arch.pipeline`, :mod:`repro.arch.power`) run on Python
  ints and one ``np.add.at``; ``tests/test_sim_kernels.py`` checks that
  both give the same schedules and the same waveform bytes.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.isa import UNIT_OF, Unit, base_latency
from repro.arch.pipeline import _OOO_JITTER_RATE, PathSchedule, unit_pipes
from repro.arch.power import PowerModel
from repro.core.model import RegionProfile
from repro.core.monitor import AnomalyReport, Monitor, MonitorResult
from repro.core.stats import two_sample_reject
from repro.errors import SimulationError
from repro.programs.ir import Instr


class ScalarMonitor(Monitor):
    """Algorithm 1 one window at a time, with no fast path.

    - the monitored set of a dimension is the chronological
      :meth:`_history_tail` slice, never the memoized sorted tail;
    - each tested dimension is scored by its own
      :func:`two_sample_reject` call, not the pooled K-S kernels;
    - :meth:`run_peaks` calls :meth:`step` once per window; nothing is
      planned, committed, or hinted.
    """

    def _recent(self, n: int, dim: int) -> Optional[np.ndarray]:
        if self._filled < n:
            return None
        values = self._history_tail(n)[:, dim]
        values = values[~np.isnan(values)]
        if len(values) < self._cfg.min_mon_values:
            return None
        return values

    def _score_dims(
        self,
        profile: RegionProfile,
        mons: Dict[int, Optional[np.ndarray]],
    ) -> Dict[int, bool]:
        rejected: Dict[int, bool] = {}
        for dim, mon in mons.items():
            ref = profile.reference_dim(dim)
            rejected[dim] = bool(
                mon is not None
                and len(ref) > 0
                and two_sample_reject(
                    ref, mon, self._cfg.alpha, self._cfg.statistic
                )
            )
        return rejected

    def run_peaks(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray] = None,
    ) -> MonitorResult:
        n = len(times)
        tracked: List[str] = []
        reports: List[AnomalyReport] = []
        report_indices: List[int] = []
        rejection_flags = np.zeros(n, dtype=bool)
        unscorable_flags = np.zeros(n, dtype=bool)
        group_sizes = np.zeros(n, dtype=int)
        for i in range(n):
            q = int(quality[i]) if quality is not None else 0
            report, rejected = self.step(peaks[i], float(times[i]), quality=q)
            tracked.append(self.current_region)
            rejection_flags[i] = rejected
            unscorable_flags[i] = self.last_unscorable
            group_sizes[i] = self.model.profile(self.current_region).group_size
            if report is not None:
                reports.append(report)
                report_indices.append(i)
        status = "ok"
        if n and unscorable_flags.mean() >= self._cfg.max_unscorable_fraction:
            status = "degraded"
        return MonitorResult(
            times=np.asarray(times, dtype=float),
            tracked=tracked,
            reports=reports,
            rejection_flags=rejection_flags,
            group_sizes=group_sizes,
            unscorable_flags=unscorable_flags,
            quality=quality,
            report_indices=report_indices,
            status=status,
        )


def assert_results_equal(a: MonitorResult, b: MonitorResult) -> None:
    """Every observable of two monitoring results is bit-identical."""
    np.testing.assert_array_equal(a.times, b.times)
    assert a.tracked == b.tracked
    np.testing.assert_array_equal(a.rejection_flags, b.rejection_flags)
    np.testing.assert_array_equal(a.group_sizes, b.group_sizes)
    np.testing.assert_array_equal(a.unscorable_flags, b.unscorable_flags)
    assert a.reports == b.reports
    assert a.report_indices == b.report_indices
    assert a.status == b.status


class _UnitTracker:
    """Per-pipe availability of the functional units."""

    def __init__(self, core: CoreConfig) -> None:
        self._free: Dict[Unit, List[int]] = {
            unit: [0] * pipes for unit, pipes in unit_pipes(core).items()
        }

    def earliest(self, unit: Unit, not_before: int) -> int:
        return max(not_before, min(self._free[unit]))

    def occupy(self, unit: Unit, cycle: int, latency: int) -> None:
        pipes = self._free[unit]
        idx = min(range(len(pipes)), key=lambda i: pipes[i])
        if unit is Unit.DIV:
            pipes[idx] = cycle + latency  # unpipelined
        else:
            pipes[idx] = cycle + 1


def schedule_path(
    instrs: Sequence[Instr],
    core: CoreConfig,
    rng: Optional[np.random.Generator] = None,
    expected_cycles: Optional[int] = None,
) -> PathSchedule:
    """:func:`repro.arch.pipeline.schedule_path`, one numpy element at a
    time."""
    n = len(instrs)
    if n == 0:
        return PathSchedule((), np.array([], int), np.array([], int), np.array([], int), 0)

    l1_latency = core.mem.l1.hit_latency
    fetch = np.zeros(n, dtype=int)
    issue = np.zeros(n, dtype=int)
    complete = np.zeros(n, dtype=int)

    units = _UnitTracker(core)
    issued_in_cycle: Dict[int, int] = {}
    reg_ready: Dict[str, int] = {}

    jitter = rng if (rng is not None and core.is_ooo) else None
    delayed: Dict[int, int] = {}
    if jitter is not None:
        estimated_cycles = expected_cycles or max(1, n // core.issue_width)
        n_events = min(n, int(jitter.poisson(_OOO_JITTER_RATE * estimated_cycles)))
        max_delay = 1 + core.pipeline_depth // 10
        for index in jitter.choice(n, size=n_events, replace=False):
            delayed[int(index)] = int(jitter.integers(1, max_delay + 1))

    prev_issue = 0
    for i, instr in enumerate(instrs):
        latency = base_latency(instr, l1_latency)
        unit = UNIT_OF[instr.op]

        operand_ready = 0
        for src in instr.srcs:
            operand_ready = max(operand_ready, reg_ready.get(src, 0))

        if core.is_ooo:
            fetch[i] = i // core.issue_width
            earliest = max(fetch[i] + 1, operand_ready)
            if i >= core.rob_size:
                earliest = max(earliest, int(complete[i - core.rob_size]))
            if i in delayed:
                earliest += delayed[i]
        else:
            earliest = max(prev_issue, operand_ready)
            fetch[i] = max(0, earliest - 1)

        t = units.earliest(unit, earliest)
        while issued_in_cycle.get(t, 0) >= core.issue_width:
            t += 1
        issued_in_cycle[t] = issued_in_cycle.get(t, 0) + 1
        units.occupy(unit, t, latency)

        issue[i] = t
        complete[i] = t + latency
        if instr.dst is not None:
            reg_ready[instr.dst] = int(complete[i])
        prev_issue = t

    cycles = int(complete.max())
    if cycles <= 0:
        raise SimulationError("schedule produced a zero-length path")
    return PathSchedule(tuple(instrs), fetch, issue, complete, cycles)


def waveform(model: PowerModel, schedule: PathSchedule) -> np.ndarray:
    """:meth:`repro.arch.power.PowerModel.waveform`, one slice per
    instruction."""
    params = model.params
    n_cycles = schedule.cycles
    power = np.full(n_cycles, params.static_per_cycle)
    if not schedule.instrs:
        return power

    per_instr_front = params.frontend_per_instr
    if model.core.is_ooo:
        per_instr_front += params.ooo_window_per_instr

    fetch = np.minimum(schedule.fetch, n_cycles - 1)
    np.add.at(power, fetch, per_instr_front)

    for i, instr in enumerate(schedule.instrs):
        start = schedule.issue[i]
        end = schedule.complete[i]
        total = params.op_energy[instr.op]
        if instr.op.is_memory:
            total += params.l1_access
        span = max(1, end - start)
        power[start:min(end, n_cycles)] += total / span
    return power
