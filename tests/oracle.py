"""The scalar reference monitor: the oracle every execution path is
checked against.

Production monitoring has one execution path (DESIGN.md D24): a chunk --
a whole batch signal, a stream chunk, or one fleet session's round -- is
planned by :func:`repro.core.monitor.plan_chunks_pooled`, its accept-only
prefix committed in bulk, and only divergences replayed through
:meth:`Monitor.step`. :class:`ScalarMonitor` is Algorithm 1 without any
of that: one :meth:`step` per window, chronological history reads, and
one two-sample test per tested dimension. Every bit-identity suite
compares the fast path against it (directly, or through isolated
streams that the oracle suite pins).
"""

from typing import Dict, List, Optional

import numpy as np

from repro.core.model import RegionProfile
from repro.core.monitor import AnomalyReport, Monitor, MonitorResult
from repro.core.stats import two_sample_reject


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
