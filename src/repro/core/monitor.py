"""EDDIE's monitoring algorithm (Algorithm 1 of the paper).

The monitor consumes the stream of STS peak vectors. For each new STS it
tests, per peak dimension, the last n observations against the current
region's reference set with a two-sample K-S test. Rejections trigger the
candidate check: if a successor region's reference explains the recent
observations, the monitor transitions to it; if no candidate does, an
anomaly counter grows, and a streak longer than ``report_threshold``
produces an anomaly report. Acceptance of the current region resets both
counters (tolerating isolated deviant STSs from interrupts and other
system activity).

With ``EddieConfig.quality_gating`` enabled the monitor is additionally
acquisition-fault aware (DESIGN.md D14): STSs whose windows carry quality
flags (clipped / gapped / dead / energy-outlier) are *unscorable* -- they
are excluded from the K-S history and the anomaly streak suspends across
them instead of counting them as rejections. After a gap or dead stretch
the region belief is stale, so the monitor clears its history and
re-enters region search with a bounded retry budget; if it cannot
reacquire any region within ``resync_timeout`` scorable windows it
escalates a ``desync`` report and resumes best-effort monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import EddieModel, RegionProfile
from repro.core.peaks import peak_matrix
from repro.core.stats import (
    kolmogorov_sf,
    ks_critical_value,
    ks_d_int_rows,
    ks_statistic_batch,
    two_sample_reject,
)
from repro.core.stft import QF_DEAD, QF_GAPPED, QF_UNSCORABLE, stft, window_quality
from repro.errors import MonitoringError
from repro.obs import OBS, counter, histogram
from repro.types import Signal

# Bin edges for the manifests' distribution summaries (fixed at module
# level so snapshots from worker processes merge bin-by-bin).
_PEAK_COUNT_EDGES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
_PVALUE_EDGES = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)

__all__ = ["AnomalyReport", "MonitorResult", "Monitor"]


class _KsJob:
    """One vectorized K-S work item of a chunk fast-path plan.

    ``rows`` holds the sorted monitored sets (one per window, all of
    count ``count``) to test against ``ref``; ``windows`` the chunk-local
    window index of each row. ``rejected``/``d`` are filled by
    :func:`score_ks_jobs`. Jobs from many sessions of one fleet group can
    be pooled into a single call -- the kernel keys them by
    ``(id(ref), count)`` so the shared reference is analyzed once.
    """

    __slots__ = ("dim", "ref", "m", "count", "rows", "windows",
                 "rejected", "d")

    def __init__(self, dim, ref, count, rows, windows):
        self.dim = dim
        self.ref = ref
        self.m = len(ref)
        self.count = count
        self.rows = rows
        self.windows = windows
        self.rejected = None
        self.d = None


class _ChunkPlan:
    """Read-only fast-path plan for one chunk of STSs (see
    :func:`plan_chunks_pooled`)."""

    __slots__ = ("k", "static_stop", "jobs", "peaks", "_verdicts")

    def __init__(self, k, static_stop, jobs, peaks):
        self.k = k
        self.static_stop = static_stop
        self.jobs = jobs
        self.peaks = peaks
        self._verdicts = None

    def verdicts(self):
        """The scored jobs as one per-window table, built on first use.

        Returns ``(cols, count, d, rejected)``: ``cols`` maps each tested
        dim to its ``(column, reference size)``, and row ``w`` of the
        ``(k, len(cols))`` arrays holds window ``w``'s monitored count
        (0 where the dim was not scored), K-S D and verdict. The commit
        and every replayed :meth:`Monitor.step` read the plan's verdicts
        from here alone.
        """
        if self._verdicts is None:
            cols: Dict[int, Tuple[int, int]] = {}
            for job in self.jobs:
                if job.rejected is None:
                    raise MonitoringError("a plan's verdicts need scored jobs")
                cols.setdefault(job.dim, (len(cols), job.m))
            shape = (self.k, len(cols))
            count = np.zeros(shape, dtype=np.int64)
            d = np.zeros(shape)
            rejected = np.zeros(shape, dtype=bool)
            for job in self.jobs:
                j = cols[job.dim][0]
                count[job.windows, j] = job.count
                d[job.windows, j] = job.d
                rejected[job.windows, j] = job.rejected
            self._verdicts = (cols, count, d, rejected)
        return self._verdicts


def score_ks_jobs(jobs: Sequence[_KsJob], alpha: float) -> None:
    """Score every job's rows through the shared-reference K-S kernel.

    Jobs are pooled by ``(reference identity, monitored count)``: all
    rows sharing both -- across windows, dimensions, and (in the fleet
    kernel) sessions -- go through one :func:`ks_d_int_rows` call, and
    the rejection threshold is the same cached
    :func:`ks_critical_value` the scalar path compares against. Row
    results are independent of the pooling, so decisions are
    bit-identical to per-window scoring.
    """
    groups: Dict[Tuple[int, int], List[_KsJob]] = {}
    for job in jobs:
        groups.setdefault((id(job.ref), job.count), []).append(job)
    for group in groups.values():
        ref = group[0].ref
        m = group[0].m
        c = group[0].count
        if len(group) == 1:
            rows = group[0].rows
        else:
            rows = np.concatenate([job.rows for job in group], axis=0)
        d = ks_d_int_rows(ref, rows) / (m * c)
        rejected = d > ks_critical_value(m, c, alpha)
        offset = 0
        for job in group:
            b = len(job.rows)
            job.d = d[offset:offset + b]
            job.rejected = rejected[offset:offset + b]
            offset += b


def _stacked_streams(
    entries: Sequence[tuple],
    members: Sequence[tuple],
    cols: Sequence[int],
    span: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One bucket's monitored-value streams and their running counts.

    Returns ``(values, csum)``. ``values`` is ``(sessions, span-1+k,
    len(cols))``: each session's last ``span - 1`` history rows followed
    by its chunk rows -- the only per-session gather; everything after is
    one stacked op. Tail rows older than a filling session's history are
    read but never reach a scored or counted window. ``csum[:, j]``
    counts the non-NaN values among the first ``j`` stream rows, so the
    window of size ``g`` ending at chunk window ``w`` holds
    ``csum[:, span + w] - csum[:, span + w - g]`` real values.
    """
    values = np.empty((len(members), span - 1 + k, len(cols)))
    offsets = np.arange(span - 1)
    for j, (i, _) in enumerate(members):
        mon, peaks, _ = entries[i]
        idx = (mon._hist_pos - (span - 1) + offsets) % len(mon._history)
        values[j, : span - 1] = mon._history[idx[:, None], cols]
        values[j, span - 1:] = peaks[:, cols]
    csum = np.zeros((len(members), span + k, len(cols)), dtype=np.int64)
    np.cumsum(~np.isnan(values), axis=1, out=csum[:, 1:])
    return values, csum


def plan_chunks_pooled(
    entries: Sequence[tuple],
) -> List[Optional[_ChunkPlan]]:
    """Plan the vectorized fast path for one or many sessions' chunks.

    ``entries`` is a sequence of ``(monitor, peaks, quality)`` triples,
    one per session, each covering one chunk of STS rows. This is the
    only planner: a single stream, or a whole batch signal, is a group of
    one.

    The fast path is *optimistic*: it assumes every window accepts the
    current region and computes all windows' K-S monitored sets in bulk
    (sliding windows over the history tail plus the chunk's own rows);
    :meth:`Monitor.commit_chunk` then applies the accept-only prefix at
    once. Planning is strictly read-only, so when a window rejects -- or
    hits a branch the vectorized path does not model -- the chunk from
    that window on replays through the unmodified scalar
    :meth:`Monitor.step`, which is why the fast and scalar paths are
    bit-identical by construction.

    Sessions sharing a region profile object (hence model, group size,
    test dimensions, references) and a chunk window count are bucketed
    together, and each bucket's monitored-set construction (history
    tails, validity counts, sliding windows, row sort) runs as single
    numpy operations over a ``(sessions, windows, group)`` stack. Each
    session keeps its own scoring range: windows before
    ``first_eligible`` (history still filling) are never K-S tested, and
    ``static_stop`` marks the first window that must go scalar regardless
    of K-S outcomes (a quality-flagged window, or an eligible window
    missing its dim-0 peaks, which the scalar path treats as a
    rejection).

    A session in an untestable (peak-less) region gets a *counting* plan
    with no K-S jobs: :meth:`Monitor.step` accepts there until, past the
    history-fill gate, either the region's own dim-0 set over its group
    size or some testable candidate's test-dim set over that candidate's
    group size holds ``min_mon_values`` real values -- only then can the
    step switch regions or count an anomaly -- so ``static_stop`` is the
    first such window.

    A slot is ``None`` when the session's entry state already diverges
    from the accept-only straight line: a non-K-S statistic, a pending
    gap resync, an active resync search, or a flagged first window. The
    caller scores the plans (:func:`score_ks_jobs` pools rows fleet-wide
    by shared reference) and commits each session's plan individually.
    """
    plans: List[Optional[_ChunkPlan]] = [None] * len(entries)
    buckets: Dict[tuple, list] = {}
    for i, (mon, peaks, quality) in enumerate(entries):
        k = int(peaks.shape[0])
        if (
            k == 0
            or peaks.shape[1] != mon._width
            or not mon._fast_path_ready()
        ):
            continue
        stop = k
        if mon._cfg.quality_gating and quality is not None:
            flagged = np.flatnonzero(
                np.asarray(quality, dtype=np.uint8) & QF_UNSCORABLE
            )
            if len(flagged):
                stop = int(flagged[0])
                if stop == 0:
                    continue
        profile = mon.model.profile(mon.current_region)
        buckets.setdefault((id(profile), k), [profile, []])[1].append(
            (i, stop)
        )

    for (_, k), (profile, members) in buckets.items():
        mon0 = entries[members[0][0]][0]
        stops = np.array([stop for _, stop in members], dtype=np.int64)
        filled = np.array(
            [entries[i][0]._filled for i, _ in members], dtype=np.int64
        )
        plan_bucket = (
            _plan_tested_bucket if profile.testable() else _plan_peakless_bucket
        )
        jobs_by_session = plan_bucket(mon0, entries, members, k, stops, filled)
        for j, (i, _) in enumerate(members):
            plans[i] = _ChunkPlan(
                k=k, static_stop=int(stops[j]), jobs=jobs_by_session[j],
                peaks=entries[i][1],
            )
    return plans


def _plan_tested_bucket(
    mon: "Monitor",
    entries: Sequence[tuple],
    members: Sequence[tuple],
    k: int,
    stops: np.ndarray,
    filled: np.ndarray,
) -> List[List[_KsJob]]:
    """K-S jobs for one bucket of sessions in a testable region.

    Lowers ``stops`` in place where a live window's dim-0 set is too
    small (the scalar missing-peaks branch); returns each session's jobs.
    ``mon`` is any member's monitor: they share the region profile.
    """
    profile = mon.model.profile(mon.current_region)
    cfg = mon._cfg
    n = profile.group_size
    s_count = len(members)
    test_dims = [
        dim for dim in profile.test_dims
        if len(profile.reference_dim(dim)) > 0
    ]
    all_dims = sorted(set(test_dims) | ({0} if profile.num_peaks > 0 else set()))
    arr, csum = _stacked_streams(entries, members, all_dims, n, k)
    # Real (non-NaN) values in each window's monitored set, per dim.
    counts = csum[:, n:] - csum[:, :-n]
    dim_col = {dim: j for j, dim in enumerate(all_dims)}

    window_all = np.arange(k, dtype=np.int64)
    # A window is K-S eligible once the history (plus the chunk's own
    # pushes up to it) holds n rows -- the _recent() gate.
    first = np.maximum(0, n - filled - 1)
    live = (window_all >= first[:, None]) & (window_all < stops[:, None])
    if profile.num_peaks > 0:
        # Live windows whose dim-0 monitored set is too small take the
        # missing-peaks anomaly branch in step(): scalar territory.
        short = live & (counts[:, :, dim_col[0]] < cfg.min_mon_values)
        any_short = short.any(axis=1)
        if any_short.any():
            stops[any_short] = short.argmax(axis=1)[any_short]
            live &= window_all < stops[:, None]

    jobs_by_session: List[List[_KsJob]] = [[] for _ in members]
    # Window w's monitored set is stream rows w .. w+n-1, gathered by
    # index: sliding_window_view's setup costs more than the copy at
    # fleet chunk sizes, and the sort copies anyway.
    window_rows = window_all[:, None] + np.arange(n)
    for dim in test_dims:
        ref = profile.reference_dim(dim)
        # Ascending sort pushes the NaNs of each window past its count
        # of real values; the leading count columns are exactly
        # _recent()'s sorted monitored set.
        rows = np.sort(arr[:, window_rows, dim_col[dim]], axis=2)
        cnt = counts[:, :, dim_col[dim]]
        eligible = live & (cnt >= cfg.min_mon_values)
        # Steady-state short-circuit: every window eligible at one
        # constant count -> one job per session, its rows a plain
        # view of the pooled sort.
        simple = eligible.all(axis=1) & (cnt == cnt[:, :1]).all(axis=1)
        for j in range(s_count):
            if simple[j]:
                c = int(cnt[j, 0])
                jobs_by_session[j].append(_KsJob(
                    dim=dim, ref=ref, count=c,
                    rows=rows[j][:, :c], windows=window_all,
                ))
                continue
            ok = eligible[j]
            if not ok.any():
                continue
            ok_counts = cnt[j][ok]
            rows_ok = rows[j][ok]
            window_idx = np.flatnonzero(ok)
            for c in np.unique(ok_counts):
                sel = ok_counts == c
                jobs_by_session[j].append(_KsJob(
                    dim=dim, ref=ref, count=int(c),
                    rows=rows_ok[sel][:, : int(c)],
                    windows=window_idx[sel],
                ))
    return jobs_by_session


def _plan_peakless_bucket(
    mon: "Monitor",
    entries: Sequence[tuple],
    members: Sequence[tuple],
    k: int,
    stops: np.ndarray,
    filled: np.ndarray,
) -> List[List[_KsJob]]:
    """Counting plans for one bucket of sessions in a peak-less region.

    Lowers ``stops`` in place to the first window whose untestable
    branch of :meth:`Monitor.step` can do anything but accept: one where
    the region's dim-0 set, or a testable candidate's test-dim set, is
    past the history-fill gate and holds ``min_mon_values`` real values.
    Returns each session's (empty) job list.
    """
    # Window sizes (the _recent() n) to the dims counted over them.
    profile = mon.model.profile(mon.current_region)
    checks: Dict[int, set] = {profile.group_size: {0}}
    for name in mon.model.candidate_regions(mon.current_region):
        cand = mon.model.profile(name)
        if cand.testable():
            checks.setdefault(cand.group_size, set()).update(cand.test_dims)
    span = max(checks)
    cols = sorted(set().union(*checks.values()))
    col = {dim: j for j, dim in enumerate(cols)}
    _, csum = _stacked_streams(entries, members, cols, span, k)
    window_all = np.arange(k, dtype=np.int64)
    fire = np.zeros((len(members), k), dtype=bool)
    for g, dims in checks.items():
        idx = [col[dim] for dim in sorted(dims)]
        counts = csum[:, span:, idx] - csum[:, span - g: span - g + k, idx]
        # A window passes _recent()'s fill gate once the history, plus
        # the chunk's pushes up to it, holds g rows.
        fire |= (
            (window_all >= (g - filled - 1)[:, None])
            & (counts >= mon._cfg.min_mon_values).any(axis=2)
        )
    hit = fire.any(axis=1)
    stops[hit] = np.minimum(stops[hit], fire.argmax(axis=1)[hit])
    return [[] for _ in members]


@dataclass(frozen=True)
class AnomalyReport:
    """One anomaly reported to the user.

    ``kind`` is ``'anomaly'`` for Algorithm-1 reports and ``'desync'``
    when the monitor lost the region state machine after an acquisition
    gap and could not reacquire within its retry budget. A desync is an
    operational escalation ("re-check this device"), not a detection.
    """

    time: float
    region: str
    streak: int
    kind: str = "anomaly"


@dataclass
class MonitorResult:
    """Everything one monitoring pass produces.

    Attributes:
        times: center time of every STS processed.
        tracked: the monitor's current-region belief at every STS.
        reports: anomaly reports, in time order.
        rejection_flags: whether the current region's test rejected at
            each STS (before candidate resolution).
        group_sizes: group size in effect at each STS (for group-span
            bookkeeping in metrics).
        unscorable_flags: per-STS mask of windows skipped as unscorable
            (quality gating; all False when gating is off).
        quality: the per-window quality bitmasks, when computed.
        report_indices: STS index of each report, aligned with
            ``reports``; ``None`` for results built step-by-step.
        status: ``'ok'``, or ``'degraded'`` when so much of the run was
            unscorable that the monitoring verdict is not meaningful.
    """

    times: np.ndarray
    tracked: List[str]
    reports: List[AnomalyReport]
    rejection_flags: np.ndarray
    group_sizes: np.ndarray
    unscorable_flags: Optional[np.ndarray] = None
    quality: Optional[np.ndarray] = None
    report_indices: Optional[List[int]] = None
    status: str = "ok"

    @property
    def reported_mask(self) -> np.ndarray:
        """Boolean per-STS mask of report firings."""
        mask = np.zeros(len(self.times), dtype=bool)
        if self.report_indices is not None:
            mask[np.asarray(self.report_indices, dtype=int)] = True
            return mask
        if not self.reports or len(self.times) == 0:
            return mask
        # Fallback for hand-built results: tolerant float matching (exact
        # `t in set` comparison broke on times reconstructed through
        # different arithmetic).
        report_times = np.array([r.time for r in self.reports])
        return np.isclose(
            self.times[:, None], report_times[None, :],
            rtol=1e-9, atol=1e-12,
        ).any(axis=1)

    @property
    def unscorable_fraction(self) -> float:
        """Share of STSs skipped as unscorable."""
        if self.unscorable_flags is None or len(self.times) == 0:
            return 0.0
        return float(np.mean(self.unscorable_flags))

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @classmethod
    def concat(
        cls,
        results: Sequence["MonitorResult"],
        max_unscorable_fraction: Optional[float] = None,
    ) -> "MonitorResult":
        """Merge per-chunk results (e.g. from ``StreamingMonitor.feed``)
        into one stream-wide result.

        ``report_indices`` are re-based from chunk-local to stream-global.
        ``status`` is recomputed over the merged unscorable flags when
        ``max_unscorable_fraction`` is given; otherwise the last chunk's
        status (which the streaming engine already computes cumulatively)
        carries over.
        """
        if not results:
            return cls(
                times=np.empty(0),
                tracked=[],
                reports=[],
                rejection_flags=np.zeros(0, dtype=bool),
                group_sizes=np.zeros(0, dtype=int),
                unscorable_flags=np.zeros(0, dtype=bool),
                report_indices=[],
            )
        tracked: List[str] = []
        reports: List[AnomalyReport] = []
        report_indices: List[int] = []
        offset = 0
        for r in results:
            tracked.extend(r.tracked)
            reports.extend(r.reports)
            if r.report_indices is not None:
                report_indices.extend(i + offset for i in r.report_indices)
            offset += len(r.times)
        quality = None
        if all(r.quality is not None for r in results):
            quality = np.concatenate([r.quality for r in results])
        unscorable = np.concatenate([
            r.unscorable_flags
            if r.unscorable_flags is not None
            else np.zeros(len(r.times), dtype=bool)
            for r in results
        ])
        status = results[-1].status
        if max_unscorable_fraction is not None:
            degraded = (
                len(unscorable)
                and unscorable.mean() >= max_unscorable_fraction
            )
            status = "degraded" if degraded else "ok"
        return cls(
            times=np.concatenate([r.times for r in results]),
            tracked=tracked,
            reports=reports,
            rejection_flags=np.concatenate(
                [r.rejection_flags for r in results]
            ),
            group_sizes=np.concatenate([r.group_sizes for r in results]),
            unscorable_flags=unscorable,
            quality=quality,
            report_indices=report_indices,
            status=status,
        )


class Monitor:
    """A stateful Algorithm-1 monitor for one trained model.

    Per-dim sorted reference arrays are precomputed once per region
    profile, and all tested dimensions of a window are scored through one
    :func:`ks_statistic_batch` call in exact integer arithmetic. The
    rolling history ring is the only window state; the sorted monitored
    sets a :meth:`step` reads come from a per-group-size sorted copy of
    its tail, made on first use and dropped at the next push (see
    :meth:`_recent`). Batch, streaming, and fleet monitoring share one
    execution path: :func:`plan_chunks_pooled` plans a chunk (a whole
    batch signal is one chunk) -- K-S jobs in a testable region, a
    counting-only plan in a peak-less one -- and :meth:`score_chunk`
    commits its accept-only prefix and replays divergences through
    :meth:`step`. The scalar one-step-per-window reference lives in the
    test suite as the oracle these paths are checked against.
    """

    def __init__(self, model: EddieModel) -> None:
        self.model = model
        self._cfg = model.config
        history_len = max(model.max_group_size, 2)
        self._width = self._cfg.max_peaks + (
            2 if self._cfg.diffuse_features else 0
        )
        self._history = np.full((history_len, self._width), np.nan)
        self._hist_pos = 0
        self._filled = 0
        # Group size n -> (sorted tail, non-NaN count per dim); see
        # _recent(). Every history write clears it.
        self._sorted_tails: Dict[int, Tuple[np.ndarray, List[int]]] = {}
        for profile in model.profiles.values():
            profile.precompute_references()
        self.current_region: str = model.initial_regions[0]
        self._anomaly_count = 0
        self._change_counts: Dict[str, int] = {}
        self._streak = 0
        # Quality-gating state (DESIGN.md D14).
        self._gap_pending = False
        self._resync_remaining: Optional[int] = None
        self.last_unscorable = False
        # Scaled K-S statistics D * sqrt(mn/(m+n)) buffered by scoring and
        # commits when observability is on; score_chunk flushes them
        # through one vectorized kolmogorov_sf call into the p-value
        # histogram.
        self._ks_scaled_stats: List[float] = []

    # -- driving ------------------------------------------------------------

    def run_signal(self, signal: Signal) -> MonitorResult:
        """Monitor a raw captured signal end to end.

        The signal's STS peak stream (peaks, times, quality flags) is a
        pure function of the samples and the front-end config, so with an
        artifact cache configured (:mod:`repro.cache`) it is memoized and
        repeated monitoring passes -- group-size sweeps, re-runs of a
        warm experiment -- skip the STFT and peak extraction entirely.
        """
        from repro.cache import get_cache, sts_fingerprint

        cfg = self._cfg
        cache = get_cache()
        key = None
        if cache is not None:
            key = sts_fingerprint(signal, cfg)
            cached = cache.get_sts(key)
            if cached is not None:
                peaks, times, quality = cached
                return self.run_peaks(peaks, times, quality=quality)
        if getattr(cfg, "frontend", ()):
            from repro.dsp import apply_frontend

            # The cache key is computed on the raw signal (the chain is
            # part of the fingerprint), so denoising only runs on a miss.
            signal = apply_frontend(cfg.frontend, signal)
        spectra = stft(signal, cfg.window_samples, cfg.overlap)
        peaks = peak_matrix(spectra, cfg.energy_fraction, cfg.max_peaks,
                            cfg.peak_prominence, cfg.diffuse_features)
        quality = None
        if cfg.quality_gating:
            quality = window_quality(
                signal, cfg.window_samples, cfg.overlap,
                clip_fraction=cfg.clip_fraction,
                gap_samples=cfg.gap_samples,
                dead_fraction=cfg.dead_fraction,
                energy_outlier_mads=cfg.energy_outlier_mads,
            )
        if key is not None:
            cache.put_sts(key, peaks, spectra.times, quality)
        return self.run_peaks(peaks, spectra.times, quality=quality)

    def run_peaks(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray] = None,
    ) -> MonitorResult:
        """Monitor a pre-extracted peak matrix.

        ``quality`` is an optional per-window bitmask from
        :func:`repro.core.stft.window_quality`; it only has an effect when
        the model's config enables ``quality_gating``.
        """
        if peaks.shape[0] != len(times):
            raise MonitoringError(
                f"{peaks.shape[0]} peak rows for {len(times)} timestamps"
            )
        if peaks.shape[1] < self._width:
            raise MonitoringError(
                f"peak matrix width {peaks.shape[1]} below the configured "
                f"width {self._width} (max_peaks plus descriptor columns)"
            )
        if quality is not None and len(quality) != len(times):
            raise MonitoringError(
                f"{len(quality)} quality flags for {len(times)} timestamps"
            )
        # The whole signal is one chunk: plan it, score the plan, and run
        # the same commit/replay loop as the streaming and fleet paths.
        # Columns past the configured width are never pushed.
        peaks = peaks[:, : self._width]
        plan = plan_chunks_pooled([(self, peaks, quality)])[0]
        if plan is not None and plan.jobs:
            score_ks_jobs(plan.jobs, self._cfg.alpha)
        result = self.score_chunk(peaks, times, quality, plan)
        if OBS.enabled:
            self._flush_obs_run(result.status)
        return result

    def _flush_obs_windows(
        self,
        peaks: np.ndarray,
        tracked: List[str],
        reports: List[AnomalyReport],
        rejection_flags: np.ndarray,
        unscorable_flags: np.ndarray,
    ) -> None:
        """Fold a batch of monitoring events into the metrics registry.

        Counters are accumulated locally inside :meth:`score_chunk`
        (plain Python state) and flushed here in one pass per chunk -- a
        batch run is one chunk -- so the enabled-mode overhead stays a
        handful of instrument calls per trace rather than several per
        window.
        """
        n = len(tracked)
        unscorable = int(unscorable_flags.sum())
        counter("core.monitor", "windows_scored").inc(n - unscorable)
        counter("core.monitor", "windows_unscorable").inc(unscorable)
        anomalies = sum(1 for r in reports if r.kind == "anomaly")
        counter("core.monitor", "reports_anomaly").inc(anomalies)
        counter("core.monitor", "reports_desync").inc(len(reports) - anomalies)
        # K-S rejections by region: the region the monitor believed it was
        # in when the current-region test rejected.
        by_region: Dict[str, int] = {}
        for i in np.flatnonzero(rejection_flags):
            region = tracked[i]
            by_region[region] = by_region.get(region, 0) + 1
        for region, count in by_region.items():
            counter("core.monitor", f"rejections.{region}").inc(count)
        # Distribution summaries for the manifest.
        peak_counts = np.sum(
            ~np.isnan(peaks[:, : self._cfg.max_peaks]), axis=1
        )
        histogram(
            "core.monitor", "sts_peak_count", _PEAK_COUNT_EDGES
        ).record_many(peak_counts)
        if self._ks_scaled_stats:
            pvalues = kolmogorov_sf(np.asarray(self._ks_scaled_stats))
            histogram(
                "core.monitor", "ks_pvalue", _PVALUE_EDGES
            ).record_many(np.atleast_1d(pvalues))
            counter("core.monitor", "ks_tests").inc(
                len(self._ks_scaled_stats)
            )
        self._ks_scaled_stats = []

    def _flush_obs_run(self, status: str) -> None:
        """Run-level counters: once per batch run or stream close."""
        if status == "degraded":
            counter("core.monitor", "runs_degraded").inc()
        counter("core.monitor", "runs_monitored").inc()

    # -- one step of Algorithm 1 ------------------------------------------------

    def step(
        self,
        peak_row: np.ndarray,
        time: float,
        quality: int = 0,
        score_hint: "Optional[Tuple[_ChunkPlan, int]]" = None,
    ):
        """Process one STS; returns (report_or_None, current_test_rejected).

        ``quality`` is the window's acquisition-quality bitmask; with
        quality gating enabled, flagged windows are skipped as unscorable
        (streak suspended) and gap/dead windows additionally invalidate
        the history and schedule a resynchronization.

        ``score_hint`` optionally names this window's row of a scored
        chunk plan's verdict table, as ``(plan, window)``. The row is
        trusted only when every scored dimension's recorded monitored
        count matches the live one (see :meth:`_hinted_dims`); any
        mismatch falls back to scoring from scratch, so a stale hint can
        cost time but never change a decision. Candidate probes are
        always computed live.
        """
        self.last_unscorable = False
        if self._cfg.quality_gating and (quality & QF_UNSCORABLE):
            # Unscorable STS: the window's samples were corrupted at
            # acquisition. Do not let its garbage peaks into the history,
            # do not count it as a rejection, and keep the anomaly streak
            # frozen (neither grown nor reset) until scoring resumes.
            self.last_unscorable = True
            if quality & (QF_GAPPED | QF_DEAD):
                self._gap_pending = True
            return None, False

        if self._gap_pending:
            # First scorable STS after a gap: execution continued while we
            # were blind, so both the history and the region belief are
            # stale. Start over: clear the history and re-enter region
            # search with a bounded budget.
            self._gap_pending = False
            self._filled = 0
            self._anomaly_count = 0
            self._change_counts.clear()
            self._streak = 0
            if any(p.testable() for p in self.model.profiles.values()):
                self._resync_remaining = self._cfg.resync_timeout

        self._push(peak_row)

        if self._resync_remaining is not None:
            return self._resync_step(time)

        profile = self.model.profile(self.current_region)
        candidates = self.model.candidate_regions(self.current_region)

        if not profile.testable():
            # Peak-less region (e.g. GSM's hot loop): there is no reference
            # to test against, but the region *expects no peaks*. First try
            # to recognize a legal move to a successor; failing that,
            # persistent peaks that no successor explains are anomalous --
            # otherwise any injection arriving while the monitor sits in a
            # peak-less region would be invisible.
            if self._maybe_switch_from_untestable(candidates):
                return None, False
            mon = self._recent(profile.group_size, 0)
            if mon is None:
                self._anomaly_count = 0
                self._streak = 0
                return None, False
            self._anomaly_count += 1
            self._streak += 1
            if self._anomaly_count > self._cfg.report_threshold:
                report = AnomalyReport(
                    time=time, region=self.current_region, streak=self._streak
                )
                self._anomaly_count = 0
                return report, True
            return None, True

        any_reject = False
        rejecting_dims = 0
        explained_dims: Dict[str, int] = {}
        mons = {
            dim: self._recent(profile.group_size, dim)
            for dim in profile.test_dims
        }
        rejected_dims = (
            self._hinted_dims(profile, mons, *score_hint)
            if score_hint is not None
            else None
        )
        if rejected_dims is None:
            rejected_dims = self._score_dims(profile, mons)
        for dim in profile.test_dims:
            mon = mons[dim]
            if mon is None:
                if dim == 0 and profile.num_peaks > 0 and self._filled >= profile.group_size:
                    # The history is full but the expected peaks are simply
                    # absent. Injections whose cache misses smear the loop's
                    # period erase its peaks entirely -- silence here would
                    # let exactly the paper's "off-chip activity" injections
                    # (Section 5.7) go unseen. A region legitimately without
                    # peaks can still explain it (candidate with no peaks).
                    any_reject = True
                    peakless = [
                        c for c in candidates
                        if not self.model.profile(c).testable()
                    ]
                    if peakless:
                        for cand_name in peakless:
                            self._change_counts[cand_name] = (
                                self._change_counts.get(cand_name, 0) + 1
                            )
                    else:
                        self._anomaly_count += 1
                continue
            if not rejected_dims[dim]:
                continue
            any_reject = True
            rejecting_dims += 1
            explained = False
            for cand_name in candidates:
                cand = self.model.profile(cand_name)
                if not cand.testable() or dim not in cand.test_dims:
                    continue
                # Probe the candidate with a group bounded by the current
                # region's n: right after a transition the history still
                # contains old-region STSs, and a full-size candidate group
                # would keep rejecting long enough to fake an anomaly.
                probe = min(cand.group_size, profile.group_size)
                if self._candidate_accepts(cand, dim, probe):
                    explained_dims[cand_name] = (
                        explained_dims.get(cand_name, 0) + 1
                    )
                    explained = True
            if not explained:
                self._anomaly_count += 1

        # A candidate earns one change "vote" per step in which it explains
        # at least change_fraction of the rejecting dimensions. Requiring
        # several such steps (below) keeps one stochastic rejection from
        # flipping the tracked region.
        if rejecting_dims:
            need = max(1, int(np.ceil(self._cfg.change_fraction * rejecting_dims)))
            for cand_name, explained_count in explained_dims.items():
                if explained_count >= need:
                    self._change_counts[cand_name] = (
                        self._change_counts.get(cand_name, 0) + 1
                    )

        if not any_reject:
            self._anomaly_count = 0
            self._change_counts.clear()
            self._streak = 0
            return None, False

        self._streak += 1

        # Region transition once a candidate has explained the rejections
        # for several consecutive-rejection steps.
        if self._change_counts:
            best = max(self._change_counts, key=self._change_counts.get)
            if self._change_counts[best] >= self._cfg.change_steps:
                self._transition_to(best)
                return None, True

        # Anomaly?
        if self._anomaly_count > self._cfg.report_threshold:
            report = AnomalyReport(
                time=time, region=self.current_region, streak=self._streak
            )
            self._anomaly_count = 0
            return report, True

        return None, True

    # -- chunk fast path (vectorized optimistic scoring) ---------------------

    def _fast_path_ready(self) -> bool:
        """Cheap entry gate for :func:`plan_chunks_pooled`.

        True when the monitor's *state* admits the optimistic fast path
        right now (K-S statistic, no pending gap resync, no active resync
        search). Peak-less regions qualify: they get counting-only plans.
        :meth:`score_chunk` consults it before re-planning the remainder
        of a chunk mid-replay, so long resync stretches do not pay
        planning costs per window.
        """
        return (
            self._cfg.statistic == "ks"
            and not self._gap_pending
            and self._resync_remaining is None
        )

    def score_chunk(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray],
        plan: Optional[_ChunkPlan],
        early_exit: bool = False,
    ) -> MonitorResult:
        """Run one chunk of STSs through Algorithm 1; return its result.

        ``plan`` is the chunk's scored fast-path plan from
        :func:`plan_chunks_pooled` (or ``None`` when the entry state bars
        the fast path). The loop alternates between committing a plan's
        accept-only prefix (:meth:`commit_chunk`) and stepping scalar
        through each divergence (:meth:`step`) until a window accepts
        cleanly, after which the rest of the chunk goes back to the fast
        path instead of replaying scalar to its end. Batch runs, streams,
        and fleet sessions all go through here.

        A plan's verdict table (:meth:`_ChunkPlan.verdicts`) outlives its
        accept-only prefix: scalar replay pushes every scored window into
        the same history positions the plan assumed, so until the replay
        leaves the plan's straight line (an unscorable window skips a
        push, a gap or resync rewrites the history, a region transition
        swaps the reference and clamps the fill level -- a same-name
        self-transition included, detectable as a rejected step whose
        streak was reset), each replayed window's current-region
        decisions are read from the table (see :meth:`_hinted_dims`), and
        re-entry before the plan's ``static_stop`` commits the same plan
        from the re-entry window instead of planning and scoring again.
        Candidate probes always run live.

        With ``early_exit`` the chunk stops just after the first
        ``anomaly`` report and the result is truncated there. The
        result's ``status`` covers this chunk's windows only.
        """
        cfg = self._cfg
        n = len(times)
        tracked: List[str] = []
        reports: List[AnomalyReport] = []
        report_indices: List[int] = []
        rejection_flags = np.zeros(n, dtype=bool)
        unscorable_flags = np.zeros(n, dtype=bool)
        group_sizes = np.zeros(n, dtype=int)
        stop_at: Optional[int] = None
        i = 0
        base = 0  # chunk index of the plan's window 0
        on_line = False  # the plan's verdicts still hold at window i
        while i < n:
            if i == 0 or (n - i >= 2 and self._fast_path_ready()):
                if i and not (on_line and i - base < plan.static_stop):
                    plan = plan_chunks_pooled([(
                        self,
                        peaks[i:],
                        quality[i:] if quality is not None else None,
                    )])[0]
                    base = i
                    if plan is not None and plan.jobs:
                        score_ks_jobs(plan.jobs, cfg.alpha)
                on_line = plan is not None
                if on_line:
                    stop = base + self.commit_chunk(plan, i - base)
                    region = self.current_region
                    if stop > i:
                        # The fast stretch is accept-only: region
                        # unchanged, no rejections, no reports, nothing
                        # unscorable.
                        tracked.extend([region] * (stop - i))
                        group_sizes[i:stop] = self.model.profile(
                            region
                        ).group_size
                        i = stop
                        if i - base == plan.static_stop:
                            continue
            while i < n:
                q = int(quality[i]) if quality is not None else 0
                report, rejected = self.step(
                    peaks[i],
                    float(times[i]),
                    quality=q,
                    score_hint=(plan, i - base) if on_line else None,
                )
                if on_line and (
                    self.last_unscorable
                    or self.current_region != region
                    or (rejected and self._streak == 0)
                    or self._gap_pending
                    or self._resync_remaining is not None
                ):
                    on_line = False
                tracked.append(self.current_region)
                rejection_flags[i] = rejected
                unscorable_flags[i] = self.last_unscorable
                group_sizes[i] = self.model.profile(
                    self.current_region
                ).group_size
                if report is not None:
                    reports.append(report)
                    report_indices.append(i)
                    if early_exit and report.kind == "anomaly":
                        stop_at = i + 1
                        break
                accepted = not rejected and not self.last_unscorable
                i += 1
                if accepted:
                    # An accepting step reset the streak counters --
                    # exactly the state a plan assumes on entry.
                    break
            if stop_at is not None:
                break
        if stop_at is not None:
            peaks = peaks[:stop_at]
            times = times[:stop_at]
            rejection_flags = rejection_flags[:stop_at]
            unscorable_flags = unscorable_flags[:stop_at]
            group_sizes = group_sizes[:stop_at]
            quality = quality[:stop_at] if quality is not None else None
        if OBS.enabled:
            self._flush_obs_windows(
                peaks, tracked, reports, rejection_flags, unscorable_flags
            )
        status = "ok"
        if len(tracked) and (
            unscorable_flags.mean() >= cfg.max_unscorable_fraction
        ):
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

    def commit_chunk(self, plan: _ChunkPlan, start: int = 0) -> int:
        """Apply a scored plan's accept-only run from window ``start``;
        return the plan window where it ends.

        The run ends at (excludes) the first window at or after ``start``
        that any tested dimension rejected in the plan's verdict table,
        capped by the plan's ``static_stop``. Committing replays exactly
        what that many accepting :meth:`step` calls would have done --
        push every row into the rolling history, reset the
        anomaly/transition counters -- in one history write. Windows from
        the returned index on must go through the scalar :meth:`step`
        (nothing about them has been committed; planning never mutates).
        """
        cols, count, d, rejected = plan.verdicts()
        stop = plan.static_stop
        bad = np.flatnonzero(rejected[start:stop].any(axis=1))
        if len(bad):
            stop = start + int(bad[0])
        if OBS.enabled:
            for j, m in cols.values():
                counts = count[start:stop, j]
                for c in np.unique(counts[counts > 0]).tolist():
                    scale = (m * c / (m + c)) ** 0.5
                    self._ks_scaled_stats.extend(
                        (d[start:stop, j][counts == c] * scale).tolist()
                    )
        if stop <= start:
            return start
        rows = plan.peaks[start:stop]
        pushed = stop - start
        size = self._history.shape[0]
        take = rows[-size:] if pushed > size else rows
        offsets = (
            self._hist_pos + (pushed - len(take)) + np.arange(len(take))
        ) % size
        self._history[offsets] = take
        self._hist_pos = (self._hist_pos + pushed) % size
        self._filled = min(self._filled + pushed, size)
        self._sorted_tails.clear()
        # Every committed window accepted the current region: the last
        # step of the prefix reset all streak state, exactly as below.
        self._anomaly_count = 0
        self._change_counts.clear()
        self._streak = 0
        self.last_unscorable = False
        return stop

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> Tuple[dict, dict]:
        """Full Algorithm-1 state as ``(meta, arrays)``.

        Everything :meth:`step` reads or writes is covered: the rolling
        history matrix and its cursor, the region belief, and every
        counter of the anomaly / transition / quality state machines. The
        sorted-tail memo is derived from the history and rebuilt on
        demand. ``_ks_scaled_stats`` is observability-only and flushed
        per chunk on the streaming path, so it is reset rather than
        carried.
        """
        meta = {
            "hist_pos": self._hist_pos,
            "filled": self._filled,
            "current_region": self.current_region,
            "anomaly_count": self._anomaly_count,
            "change_counts": dict(self._change_counts),
            "streak": self._streak,
            "gap_pending": self._gap_pending,
            "resync_remaining": self._resync_remaining,
            "last_unscorable": self.last_unscorable,
        }
        return meta, {"history": self._history.copy()}

    def restore_state(self, meta: dict, arrays: dict) -> None:
        """Adopt state exported by :meth:`export_state`.

        The receiving monitor must be built from the same model/config
        (callers verify via the config fingerprint); here we only check
        the structural invariants that would otherwise corrupt state
        silently. Snapshots from before the history became the only
        window state also carry ``push_count``, ``tracked_dims`` and
        per-dim ``dim{d}.values``/``dim{d}.ages`` sorted buffers; they
        are ignored, since the history holds the same observations.
        """
        history = np.asarray(arrays["history"], dtype=float)
        if history.shape != self._history.shape:
            raise MonitoringError(
                f"monitor snapshot history shape {history.shape} does not "
                f"match this model's {self._history.shape}"
            )
        self._history[...] = history
        self._hist_pos = int(meta["hist_pos"])
        self._filled = int(meta["filled"])
        self.current_region = str(meta["current_region"])
        self._anomaly_count = int(meta["anomaly_count"])
        self._change_counts = {
            str(k): int(v) for k, v in dict(meta["change_counts"]).items()
        }
        self._streak = int(meta["streak"])
        self._gap_pending = bool(meta["gap_pending"])
        resync = meta["resync_remaining"]
        self._resync_remaining = None if resync is None else int(resync)
        self.last_unscorable = bool(meta["last_unscorable"])
        self._sorted_tails.clear()
        self._ks_scaled_stats = []

    # -- resynchronization after acquisition gaps ---------------------------

    def _resync_step(self, time: float):
        """One region-search step after a gap; returns (report, rejected)."""
        if self._try_reacquire():
            self._resync_remaining = None
            return None, False
        self._resync_remaining -= 1
        if self._resync_remaining <= 0:
            # Could not place the execution anywhere in the state machine
            # within the budget: escalate, then resume best-effort
            # monitoring from the current belief rather than staying
            # silent forever.
            self._resync_remaining = None
            report = AnomalyReport(
                time=time,
                region=self.current_region,
                streak=self._cfg.resync_timeout,
                kind="desync",
            )
            return report, False
        return None, False

    def _try_reacquire(self) -> bool:
        """Search all regions for one whose reference explains the recent
        post-gap STSs; prefers the pre-gap belief for continuity."""
        if self._filled < self._cfg.min_mon_values:
            return False
        order = [self.current_region] + [
            r for r in self.model.profiles if r != self.current_region
        ]
        for name in order:
            prof = self.model.profile(name)
            if not prof.testable():
                continue
            n = min(prof.group_size, self._filled)
            tail = self._history_tail(n)
            tested = 0
            accepted = 0
            for dim in prof.test_dims:
                values = tail[:, dim]
                values = values[~np.isnan(values)]
                if len(values) < self._cfg.min_mon_values:
                    continue
                tested += 1
                if not self._rejects(prof, dim, values):
                    accepted += 1
            if tested and accepted >= max(
                1, int(np.ceil(self._cfg.change_fraction * tested))
            ):
                # Unlike a tracked transition, the history here is all
                # post-gap and belongs to the reacquired region: keep it.
                self._reacquire(name)
                return True
        # A consistently peak-less post-gap stream is explained by a
        # peak-less region, if the model has one (the paper's GSM loop).
        recent = self._history_tail(self._filled)[:, : self._width]
        if np.all(np.isnan(recent)):
            for name in order:
                if not self.model.profile(name).testable():
                    self._reacquire(name)
                    return True
        return False

    def _reacquire(self, region: str) -> None:
        self.current_region = region
        self._anomaly_count = 0
        self._change_counts.clear()
        self._streak = 0

    # -- internals ------------------------------------------------------------

    def _push(self, peak_row: np.ndarray) -> None:
        row = np.full(self._width, np.nan)
        usable = min(len(peak_row), self._width)
        row[:usable] = peak_row[:usable]
        # Circular write: np.roll here used to copy the whole history
        # matrix on every push.
        self._history[self._hist_pos] = row
        self._hist_pos = (self._hist_pos + 1) % self._history.shape[0]
        self._filled = min(self._filled + 1, self._history.shape[0])
        self._sorted_tails.clear()

    def _history_tail(self, n: int) -> np.ndarray:
        """The last ``n`` pushed rows in chronological order.

        Callers must keep ``n <= self._filled`` (they all gate on it)
        and only read the result: it is a view of the ring unless the
        tail wraps. Post-gap reacquisition reads it directly;
        :meth:`_recent` sorts it once per group size.
        """
        n = min(n, self._history.shape[0])
        pos = self._hist_pos
        if n <= pos:
            return self._history[pos - n:pos]
        return np.concatenate((self._history[pos - n:], self._history[:pos]))

    def _recent(self, n: int, dim: int) -> Optional[np.ndarray]:
        """Last up-to-n non-NaN observations of one peak dimension, sorted.

        One step queries a few group sizes (the region's, each candidate
        probe's, the fresh suffix) over many dims, so the last ``n``
        history rows are sorted once per ``n``, all columns at a time --
        NaNs sort past each column's real values -- and memoized until
        the next history write (:meth:`_push`, :meth:`commit_chunk`,
        :meth:`restore_state`). Both two-sample tests are
        order-invariant, so sorted and chronological sets decide alike.
        """
        if self._filled < n:
            return None
        memo = self._sorted_tails.get(n)
        if memo is None:
            tail = np.sort(self._history_tail(n).T, axis=1)
            memo = (tail, (tail == tail).sum(axis=1).tolist())
            self._sorted_tails[n] = memo
        tail, counts = memo
        count = counts[dim]
        if count < self._cfg.min_mon_values:
            return None
        return tail[dim, :count]

    def _score_dims(
        self,
        profile: RegionProfile,
        mons: Dict[int, Optional[np.ndarray]],
    ) -> Dict[int, bool]:
        """Rejection decision for every tested dimension of one window.

        With the K-S statistic all testable dimensions are scored in one
        :func:`ks_statistic_batch` call against the profile's precomputed
        sorted references; the U-test alternative runs each dimension
        through :func:`~repro.core.stats.two_sample_reject`.
        """
        rejected: Dict[int, bool] = {}
        batch_dims: List[int] = []
        batch_refs: List[np.ndarray] = []
        batch_mons: List[np.ndarray] = []
        batch_runs: List[Tuple[np.ndarray, np.ndarray]] = []
        for dim, mon in mons.items():
            if mon is None:
                rejected[dim] = False
                continue
            ref = profile.reference_dim(dim)
            if len(ref) == 0:
                rejected[dim] = False
                continue
            if self._cfg.statistic == "ks":
                batch_dims.append(dim)
                batch_refs.append(ref)
                batch_mons.append(mon)
                batch_runs.append(profile.reference_dim_runs(dim))
            else:
                rejected[dim] = two_sample_reject(
                    ref, mon, self._cfg.alpha, self._cfg.statistic
                )
        if batch_dims:
            stats = ks_statistic_batch(batch_refs, batch_mons, batch_runs)
            for dim, ref, mon, d_stat in zip(
                batch_dims, batch_refs, batch_mons, stats
            ):
                rejected[dim] = bool(
                    d_stat > ks_critical_value(len(ref), len(mon), self._cfg.alpha)
                )
            if OBS.enabled:
                # Buffer D * sqrt(mn/(m+n)); the run-level flush turns the
                # whole buffer into asymptotic p-values in one shot.
                for ref, mon, d_stat in zip(batch_refs, batch_mons, stats):
                    m, k = len(ref), len(mon)
                    self._ks_scaled_stats.append(
                        float(d_stat) * (m * k / (m + k)) ** 0.5
                    )
        return rejected

    def _hinted_dims(
        self,
        profile: RegionProfile,
        mons: Dict[int, Optional[np.ndarray]],
        plan: _ChunkPlan,
        window: int,
    ) -> Optional[Dict[int, bool]]:
        """Current-region rejections read from a plan's verdict table.

        The table row of ``window`` already holds this window's
        exact-integer D and rejection verdict per dimension (identical
        arithmetic to :meth:`_score_dims`; see
        ``tests/test_fleet_kernel.py``), as long as the history the plan
        assumed is the history the scalar replay actually built --
        :meth:`score_chunk` tracks that invariant and only passes hints
        while it holds. This method adds a local defense: if any
        scorable dimension is missing from the row or its recorded
        monitored count disagrees with the live one, it returns None and
        the caller rescores everything, so hints are an optimization
        with no decision surface of their own. The OBS scaled-statistic
        buffer is fed exactly as `_score_dims` would.
        """
        cols, count, d, rejected = plan.verdicts()
        decided: Dict[int, bool] = {}
        scored: List[Tuple[int, int, float]] = []
        for dim, mon in mons.items():
            if mon is None:
                decided[dim] = False
                continue
            ref = profile.reference_dim(dim)
            if len(ref) == 0:
                decided[dim] = False
                continue
            col = cols.get(dim)
            if col is None or count[window, col[0]] != len(mon):
                return None
            decided[dim] = bool(rejected[window, col[0]])
            scored.append((len(ref), len(mon), float(d[window, col[0]])))
        if OBS.enabled:
            for m, k, d_stat in scored:
                self._ks_scaled_stats.append(
                    float(d_stat) * (m * k / (m + k)) ** 0.5
                )
        return decided

    def _rejects(self, profile: RegionProfile, dim: int, mon: np.ndarray) -> bool:
        ref = profile.reference_dim(dim)
        if len(ref) == 0:
            return False
        ref_runs = (
            profile.reference_dim_runs(dim)
            if self._cfg.statistic == "ks"
            else None
        )
        return two_sample_reject(
            ref, mon, self._cfg.alpha, self._cfg.statistic, ref_runs
        )

    def _candidate_accepts(self, cand: RegionProfile, dim: int, probe: int) -> bool:
        """Whether a successor region's reference explains recent STSs.

        Accepts if either the bounded probe group or its fresh suffix (the
        most recent few STSs) passes -- the suffix covers the moment just
        after a transition when older history is still mixed.
        """
        mon = self._recent(probe, dim)
        if mon is not None and not self._rejects(cand, dim, mon):
            return True
        suffix = self._recent(max(2, self._cfg.min_mon_values), dim)
        return suffix is not None and not self._rejects(cand, dim, suffix)

    def _maybe_switch_from_untestable(self, candidates: Sequence[str]) -> bool:
        """Try to recognize a successor region from a peak-less one.

        Returns True when a transition happened.
        """
        for cand_name in candidates:
            cand = self.model.profile(cand_name)
            if not cand.testable():
                continue
            accepted = 0
            tested = 0
            for dim in cand.test_dims:
                mon = self._recent(cand.group_size, dim)
                if mon is None:
                    continue
                tested += 1
                if not self._rejects(cand, dim, mon):
                    accepted += 1
            if tested and accepted >= max(
                1, int(np.ceil(self._cfg.change_fraction * tested))
            ):
                self._transition_to(cand_name)
                return True
        return False

    def _transition_to(self, region: str) -> None:
        self.current_region = region
        self._anomaly_count = 0
        self._change_counts.clear()
        self._streak = 0
        # Most of the history was gathered in the previous region and is
        # stale for the new region's tests -- but the newest few STSs are
        # what triggered the transition, so keep those and re-fill the
        # rest before testing resumes.
        self._filled = min(self._filled, self._cfg.min_mon_values)
