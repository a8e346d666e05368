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

Every path -- batch, stream, fleet, served -- runs a chunk of STSs the
same way (DESIGN.md D24, D30, D31, D32): :func:`plan_chunks_pooled`
plans the current region's two-sample tests for the whole chunk into a
per-window verdict table, :func:`score_ks_jobs` scores it,
:meth:`Monitor.commit_chunk` walks that table -- with candidate probes
scored from the chunk's rows in bulk -- through the one copy of
Algorithm 1's counter machine, :meth:`Monitor._decide`, and only the
windows no table decides go through :meth:`Monitor.step`: unscorable
windows, gaps and resyncs, and peak-less regions past their counting
prefix. A testable window handed to :meth:`Monitor.step` directly is a
one-window chunk, so every current-region and candidate test of a
testable region is scored from a table. The loop that drives all this,
:meth:`Monitor._walk`, hands each plan request back to its driver, so
the fleet kernel plans and scores many sessions' requests together
(D33).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import EddieModel, RegionProfile
from repro.core.peaks import peak_matrix
from repro.core.stats import (
    kolmogorov_sf,
    ks_critical_value,
    ks_d_int_rows,
    two_sample_reject,
)
from repro.core.stft import (
    QF_DEAD,
    QF_GAPPED,
    QF_UNSCORABLE,
    StreamingQuality,
    require_finite,
    stft,
)
from repro.errors import MonitoringError
from repro.obs import OBS, counter, histogram
from repro.types import Signal

# Bin edges for the manifests' distribution summaries (fixed at module
# level so snapshots from worker processes merge bin-by-bin).
_PEAK_COUNT_EDGES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
_PVALUE_EDGES = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)

__all__ = ["AnomalyReport", "MonitorResult", "Monitor"]


class _KsJob:
    """One vectorized two-sample work item of a chunk plan.

    ``rows`` holds sorted monitored sets, all of count ``count``, to test
    against ``ref`` with ``test``, the owning monitor's ``(alpha,
    statistic)``. ``d`` and ``rejected`` are one column of a verdict
    table -- one plan's, or the column stacked over a planner bucket's
    plans -- and ``windows`` indexes the rows' cells in it (a window
    array, or a ``(slots, windows)`` pair); :func:`score_ks_jobs` writes
    each row's D and verdict there. Jobs from many sessions of one fleet
    group can be pooled into a single call -- the scorer keys them by
    ``(id(ref), count, test)`` so the shared reference is analyzed once
    per test.
    """

    __slots__ = ("ref", "m", "count", "rows", "windows", "d", "rejected",
                 "test")

    def __init__(self, ref, count, rows, windows, d, rejected, test):
        self.ref = ref
        self.m = len(ref)
        self.count = count
        self.rows = rows
        self.windows = windows
        self.d = d
        self.rejected = rejected
        self.test = test


class _Bucket:
    """The stacked arrays of one planner bucket of testable-region
    sessions (see :func:`plan_chunks_pooled`); each plan of the bucket
    is one slot of them.

    ``count``, ``d`` and ``rejected`` are the ``(slots, columns, k)``
    verdict tables. ``stream`` and ``csum`` are the monitored-value
    streams and their running non-NaN counts (:func:`_stacked_streams`,
    span ``n``, the region's group size), from which candidate probes
    are scored. ``missing`` is ``(slots, k)``: the windows in the
    missing-peaks branch, past the fill gate and before ``static_stop``
    with fewer than ``min_mon_values`` real dim-0 values. ``tested``
    counts the tested-dim columns. ``checked`` holds each slot's
    :func:`_checked_windows` once known.
    """

    __slots__ = ("n", "tested", "count", "d", "rejected", "stream", "csum",
                 "missing", "checked")

    def __init__(self, n, tested, table, stream, csum, missing):
        self.checked: Optional[List[tuple]] = None
        self.n = n
        self.tested = tested
        self.count, self.d, self.rejected = table
        self.stream = stream
        self.csum = csum
        self.missing = missing


class _ChunkPlan:
    """Read-only plan for one chunk of STSs, with its verdict table (see
    :func:`plan_chunks_pooled`).

    The table holds ``count``, ``d`` and ``rejected``, three ``(columns,
    k)`` arrays: cell ``[col, w]`` is window ``w``'s monitored count, K-S
    D and verdict for one monitored set, and a cell was scored iff its
    count reaches ``min_mon_values``. The first columns are the current
    region's tested dims; ``cols`` maps each dim to its ``(column,
    reference size)``. Dim 0 always has a column when the region expects
    peaks (its count decides the missing-peaks branch), even without a
    reference. ``probes`` maps each tested dim to its candidate probes,
    ``(name, probe group size, bounded column, suffix column)`` in
    candidate order; the two columns coincide when the sizes do.

    The planner writes the tested columns' counts and
    :func:`score_ks_jobs` their D and verdicts. The probe columns stay
    empty until the walk meets rejections, and are then scored from the
    plan's ``bucket`` (:class:`_Bucket`), whose slot ``slot`` the table
    is a view of. ``filled`` is the history fill at entry. A counting
    plan (peak-less region) has an empty table and no bucket.

    ``checked`` holds the windows that take the candidate check
    (:func:`_checked_windows`) once known, and ``probed`` counts how many
    of them, from the first, :func:`first_probe_jobs` scored before the
    walk.
    """

    __slots__ = ("k", "static_stop", "peaks", "filled", "jobs", "cols",
                 "probes", "count", "d", "rejected", "bucket", "slot",
                 "checked", "probed")

    def __init__(self, k, static_stop, peaks, filled, jobs=(), cols=None,
                 probes=None, bucket=None, slot=0):
        self.k = k
        self.static_stop = static_stop
        self.peaks = peaks
        self.filled = filled
        self.jobs = list(jobs)
        self.cols = cols or {}
        self.probes = probes or {}
        self.bucket = bucket
        self.slot = slot
        if bucket is None:
            self.count = self.d = self.rejected = np.zeros((0, k), dtype=bool)
            self.checked = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        else:
            self.count = bucket.count[slot]
            self.d = bucket.d[slot]
            self.rejected = bucket.rejected[slot]
            self.checked = None
        self.probed = 0


#: Checked windows -- rejecting, or missing their dim-0 peaks -- whose
#: candidate probes make up a plan's first probe batch. The fleet kernel
#: scores every fresh plan's first batch in one pooled call before the
#: walks resume (DESIGN.md D33); a walk scores each later batch itself
#: when it reaches it, twice as large as the one before, so a walk that
#: stops at an early region transition does not pay for the windows
#: behind it.
_PROBE_BATCH = 16


def score_ks_jobs(jobs: Sequence[_KsJob]) -> None:
    """Score every job's rows through the shared-reference kernels.

    Jobs are pooled by ``(reference identity, monitored count, test)``:
    all rows sharing them -- across windows, dimensions, candidate
    probes and (in the fleet kernel) sessions -- are scored together.
    K-S rows go through one :func:`ks_d_int_rows` call, and the
    rejection threshold is the cached :func:`ks_critical_value`. U-test
    rows go through :func:`two_sample_reject` one by one, and their D
    cells stay NaN; both tests are order-invariant, so the sorted rows
    decide as the chronological sets would. Each job's D and verdicts
    land in its plan's verdict table. Row results are independent of
    the pooling, so decisions are bit-identical to per-window scoring.
    """
    groups: Dict[tuple, List[_KsJob]] = {}
    for job in jobs:
        groups.setdefault((id(job.ref), job.count, job.test), []).append(job)
    for (_, c, (alpha, statistic)), group in groups.items():
        ref = group[0].ref
        m = group[0].m
        if len(group) == 1:
            rows = group[0].rows
        else:
            rows = np.concatenate([job.rows for job in group], axis=0)
        if statistic == "ks":
            d = ks_d_int_rows(ref, rows) / (m * c)
            rejected = d > ks_critical_value(m, c, alpha)
        else:
            d = np.full(len(rows), np.nan)
            rejected = [
                two_sample_reject(ref, row, alpha, statistic) for row in rows
            ]
        offset = 0
        for job in group:
            b = len(job.rows)
            job.d[job.windows] = d[offset:offset + b]
            job.rejected[job.windows] = rejected[offset:offset + b]
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
    by its chunk rows, NaN past a chunk shorter than ``k`` -- the only
    per-session gather; everything after is one stacked op. Tail rows older than a filling session's history are
    read but never reach a scored or counted window. ``csum[:, j]``
    counts the non-NaN values among the first ``j`` stream rows, so the
    window of size ``g`` ending at chunk window ``w`` holds
    ``csum[:, span + w] - csum[:, span + w - g]`` real values.
    """
    values = np.full((len(members), span - 1 + k, len(cols)), np.nan)
    offsets = np.arange(span - 1)
    for j, (i, _) in enumerate(members):
        mon, peaks, _ = entries[i]
        idx = (mon._hist_pos - (span - 1) + offsets) % len(mon._history)
        values[j, : span - 1] = mon._history[idx[:, None], cols]
        values[j, span - 1: span - 1 + len(peaks)] = peaks[:, cols]
    csum = np.zeros((len(members), span + k, len(cols)), dtype=np.int64)
    np.cumsum(~np.isnan(values), axis=1, out=csum[:, 1:])
    return values, csum


def _sorted_windows(
    stream: np.ndarray,
    csum: np.ndarray,
    span: int,
    windows: np.ndarray,
    size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The monitored sets of ``size`` rows ending at each chunk window.

    ``stream``/``csum`` are ``(..., rows, columns)`` as
    :func:`_stacked_streams` returns them for ``span``. Returns the sets
    sorted along the last axis, ``(..., columns, len(windows), size)``,
    and their real-value counts, ``(..., columns, len(windows))``. The
    ascending sort pushes each set's NaNs past its count of real values,
    so the leading count entries are exactly :meth:`Monitor._recent`'s
    sorted monitored set.
    """
    rows = windows[:, None] + (span - size) + np.arange(size)
    # Gathering from the column-first view lays each set out
    # contiguously, which is what the sort wants.
    values = np.moveaxis(stream, -1, -2)[..., rows]
    counts = csum[..., windows + span, :] - csum[..., windows + span - size, :]
    return np.sort(values, axis=-1), np.moveaxis(counts, -1, -2)


def plan_chunks_pooled(
    entries: Sequence[tuple],
) -> List[Optional[_ChunkPlan]]:
    """Plan the vectorized path for one or many sessions' chunks.

    ``entries`` is a sequence of ``(monitor, peaks, quality)`` triples,
    one per session, each covering one chunk of STS rows. This is the
    only planner: a single stream, or a whole batch signal, is a group of
    one.

    A plan assumes the current region holds for the whole chunk and
    computes every window's current-region monitored sets in bulk
    (sliding windows over the history tail plus the chunk's own rows)
    into the plan's verdict table; :meth:`Monitor.commit_chunk` then
    walks that table through accepts, rejections, votes and reports,
    and stops at the first region transition, after which the rest of
    the chunk is planned again. Planning is strictly read-only.

    Sessions sharing a region profile object (hence group size, test
    dimensions and references) are bucketed together, whatever their
    window counts: a bucket's stacks span its longest chunk, and a
    shorter chunk's windows past its own end lie past its
    ``static_stop``, so they are never scored or walked (a fleet
    round's re-plans have as many window counts as sessions; DESIGN.md
    D33). Models share profile objects only as copies of one
    another (``with_quality_gating``, a calibrated derivation), which
    keep the successor graph and every profile's group size and test
    dims, so a bucket also shares its table layout; each session reads
    candidate references from its own model. Each bucket's monitored-set
    construction (history tails, validity counts, sliding windows, row
    sort) and verdict tables are single numpy operations and allocations
    over a ``(sessions, windows, group)`` stack. Each session keeps its
    own scoring range: windows before ``first_eligible`` (history still
    filling) are never K-S tested, and ``static_stop`` marks the first
    window the table cannot decide, a quality-flagged one: from there
    the chunk goes through the scalar :meth:`Monitor.step`.

    A session in an untestable (peak-less) region gets a *counting* plan
    with no K-S jobs: :meth:`Monitor.step` accepts there until, past the
    history-fill gate, either the region's own dim-0 set over its group
    size or some testable candidate's test-dim set over that candidate's
    group size holds ``min_mon_values`` real values -- only then can the
    step switch regions or count an anomaly -- so ``static_stop`` is the
    first such window.

    A slot is ``None`` when the session's entry state already diverges
    from the plan's straight line: a pending gap resync, an active
    resync search, or a flagged first window. Both statistics plan
    alike; each job carries its monitor's ``(alpha, statistic)``. The
    caller scores the plans (:func:`score_ks_jobs` pools rows fleet-wide
    by shared reference and test) -- all of them before walking any,
    since :func:`_checked_windows` reads a whole bucket -- and walks each
    session's plan individually.
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
        buckets.setdefault(id(profile), [profile, []])[1].append((i, stop))

    for profile, members in buckets.values():
        mon0 = entries[members[0][0]][0]
        k = max(len(entries[i][1]) for i, _ in members)
        stops = np.array([stop for _, stop in members], dtype=np.int64)
        filled = np.array(
            [entries[i][0]._filled for i, _ in members], dtype=np.int64
        )
        plan_bucket = (
            _plan_tested_bucket if profile.testable() else _plan_peakless_bucket
        )
        bucket_plans = plan_bucket(mon0, entries, members, k, stops, filled)
        for (i, _), plan in zip(members, bucket_plans):
            plans[i] = plan
    return plans


def _plan_tested_bucket(
    mon: "Monitor",
    entries: Sequence[tuple],
    members: Sequence[tuple],
    k: int,
    stops: np.ndarray,
    filled: np.ndarray,
) -> List[_ChunkPlan]:
    """Plans, K-S jobs and verdict tables for one bucket of sessions in a
    testable region, ``k`` windows long (its longest chunk). ``mon`` is
    any member's monitor: they share the region profile and its
    candidates' layout."""
    profile = mon.model.profile(mon.current_region)
    mmv = mon._cfg.min_mon_values
    n = profile.group_size
    dims, cols, probes, width = mon._table_layout()
    # The bucket's verdict tables, (sessions, columns, k): each
    # session's columns are contiguous, and probe columns stay zero
    # until a walk scores them.
    shape = (len(members), width, k)
    count = np.zeros(shape, dtype=np.int64)
    d = np.zeros(shape)
    rejected = np.zeros(shape, dtype=bool)

    stream, csum = _stacked_streams(entries, members, dims, n, k)
    window_all = np.arange(k, dtype=np.int64)
    rows, counts = _sorted_windows(stream, csum, n, window_all, n)
    # A window is K-S eligible once the history (plus the chunk's own
    # pushes up to it) holds n rows -- the _recent() gate.
    first = np.maximum(0, n - filled - 1)
    live = (window_all >= first[:, None]) & (window_all < stops[:, None])
    cnt = count[:, : len(dims)]
    cnt[...] = np.where(live[:, None], counts, 0)
    eligible = cnt >= mmv
    scored = eligible.any(axis=2).tolist()
    # Steady: every live window eligible, at one constant count -> one
    # job per session and dim, its rows a plain view of the pooled sort.
    lo = np.minimum(first, stops)
    base = cnt[np.arange(len(members)), :, np.minimum(lo, k - 1)]
    steady = (
        (eligible == live[:, None])
        & ((cnt == base[:, :, None]) | ~live[:, None])
    ).all(axis=2).tolist()
    lo, hi = lo.tolist(), stops.tolist()
    refs = [
        (j, profile.reference_dim(dim)) for dim, (j, m) in cols.items() if m
    ]
    missing = (
        live & (cnt[:, cols[0][0]] < mmv) if 0 in cols
        else np.zeros(live.shape, dtype=bool)
    )
    bucket = _Bucket(n, len(dims), (count, d, rejected), stream, csum, missing)

    plans = []
    for s, (i, _) in enumerate(members):
        cfg = entries[i][0]._cfg
        test = (cfg.alpha, cfg.statistic)
        jobs = []
        for j, ref in refs:
            if steady[s][j] and scored[s][j]:
                c = int(base[s, j])
                jobs.append(_KsJob(
                    ref, c, rows[s, j, lo[s]:hi[s], :c],
                    window_all[lo[s]:hi[s]], d[s, j], rejected[s, j], test,
                ))
            elif scored[s][j]:
                windows = np.flatnonzero(eligible[s, j])
                jobs.extend(
                    _KsJob(ref, c, sets, cells, d[s, j], rejected[s, j],
                           test)
                    for c, sets, cells in _by_count(
                        rows[s, j, windows], cnt[s, j, windows], windows
                    )
                )
        plans.append(_ChunkPlan(
            len(entries[i][1]), int(stops[s]), entries[i][1], int(filled[s]),
            jobs, cols, probes, bucket, s,
        ))
    return plans


def _by_count(rows, counts, windows) -> List[tuple]:
    """Split sorted monitored sets by their count of real values:
    ``(count, sets cut to that count, their windows)`` per distinct
    count, the shape a :class:`_KsJob` takes."""
    parts = []
    for c in sorted(set(counts.tolist())):
        sel = counts == c
        parts.append((c, rows[sel, :c], windows[sel]))
    return parts


def _plan_peakless_bucket(
    mon: "Monitor",
    entries: Sequence[tuple],
    members: Sequence[tuple],
    k: int,
    stops: np.ndarray,
    filled: np.ndarray,
) -> List[_ChunkPlan]:
    """Counting plans for one bucket of sessions in a peak-less region.

    Each plan's ``static_stop`` is the first window whose untestable
    branch of :meth:`Monitor.step` can do anything but accept: one where
    the region's dim-0 set, or a testable candidate's test-dim set, is
    past the history-fill gate and holds ``min_mon_values`` real values.
    The plans have no jobs and an empty table.
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
    return [
        _ChunkPlan(
            len(entries[i][1]), int(stops[s]), entries[i][1], int(filled[s])
        )
        for s, (i, _) in enumerate(members)
    ]


def first_probe_jobs(entries: Sequence[tuple]) -> List[_KsJob]:
    """The candidate-probe jobs of each plan's first probe batch: its
    first :data:`_PROBE_BATCH` checked windows (:func:`_checked_windows`).

    ``entries`` holds ``(monitor, plan)`` pairs of scored, unwalked
    plans. Plans of one planner bucket, model and test build their
    probe sets together (:meth:`Monitor._probe_jobs`), and each plan
    then counts its first batch as scored: the caller must pass the jobs
    to :func:`score_ks_jobs` before any plan is walked. The fleet kernel
    calls this once per wave (DESIGN.md D33).
    """
    groups: Dict[tuple, list] = {}
    batches = []
    for mon, plan in entries:
        windows, _ = _checked_windows(plan)
        if not len(windows):
            continue
        todo = windows[:_PROBE_BATCH]
        batches.append((plan, len(todo)))
        cfg = mon._cfg
        key = (id(plan.bucket), id(mon.model), cfg.alpha, cfg.statistic)
        group = groups.setdefault(key, [mon, plan.bucket, [], []])
        group[2].append(np.full(len(todo), plan.slot))
        group[3].append(todo)
    jobs: List[_KsJob] = []
    for mon, bucket, slots, windows in groups.values():
        jobs.extend(mon._probe_jobs(
            bucket, np.concatenate(slots), np.concatenate(windows)
        ))
    for plan, probed in batches:
        plan.probed = probed
    return jobs


def _checked_windows(plan: _ChunkPlan) -> Tuple[np.ndarray, np.ndarray]:
    """The plan windows before ``static_stop`` that take the candidate
    check, ascending, and whether each misses its dim-0 peaks rather
    than rejects.

    A window is checked when a tested dim rejects it or it is in the
    missing-peaks branch (:class:`_Bucket`). The first call on any plan
    of a bucket finds them for every plan of the bucket in one pass, so
    every plan of a :func:`plan_chunks_pooled` call must be scored
    before any of them is walked.
    """
    if plan.checked is None:
        bucket = plan.bucket
        if bucket.checked is None:
            checked = bucket.rejected[:, : bucket.tested].any(axis=1)
            checked |= bucket.missing
            slots, windows = np.nonzero(checked)
            misses = bucket.missing[slots, windows]
            bounds = np.searchsorted(
                slots, np.arange(len(checked) + 1)
            ).tolist()
            bucket.checked = [
                (windows[a:b], misses[a:b])
                for a, b in zip(bounds, bounds[1:])
            ]
        plan.checked = bucket.checked[plan.slot]
    return plan.checked


def _sorted_pairs(
    bucket: _Bucket, slots: np.ndarray, windows: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The monitored sets of ``size`` rows ending at chunk window
    ``windows[p]`` of bucket slot ``slots[p]``, sorted, ``(pairs,
    columns, size)``, and their real-value counts, ``(pairs,
    columns)``: :func:`_sorted_windows` for scattered (slot, window)
    pairs."""
    span = bucket.n
    rows = windows[:, None] + (span - size) + np.arange(size)
    values = np.moveaxis(bucket.stream[slots[:, None], rows], -1, -2)
    csum = bucket.csum
    counts = csum[slots, windows + span] - csum[slots, windows + span - size]
    return np.sort(values, axis=-1), counts


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
        report_indices: STS index of each report, aligned with
            ``reports``.
        unscorable_flags: per-STS mask of windows skipped as unscorable
            (quality gating; all False when gating is off).
        quality: the per-window quality bitmasks, when computed.
        status: ``'ok'``, or ``'degraded'`` when so much of the run was
            unscorable that the monitoring verdict is not meaningful.
    """

    times: np.ndarray
    tracked: List[str]
    reports: List[AnomalyReport]
    rejection_flags: np.ndarray
    group_sizes: np.ndarray
    report_indices: List[int]
    unscorable_flags: Optional[np.ndarray] = None
    quality: Optional[np.ndarray] = None
    status: str = "ok"

    @property
    def reported_mask(self) -> np.ndarray:
        """Boolean per-STS mask of report firings."""
        mask = np.zeros(len(self.times), dtype=bool)
        mask[np.asarray(self.report_indices, dtype=int)] = True
        return mask

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
    profile; the rolling history ring is the only window state. Batch,
    streaming, and fleet monitoring share one execution path:
    :func:`plan_chunks_pooled` plans a chunk (a whole batch signal is one
    chunk) -- two-sample jobs in a testable region, a counting-only plan
    in a peak-less one -- and the walk/step loop (:meth:`_walk`, driven
    by :meth:`score_chunk` for one session and by the fleet kernel for
    many) walks the plan's verdict table (:meth:`commit_chunk`) through
    accepts, rejections, votes and reports up to the first region
    transition. :meth:`step`
    takes only what no table decides: unscorable windows, gaps and
    resyncs, and peak-less regions past their counting prefix; a
    testable window stepped directly is walked as a one-window plan.
    Both feed one counter machine, :meth:`_decide`. The scalar
    one-test-per-window reference lives in the test suite as the oracle
    these paths are checked against.
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
        # Region -> verdict-table layout of its plans; see _table_layout().
        self._layouts: Dict[str, tuple] = {}
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

        Without quality gating a signal holding a NaN or inf sample is
        refused with :class:`~repro.errors.SignalError`: nothing would
        flag its windows, and their spectra would be scored.
        """
        from repro.cache import get_cache, sts_fingerprint

        cfg = self._cfg
        if not cfg.quality_gating:
            require_finite(signal.samples)
        cache = get_cache()
        key = None
        if cache is not None:
            key = sts_fingerprint(signal, self.model)
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
            # The streaming gate fed the whole signal as one chunk.
            quality = StreamingQuality.from_config(
                cfg, self.model.energy_reference
            ).feed(signal.samples)
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
        :class:`repro.core.stft.StreamingQuality`; it only has an effect
        when the model's config enables ``quality_gating``.
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
        # The whole signal is one chunk, planned by the same walk/step
        # loop as the streaming and fleet paths. Columns past the
        # configured width are never pushed.
        peaks = peaks[:, : self._width]
        result = self.score_chunk(peaks, times, quality, None)
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

    def step(self, peak_row: np.ndarray, time: float, quality: int = 0):
        """Process one STS; returns (report_or_None, current_test_rejected).

        ``quality`` is the window's acquisition-quality bitmask; with
        quality gating enabled, flagged windows are skipped as unscorable
        (streak suspended) and gap/dead windows additionally invalidate
        the history and schedule a resynchronization. A window in a
        testable region is a one-window chunk (:meth:`_step_testable`);
        the branches here are the ones no verdict table decides.
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

        # The row, cut or NaN-padded to the history width.
        row = np.full((1, self._width), np.nan)
        usable = min(len(peak_row), self._width)
        row[0, :usable] = peak_row[:usable]
        profile = self.model.profile(self.current_region)
        if self._resync_remaining is None and profile.testable():
            return self._step_testable(row, time)

        self._push_rows(row)
        if self._resync_remaining is not None:
            return self._resync_step(time)

        # Peak-less region (e.g. GSM's hot loop): there is no reference
        # to test against, but the region *expects no peaks*. First try
        # to recognize a legal move to a successor; failing that,
        # persistent peaks that no successor explains are anomalous --
        # otherwise any injection arriving while the monitor sits in a
        # peak-less region would be invisible. (No candidate votes
        # here: the change counts are empty in a peak-less region.)
        if self._maybe_switch_from_untestable(
            self.model.candidate_regions(self.current_region)
        ):
            return None, False
        peaks_seen = self._recent(profile.group_size, 0) is not None
        report, rejected, _ = self._decide(
            time, False, [[]] if peaks_seen else []
        )
        return report, rejected

    def _step_testable(self, row: np.ndarray, time: float):
        """One window of a testable region, decided as a one-window
        chunk: planned, scored and walked (:meth:`commit_chunk`).

        ``row`` is ``(1, _width)``, and :meth:`step` only calls this with
        no gap pending and no resync active, so the planner cannot
        refuse the plan.
        """
        plan = plan_chunks_pooled([(self, row, None)])[0]
        score_ks_jobs(plan.jobs)
        _, rejected, found = self.commit_chunk(plan, (time,))
        return (found[0][1] if found else None), bool(rejected)

    def _decide(
        self,
        time: float,
        missing_peaks: bool,
        explanations: Sequence[Sequence[str]],
    ) -> Tuple[Optional[AnomalyReport], bool, Optional[str]]:
        """Algorithm 1's counter machine for one STS; the only copy.

        ``explanations`` has one entry per rejecting tested dim, in test
        dim order: the candidates, in candidate order, whose probes
        explain it. ``missing_peaks`` is the branch where the history is
        full but the region's expected dim-0 peaks are absent. Returns
        ``(report, rejected, target)``; ``target`` is the region to
        transition to, which the caller applies once this STS is in the
        history. :meth:`step` feeds live verdicts,
        :meth:`commit_chunk` a plan's table rows.
        """
        cfg = self._cfg
        counts = self._change_counts
        if missing_peaks:
            # Injections whose cache misses smear the loop's period erase
            # its peaks entirely -- silence here would let exactly the
            # paper's "off-chip activity" injections (Section 5.7) go
            # unseen. A region legitimately without peaks can still
            # explain it (candidate with no peaks).
            peakless = [
                name
                for name in self.model.candidate_regions(self.current_region)
                if not self.model.profile(name).testable()
            ]
            for name in peakless:
                counts[name] = counts.get(name, 0) + 1
            if not peakless:
                self._anomaly_count += 1
        elif not explanations:
            # Acceptance resets both counters (tolerating isolated
            # deviant STSs).
            self._anomaly_count = 0
            counts.clear()
            self._streak = 0
            return None, False, None

        # A candidate earns one change "vote" per step in which it explains
        # at least change_fraction of the rejecting dimensions. Requiring
        # several such steps (below) keeps one stochastic rejection from
        # flipping the tracked region.
        explained: Dict[str, int] = {}
        for names in explanations:
            if not names:
                self._anomaly_count += 1
            for name in names:
                explained[name] = explained.get(name, 0) + 1
        for name, votes in explained.items():
            if self._enough(votes, len(explanations)):
                counts[name] = counts.get(name, 0) + 1

        self._streak += 1
        # Region transition once a candidate has explained the rejections
        # for several consecutive-rejection steps.
        if counts:
            best = max(counts, key=counts.get)
            if counts[best] >= cfg.change_steps:
                return None, True, best
        if self._anomaly_count > cfg.report_threshold:
            report = AnomalyReport(
                time=time, region=self.current_region, streak=self._streak
            )
            self._anomaly_count = 0
            return report, True, None
        return None, True, None

    # -- chunk path (vectorized verdict tables) ------------------------------

    def _fast_path_ready(self) -> bool:
        """Cheap entry gate for :func:`plan_chunks_pooled`.

        True when the monitor's *state* admits a chunk plan right now
        (no pending gap resync, no active resync search), under either
        statistic. Peak-less regions qualify: they get counting-only
        plans. :meth:`score_chunk` consults it before planning the rest
        of a chunk after a step, so long resync stretches do not pay
        planning costs per window.
        """
        return not self._gap_pending and self._resync_remaining is None

    def score_chunk(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray],
        plan: Optional[_ChunkPlan] = None,
        early_exit: bool = False,
    ) -> MonitorResult:
        """Run one chunk of STSs through Algorithm 1; return its result.

        This is the one-session driver of the walk/step loop,
        :meth:`_walk`: it answers each plan request of the loop with one
        :func:`plan_chunks_pooled` call and one :func:`score_ks_jobs`
        call, and the walk scores its candidate probes itself.
        :meth:`FleetKernel.dispatch <repro.stream.batchkernel.FleetKernel.dispatch>`
        drives the same loop for many sessions at once. ``plan`` is the
        chunk's scored entry plan, or ``None`` to have the loop ask for
        it. Batch runs and streams go through here.

        With ``early_exit`` the chunk stops just after the first
        ``anomaly`` report and the result is truncated there. The
        result's ``status`` covers this chunk's windows only.
        """
        walk = self._walk(peaks, times, quality, plan, early_exit)
        try:
            entry = next(walk)
            while True:
                plan = plan_chunks_pooled([entry])[0]
                if plan is not None:
                    score_ks_jobs(plan.jobs)
                entry = walk.send(plan)
        except StopIteration as done:
            return done.value

    def _walk(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray],
        plan: Optional[_ChunkPlan] = None,
        early_exit: bool = False,
    ) -> Generator[tuple, Optional[_ChunkPlan], MonitorResult]:
        """The walk/step loop of one chunk, resumable at each plan it
        needs; the only copy (DESIGN.md D33).

        A generator: whenever the loop needs a plan for the rest of the
        chunk from window ``i`` on, it yields the planner entry ``(self,
        peaks[i:], quality[i:])`` and expects the entry's scored plan
        (or ``None``) to be sent back; it returns the chunk's
        :class:`MonitorResult`. It walks a plan's verdict table
        (:meth:`commit_chunk`) as far as it decides the chunk, and asks
        for a plan for every stretch it was not handed one for: after a
        region transition, after an unscorable window, after a step that
        accepts. It steps (:meth:`step`) only the windows no table
        decides: an unscorable window, a gap or resync stretch, and a
        peak-less region past its counting prefix, which keeps stepping
        until a window accepts (planning again after each of its
        rejections would make a long anomalous stretch quadratic).
        :meth:`score_chunk` and the fleet kernel drive it.
        """
        cfg = self._cfg
        n = len(times)
        gated = cfg.quality_gating and quality is not None
        tracked: List[str] = []
        reports: List[AnomalyReport] = []
        report_indices: List[int] = []
        rejection_flags = np.zeros(n, dtype=bool)
        unscorable_flags = np.zeros(n, dtype=bool)
        group_sizes = np.zeros(n, dtype=int)
        stop_at: Optional[int] = None
        i = 0
        while i < n:
            # A flagged window is stepped without asking the planner,
            # which would refuse it only after scanning the chunk's
            # remaining flags.
            if (
                plan is None
                and self._fast_path_ready()
                and not (gated and quality[i] & QF_UNSCORABLE)
            ):
                plan = yield (
                    self,
                    peaks[i:],
                    quality[i:] if quality is not None else None,
                )
            if plan is not None:
                region = self.current_region
                stop, rejected, found = self.commit_chunk(
                    plan, times[i:], early_exit=early_exit
                )
                end = i + stop
                tracked.extend([region] * stop)
                group_sizes[i:end] = self.model.profile(region).group_size
                if stop:
                    # A transition changes the region at the walk's last
                    # window.
                    tracked[-1] = self.current_region
                    group_sizes[end - 1] = self.model.profile(
                        self.current_region
                    ).group_size
                if rejected:
                    rejection_flags[[i + w for w in rejected]] = True
                for w, report in found:
                    reports.append(report)
                    report_indices.append(i + w)
                i = end
                if early_exit and found:
                    stop_at = i
                    break
                static_stop, plan = plan.static_stop, None
                if stop < static_stop:
                    continue
            while i < n:
                q = int(quality[i]) if quality is not None else 0
                report, rejected = self.step(
                    peaks[i], float(times[i]), quality=q
                )
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
                i += 1
                if not rejected:
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

    def commit_chunk(
        self,
        plan: _ChunkPlan,
        times: np.ndarray,
        start: int = 0,
        early_exit: bool = False,
    ) -> Tuple[int, List[int], List[Tuple[int, AnomalyReport]]]:
        """Walk a scored plan's verdict table from window ``start``.

        Each window decides through :meth:`_decide`, as :meth:`step`
        would: one that no tested dim rejects accepts; one that rejects,
        or misses its dim-0 peaks, takes the candidate verdicts from the
        table's probe columns. Those are scored in batches of checked
        windows (:func:`_checked_windows`): the first
        :data:`_PROBE_BATCH` unless the caller already scored them
        (:func:`first_probe_jobs`), then twice as many, and so on, each
        when the walk reaches it. A plan with no checked window before
        its ``static_stop`` commits as one accept. ``times`` holds the
        plan windows' times, for reports. The walk stops at the plan's
        ``static_stop``; at a region transition, with that window pushed
        and the transition applied; and, with ``early_exit``, after the
        first report. The walked rows go into the history in one write,
        and the current-region tests feed the observability buffer
        exactly as the steps would have.

        Returns ``(stop, rejected, reports)``: the plan window where the
        walk ended (exclusive), the windows whose current-region test
        rejected, and ``(window, report)`` pairs.
        """
        mmv = self._cfg.min_mon_values
        stop = plan.static_stop
        windows, misses = _checked_windows(plan)
        pos = int(np.searchsorted(windows, start)) if start else 0
        decided: List[int] = []
        found: List[Tuple[int, AnomalyReport]] = []
        target = None
        last = start - 1  # the last window decided so far
        batch = _PROBE_BATCH
        while pos < len(windows) and last + 1 < stop:
            todo = windows[pos:pos + batch]
            batch *= 2
            fresh = todo[max(0, plan.probed - pos):]
            if len(fresh):
                score_ks_jobs(self._probe_jobs(
                    plan.bucket, np.full(len(fresh), plan.slot), fresh
                ))
            table = self._explanation_table(plan, todo)
            missing = misses[pos:pos + len(todo)].tolist()
            pos += len(todo)
            for e, w in enumerate(todo.tolist()):
                if w > last + 1:
                    self._decide(0.0, False, ())  # the accepts before w
                explanations = [
                    [name for name, acc in cands if acc[e]]
                    for rej, cands in table if rej[e]
                ]
                report, _, target = self._decide(
                    float(times[w]), missing[e], explanations
                )
                decided.append(w)
                last = w
                if report is not None:
                    found.append((w, report))
                if target is not None or (report is not None and early_exit):
                    stop = w + 1
                    break
        if last + 1 < stop:
            self._decide(0.0, False, ())  # the accepts up to stop
        self._push_rows(plan.peaks[start:stop])
        if target is not None:
            self._transition_to(target)
        self.last_unscorable = False
        if OBS.enabled and self._cfg.statistic == "ks":
            for j, m in plan.cols.values():
                counts = plan.count[j, start:stop]
                scored = counts >= mmv
                if not m or not scored.any():
                    continue
                for c in np.unique(counts[scored]).tolist():
                    scale = (m * c / (m + c)) ** 0.5
                    self._ks_scaled_stats.extend(
                        (plan.d[j, start:stop][counts == c] * scale).tolist()
                    )
        return stop, decided, found

    def _table_layout(self) -> tuple:
        """The verdict-table layout of a plan in the current region,
        memoized per region: ``(dims, cols, probes, width)``, as
        :class:`_ChunkPlan` describes them, ``dims`` in column order.

        The probes are Algorithm 1's candidate check, per testable
        candidate that tests the dim: its group bounded by the current
        region's group size -- right after a transition the history still
        holds old-region STSs, and a full-size candidate group would keep
        rejecting long enough to fake an anomaly -- and the fresh suffix
        of ``min_mon_values`` STSs (at least 2 by config), which covers
        the moment just after a transition when older history is still
        mixed. The candidate explains the dim if either probe accepts.
        """
        layout = self._layouts.get(self.current_region)
        if layout is not None:
            return layout
        profile = self.model.profile(self.current_region)
        mmv = self._cfg.min_mon_values
        dims = [
            dim for dim in profile.test_dims
            if len(profile.reference_dim(dim)) > 0
        ]
        if profile.num_peaks > 0 and 0 not in dims:
            dims.insert(0, 0)
        cols = {
            dim: (j, len(profile.reference_dim(dim)))
            for j, dim in enumerate(dims)
        }
        probes: Dict[int, List[tuple]] = {}
        width = len(dims)
        for dim in dims:
            if not cols[dim][1]:
                continue
            for name in self.model.candidate_regions(self.current_region):
                cand = self.model.profile(name)
                if not cand.testable() or dim not in cand.test_dims:
                    continue
                size = min(cand.group_size, profile.group_size)
                bounded, suffix = width, width + (size != mmv)
                width = suffix + 1
                probes.setdefault(dim, []).append(
                    (name, size, bounded, suffix)
                )
        layout = (dims, cols, probes, width)
        self._layouts[self.current_region] = layout
        return layout

    def _explanation_table(
        self, plan: _ChunkPlan, windows: np.ndarray
    ) -> List[tuple]:
        """Per tested dim of ``plan``: its verdicts at ``windows`` and, per
        candidate, whether the candidate's probes accept there -- the
        bounded probe or the fresh suffix (:meth:`_table_layout`).
        Lists, so the walk reads them without numpy calls."""
        accepts = (plan.count[:, windows] >= self._cfg.min_mon_values) & (
            ~plan.rejected[:, windows]
        )
        table = []
        for dim, (j, m) in plan.cols.items():
            if not m:
                continue
            cands = [
                (name, (accepts[bounded] | accepts[suffix]).tolist())
                for name, _, bounded, suffix in plan.probes.get(dim, ())
            ]
            table.append((plan.rejected[j, windows].tolist(), cands))
        return table

    def _probe_jobs(
        self, bucket: _Bucket, slots: np.ndarray, windows: np.ndarray
    ) -> List[_KsJob]:
        """The jobs that score the candidate probes of the rejecting
        (window, dim) cells at the pairs ``(slots[p], windows[p])`` of a
        planner bucket into their probe columns; their counts are
        written here, and :func:`score_ks_jobs` writes their D and
        verdicts. Every pair's plan must be in this monitor's region,
        model and test, unwalked (:func:`first_probe_jobs` groups them).

        The sets are :meth:`_recent`'s, sorted: the last ``size`` rows of
        the slot's stream at each window, with at least
        ``min_mon_values`` real values. Its fill gate always passes here:
        a rejecting window holds ``n`` rows, and both probe sizes are at
        most ``n`` (the fresh suffix's ``min_mon_values`` because the
        rejected set held that many values). A candidate dim without a
        reference accepts any such set, as :meth:`_rejects` does.
        """
        mmv = self._cfg.min_mon_values
        test = (self._cfg.alpha, self._cfg.statistic)
        _, cols, probes, _ = self._table_layout()
        rejecting = bucket.rejected[slots, : bucket.tested, windows]
        sets: Dict[int, tuple] = {}  # probe size -> sorted sets, counts
        jobs: List[_KsJob] = []
        for dim, cands in probes.items():
            j = cols[dim][0]
            if not rejecting[:, j].any():
                continue
            parts: Dict[int, tuple] = {}  # probe size -> this dim's sets
            for name, size, bounded, suffix in cands:
                ref = self.model.profile(name).reference_dim(dim)
                # The two columns are one when the sizes are.
                for col, g in {bounded: size, suffix: mmv}.items():
                    if g not in sets:
                        sets[g] = _sorted_pairs(bucket, slots, windows, g)
                    if g not in parts:
                        rows, counts = sets[g]
                        ok = np.flatnonzero(
                            rejecting[:, j] & (counts[:, j] >= mmv)
                        )
                        parts[g] = (
                            slots[ok], windows[ok], counts[ok, j],
                            _by_count(rows[ok, j], counts[ok, j], ok),
                        )
                    s, w, counts, by_count = parts[g]
                    bucket.count[s, col, w] = counts
                    if len(ref):
                        jobs.extend(
                            _KsJob(ref, c, rows, (slots[p], windows[p]),
                                   bucket.d[:, col], bucket.rejected[:, col],
                                   test)
                            for c, rows, p in by_count
                        )
        return jobs

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> Tuple[dict, dict]:
        """Full Algorithm-1 state as ``(meta, arrays)``.

        Everything :meth:`step` reads or writes is covered: the rolling
        history matrix and its cursor, the region belief, and every
        counter of the anomaly / transition / quality state machines.
        ``_ks_scaled_stats`` is observability-only and flushed
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
        silently, and raise :class:`MonitoringError` on any of them before
        changing anything: the chunk walk trusts ``hist_pos`` and
        ``filled``, and a counter or region no run can reach would make
        it decide from a state :meth:`step` never sees. Snapshots from
        before the history became the only window state also carry
        ``push_count``, ``tracked_dims`` and per-dim
        ``dim{d}.values``/``dim{d}.ages`` sorted buffers; they are
        ignored, since the history holds the same observations.
        """
        history = np.asarray(arrays["history"], dtype=float)
        if history.shape != self._history.shape:
            raise MonitoringError(
                f"monitor snapshot history shape {history.shape} does not "
                f"match this model's {self._history.shape}"
            )
        size = len(history)
        hist_pos = int(meta["hist_pos"])
        filled = int(meta["filled"])
        region = str(meta["current_region"])
        anomaly_count = int(meta["anomaly_count"])
        change_counts = {
            str(k): int(v) for k, v in dict(meta["change_counts"]).items()
        }
        streak = int(meta["streak"])
        resync = meta["resync_remaining"]
        resync = None if resync is None else int(resync)
        timeout = self._cfg.resync_timeout
        unknown = sorted(
            {region, *change_counts} - set(self.model.profiles)
        )
        for bad, what in (
            (
                not 0 <= hist_pos < size,
                f"hist_pos {hist_pos} not in [0, {size})",
            ),
            (not 0 <= filled <= size, f"filled {filled} not in [0, {size}]"),
            (
                min(anomaly_count, streak, *change_counts.values()) < 0,
                "a negative counter",
            ),
            (
                resync is not None and not 1 <= resync <= timeout,
                f"resync_remaining {resync} not in [1, {timeout}]",
            ),
            (bool(unknown), f"regions {unknown} not in the model"),
        ):
            if bad:
                raise MonitoringError(f"monitor snapshot has {what}")
        self._history[...] = history
        self._hist_pos = hist_pos
        self._filled = filled
        self.current_region = region
        self._anomaly_count = anomaly_count
        self._change_counts = change_counts
        self._streak = streak
        self._gap_pending = bool(meta["gap_pending"])
        self._resync_remaining = resync
        self.last_unscorable = bool(meta["last_unscorable"])
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
            if prof.testable() and self._explains(
                prof, min(prof.group_size, self._filled)
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

    def _push_rows(self, rows: np.ndarray) -> None:
        """Append ``rows`` (each ``_width`` wide) to the history ring in
        one circular write."""
        pushed = len(rows)
        if not pushed:
            return
        size = self._history.shape[0]
        take = rows[-size:] if pushed > size else rows
        offsets = (
            self._hist_pos + (pushed - len(take)) + np.arange(len(take))
        ) % size
        self._history[offsets] = take
        self._hist_pos = (self._hist_pos + pushed) % size
        self._filled = min(self._filled + pushed, size)

    def _history_tail(self, n: int) -> np.ndarray:
        """The last ``n`` pushed rows in chronological order.

        Callers must keep ``n <= self._filled`` (they all gate on it)
        and only read the result: it is a view of the ring unless the
        tail wraps.
        """
        n = min(n, self._history.shape[0])
        pos = self._hist_pos
        if n <= pos:
            return self._history[pos - n:pos]
        return np.concatenate((self._history[pos - n:], self._history[:pos]))

    def _recent(self, n: int, dim: int) -> Optional[np.ndarray]:
        """The non-NaN values of one dim among the last ``n`` pushed
        rows, in chronological order, or ``None`` before ``n`` rows are
        in or when fewer than ``min_mon_values`` are real."""
        if self._filled < n:
            return None
        values = self._history_tail(n)[:, dim]
        values = values[~np.isnan(values)]
        if len(values) < self._cfg.min_mon_values:
            return None
        return values

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

    def _enough(self, accepted: int, tested: int) -> bool:
        """Algorithm 1's change rule: a region explains ``tested``
        monitored dims when it accepts at least ``max(1,
        ceil(change_fraction * tested))`` of them."""
        return tested > 0 and accepted >= max(
            1, math.ceil(self._cfg.change_fraction * tested)
        )

    def _explains(self, profile: RegionProfile, n: int) -> bool:
        """Whether ``profile``'s references explain the last ``n`` pushed
        rows (:meth:`_enough` over its test dims that hold a monitored
        set, :meth:`_recent`'s)."""
        tested = accepted = 0
        for dim in profile.test_dims:
            mon = self._recent(n, dim)
            if mon is not None:
                tested += 1
                accepted += not self._rejects(profile, dim, mon)
        return self._enough(accepted, tested)

    def _maybe_switch_from_untestable(self, candidates: Sequence[str]) -> bool:
        """Try to recognize a successor region from a peak-less one.

        Returns True when a transition happened.
        """
        for cand_name in candidates:
            cand = self.model.profile(cand_name)
            if cand.testable() and self._explains(cand, cand.group_size):
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
