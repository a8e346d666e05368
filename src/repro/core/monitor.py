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
testable region is scored from a table. The loop that does all this,
:meth:`Monitor._walk`, hands each plan request back to its driver,
:func:`walk_chunks`, the only one: it answers every waiting walk's
request in one wave (:func:`plan_wave`), so a batch run or a stream is
a wave of one and the fleet kernel plans and scores many sessions'
requests together (D33, D38).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import EddieModel, RegionProfile
from repro.core.peaks import peak_matrix
from repro.core.stats import (
    kolmogorov_sf,
    ks_critical_value,
    ks_d_int_keys,
    ks_d_int_rows,
    rank_keys,
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


class _TableJob:
    """The tested columns of a planner bucket's slots ``slots`` (a slice
    or an index array), scored under one test, their monitors' ``(alpha,
    statistic)``: one job per bucket and test (:func:`score_ks_jobs`).

    Every cell of those columns is scored, and the cells below
    ``min_mon_values`` -- the windows the planner zeroed, those whose
    set is short of real values -- are masked: their D stays 0 and their
    verdict False. K-S cells are scored from rank keys (:meth:`_score_ks`);
    U-test cells go through :func:`two_sample_reject` one by one on
    sorted value sets, and their D is NaN.
    """

    __slots__ = ("bucket", "slots", "test")

    def __init__(self, bucket, slots, test):
        self.bucket = bucket
        self.slots = slots
        self.test = test

    def score(self) -> None:
        bucket = self.bucket
        alpha, statistic = self.test
        n, k = bucket.n, bucket.count.shape[2]
        cols = slice(bucket.first_ref, bucket.tested)
        # Bound the (slots, columns, windows, n) key temporaries: a batch
        # run plans its whole signal as one chunk.
        stream = bucket.stream[self.slots]
        block = max(1, _KEY_CELLS // (len(stream) * len(bucket.refs) * n))
        for w0 in range(0, k, block):
            w = slice(w0, min(k, w0 + block))
            counts = bucket.count[self.slots, cols, w]
            scored = counts >= bucket.mmv
            if not scored.any():
                continue
            if statistic == "ks":
                d, rejected = self._score_ks(stream, counts, scored, w, alpha)
            else:
                d, rejected = self._score_rows(
                    stream, counts, scored, w, alpha, statistic
                )
            bucket.d[self.slots, cols, w] = d
            bucket.rejected[self.slots, cols, w] = rejected

    def _score_ks(self, stream, counts, scored, w, alpha):
        """K-S D and verdicts of the window block ``w`` from rank keys:
        each stream value is ranked once per reference, and each
        window's ``n`` keys are gathered and sorted (DESIGN.md D37)."""
        bucket = self.bucket
        n, sizes = bucket.n, bucket.ref_sizes
        rows = slice(w.start, w.stop + n - 1)
        keys = np.empty((len(stream), len(sizes), rows.stop - rows.start),
                        dtype=np.int64)
        for q, ref in enumerate(bucket.refs):
            keys[:, q] = rank_keys(ref, stream[:, rows, bucket.first_ref + q])
        sets = keys[..., np.arange(w.stop - w.start)[:, None] + np.arange(n)]
        sets.sort(axis=-1)
        m = np.array(sizes)[:, None]
        d = np.zeros(counts.shape)
        np.divide(ks_d_int_keys(sets, counts, m), m * counts, out=d,
                  where=scored)
        crit = _critical_values(sizes, n, alpha)
        rejected = scored & (d > crit[np.arange(len(sizes))[:, None], counts])
        return d, rejected

    def _score_rows(self, stream, counts, scored, w, alpha, statistic):
        """Verdicts of the window block ``w`` one sorted set at a time."""
        bucket = self.bucket
        n = bucket.n
        d = np.where(scored, np.nan, 0.0)
        rejected = np.zeros(counts.shape, dtype=bool)
        for s, q, x in zip(*np.nonzero(scored)):
            col = bucket.first_ref + q
            start = w.start + x
            values = np.sort(stream[s, start:start + n, col])
            rejected[s, q, x] = two_sample_reject(
                bucket.refs[q], values[: counts[s, q, x]], alpha, statistic
            )
        return d, rejected


class _ProbeJob:
    """One candidate probe column of a planner bucket at scattered cells.

    ``rows`` holds the cells' monitored sets, sorted, ``counts`` real
    values first and NaN after them, to test against the candidate's
    ``ref`` under ``test``. ``d`` and ``rejected`` are the probe column
    stacked over the bucket's slots, and ``cells`` the ``(slots,
    windows)`` pair that indexes the rows' cells in it.
    """

    __slots__ = ("ref", "rows", "counts", "cells", "d", "rejected", "test")

    def __init__(self, ref, rows, counts, cells, d, rejected, test):
        self.ref = ref
        self.rows = rows
        self.counts = counts
        self.cells = cells
        self.d = d
        self.rejected = rejected
        self.test = test

    def score(self) -> None:
        alpha, statistic = self.test
        m = len(self.ref)
        if statistic == "ks":
            d = ks_d_int_rows(self.ref, self.rows, counts=self.counts) / (
                m * self.counts
            )
            crit = _critical_values((m,), self.rows.shape[1], alpha)[0]
            rejected = d > crit[self.counts]
        else:
            d = np.nan
            rejected = [
                two_sample_reject(self.ref, row[:c], alpha, statistic)
                for row, c in zip(self.rows, self.counts.tolist())
            ]
        self.d[self.cells] = d
        self.rejected[self.cells] = rejected


#: Key cells (slots x columns x windows x group size) one block of a
#: :class:`_TableJob` sorts and scores at a time.
_KEY_CELLS = 1 << 16


@lru_cache(maxsize=1024)
def _critical_values(sizes: tuple, g: int, alpha: float) -> np.ndarray:
    """``(len(sizes), g + 1)``: row ``q``, column ``c`` is the K-S
    critical value for references of ``sizes[q]`` values and monitored
    sets of ``c`` (:func:`ks_critical_value`); column 0 is never read
    unmasked and holds inf."""
    table = np.full((len(sizes), g + 1), np.inf)
    for q, m in enumerate(sizes):
        table[q, 1:] = [
            ks_critical_value(m, c, alpha) for c in range(1, g + 1)
        ]
    table.flags.writeable = False
    return table


class _Bucket:
    """The stacked arrays of one planner bucket of testable-region
    sessions (see :func:`plan_chunks_pooled`); each plan of the bucket
    is one slot of them.

    ``count``, ``d`` and ``rejected`` are the ``(slots, columns, k)``
    verdict tables. ``stream`` and ``csum`` are the monitored-value
    streams and their running non-NaN counts (:func:`_stacked_streams`,
    span ``n``, the region's group size), from which the tested columns
    and the candidate probes are scored. ``missing`` is ``(slots, k)``:
    the windows in the missing-peaks branch, past the fill gate and
    before ``static_stop`` with fewer than ``mmv`` (``min_mon_values``)
    real dim-0 values. ``tested`` counts the tested-dim columns; the
    columns from ``first_ref`` on have the sorted references ``refs``,
    of ``ref_sizes`` values (only a dim-0 column kept for its count
    lacks one, and it comes first). ``checked`` holds each slot's
    :func:`_checked_windows` once known.
    """

    __slots__ = ("n", "mmv", "tested", "first_ref", "refs", "ref_sizes",
                 "count", "d", "rejected", "stream", "csum", "missing",
                 "checked")

    def __init__(self, n, mmv, refs, tested, table, stream, csum, missing):
        self.checked: Optional[List[tuple]] = None
        self.n = n
        self.mmv = mmv
        self.tested = tested
        self.first_ref = tested - len(refs)
        self.refs = refs
        self.ref_sizes = tuple(len(ref) for ref in refs)
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
    is a view of. ``jobs`` holds the bucket's table jobs
    (:class:`_TableJob`) on its first plan and is empty on the others.
    ``filled`` is the history fill at entry. A counting plan (peak-less
    region) has an empty table and no bucket.

    ``checked`` holds the windows that take the candidate check
    (:func:`_checked_windows`) once known. The wave that made the plan
    (:func:`plan_wave`) scored the probes of the first
    :data:`_PROBE_BATCH` of them.
    """

    __slots__ = ("k", "static_stop", "peaks", "filled", "jobs", "cols",
                 "probes", "count", "d", "rejected", "bucket", "slot",
                 "checked")

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


#: Checked windows -- rejecting, or missing their dim-0 peaks -- whose
#: candidate probes make up a plan's first probe batch. Each wave scores
#: its plans' first batches in one pooled call before the walks resume
#: (:func:`plan_wave`, DESIGN.md D33); a walk scores each later batch
#: itself when it reaches it, twice as large as the one before, so a
#: walk that stops at an early region transition does not pay for the
#: windows behind it.
_PROBE_BATCH = 16


def score_ks_jobs(jobs: Sequence) -> None:
    """Score every job into its verdict table: the one scoring entry.

    A planner bucket's tested columns are one :class:`_TableJob` per
    test its slots use, and each candidate's probe column is one
    :class:`_ProbeJob`. K-S cells are scored from rank keys
    (:func:`~repro.core.stats.ks.rank_keys`), in exact integers, and
    their rejection threshold is the cached :func:`ks_critical_value`;
    U-test cells go through :func:`two_sample_reject` one by one, and
    their D cells stay NaN. Both tests are order-invariant, so sorted
    sets decide as the chronological sets would, and every cell's D and
    verdict are bit-identical to one test per window.
    """
    for job in jobs:
        job.score()


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
    candidate references from its own model. Each bucket's monitored
    streams (history tails plus chunk rows), their validity counts and
    its verdict tables are single numpy operations and allocations over
    a ``(sessions, rows, dims)`` stack; no set is gathered or sorted
    here, since :class:`_TableJob` sorts rank keys. Each session keeps its
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
    alike: a bucket gets one table job per ``(alpha, statistic)`` its
    monitors use, on its first plan. Its one caller, :func:`plan_wave`,
    scores the plans -- all of them before any is walked, since
    :func:`_checked_windows` reads a whole bucket.
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
    """Plans, table jobs and verdict tables for one bucket of sessions in
    a testable region, ``k`` windows long (its longest chunk). ``mon`` is
    any member's monitor: they share the region profile and its
    candidates' layout."""
    profile = mon.model.profile(mon.current_region)
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
    # A window is K-S eligible once the history (plus the chunk's own
    # pushes up to it) holds n rows -- the _recent() gate.
    first = np.maximum(0, n - filled - 1)
    live = (window_all >= first[:, None]) & (window_all < stops[:, None])
    cnt = count[:, : len(dims)]
    cnt[...] = np.moveaxis(csum[:, n:] - csum[:, :k], -1, -2)
    cnt *= live[:, None]
    mmv = mon._cfg.min_mon_values
    missing = (
        live & (cnt[:, cols[0][0]] < mmv) if 0 in cols
        else np.zeros(live.shape, dtype=bool)
    )
    refs = [profile.reference_dim(dim) for dim, (_, m) in cols.items() if m]
    bucket = _Bucket(
        n, mmv, refs, len(dims), (count, d, rejected), stream, csum, missing
    )
    # One table job per test; slots whose monitors disagree on it are
    # each scored under their own.
    tests: Dict[tuple, List[int]] = {}
    for s, (i, _) in enumerate(members):
        cfg = entries[i][0]._cfg
        tests.setdefault((cfg.alpha, cfg.statistic), []).append(s)
    jobs = [
        _TableJob(bucket, slice(None) if len(tests) == 1 else np.array(slots),
                  test)
        for test, slots in tests.items()
    ] if refs else []
    return [
        _ChunkPlan(
            len(entries[i][1]), int(stops[s]), entries[i][1], int(filled[s]),
            jobs if s == 0 else (), cols, probes, bucket, s,
        )
        for s, (i, _) in enumerate(members)
    ]


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


def first_probe_jobs(entries: Sequence[tuple]) -> List[_ProbeJob]:
    """The candidate-probe jobs of each plan's first probe batch: its
    first :data:`_PROBE_BATCH` checked windows (:func:`_checked_windows`).

    ``entries`` holds ``(monitor, plan)`` pairs of scored, unwalked
    plans. Plans of one planner bucket, model and test build their
    probe sets together (:meth:`Monitor._probe_jobs`). :func:`plan_wave`
    scores the jobs before any plan is walked, and
    :meth:`Monitor.commit_chunk` counts on it.
    """
    groups: Dict[tuple, list] = {}
    for mon, plan in entries:
        windows, _ = _checked_windows(plan)
        if not len(windows):
            continue
        todo = windows[:_PROBE_BATCH]
        cfg = mon._cfg
        key = (id(plan.bucket), id(mon.model), cfg.alpha, cfg.statistic)
        group = groups.setdefault(key, [mon, plan.bucket, [], []])
        group[2].append(np.full(len(todo), plan.slot))
        group[3].append(todo)
    jobs: List[_ProbeJob] = []
    for mon, bucket, slots, windows in groups.values():
        jobs.extend(mon._probe_jobs(
            bucket, np.concatenate(slots), np.concatenate(windows)
        ))
    return jobs


def plan_wave(
    entries: Sequence[tuple],
) -> List[Union[Optional[_ChunkPlan], Exception]]:
    """Answer one wave of plan requests: the only caller of
    :func:`plan_chunks_pooled`.

    ``entries`` are the walks' planner entries (:meth:`Monitor._walk`).
    One :func:`plan_chunks_pooled` call plans them all, one
    :func:`score_ks_jobs` call scores the plans' verdict tables, and one
    :func:`first_probe_jobs` call builds each plan's first probe batch,
    which one more :func:`score_ks_jobs` call scores. Returns one slot
    per entry: its plan, ``None`` where the planner declines, or the
    exception the entry raised. If the pooled planner or probe builder
    raises, it is called again for each entry alone, so the exception
    lands in the slot of the entry that raised it.
    """
    try:
        plans: list = plan_chunks_pooled(entries)
    except Exception:
        plans = []
        for entry in entries:
            try:
                plans.append(plan_chunks_pooled([entry])[0])
            except Exception as exc:
                plans.append(exc)
    planned = {
        e: (entries[e][0], plan)
        for e, plan in enumerate(plans)
        if isinstance(plan, _ChunkPlan)
    }
    score_ks_jobs([job for _, plan in planned.values() for job in plan.jobs])
    try:
        probes = first_probe_jobs(list(planned.values()))
    except Exception:
        probes = []
        for e, entry in planned.items():
            try:
                probes.extend(first_probe_jobs([entry]))
            except Exception as exc:
                plans[e] = exc
    score_ks_jobs(probes)
    return plans


def walk_chunks(
    walks: Sequence[Generator],
) -> List[Union[MonitorResult, Exception]]:
    """Drive walk/step loops (:meth:`Monitor._walk`) to their ends: the
    only walk driver (DESIGN.md D38).

    Each walk runs until it asks for a plan. While any walk waits, one
    wave (:func:`plan_wave`) answers every waiting walk, and each walk
    then resumes until it asks again or finishes. Returns one slot per
    walk: its :class:`MonitorResult`, or the exception it raised, which
    ends that walk alone. A batch run or a stream chunk is a wave of
    one; the fleet kernel hands over a whole round's walks, so its
    scorer calls follow the number of waves, not of sessions (D33).
    """
    slots: list = [None] * len(walks)
    requests: Dict[int, tuple] = {}

    def resume(i: int, plan: Optional[_ChunkPlan]) -> None:
        try:
            requests[i] = walks[i].send(plan)
        except StopIteration as done:
            slots[i] = done.value
        except Exception as exc:
            slots[i] = exc

    for i in range(len(walks)):
        resume(i, None)
    while requests:
        wave = list(requests)
        plans = plan_wave([requests.pop(i) for i in wave])
        for i, plan in zip(wave, plans):
            if isinstance(plan, Exception):
                slots[i] = plan
            else:
                resume(i, plan)
    return slots


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
    columns)``. The ascending sort pushes each set's NaNs past its count
    of real values, so the leading count entries are exactly
    :meth:`Monitor._recent`'s sorted monitored set."""
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
    by :func:`walk_chunks` for one session or a whole fleet round) walks
    the plan's verdict table (:meth:`commit_chunk`) through accepts,
    rejections, votes and reports up to the first region transition.
    :meth:`step` takes only what no table decides: unscorable windows,
    gaps and resyncs, and peak-less regions past their counting prefix;
    a testable window stepped directly is walked as a one-window plan.
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
        # commits when observability is on; each walk flushes them
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
        result = self.score_chunk(peaks, times, quality)
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

        Counters are accumulated locally inside :meth:`_walk`
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
        chunk: planned and scored as a wave of one (:func:`plan_wave`)
        and walked (:meth:`commit_chunk`).

        ``row`` is ``(1, _width)``, and :meth:`step` only calls this with
        no gap pending and no resync active, so the planner cannot
        refuse the plan.
        """
        plan = plan_wave([(self, row, None)])[0]
        if isinstance(plan, Exception):
            raise plan
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
        plans. :meth:`_walk` consults it before asking for a plan for
        the rest of a chunk after a step, so long resync stretches do
        not pay planning costs per window.
        """
        return not self._gap_pending and self._resync_remaining is None

    def score_chunk(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray],
        early_exit: bool = False,
    ) -> MonitorResult:
        """Run one chunk of STSs through Algorithm 1; return its result.

        The chunk's walk/step loop (:meth:`_walk`) is driven by
        :func:`walk_chunks` as a wave of one, and an exception it raised
        is raised here. Batch runs and streams go through here;
        :meth:`FleetKernel.dispatch <repro.stream.batchkernel.FleetKernel.dispatch>`
        hands many sessions' walks to :func:`walk_chunks` at once.

        With ``early_exit`` the chunk stops just after the first
        ``anomaly`` report and the result is truncated there. The
        result's ``status`` covers this chunk's windows only.
        """
        walk = self._walk(peaks, times, quality, early_exit)
        result = walk_chunks([walk])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def _walk(
        self,
        peaks: np.ndarray,
        times: np.ndarray,
        quality: Optional[np.ndarray],
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
        :func:`walk_chunks` drives it.
        """
        cfg = self._cfg
        n = len(times)
        plan: Optional[_ChunkPlan] = None
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
            np.count_nonzero(unscorable_flags) / len(unscorable_flags)
            >= cfg.max_unscorable_fraction
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
        early_exit: bool = False,
    ) -> Tuple[int, List[int], List[Tuple[int, AnomalyReport]]]:
        """Walk the verdict table of a plan from :func:`plan_wave`.

        Each window decides through :meth:`_decide`, as :meth:`step`
        would: one that no tested dim rejects accepts; one that rejects,
        or misses its dim-0 peaks, takes the candidate verdicts from the
        table's probe columns. Those are scored in batches of checked
        windows (:func:`_checked_windows`): the first
        :data:`_PROBE_BATCH`, which the wave scored, then twice as many,
        and so on, each when the walk reaches it. A plan with no checked
        window before its ``static_stop`` commits as one accept.
        ``times`` holds the plan windows' times, for reports. The walk
        stops at the plan's ``static_stop``; at a region transition,
        with that window pushed and the transition applied; and, with
        ``early_exit``, after the first report. The walked rows go into the history in one write,
        and the current-region tests feed the observability buffer
        exactly as the steps would have.

        Returns ``(stop, rejected, reports)``: the plan window where the
        walk ended (exclusive), the windows whose current-region test
        rejected, and ``(window, report)`` pairs.
        """
        mmv = self._cfg.min_mon_values
        stop = plan.static_stop
        windows, misses = _checked_windows(plan)
        pos = 0
        decided: List[int] = []
        found: List[Tuple[int, AnomalyReport]] = []
        target = None
        last = -1  # the last window decided so far
        batch = _PROBE_BATCH
        while pos < len(windows) and last + 1 < stop:
            todo = windows[pos:pos + batch]
            batch *= 2
            if pos:  # the wave scored the first batch
                score_ks_jobs(self._probe_jobs(
                    plan.bucket, np.full(len(todo), plan.slot), todo
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
        self._push_rows(plan.peaks[:stop])
        if target is not None:
            self._transition_to(target)
        self.last_unscorable = False
        if OBS.enabled and self._cfg.statistic == "ks":
            for j, m in plan.cols.values():
                counts = plan.count[j, :stop]
                scored = counts >= mmv
                if not m or not scored.any():
                    continue
                for c in np.unique(counts[scored]).tolist():
                    scale = (m * c / (m + c)) ** 0.5
                    self._ks_scaled_stats.extend(
                        (plan.d[j, :stop][counts == c] * scale).tolist()
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
    ) -> List[_ProbeJob]:
        """The jobs that score the candidate probes of the rejecting
        (window, dim) cells at the pairs ``(slots[p], windows[p])`` of a
        planner bucket into their probe columns; their counts are
        written here, and :func:`score_ks_jobs` writes their D and
        verdicts. Every pair's plan must be in this monitor's region,
        model and test (:func:`first_probe_jobs` groups them).

        The sets are :meth:`_recent`'s, sorted: the last ``size`` rows of
        the slot's stream at each window, with at least
        ``min_mon_values`` real values, of ragged counts. Its fill gate
        always passes here: a rejecting window holds ``n`` rows, and both
        probe sizes are at most ``n`` (the fresh suffix's
        ``min_mon_values`` because the rejected set held that many
        values). A candidate dim without a reference accepts any such
        set, as :meth:`_rejects` does.
        """
        mmv = self._cfg.min_mon_values
        test = (self._cfg.alpha, self._cfg.statistic)
        _, cols, probes, _ = self._table_layout()
        rejecting = bucket.rejected[slots, : bucket.tested, windows]
        sets: Dict[int, tuple] = {}  # probe size -> sorted sets, counts
        jobs: List[_ProbeJob] = []
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
                            (slots[ok], windows[ok]), rows[ok, j],
                            counts[ok, j],
                        )
                    cells, rows, counts = parts[g]
                    bucket.count[cells[0], col, cells[1]] = counts
                    if len(ref) and len(counts):
                        jobs.append(_ProbeJob(
                            ref, rows, counts, cells, bucket.d[:, col],
                            bucket.rejected[:, col], test,
                        ))
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
