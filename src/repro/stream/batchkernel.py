"""Cross-session batch kernel: one vectorized pass over a fleet round.

A fleet of monitoring sessions is mostly *isomorphic*: sessions trained
on the same model share the window length, taper, FFT mode, peak
criteria, and K-S references, differing only in their private stream
state. Feeding them one by one re-enters numpy once per session per
stage and pays the per-call fixed cost -- argument checking, small-array
dispatch, allocator churn -- hundreds of times per round.

:class:`FleetKernel` removes that multiplier. One :meth:`dispatch` round
drives every session's chunk through the same stages as
:meth:`StreamingMonitor.feed`, but pools the expensive middle across the
whole group:

1. **stage** -- each session's :meth:`~StreamingMonitor._stage_chunk`
   advances its STFT state and stages the chunk's frames (per-session,
   cheap, stateful);
2. **group** -- staged sessions are bucketed by pooling key: model
   identity (program, sample rate, config fingerprint) plus stream mode
   and frame dtype. Sessions that cannot pool -- divergent config, a
   chunk that completed no window, a stopped stream -- simply form their
   own bucket or skip straight to emit; there is no special-cased
   "fallback mode", the scalar path *is* the group of size one;
3. **transform + peaks** -- one :func:`_transform_frames` and one
   :func:`peak_rows` call per bucket over the concatenated frames. Both
   are per-row computations, so pooling is bit-identical to per-session
   calls (see their docstrings);
4. **plan** -- one :func:`plan_chunks_pooled` call builds every
   session's K-S jobs and verdict table against its own history, stacking
   sessions that share a region profile and window count (steady,
   history-filling, and quality-flagged alike) into single numpy passes;
5. **score** -- all sessions' jobs are scored in one
   :func:`score_ks_jobs` pass per alpha; the scorer already pools rows
   by (reference, count), so sessions sharing a model collapse into
   single :func:`ks_d_int_rows` calls across the whole fleet;
6. **finish** -- each session runs :meth:`Monitor.score_chunk`: it
   walks its plan's verdict table (candidate probes scored on demand),
   steps only what no table decides, and assembles its chunk result
   (per-session).

Canonical state lives only in each session's ``StreamingMonitor``; the
kernel holds no per-session state between rounds. Snapshot, restore,
detach, and eviction therefore need no kernel-side pack/unpack -- a
session can leave a group mid-stream and rejoin (or continue scalar)
with bit-identical results, which is what ``tests/test_fleet_kernel.py``
sweeps.

Failures are isolated per session: an exception raised while staging,
planning, or finishing one session lands in that session's result slot
and the rest of the round completes normally.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.model import EddieModel
from repro.core.monitor import (
    MonitorResult,
    plan_chunks_pooled,
    score_ks_jobs,
)
from repro.core.peaks import peak_rows
from repro.core.stft import _transform_frames
from repro.obs import OBS, record_count
from repro.stream.engine import ChunkLike, StreamingMonitor

__all__ = ["FleetKernel"]

#: One dispatch slot: the session's chunk results, or the exception that
#: stopped that session's round (other sessions are unaffected).
DispatchResult = Union[List[MonitorResult], Exception]


class FleetKernel:
    """Batches isomorphic sessions' chunks through shared vectorized ops.

    Stateless apart from a model-key cache; safe to share across rounds
    and cheap to construct. See the module docstring for the pipeline.
    """

    def __init__(self) -> None:
        # id(model) -> (weakref, pooling key). The fingerprint hash is
        # not free, so it is computed once per live model object; the
        # weakref guards against id() reuse after a model is collected.
        self._model_keys: Dict[int, Tuple[weakref.ref, tuple]] = {}

    def _model_key(self, model: EddieModel) -> tuple:
        entry = self._model_keys.get(id(model))
        if entry is not None:
            ref, key = entry
            if ref() is model:
                return key
        from repro.serialize import config_fingerprint

        key = (
            model.program_name,
            float(model.sample_rate),
            config_fingerprint(model.config),
        )
        self._model_keys[id(model)] = (weakref.ref(model), key)
        return key

    def dispatch(
        self, items: Sequence[Tuple[StreamingMonitor, ChunkLike]]
    ) -> List[DispatchResult]:
        """Feed one chunk into each monitor, pooling the shared math.

        Returns one slot per item, aligned with the input: the list of
        :class:`MonitorResult` the chunk produced (empty while the
        stream is inside its first window or after it stopped), or the
        exception that session raised. Each monitor must appear at most
        once per dispatch -- planning reads the history the previous
        chunk's commit wrote, so two chunks for one session cannot share
        a round (:meth:`FleetScheduler.feed_many` wave-splits
        duplicates).
        """
        n = len(items)
        results: List[DispatchResult] = [None] * n  # type: ignore[list-item]
        staged_list = [None] * n
        active: List[int] = []

        for i, (monitor, samples) in enumerate(items):
            try:
                staged = monitor._stage_chunk(samples)
            except Exception as exc:
                results[i] = exc
                continue
            if staged is None:  # stopped stream accepts no further input
                results[i] = []
                continue
            staged_list[i] = staged
            active.append(i)

        # Bucket window-completing sessions by pooling compatibility.
        # The model key fixes every transform/peak parameter; the stream
        # mode and frame dtype must match too so concatenation cannot
        # upcast one session's frames through another's.
        groups: Dict[tuple, List[int]] = {}
        for i in active:
            staged = staged_list[i]
            if staged.n == 0:
                continue
            monitor = items[i][0]
            key = (
                self._model_key(monitor.model),
                bool(monitor._stft._is_complex),
                staged.frames.dtype.str,
            )
            groups.setdefault(key, []).append(i)

        power_of: Dict[int, np.ndarray] = {}
        peaks_of: Dict[int, np.ndarray] = {}
        freqs_of: Dict[int, np.ndarray] = {}
        pooled_windows = 0
        for members in groups.values():
            first = items[members[0]][0]
            stft = first._stft
            if len(members) == 1:
                frames = staged_list[members[0]].frames
            else:
                frames = np.concatenate(
                    [staged_list[i].frames for i in members]
                )
            power, freqs = _transform_frames(
                frames, stft._is_complex, stft._taper_arr, stft._detrend,
                stft._fold, stft.window_samples, stft.sample_rate,
            )
            cfg = first._cfg
            peaks = peak_rows(
                power, freqs, cfg.energy_fraction, cfg.max_peaks,
                cfg.peak_prominence, cfg.diffuse_features,
            )
            offset = 0
            for i in members:
                count = staged_list[i].n
                power_of[i] = power[offset:offset + count]
                peaks_of[i] = peaks[offset:offset + count]
                freqs_of[i] = freqs
                offset += count
            pooled_windows += offset

        # Per-session emit, then one pooled planning pass over every
        # session that completed windows (see plan_chunks_pooled).
        seqs: Dict[int, tuple] = {}
        planned: List[int] = []
        for i in active:
            monitor = items[i][0]
            staged = staged_list[i]
            try:
                seq = monitor._emit_windows(
                    staged, power_of.get(i), freqs_of.get(i)
                )
            except Exception as exc:
                results[i] = exc
                continue
            if len(seq) == 0:
                results[i] = []
                continue
            seqs[i] = (seq, peaks_of[i])
            planned.append(i)

        plan_of: Dict[int, object] = {}
        try:
            pooled = plan_chunks_pooled([
                (items[i][0]._monitor, seqs[i][1], seqs[i][0].quality)
                for i in planned
            ])
            for i, plan in zip(planned, pooled):
                plan_of[i] = plan
        except Exception:
            # If the pooled call fails, plan each session as a group of
            # one so the exception lands on the session that raised it.
            for i in planned:
                seq, peaks = seqs[i]
                try:
                    plan_of[i] = plan_chunks_pooled(
                        [(items[i][0]._monitor, peaks, seq.quality)]
                    )[0]
                except Exception as exc:
                    results[i] = exc
                    del seqs[i]

        # Score every session's jobs fleet-wide: jobs pool across
        # sessions (and even across groups) as long as they share the
        # significance level; the scorer splits by reference identity
        # internally.
        jobs_by_alpha: Dict[float, list] = {}
        for i, plan in plan_of.items():
            if i in seqs and plan is not None and plan.jobs:
                jobs_by_alpha.setdefault(
                    float(items[i][0]._cfg.alpha), []
                ).extend(plan.jobs)
        for alpha, jobs in jobs_by_alpha.items():
            score_ks_jobs(jobs, alpha)

        for i in active:
            if i not in seqs:
                continue
            monitor = items[i][0]
            seq, peaks = seqs[i]
            try:
                results[i] = [
                    monitor._finish_windows(seq, peaks, plan_of.get(i))
                ]
            except Exception as exc:
                results[i] = exc

        if OBS.enabled:
            record_count("stream.fleet", "kernel_dispatches")
            if pooled_windows:
                record_count(
                    "stream.fleet", "kernel_pooled_windows", pooled_windows
                )
        return results
