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
   advances its STFT state and stages the chunk: the sample buffer its
   completed windows lie in and their starts (per-session, cheap,
   stateful; no frame is copied yet);
2. **group** -- staged sessions are bucketed by pooling key: model
   identity (program, sample rate, config fingerprint) plus stream mode
   and sample dtype. Sessions that cannot pool -- divergent config, a
   chunk that completed no window, a stopped stream -- simply form their
   own bucket or skip straight to emit; there is no special-cased
   "fallback mode", the scalar path *is* the group of size one;
3. **gather + transform + peaks** -- per bucket, one
   :func:`_gather_frames` call copies every member's frames out of the
   concatenated buffers into one array, which one
   :func:`_transform_frames` call transforms in place, and one
   :func:`peak_rows` call extracts the peaks. All three are per-row
   computations -- :meth:`StreamingStft.transform` is the same gather
   and transform for a group of one -- so pooling is bit-identical to
   per-session calls (see their docstrings; DESIGN.md D34);
4. **walk** -- each session's walk/step loop
   (:meth:`Monitor._walk <repro.core.monitor.Monitor._walk>`) goes to
   :func:`~repro.core.monitor.walk_chunks`, the one walk driver, which
   :meth:`Monitor.score_chunk` also uses for a single session. It runs
   the walks in waves: each wave plans every waiting session in one
   pooled call, scores their verdict tables and first candidate-probe
   batches in one call each (:func:`~repro.core.monitor.plan_wave`),
   and resumes each walk until it asks for its next plan -- after a
   region transition, an unscorable window or a step that accepts --
   or finishes (DESIGN.md D33, D38);
5. **finish** -- a finished walk's chunk result is folded into its
   stream's counters (per-session).

The chunk start, every re-plan and every first probe batch are thus
pooled fleet-wide; the number of scorer calls per round follows the
number of waves -- the most re-plans any one session needs -- not the
number of sessions.

Canonical state lives only in each session's ``StreamingMonitor``; the
kernel holds no per-session state between rounds. Snapshot, restore,
detach, and eviction therefore need no kernel-side pack/unpack -- a
session can leave a group mid-stream and rejoin (or continue scalar)
with bit-identical results, which is what ``tests/test_fleet_kernel.py``
sweeps.

Failures are isolated per session: an exception raised while staging,
emitting, planning or walking one session lands in that session's
result slot, that session leaves the round, and the rest of the round
completes normally.
"""

from __future__ import annotations

import weakref
from typing import Dict, Generator, List, Sequence, Tuple, Union

import numpy as np

from repro.core.model import EddieModel
from repro.core.monitor import MonitorResult, walk_chunks
# Unused here: bound only for perfbench's traced fleet workload, which
# wraps these two names.
from repro.core.monitor import plan_chunks_pooled, score_ks_jobs  # noqa: F401
from repro.core.peaks import peak_rows
from repro.core.stft import _gather_frames, _transform_frames
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
        # mode and sample dtype must match too so concatenation cannot
        # upcast one session's samples through another's.
        groups: Dict[tuple, List[int]] = {}
        for i in active:
            staged = staged_list[i]
            if staged.n == 0:
                continue
            monitor = items[i][0]
            key = (
                self._model_key(monitor.model),
                bool(monitor._stft._is_complex),
                staged.buffer.dtype.str,
            )
            groups.setdefault(key, []).append(i)

        power_of: Dict[int, np.ndarray] = {}
        peaks_of: Dict[int, np.ndarray] = {}
        freqs_of: Dict[int, np.ndarray] = {}
        pooled_windows = 0
        for members in groups.values():
            first = items[members[0]][0]
            stft = first._stft
            # No name here keeps the gathered frames alive past the
            # transform, so they are freed before the next group gathers
            # and the allocator can hand their pages on (DESIGN.md D34).
            power, freqs = _transform_frames(
                _gather_frames(
                    [staged_list[i].buffer for i in members],
                    [staged_list[i].starts for i in members],
                    stft.window_samples,
                ),
                stft._is_complex, stft._taper_arr, stft._detrend,
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

        # Per-session emit; each session that completed windows hands
        # its walk/step loop to the walk driver.
        walks: Dict[int, Generator] = {}
        for i in active:
            monitor = items[i][0]
            try:
                seq = monitor._emit_windows(
                    staged_list[i], power_of.get(i), freqs_of.get(i)
                )
            except Exception as exc:
                results[i] = exc
                continue
            if len(seq) == 0:
                results[i] = []
                continue
            walks[i] = monitor._monitor._walk(
                peaks_of[i], seq.times, seq.quality,
                early_exit=monitor._early_exit,
            )

        for i, done in zip(walks, walk_chunks(list(walks.values()))):
            results[i] = (
                done if isinstance(done, Exception)
                else [items[i][0]._fold_result(done)]
            )

        if OBS.enabled:
            record_count("stream.fleet", "kernel_dispatches")
            if pooled_windows:
                record_count(
                    "stream.fleet", "kernel_pooled_windows", pooled_windows
                )
        return results
