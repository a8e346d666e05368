"""The streaming monitor engine: Algorithm 1 over chunked IQ.

EDDIE's monitoring algorithm is inherently online -- it scores STSs
window by window -- but :meth:`Monitor.run_signal` needs the whole
capture in memory before the first verdict. :class:`StreamingMonitor`
closes that gap: it accepts arbitrary-size sample chunks via
:meth:`~StreamingMonitor.feed`, carries the STFT tail across chunk
boundaries (:class:`~repro.core.stft.StreamingStft`), extracts peaks and
quality flags per completed window, and hands each chunk to
:meth:`Monitor.score_chunk`, which drives the walk/step loop as a wave
of one, as batch monitoring does over a whole signal as one chunk. Steady-state memory is O(1) in the stream
length: the residual sample tail, the monitor's bounded rolling
history, and (optionally) per-chunk results the caller has not consumed.

Bit-identity contract (DESIGN.md D17): for any chunking of the same
signal, concatenating the per-chunk results equals
``Monitor.run_signal``'s result exactly. With ``quality_gating`` enabled
every quality flag but *clipped* remains exact: batch and stream run the
same gate (:class:`~repro.core.stft.StreamingQuality`, DESIGN.md D36),
whose rail is the running maximum -- a fielded receiver cannot consult
the end of a capture it has not seen. Without gating, a chunk holding a
NaN or inf sample is refused with :class:`~repro.errors.SignalError`
before any stream state changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.core.model import EddieModel
from repro.core.monitor import AnomalyReport, Monitor, MonitorResult
# Unused here: bound only for perfbench's traced denoise workload, which
# wraps this name.
from repro.core.monitor import score_ks_jobs  # noqa: F401
from repro.core.peaks import peak_matrix
from repro.core.stft import (
    SpectrumSequence,
    StreamingQuality,
    StreamingStft,
    require_finite,
)
from repro.dsp import FrontendChain
from repro.errors import MonitoringError, SignalError
from repro.obs import OBS, span
from repro.types import Signal

__all__ = ["StreamSnapshot", "StreamingMonitor", "StreamSummary"]

ChunkLike = Union[np.ndarray, Signal]

_SNAPSHOT_KIND = "stream-snapshot"


@dataclass(frozen=True)
class StreamSnapshot:
    """The complete resumable state of one monitoring stream.

    ``meta`` is a JSON-able dict (counters, region belief, config
    fingerprint, anomaly reports so far); ``arrays`` maps names to the
    numeric state (STFT carry samples, rolling history, the quality
    gate's carry). The pair round-trips
    losslessly through :func:`repro.serialize.snapshot_to_bytes`, and a
    stream restored from it continues bit-identically to one that was
    never interrupted (DESIGN.md D19).
    """

    meta: dict
    arrays: dict


@dataclass(frozen=True)
class StreamSummary:
    """Closing statistics of one monitoring stream.

    Attributes:
        session_id: the fleet session this stream belonged to (empty for
            standalone streams).
        chunks: chunks fed.
        samples: raw samples consumed (including the residual tail).
        windows: STSs scored or skipped.
        reports: every anomaly/desync report, in time order.
        unscorable_fraction: share of windows skipped as unscorable.
        status: ``'ok'`` or ``'degraded'`` (same criterion as batch runs).
        stopped_early: whether early-exit ended the stream at the first
            anomaly.
    """

    session_id: str
    chunks: int
    samples: int
    windows: int
    reports: List[AnomalyReport] = field(default_factory=list)
    unscorable_fraction: float = 0.0
    status: str = "ok"
    stopped_early: bool = False

    @property
    def detected(self) -> bool:
        return any(r.kind == "anomaly" for r in self.reports)


class StreamingMonitor:
    """Chunked, stateful front end over :class:`~repro.core.monitor.Monitor`.

    Args:
        model: the trained :class:`~repro.core.model.EddieModel`. Shared
            by reference between sessions -- its per-region sorted
            references are precomputed once and reused by every monitor
            bound to it.
        early_exit: stop scoring at the first ``anomaly`` report; the
            chunk result is truncated just after the reporting window and
            later ``feed`` calls return nothing.
        keep_history: retain per-chunk results so :meth:`result` can
            reassemble the full stream-wide :class:`MonitorResult`.
            Costs O(stream length); leave off for long-lived sessions.
        t0: absolute time of the first sample fed.
        session_id: label used in summaries and per-session metrics.
    """

    def __init__(
        self,
        model: EddieModel,
        *,
        early_exit: bool = False,
        keep_history: bool = False,
        t0: float = 0.0,
        session_id: str = "",
    ) -> None:
        self.model = model
        self.session_id = session_id
        cfg = model.config
        self._cfg = cfg
        self._monitor = Monitor(model)
        quality = None
        if cfg.quality_gating:
            quality = StreamingQuality.from_config(
                cfg, model.energy_reference
            )
        self._stft = StreamingStft(
            model.sample_rate,
            cfg.window_samples,
            cfg.overlap,
            t0=t0,
            quality=quality,
        )
        # Preprocessing front end (DESIGN.md D22): raw chunks pass
        # through the chain before the STFT sees them; finish() flushes
        # the chain's buffered tail through scoring so streaming matches
        # the batch pipeline sample for sample.
        self._frontend = (
            FrontendChain(cfg.frontend) if cfg.frontend else None
        )
        self._fe_drained = False
        self._early_exit = bool(early_exit)
        self._keep_history = bool(keep_history)
        self._chunk_results: Optional[List[MonitorResult]] = (
            [] if keep_history else None
        )
        self._chunks = 0
        self._windows = 0
        self._unscorable = 0
        self._reports: List[AnomalyReport] = []
        self._stopped = False
        self._summary: Optional[StreamSummary] = None

    # -- introspection -------------------------------------------------------

    @property
    def stopped(self) -> bool:
        """True once early-exit fired or :meth:`finish` was called."""
        return self._stopped or self._summary is not None

    @property
    def windows_seen(self) -> int:
        return self._windows

    @property
    def reports(self) -> List[AnomalyReport]:
        return list(self._reports)

    @property
    def current_region(self) -> str:
        return self._monitor.current_region

    @property
    def status(self) -> str:
        """Cumulative run status under the batch ``degraded`` criterion."""
        if (
            self._windows
            and self._unscorable / self._windows
            >= self._cfg.max_unscorable_fraction
        ):
            return "degraded"
        return "ok"

    def resident_bytes(self) -> int:
        """Approximate bytes of stream state held right now.

        Covers the residual STFT tail and the monitor's history ring (its
        only window state) -- the quantities that must stay flat as the
        stream grows (``keep_history`` results, if enabled, are counted
        too and are the one intentionally unbounded part).
        """
        total = self._monitor._history.nbytes
        if self._stft._buffer is not None:
            total += self._stft._buffer.nbytes
        if self._frontend is not None:
            total += self._frontend.resident_bytes()
        if self._chunk_results:
            for r in self._chunk_results:
                total += (
                    r.times.nbytes
                    + r.rejection_flags.nbytes
                    + r.group_sizes.nbytes
                    + r.unscorable_flags.nbytes
                )
        return total

    # -- driving -------------------------------------------------------------

    def feed(self, samples: ChunkLike) -> List[MonitorResult]:
        """Consume one chunk of raw samples; return the results of every
        window it completed.

        Returns an empty list while the stream is still inside its first
        window, after early-exit stopped it, or after :meth:`finish`.
        Each returned :class:`MonitorResult` covers a contiguous stretch
        of newly completed windows with chunk-local ``report_indices``;
        :meth:`MonitorResult.concat` re-bases them when reassembling the
        stream.
        """
        if self.stopped:
            return []
        samples = self._coerce_chunk(samples)
        if OBS.enabled:
            with span("stream.feed"):
                return self._feed_samples(samples)
        return self._feed_samples(samples)

    def _coerce_chunk(self, samples: ChunkLike) -> np.ndarray:
        if isinstance(samples, Signal):
            if samples.sample_rate != self.model.sample_rate:
                raise SignalError(
                    f"chunk sample rate {samples.sample_rate} does not "
                    f"match the model's {self.model.sample_rate}"
                )
            samples = samples.samples
        samples = np.asarray(samples)
        if not self._cfg.quality_gating:
            require_finite(samples)
        return samples

    def _feed_samples(self, samples: np.ndarray) -> List[MonitorResult]:
        if self._frontend is not None and len(samples):
            samples = self._frontend.feed(samples)
        return self._feed_processed(samples, count_chunk=True)

    def _feed_processed(
        self, samples: np.ndarray, *, count_chunk: bool
    ) -> List[MonitorResult]:
        """Score already-preprocessed samples (the post-frontend path)."""
        staged = self._stft.begin_feed(samples)
        power = freqs = None
        if staged.n:
            power, freqs = self._stft.transform(staged)
        seq = self._emit_windows(staged, power, freqs, count=count_chunk)
        if len(seq) == 0:
            return []
        cfg = self._cfg
        peaks = peak_matrix(
            seq, cfg.energy_fraction, cfg.max_peaks, cfg.peak_prominence,
            cfg.diffuse_features,
        )
        return [self._fold_result(self._monitor.score_chunk(
            peaks, seq.times, seq.quality, early_exit=self._early_exit
        ))]

    # -- kernel hooks (see repro.stream.batchkernel) -------------------------
    #
    # The fleet kernel drives one chunk through the same stages as
    # _feed_samples, but pools the expensive stages (spectral transform,
    # peak extraction, planning, K-S scoring) across every session of a
    # group, handing every session's walk/step loop (Monitor._walk) to
    # the one walk driver at once and folding its result here. Canonical state lives only in
    # this object; the staged/pooled arrays are transient, so
    # snapshot/restore and eviction need no kernel-side pack/unpack.

    def _stage_chunk(self, samples: ChunkLike):
        """Stage one chunk's STFT (state advances; transform deferred).

        Returns ``None`` when the stream is stopped and accepts no
        further input.
        """
        if self.stopped:
            return None
        samples = self._coerce_chunk(samples)
        if self._frontend is not None and len(samples):
            samples = self._frontend.feed(samples)
        return self._stft.begin_feed(samples)

    def _emit_windows(
        self, staged, power, freqs, count: bool = True
    ) -> SpectrumSequence:
        """Turn a staged chunk plus its (possibly pooled) spectra into
        the chunk's window sequence; counts the chunk (unless it is the
        frontend's flush tail, which belongs to no fed chunk)."""
        seq = self._stft.finish_feed(staged, power, freqs)
        if count:
            self._chunks += 1
        return seq

    def _fold_result(self, result: MonitorResult) -> MonitorResult:
        """Fold a chunk's result from the monitor's walk/step loop into
        the stream's cumulative counters, and return it."""
        if self._early_exit and any(
            r.kind == "anomaly" for r in result.reports
        ):
            self._stopped = True
        self._windows += len(result.tracked)
        self._unscorable += int(result.unscorable_flags.sum())
        self._reports.extend(result.reports)
        result.status = self.status
        if self._keep_history:
            self._chunk_results.append(result)
        return result

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> StreamSnapshot:
        """Capture the stream's full resumable state.

        The snapshot covers everything :meth:`feed` reads or writes --
        STFT carry samples, the monitor's rolling history,
        region/streak/quality-gating state, and the stream's
        cumulative counters and reports -- and is stamped with the
        model's config fingerprint so :meth:`restore` can refuse a
        mismatched model. Guarantee: feed N chunks, snapshot, restore,
        feed M more produces exactly the results (and final summary) of
        feeding all N+M chunks into one uninterrupted stream.

        Only O(1)-memory streams are snapshottable: ``keep_history=True``
        retains unbounded per-chunk results that do not belong in a
        bounded checkpoint blob. Finished streams refuse too -- there is
        nothing left to resume.
        """
        from repro.serialize import config_fingerprint

        if self._summary is not None:
            raise MonitoringError("cannot snapshot a finished stream")
        if self._keep_history:
            raise MonitoringError(
                "snapshot() requires keep_history=False; history-keeping "
                "streams hold unbounded per-chunk results"
            )
        mon_meta, mon_arrays = self._monitor.export_state()
        stft_meta, stft_arrays = self._stft.export_state()
        fe_meta = fe_arrays = None
        if self._frontend is not None:
            fe_meta, fe_arrays = self._frontend.export_state()
        meta = {
            "kind": _SNAPSHOT_KIND,
            "config_fingerprint": config_fingerprint(self._cfg),
            "program_name": self.model.program_name,
            "session_id": self.session_id,
            "t0": self._stft.t0,
            "early_exit": self._early_exit,
            "chunks": self._chunks,
            "windows": self._windows,
            "unscorable": self._unscorable,
            "stopped": self._stopped,
            "reports": [
                [r.time, r.region, r.streak, r.kind] for r in self._reports
            ],
            "monitor": mon_meta,
            "stft": stft_meta,
            "frontend": fe_meta,
            "fe_drained": self._fe_drained,
        }
        arrays = {}
        for name, value in mon_arrays.items():
            arrays[f"mon.{name}"] = value
        for name, value in stft_arrays.items():
            arrays[f"stft.{name}"] = value
        if fe_arrays is not None:
            for name, value in fe_arrays.items():
                arrays[f"fe.{name}"] = value
        return StreamSnapshot(meta=meta, arrays=arrays)

    @classmethod
    def restore(
        cls, model: EddieModel, snapshot: StreamSnapshot
    ) -> "StreamingMonitor":
        """Rebuild a stream from a :meth:`snapshot` taken elsewhere.

        ``model`` must be the same trained model (same config fingerprint
        and program) the snapshot was taken under; anything else would
        silently continue the stream against the wrong references.
        """
        from repro.serialize import config_fingerprint

        meta = snapshot.meta
        if meta.get("kind") != _SNAPSHOT_KIND:
            raise MonitoringError("not a stream snapshot")
        if meta.get("config_fingerprint") != config_fingerprint(model.config):
            raise MonitoringError(
                "snapshot was taken under a different pipeline config "
                "than this model's (config fingerprint mismatch)"
            )
        if meta.get("program_name") != model.program_name:
            raise MonitoringError(
                f"snapshot belongs to program {meta.get('program_name')!r}, "
                f"model was trained on {model.program_name!r}"
            )
        # Spills written before the scalar monitor path was removed carry
        # a "batched" flag; both settings scored bit-identically, so it
        # is ignored.
        monitor = cls(
            model,
            early_exit=bool(meta["early_exit"]),
            keep_history=False,
            t0=float(meta["t0"]),
            session_id=str(meta["session_id"]),
        )
        monitor._chunks = int(meta["chunks"])
        monitor._windows = int(meta["windows"])
        monitor._unscorable = int(meta["unscorable"])
        monitor._stopped = bool(meta["stopped"])
        monitor._reports = [
            AnomalyReport(
                time=float(t), region=str(region), streak=int(streak),
                kind=str(kind),
            )
            for t, region, streak, kind in meta["reports"]
        ]

        def sub(prefix: str) -> dict:
            return {
                name[len(prefix):]: value
                for name, value in snapshot.arrays.items()
                if name.startswith(prefix)
            }

        monitor._monitor.restore_state(meta["monitor"], sub("mon."))
        monitor._stft.restore_state(meta["stft"], sub("stft."))
        # Legacy snapshots (pre-frontend) can only pass the fingerprint
        # check against a frontend-free config, where both fields below
        # are absent and the defaults already match.
        fe_meta = meta.get("frontend")
        if monitor._frontend is not None and fe_meta is not None:
            monitor._frontend.restore_state(fe_meta, sub("fe."))
        monitor._fe_drained = bool(meta.get("fe_drained", False))
        return monitor

    def _drain_frontend(self) -> List[MonitorResult]:
        """Flush the frontend chain's buffered tail through scoring.

        The batch pipeline processes a signal's final partial block and
        the FIR delay pad; a streaming frontend holds those samples until
        the stream ends, so closing the stream must push them through the
        same scoring path (not counted as a fed chunk). Idempotent;
        returns the results of any windows the tail completed.
        """
        if self._frontend is None or self._fe_drained:
            return []
        self._fe_drained = True
        if self.stopped:
            return []
        tail = self._frontend.flush()
        if len(tail) == 0:
            return []
        return self._feed_processed(tail, count_chunk=False)

    def finish(self) -> StreamSummary:
        """Close the stream: flush run-level metrics, return the summary.

        With a frontend attached, its buffered tail is drained through
        scoring first, so summaries cover every sample the batch path
        would have scored (window counts, reports, and -- for
        ``keep_history`` streams -- :meth:`result` all include the tail's
        windows). Idempotent -- a second call returns the same summary
        without double-counting.
        """
        if self._summary is not None:
            return self._summary
        self._drain_frontend()
        if OBS.enabled:
            self._monitor._flush_obs_run(self.status)
        self._summary = StreamSummary(
            session_id=self.session_id,
            chunks=self._chunks,
            samples=self._stft.samples_seen,
            windows=self._windows,
            reports=list(self._reports),
            unscorable_fraction=(
                self._unscorable / self._windows if self._windows else 0.0
            ),
            status=self.status,
            stopped_early=self._stopped,
        )
        return self._summary

    def result(self) -> MonitorResult:
        """The stream-wide result (requires ``keep_history=True``)."""
        if self._chunk_results is None:
            raise MonitoringError(
                "result() needs keep_history=True; only the summary is "
                "retained in O(1) mode"
            )
        return MonitorResult.concat(
            self._chunk_results,
            max_unscorable_fraction=self._cfg.max_unscorable_fraction,
        )

    def run(self, chunks: Iterable[ChunkLike]) -> MonitorResult:
        """Feed every chunk, finish, and return the merged result.

        A convenience for scripts and tests; it accumulates per-chunk
        results locally (O(stream length)), unlike pure ``feed`` loops.
        """
        collected: List[MonitorResult] = []
        for chunk in chunks:
            collected.extend(self.feed(chunk))
        collected.extend(self._drain_frontend())
        self.finish()
        return MonitorResult.concat(
            collected,
            max_unscorable_fraction=self._cfg.max_unscorable_fraction,
        )
