"""Fleet session multiplexing: many concurrent monitoring streams.

The ROADMAP's serving shape -- "heavy traffic from millions of users" --
means one process holds many live device sessions, each a
:class:`~repro.stream.engine.StreamingMonitor`, with chunks arriving
interleaved. :class:`FleetScheduler` is that multiplexer:

- sessions sharing a program share the trained :class:`EddieModel` *by
  reference* (its per-region sorted references are precomputed once), so
  per-session state is only the bounded stream state;
- chunks are dispatched round-robin across sessions that carry a chunk
  source, or pushed explicitly via :meth:`FleetScheduler.feed`; batches
  of chunks for many sessions go through :meth:`FleetScheduler.feed_many`,
  which routes isomorphic sessions through the cross-session batch
  kernel (:class:`repro.stream.batchkernel.FleetKernel`) so the whole
  round's STFT, peak extraction, and K-S tests run as pooled vectorized
  operations -- bit-identical to per-session feeding;
- per-session metrics (chunks, windows, reports) and dispatch spans flow
  through :mod:`repro.obs` when observability is enabled;
- aggregate memory is bounded: the scheduler refuses sessions beyond
  ``max_sessions`` and sessions default to O(1) ``keep_history=False``.

Sessions are fully independent state machines, so per-session results
are identical to running each stream in isolation (asserted by
``tests/test_streaming.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.model import EddieModel
from repro.core.monitor import MonitorResult
from repro.errors import ConfigurationError, MonitoringError
from repro.obs import OBS, counter, span
from repro.stream.batchkernel import DispatchResult, FleetKernel
from repro.stream.engine import ChunkLike, StreamingMonitor, StreamSummary

__all__ = ["FleetScheduler", "FleetSession"]

ResultSink = Callable[[str, MonitorResult], None]
EvictSink = Callable[[str, StreamSummary], None]


@dataclass
class FleetSession:
    """One device's live monitoring stream inside the fleet."""

    session_id: str
    monitor: StreamingMonitor
    source: Optional[Iterator[np.ndarray]] = None
    chunks_fed: int = 0
    done: bool = False
    summary: Optional[StreamSummary] = None
    results: List[MonitorResult] = field(default_factory=list)
    last_fed: int = 0


class FleetScheduler:
    """Multiplexes many concurrent :class:`StreamingMonitor` sessions.

    Args:
        max_sessions: hard cap on concurrently open sessions; the
            aggregate-memory bound is ``max_sessions`` times one session's
            O(1) stream state.
        early_exit: per-session early exit on the first anomaly (the
            session is closed and its slot freed).
        keep_history: retain per-chunk results on every session so
            ``session.monitor.result()`` works (O(stream) per session --
            test/debug use only).
        on_result: optional callback invoked as ``on_result(session_id,
            result)`` for every chunk result produced during dispatch,
            and on close for the windows of a front-end chain's drained
            tail; this is the O(1)-memory way to consume fleet output.
        evict_idle: when the fleet is at capacity, close the stalest
            session (least recently fed, by dispatch order -- not wall
            clock, so behavior is deterministic) to make room instead of
            raising. The default keeps the hard raise: unattended
            eviction is a serving policy, not a library default.
        on_evict: optional callback invoked as ``on_evict(session_id,
            summary)`` after an idle session was evicted for capacity;
            lets a server notify the evicted device before reusing the
            slot.

    :meth:`feed_many` / :meth:`step_round` batches always go through the
    cross-session batch kernel, pooling STFT, peak extraction, planning,
    and K-S across isomorphic sessions; a session that pools with no one
    is a group of one.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 256,
        early_exit: bool = False,
        keep_history: bool = False,
        on_result: Optional[ResultSink] = None,
        evict_idle: bool = False,
        on_evict: Optional[EvictSink] = None,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        self.max_sessions = int(max_sessions)
        self._early_exit = bool(early_exit)
        self._keep_history = bool(keep_history)
        self._on_result = on_result
        self.evict_idle = bool(evict_idle)
        self._on_evict = on_evict
        self._kernel = FleetKernel()
        self._sessions: Dict[str, FleetSession] = {}
        self._closed: Dict[str, StreamSummary] = {}
        self._feed_clock = 0

    # -- session lifecycle ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def session_ids(self) -> List[str]:
        return list(self._sessions)

    def session(self, session_id: str) -> FleetSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise MonitoringError(
                f"no open session {session_id!r}"
            ) from None

    def add_session(
        self,
        session_id: str,
        model: EddieModel,
        *,
        source: Optional[Iterable[np.ndarray]] = None,
        t0: float = 0.0,
    ) -> FleetSession:
        """Open a monitoring session for one device.

        ``model`` may be shared across any number of sessions; each
        session only adds its own bounded stream state. ``source``, when
        given, is an iterable of sample chunks consumed round-robin by
        :meth:`run` / :meth:`step_round`; without it the session is
        push-mode and chunks arrive via :meth:`feed`.
        """
        self._claim_slot(session_id)
        monitor = StreamingMonitor(
            model,
            early_exit=self._early_exit,
            keep_history=self._keep_history,
            t0=t0,
            session_id=session_id,
        )
        return self._register(session_id, monitor, source)

    def attach_session(
        self,
        session_id: str,
        monitor: StreamingMonitor,
        *,
        source: Optional[Iterable[np.ndarray]] = None,
    ) -> FleetSession:
        """Adopt an existing monitor -- e.g. one restored from a
        checkpoint snapshot -- as a live fleet session.

        Capacity and eviction rules are those of :meth:`add_session`;
        the monitor continues from whatever state it carries, which is
        how a serving process resumes a session another process (or an
        earlier life of this one) checkpointed.
        """
        self._claim_slot(session_id)
        monitor.session_id = session_id
        return self._register(session_id, monitor, source)

    def detach_session(self, session_id: str) -> FleetSession:
        """Remove a session from the fleet *without* finishing it.

        The monitor stays live and resumable (snapshot it, hand it to
        another scheduler via :meth:`attach_session`) -- the counterpart
        of :meth:`close_session` for suspend/handoff instead of
        completion.
        """
        session = self.session(session_id)
        del self._sessions[session_id]
        if OBS.enabled:
            counter("stream.fleet", "sessions_detached").inc()
        return session

    def _claim_slot(self, session_id: str) -> None:
        if session_id in self._sessions:
            raise ConfigurationError(
                f"session {session_id!r} is already open"
            )
        if len(self._sessions) >= self.max_sessions:
            if not self.evict_idle:
                raise ConfigurationError(
                    f"fleet is at its {self.max_sessions}-session "
                    f"capacity; close a session first"
                )
            self.evict_stalest()

    def _register(
        self,
        session_id: str,
        monitor: StreamingMonitor,
        source: Optional[Iterable[np.ndarray]],
    ) -> FleetSession:
        self._feed_clock += 1
        session = FleetSession(
            session_id=session_id,
            monitor=monitor,
            source=iter(source) if source is not None else None,
            last_fed=self._feed_clock,
        )
        self._sessions[session_id] = session
        if OBS.enabled:
            counter("stream.fleet", "sessions_opened").inc()
        return session

    def close_session(self, session_id: str) -> StreamSummary:
        """Close a session, free its slot, and return its summary.

        The windows a front-end chain's buffered tail completes on close
        reach the history and the result sink like any fed chunk's. Only
        a sourced session's summary is kept for :attr:`summaries`: a
        push-mode session's caller holds the returned one, and a
        long-lived fleet must not grow with every session it closes.
        """
        session = self.session(session_id)
        session.done = True
        self._deliver(session, session.monitor._drain_frontend())
        session.summary = session.monitor.finish()
        del self._sessions[session_id]
        if session.source is not None:
            self._closed[session_id] = session.summary
        if OBS.enabled:
            counter("stream.fleet", "sessions_closed").inc()
        return session.summary

    def evict_stalest(self) -> StreamSummary:
        """Close the least-recently-fed session to free a slot.

        Ordering is the fleet's dispatch clock (every ``feed`` and
        ``add_session`` ticks it), so "stalest" is deterministic and
        time-source-free. Invokes ``on_evict`` after the close.
        """
        if not self._sessions:
            raise MonitoringError("no open session to evict")
        stalest = min(self._sessions.values(), key=lambda s: s.last_fed)
        summary = self.close_session(stalest.session_id)
        if OBS.enabled:
            counter("stream.fleet", "sessions_evicted").inc()
        if self._on_evict is not None:
            self._on_evict(stalest.session_id, summary)
        return summary

    @property
    def summaries(self) -> Dict[str, StreamSummary]:
        """Summaries of every sourced session closed so far."""
        return dict(self._closed)

    # -- chunk dispatch ------------------------------------------------------

    def feed(self, session_id: str, chunk: ChunkLike) -> List[MonitorResult]:
        """Push one chunk into one session (push-mode ingestion)."""
        session = self.session(session_id)
        if OBS.enabled:
            # Span/counter objects are only materialized when someone is
            # collecting them; the disabled path is a plain call.
            with span("fleet.dispatch"):
                results = session.monitor.feed(chunk)
        else:
            results = session.monitor.feed(chunk)
        self._after_feed(session, results)
        return results

    def _after_feed(
        self, session: FleetSession, results: List[MonitorResult]
    ) -> None:
        """Post-chunk bookkeeping shared by :meth:`feed` and
        :meth:`feed_many`: dispatch clock, history, result sink."""
        session.chunks_fed += 1
        self._feed_clock += 1
        session.last_fed = self._feed_clock
        if OBS.enabled:
            counter("stream.fleet", "chunks_dispatched").inc()
        self._deliver(session, results)

    def _deliver(
        self, session: FleetSession, results: List[MonitorResult]
    ) -> None:
        """Hand a session's new results to the history and the sink."""
        if self._keep_history:
            session.results.extend(results)
        if self._on_result is not None:
            for result in results:
                self._on_result(session.session_id, result)

    def feed_many(
        self,
        items: Iterable[tuple],
        *,
        return_errors: bool = False,
    ) -> List[DispatchResult]:
        """Push one chunk into each of many sessions in one batched round.

        ``items`` is an iterable of ``(session_id, chunk)``. Every
        round's STFT, peak extraction, planning, and K-S scoring are
        pooled across all isomorphic sessions in the batch --
        bit-identical to feeding the sessions one at a time.

        A session id may repeat: planning reads the state the previous
        chunk's commit wrote, so repeats are split into consecutive
        waves, each wave containing one chunk per session, dispatched
        in order.

        Returns one slot per item, aligned with the input. With
        ``return_errors=True`` a failing session's slot holds the
        exception it raised and the rest of the batch proceeds (a
        missing session id lands as its :class:`MonitoringError` too);
        otherwise the first error is raised after the whole batch has
        been driven, so one bad chunk cannot starve the other sessions
        of the round.
        """
        items = list(items)
        results: List[DispatchResult] = [None] * len(items)  # type: ignore
        pending = list(range(len(items)))
        while pending:
            wave: List[int] = []
            later: List[int] = []
            seen: set = set()
            for idx in pending:
                sid = items[idx][0]
                if sid in seen:
                    later.append(idx)
                else:
                    seen.add(sid)
                    wave.append(idx)
            pending = later
            batch: List[tuple] = []  # (item index, FleetSession)
            for idx in wave:
                sid, chunk = items[idx]
                try:
                    session = self.session(sid)
                except MonitoringError as exc:
                    results[idx] = exc
                    continue
                batch.append((idx, session, chunk))
            if not batch:
                continue
            out = self._kernel.dispatch(
                [(session.monitor, chunk) for _, session, chunk in batch]
            )
            for (idx, session, _), res in zip(batch, out):
                results[idx] = res
                if not isinstance(res, Exception):
                    self._after_feed(session, res)
        if not return_errors:
            for res in results:
                if isinstance(res, Exception):
                    raise res
        return results

    def step_round(self) -> int:
        """One round-robin pass: feed one chunk to every sourced session.

        The whole round is dispatched as one :meth:`feed_many` batch, so
        isomorphic sessions advance together through the batch kernel.
        Sessions whose source is exhausted -- or that early-exited -- are
        closed and their slots freed. Returns the number of sourced
        sessions still live after the pass.
        """
        to_feed: List[tuple] = []
        for session_id in list(self._sessions):
            session = self._sessions.get(session_id)
            if session is None or session.source is None:
                continue
            if session.monitor.stopped:
                self.close_session(session_id)
                continue
            try:
                chunk = next(session.source)
            except StopIteration:
                self.close_session(session_id)
                continue
            to_feed.append((session_id, chunk))
        if not to_feed:
            return 0
        if OBS.enabled:
            with span("fleet.round"):
                self.feed_many(to_feed)
        else:
            self.feed_many(to_feed)
        live = 0
        for session_id, _ in to_feed:
            session = self._sessions.get(session_id)
            if session is None:
                continue
            if session.monitor.stopped:
                self.close_session(session_id)
            else:
                live += 1
        return live

    def run(self) -> Dict[str, StreamSummary]:
        """Round-robin every sourced session to exhaustion.

        Returns the summaries of all sourced sessions closed so far
        (including any closed before this call). Push-mode sessions (no source) are
        left open.
        """
        while self.step_round():
            pass
        return self.summaries
