"""Synchronous serving client: stream a capture, collect the verdicts.

:class:`EddieClient` speaks the :mod:`repro.serve.protocol` framing over
a blocking socket, which keeps device-side integration trivial (an IoT
probe is a loop around ``capture -> send``, not an event loop). Chunk
sends are pipelined behind a bounded window: up to ``window`` CHUNKs may
be in flight before the client blocks reading REPORTs, so loopback and
LAN round trips overlap with the server's DSP instead of serializing
with it. ``window=1`` degrades to strict request/response -- the shape
the latency benchmark measures.

Resilience (DESIGN.md D19): the client keeps every chunk past the
server's last ``CHECKPOINT_ACK`` in a bounded replay buffer. When the
connection dies -- reset, mid-frame truncation, an I/O deadline, or the
server announcing a drain -- it reconnects with capped exponential
backoff plus jitter, sends
``RESUME``, applies any re-delivered reports (deduplicated by chunk
sequence number, so nothing is double-counted), and replays only the
unacknowledged chunks. The stream of reports and the final summary are
bit-identical to an uninterrupted run. Two deadlines are separate
knobs: ``connect_timeout`` governs dialing, ``io_timeout`` every
blocking send/recv; both surface as typed
:class:`~repro.errors.ServeTimeoutError`.

The :meth:`EddieClient.replay` generator is the deployment loop in
miniature: it streams an :class:`~repro.em.scenario.EmTrace` /
:class:`~repro.types.Signal` via ``iter_chunks`` and yields each
:class:`~repro.core.monitor.AnomalyReport` as the server emits it --
bit-identical to a local :class:`~repro.stream.StreamingMonitor` run on
the same trace (``tests/test_serve.py`` pins this).
"""

from __future__ import annotations

import contextlib
import random
import secrets
import socket
import time
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.monitor import AnomalyReport
from repro.errors import ProtocolError, ServeError, ServeTimeoutError
from repro.serve.protocol import (
    ERR_AT_CAPACITY,
    ERR_BAD_REDIRECT,
    ERR_DRAINING,
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    encode_chunk,
    json_frame,
    parse_json,
    parse_redirect,
    recv_frame,
    report_from_json,
    send_frame,
    summary_from_json,
)
from repro.stream.engine import StreamSummary
from repro.types import Signal

__all__ = ["EddieClient", "replay"]

ChunkSource = Union[Signal, np.ndarray, Iterable]


def _as_chunks(source: ChunkSource, chunk_samples: int) -> Iterator:
    """Normalize a trace/signal/array/iterable into sample chunks."""
    if hasattr(source, "iter_chunks"):  # Signal or EmTrace
        return iter(source.iter_chunks(chunk_samples))
    if isinstance(source, np.ndarray):
        return iter(
            Signal(source, 1.0).iter_chunks(chunk_samples)
        )  # rate unused: raw arrays carry no rate to check
    return iter(source)


class EddieClient:
    """One monitoring session against an :class:`EddieServer`.

    Usage::

        with EddieClient(host, port) as client:
            client.open("bitcount@latest", t0=trace.iq.t0)
            for report in client.replay(trace, chunk_samples=4096):
                alert(report)
            summary = client.close()

    Args:
        connect_timeout: deadline for dialing (and redialing) the server.
        io_timeout: deadline for every blocking send/recv once
            connected; expiry raises :class:`ServeTimeoutError`.
        window: chunks in flight before sends block on REPORTs.
        reconnect: transparently resume the session after a lost
            connection.
        max_retries: reconnect attempts per disconnection before giving
            up with ``ServeError(code='resume_failed')``.
        backoff_base / backoff_max: capped exponential backoff between
            reconnect attempts, jittered to avoid thundering herds.
        replay_buffer_chunks: unacknowledged chunks retained for replay;
            overflowing it (a server that stops checkpointing) raises
            ``ServeError(code='replay_overflow')`` rather than silently
            losing resumability.
        shard_key: stable placement key sent in OPEN/RESUME so a shard
            router pins the session to one worker across reconnects
            (DESIGN.md D21); defaults to a fresh random key per
            :meth:`open`. Ignored by standalone servers.
        max_redirects: placement hops tolerated per OPEN/RESUME before
            giving up with ``ServeError(code='bad_redirect')``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 10.0,
        io_timeout: float = 30.0,
        window: int = 8,
        reconnect: bool = True,
        max_retries: int = 6,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        replay_buffer_chunks: int = 256,
        shard_key: Optional[str] = None,
        max_redirects: int = 4,
    ) -> None:
        if window < 1:
            raise ServeError(f"window must be >= 1, got {window}")
        if replay_buffer_chunks < window:
            raise ServeError(
                f"replay_buffer_chunks ({replay_buffer_chunks}) must be "
                f">= window ({window})"
            )
        self.host = host
        self.port = int(port)
        self.connect_timeout = float(connect_timeout)
        self.io_timeout = float(io_timeout)
        self.window = int(window)
        self.reconnect = bool(reconnect)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.replay_buffer_chunks = int(replay_buffer_chunks)
        self.shard_key = shard_key
        self.max_redirects = int(max_redirects)
        self.worker_id: Optional[int] = None
        self._rng = random.Random()
        # A REDIRECT points the connection at a worker, but (host, port)
        # stays the entry address: every reconnect re-enters through the
        # router so placement can move off a dead worker.
        self._redirect_addr: Optional[Tuple[str, int]] = None
        self._session_key: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._session: Optional[str] = None
        self._token: Optional[str] = None
        self._seq = 0
        self._outstanding: Deque[int] = deque()
        self._buffer: Deque[Tuple[int, bytes]] = deque()
        self._acked = 0
        self._delivered = 0
        self._resumed: List[AnomalyReport] = []
        self._windows = 0
        self._status = "ok"
        self.last_summary: Optional[StreamSummary] = None
        self.reconnects = 0
        self.resume_latencies: List[float] = []

    # -- connection lifecycle -------------------------------------------------

    def connect(self) -> "EddieClient":
        """Dial the server and negotiate a protocol version (HELLO)."""
        if self._sock is not None:
            raise ServeError("client is already connected")
        self._dial()
        return self

    def _dial(self) -> None:
        host, port = self._redirect_addr or (self.host, self.port)
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        except socket.timeout as exc:
            raise ServeTimeoutError(
                f"connect to {host}:{port} timed out after "
                f"{self.connect_timeout}s"
            ) from exc
        sock.settimeout(self.io_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send_frame(json_frame(FrameType.HELLO, {
            "versions": [PROTOCOL_VERSION],
        }))
        self._expect(FrameType.HELLO)

    def __enter__(self) -> "EddieClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disconnect()

    def disconnect(self) -> None:
        """Drop the connection without the CLOSE handshake."""
        self._teardown()
        self._session = None
        self._token = None
        self._redirect_addr = None
        self._buffer.clear()
        self._outstanding.clear()

    def _teardown(self) -> None:
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    # -- session --------------------------------------------------------------

    @property
    def session_id(self) -> Optional[str]:
        return self._session

    @property
    def acked_seq(self) -> int:
        """Highest chunk sequence the server has made durable."""
        return self._acked

    @property
    def unacked_chunks(self) -> int:
        """Chunks currently held in the replay buffer."""
        return len(self._buffer)

    @property
    def resumable(self) -> bool:
        """True when a lost connection can be transparently resumed."""
        return self._can_resume()

    def open(self, model_spec: str, *, t0: float = 0.0) -> Dict[str, Any]:
        """Open a monitoring session for ``model_spec``; return the
        server's ack, whose ``model`` is the registry entry the session
        is bound to.

        Raises :class:`ServeError` with the server's typed code when the
        session is refused -- ``code='at_capacity'`` is the load-shed
        signal a probe should back off on.
        """
        self._require_socket()
        if self._session is not None:
            raise ServeError("a session is already open on this client")
        self._session_key = self.shard_key or secrets.token_hex(8)
        ack = self._place_request(FrameType.OPEN, {
            "model": model_spec,
            "t0": t0,
            "window": self.window,
            "shard_key": self._session_key,
        })
        self._session = str(ack.get("session"))
        self.worker_id = ack.get("worker")
        resume = ack.get("resume")
        self._token = (
            str(resume["token"])
            if isinstance(resume, dict) and resume.get("token")
            else None
        )
        self._seq = 0
        self._outstanding.clear()
        self._buffer.clear()
        self._acked = 0
        self._delivered = 0
        self._resumed = []
        self._windows = 0
        self._status = "ok"
        self.last_summary = None
        return ack

    def send(self, samples: Union[Signal, np.ndarray]) -> List[AnomalyReport]:
        """Stream one chunk; return reports that arrived meanwhile.

        Keeps at most ``window`` chunks in flight: when the window is
        full the call blocks reading REPORT frames first, which is how
        server-side backpressure propagates into the caller.
        """
        self._require_session()
        if isinstance(samples, Signal):
            samples = samples.samples
        collected = self._take_resumed()
        while len(self._outstanding) >= self.window:
            collected.extend(self._read_report())
        self._seq += 1
        frame = encode_chunk(self._seq, samples)
        if self._buffering():
            if len(self._buffer) >= self.replay_buffer_chunks:
                raise ServeError(
                    f"replay buffer overflow: {self.replay_buffer_chunks} "
                    f"chunks unacknowledged (the server stopped "
                    f"checkpointing)",
                    code="replay_overflow",
                )
            self._buffer.append((self._seq, frame))
        try:
            self._send_frame(frame)
            self._outstanding.append(self._seq)
        except (ServeError, ConnectionError, OSError) as error:
            # A successful resume re-sends the buffered chunk (it is
            # already in the replay buffer) and rebuilds the window.
            self._handle_disconnect(error)
            collected.extend(self._take_resumed())
        return collected

    def drain(self) -> List[AnomalyReport]:
        """Block until every in-flight chunk has been acknowledged."""
        self._require_session()
        collected = self._take_resumed()
        while self._outstanding:
            collected.extend(self._read_report())
        return collected

    def close(self) -> StreamSummary:
        """Finish the session: drain, CLOSE, return the server summary."""
        self._require_session()
        while True:
            self.drain()
            try:
                self._send_frame(json_frame(FrameType.CLOSE, {}))
                summary = summary_from_json(
                    parse_json(self._expect(FrameType.CLOSE))
                )
                break
            except (ServeError, ConnectionError, OSError) as error:
                self._handle_disconnect(error)
        self.last_summary = summary
        # The summary carries the server's authoritative window total:
        # it includes windows scored while flushing a preprocessing
        # chain's buffered tail at finish, which no per-chunk REPORT
        # frame ever carried.
        self._windows = summary.windows
        self._session = None
        self._token = None
        self._buffer.clear()
        self._outstanding.clear()
        self._resumed = []
        return summary

    def replay(
        self,
        source: ChunkSource,
        *,
        chunk_samples: int = 4096,
    ) -> Iterator[AnomalyReport]:
        """Stream a capture chunk-by-chunk, yielding reports as they come.

        ``source`` may be an :class:`EmTrace`, a :class:`Signal`, a raw
        sample array, or any iterable of chunks. After the generator is
        exhausted the session is closed and ``last_summary`` holds the
        server's :class:`StreamSummary`.
        """
        self._require_session()
        for chunk in _as_chunks(source, chunk_samples):
            for report in self.send(chunk):
                yield report
        for report in self.drain():
            yield report
        self.close()

    # -- health ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The server's STATS health snapshot (valid any time)."""
        self._require_socket()
        self._send_frame(json_frame(FrameType.STATS, {}))
        return parse_json(self._expect(FrameType.STATS))

    @property
    def windows_seen(self) -> int:
        """Windows the server has scored for this session so far."""
        return self._windows

    @property
    def status(self) -> str:
        """The session's running status from the latest REPORT."""
        return self._status

    # -- placement ------------------------------------------------------------

    def _place_request(self, ftype: FrameType, payload: Dict) -> Dict:
        """Send an OPEN/RESUME and follow REDIRECT placement hops.

        A shard router answers an OPEN/RESUME with the owning
        worker's address; the client re-dials it and repeats the request
        there. Hops are bounded so a misconfigured router cannot bounce
        the client forever.
        """
        for _ in range(self.max_redirects + 1):
            self._send_frame(json_frame(ftype, payload))
            frame = self._expect(ftype, FrameType.REDIRECT)
            if frame.type != FrameType.REDIRECT:
                return parse_json(frame)
            host, port, _worker = parse_redirect(frame)
            self._teardown()
            self._redirect_addr = (host, port)
            self._dial()
        raise ServeError(
            f"placement did not settle after {self.max_redirects} "
            f"redirect hops",
            code=ERR_BAD_REDIRECT,
        )

    # -- reconnection ---------------------------------------------------------

    def _buffering(self) -> bool:
        return self.reconnect and self._token is not None

    def _can_resume(self) -> bool:
        return (
            self.reconnect
            and self._session is not None
            and self._token is not None
        )

    @staticmethod
    def _disconnected(error: BaseException) -> bool:
        """Is this failure a lost connection (vs. a protocol violation)?"""
        if isinstance(error, ServeTimeoutError):
            return True
        if isinstance(error, ProtocolError):
            return error.code == "connection_closed"
        if isinstance(error, ServeError):
            return error.code == ERR_DRAINING
        return isinstance(error, (ConnectionError, OSError))

    def _handle_disconnect(self, error: BaseException) -> None:
        if not self._disconnected(error) or not self._can_resume():
            raise error
        self._resume(error)

    def _resume(self, cause: BaseException) -> None:
        """Reconnect with backoff, RESUME, replay unacknowledged chunks."""
        started = time.monotonic()
        self._teardown()
        last: BaseException = cause
        for attempt in range(self.max_retries):
            delay = min(
                self.backoff_max, self.backoff_base * (2 ** attempt)
            )
            time.sleep(delay * (0.5 + 0.5 * self._rng.random()))
            try:
                # Re-enter through the entry address: against a shard
                # router the session may have been re-placed onto a
                # surviving worker, and only the router knows where.
                self._redirect_addr = None
                self._dial()
                resume_payload = {
                    "session": self._session,
                    "token": self._token,
                    "delivered": self._delivered,
                    "window": self.window,
                }
                if self._session_key is not None:
                    resume_payload["shard_key"] = self._session_key
                ack = self._place_request(FrameType.RESUME, resume_payload)
                if ack.get("worker") is not None:
                    self.worker_id = ack.get("worker")
                durable = int(ack.get("seq", 0))
                # The ack doubles as a checkpoint ack: prune the buffer.
                self._on_checkpoint_ack({"seq": durable})
                # Reports the server scored durably but we never saw.
                for payload in ack.get("reports", []):
                    self._resumed.extend(self._apply_report(payload))
                # Replay everything past the durable checkpoint. Reports
                # for chunks we already saw scored come back identical
                # (bit-identity) and are suppressed by _apply_report.
                self._outstanding.clear()
                for seq, frame in self._buffer:
                    self._send_frame(frame)
                    self._outstanding.append(seq)
            except (ServeTimeoutError, ProtocolError) as error:
                self._teardown()
                if self._disconnected(error):
                    last = error
                    continue
                raise
            except ServeError as error:
                self._teardown()
                if error.code in (ERR_DRAINING, ERR_AT_CAPACITY):
                    last = error
                    continue
                raise
            except (ConnectionError, OSError) as error:
                self._teardown()
                last = error
                continue
            self.reconnects += 1
            self.resume_latencies.append(time.monotonic() - started)
            return
        raise ServeError(
            f"could not resume session {self._session} after "
            f"{self.max_retries} attempts: {last}",
            code="resume_failed",
        ) from last

    def _take_resumed(self) -> List[AnomalyReport]:
        out = self._resumed
        self._resumed = []
        return out

    # -- frame plumbing -------------------------------------------------------

    def _require_socket(self) -> None:
        if self._sock is None:
            raise ServeError("client is not connected; call connect()")

    def _require_session(self) -> None:
        self._require_socket()
        if self._session is None:
            raise ServeError("no open session; call open() first")

    def _send_frame(self, data: bytes) -> None:
        try:
            send_frame(self._sock, data)
        except socket.timeout as exc:
            raise ServeTimeoutError(
                f"send timed out after {self.io_timeout}s"
            ) from exc

    def _recv(self) -> Frame:
        while True:
            try:
                frame = recv_frame(self._sock)
            except socket.timeout as exc:
                raise ServeTimeoutError(
                    f"no server frame within {self.io_timeout}s"
                ) from exc
            if frame is None:
                raise ProtocolError(
                    "server closed the connection", code="connection_closed"
                )
            if frame.type == FrameType.CHECKPOINT_ACK:
                self._on_checkpoint_ack(parse_json(frame))
                continue
            return frame

    def _on_checkpoint_ack(self, payload: Dict) -> None:
        try:
            seq = int(payload.get("seq", 0))
        except (TypeError, ValueError):
            return
        if seq > self._acked:
            self._acked = seq
            while self._buffer and self._buffer[0][0] <= seq:
                self._buffer.popleft()

    def _expect(self, *ftypes: FrameType) -> Frame:
        while True:
            frame = self._recv()
            if frame.type == FrameType.ERROR:
                err = parse_json(frame)
                raise ServeError(
                    str(err.get("message", "server error")),
                    code=str(err.get("code", "internal")),
                )
            if (
                frame.type == FrameType.STATS
                and FrameType.STATS not in ftypes
            ):
                # Unsolicited health broadcast (the drain farewell).
                continue
            if frame.type not in ftypes:
                raise ProtocolError(
                    f"expected {'/'.join(t.name for t in ftypes)}, "
                    f"got {frame.type.name}"
                )
            return frame

    def _apply_report(self, payload: Dict) -> List[AnomalyReport]:
        try:
            seq = int(payload.get("seq", 0))
        except (TypeError, ValueError):
            raise ProtocolError("REPORT without a valid seq") from None
        if seq <= self._delivered:
            # A replayed re-score of a chunk whose report we already
            # delivered: bit-identical by construction, so drop it --
            # this is what makes recovery exactly-once.
            return []
        self._delivered = seq
        self._windows += int(payload.get("windows", 0))
        self._status = str(payload.get("status", self._status))
        return [report_from_json(r) for r in payload.get("reports", [])]

    def _read_report(self) -> List[AnomalyReport]:
        while True:
            try:
                payload = parse_json(self._expect(FrameType.REPORT))
            except (ServeError, ConnectionError, OSError) as error:
                self._handle_disconnect(error)
                out = self._take_resumed()
                if out or not self._outstanding:
                    return out
                continue
            seq = payload.get("seq")
            if not self._outstanding or seq != self._outstanding[0]:
                raise ProtocolError(
                    f"REPORT for chunk {seq!r} arrived out of order "
                    f"(expected "
                    f"{self._outstanding[0] if self._outstanding else None})"
                )
            self._outstanding.popleft()
            return self._apply_report(payload)


def replay(
    host: str,
    port: int,
    model_spec: str,
    source: ChunkSource,
    *,
    chunk_samples: int = 4096,
    window: int = 8,
    io_timeout: float = 30.0,
) -> Tuple[List[AnomalyReport], StreamSummary]:
    """One-call replay: open a session, stream ``source``, close.

    Returns ``(reports, summary)``; ``reports`` is exactly what a local
    :class:`~repro.stream.StreamingMonitor` would have produced on the
    same chunking.
    """
    t0 = 0.0
    if hasattr(source, "iq"):  # EmTrace
        t0 = source.iq.t0
    elif isinstance(source, Signal):
        t0 = source.t0
    with EddieClient(
        host, port, io_timeout=io_timeout, window=window
    ) as client:
        client.open(model_spec, t0=t0)
        reports = list(client.replay(source, chunk_samples=chunk_samples))
        return reports, client.last_summary
