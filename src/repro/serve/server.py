"""The asyncio EM-monitoring server: sessions over TCP, DSP in threads.

One accepted connection is one monitoring session. The event loop owns
all connection and frame bookkeeping; the CPU-heavy DSP (STFT, peak
extraction, K-S scoring via :meth:`StreamingMonitor.feed`) runs in a
bounded thread pool, so slow clients never stall the loop and the loop
never stalls the math. numpy releases the GIL across the hot kernels,
so ``worker_threads`` sessions genuinely overlap.

Flow control, inward and outward:

- **Ingestion backpressure**: each session has a bounded
  ``asyncio.Queue`` of decoded chunks. When the DSP falls behind, the
  queue fills, the connection's read loop blocks on ``put``, the kernel
  socket buffer fills, and TCP pushes back on the device -- no unbounded
  buffering anywhere in the path.
- **Slow readers**: REPORT frames go through ``drain()``, so a client
  that stops reading blocks only its own session's worker (and then,
  transitively, its own ingestion).
- **Load shedding**: an OPEN that arrives with the fleet at
  ``max_sessions`` is refused with a typed ``ERROR at_capacity`` frame
  -- the connection is turned away cleanly instead of surfacing
  :class:`FleetScheduler`'s in-process raise -- unless ``evict_idle``
  is set, in which case the scheduler closes the stalest session
  (notifying it with ``ERROR evicted``) and admits the newcomer.

Resilience (DESIGN.md D19):

- **Checkpointing**: every ``checkpoint_interval`` scored chunks the
  session's full stream state (:meth:`StreamingMonitor.snapshot`) is
  spilled atomically to ``spill_dir`` together with a short log of the
  most recent REPORT payloads, then acknowledged to the client with a
  ``CHECKPOINT_ACK`` carrying the durable sequence number. The client
  prunes its replay buffer up to that point.
- **Resumption**: a reconnecting client sends ``RESUME`` instead of
  ``OPEN``. The server restores the monitor from the spill (verifying
  the resume token), re-delivers any REPORTs past what the client saw,
  and the client replays only unacknowledged chunks -- every window is
  scored exactly once end to end.
- **Suspension**: when a connection dies mid-session the worker takes
  one final roll-forward checkpoint at the last scored chunk and
  detaches the session instead of finishing it, minimizing recompute on
  resume.
- **Drain**: :meth:`EddieServer.drain` stops accepting, checkpoints
  every live session, notifies each peer (``CHECKPOINT_ACK``, a final
  STATS snapshot, then ``ERROR draining``), and returns the final stats
  payload -- the SIGTERM path for zero-loss restarts.

STATS frames are answered at any point after HELLO with a JSON health
snapshot (open sessions, shed/evicted counts, chunk/report totals, and
the ``repro.serve`` metric instruments when observability is enabled).
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import os
import secrets
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    MonitoringError,
    ProtocolError,
    RegistryError,
    ServeError,
    SignalError,
)
from repro.obs import OBS, counter, histogram, snapshot_module
from repro.serialize import atomic_write, load_snapshot, snapshot_to_bytes
from repro.serve import protocol
from repro.serve.protocol import (
    ERR_AT_CAPACITY,
    ERR_BAD_FRAME,
    ERR_BAD_STATE,
    ERR_DRAINING,
    ERR_EVICTED,
    ERR_INTERNAL,
    ERR_RESUME_REJECTED,
    ERR_UNKNOWN_SESSION,
    ERR_UNSUPPORTED_VERSION,
    FrameType,
    error_frame,
    json_frame,
    negotiate_version,
    parse_json,
    read_frame,
)
from repro.serve.registry import ModelRegistry
from repro.stream import FleetScheduler, StreamingMonitor, StreamSummary

__all__ = ["EddieServer", "ServerConfig", "ServerHandle", "serve_in_thread"]

_LATENCY_EDGES_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                     100.0, 250.0, 1000.0)

# REPORT payloads retained beyond the client's declared window, so a
# resume can re-deliver reports the abort-checkpoint rolled past even
# when acks and reports crossed on the wire.
_REPORT_LOG_MARGIN = 16


def _spawn(loop: asyncio.AbstractEventLoop, coro) -> asyncio.Task:
    """``loop.create_task(coro)`` whose outcome is always retrieved.

    An exception nobody retrieved reaches asyncio's default handler when
    the task is garbage-collected -- at any allocation, on any thread --
    and the handler formats its traceback right there. On CPython 3.11
    that formatting calls ``ast.parse``, which is not reentrant: landing
    inside another parse (an import under pytest's assertion rewriter)
    corrupts its recursion-depth bookkeeping and raises ``SystemError``
    in that unrelated caller. The connection's own teardown handles
    every failure of these tasks; the callback only marks it retrieved.
    """
    task = loop.create_task(coro)
    task.add_done_callback(_retrieve_outcome)
    return task


def _retrieve_outcome(task: asyncio.Task) -> None:
    if not task.cancelled():
        task.exception()


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`EddieServer`.

    Attributes:
        host: bind address (loopback by default; expose deliberately).
        port: bind port; 0 lets the kernel pick (read ``address`` after
            start).
        max_sessions: fleet capacity; OPENs beyond it are shed (or, with
            ``evict_idle``, displace the stalest session).
        evict_idle: admit over-capacity OPENs by evicting the
            least-recently-fed session instead of shedding the newcomer.
        queue_depth: per-session bound on decoded-but-unscored chunks;
            the ingestion backpressure knob.
        worker_threads: size of the shared DSP thread pool.
        checkpoint_interval: scored chunks between durable session
            checkpoints; 0 disables checkpointing (and therefore
            resume).
        spill_dir: where session checkpoints live; defaults to a
            ``.sessions`` directory inside the registry root, so a
            restarted server pointed at the same registry finds them.
        worker_id: this server's slot in a sharded cluster (DESIGN.md
            D21); surfaced in session acks and STATS so clients and the
            router can attribute work. None for a standalone server.
        spill_fallback_dirs: sibling workers' spill namespaces. A RESUME
            whose checkpoint is not in ``spill_dir`` searches these and
            adopts the spill into its own namespace -- how a survivor
            picks up a dead worker's sessions.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 64
    evict_idle: bool = False
    queue_depth: int = 8
    worker_threads: int = 4
    checkpoint_interval: int = 16
    spill_dir: Optional[str] = None
    worker_id: Optional[int] = None
    spill_fallback_dirs: Tuple[str, ...] = ()


@dataclass
class ServerStats:
    """Cumulative serving counters (loop-thread mutated, lock-free)."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_shed: int = 0
    sessions_evicted: int = 0
    sessions_resumed: int = 0
    sessions_suspended: int = 0
    checkpoints: int = 0
    chunks: int = 0
    samples: int = 0
    windows: int = 0
    reports: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    protocol_errors: int = 0


@dataclass
class _SessionState:
    """Per-connection serving state (loop-side only)."""

    session_id: str
    queue: asyncio.Queue
    writer: asyncio.StreamWriter
    wlock: asyncio.Lock
    worker: Optional[asyncio.Task] = None
    evicted: bool = False
    # The loop holds tasks weakly: keep the eviction notice alive.
    evict_notice: Optional[asyncio.Task] = None
    reports_sent: int = 0
    opened_at: float = field(default_factory=time.monotonic)
    token: str = ""
    window: int = 8
    last_seq: int = 0
    durable_seq: int = 0
    since_checkpoint: int = 0
    model_fp: str = ""
    model_spec: str = ""
    report_log: Deque[Dict] = field(default_factory=deque)
    finalized: bool = False
    suspended: bool = False


class _KernelBatcher:
    """Coalesces pending sessions' chunks into fleet kernel rounds.

    Session workers :meth:`submit` their ``(session_id, samples)`` and
    await the returned future instead of running ``fleet.feed`` on a
    pool thread each. A single drainer task collects everything pending,
    runs one :meth:`FleetScheduler.feed_many` round in the pool (the
    cross-session batch kernel), and settles each submission with its
    own result slot -- per-session exceptions land on that session's
    future only, so one poisoned chunk never fails its round-mates.

    Batching is self-clocking: while one round runs in the pool, new
    submissions accumulate on the loop; the next round picks them all
    up. No artificial latency is added -- a lone session dispatches in
    rounds of one, a busy fleet in rounds of up-to-fleet-size. A worker
    awaits its result before submitting its next chunk, so one round
    never holds a session twice.
    """

    def __init__(self, fleet: FleetScheduler, pool: ThreadPoolExecutor) -> None:
        self._fleet = fleet
        self._pool = pool
        self._pending: List[Tuple[str, object, asyncio.Future]] = []
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = _spawn(asyncio.get_running_loop(), self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._task
            self._task = None
        self._fail_pending(ServeError("server is stopping"))

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, []
        for _, _, future in pending:
            if not future.done():
                future.set_exception(error)

    def submit(self, session_id: str, samples) -> "asyncio.Future":
        future = asyncio.get_running_loop().create_future()
        self._pending.append((session_id, samples, future))
        self._wakeup.set()
        return future

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            batch, self._pending = self._pending, []
            if not batch:
                continue
            pairs = [(sid, samples) for sid, samples, _ in batch]
            try:
                slots = await loop.run_in_executor(
                    self._pool,
                    lambda: self._fleet.feed_many(
                        pairs, return_errors=True
                    ),
                )
            except Exception as error:
                for _, _, future in batch:
                    if not future.done():
                        future.set_exception(error)
                continue
            if OBS.enabled:
                counter("repro.serve", "kernel_rounds").inc()
                counter("repro.serve", "kernel_round_chunks").inc(
                    len(batch)
                )
            for (_, _, future), slot in zip(batch, slots):
                if future.done():
                    continue
                if isinstance(slot, Exception):
                    future.set_exception(slot)
                else:
                    future.set_result(slot)


class EddieServer:
    """Serve EM-monitoring sessions from a model registry over TCP."""

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._fleet: Optional[FleetScheduler] = None
        self._batcher: Optional[_KernelBatcher] = None
        self._states: Dict[str, _SessionState] = {}
        self._admission = asyncio.Lock()
        self._session_seq = 0
        self._draining = False
        # Session ids carry a per-start epoch so ids never collide with
        # spill files a previous life of this server left behind.
        self._epoch = secrets.token_hex(4)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServeError("server is already started")
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.worker_threads,
            thread_name_prefix="eddie-serve",
        )
        self._fleet = FleetScheduler(
            max_sessions=cfg.max_sessions,
            evict_idle=cfg.evict_idle,
            on_evict=self._on_evict,
        )
        self._batcher = _KernelBatcher(self._fleet, self._pool)
        self._batcher.start()
        if cfg.checkpoint_interval > 0:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` binds)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def sessions_open(self) -> int:
        return len(self._fleet) if self._fleet is not None else 0

    @property
    def spill_dir(self) -> Path:
        """Where session checkpoints are spilled."""
        if self.config.spill_dir is not None:
            return Path(self.config.spill_dir)
        return self.registry.root / ".sessions"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def drain(self) -> Dict:
        """Graceful shutdown phase one: suspend everything resumable.

        Stops accepting connections, refuses further OPEN/RESUMEs with
        ``ERROR draining``, and for every live session: checkpoints it,
        acknowledges the durable sequence number, sends a final STATS
        snapshot and ``ERROR draining``, then closes the connection.
        Sessions that cannot be checkpointed (checkpointing disabled)
        are closed outright. Returns the final stats payload. Call
        :meth:`stop` afterwards to release the pool.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        workers = []
        for state in list(self._states.values()):
            if state.worker is not None and not state.worker.done():
                await state.queue.put(("drain", None, None))
                workers.append(state.worker)
        if workers:
            await asyncio.wait(workers, timeout=30)
        return self.stats_payload()

    async def stop(self) -> None:
        """Stop accepting, abort live sessions, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.stop()
            self._batcher = None
        for state in list(self._states.values()):
            if state.worker is not None and not state.worker.done():
                state.worker.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, Exception
                ):
                    await state.worker
            state.writer.close()
        self._states.clear()
        if self._fleet is not None:
            for session_id in self._fleet.session_ids:
                with contextlib.suppress(Exception):
                    self._fleet.close_session(session_id)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- health ---------------------------------------------------------------

    def stats_payload(self) -> Dict:
        """The STATS frame body: a JSON-able health snapshot."""
        s = self.stats
        payload = {
            "worker": self.config.worker_id,
            "sessions_open": self.sessions_open,
            "max_sessions": self.config.max_sessions,
            "evict_idle": self.config.evict_idle,
            "draining": self._draining,
            "checkpoint_interval": self.config.checkpoint_interval,
            "sessions_opened": s.sessions_opened,
            "sessions_closed": s.sessions_closed,
            "sessions_shed": s.sessions_shed,
            "sessions_evicted": s.sessions_evicted,
            "sessions_resumed": s.sessions_resumed,
            "sessions_suspended": s.sessions_suspended,
            "checkpoints": s.checkpoints,
            "chunks": s.chunks,
            "samples": s.samples,
            "windows": s.windows,
            "reports": s.reports,
            "bytes_in": s.bytes_in,
            "bytes_out": s.bytes_out,
            "protocol_errors": s.protocol_errors,
            "registry": {
                "lru_hits": self.registry.cache_hits,
                "lru_misses": self.registry.cache_misses,
                "cached": len(self.registry.cached_fingerprints),
            },
            # Which model each open session runs, by full registry spec
            # -- a derived model shows its +cal: provenance here, so an
            # operator can see at a glance which sessions serve
            # calibrated fingerprints.
            "sessions": [
                {
                    "session": sid,
                    "model": state.model_spec,
                    "fingerprint": state.model_fp,
                }
                for sid, state in sorted(self._states.items())
            ],
        }
        if OBS.enabled:
            payload["metrics"] = snapshot_module("repro.serve")
        return payload

    # -- connection handling --------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
        data: bytes,
    ) -> None:
        async with wlock:
            writer.write(data)
            await writer.drain()
        self.stats.bytes_out += len(data)

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        wlock = asyncio.Lock()
        state: Optional[_SessionState] = None
        try:
            state = await self._handshake(reader, writer, wlock)
            if state is not None:
                state.worker = _spawn(
                    asyncio.get_running_loop(), self._session_worker(state)
                )
                await self._ingest(reader, state)
                # Wait for the worker to flush its final frames (the
                # summary CLOSE, or nothing if the session aborted).
                with contextlib.suppress(asyncio.CancelledError):
                    await state.worker
        except ProtocolError as error:
            self.stats.protocol_errors += 1
            with contextlib.suppress(Exception):
                await self._send(
                    writer, wlock, error_frame(ERR_BAD_FRAME, str(error))
                )
        except (ConnectionError, asyncio.TimeoutError):
            pass
        except Exception as error:  # keep the server alive, tell the peer
            with contextlib.suppress(Exception):
                await self._send(
                    writer, wlock,
                    error_frame(ERR_INTERNAL, f"internal error: {error}"),
                )
        finally:
            if state is not None:
                await self._reap_session(state)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
    ) -> Optional[_SessionState]:
        """HELLO negotiation and OPEN/RESUME admission; None = turned away."""
        # HELLO: version negotiation comes first on every connection.
        frame = await read_frame(reader)
        if frame is None:
            return None
        self.stats.bytes_in += len(frame) + protocol.HEADER.size
        if frame.type != FrameType.HELLO:
            await self._send(
                writer, wlock,
                error_frame(
                    ERR_BAD_STATE,
                    f"expected HELLO, got {frame.type.name}",
                ),
            )
            return None
        hello = parse_json(frame)
        version = negotiate_version(hello.get("versions", ()))
        if version is None:
            await self._send(
                writer, wlock,
                error_frame(
                    ERR_UNSUPPORTED_VERSION,
                    f"no shared protocol version (server speaks "
                    f"{protocol.PROTOCOL_VERSION}, client offered "
                    f"{hello.get('versions')})",
                ),
            )
            return None
        from repro import __version__

        await self._send(
            writer, wlock,
            json_frame(FrameType.HELLO, {
                "version": version,
                "server": f"eddie-serve/{__version__}",
            }),
        )

        # Control phase: STATS any number of times, then OPEN or RESUME.
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return None
            self.stats.bytes_in += len(frame) + protocol.HEADER.size
            if frame.type == FrameType.STATS:
                await self._send(
                    writer, wlock,
                    json_frame(FrameType.STATS, self.stats_payload()),
                )
                continue
            if frame.type == FrameType.OPEN:
                return await self._admit(parse_json(frame), writer, wlock)
            if frame.type == FrameType.RESUME:
                return await self._admit_resume(
                    parse_json(frame), writer, wlock
                )
            await self._send(
                writer, wlock,
                error_frame(
                    ERR_BAD_STATE,
                    f"expected OPEN, RESUME, or STATS, got "
                    f"{frame.type.name}",
                ),
            )
            return None

    def _resumable(self, state: _SessionState) -> bool:
        """Can this session checkpoint for later resumption?"""
        return self.config.checkpoint_interval > 0 and not state.evicted

    @staticmethod
    def _parse_window(payload: Dict) -> int:
        try:
            return max(1, min(1024, int(payload.get("window", 8))))
        except (TypeError, ValueError):
            return 8

    async def _admit(
        self,
        open_payload: Dict,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
    ) -> Optional[_SessionState]:
        spec = open_payload.get("model")
        if not isinstance(spec, str) or not spec:
            await self._send(
                writer, wlock,
                error_frame(ERR_BAD_FRAME, "OPEN needs a 'model' spec"),
            )
            return None
        try:
            t0 = float(open_payload.get("t0", 0.0))
        except (TypeError, ValueError):
            await self._send(
                writer, wlock,
                error_frame(ERR_BAD_FRAME, "OPEN 't0' must be a number"),
            )
            return None
        if self._draining:
            await self._send(
                writer, wlock,
                error_frame(
                    ERR_DRAINING,
                    "server is draining; retry against its successor",
                ),
            )
            return None
        async with self._admission:
            # Shedding: with eviction off, turn the newcomer away with a
            # typed error instead of letting the fleet raise -- surviving
            # sessions never notice.
            if (
                len(self._fleet) >= self.config.max_sessions
                and not self.config.evict_idle
            ):
                self.stats.sessions_shed += 1
                await self._send(
                    writer, wlock,
                    error_frame(
                        ERR_AT_CAPACITY,
                        f"server is at its {self.config.max_sessions}-"
                        f"session capacity; retry later",
                    ),
                )
                return None
            try:
                model, entry = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self.registry.load, spec
                )
            except RegistryError as error:
                await self._send(
                    writer, wlock, error_frame(error.code, str(error))
                )
                return None
            self._session_seq += 1
            session_id = f"s{self._epoch}-{self._session_seq:06d}"
            # May evict the stalest session (evict_idle=True); the
            # on_evict hook notifies that connection.
            self._fleet.add_session(session_id, model, t0=t0)
        state = _SessionState(
            session_id=session_id,
            queue=asyncio.Queue(maxsize=self.config.queue_depth),
            writer=writer,
            wlock=wlock,
            window=self._parse_window(open_payload),
            model_fp=entry.fingerprint,
            model_spec=entry.spec,
        )
        ack = {
            "session": session_id,
            "model": {
                "name": entry.name,
                "version": entry.version,
                "spec": entry.spec,
                "fingerprint": entry.fingerprint,
                "program": model.program_name,
                "sample_rate": model.sample_rate,
            },
        }
        if self.config.worker_id is not None:
            ack["worker"] = self.config.worker_id
        if self._resumable(state):
            state.token = secrets.token_hex(16)
            ack["resume"] = {
                "token": state.token,
                "checkpoint_interval": self.config.checkpoint_interval,
            }
        self._states[session_id] = state
        self.stats.sessions_opened += 1
        await self._send(writer, wlock, json_frame(FrameType.OPEN, ack))
        return state

    async def _admit_resume(
        self,
        payload: Dict,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
    ) -> Optional[_SessionState]:
        """Restore a suspended session from its spill file."""

        async def refuse(code: str, message: str) -> None:
            await self._send(writer, wlock, error_frame(code, message))

        if self._draining:
            await refuse(
                ERR_DRAINING,
                "server is draining; retry against its successor",
            )
            return None
        if self.config.checkpoint_interval <= 0:
            await refuse(
                ERR_RESUME_REJECTED,
                "checkpointing is disabled on this server",
            )
            return None
        session_id = payload.get("session")
        token = payload.get("token")
        if (
            not isinstance(session_id, str)
            or not session_id
            or not isinstance(token, str)
            or os.sep in session_id
            or session_id.startswith(".")
        ):
            await refuse(
                ERR_BAD_FRAME, "RESUME needs a 'session' id and a 'token'"
            )
            return None
        try:
            delivered = int(payload.get("delivered", 0))
        except (TypeError, ValueError):
            await refuse(ERR_BAD_FRAME, "RESUME 'delivered' must be an int")
            return None
        async with self._admission:
            old = self._states.get(session_id)
            if old is not None:
                # A half-dead connection still owns this id. Kick it:
                # closing its transport runs the abort path, which spills
                # the freshest state before we load it back.
                old.writer.close()
                if old.worker is not None and not old.worker.done():
                    with contextlib.suppress(Exception):
                        await asyncio.wait_for(
                            asyncio.shield(old.worker), timeout=10
                        )
                if old.worker is not None and not old.worker.done():
                    await refuse(
                        ERR_RESUME_REJECTED,
                        f"session {session_id!r} is still active",
                    )
                    return None
            if (
                len(self._fleet) >= self.config.max_sessions
                and not self.config.evict_idle
            ):
                self.stats.sessions_shed += 1
                await refuse(
                    ERR_AT_CAPACITY,
                    f"server is at its {self.config.max_sessions}-"
                    f"session capacity; retry later",
                )
                return None
            path = self._spill_path(session_id)
            if not path.exists() and not self._adopt_spill(session_id):
                await refuse(
                    ERR_UNKNOWN_SESSION,
                    f"no checkpoint for session {session_id!r}",
                )
                return None

            def load_work():
                snap = load_snapshot(path)
                serve_meta = snap.meta.get("serve")
                if not isinstance(serve_meta, dict):
                    raise ConfigurationError(
                        "checkpoint lacks serving metadata"
                    )
                model, entry = self.registry.load(
                    str(serve_meta.get("model", ""))
                )
                monitor = StreamingMonitor.restore(model, snap)
                return serve_meta, model, entry, monitor

            try:
                serve_meta, model, entry, monitor = (
                    await asyncio.get_running_loop().run_in_executor(
                        self._pool, load_work
                    )
                )
            except (ConfigurationError, MonitoringError, RegistryError) as error:
                await refuse(
                    ERR_RESUME_REJECTED,
                    f"cannot restore session {session_id!r}: {error}",
                )
                return None
            if not hmac.compare_digest(
                str(serve_meta.get("token", "")), token
            ):
                await refuse(ERR_RESUME_REJECTED, "resume token mismatch")
                return None
            durable = int(serve_meta.get("seq", 0))
            log = [
                entry_ for entry_ in serve_meta.get("report_log", [])
                if isinstance(entry_, dict)
            ]
            # Reports the client never saw but whose chunks it will NOT
            # replay (they are <= the durable checkpoint): re-deliver
            # from the retained log so nothing is lost or double-scored.
            replayed = sorted(
                (
                    p for p in log
                    if delivered < int(p.get("seq", -1)) <= durable
                ),
                key=lambda p: int(p.get("seq", 0)),
            )
            if len(replayed) != max(0, durable - delivered):
                await refuse(
                    ERR_RESUME_REJECTED,
                    f"client is {durable - delivered} reports behind the "
                    f"retained log; cannot resume exactly-once",
                )
                return None
            window = self._parse_window(payload)
            try:
                self._fleet.attach_session(session_id, monitor)
            except ConfigurationError as error:
                await refuse(ERR_INTERNAL, str(error))
                return None
            state = _SessionState(
                session_id=session_id,
                queue=asyncio.Queue(maxsize=self.config.queue_depth),
                writer=writer,
                wlock=wlock,
                token=token,
                window=window,
                last_seq=durable,
                durable_seq=durable,
                model_fp=entry.fingerprint,
                model_spec=entry.spec,
            )
            state.report_log.extend(log)
            self._trim_report_log(state)
            self._states[session_id] = state
            self.stats.sessions_resumed += 1
        resume_ack = {
                "session": session_id,
                "seq": durable,
                "model": {
                    "name": entry.name,
                    "version": entry.version,
                    "spec": entry.spec,
                    "fingerprint": entry.fingerprint,
                    "program": model.program_name,
                    "sample_rate": model.sample_rate,
                },
                "reports": replayed,
        }
        if self.config.worker_id is not None:
            resume_ack["worker"] = self.config.worker_id
        await self._send(
            writer, wlock, json_frame(FrameType.RESUME, resume_ack)
        )
        return state

    async def _ingest(
        self, reader: asyncio.StreamReader, state: _SessionState
    ) -> None:
        """Read loop: socket frames into the session's bounded queue."""
        while True:
            try:
                frame = await read_frame(reader)
            except ProtocolError:
                if state.finalized:
                    return
                raise
            if state.finalized:
                # The worker already took this session down (drain or a
                # fatal sequencing error); nothing consumes the queue.
                return
            if frame is None:
                # Peer vanished without CLOSE: abort without a summary.
                await state.queue.put(("abort", None, None))
                return
            self.stats.bytes_in += len(frame) + protocol.HEADER.size
            if frame.type == FrameType.CHUNK:
                seq, samples = protocol.decode_chunk(frame)
                # Bounded put = the ingestion backpressure point.
                await state.queue.put(("chunk", seq, samples))
            elif frame.type == FrameType.CLOSE:
                await state.queue.put(("close", None, None))
                return
            elif frame.type == FrameType.STATS:
                await self._send(
                    state.writer, state.wlock,
                    json_frame(FrameType.STATS, self.stats_payload()),
                )
            else:
                await self._send(
                    state.writer, state.wlock,
                    error_frame(
                        ERR_BAD_STATE,
                        f"unexpected {frame.type.name} frame mid-session",
                    ),
                )
                await state.queue.put(("abort", None, None))
                return

    # -- checkpoint / spill ---------------------------------------------------

    def _spill_path(self, session_id: str) -> Path:
        return self.spill_dir / f"{session_id}.npz"

    def _adopt_spill(self, session_id: str) -> bool:
        """Claim a sibling worker's checkpoint into our own namespace.

        In a sharded cluster (DESIGN.md D21) each worker spills under
        its own directory. When a worker dies, its sessions resume onto
        a survivor whose own namespace has no spill for them: search
        the fallback namespaces and move the file over -- ``os.replace``
        within one filesystem, so the spill is never owned by two
        workers at once.
        """
        target = self._spill_path(session_id)
        for fallback in self.config.spill_fallback_dirs:
            candidate = Path(fallback) / f"{session_id}.npz"
            if candidate == target or not candidate.exists():
                continue
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(candidate, target)
            except OSError:
                continue
            return True
        return False

    def _drop_spill(self, session_id: str) -> None:
        with contextlib.suppress(OSError):
            self._spill_path(session_id).unlink()

    def _trim_report_log(self, state: _SessionState) -> None:
        cap = state.window + _REPORT_LOG_MARGIN
        while len(state.report_log) > cap:
            state.report_log.popleft()

    async def _checkpoint_session(self, state: _SessionState) -> bool:
        """Spill the session's stream state; True when durable on disk."""
        try:
            session = self._fleet.session(state.session_id)
        except Exception:
            return False
        monitor = session.monitor
        serve_meta = {
            "token": state.token,
            "seq": state.last_seq,
            "window": state.window,
            "model": f"fp:{state.model_fp}",
            "report_log": list(state.report_log),
        }
        path = self._spill_path(state.session_id)

        def work() -> None:
            snap = monitor.snapshot()
            snap.meta["serve"] = serve_meta
            blob = snapshot_to_bytes(snap)
            atomic_write(path, lambda tmp: tmp.write_bytes(blob))

        try:
            await asyncio.get_running_loop().run_in_executor(
                self._pool, work
            )
        except Exception:
            return False
        if state.evicted:
            # Eviction raced the pool-thread write: `_on_evict` dropped
            # the spill, then our os.replace landed and resurrected it.
            # An evicted session must stay dead, so undo the write.
            self._drop_spill(state.session_id)
            return False
        state.since_checkpoint = 0
        state.durable_seq = state.last_seq
        self.stats.checkpoints += 1
        return True

    async def _ensure_checkpoint(self, state: _SessionState) -> bool:
        """Make the session durable at ``last_seq`` without rewriting.

        Drain and abort both roll a session forward to its last scored
        chunk. When the periodic checkpoint already spilled at exactly
        that sequence (a kernel-batcher round finishing just as drain
        lands is the common race), rewriting the same state would count
        a second checkpoint for one sequence number -- skip it.
        """
        if (
            state.since_checkpoint == 0
            and state.durable_seq == state.last_seq
            and self._spill_path(state.session_id).exists()
        ):
            return True
        return await self._checkpoint_session(state)

    async def _checkpoint_and_ack(self, state: _SessionState) -> bool:
        ok = await self._checkpoint_session(state)
        if ok:
            with contextlib.suppress(ConnectionError, OSError):
                await self._send(
                    state.writer, state.wlock,
                    json_frame(FrameType.CHECKPOINT_ACK, {
                        "session": state.session_id,
                        "seq": state.durable_seq,
                    }),
                )
        return ok

    @staticmethod
    def _flush_queue(state: _SessionState) -> None:
        while True:
            try:
                state.queue.get_nowait()
            except asyncio.QueueEmpty:
                return

    def _suspend_fleet_session(self, state: _SessionState) -> bool:
        try:
            self._fleet.detach_session(state.session_id)
        except Exception:
            return False
        state.suspended = True
        self.stats.sessions_suspended += 1
        return True

    # -- session worker -------------------------------------------------------

    async def _session_worker(self, state: _SessionState) -> None:
        """Feed the session queue through the kernel batcher, emit REPORTs."""
        lat_hist = (
            histogram("repro.serve", "chunk_latency_ms", _LATENCY_EDGES_MS)
            if OBS.enabled else None
        )
        try:
            while True:
                kind, seq, samples = await state.queue.get()
                if kind == "close":
                    state.finalized = True
                    summary = self._close_fleet_session(state.session_id)
                    self._drop_spill(state.session_id)
                    if summary is not None:
                        await self._send(
                            state.writer, state.wlock,
                            json_frame(
                                FrameType.CLOSE,
                                protocol.summary_to_json(summary),
                            ),
                        )
                    return
                if kind == "abort":
                    await self._abort_session(state)
                    return
                if kind == "drain":
                    await self._drain_session(state)
                    return
                if seq != state.last_seq + 1:
                    # Exactly-once depends on a gapless chunk sequence;
                    # refuse rather than silently mis-score.
                    await self._refuse_chunk(
                        state,
                        f"chunk seq {seq} out of order (expected "
                        f"{state.last_seq + 1})",
                    )
                    return
                started = time.perf_counter()
                try:
                    results = await self._batcher.submit(
                        state.session_id, samples
                    )
                except SignalError as error:
                    # The chunk cannot be scored (e.g. non-finite samples
                    # on an ungated model).
                    await self._refuse_chunk(state, str(error))
                    return
                except Exception:
                    # The session was evicted (or otherwise closed)
                    # between dequeue and feed; the eviction path already
                    # notified the peer.
                    return
                elapsed_ms = (time.perf_counter() - started) * 1e3
                reports = [r for res in results for r in res.reports]
                windows = sum(len(res.times) for res in results)
                status = results[-1].status if results else "ok"
                self.stats.chunks += 1
                self.stats.samples += len(samples)
                self.stats.windows += windows
                self.stats.reports += len(reports)
                state.reports_sent += len(reports)
                if OBS.enabled:
                    lat_hist.record(elapsed_ms)
                payload = {
                    "seq": seq,
                    "windows": windows,
                    "status": status,
                    "reports": [
                        protocol.report_to_json(r) for r in reports
                    ],
                }
                state.last_seq = seq
                state.since_checkpoint += 1
                if self._resumable(state):
                    state.report_log.append(payload)
                    self._trim_report_log(state)
                await self._send(
                    state.writer, state.wlock,
                    json_frame(FrameType.REPORT, payload),
                )
                if (
                    self._resumable(state)
                    and state.since_checkpoint
                    >= self.config.checkpoint_interval
                ):
                    await self._checkpoint_and_ack(state)
        except ConnectionError:
            # The peer went away mid-send. Its REPORT is in the report
            # log, so take the abort path: a RESUME must find the spill.
            await self._abort_session(state)
        except asyncio.CancelledError:
            self._close_fleet_session(state.session_id)
            raise

    async def _abort_session(self, state: _SessionState) -> None:
        """Suspend a session whose connection ended, or close it."""
        state.finalized = True
        if self._resumable(state):
            # Roll-forward spill at the last scored chunk, so a resume
            # recomputes as little as possible.
            if await self._ensure_checkpoint(state):
                if self._suspend_fleet_session(state):
                    return
        self._close_fleet_session(state.session_id)

    async def _drain_session(self, state: _SessionState) -> None:
        """Suspend one session for the drain path and notify the peer."""
        state.finalized = True
        # Queued-but-unscored chunks are past the checkpoint we are about
        # to take; the client still holds them and replays them on
        # resume. Emptying the queue also unblocks a reader mid-put.
        self._flush_queue(state)
        suspended = False
        if self._resumable(state):
            if await self._ensure_checkpoint(state):
                suspended = self._suspend_fleet_session(state)
        if suspended:
            with contextlib.suppress(ConnectionError, OSError):
                await self._send(
                    state.writer, state.wlock,
                    json_frame(FrameType.CHECKPOINT_ACK, {
                        "session": state.session_id,
                        "seq": state.durable_seq,
                    }),
                )
        else:
            self._close_fleet_session(state.session_id)
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(
                state.writer, state.wlock,
                json_frame(FrameType.STATS, self.stats_payload()),
            )
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(
                state.writer, state.wlock,
                error_frame(
                    ERR_DRAINING,
                    f"session {state.session_id} suspended for drain; "
                    f"resume against this server's successor"
                    if suspended else
                    f"session {state.session_id} closed for drain",
                ),
            )
        state.writer.close()

    async def _refuse_chunk(self, state: _SessionState, message: str) -> None:
        """Refuse a chunk with a typed ``bad_frame`` ERROR, close the
        session, and hang up."""
        state.finalized = True
        self._flush_queue(state)
        self.stats.protocol_errors += 1
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(
                state.writer, state.wlock, error_frame(ERR_BAD_FRAME, message)
            )
        self._close_fleet_session(state.session_id)
        state.writer.close()

    def _close_fleet_session(
        self, session_id: str
    ) -> Optional[StreamSummary]:
        try:
            summary = self._fleet.close_session(session_id)
        except Exception:
            return None  # already closed (eviction, suspend, or reap)
        self.stats.sessions_closed += 1
        return summary

    async def _reap_session(self, state: _SessionState) -> None:
        """Last-resort cleanup when a connection ends abnormally."""
        worker = state.worker
        if worker is not None and not worker.done():
            try:
                state.queue.put_nowait(("abort", None, None))
            except asyncio.QueueFull:
                worker.cancel()
            try:
                await asyncio.wait_for(worker, timeout=10)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                worker.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, Exception
                ):
                    await worker
            except Exception:
                pass
        # The state stays registered until its worker is done, so a
        # racing RESUME waits for the abort spill instead of restoring
        # beside a still-attached session. A RESUME may since have handed
        # the id to a newer connection; only the current owner may tear
        # the session down.
        if self._states.get(state.session_id) is not state:
            return
        del self._states[state.session_id]
        if not state.suspended:
            self._close_fleet_session(state.session_id)

    # -- eviction -------------------------------------------------------------

    def _on_evict(self, session_id: str, summary: StreamSummary) -> None:
        """FleetScheduler evicted ``session_id`` to admit a newcomer."""
        self.stats.sessions_evicted += 1
        self.stats.sessions_closed += 1
        # An evicted session is gone for good; a stale spill must not
        # let it rise from the dead with rolled-back state.
        self._drop_spill(session_id)
        state = self._states.get(session_id)
        if state is None:
            return
        state.evicted = True
        state.evict_notice = _spawn(self._loop, self._notify_evicted(state))

    async def _notify_evicted(self, state: _SessionState) -> None:
        with contextlib.suppress(Exception):
            await self._send(
                state.writer, state.wlock,
                error_frame(
                    ERR_EVICTED,
                    f"session {state.session_id} was evicted as the "
                    f"stalest at capacity",
                ),
            )
        # Closing the transport ends the connection's read loop, which
        # aborts the worker through the normal reap path.
        state.writer.close()


# -- thread-hosted serving (sync callers: tests, benches, CLI clients) --------


class LoopThread:
    """Runs an object with async ``start``/``stop`` on its own loop thread.

    ``build`` makes the object on that thread, so anything it binds to
    the running loop binds to the right one. Construction returns once
    ``start()`` has completed, so a hosted server's address is
    immediately connectable; a failing start (a bind error) is raised to
    the caller as :class:`ServeError`. Stop with :meth:`stop` or use the
    handle as a context manager.
    """

    def __init__(self, build, name: str) -> None:
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: List[Exception] = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._target = build()
                self._loop.run_until_complete(self._target.start())
            except Exception as error:  # surface bind failures to the caller
                failure.append(error)
            started.set()
            if not failure:
                self._loop.run_forever()
            with contextlib.suppress(Exception):
                self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

        self._thread = threading.Thread(target=run, name=name, daemon=True)
        self._thread.start()
        if not started.wait(timeout=30):
            raise ServeError(f"{name} failed to start within 30s")
        if failure:
            raise ServeError(f"{name} failed to start: {failure[0]}")

    def call(self, coro, timeout: float):
        """Run ``coro`` on the hosted loop and return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    def stop(self, timeout: float = 10.0) -> None:
        if not self._thread.is_alive():
            return
        with contextlib.suppress(Exception):
            self.call(self._target.stop(), timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServerHandle(LoopThread):
    """An :class:`EddieServer` running on its own event-loop thread."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServerConfig] = None,
    ) -> None:
        super().__init__(
            lambda: EddieServer(registry, config=config), "eddie-serve-loop"
        )
        self.server: EddieServer = self._target

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    @property
    def stats(self) -> ServerStats:
        return self.server.stats

    def drain(self, timeout: float = 30.0) -> Dict:
        """Checkpoint and suspend every live session; returns final stats."""
        if not self._thread.is_alive():
            return self.server.stats_payload()
        return self.call(self.server.drain(), timeout)


def serve_in_thread(
    registry: ModelRegistry,
    config: Optional[ServerConfig] = None,
) -> ServerHandle:
    """Start an :class:`EddieServer` on a dedicated event-loop thread.

    The synchronous entry point tests, benchmarks, and scripts use:
    returns once the socket is bound, so ``handle.address`` is
    immediately connectable. Stop with ``handle.stop()`` (or use it as a
    context manager). ``handle.drain()`` is the graceful half of a
    restart: suspended sessions resume against the next server pointed
    at the same registry.
    """
    return ServerHandle(registry, config)
