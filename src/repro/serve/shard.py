"""Sharded multi-worker serving (DESIGN.md D21): router + placement.

One :class:`EddieServer` is one asyncio loop feeding one thread pool --
a single-core ceiling. This module scales the serving layer across N
worker processes behind one entry address:

- :func:`place` -- rendezvous (highest-random-weight) hashing of a
  session's shard key over the live worker set. Deterministic,
  order-independent, balanced within ~sqrt statistics, and minimally
  disruptive: removing a worker re-places only that worker's keys.
- :class:`ShardRouter` -- the asyncio frontend every client dials.
  STATS fans out to the workers and merges their snapshots exactly
  (:func:`merge_stats_payloads`); OPEN/RESUME is placed by shard key
  and answered with a ``REDIRECT``: the client re-dials the owning
  worker and talks to it directly -- zero router cost on the chunk hot
  path.
- :class:`ShardCluster` -- N worker processes plus a router as one
  handle. Workers share the read-only model registry but checkpoint
  into per-worker spill namespaces (``<spill root>/wNN``); every worker
  lists its siblings' namespaces as fallbacks, so when a worker dies
  its sessions RESUME onto a survivor which *adopts* the orphaned
  spill. SIGTERM drains a worker gracefully (the rolling-restart
  path); SIGKILL leaves its sessions to the periodic checkpoints.

Bit-identity is preserved end to end: placement only decides *where* a
session's monitor lives, never how its windows are scored, so a sharded
replay equals a single-worker replay equals a local
:class:`~repro.stream.StreamingMonitor` run (``tests/test_serve_sharded.py``).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError
from repro.obs import merge_snapshots
from repro.serve import protocol
from repro.serve.protocol import (
    ERR_NO_WORKERS,
    FrameType,
    error_frame,
    json_frame,
    negotiate_version,
    parse_json,
    read_frame,
)
from repro.serve.registry import ModelRegistry
from repro.serve.server import LoopThread, ServerConfig

__all__ = [
    "ShardCluster",
    "ShardRouter",
    "WorkerSpec",
    "merge_stats_payloads",
    "place",
]


# -- consistent-hash placement ------------------------------------------------


def place(key: str, worker_ids: Sequence[int]) -> int:
    """The worker that owns ``key``, by rendezvous (HRW) hashing.

    Every candidate worker is scored with
    ``sha256(f"{worker_id}|{key}")`` and the highest score wins. The
    winner is a pure function of (key, candidate set): any router
    replica computes the same owner without coordination, and removing
    one worker re-places only the keys that worker owned -- the other
    assignments are untouched (unlike modulo hashing, which reshuffles
    nearly everything).
    """
    if not worker_ids:
        raise ServeError("no workers to place onto", code=ERR_NO_WORKERS)
    best_id: Optional[int] = None
    best_score = b""
    for worker_id in worker_ids:
        score = hashlib.sha256(
            f"{int(worker_id)}|{key}".encode("utf-8")
        ).digest()
        if best_id is None or score > best_score:
            best_id, best_score = int(worker_id), score
    return best_id


@dataclass(frozen=True)
class WorkerSpec:
    """One worker's slot and dial address."""

    worker_id: int
    host: str
    port: int

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


# -- fleet-wide STATS merge ---------------------------------------------------

# Per-worker counters and capacities that sum across the fleet.
_SUM_KEYS = frozenset({
    "sessions_open", "max_sessions", "sessions_opened", "sessions_closed",
    "sessions_shed", "sessions_evicted", "sessions_resumed",
    "sessions_suspended", "checkpoints", "chunks", "samples", "windows",
    "reports", "bytes_in", "bytes_out", "protocol_errors",
})
# Config echoes that are uniform across workers: first one wins.
_FIRST_KEYS = frozenset({"evict_idle", "checkpoint_interval"})


def merge_stats_payloads(payloads: Sequence[Dict]) -> Dict:
    """Fold per-worker STATS payloads into one fleet-wide snapshot.

    Counter totals are exact sums of the worker values (asserted in
    ``tests/test_serve_sharded.py``); ``draining`` is true when any
    worker drains; the registry LRU block sums; the per-worker payloads
    ride along under ``"workers"`` so nothing is lost in aggregation.
    """
    merged: Dict[str, Any] = {"workers": [], "worker_count": len(payloads)}
    registry_sums: Dict[str, int] = {}
    metric_snaps: List[Dict] = []
    sessions: List[Dict] = []
    draining = False
    for payload in payloads:
        merged["workers"].append(dict(payload))
        draining = draining or bool(payload.get("draining"))
        for session in payload.get("sessions", ()):
            if isinstance(session, dict):
                tagged = dict(session)
                if payload.get("worker") is not None:
                    tagged.setdefault("worker", payload["worker"])
                sessions.append(tagged)
        for key, value in payload.items():
            if key in _SUM_KEYS and isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            elif key in _FIRST_KEYS and key not in merged:
                merged[key] = value
        for key, value in payload.get("registry", {}).items():
            if isinstance(value, (int, float)):
                registry_sums[key] = registry_sums.get(key, 0) + value
        if isinstance(payload.get("metrics"), dict):
            metric_snaps.append(payload["metrics"])
    for key in _SUM_KEYS:
        merged.setdefault(key, 0)
    merged["draining"] = draining
    merged["registry"] = registry_sums
    merged["sessions"] = sorted(
        sessions, key=lambda s: str(s.get("session", ""))
    )
    if metric_snaps:
        merged["metrics"] = merge_snapshots(metric_snaps)
    return merged


# -- the shard router ---------------------------------------------------------


@dataclass
class RouterStats:
    """Cumulative router counters (loop-thread mutated)."""

    connections: int = 0
    redirects: int = 0
    stats_fanouts: int = 0
    placement_failures: int = 0
    dead_workers_skipped: int = 0


class ShardRouter:
    """The cluster's entry point: places sessions, aggregates STATS.

    The router never touches IQ samples: clients are redirected to their
    worker after one control round trip. Placement consults a short-TTL
    liveness probe
    so sessions stop landing on a dead worker within ``probe_ttl``
    seconds of its demise.
    """

    def __init__(
        self,
        workers: Sequence[WorkerSpec],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        probe_timeout: float = 1.0,
        probe_ttl: float = 1.0,
    ) -> None:
        if not workers:
            raise ServeError(
                "a shard router needs at least one worker",
                code=ERR_NO_WORKERS,
            )
        self.workers: List[WorkerSpec] = list(workers)
        self.host = host
        self.port = port
        self.probe_timeout = float(probe_timeout)
        self.probe_ttl = float(probe_ttl)
        self.stats = RouterStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._round_robin = 0
        # worker_id -> (alive?, probed-at); entries expire after
        # probe_ttl so a restarted worker comes back into rotation.
        self._liveness: Dict[int, Tuple[bool, float]] = {}

    # -- lifecycle --

    async def start(self) -> None:
        if self._server is not None:
            raise ServeError("router is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise ServeError("router is not started")
        return self._server.sockets[0].getsockname()[:2]

    # -- liveness --

    def invalidate_worker(self, worker_id: int) -> None:
        """Drop the cached liveness verdict (a dial just failed)."""
        self._liveness.pop(worker_id, None)

    async def _probe(self, spec: WorkerSpec) -> bool:
        cached = self._liveness.get(spec.worker_id)
        now = time.monotonic()
        if cached is not None and now - cached[1] < self.probe_ttl:
            return cached[0]
        alive = True
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*spec.address),
                timeout=self.probe_timeout,
            )
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        except (OSError, asyncio.TimeoutError):
            alive = False
        self._liveness[spec.worker_id] = (alive, now)
        if not alive:
            self.stats.dead_workers_skipped += 1
        return alive

    async def _live_workers(self) -> List[WorkerSpec]:
        verdicts = await asyncio.gather(
            *(self._probe(spec) for spec in self.workers)
        )
        return [s for s, ok in zip(self.workers, verdicts) if ok]

    # -- placement --

    async def _place_session(self, payload: Dict) -> WorkerSpec:
        """The worker that should own this OPEN/RESUME."""
        live = await self._live_workers()
        if not live:
            raise ServeError(
                "no live workers behind this router", code=ERR_NO_WORKERS
            )
        key = payload.get("shard_key") or payload.get("session")
        if not isinstance(key, str) or not key:
            # A keyless OPEN (old client, new session) has no placement
            # to preserve: spread it round-robin over the live set.
            self._round_robin += 1
            return live[self._round_robin % len(live)]
        owner = place(key, [s.worker_id for s in live])
        return next(s for s in live if s.worker_id == owner)

    # -- connection handling --

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.stats.connections += 1
        try:
            await self._serve_peer(reader, writer)
        except (ConnectionError, asyncio.TimeoutError, OSError):
            pass
        except protocol.ProtocolError as error:
            with contextlib.suppress(Exception):
                writer.write(error_frame(protocol.ERR_BAD_FRAME, str(error)))
                await writer.drain()
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    async def _serve_peer(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        frame = await read_frame(reader)
        if frame is None:
            return
        if frame.type != FrameType.HELLO:
            await self._send(writer, error_frame(
                protocol.ERR_BAD_STATE,
                f"expected HELLO, got {frame.type.name}",
            ))
            return
        hello = parse_json(frame)
        version = negotiate_version(hello.get("versions", ()))
        if version is None:
            await self._send(writer, error_frame(
                protocol.ERR_UNSUPPORTED_VERSION,
                f"no shared protocol version (router speaks "
                f"{protocol.PROTOCOL_VERSION}, client offered "
                f"{hello.get('versions')})",
            ))
            return
        from repro import __version__

        await self._send(writer, json_frame(FrameType.HELLO, {
            "version": version,
            "server": f"eddie-shard-router/{__version__}",
        }))
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            if frame.type == FrameType.STATS:
                await self._send(writer, json_frame(
                    FrameType.STATS, await self.cluster_stats()
                ))
                continue
            if frame.type in (FrameType.OPEN, FrameType.RESUME):
                payload = parse_json(frame)
                try:
                    spec = await self._place_session(payload)
                except ServeError as error:
                    self.stats.placement_failures += 1
                    await self._send(
                        writer, error_frame(error.code, str(error))
                    )
                    return
                self.stats.redirects += 1
                await self._send(writer, json_frame(FrameType.REDIRECT, {
                    "worker": spec.worker_id,
                    "host": spec.host,
                    "port": spec.port,
                }))
                # The client re-dials the worker; it may also send
                # another OPEN/RESUME here after a failed dial, so keep
                # reading.
                continue
            await self._send(writer, error_frame(
                protocol.ERR_BAD_STATE,
                f"expected OPEN, RESUME, or STATS, got {frame.type.name}",
            ))
            return

    # -- fleet-wide stats --

    async def _worker_stats(self, spec: WorkerSpec) -> Optional[Dict]:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*spec.address),
                timeout=self.probe_timeout,
            )
        except (OSError, asyncio.TimeoutError):
            self.invalidate_worker(spec.worker_id)
            return None
        try:
            writer.write(json_frame(FrameType.HELLO, {
                "versions": [protocol.PROTOCOL_VERSION],
            }))
            writer.write(json_frame(FrameType.STATS, {}))
            await writer.drain()
            hello = await read_frame(reader)
            if hello is None or hello.type != FrameType.HELLO:
                return None
            stats = await read_frame(reader)
            if stats is None or stats.type != FrameType.STATS:
                return None
            return parse_json(stats)
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def cluster_stats(self) -> Dict:
        """Fan STATS out to every worker; merge into one snapshot."""
        self.stats.stats_fanouts += 1
        results = await asyncio.gather(
            *(self._worker_stats(spec) for spec in self.workers)
        )
        payloads = [p for p in results if p is not None]
        merged = merge_stats_payloads(payloads)
        merged["router"] = {
            "workers_configured": len(self.workers),
            "workers_responding": len(payloads),
            "connections": self.stats.connections,
            "redirects": self.stats.redirects,
            "stats_fanouts": self.stats.stats_fanouts,
            "placement_failures": self.stats.placement_failures,
        }
        return merged


class RouterHandle(LoopThread):
    """A :class:`ShardRouter` running on its own event-loop thread."""

    def __init__(
        self, workers: Sequence[WorkerSpec], **router_kwargs
    ) -> None:
        super().__init__(
            lambda: ShardRouter(workers, **router_kwargs),
            "eddie-shard-router",
        )
        self.router: ShardRouter = self._target

    @property
    def address(self) -> Tuple[str, int]:
        return self.router.address

    def cluster_stats(self, timeout: float = 30.0) -> Dict:
        return self.call(self.router.cluster_stats(), timeout)


def route_in_thread(
    workers: Sequence[WorkerSpec], **router_kwargs
) -> RouterHandle:
    """Start a :class:`ShardRouter` on a dedicated event-loop thread."""
    return RouterHandle(workers, **router_kwargs)


# -- worker processes ---------------------------------------------------------


def _worker_process_main(
    registry_root: str,
    cache_size: int,
    config: ServerConfig,
    conn,
) -> None:
    """Entry point of one spawned worker process.

    Rebuilds the registry (with the parent's LRU size), binds the
    server, reports the bound address back over ``conn``, and runs until
    SIGTERM -- which triggers a graceful drain (checkpoint + suspend
    every session) before exit, the rolling-restart half of DESIGN.md
    D21. SIGKILL is the chaos path: no drain, the periodic checkpoints
    alone must carry the sessions (and do -- the survivor adopts the
    spills).
    """
    from repro.serve.server import EddieServer

    # A terminal Ctrl-C signals the whole foreground process group; the
    # parent coordinates shutdown by SIGTERM-ing each worker, so a
    # worker must not die messily on the stray SIGINT before that.
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    registry = ModelRegistry(registry_root, cache_size=cache_size)

    async def run() -> None:
        server = EddieServer(registry, config=config)
        try:
            await server.start()
        except Exception as error:
            conn.send(("error", repr(error)))
            conn.close()
            return
        conn.send(("ready", server.address))
        conn.close()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        await stop.wait()
        await server.drain()
        await server.stop()

    asyncio.run(run())


def _end_process(process, timeout: float) -> None:
    """SIGTERM (the worker drains), then SIGKILL if it overstays."""
    process.terminate()
    process.join(timeout)
    if process.is_alive():
        process.kill()
        process.join(5)


# -- the cluster handle -------------------------------------------------------


@dataclass
class _WorkerSlot:
    spec: WorkerSpec
    process: Any = field(repr=False)
    alive: bool = True


class ShardCluster:
    """N serving worker processes behind one :class:`ShardRouter`.

    ::

        cluster = ShardCluster(registry, workers=4).start()
        host, port = cluster.address          # dial this
        ...
        cluster.drain_worker(2)               # rolling restart, no loss
        cluster.kill_worker(1)                # chaos: sessions resume
        stats = cluster.stats()               # fleet-wide merged STATS
        cluster.stop()

    Each worker is a spawned process running one :class:`EddieServer`,
    so the DSP scales across cores (the ``eddie serve --workers N`` and
    benchmark path). Workers rebuild ``registry`` from its root with the
    same LRU size.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        workers: int = 2,
        config: Optional[ServerConfig] = None,
        host: str = "127.0.0.1",
        router_port: int = 0,
        spill_root: Optional[str] = None,
        probe_timeout: float = 1.0,
        probe_ttl: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ServeError(f"need at least 1 worker, got {workers}")
        self.registry = registry
        self.n_workers = int(workers)
        self.base_config = config or ServerConfig()
        self.host = host
        self.router_port = router_port
        self.probe_timeout = float(probe_timeout)
        self.probe_ttl = float(probe_ttl)
        self.spill_root = Path(
            spill_root if spill_root is not None
            else registry.root / ".sessions"
        )
        self._slots: List[_WorkerSlot] = []
        self._router: Optional[RouterHandle] = None

    # -- lifecycle --

    def _worker_config(self, worker_id: int) -> ServerConfig:
        spill = self.spill_root / f"w{worker_id:02d}"
        siblings = tuple(
            str(self.spill_root / f"w{k:02d}")
            for k in range(self.n_workers) if k != worker_id
        )
        return dataclasses.replace(
            self.base_config,
            host=self.host,
            port=0,
            worker_id=worker_id,
            spill_dir=str(spill),
            spill_fallback_dirs=siblings,
        )

    def start(self) -> "ShardCluster":
        if self._router is not None:
            raise ServeError("cluster is already started")
        self.spill_root.mkdir(parents=True, exist_ok=True)
        try:
            for worker_id in range(self.n_workers):
                self._slots.append(self._start_worker(worker_id))
            self._router = route_in_thread(
                [slot.spec for slot in self._slots],
                host=self.host,
                port=self.router_port,
                probe_timeout=self.probe_timeout,
                probe_ttl=self.probe_ttl,
            )
        except Exception:
            self.stop()
            raise
        return self

    def _start_worker(self, worker_id: int) -> _WorkerSlot:
        config = self._worker_config(worker_id)
        Path(config.spill_dir).mkdir(parents=True, exist_ok=True)
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_process_main,
            args=(
                str(self.registry.root), self.registry.cache_size,
                config, child_conn,
            ),
            name=f"eddie-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        with parent_conn:
            if not parent_conn.poll(60):
                proc.kill()
                proc.join(5)
                raise ServeError(
                    f"worker {worker_id} did not bind within 60s"
                )
            try:
                status, detail = parent_conn.recv()
            except EOFError:
                # The child died before reporting: its pipe end closed.
                proc.join(5)
                raise ServeError(
                    f"worker {worker_id} exited with code {proc.exitcode} "
                    f"before binding"
                ) from None
        if status != "ready":
            proc.join(5)
            raise ServeError(f"worker {worker_id} failed to start: {detail}")
        host, bound = detail
        return _WorkerSlot(WorkerSpec(worker_id, host, bound), proc)

    @property
    def address(self) -> Tuple[str, int]:
        """The router's entry ``(host, port)`` -- what clients dial."""
        if self._router is None:
            raise ServeError("cluster is not started")
        return self._router.address

    @property
    def worker_addresses(self) -> List[Tuple[int, str, int]]:
        return [
            (s.spec.worker_id, s.spec.host, s.spec.port)
            for s in self._slots
        ]

    def worker_handle(self, worker_id: int):
        """The worker's :class:`multiprocessing.Process`."""
        return self._slot(worker_id).process

    def _slot(self, worker_id: int) -> _WorkerSlot:
        for slot in self._slots:
            if slot.spec.worker_id == worker_id:
                return slot
        raise ServeError(f"unknown worker {worker_id}")

    # -- fault / restart operations --

    def _retire(self, slot: _WorkerSlot) -> None:
        slot.alive = False
        if self._router is not None:
            self._router.router.invalidate_worker(slot.spec.worker_id)

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker: no drain, no checkpoint, no goodbye."""
        slot = self._slot(worker_id)
        slot.process.kill()
        slot.process.join(10)
        self._retire(slot)

    def drain_worker(self, worker_id: int, timeout: float = 30.0) -> None:
        """Gracefully drain one worker (the rolling-restart step):
        every session is checkpointed and suspended before it exits."""
        slot = self._slot(worker_id)
        _end_process(slot.process, timeout)
        self._retire(slot)

    # -- observability --

    def stats(self, timeout: float = 30.0) -> Dict:
        """The fleet-wide merged STATS snapshot, via the router."""
        if self._router is None:
            raise ServeError("cluster is not started")
        return self._router.cluster_stats(timeout)

    def stop(self) -> None:
        """Stop the router and every worker. Idempotent."""
        if self._router is not None:
            with contextlib.suppress(Exception):
                self._router.stop()
            self._router = None
        for slot in self._slots:
            if slot.alive:
                with contextlib.suppress(Exception):
                    _end_process(slot.process, 10)
                slot.alive = False
        self._slots.clear()

    def __enter__(self) -> "ShardCluster":
        if self._router is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
