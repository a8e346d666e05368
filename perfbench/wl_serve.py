"""serve-2conn: a served model driven by two lockstep connections.

The server is a separate process started through the product CLI
(``python -m repro.cli serve``) with the default ``ServerConfig``: kernel
batching on, a checkpoint every 16 chunks, its registry holding the
bitcount model. The benchmark process is the load generator: one
thread, two connections, closed loop with ``window=1``. Each step sends
one chunk on each connection and then waits for both REPORTs, so each
device waits for its verdict before sending its next chunk. Each
connection carries one device session replaying a clean capture; the
server ends the connection at CLOSE, so every session dials afresh.

Every serve-layer cost sits on this path (frame codec, asyncio ingest,
queue, kernel batcher, checkpoint spill, report encode) while the
batcher pools at most two sessions, so serve-layer costs show here and
not in the fleet workload.

Timed units: one chunk pair (send both, both REPORTs back) -- the latency
samples -- and each session close + reopen. A reference slice follows
every group of pairs, never right after a chunk whose checkpoint may
still be running on the server.

The server is pinned to the last CPU and the load generator, during the
timed phase, to the first; reference slices alternate between the two.
Unpinned, the server landed on whichever vCPU its neighbours left
faster, which the client-side slices could not see: over six seeds the
normalized throughput's spread was 0.116 unpinned against 0.050 pinned.
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import host
from workloads import (
    PHASE_DEADLINE_S,
    Workload,
    chunked,
    layer_calls,
    layer_time,
    phase_result,
    ratio,
    timed_unit,
)

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = "bitcount"
CONNECTIONS = 2
#: Distinct clean captures; sessions cycle through them.
CAPTURES = 8
#: Windows the timed pairs score per second of ``--seconds``: pairs run
#: until they reach it (~1300 pairs at 10 s, keeping ten beyond the p99).
WINDOWS_PER_SECOND = 4200
#: Pairs between reference slices.
GROUP_PAIRS = 8
#: The server's default checkpoint interval (chunks per session); a
#: reference slice never follows a chunk whose sequence number is a
#: multiple of it, because the server checkpoints after that REPORT.
CHECKPOINT_INTERVAL = 16
#: Seconds allowed for the server to start or to drain at stop.
SERVER_DEADLINE_S = 60.0


class ServeTwoConn(Workload):
    name = "serve-2conn"

    def __init__(self) -> None:
        self.proc = None
        self.address = None
        self._tmp = None
        self._hwm_mb = 0.0

    def import_program(self) -> None:
        from repro.experiments.runner import Scale, build_detector
        from repro.programs.mibench import BENCHMARKS
        from repro.serve import EddieClient, ModelRegistry
        from repro.stream import StreamingMonitor

        self._scale = Scale.quick()
        self._build = build_detector
        self._programs = BENCHMARKS
        self._client_cls = EddieClient
        self._registry_cls = ModelRegistry
        self._monitor_cls = StreamingMonitor

    def train(self) -> None:
        self.detector = self._build(
            self._programs[PROGRAM](), self._scale, source="em"
        )

    # -- server lifecycle -----------------------------------------------------

    def start(self, obs: bool = False) -> None:
        """Publish the model and start the server; returns once it
        accepts connections."""
        if self._tmp is None:
            self._tmp = ROOT / ".bench_out" / f"serve-{os.getpid()}"
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp.mkdir(parents=True)
            self._registry_cls(self._tmp / "registry").publish(
                self.detector.model
            )
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONUNBUFFERED": "1",
            "REPRO_OBS": "1" if obs else "0",
            "REPRO_CACHE_DIR": "",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self._log = open(self._tmp / "server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--registry", str(self._tmp / "registry"),
             "--spill-dir", str(self._tmp / "spill"),
             "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        # Pinned, so the reference slices sample the CPU it works on.
        os.sched_setaffinity(self.proc.pid, {self._cpus()[-1]})
        self.address = self._await_address()
        with socket.create_connection(self.address, timeout=10):
            pass

    def _await_address(self):
        deadline = time.monotonic() + SERVER_DEADLINE_S
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("server did not report its address")
                data = os.read(self.proc.stdout.fileno(), 4096)
                if not data:
                    raise RuntimeError(
                        f"server exited ({self.proc.wait()}) before serving"
                    )
                buf += data
        line = buf.split(b"\n", 1)[0].decode()
        # "serving on HOST:PORT -- ..."
        hostport = line.split("serving on ", 1)[1].split()[0]
        host_, port = hostport.rsplit(":", 1)
        return host_, int(port)

    def server_pid(self):
        return self.proc.pid if self.proc is not None else None

    def restart(self, obs: bool) -> None:
        self._stop_server()
        self.start(obs=obs)

    def _stop_server(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=SERVER_DEADLINE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self._log.close()

    def stop(self) -> None:
        self._stop_server()
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def rss_mb(self) -> float:
        return self._hwm_mb

    # -- inputs ---------------------------------------------------------------

    def prepare(self, seed: int) -> None:
        self.captures = []
        for k in range(CAPTURES):
            trace = self.detector.source.capture(
                seed=self._scale.monitor_seed(seed * 1000 + k)
            )
            chunks = chunked(trace.iq.samples)
            monitor = self._monitor_cls(self.detector.model, t0=trace.iq.t0)
            per_chunk = [
                sum(len(r.times) for r in monitor.feed(c)) for c in chunks
            ]
            summary = monitor.finish()
            self.captures.append({
                "chunks": chunks,
                "t0": trace.iq.t0,
                "per_chunk": per_chunk,
                "windows": summary.windows,
                "reports": list(summary.reports),
            })

    # -- timed phase ----------------------------------------------------------

    @staticmethod
    def _cpus() -> List[int]:
        return sorted(os.sched_getaffinity(0))

    def phase(self, seconds, clock, tracer):
        clock.server_pid = self.server_pid()
        cpus = self._cpus()
        # Slices alternate between the client's CPU and the server's.
        clock.cpus = [cpus[0], cpus[-1]]
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[0]})
        try:
            return self._phase(seconds, clock, tracer)
        finally:
            os.sched_setaffinity(0, home)
            clock.cpus = None

    def _phase(self, seconds, clock, tracer):
        target = WINDOWS_PER_SECOND * seconds
        host_, port = self.address
        opened = [0] * CONNECTIONS
        live: Dict[int, dict] = {}
        sessions: List[dict] = []
        counts = {"chunks": 0, "opens": 0, "errors": 0, "windows_all": 0,
                  "expected_timed": 0, "opened_timed": 0}
        chunk_lat: List[float] = []  # per-chunk client latency, traced

        def open_slot(slot: int) -> None:
            j = opened[slot]
            opened[slot] += 1
            cap = (slot + CONNECTIONS * j) % CAPTURES
            client = self._client_cls(host_, port, window=1)
            counts["opens"] += 1
            client.connect()
            client.open(PROGRAM, t0=self.captures[cap]["t0"])
            entry = {"client": client, "cap": cap, "pos": 0, "reports": []}
            live[slot] = entry
            sessions.append(entry)

        def close_slot(slot: int) -> None:
            entry = live.pop(slot)
            entry["summary"] = entry["client"].close()
            entry["client"].disconnect()

        def pair(timed: bool) -> int:
            """One chunk on every live connection, then every REPORT."""
            slots = sorted(live)
            before = sum(live[s]["client"].windows_seen for s in slots)
            sent = []
            for slot in slots:
                entry = live[slot]
                chunk = self.captures[entry["cap"]]["chunks"][entry["pos"]]
                sent.append(time.perf_counter())
                entry["reports"] += entry["client"].send(chunk)
            for slot, t_sent in zip(slots, sent):
                entry = live[slot]
                entry["reports"] += entry["client"].drain()
                if timed and tracer is not None:
                    chunk_lat.append(time.perf_counter() - t_sent)
                if timed:
                    counts["expected_timed"] += (
                        self.captures[entry["cap"]]["per_chunk"][entry["pos"]]
                    )
                entry["pos"] += 1
                counts["chunks"] += 1
            windows = sum(live[s]["client"].windows_seen for s in slots)
            return windows - before

        def exhausted() -> List[int]:
            return [s for s, e in live.items()
                    if e["pos"] == len(self.captures[e["cap"]]["chunks"])]

        def checkpoint_pending() -> bool:
            return any(e["pos"] and e["pos"] % CHECKPOINT_INTERVAL == 0
                       for e in live.values())

        timer = host.PairedTimer(clock)
        lat_units: List[int] = []
        windows = 0

        def churn(slots):
            for slot in slots:
                close_slot(slot)
                open_slot(slot)
                counts["opened_timed"] += 1

        try:
            for slot in range(CONNECTIONS):
                open_slot(slot)
            if tracer is not None:
                self._install(tracer)
            try:
                since_slice = 0
                deadline = time.perf_counter() + PHASE_DEADLINE_S
                while windows < target and time.perf_counter() < deadline:
                    lat_units.append(len(timer.units))
                    windows += timed_unit(timer, tracer, len(timer.units),
                                          pair, True)
                    since_slice += 1
                    done = exhausted()
                    if done:
                        timed_unit(timer, tracer, len(timer.units),
                                   churn, done)
                    if since_slice >= GROUP_PAIRS and not checkpoint_pending():
                        timer.end_group()
                        since_slice = 0
                if since_slice:
                    timer.end_group()
            finally:
                if tracer is not None:
                    tracer.restore()
            while live:
                pair(False)
                for slot in exhausted():
                    close_slot(slot)
        except Exception as exc:  # a refused OPEN, an ERROR frame, a timeout
            counts["errors"] += 1
            counts["error"] = repr(exc)
            for entry in live.values():
                entry["client"].disconnect()
            live.clear()

        for entry in sessions:
            if "summary" in entry:
                counts["windows_all"] += entry["summary"].windows
        stats = self._stats(host_, port)
        if self.proc is not None:
            self._hwm_mb = max(self._hwm_mb,
                               host.proc_hwm_mb(self.proc.pid))
        return phase_result(
            timer, lat_units, windows,
            attempted=counts["chunks"] + 2 * counts["opens"],
            failed=counts["errors"],
            sessions=sessions, counts=counts, stats=stats, tracer=tracer,
            chunk_latency=np.asarray(chunk_lat),
            seconds=seconds,
            detail={"pairs": len(lat_units), **counts},
        )

    def _stats(self, host_, port) -> dict:
        client = self._client_cls(host_, port)
        try:
            client.connect()
            return client.stats()
        finally:
            client.disconnect()

    def _install(self, tracer) -> None:
        import repro.serve.client as client_mod
        from repro.serve.client import EddieClient

        tracer.wrap(client_mod, "encode_chunk", "serve.client.encode")
        tracer.wrap(EddieClient, "connect", "serve.client.open")
        tracer.wrap(EddieClient, "open", "serve.client.open")
        tracer.wrap(EddieClient, "send", "serve.client.send")
        tracer.wrap(EddieClient, "drain", "serve.client.drain")
        tracer.wrap(EddieClient, "close", "serve.client.close")

    # -- checks ---------------------------------------------------------------

    def check(self, phase) -> List[str]:
        failures = []
        counts = phase["counts"]
        stats = phase["stats"]
        if counts["errors"]:
            failures.append(f"serving raised: {counts.get('error')}")
        mismatched = 0
        expected = 0
        for entry in phase["sessions"]:
            ref = self.captures[entry["cap"]]
            expected += ref["windows"]
            summary = entry.get("summary")
            if (summary is None
                    or entry["reports"] != ref["reports"]
                    or list(summary.reports) != ref["reports"]
                    or summary.windows != ref["windows"]
                    or summary.stopped_early):
                mismatched += 1
        if mismatched:
            failures.append(
                f"{mismatched} session(s) differ from local streaming"
            )
        if counts["windows_all"] != expected:
            failures.append(
                f"sessions scored {counts['windows_all']} windows, the "
                f"inputs determine {expected}"
            )
        if phase["windows"] < WINDOWS_PER_SECOND * phase["seconds"]:
            failures.append("timed pairs stopped before their windows")
        if phase["windows"] != counts["expected_timed"]:
            failures.append(
                f"timed pairs scored {phase['windows']} windows, the inputs "
                f"determine {counts['expected_timed']}"
            )
        if stats.get("chunks") != counts["chunks"]:
            failures.append(
                f"server counted {stats.get('chunks')} chunks, the client "
                f"sent {counts['chunks']}"
            )
        if stats.get("windows") != counts["windows_all"]:
            failures.append(
                f"server counted {stats.get('windows')} windows, the client "
                f"received {counts['windows_all']}"
            )
        for key in ("sessions_shed", "sessions_evicted", "protocol_errors"):
            if stats.get(key):
                failures.append(f"server STATS {key} = {stats[key]}")
        return failures

    # -- traced run -----------------------------------------------------------

    def layer_metrics(self, phase, acct, snapshot) -> Dict[str, object]:
        stats = phase["stats"]
        counts = phase["counts"]
        scale = float(np.median(phase["timer"].scales()))
        hist = stats.get("metrics", {}).get("histograms", {}).get(
            "repro.serve/chunk_latency_ms", {}
        )
        failures = []
        if not hist.get("count"):
            failures.append("server STATS carried no chunk latency histogram")
        server_ms = ratio(hist.get("sum", 0.0), hist.get("count", 0)) * scale
        client_ms = float(np.median(phase["chunk_latency"])) * scale * 1e3
        return {
            "serve.client.encode_us_per_chunk":
                ratio(layer_time(acct, "serve.client.encode", "total_norm_s"),
                      layer_calls(acct, "serve.client.encode")) * 1e6,
            "serve.client.session_open_ms":
                ratio(layer_time(acct, "serve.client.open", "total_norm_s"),
                      counts["opened_timed"]) * 1e3,
            "serve.server.chunk_ms_mean": server_ms,
            "serve.transport_ms_p50": client_ms - server_ms,
            "serve.server.checkpoints_per_chunk":
                ratio(stats.get("checkpoints", 0), stats.get("chunks", 0)),
            "serve.server.bytes_in_per_window":
                ratio(stats.get("bytes_in", 0), stats.get("windows", 0)),
            "_failures": failures,
        }
