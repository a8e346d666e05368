"""Serving gates: load shedding, chaos recovery, and worker scaling.

Exercises the :mod:`repro.serve` stack over real loopback TCP --

- **latency**: one strict request/response session (``window=1``)
  times the full chunk round trip next to a local
  :meth:`StreamingMonitor.feed` over the same chunks; the per-chunk
  serving overhead is the median of their paired difference. No
  ``perfbench`` metric has this same-chunk local baseline,
- **shedding**: with every fleet slot held, a burst of OPENs must all
  be refused with the typed ``at_capacity`` error, the holders must
  stream on unharmed, and a freed slot must admit again,
- **recovery** (DESIGN.md D19): a session streamed through a
  :class:`~repro.serve.ChaosProxy` whose connection is killed several
  times mid-stream must transparently resume from the server's
  checkpoints -- p50/p99 resume latency, with zero windows lost and the
  report stream bit-identical to a local run,
- **worker sweep** (DESIGN.md D21): N concurrent clients replaying
  captures against a :class:`~repro.serve.ShardCluster` of 1/2/4/8
  worker *processes* behind the shard router, one DSP thread per worker
  so adding workers is the only axis. Every sweep point must stay
  bit-identical to a local run with every session clean; the 4-worker
  point must beat the same-run single-worker baseline by >=2x wherever
  the machine has >=4 cores to scale onto. A point with more workers
  than cores records its speedup as ``not_measurable``.

Served throughput and latency as such are measured host-normalized by
``perfbench`` (``serve-2conn``); concurrent clients against one server
are tier-1 in ``tests/test_serve.py``. Writes ``BENCH_serve.json`` at
the repo root.

Run as pytest (``REPRO_SCALE=quick`` by default) or directly::

    PYTHONPATH=src python benchmarks/bench_serve.py --clients 8
"""

import argparse
import collections
import dataclasses
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.errors import ServeError
from repro.experiments.runner import Scale, build_detector
from repro.programs.mibench import BENCHMARKS
from repro.serve import (
    ChaosProxy,
    EddieClient,
    ModelRegistry,
    ServerConfig,
    ShardCluster,
    serve_in_thread,
)
from repro.serve.client import replay
from repro.stream import StreamingMonitor

from hostinfo import NOT_MEASURABLE, cores, format_speedup, host_record

_REPO_ROOT = Path(__file__).resolve().parents[1]
_OUTPUT = _REPO_ROOT / "BENCH_serve.json"

_CHUNK_SAMPLES = 4096
_PROGRAM = "bitcount"


def _latency(address, local, trace):
    """Strict request/response chunk round trips on one session, paired
    with the local run's per-chunk feed times for the overhead."""
    host, port = address
    latencies = []
    with EddieClient(host, port, window=1) as client:
        client.open(_PROGRAM, t0=trace.iq.t0)
        for chunk in trace.iq.iter_chunks(_CHUNK_SAMPLES):
            started = time.perf_counter()
            client.send(chunk)
            client.drain()
            latencies.append(time.perf_counter() - started)
        summary = client.close()
    lat = np.asarray(latencies)
    return {
        "chunks": len(lat),
        "chunk_samples": _CHUNK_SAMPLES,
        "windows": summary.windows,
        "p50_rtt_us": float(np.median(lat) * 1e6),
        "local_chunk_us_p50": float(np.median(local.chunk_seconds) * 1e6),
        "serve_overhead_us_p50": float(
            np.median(lat - local.chunk_seconds) * 1e6
        ),
    }


def _client_load(address, trace, clients, sessions_per_client):
    """N concurrent clients, each replaying full captures."""
    host, port = address
    summaries = []
    lock = threading.Lock()
    errors = []

    def worker():
        try:
            for _ in range(sessions_per_client):
                _, summary = replay(
                    host, port, _PROGRAM, trace,
                    chunk_samples=_CHUNK_SAMPLES,
                )
                with lock:
                    summaries.append(summary)
        except Exception as error:  # pragma: no cover - surfaced below
            with lock:
                errors.append(repr(error))

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return {
        "sessions": len(summaries),
        "errors": errors,
        "windows_per_sec": sum(s.windows for s in summaries) / elapsed,
        "all_sessions_clean": not errors and all(
            s.status == "ok" for s in summaries
        ),
    }


def _shedding(registry, trace, capacity=2, burst=6):
    """Hold every slot, burst OPENs, count typed refusals."""
    chunks = list(trace.iq.iter_chunks(_CHUNK_SAMPLES))
    with serve_in_thread(
        registry, ServerConfig(max_sessions=capacity, worker_threads=2)
    ) as handle:
        host, port = handle.address
        holders = [
            EddieClient(host, port).connect() for _ in range(capacity)
        ]
        try:
            for client in holders:
                client.open(_PROGRAM, t0=trace.iq.t0)
                client.send(chunks[0])
            shed = 0
            for _ in range(burst):
                with EddieClient(host, port) as attempt:
                    try:
                        attempt.open(_PROGRAM)
                    except ServeError as error:
                        if error.code == "at_capacity":
                            shed += 1
            # Holders stream on unharmed after the burst.
            clean = True
            for client in holders:
                for chunk in chunks[1:]:
                    client.send(chunk)
                client.drain()
                clean &= client.close().status == "ok"
        finally:
            for client in holders:
                client.disconnect()
        # A freed slot admits again.
        with EddieClient(host, port) as client:
            client.open(_PROGRAM)
            client.close()
        stats = handle.stats
        attempts = capacity + burst + 1
        return {
            "capacity": capacity,
            "open_attempts": attempts,
            "shed": shed,
            "shed_all_over_capacity": shed == burst,
            "shed_rate": shed / attempts,
            "holders_clean": clean,
            "server_sessions_shed": stats.sessions_shed,
            "readmitted_after_close": True,
        }


_LocalRun = collections.namedtuple(
    "_LocalRun", "reports summary chunk_seconds"
)


def _local_run(model, trace):
    """A local streaming run of ``trace``: the served runs' reference,
    with each :meth:`StreamingMonitor.feed` timed (no serving layer)."""
    monitor = StreamingMonitor(model, t0=trace.iq.t0)
    reports = []
    seconds = []
    for chunk in trace.iq.iter_chunks(_CHUNK_SAMPLES):
        started = time.perf_counter()
        results = monitor.feed(chunk)
        seconds.append(time.perf_counter() - started)
        for result in results:
            reports.extend(result.reports)
    return _LocalRun(reports, monitor.finish(), np.asarray(seconds))


def _matches_local(local, reports, summary):
    """Served reports and summary bit-identical to the local run's."""
    return reports == local.reports and summary == dataclasses.replace(
        local.summary, session_id=summary.session_id
    )


def _recovery(registry, local, trace, kills=3):
    """Kill the connection mid-stream; measure the cost of resuming."""
    chunks = list(trace.iq.iter_chunks(_CHUNK_SAMPLES))
    kill_every = max(1, len(chunks) // (kills + 1))
    with serve_in_thread(
        registry,
        ServerConfig(max_sessions=4, worker_threads=2, checkpoint_interval=2),
    ) as handle:
        with ChaosProxy(handle.address, seed=11) as proxy:
            host, port = proxy.address
            with EddieClient(
                host, port, window=4,
                backoff_base=0.02, backoff_max=0.25,
            ) as client:
                client.open(_PROGRAM, t0=trace.iq.t0)
                reports = []
                started = time.perf_counter()
                for i, chunk in enumerate(chunks):
                    reports.extend(client.send(chunk))
                    if i and i % kill_every == 0 and client.reconnects < kills:
                        reports.extend(client.drain())
                        proxy.kill_connections()
                reports.extend(client.drain())
                summary = client.close()
                elapsed = time.perf_counter() - started
    lat = np.asarray(client.resume_latencies or [0.0])
    return {
        "kills": proxy.stats.kills,
        "reconnects": client.reconnects,
        "seconds": elapsed,
        "recovery_p50_ms": float(np.median(lat) * 1e3),
        "recovery_p99_ms": float(np.quantile(lat, 0.99) * 1e3),
        "windows_local": local.summary.windows,
        "windows_remote": client.windows_seen,
        "windows_lost": local.summary.windows - client.windows_seen,
        "bit_identical": _matches_local(local, reports, summary),
    }


def _worker_sweep(registry, local, trace, worker_counts=(1, 2, 4, 8),
                  clients=8, sessions_per_client=2):
    """The same load against 1/2/4/8 worker processes, same run.

    One DSP thread per worker keeps worker count the only axis; the
    single-worker point is the baseline every speedup is measured
    against, taken in the same run on the same machine.
    """
    config = ServerConfig(
        max_sessions=clients + 2, worker_threads=1, checkpoint_interval=2,
    )
    points = []
    for workers in worker_counts:
        with ShardCluster(
            registry, workers=workers, config=config,
        ) as cluster:
            reports, summary = replay(
                *cluster.address, _PROGRAM, trace,
                chunk_samples=_CHUNK_SAMPLES,
            )
            identical = _matches_local(local, reports, summary)
            point = _client_load(
                cluster.address, trace, clients, sessions_per_client
            )
        points.append(
            {"workers": workers, **point, "bit_identical": identical}
        )

    # A point with more workers than cores measures contention, not
    # scaling, so it gets no speedup; the >=2x gate needs >=4 cores.
    available = cores()
    baseline = points[0]["windows_per_sec"]
    for point in points:
        point["speedup"] = (
            point["windows_per_sec"] / baseline
            if point["workers"] <= available else NOT_MEASURABLE
        )
    four = next(p for p in points if p["workers"] == 4)
    return {
        "clients": clients,
        "sessions_per_client": sessions_per_client,
        "worker_threads_per_worker": config.worker_threads,
        "points": points,
        "scaling_gate_enforced": available >= 4,
        "speedup_4_workers": four["speedup"],
        "all_bit_identical": all(p["bit_identical"] for p in points),
        "all_sessions_clean": all(p["all_sessions_clean"] for p in points),
    }


def run_benchmark(scale_name="quick", clients=8, sessions_per_client=2):
    scale = {"quick": Scale.quick, "default": Scale.default,
             "paper": Scale.paper}[scale_name]()
    detector = build_detector(BENCHMARKS[_PROGRAM](), scale, source="em")
    trace = detector.source.capture(seed=scale.monitor_seed(0))
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        registry.publish(detector.model, _PROGRAM)
        local = _local_run(detector.model, trace)
        with serve_in_thread(
            registry, ServerConfig(max_sessions=4, worker_threads=4),
        ) as handle:
            report = {
                "benchmark": "serve",
                "scale": scale_name,
                "host": host_record(),
                "trace_samples": len(trace.iq),
                "latency": _latency(handle.address, local, trace),
            }
        report["shedding"] = _shedding(registry, trace)
        report["recovery"] = _recovery(registry, local, trace)
        report["worker_sweep"] = _worker_sweep(
            registry, local, trace,
            clients=clients, sessions_per_client=sessions_per_client,
        )
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _gate_failures(report):
    """Every gate of this benchmark that the report fails."""
    shed = report["shedding"]
    rec = report["recovery"]
    sweep = report["worker_sweep"]
    checks = [
        (shed["shed_all_over_capacity"],
         "an over-capacity OPEN was admitted"),
        (shed["holders_clean"],
         "a slot holder errored after the OPEN burst"),
        (rec["windows_lost"] == 0,
         f"recovery lost {rec['windows_lost']} windows"),
        (rec["bit_identical"],
         "recovery diverged from the local run"),
        (sweep["all_bit_identical"],
         "a sharded sweep point diverged from the local run"),
        (sweep["all_sessions_clean"],
         "a sharded sweep session errored"),
        (not sweep["scaling_gate_enforced"]
         or sweep["speedup_4_workers"] >= 2.0,
         f"4-worker speedup {sweep['speedup_4_workers']} < 2x on a "
         f"{report['host']['cores']}-core host"),
    ]
    return [message for ok, message in checks if not ok]


def _format(report):
    lat = report["latency"]
    shed = report["shedding"]
    rec = report["recovery"]
    sweep = report["worker_sweep"]
    return "\n".join([
        f"serving gates (scale={report['scale']}, "
        f"{report['trace_samples']:,} samples/capture, "
        f"{report['host']['cores']} cores)",
        f"  chunk RTT          : p50 {lat['p50_rtt_us']:.0f} us vs local "
        f"feed p50 {lat['local_chunk_us_p50']:.0f} us -> serving overhead "
        f"p50 {lat['serve_overhead_us_p50']:.0f} us",
        f"  load shedding      : {shed['shed']}/{shed['open_attempts']} "
        f"OPENs shed at capacity {shed['capacity']} "
        f"(all over capacity={shed['shed_all_over_capacity']}, holders "
        f"clean={shed['holders_clean']})",
        f"  recovery           : {rec['kills']} kills -> "
        f"{rec['reconnects']} resumes, p50 {rec['recovery_p50_ms']:.0f} ms, "
        f"p99 {rec['recovery_p99_ms']:.0f} ms, "
        f"windows lost {rec['windows_lost']} "
        f"(bit-identical={rec['bit_identical']})",
    ] + [
        f"  {point['workers']} worker(s)        : "
        f"{point['windows_per_sec']:,.0f} windows/s "
        f"({format_speedup(point['speedup'])}, "
        f"identical={point['bit_identical']}, "
        f"clean={point['all_sessions_clean']})"
        for point in sweep["points"]
    ] + [
        "  worker scaling     : 4-worker gate "
        + (
            f"{'met' if sweep['speedup_4_workers'] >= 2 else 'MISSED'} "
            f"({format_speedup(sweep['speedup_4_workers'])})"
            if sweep["scaling_gate_enforced"]
            else "not enforced (needs >=4 cores)"
        ),
        f"  -> {_OUTPUT}",
    ])


def test_serve_benchmark(scale, show):
    import os

    scale_name = os.environ.get("REPRO_SCALE", "quick")
    report = run_benchmark(scale_name=scale_name, clients=4)
    show(_format(report))
    failures = _gate_failures(report)
    assert not failures, failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "default", "paper"))
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--sessions-per-client", type=int, default=2)
    args = parser.parse_args()
    result = run_benchmark(
        scale_name=args.scale,
        clients=args.clients,
        sessions_per_client=args.sessions_per_client,
    )
    print(_format(result))
    failures = _gate_failures(result)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    sys.exit(1 if failures else 0)
