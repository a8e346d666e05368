"""Streaming-engine gates: fleet bit-identity and fleet >= one stream.

A :class:`FleetScheduler` sweep (8/32/128/512 sessions) round-robins
captures to completion through the batch kernel (DESIGN.md D20). Two gates, both same-run so slow shared runners
do not trip them:

- every sweep point's per-session reports equal the same captures
  monitored in isolation (``identical_to_isolated``);
- the 128-session fleet's aggregate windows/s is at least that of one
  :class:`StreamingMonitor` over a long stream (eight captures tiled);
  otherwise pooling costs more than it saves.

Throughput as such is measured host-normalized by ``perfbench``
(``fleet-mixed-128``); flat resident memory and the streamed window
count are tier-1 in ``tests/test_streaming.py``. Writes
``BENCH_streaming.json`` at the repo root.

Run as pytest (``REPRO_SCALE=quick`` by default) or directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py --scale quick
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.runner import Scale, build_detector
from repro.programs.mibench import BENCHMARKS
from repro.stream import FleetScheduler, StreamingMonitor

from hostinfo import host_record

_REPO_ROOT = Path(__file__).resolve().parents[1]
_OUTPUT = _REPO_ROOT / "BENCH_streaming.json"

_CHUNK_SAMPLES = 4096

#: Session counts swept by the fleet benchmark.
_FLEET_SWEEP = (8, 32, 128, 512)

#: The sweep point gated against the single stream.
_GATED_FLEET = 128

#: Captures tiled into the single-stream baseline.
_STREAM_CAPTURES = 8

#: Distinct captures generated for the sweep; larger fleets cycle these
#: so the isolated reference cost stays bounded while every session
#: still streams a full, individually-checked signal.
_MAX_DISTINCT_CAPTURES = 32


def _single_stream(detector, scale):
    """Windows/s of one streaming monitor over a long tiled stream."""
    samples = np.concatenate([
        detector.source.capture(seed=scale.monitor_seed(k)).iq.samples
        for k in range(_STREAM_CAPTURES)
    ])
    monitor = StreamingMonitor(detector.model)
    t0 = time.perf_counter()
    for start in range(0, len(samples), _CHUNK_SAMPLES):
        monitor.feed(samples[start : start + _CHUNK_SAMPLES])
    monitor.finish()
    elapsed = time.perf_counter() - t0
    return {
        "samples": len(samples),
        "windows": monitor.windows_seen,
        "seconds": elapsed,
        "windows_per_sec": monitor.windows_seen / elapsed,
    }


def _fleet_point(detector, captures, isolated, sessions):
    """Round-robin ``sessions`` concurrent streams; check vs isolation."""
    distinct = len(captures)
    fleet = FleetScheduler(max_sessions=sessions)
    for s in range(sessions):
        fleet.add_session(
            f"dev-{s:03d}", detector.model,
            source=captures[s % distinct].iter_chunks(_CHUNK_SAMPLES),
        )
    t0 = time.perf_counter()
    while fleet.step_round():
        pass
    elapsed = time.perf_counter() - t0
    summaries = fleet.summaries
    fleet_reports = [
        [r.time for r in summaries[f"dev-{s:03d}"].reports]
        for s in range(sessions)
    ]
    expected = [isolated[s % distinct] for s in range(sessions)]
    windows = sum(s.windows for s in summaries.values())
    return {
        "sessions": sessions,
        "total_windows": windows,
        "seconds": elapsed,
        "windows_per_sec": windows / elapsed,
        "identical_to_isolated": fleet_reports == expected,
    }


def _fleet_sweep(detector, scale):
    """Sweep fleet sizes over shared captures and isolated references."""
    distinct = min(max(_FLEET_SWEEP), _MAX_DISTINCT_CAPTURES)
    captures = [
        detector.source.capture(seed=scale.monitor_seed(100 + s))
        for s in range(distinct)
    ]
    isolated = [
        [r.time for r in detector.monitor(c).result.reports] for c in captures
    ]
    return [
        _fleet_point(detector, captures, isolated, n) for n in _FLEET_SWEEP
    ]


def run_benchmark(scale_name="quick"):
    scale = {"quick": Scale.quick, "default": Scale.default,
             "paper": Scale.paper}[scale_name]()
    detector = build_detector(BENCHMARKS["bitcount"](), scale, source="em")
    report = {
        "benchmark": "streaming-engine",
        "scale": scale_name,
        "host": host_record(),
        "fleet_sweep": _fleet_sweep(detector, scale),
        "single_stream": _single_stream(detector, scale),
    }
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _gated_point(report):
    return next(
        p for p in report["fleet_sweep"] if p["sessions"] == _GATED_FLEET
    )


def _gate_failures(report):
    """Every gate of this benchmark that the report fails."""
    failures = [
        f"{p['sessions']}-session fleet diverged from isolated runs"
        for p in report["fleet_sweep"]
        if not p["identical_to_isolated"]
    ]
    fleet = _gated_point(report)["windows_per_sec"]
    single = report["single_stream"]["windows_per_sec"]
    if fleet < single:
        failures.append(
            f"{_GATED_FLEET}-session fleet ({fleet:,.0f} w/s) slower than "
            f"one stream ({single:,.0f} w/s)"
        )
    return failures


def _format(report):
    single = report["single_stream"]
    fleet = _gated_point(report)["windows_per_sec"]
    lines = [
        f"streaming gates (scale={report['scale']}, "
        f"{report['host']['cores']} cores)",
    ] + [
        f"  fleet x{point['sessions']:<4d}        : "
        f"{point['windows_per_sec']:,.0f} windows/s, "
        f"identical={point['identical_to_isolated']}"
        for point in report["fleet_sweep"]
    ] + [
        f"  one stream         : {single['windows_per_sec']:,.0f} windows/s "
        f"({single['samples']:,} samples)",
        f"  fleet x{_GATED_FLEET} >= stream: "
        f"{fleet >= single['windows_per_sec']}",
        f"  -> {_OUTPUT}",
    ]
    return "\n".join(lines)


def test_streaming_benchmark(scale, show):
    import os

    scale_name = os.environ.get("REPRO_SCALE", "quick")
    report = run_benchmark(scale_name=scale_name)
    show(_format(report))
    failures = _gate_failures(report)
    assert not failures, failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "default", "paper"))
    args = parser.parse_args()
    result = run_benchmark(scale_name=args.scale)
    print(_format(result))
    failures = _gate_failures(result)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    sys.exit(1 if failures else 0)
