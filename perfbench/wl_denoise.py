"""denoise-stream: streaming sessions through the FIR + SVD front end.

Two local ``StreamingMonitor`` sessions replay harsh captures from
``repro.em.harsh`` (8 dB SNR plus three CW interferers at unit amplitude)
through the DESIGN.md D22 chain, ``FirGateStage`` + ``SvdDenoiser``, on
the sha model trained through the same chain. With the chain a window
costs milliseconds instead of a fraction of one, so ``dsp`` does nearly
all the work here, and no other workload runs it.

Timed units: one chunk fed to one session -- the latency samples -- and,
after a capture's last chunk, finishing that session (which flushes the
chain) and opening the next. A reference slice follows every two
chunks.
"""

from __future__ import annotations

from typing import Dict, List

import time

import host
from workloads import (
    PHASE_DEADLINE_S,
    Workload,
    chunked,
    counter_value,
    layer_time,
    phase_result,
    ratio,
    timed_unit,
)

PROGRAM = "sha"
POINT = "interf_1x"
SESSIONS = 2
#: Distinct harsh captures; sessions cycle through them.
CAPTURES = 4
#: Windows the timed chunks score per second of ``--seconds``: chunks run
#: until they reach it (~190 chunks at 10 s).
WINDOWS_PER_SECOND = 270


class DenoiseStream(Workload):
    name = "denoise-stream"

    def import_program(self) -> None:
        from repro.arch.config import CoreConfig
        from repro.core.detector import Eddie
        from repro.core.model import EddieConfig
        from repro.dsp import FirGateStage, SvdDenoiser
        from repro.em.harsh import harsh_matrix
        from repro.em.scenario import EmScenario
        from repro.experiments.runner import Scale
        from repro.programs.mibench import BENCHMARKS
        from repro.stream import StreamingMonitor

        self._scale = Scale.quick()
        core = CoreConfig.iot_inorder(clock_hz=self._scale.clock_hz)
        point = {p.name: p for p in harsh_matrix(core.sample_rate)}[POINT]
        self._program = BENCHMARKS[PROGRAM]
        self._scenario = lambda: EmScenario.build(
            self._program(), core=core, channel=point.channel
        )
        self._config = EddieConfig(frontend=(
            FirGateStage(cutoff=0.5),
            SvdDenoiser(block_samples=2048, hankel_window=64, rank=8),
        ))
        self._eddie = Eddie
        self._monitor_cls = StreamingMonitor

    def train(self) -> None:
        self.detector = self._eddie(config=self._config).train(
            self._program(), scenario=self._scenario(),
            runs=self._scale.train_runs, seed=self._scale.train_seed(),
        )

    def prepare(self, seed: int) -> None:
        """Harsh captures and their batch-monitor references."""
        self.captures = []
        for k in range(CAPTURES):
            trace = self.detector.source.capture(
                seed=self._scale.monitor_seed(seed * 1000 + k)
            )
            batch = self.detector.monitor(trace).result
            self.captures.append({
                "chunks": chunked(trace.iq.samples),
                "t0": trace.iq.t0,
                "windows": len(batch.times),
                "reports": list(batch.reports),
            })

    def phase(self, seconds, clock, tracer):
        target = WINDOWS_PER_SECOND * seconds
        opened = [0] * SESSIONS
        live: Dict[int, dict] = {}
        sessions: List[dict] = []
        counts = {"chunks": 0, "sessions": 0, "errors": 0, "windows_all": 0}

        def open_slot(slot: int) -> None:
            j = opened[slot]
            opened[slot] += 1
            cap = (slot + SESSIONS * j) % CAPTURES
            monitor = self._monitor_cls(
                self.detector.model, t0=self.captures[cap]["t0"]
            )
            entry = {"monitor": monitor, "cap": cap, "pos": 0}
            live[slot] = entry
            sessions.append(entry)
            counts["sessions"] += 1

        def feed(slot: int) -> int:
            entry = live[slot]
            monitor = entry["monitor"]
            before = monitor.windows_seen
            try:
                monitor.feed(self.captures[entry["cap"]]["chunks"][entry["pos"]])
            except Exception:  # counted; the session's check then fails
                counts["errors"] += 1
            entry["pos"] += 1
            counts["chunks"] += 1
            return monitor.windows_seen - before

        def finished(slot: int) -> bool:
            entry = live[slot]
            return entry["pos"] == len(self.captures[entry["cap"]]["chunks"])

        def close(slot: int, refill: bool) -> int:
            entry = live.pop(slot)
            before = entry["monitor"].windows_seen
            entry["summary"] = entry["monitor"].finish()
            if refill:
                open_slot(slot)
            return entry["summary"].windows - before

        for slot in range(SESSIONS):
            open_slot(slot)
        timer = host.PairedTimer(clock)
        windows = 0
        if tracer is not None:
            self._install(tracer)
        lat_units: List[int] = []
        chunks = 0
        deadline = time.perf_counter() + PHASE_DEADLINE_S
        try:
            while windows < target and time.perf_counter() < deadline:
                slot = chunks % SESSIONS
                lat_units.append(len(timer.units))
                windows += timed_unit(timer, tracer, len(timer.units),
                                      feed, slot)
                chunks += 1
                if finished(slot):
                    windows += timed_unit(timer, tracer, len(timer.units),
                                          close, slot, True)
                if slot == SESSIONS - 1:
                    timer.end_group()
            if chunks % SESSIONS:
                timer.end_group()
        finally:
            if tracer is not None:
                tracer.restore()
        while live:
            for slot in sorted(live):
                feed(slot)
                if finished(slot):
                    close(slot, False)
        for entry in sessions:
            counts["windows_all"] += entry["summary"].windows
        return phase_result(
            timer, lat_units, windows,
            attempted=counts["chunks"] + counts["sessions"],
            failed=counts["errors"],
            sessions=sessions, counts=counts, tracer=tracer, seconds=seconds,
            detail={"chunks_timed": chunks, **counts},
        )

    def _install(self, tracer) -> None:
        import repro.stream.engine as engine
        from repro.core.monitor import Monitor
        from repro.core.stft import StreamingStft
        from repro.dsp.stage import _BlockStreamer, _FirGateStreamer
        from repro.stream import StreamingMonitor

        tracer.wrap(StreamingMonitor, "feed", "stream.engine")
        tracer.wrap(StreamingMonitor, "finish", "stream.engine")
        tracer.wrap(_FirGateStreamer, "feed", "dsp.fir")
        tracer.wrap(_BlockStreamer, "feed", "dsp.svd")
        tracer.wrap(StreamingStft, "transform", "core.stft")
        tracer.wrap(engine, "peak_matrix", "core.peaks")
        tracer.wrap(engine, "score_ks_jobs", "core.monitor.ks")
        tracer.count(Monitor, "step", "monitor_step")

    def check(self, phase) -> List[str]:
        failures = []
        counts = phase["counts"]
        if counts["errors"]:
            failures.append(f"{counts['errors']} chunk(s) raised")
        mismatched = 0
        expected = 0
        for entry in phase["sessions"]:
            ref = self.captures[entry["cap"]]
            expected += ref["windows"]
            summary = entry["summary"]
            if (summary.windows != ref["windows"]
                    or list(summary.reports) != ref["reports"]
                    or summary.stopped_early):
                mismatched += 1
        if mismatched:
            failures.append(
                f"{mismatched} session(s) differ from batch monitoring"
            )
        if phase["windows"] < WINDOWS_PER_SECOND * phase["seconds"]:
            failures.append("timed chunks stopped before their windows")
        if counts["windows_all"] != expected:
            failures.append(
                f"sessions scored {counts['windows_all']} windows, the "
                f"inputs determine {expected}"
            )
        return failures

    def layer_metrics(self, phase, acct, snapshot) -> Dict[str, object]:
        w = phase["windows"]
        scored = counter_value(snapshot, "core.monitor/windows_scored") + \
            counter_value(snapshot, "core.monitor/windows_unscorable")
        failures = []
        if scored != phase["counts"]["windows_all"]:
            failures.append(
                f"program counters saw {scored} scored windows; the traced "
                f"run fed {phase['counts']['windows_all']}"
            )
        return {
            "stream.engine.self_us_per_window":
                ratio(layer_time(acct, "stream.engine"), w) * 1e6,
            "core.stft.us_per_window":
                ratio(layer_time(acct, "core.stft", "total_norm_s"), w) * 1e6,
            "core.peaks.us_per_window":
                ratio(layer_time(acct, "core.peaks", "total_norm_s"), w) * 1e6,
            "core.monitor.ks_us_per_window":
                ratio(layer_time(acct, "core.monitor.ks", "total_norm_s"), w)
                * 1e6,
            "core.monitor.steps_per_window":
                ratio(phase["tracer"].calls["monitor_step"], w),
            "dsp.fir_us_per_window":
                ratio(layer_time(acct, "dsp.fir", "total_norm_s"), w) * 1e6,
            "dsp.svd_us_per_window":
                ratio(layer_time(acct, "dsp.svd", "total_norm_s"), w) * 1e6,
            "_failures": failures,
        }
