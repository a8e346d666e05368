"""fleet-mixed-128: local fleet rounds over 128 live sessions.

32 sessions each on the bitcount, susan, gsm and sha models stream whole
clean captures in 4096-sample chunks through ``FleetScheduler.feed_many``;
a session that reaches the end of its capture is closed and a new one on
the next capture replaces it in the same round, so every round carries
128 chunks. ``stream`` and the pooled ``core`` path (STFT, peaks,
planning, K-S) do nearly all the work, across four pooling groups, with a
working set far larger than L2; ``serve``, ``arch`` and ``dsp`` do none.

Captures are never spliced into one long stream: after a seam the
monitor reports on nearly every window, so a spliced stream would time
the anomaly path instead of the clean one.

Timed unit: one round (the chunks of every live session through to all
their results, plus the round's closes and opens). A reference slice
follows every round. Rounds run until they have scored the seed's share
of windows, so the work is fixed by the seed and ``--seconds``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import host
from workloads import (
    PHASE_DEADLINE_S,
    Workload,
    chunked,
    counter_value,
    layer_calls,
    layer_time,
    phase_result,
    ratio,
    timed_unit,
)

PROGRAMS = ("bitcount", "susan", "gsm", "sha")
SESSIONS = 128
#: Distinct clean captures per program; sessions cycle through them.
#: The cost of a window depends on its capture, so more captures keep
#: one seed's mix closer to another's.
CAPTURES_PER_PROGRAM = 24
#: Untimed rounds first, so session churn is staggered and caches warm.
WARMUP_ROUNDS = 10
#: Windows the timed rounds score per second of ``--seconds``: rounds
#: run until they reach it (~110 rounds at 10 s, keeping ten beyond the
#: p90 of round latency).
WINDOWS_PER_SECOND = 22000


class FleetMixed(Workload):
    name = "fleet-mixed-128"

    def import_program(self) -> None:
        from repro.experiments.runner import Scale, build_detector
        from repro.programs.mibench import BENCHMARKS
        from repro.stream import FleetScheduler, StreamingMonitor

        self._scale = Scale.quick()
        self._build = build_detector
        self._programs = BENCHMARKS
        self._fleet_cls = FleetScheduler
        self._monitor_cls = StreamingMonitor

    def train(self) -> None:
        self.detectors = {
            p: self._build(self._programs[p](), self._scale, source="em")
            for p in PROGRAMS
        }

    def prepare(self, seed: int) -> None:
        """Clean captures and their isolated streaming references."""
        self.captures: Dict[str, List[dict]] = {}
        for program in PROGRAMS:
            detector = self.detectors[program]
            caps = []
            for k in range(CAPTURES_PER_PROGRAM):
                trace = detector.source.capture(
                    seed=self._scale.monitor_seed(seed * 1000 + k)
                )
                chunks = chunked(trace.iq.samples)
                monitor = self._monitor_cls(detector.model, t0=trace.iq.t0)
                per_chunk = [
                    sum(len(r.times) for r in monitor.feed(c)) for c in chunks
                ]
                summary = monitor.finish()
                caps.append({
                    "chunks": chunks,
                    "t0": trace.iq.t0,
                    "per_chunk": per_chunk,
                    "windows": summary.windows,
                    "reports": list(summary.reports),
                })
            self.captures[program] = caps

    # -- timed phase ----------------------------------------------------------

    def phase(self, seconds, clock, tracer):
        target = WINDOWS_PER_SECOND * seconds
        fleet = self._fleet_cls(max_sessions=SESSIONS)
        opened = [0] * SESSIONS
        live: Dict[int, list] = {}  # slot -> [sid, program, capture, pos]
        closed: List[tuple] = []  # (program, capture, summary)
        counts = {"chunks": 0, "sessions": 0, "errors": 0,
                  "windows_all": 0, "expected_timed": 0, "churned": 0}

        def open_slot(slot: int) -> None:
            program = PROGRAMS[slot % len(PROGRAMS)]
            j = opened[slot]
            opened[slot] += 1
            cap = (slot // len(PROGRAMS) + j) % CAPTURES_PER_PROGRAM
            sid = f"s{slot:03d}.{j}"
            fleet.add_session(sid, self.detectors[program].model,
                              t0=self.captures[program][cap]["t0"])
            live[slot] = [sid, program, cap, 0]
            counts["sessions"] += 1

        def one_round(refill: bool, timed: bool) -> int:
            slots = sorted(live)
            items = []
            for slot in slots:
                sid, program, cap, pos = live[slot]
                items.append((sid, self.captures[program][cap]["chunks"][pos]))
            out = fleet.feed_many(items, return_errors=True)
            windows = 0
            for slot, res in zip(slots, out):
                entry = live[slot]
                sid, program, cap, pos = entry
                counts["chunks"] += 1
                if isinstance(res, Exception):
                    counts["errors"] += 1
                else:
                    windows += sum(len(r.times) for r in res)
                if timed:
                    counts["expected_timed"] += (
                        self.captures[program][cap]["per_chunk"][pos]
                    )
                entry[3] = pos + 1
                if entry[3] == len(self.captures[program][cap]["chunks"]):
                    closed.append((program, cap, fleet.close_session(sid)))
                    del live[slot]
                    if refill:
                        open_slot(slot)
                        if timed:
                            counts["churned"] += 1
            counts["windows_all"] += windows
            return windows

        for slot in range(SESSIONS):
            open_slot(slot)
        for _ in range(WARMUP_ROUNDS):
            one_round(refill=True, timed=False)

        timer = host.PairedTimer(clock)
        if tracer is not None:
            self._install(tracer)
        windows = 0
        rounds = 0
        deadline = time.perf_counter() + PHASE_DEADLINE_S
        try:
            while windows < target and time.perf_counter() < deadline:
                windows += timed_unit(timer, tracer, rounds, one_round,
                                      True, True)
                rounds += 1
                timer.end_group()
        finally:
            if tracer is not None:
                tracer.restore()
        while live:
            one_round(refill=False, timed=False)

        return phase_result(
            timer, range(rounds), windows,
            attempted=counts["chunks"] + counts["sessions"],
            failed=counts["errors"],
            closed=closed, counts=counts, tracer=tracer,
            open_left=len(fleet), seconds=seconds,
            detail={"rounds": rounds, **counts},
        )

    def _install(self, tracer) -> None:
        import repro.core.monitor as core_monitor
        import repro.stream.batchkernel as batchkernel
        from repro.core.monitor import Monitor
        from repro.stream import FleetScheduler
        from repro.stream.batchkernel import FleetKernel

        tracer.wrap(FleetScheduler, "feed_many", "stream.fleet.feed_many")
        tracer.wrap(FleetScheduler, "add_session", "stream.fleet.churn")
        tracer.wrap(FleetScheduler, "close_session", "stream.fleet.churn")
        tracer.wrap(FleetKernel, "dispatch", "stream.batchkernel.dispatch")
        tracer.wrap(batchkernel, "_transform_frames", "core.stft")
        tracer.wrap(batchkernel, "peak_rows", "core.peaks")
        tracer.wrap(batchkernel, "plan_chunks_pooled", "core.monitor.plan")
        tracer.wrap(batchkernel, "score_ks_jobs", "core.monitor.ks")
        tracer.count(core_monitor, "ks_d_int_rows", "ks_rows",
                     amount=lambda ref, rows: len(rows))
        tracer.count(Monitor, "step", "monitor_step")

    # -- checks ---------------------------------------------------------------

    def check(self, phase) -> List[str]:
        failures = []
        counts = phase["counts"]
        if counts["errors"]:
            failures.append(f"{counts['errors']} chunk(s) raised")
        if phase["open_left"]:
            failures.append(f"{phase['open_left']} session(s) left open")
        mismatched = 0
        total = 0
        for program, cap, summary in phase["closed"]:
            ref = self.captures[program][cap]
            total += ref["windows"]
            if (summary.windows != ref["windows"]
                    or list(summary.reports) != ref["reports"]
                    or summary.stopped_early):
                mismatched += 1
        if mismatched:
            failures.append(
                f"{mismatched} session(s) differ from isolated streaming"
            )
        if len(phase["closed"]) != counts["sessions"]:
            failures.append("a session was lost before it closed")
        if counts["windows_all"] != total:
            failures.append(
                f"fleet scored {counts['windows_all']} windows, the inputs "
                f"determine {total}"
            )
        if phase["windows"] < WINDOWS_PER_SECOND * phase["seconds"]:
            failures.append("timed rounds stopped before their windows")
        if phase["windows"] != counts["expected_timed"]:
            failures.append(
                f"timed rounds scored {phase['windows']} windows, the "
                f"inputs determine {counts['expected_timed']}"
            )
        return failures

    # -- traced run -----------------------------------------------------------

    def layer_metrics(self, phase, acct, snapshot) -> Dict[str, object]:
        w = phase["windows"]
        tracer = phase["tracer"]
        failures = []
        pooled = counter_value(snapshot, "stream.fleet/kernel_pooled_windows")
        scored = counter_value(snapshot, "core.monitor/windows_scored") + \
            counter_value(snapshot, "core.monitor/windows_unscorable")
        windows_all = phase["counts"]["windows_all"]
        if pooled != windows_all or scored != windows_all:
            failures.append(
                f"program counters saw {pooled} pooled / {scored} scored "
                f"windows; the traced run fed {windows_all}"
            )
        return {
            "stream.fleet.self_us_per_window":
                ratio(layer_time(acct, "stream.fleet.feed_many"), w) * 1e6,
            "stream.fleet.churn_ms_per_session":
                ratio(layer_time(acct, "stream.fleet.churn", "total_norm_s"),
                      phase["counts"]["churned"]) * 1e3,
            "stream.batchkernel.self_us_per_window":
                ratio(layer_time(acct, "stream.batchkernel.dispatch"), w)
                * 1e6,
            "stream.batchkernel.groups_per_dispatch":
                ratio(layer_calls(acct, "core.stft"),
                      layer_calls(acct, "stream.batchkernel.dispatch")),
            "core.stft.us_per_window":
                ratio(layer_time(acct, "core.stft", "total_norm_s"), w) * 1e6,
            "core.peaks.us_per_window":
                ratio(layer_time(acct, "core.peaks", "total_norm_s"), w) * 1e6,
            "core.monitor.plan_us_per_window":
                ratio(layer_time(acct, "core.monitor.plan", "total_norm_s"),
                      w) * 1e6,
            "core.monitor.ks_us_per_window":
                ratio(layer_time(acct, "core.monitor.ks", "total_norm_s"), w)
                * 1e6,
            "core.stats.ks.rows_per_call":
                ratio(tracer.amounts["ks_rows"], tracer.calls["ks_rows"]),
            "core.monitor.steps_per_window":
                ratio(tracer.calls["monitor_step"], w),
            "_failures": failures,
        }
