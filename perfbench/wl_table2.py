"""table2-batch: the paper's Table 2 protocol, one program per unit.

``repro.experiments.table2_sim``'s recipe -- all 10 MiBench programs,
the simulated out-of-order core, the power source, quick scale, serial
-- with each program's ``evaluate_benchmark`` call timed as one unit and
followed by reference slices. The protocol repeats as often as
``--seconds`` allows; ``wall_s`` sums each program's median normalized
unit time, i.e. the wall time of one protocol at nominal host speed, and
those ten medians are the latency samples.

``arch.Simulator.run`` and the batch ``Monitor.run_signal`` path dominate
here, and no other workload times them. This is also the second meaning
of "end to end" in the roadmap: wall time of the batch pipeline.

The protocol runs at ``Scale.quick()``'s own seed, as
``benchmarks/bench_table2_sim.py`` does; the workload seed only orders
the programs. At quick scale the protocol's detection is seed-sensitive
(with ``Scale.seed`` 23 or 24 patricia misses an injection), and the
benchmark may not pick seeds to keep its correctness check green.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import host
from workloads import (
    Workload,
    counter_value,
    layer_time,
    ratio,
    timed_unit,
)

#: Nominal seconds of one protocol; the protocol repeats
#: ``round(seconds / PROTOCOL_SECONDS)`` times (at least once).
PROTOCOL_SECONDS = 5.0
#: Reference slices after each program: its units are long, so a
#: single slice would sample the host's speed too sparsely.
SLICES_PER_UNIT = 4


class Table2Batch(Workload):
    name = "table2-batch"

    def import_program(self) -> None:
        from repro.arch.config import CoreConfig
        from repro.core.monitor import Monitor
        from repro.experiments.runner import Scale
        from repro.experiments.tables_common import evaluate_benchmark
        from repro.programs.mibench import BENCHMARKS

        self._core = CoreConfig
        self._monitor_cls = Monitor
        self._scale_cls = Scale
        self._evaluate = evaluate_benchmark
        self._names = list(BENCHMARKS)

    def train(self) -> None:
        """Training is part of every program's unit here."""

    def prepare(self, seed: int) -> None:
        self.scale = self._scale_cls.quick()
        order = np.random.default_rng(seed).permutation(len(self._names))
        self._order = [self._names[i] for i in order]

    def phase(self, seconds, clock, tracer):
        repeats = max(1, round(seconds / PROTOCOL_SECONDS))
        scale = self.scale
        windows = [0]
        monitor_cls = self._monitor_cls
        run_signal = monitor_cls.run_signal

        def counted(monitor, signal):
            result = run_signal(monitor, signal)
            windows[0] += len(result.times)
            return result

        monitor_cls.run_signal = counted
        timer = host.PairedTimer(clock)
        protocols: List[list] = []
        per_protocol: List[int] = []
        errors = 0
        try:
            if tracer is not None:
                self._install(tracer)
            for _ in range(repeats):
                rows = []
                start_windows = windows[0]
                for name in self._order:
                    core = self._core.sim_ooo(clock_hz=scale.clock_hz)
                    try:
                        rows.append(timed_unit(
                            timer, tracer, len(timer.units), self._evaluate,
                            name, scale, "power", core))
                    except Exception as exc:  # counted, reported in check
                        errors += 1
                        rows.append(repr(exc))
                    timer.end_group(SLICES_PER_UNIT)
                protocols.append(rows)
                per_protocol.append(windows[0] - start_windows)
        finally:
            if tracer is not None:
                tracer.restore()
            monitor_cls.run_signal = run_signal

        n = len(self._names)
        raw = timer.raw().reshape(repeats, n)
        norm = timer.normalized().reshape(repeats, n)
        raw_med = np.median(raw, axis=0)
        norm_med = np.median(norm, axis=0)
        return {
            "windows": per_protocol[0],
            "wall": (float(raw_med.sum()), float(norm_med.sum())),
            "latency": (raw_med, norm_med),
            "timer": timer,
            "attempted": repeats * n,
            "failed": errors,
            "protocols": protocols,
            "per_protocol_windows": per_protocol,
            "repeats": repeats,
            "detail": {
                "repeats": repeats,
                "rows": [
                    [r.name, r.latency_ms, r.false_positives, r.accuracy,
                     r.coverage, r.detected_loop, r.detected_burst]
                    if not isinstance(r, str) else r
                    for r in protocols[0]
                ],
            },
        }

    def _install(self, tracer) -> None:
        import repro.core.monitor as core_monitor
        from repro.arch.simulator import Simulator
        from repro.core.monitor import Monitor
        from repro.core.training import Trainer

        tracer.wrap(Simulator, "run", "arch.simulate")
        tracer.wrap(Trainer, "build", "core.training.build")
        tracer.wrap(Monitor, "run_signal", "core.monitor.run_signal")
        tracer.wrap(core_monitor, "stft", "core.stft")
        tracer.wrap(core_monitor, "peak_matrix", "core.peaks")

    def check(self, phase) -> List[str]:
        """``benchmarks/bench_table2_sim.py``'s checks, on every repeat,
        plus identical rows and window counts across repeats."""
        failures = []
        for rows in phase["protocols"]:
            bad = [r for r in rows if isinstance(r, str)]
            if bad:
                failures.append(f"{len(bad)} program(s) raised: {bad[0]}")
                continue
            missed = [r.name for r in rows
                      if not (r.detected_loop and r.detected_burst)]
            if missed:
                failures.append(f"injections missed on {missed}")
            fp = float(np.mean([r.false_positives for r in rows]))
            acc = float(np.mean([r.accuracy for r in rows]))
            if not fp < 10.0:
                failures.append(f"mean false positives {fp:.2f}% >= 10%")
            if not acc > 85.0:
                failures.append(f"mean accuracy {acc:.2f}% <= 85%")
        first = phase["protocols"][0]
        if any(rows != first for rows in phase["protocols"][1:]):
            failures.append("protocol repeats produced different rows")
        if len(set(phase["per_protocol_windows"])) != 1:
            failures.append(
                f"protocol repeats scored different window counts "
                f"{phase['per_protocol_windows']}"
            )
        return failures

    def layer_metrics(self, phase, acct, snapshot) -> Dict[str, object]:
        repeats = phase["repeats"]
        windows = sum(phase["per_protocol_windows"])
        simulate = layer_time(acct, "arch.simulate", "total_norm_s")
        scored = counter_value(snapshot, "core.monitor/windows_scored") + \
            counter_value(snapshot, "core.monitor/windows_unscorable")
        failures = []
        if scored != windows:
            failures.append(
                f"program counters saw {scored} monitored windows; the "
                f"traced run scored {windows}"
            )
        return {
            "core.stft.us_per_window":
                ratio(layer_time(acct, "core.stft", "total_norm_s"), windows)
                * 1e6,
            "core.peaks.us_per_window":
                ratio(layer_time(acct, "core.peaks", "total_norm_s"), windows)
                * 1e6,
            "arch.simulate_s": simulate / repeats,
            "arch.cycles_per_s":
                ratio(counter_value(snapshot, "arch.simulator/cycles"),
                      simulate),
            "core.training.build_s":
                layer_time(acct, "core.training.build", "total_norm_s")
                / repeats,
            "core.monitor.run_signal_s":
                layer_time(acct, "core.monitor.run_signal", "total_norm_s")
                / repeats,
            "experiments.self_s": layer_time(acct, "unit") / repeats,
            "_failures": failures,
        }
