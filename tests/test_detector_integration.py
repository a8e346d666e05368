"""Integration tests for the Eddie facade: the full train->monitor loop.

These are the library's end-to-end guarantees, exercised on small
workloads so the whole file runs in well under a minute.
"""

import numpy as np
import pytest

from repro import Eddie
from repro.arch.config import CoreConfig
from repro.arch.simulator import BurstSpec, Simulator
from repro.core.detector import MonitorReport, TrainedDetector
from repro.em.scenario import EmScenario
from repro.errors import ConfigurationError, MonitoringError
from repro.programs.workloads import (
    injection_mix,
    int_kernel,
    multi_peak_loop_program,
    sharp_loop_program,
)

CORE = CoreConfig.iot_inorder(clock_hz=1e8)


@pytest.fixture(scope="module")
def detector():
    return Eddie().train(
        sharp_loop_program(trips=15000), core=CORE, runs=5, seed=0, source="em"
    )


class TestTraining:
    def test_em_and_power_sources(self):
        program = sharp_loop_program(trips=8000)
        em = Eddie().train(program, core=CORE, runs=3, seed=0, source="em")
        power = Eddie().train(program, core=CORE, runs=3, seed=0, source="power")
        assert isinstance(em.source, EmScenario)
        assert isinstance(power.source, Simulator)
        assert "loop:L" in em.model.profiles
        assert "loop:L" in power.model.profiles

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            Eddie().train(sharp_loop_program(), core=CORE, runs=1, source="laser")

    def test_training_with_injections_rejected(self):
        program = sharp_loop_program(trips=8000)
        scenario = EmScenario.build(program, core=CORE)
        scenario.simulator.set_loop_injection("L", injection_mix(4, 4), 1.0)
        with pytest.raises(ConfigurationError):
            Eddie().train(program, scenario=scenario, runs=2)

    def test_train_from_runs(self):
        program = sharp_loop_program(trips=8000)
        scenario = EmScenario.build(program, core=CORE)
        traces = [scenario.capture(seed=s) for s in range(3)]
        detector = Eddie().train_from_runs(
            "manual",
            [(t.iq, t.timeline) for t in traces],
            successors={r: scenario.machine.successors(r)
                        for r in scenario.machine.region_names()},
            initial_regions=scenario.machine.initial_regions(),
        )
        assert detector.source is None
        assert detector.model.program_name == "manual"


class TestMonitoring:
    def test_clean_run_no_detection(self, detector):
        report = detector.monitor(seed=900)
        assert isinstance(report, MonitorReport)
        assert not report.detected
        assert report.metrics.false_positive_rate < 5.0

    def test_loop_injection_detected(self, detector):
        detector.source.simulator.set_loop_injection(
            "L", injection_mix(4, 4), 1.0
        )
        report = detector.monitor(seed=901)
        detector.source.simulator.clear_injections()
        assert report.detected
        assert report.metrics.detection_latency is not None
        assert report.anomalies  # times of reports

    def test_burst_injection_detected(self, detector):
        detector.source.simulator.add_burst(
            BurstSpec(
                after_region="loop:L",
                body=tuple(int_kernel(60, "evil")),
                iterations=3000,
            )
        )
        report = detector.monitor(seed=902)
        detector.source.simulator.clear_injections()
        assert report.detected

    def test_monitor_signal_without_source(self, detector):
        trace = detector.source.capture(seed=903)
        standalone = TrainedDetector(detector.model, source=None)
        report = standalone.monitor(trace.iq)
        assert report.trace is None
        assert len(report.result.times) > 0
        with pytest.raises(MonitoringError):
            standalone.monitor(seed=1)

    def test_with_group_size_changes_latency_granularity(self, detector):
        fast = detector.with_group_size(8)
        slow = detector.with_group_size(64)
        assert fast.model.max_group_size == 8
        assert slow.model.max_group_size == 64
        # Same underlying reference data.
        assert (
            fast.model.profiles["loop:L"].reference
            is detector.model.profiles["loop:L"].reference
        )

    def test_with_alpha(self, detector):
        relaxed = detector.with_alpha(0.05)
        assert relaxed.model.config.alpha == 0.05

    def test_determinism(self, detector):
        a = detector.monitor(seed=905)
        b = detector.monitor(seed=905)
        assert [r.time for r in a.result.reports] == [
            r.time for r in b.result.reports
        ]
        assert a.metrics.coverage == b.metrics.coverage


class TestDeprecatedAliases:
    """The consolidated ``monitor()`` entry point that replaced the
    pre-consolidation aliases: it never warns and refuses ambiguous
    sources."""

    def test_new_api_does_not_warn(self, detector):
        import warnings

        trace = detector.source.capture(seed=923)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            detector.monitor(trace)
            detector.monitor(trace.iq)
            detector.monitor(seed=924)

    def test_monitor_rejects_seed_with_explicit_source(self, detector):
        trace = detector.source.capture(seed=925)
        with pytest.raises(MonitoringError):
            detector.monitor(trace, seed=1)
        with pytest.raises(MonitoringError):
            detector.monitor(object())


class TestMultiRegionTracking:
    def test_tracks_region_sequence(self):
        detector = Eddie().train(
            multi_peak_loop_program(trips=12000), core=CORE, runs=5, seed=0,
            source="em",
        )
        report = detector.monitor(seed=910)
        assert "loop:L" in set(report.result.tracked)
        assert report.metrics.coverage > 50.0
