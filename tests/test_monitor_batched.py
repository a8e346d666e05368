"""Monitor fast path vs the scalar oracle.

``Monitor.run_signal`` plans the whole signal as one chunk, commits the
accept-only prefixes in bulk, and replays divergences through ``step``
with score hints -- the same loop streams and fleet sessions run. The
oracle (:class:`oracle.ScalarMonitor`) steps every window with
chronological history reads and per-dimension two-sample tests. Every
observable of a monitoring pass must be bit-identical between the two;
these tests pin that down on clean, injected, forced-group-size, and
fault-corrupted traces.
"""

import numpy as np
import pytest

from oracle import ScalarMonitor, assert_results_equal
from repro.arch.config import CoreConfig
from repro.core.monitor import Monitor, _SortedDimHistory
from repro.em.faults import FaultInjector, SampleDropFault, SaturationFault
from repro.em.scenario import EmScenario
from repro.experiments.runner import Scale, build_detector
from repro.programs.workloads import injection_mix, multi_peak_loop_program

TINY = Scale(train_runs=3, clean_runs=1, injected_runs=1, group_sizes=(8, 16))


def _both_paths(model, signal):
    return (
        Monitor(model).run_signal(signal),
        ScalarMonitor(model).run_signal(signal),
    )


@pytest.mark.equivalence
class TestEquivalence:
    @pytest.fixture(scope="class")
    def detector(self):
        return build_detector(
            multi_peak_loop_program(trips=9000), TINY, source="power"
        )

    def test_clean_trace(self, detector):
        trace = detector.source.run(seed=TINY.monitor_seed(0))
        assert_results_equal(*_both_paths(detector.model, trace.power))

    def test_injected_trace(self, detector):
        simulator = detector.source
        simulator.set_loop_injection("L", injection_mix(4, 4), 1.0)
        trace = simulator.run(seed=TINY.injected_seed(0))
        simulator.clear_injections()
        fast, oracle = _both_paths(detector.model, trace.power)
        assert_results_equal(fast, oracle)
        assert fast.reports  # the injection is actually detected

    def test_forced_group_sizes(self, detector):
        trace = detector.source.run(seed=TINY.monitor_seed(1))
        for n in (16, 48):
            model = detector.with_group_size(n).model
            assert_results_equal(*_both_paths(model, trace.power))

    def test_quality_gated_faulted_trace(self):
        faults = FaultInjector(
            faults=(SampleDropFault(rate_per_s=150.0),
                    SaturationFault(rate_per_s=150.0))
        )
        detector = build_detector(
            multi_peak_loop_program(trips=9000), TINY, source="em"
        )
        scenario = EmScenario.build(
            detector.source.simulator.program,
            core=CoreConfig.iot_inorder(clock_hz=TINY.clock_hz),
            faults=faults,
        )
        trace = scenario.capture(seed=TINY.monitor_seed(2))
        assert trace.fault_spans  # the faults actually fired
        model = detector.with_quality_gating(True).model
        fast, oracle = _both_paths(model, trace.iq)
        assert_results_equal(fast, oracle)
        assert fast.unscorable_flags.any()


class TestSortedDimHistory:
    def test_matches_naive_window(self):
        # Random pushes (with NaN-free values), random window queries:
        # the buffer must agree with "sort the last n values" at every
        # step, across several compactions (pushes >> 2 * capacity).
        capacity = 16
        history = _SortedDimHistory(capacity)
        rng = np.random.default_rng(7)
        values = rng.normal(size=10 * capacity)
        for age, value in enumerate(values):
            history.insert(float(value), age)
            for n in (1, 3, capacity):
                got = history.query(age + 1 - n)
                expected = np.sort(values[max(0, age + 1 - n): age + 1])
                np.testing.assert_array_equal(got, expected)

    def test_duplicate_values(self):
        history = _SortedDimHistory(4)
        for age, value in enumerate([1.0, 1.0, 1.0, 2.0, 1.0, 2.0]):
            history.insert(value, age)
        np.testing.assert_array_equal(
            history.query(2), [1.0, 1.0, 2.0, 2.0]
        )
