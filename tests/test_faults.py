"""Unit tests for acquisition fault injection (repro.em.faults)."""

import numpy as np
import pytest

from repro.em.faults import (
    DeadChannelFault,
    FaultInjector,
    GainStepFault,
    ImpulseNoiseFault,
    NonFiniteFault,
    SampleDropFault,
    SaturationFault,
    standard_fault_mix,
)
from repro.errors import SignalError
from repro.types import FaultSpan, Signal

RATE = 1e6


def tone(n=4000, freq=5e4, amp=0.5, t0=0.0):
    t = np.arange(n) / RATE
    return Signal(amp * np.exp(2j * np.pi * freq * t), RATE, t0)


def span_indices(span, signal):
    i0 = int(round((span.t_start - signal.t0) * signal.sample_rate))
    i1 = int(round((span.t_end - signal.t0) * signal.sample_rate))
    return i0, i1


class TestFaultSpan:
    def test_validation(self):
        with pytest.raises(Exception):
            FaultSpan(kind="drop", t_start=2.0, t_end=1.0)

    def test_overlaps(self):
        span = FaultSpan(kind="drop", t_start=1.0, t_end=2.0)
        assert span.overlaps(1.5, 3.0)
        assert span.overlaps(0.0, 1.1)
        assert not span.overlaps(2.0, 3.0)  # half-open
        assert not span.overlaps(0.0, 1.0)
        assert span.duration == pytest.approx(1.0)


class TestScheduledFaults:
    def test_drop_zeroes_exactly_the_logged_span(self):
        sig = tone()
        fault = SampleDropFault(schedule=((1e-3, 1.5e-3),))
        out, log = fault.apply(sig, np.random.default_rng(0))
        assert len(log) == 1
        i0, i1 = span_indices(log[0], sig)
        assert np.all(out.samples[i0:i1] == 0)
        np.testing.assert_array_equal(out.samples[:i0], sig.samples[:i0])
        np.testing.assert_array_equal(out.samples[i1:], sig.samples[i1:])
        assert log[0].kind == "drop"
        assert log[0].magnitude == i1 - i0  # lost-sample marker

    def test_drop_hold_fill_repeats_last_sample(self):
        sig = tone()
        fault = SampleDropFault(schedule=((1e-3, 1.5e-3),), fill="hold")
        out, log = fault.apply(sig, np.random.default_rng(0))
        i0, i1 = span_indices(log[0], sig)
        assert np.all(out.samples[i0:i1] == sig.samples[i0 - 1])

    def test_saturation_rails_samples(self):
        sig = tone(amp=1.0)
        fault = SaturationFault(schedule=((0.0, 1e-3),), drive=100.0,
                                full_scale=2.0)
        out, log = fault.apply(sig, np.random.default_rng(0))
        i0, i1 = span_indices(log[0], sig)
        burst = out.samples[i0:i1]
        assert np.max(np.abs(burst.real)) <= 2.0 + 1e-12
        assert np.max(np.abs(burst.imag)) <= 2.0 + 1e-12
        # Overdriven by 100x, nearly every sample should sit at a rail.
        railed = (np.abs(np.abs(burst.real) - 2.0) < 1e-9) | (
            np.abs(np.abs(burst.imag) - 2.0) < 1e-9
        )
        assert railed.mean() > 0.9

    def test_gain_step_scales_span_only(self):
        sig = tone()
        fault = GainStepFault(schedule=((1e-3, 2e-3),), step_db=12.0)
        out, log = fault.apply(sig, np.random.default_rng(1))
        i0, i1 = span_indices(log[0], sig)
        ratio = np.abs(out.samples[i0:i1]) / np.abs(sig.samples[i0:i1])
        assert np.allclose(ratio, log[0].magnitude)
        assert not np.isclose(log[0].magnitude, 1.0)
        np.testing.assert_array_equal(out.samples[:i0], sig.samples[:i0])

    def test_impulse_raises_span_power(self):
        sig = tone(amp=0.1)
        fault = ImpulseNoiseFault(schedule=((1e-3, 1.2e-3),), amplitude=8.0)
        out, log = fault.apply(sig, np.random.default_rng(2))
        i0, i1 = span_indices(log[0], sig)
        burst_rms = np.sqrt(np.mean(np.abs(out.samples[i0:i1]) ** 2))
        clean_rms = np.sqrt(np.mean(np.abs(sig.samples) ** 2))
        assert burst_rms > 3.0 * clean_rms

    def test_dead_channel_zeroes(self):
        sig = tone()
        fault = DeadChannelFault(schedule=((0.5e-3, 2.5e-3),))
        out, log = fault.apply(sig, np.random.default_rng(0))
        i0, i1 = span_indices(log[0], sig)
        assert np.all(out.samples[i0:i1] == 0)
        assert log[0].kind == "dead"

    def test_nonfinite_writes_nan_over_the_span(self):
        sig = tone()
        fault = NonFiniteFault(schedule=((1e-3, 1.2e-3),))
        out, log = fault.apply(sig, np.random.default_rng(0))
        i0, i1 = span_indices(log[0], sig)
        assert np.isnan(out.samples[i0:i1]).all()
        assert np.isfinite(out.samples[:i0]).all()
        assert np.isfinite(out.samples[i1:]).all()
        assert log[0].kind == "nonfinite"
        assert log[0].magnitude == i1 - i0

    def test_schedule_clipped_to_signal(self):
        sig = tone(n=1000)  # 1 ms
        fault = SampleDropFault(schedule=((-1.0, 0.2e-3), (0.9e-3, 5.0),
                                          (2.0, 3.0)))
        out, log = fault.apply(sig, np.random.default_rng(0))
        assert len(log) == 2  # the fully-out-of-range span is dropped
        for span in log:
            assert span.t_start >= sig.t0
            assert span.t_end <= sig.t0 + sig.duration + 1e-12

    def test_spans_respect_t0(self):
        sig = tone(t0=7.0)
        fault = SampleDropFault(schedule=((1e-3, 1.5e-3),))
        _, log = fault.apply(sig, np.random.default_rng(0))
        assert log[0].t_start == pytest.approx(7.0 + 1e-3)


class TestStochasticFaults:
    def test_determinism_under_seed(self):
        injector = standard_fault_mix(2000.0, 2000.0, seed=7)
        out1, log1 = injector.inject(tone())
        out2, log2 = injector.inject(tone())
        np.testing.assert_array_equal(out1.samples, out2.samples)
        assert log1 == log2

    def test_different_seeds_differ(self):
        a = standard_fault_mix(3000.0, 3000.0, seed=1).inject(tone())[1]
        b = standard_fault_mix(3000.0, 3000.0, seed=2).inject(tone())[1]
        assert a != b

    def test_zero_rate_is_noop(self):
        injector = FaultInjector(faults=(SampleDropFault(rate_per_s=0.0),))
        sig = tone()
        out, log = injector.inject(sig, rng=np.random.default_rng(0))
        assert log == []
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_empty_injector_is_falsy(self):
        assert not FaultInjector()
        assert FaultInjector(faults=(SampleDropFault(),))

    def test_log_covers_all_corruption(self):
        """Every modified sample must lie inside some logged span."""
        sig = tone()
        injector = standard_fault_mix(3000.0, 3000.0, seed=11)
        out, log = injector.inject(sig)
        changed = np.flatnonzero(out.samples != sig.samples)
        assert len(changed)  # the mix actually did something
        covered = np.zeros(len(sig.samples), dtype=bool)
        for span in log:
            i0, i1 = span_indices(span, sig)
            covered[i0:i1] = True
        assert covered[changed].all()

    def test_composability_merges_and_orders_log(self):
        injector = FaultInjector(
            faults=(
                SampleDropFault(schedule=((2e-3, 2.2e-3),)),
                SaturationFault(schedule=((0.5e-3, 0.7e-3),)),
            )
        )
        _, log = injector.inject(tone())
        assert [s.kind for s in log] == ["saturation", "drop"]
        starts = [s.t_start for s in log]
        assert starts == sorted(starts)


class TestValidation:
    def test_bad_parameters_raise(self):
        with pytest.raises(SignalError):
            SampleDropFault(rate_per_s=-1.0)
        with pytest.raises(SignalError):
            SampleDropFault(mean_duration_s=0.0)
        with pytest.raises(SignalError):
            SampleDropFault(fill="splice")
        with pytest.raises(SignalError):
            SampleDropFault(schedule=((2.0, 1.0),))
        with pytest.raises(SignalError):
            SaturationFault(drive=0.5)
        with pytest.raises(SignalError):
            SaturationFault(full_scale=0.0)
        with pytest.raises(SignalError):
            GainStepFault(step_db=0.0)
        with pytest.raises(SignalError):
            ImpulseNoiseFault(amplitude=0.0)

    def test_injector_rejects_non_faults(self):
        with pytest.raises(SignalError):
            FaultInjector(faults=("drop",))
