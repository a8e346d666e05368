"""Unit tests for the EM emanation substrate (repro.em)."""

import numpy as np
import pytest

from repro.arch.config import CoreConfig
from repro.em.channel import ChannelModel, Interferer
from repro.em.modulation import am_modulate, normalize_activity
from repro.em.receiver import OverflowCounter, Receiver, saturate
from repro.em.scenario import EmScenario
from repro.errors import SignalError
from repro.programs.builder import ProgramBuilder
from repro.programs.ir import Instr, OpClass
from repro.types import Signal


def tone_power(freq, fs, n, amp=1.0, offset=2.0):
    """A real power waveform oscillating at `freq`."""
    t = np.arange(n) / fs
    return Signal(offset + amp * np.sin(2 * np.pi * freq * t), fs)


def spectrum(sig: Signal):
    win = np.hanning(len(sig.samples))
    spec = np.fft.fftshift(np.fft.fft(sig.samples * win))
    freqs = np.fft.fftshift(np.fft.fftfreq(len(sig.samples), 1 / sig.sample_rate))
    return freqs, np.abs(spec) ** 2


class TestNormalizeActivity:
    def test_zero_mean_bounded(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        norm = normalize_activity(x)
        assert abs(norm.mean()) < 0.2  # clipping can shift the mean slightly
        assert np.abs(norm).max() <= 1.0
        assert np.abs(norm).max() > 0.3

    def test_constant_input(self):
        norm = normalize_activity(np.full(10, 5.0))
        assert np.all(norm == 0)

    def test_outlier_robustness(self):
        """A single huge spike must not squash ordinary modulation."""
        x = np.concatenate([np.sin(np.linspace(0, 60, 3000)), [500.0]])
        norm = normalize_activity(x)
        # Ordinary samples retain near-full modulation depth.
        assert np.abs(norm[:3000]).max() > 0.1
        # The spike saturates at the clip limit instead of dominating.
        assert norm[-1] == 1.0


class TestAmModulate:
    def test_sidebands_at_activity_frequency(self):
        """Reproduces the geometry of the paper's Figure 1: carrier plus
        sidebands at +/- the loop frequency."""
        fs, f_loop = 1e6, 50e3
        power = tone_power(f_loop, fs, 4096)
        iq = am_modulate(power, mod_depth=0.5)
        freqs, spec = spectrum(iq)
        # Carrier at 0, sidebands at +/- f_loop.
        for target in (0.0, f_loop, -f_loop):
            bin_idx = np.argmin(np.abs(freqs - target))
            local = spec[max(0, bin_idx - 2): bin_idx + 3].max()
            assert local > 1e3 * np.median(spec)

    def test_carrier_offset_moves_carrier(self):
        fs = 1e6
        power = tone_power(50e3, fs, 4096)
        iq = am_modulate(power, carrier_offset_hz=100e3)
        freqs, spec = spectrum(iq)
        peak = freqs[np.argmax(spec)]
        assert peak == pytest.approx(100e3, abs=fs / 4096 * 2)

    def test_rejects_bad_depth(self):
        power = tone_power(1e3, 1e5, 128)
        with pytest.raises(SignalError):
            am_modulate(power, mod_depth=0.0)
        with pytest.raises(SignalError):
            am_modulate(power, mod_depth=1.5)

    def test_rejects_complex_power(self):
        sig = Signal(np.ones(16, dtype=complex), 1e5)
        with pytest.raises(SignalError):
            am_modulate(sig)

    def test_output_is_complex_same_rate(self):
        power = tone_power(1e3, 1e5, 256)
        iq = am_modulate(power)
        assert np.iscomplexobj(iq.samples)
        assert iq.sample_rate == power.sample_rate
        assert len(iq) == len(power)


class TestChannelModel:
    def test_noiseless_preserves_signal(self):
        sig = Signal(np.ones(128, dtype=complex), 1e6)
        out = ChannelModel.noiseless().apply(sig, np.random.default_rng(0))
        assert np.allclose(out.samples, sig.samples)

    def test_snr_is_respected(self):
        rng = np.random.default_rng(0)
        n = 200_000
        sig = Signal(np.ones(n, dtype=complex), 1e6)
        channel = ChannelModel(snr_db=10.0)
        out = channel.apply(sig, rng)
        noise = out.samples - sig.samples
        measured_snr = 10 * np.log10(1.0 / np.mean(np.abs(noise) ** 2))
        assert measured_snr == pytest.approx(10.0, abs=0.2)

    def test_coupling_gain(self):
        sig = Signal(np.ones(64, dtype=complex), 1e6)
        out = ChannelModel(coupling_gain=0.5, snr_db=None).apply(
            sig, np.random.default_rng(0)
        )
        assert np.allclose(np.abs(out.samples), 0.5)

    def test_interferer_adds_tone(self):
        rng = np.random.default_rng(1)
        sig = Signal(np.zeros(4096, dtype=complex), 1e6)
        channel = ChannelModel(
            snr_db=None, interferers=(Interferer(freq_hz=200e3, amplitude=1.0),)
        )
        out = channel.apply(sig, rng)
        freqs, spec = spectrum(out)
        assert freqs[np.argmax(spec)] == pytest.approx(200e3, abs=500)

    def test_invalid_gain(self):
        with pytest.raises(SignalError):
            ChannelModel(coupling_gain=0.0)


class TestReceiver:
    def test_identity_by_default(self):
        sig = Signal(np.arange(16, dtype=complex), 1e6)
        out = Receiver().capture(sig)
        assert np.allclose(out.samples, sig.samples)

    def test_decimation_reduces_rate(self):
        sig = Signal(np.ones(1000, dtype=complex), 1e6)
        out = Receiver(decimation=4).capture(sig)
        assert out.sample_rate == 2.5e5
        assert len(out) == 250

    def test_decimation_suppresses_out_of_band(self):
        fs = 1e6
        t = np.arange(8192) / fs
        # Tone just below the post-decimation Nyquist survives; one far
        # above it is attenuated by the anti-alias filter.
        inband = np.exp(2j * np.pi * 20e3 * t)
        outband = np.exp(2j * np.pi * 400e3 * t)
        rx = Receiver(decimation=8)
        kept = rx.capture(Signal(inband, fs))
        removed = rx.capture(Signal(outband, fs))
        assert np.mean(np.abs(kept.samples[100:]) ** 2) > 50 * np.mean(
            np.abs(removed.samples[100:]) ** 2
        )

    def test_quantization_steps(self):
        sig = Signal(np.linspace(-1, 1, 100), 1e6)
        out = Receiver(adc_bits=4, adc_full_scale=1.0).capture(sig)
        unique = np.unique(out.samples)
        assert len(unique) <= 17  # 2^4 + 1 levels

    def test_invalid_config(self):
        with pytest.raises(SignalError):
            Receiver(gain=0)
        with pytest.raises(SignalError):
            Receiver(decimation=0)
        with pytest.raises(SignalError):
            Receiver(adc_bits=1)
        with pytest.raises(SignalError):
            Receiver(iq_imbalance_db=-1.0)

    def test_dc_offset_adds_carrier_spike(self):
        fs = 1e6
        sig = Signal(np.zeros(4096, dtype=complex), fs)
        out = Receiver(dc_offset=0.5 + 0.0j).capture(sig)
        assert np.allclose(out.samples, 0.5)

    def test_iq_imbalance_creates_image(self):
        fs, f0 = 1e6, 100e3
        t = np.arange(8192) / fs
        sig = Signal(np.exp(2j * np.pi * f0 * t), fs)
        out = Receiver(iq_imbalance_db=1.0).capture(sig)
        freqs, spec = spectrum(out)
        tone = spec[np.argmin(np.abs(freqs - f0))]
        image = spec[np.argmin(np.abs(freqs + f0))]
        clean_image = spectrum(Receiver().capture(sig))[1][
            np.argmin(np.abs(freqs + f0))
        ]
        # The imbalance puts energy at -f0 that an ideal capture lacks.
        assert image > 100 * clean_image
        assert tone > 10 * image  # but the image stays far below the tone

    def test_lo_drift_smears_tone(self):
        fs, f0 = 1e6, 100e3
        t = np.arange(65536) / fs
        sig = Signal(np.exp(2j * np.pi * f0 * t), fs)
        steady = Receiver().capture(sig)
        drifting = Receiver(lo_drift_hz_per_s=2e6).capture(sig)

        def peak_sharpness(s):
            _, spec = spectrum(s)
            return spec.max() / spec.sum()

        assert peak_sharpness(drifting) < 0.5 * peak_sharpness(steady)

    def test_impairments_ignored_for_real_signals(self):
        sig = Signal(np.ones(128), 1e6)
        out = Receiver(iq_imbalance_db=1.0, lo_drift_hz_per_s=1e6).capture(sig)
        assert np.allclose(out.samples, 1.0)


class TestEmScenario:
    def make_program(self):
        b = ProgramBuilder("em-demo")
        body = [Instr(OpClass.IADD, dst=f"r{i % 8}") for i in range(60)]
        b.block("init", [], next_block="L")
        b.counted_loop("L", body, trips=3000, exit="done")
        b.halt("done")
        return b.build(entry="init")

    def test_capture_pipeline(self):
        scenario = EmScenario.build(
            self.make_program(), core=CoreConfig.iot_inorder(clock_hz=1e8)
        )
        trace = scenario.capture(seed=0)
        assert np.iscomplexobj(trace.iq.samples)
        assert trace.timeline.t_end > 0
        assert trace.injected_spans == []
        assert trace.instr_count > 3000 * 60

    def test_loop_peak_visible_in_em_spectrum(self):
        scenario = EmScenario.build(
            self.make_program(),
            core=CoreConfig.iot_inorder(clock_hz=1e8),
            channel=ChannelModel(snr_db=30.0),
        )
        trace = scenario.capture(seed=0)
        loop_iv = next(iv for iv in trace.timeline if iv.region == "loop:L")
        seg = trace.iq.slice_time(loop_iv.t_start, loop_iv.t_end)
        freqs, spec = spectrum(seg)
        # Ignore the carrier region; look for a sideband peak.
        mask = np.abs(freqs) > 1e4
        peak = np.abs(freqs[mask][np.argmax(spec[mask])])
        # Sideband should sit at a harmonic of the iteration rate; simply
        # require a strong non-carrier line far above the noise floor.
        assert spec[mask].max() > 100 * np.median(spec[mask])
        assert peak > 1e4

    def test_injection_ground_truth_propagates(self):
        scenario = EmScenario.build(
            self.make_program(), core=CoreConfig.iot_inorder(clock_hz=1e8)
        )
        scenario.simulator.set_loop_injection(
            "L", [Instr(OpClass.IADD, dst="x")] * 8, contamination=1.0
        )
        trace = scenario.capture(seed=0)
        assert trace.injected_instr_count == 3000 * 8
        assert len(trace.injected_spans) == 1
        mid = sum(trace.injected_spans[0]) / 2
        assert trace.contains_injection(mid, mid + 1e-9)


class TestSaturate:
    def test_counts_railed_samples(self):
        values = np.array([0.5, 3.0, -3.0, 1.0])
        clipped, n = saturate(values, 2.0)
        assert n == 2
        np.testing.assert_allclose(clipped, [0.5, 2.0, -2.0, 1.0])

    def test_complex_clips_iq_independently(self):
        values = np.array([3.0 + 0.5j, 0.5 - 3.0j, 0.5 + 0.5j])
        clipped, n = saturate(values, 2.0)
        assert n == 2
        np.testing.assert_allclose(
            clipped, [2.0 + 0.5j, 0.5 - 2.0j, 0.5 + 0.5j]
        )

    def test_invalid_full_scale(self):
        with pytest.raises(SignalError):
            saturate(np.zeros(4), 0.0)


class TestReceiverQuality:
    def test_decimation_preserves_alignment(self):
        """The anti-alias FIR's group delay must be compensated.

        An uncompensated 65-tap FIR shifts every feature 32 input samples
        late; after decimation by 4 an envelope edge would land 8 output
        samples off the ground-truth timeline.
        """
        fs = 1e6
        n = 4096
        edge = 2048
        envelope = np.zeros(n)
        envelope[edge:] = 1.0  # envelope step at a known instant
        sig = Signal(envelope, fs)
        out = Receiver(decimation=4).capture(sig)
        # The step, in output samples, must sit at edge/4 (transition
        # width of the FIR aside -- use the 50% crossing).
        crossing = int(np.argmax(np.abs(out.samples) >= 0.5))
        assert abs(crossing - edge // 4) <= 2

    def test_decimation_impulse_alignment(self):
        fs = 1e6
        n = 4096
        at = 1024
        impulse = np.zeros(n)
        impulse[at] = 1.0
        out = Receiver(decimation=4).capture(Signal(impulse, fs))
        assert abs(int(np.argmax(np.abs(out.samples))) - at // 4) <= 1

    def test_overflow_counter_hook(self):
        counter = OverflowCounter()
        rx = Receiver(adc_bits=8, adc_full_scale=0.5,
                      overflow_counter=counter)
        hot = Signal(np.linspace(-2.0, 2.0, 1000), 1e6)
        rx.capture(hot)
        assert counter.count > 0
        first = counter.count
        rx.capture(hot)
        assert counter.count == 2 * first  # accumulates across captures
        counter.reset()
        assert counter.count == 0

    def test_no_overflow_within_range(self):
        counter = OverflowCounter()
        rx = Receiver(adc_bits=8, adc_full_scale=4.0,
                      overflow_counter=counter)
        rx.capture(Signal(np.linspace(-1.0, 1.0, 1000), 1e6))
        assert counter.count == 0

    def test_invalid_full_scale(self):
        with pytest.raises(SignalError):
            Receiver(adc_full_scale=0.0)
        with pytest.raises(SignalError):
            Receiver(adc_full_scale=-1.0)
