"""Unit tests for repro.core.stft."""

import numpy as np
import pytest
import scipy.signal

from repro.core.stft import (
    QF_CLIPPED,
    QF_DEAD,
    QF_ENERGY_OUTLIER,
    QF_GAPPED,
    SpectrumSequence,
    StreamingStft,
    stft,
    window_quality,
)
from repro.errors import SignalError
from repro.types import Signal

from oracle import stft_power


def tone(freq, fs, n, complex_=False):
    t = np.arange(n) / fs
    if complex_:
        return Signal(np.exp(2j * np.pi * freq * t), fs)
    return Signal(np.sin(2 * np.pi * freq * t), fs)


class TestStftBasics:
    def test_window_count(self):
        sig = tone(1e3, 1e5, 4096)
        seq = stft(sig, window_samples=1024, overlap=0.5)
        assert len(seq) == 1 + (4096 - 1024) // 512
        assert seq.power.shape == (len(seq), seq.n_bins)

    def test_real_input_one_sided(self):
        sig = tone(1e3, 1e5, 2048)
        seq = stft(sig, window_samples=512)
        assert seq.freqs[0] == 0.0
        assert seq.freqs[-1] == pytest.approx(5e4)
        assert np.all(np.diff(seq.freqs) > 0)

    def test_complex_input_folded_one_sided(self):
        sig = tone(1e3, 1e5, 2048, complex_=True)
        seq = stft(sig, window_samples=512)
        assert seq.freqs[0] == 0.0
        assert np.all(seq.freqs >= 0)

    def test_complex_unfolded_two_sided(self):
        sig = tone(1e3, 1e5, 2048, complex_=True)
        seq = stft(sig, window_samples=512, fold=False)
        assert seq.freqs[0] < 0
        assert np.all(np.diff(seq.freqs) > 0)

    def test_tone_peak_location_real(self):
        fs, f0 = 1e5, 12.5e3
        seq = stft(tone(f0, fs, 8192), window_samples=1024, detrend=True)
        for row in seq.power:
            assert seq.freqs[np.argmax(row)] == pytest.approx(f0, abs=fs / 1024)

    def test_tone_peak_location_complex_negative_freq_folds(self):
        fs, f0 = 1e5, -12.5e3
        seq = stft(tone(f0, fs, 8192, complex_=True), window_samples=1024)
        for row in seq.power:
            assert seq.freqs[np.argmax(row)] == pytest.approx(abs(f0), abs=fs / 1024)

    def test_detrend_removes_dc(self):
        fs = 1e5
        sig = Signal(5.0 + np.sin(2 * np.pi * 1e3 * np.arange(4096) / fs), fs)
        seq = stft(sig, window_samples=1024, detrend=True)
        dc = seq.power[:, 0]
        peak = seq.power.max(axis=1)
        assert np.all(dc < 0.01 * peak)

    def test_times_are_window_centers(self):
        fs = 1e5
        sig = tone(1e3, fs, 4096)
        seq = stft(sig, window_samples=1024, overlap=0.5)
        assert seq.times[0] == pytest.approx(512 / fs)
        assert seq.times[1] - seq.times[0] == pytest.approx(512 / fs)
        assert seq.hop_duration == pytest.approx(512 / fs)
        assert seq.window_duration == pytest.approx(1024 / fs)

    def test_window_span(self):
        seq = stft(tone(1e3, 1e5, 4096), window_samples=1024)
        start, end = seq.window_span(0)
        assert end - start == pytest.approx(seq.window_duration)

    def test_t0_offsets_times(self):
        fs = 1e5
        sig = Signal(np.sin(np.arange(2048)), fs, t0=1.5)
        seq = stft(sig, window_samples=512)
        assert seq.times[0] == pytest.approx(1.5 + 256 / fs)

    def test_slice(self):
        seq = stft(tone(1e3, 1e5, 8192), window_samples=512)
        part = seq.slice(2, 5)
        assert len(part) == 3
        assert part.times[0] == seq.times[2]
        assert np.array_equal(part.power, seq.power[2:5])

    def test_energy_agrees_with_scipy(self):
        """Spectral content must match scipy's STFT on the same params."""
        fs, f0 = 1e5, 7.8e3
        sig = tone(f0, fs, 8192)
        ours = stft(sig, window_samples=1024, overlap=0.5, detrend=False)
        _, _, theirs = scipy.signal.stft(
            sig.samples, fs, window="hann", nperseg=1024, noverlap=512,
            boundary=None, padded=False, detrend=False,
        )
        theirs_power = np.abs(theirs.T) ** 2
        # Same number of windows and the same argmax bin everywhere.
        assert theirs_power.shape[0] == len(ours)
        for ours_row, theirs_row in zip(ours.power, theirs_power):
            assert np.argmax(ours_row) == np.argmax(theirs_row)


class TestFold:
    """A complex capture's two-sided spectrum folds onto ``rfftfreq``'s
    bins for odd windows as for even ones."""

    @staticmethod
    def capture(n=5000):
        rng = np.random.default_rng(4)
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    @pytest.mark.parametrize("window", [9, 63, 64])
    def test_folded_power_sums_two_sided_power_per_abs_freq(self, window):
        fs = 1e6
        samples = self.capture()
        folded = stft(Signal(samples, fs), window_samples=window)
        two_sided = stft(Signal(samples, fs), window_samples=window,
                         fold=False)
        np.testing.assert_allclose(
            folded.freqs, np.fft.rfftfreq(window, 1.0 / fs), rtol=1e-12)
        # Bin index of each two-sided frequency's magnitude.
        k = np.rint(np.abs(two_sided.freqs) * window / fs).astype(int)
        expected = np.zeros_like(folded.power)
        for col, bin_ in enumerate(k):
            expected[:, bin_] += two_sided.power[:, col]
        np.testing.assert_allclose(folded.power, expected, rtol=1e-12)

    @pytest.mark.parametrize("chunk", [31, 500])
    def test_odd_window_batch_equals_streaming(self, chunk):
        samples = self.capture()
        batch = stft(Signal(samples, 1e6), window_samples=63)
        streaming = StreamingStft(1e6, window_samples=63)
        power = np.concatenate([
            streaming.feed(samples[start:start + chunk]).power
            for start in range(0, len(samples), chunk)
        ])
        assert batch.power.shape == (len(batch), 32)
        np.testing.assert_array_equal(batch.power, stft_power(samples, 63))
        np.testing.assert_array_equal(power, batch.power)


class TestStftValidation:
    def test_too_short_signal(self):
        with pytest.raises(SignalError):
            stft(tone(1e3, 1e5, 100), window_samples=1024)

    def test_bad_window_size(self):
        with pytest.raises(SignalError):
            stft(tone(1e3, 1e5, 2048), window_samples=4)

    def test_bad_overlap(self):
        with pytest.raises(SignalError):
            stft(tone(1e3, 1e5, 2048), window_samples=512, overlap=1.0)

    def test_unknown_taper(self):
        with pytest.raises(SignalError):
            stft(tone(1e3, 1e5, 2048), window_samples=512, window="kaiser")

    def test_rect_and_hamming_windows(self):
        sig = tone(1e3, 1e5, 2048)
        for name in ("rect", "hamming"):
            seq = stft(sig, window_samples=512, window=name)
            assert len(seq) > 0


def noisy_tone(n=8192, fs=1e6, seed=0, amp=0.5):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    samples = amp * np.exp(2j * np.pi * 5e4 * t)
    samples = samples + 0.01 * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    return Signal(samples, fs)


class TestWindowQuality:
    WIN = 256

    def quality(self, sig, **kwargs):
        return window_quality(sig, self.WIN, overlap=0.5, **kwargs)

    def window_of(self, index):
        """Window index containing sample ``index`` (hop = WIN/2)."""
        return int(index // (self.WIN // 2))

    def test_clean_capture_unflagged(self):
        q = self.quality(noisy_tone())
        assert q.dtype == np.uint8
        assert np.all(q == 0)

    def test_alignment_with_stft(self):
        sig = noisy_tone()
        assert len(self.quality(sig)) == len(stft(sig, self.WIN, 0.5))

    def test_zero_gap_flags_gapped_and_dead(self):
        sig = noisy_tone()
        sig.samples[3000:3600] = 0
        q = self.quality(sig)
        hit = self.window_of(3100)
        assert q[hit] & QF_GAPPED
        # Windows fully inside the gap are dead as well.
        assert q[self.window_of(3200)] & QF_DEAD
        assert not q[0]
        assert not q[-1]

    def test_short_gap_below_threshold_ignored(self):
        sig = noisy_tone()
        sig.samples[3000:3008] = 0  # 8 < gap_samples=16
        assert np.all(self.quality(sig) == 0)

    def test_clipping_flags_clipped(self):
        sig = noisy_tone()
        seg = slice(4000, 4200)
        sig.samples[seg] = 2.0 * np.sign(sig.samples[seg].real) + 2.0j * (
            np.sign(sig.samples[seg].imag)
        )
        q = self.quality(sig)
        assert q[self.window_of(4100)] & QF_CLIPPED
        assert not q[0]

    def test_impulse_flags_energy_outlier(self):
        rng = np.random.default_rng(3)
        sig = noisy_tone()
        seg = slice(5000, 5256)
        sig.samples[seg] += 0.9 * (
            rng.standard_normal(256) + 1j * rng.standard_normal(256)
        )
        q = self.quality(sig, energy_outlier_mads=6.0)
        assert q[self.window_of(5100)] & QF_ENERGY_OUTLIER
        assert not q[0]

    def test_too_short_signal_raises(self):
        with pytest.raises(SignalError):
            window_quality(noisy_tone(n=100), 256)

    def test_bad_overlap_raises(self):
        with pytest.raises(SignalError):
            window_quality(noisy_tone(), 256, overlap=1.5)
