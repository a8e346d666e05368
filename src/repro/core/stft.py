"""Short-Term Fourier Transform producing the paper's STS sequence.

EDDIE converts the received signal into overlapping windows and each window
into its spectrum -- a Short-Term Spectrum (STS). All training and
monitoring operates on the resulting sequence (Section 3).

Real signals (simulator power traces) use a one-sided spectrum; complex IQ
(EM captures) use a two-sided, frequency-shifted spectrum so sidebands on
both sides of the carrier are visible, as in the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SignalError
from repro.obs import OBS, record_count
from repro.types import Signal

__all__ = [
    "SpectrumSequence",
    "StreamingStft",
    "StreamingQuality",
    "stft",
    "stft_seconds",
    "window_quality",
    "QF_CLIPPED",
    "QF_GAPPED",
    "QF_DEAD",
    "QF_ENERGY_OUTLIER",
    "QF_NONFINITE",
    "QF_UNSCORABLE",
]

# Per-window quality flags (bitmask). A window carrying any of these was
# corrupted at acquisition time and its spectrum does not describe the
# monitored program; the monitor treats such windows as *unscorable*
# rather than anomalous (DESIGN.md D14).
QF_CLIPPED = 0x1         # ADC saturation: samples piled up at the rails
QF_GAPPED = 0x2          # sample-drop gap: a run of exact zeros inside
QF_DEAD = 0x4            # dead channel: the window is (almost) all zeros
QF_ENERGY_OUTLIER = 0x8  # impulsive interference / gain step: energy far
                         # outside the capture's robust range
QF_NONFINITE = 0x10      # NaN or inf samples: a host-side DMA fault, no
                         # spectrum can be computed from the window
QF_UNSCORABLE = (
    QF_CLIPPED | QF_GAPPED | QF_DEAD | QF_ENERGY_OUTLIER | QF_NONFINITE
)


@dataclass(frozen=True)
class SpectrumSequence:
    """A sequence of Short-Term Spectra.

    Attributes:
        freqs: bin frequencies in Hz (two-sided and ascending for complex
            input, one-sided for real input).
        times: absolute center time of each window, in seconds.
        power: power spectra, shape ``(n_windows, n_bins)``.
        window_duration: length of each window in seconds.
        hop_duration: time between consecutive window starts in seconds.
    """

    freqs: np.ndarray
    times: np.ndarray
    power: np.ndarray
    window_duration: float
    hop_duration: float
    quality: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_bins(self) -> int:
        return len(self.freqs)

    def window_span(self, index: int) -> tuple:
        """(t_start, t_end) of window ``index``."""
        center = self.times[index]
        half = self.window_duration / 2.0
        return (center - half, center + half)

    def slice(self, start: int, stop: int) -> "SpectrumSequence":
        """A view of windows [start, stop)."""
        return SpectrumSequence(
            freqs=self.freqs,
            times=self.times[start:stop],
            power=self.power[start:stop],
            window_duration=self.window_duration,
            hop_duration=self.hop_duration,
            quality=(
                self.quality[start:stop] if self.quality is not None else None
            ),
        )


def stft(
    signal: Signal,
    window_samples: int = 1024,
    overlap: float = 0.5,
    window: str = "hann",
    detrend: bool = True,
    fold: bool = True,
) -> SpectrumSequence:
    """Compute the STS sequence of a signal.

    Args:
        signal: real power trace or complex IQ capture.
        window_samples: samples per window.
        overlap: fractional overlap between consecutive windows (the paper
            uses 0.1 ms windows with 50% overlap).
        window: ``'hann'``, ``'hamming'``, or ``'rect'``.
        detrend: subtract each window's mean before transforming, removing
            the (uninformative) DC component of power traces.
        fold: for complex IQ input, add the power at -f onto +f and report
            a one-sided spectrum. The AM envelope is real, so the baseband
            spectrum is conjugate-symmetric and each physical sideband
            appears as a +/-f pair; folding merges the pair into a single
            peak so the K-S dimensions see one observation per sideband
            instead of a randomly-ordered sign pair.
    """
    if window_samples < 8:
        raise SignalError(f"window_samples must be >= 8, got {window_samples}")
    if not 0.0 <= overlap < 1.0:
        raise SignalError(f"overlap must be in [0, 1), got {overlap}")
    samples = signal.samples
    if len(samples) < window_samples:
        raise SignalError(
            f"signal has {len(samples)} samples, shorter than one window "
            f"({window_samples})"
        )

    hop = max(1, int(round(window_samples * (1.0 - overlap))))
    taper = _taper(window, window_samples)
    is_complex = np.iscomplexobj(samples)

    n_windows = 1 + (len(samples) - window_samples) // hop
    starts = np.arange(n_windows) * hop
    # Build a strided view [n_windows, window_samples] without copying.
    frames = np.lib.stride_tricks.sliding_window_view(samples, window_samples)[starts]
    power, freqs = _transform_frames(
        frames, is_complex, taper, detrend, fold,
        window_samples, signal.sample_rate,
    )
    times = signal.t0 + (starts + window_samples / 2.0) / signal.sample_rate
    if OBS.enabled:
        record_count("core.stft", "transforms")
        record_count("core.stft", "windows", n_windows)
    return SpectrumSequence(
        freqs=freqs,
        times=times,
        power=power,
        window_duration=window_samples / signal.sample_rate,
        hop_duration=hop / signal.sample_rate,
    )


def stft_seconds(
    signal: Signal,
    window_seconds: float,
    overlap: float = 0.5,
    window: str = "hann",
    detrend: bool = True,
) -> SpectrumSequence:
    """Like :func:`stft` with the window given in seconds (paper: 0.1 ms)."""
    window_samples = int(round(window_seconds * signal.sample_rate))
    return stft(signal, window_samples, overlap, window, detrend)


def _transform_frames(
    frames: np.ndarray,
    is_complex: bool,
    taper: np.ndarray,
    detrend: bool,
    fold: bool,
    window_samples: int,
    sample_rate: float,
):
    """Per-window spectral transform shared by :func:`stft` and
    :class:`StreamingStft`.

    Every operation here is per-row (mean removal, taper, FFT, magnitude,
    fold), so transforming a subset of a capture's windows produces
    bit-identical spectra to transforming all of them at once -- the
    property the streaming engine's batch-equality guarantee rests on.
    """
    if detrend:
        # Remove each frame's mean BEFORE tapering: subtracting after
        # tapering leaves a taper-shaped residual that leaks into the
        # lowest bins and can outweigh genuine loop peaks.
        frames = frames - frames.mean(axis=1, keepdims=True)
    frames = frames * taper
    if is_complex:
        spectra = np.fft.fft(frames, axis=1)
        power = np.abs(spectra) ** 2
        if fold:
            power, freqs = _fold_two_sided(power, window_samples, sample_rate)
        else:
            power = np.fft.fftshift(power, axes=1)
            freqs = np.fft.fftshift(
                np.fft.fftfreq(window_samples, 1.0 / sample_rate)
            )
    else:
        spectra = np.fft.rfft(frames, axis=1)
        freqs = np.fft.rfftfreq(window_samples, 1.0 / sample_rate)
        power = np.abs(spectra) ** 2
    return power, freqs


def _fold_two_sided(
    power: np.ndarray, window_samples: int, sample_rate: float
):
    """Fold an unshifted two-sided power spectrum onto [0, Nyquist]."""
    n = window_samples
    half = n // 2
    folded = np.empty((power.shape[0], half + 1))
    folded[:, 0] = power[:, 0]
    # Positive bins 1..half-1 pair with negative bins n-1..half+1.
    folded[:, 1:half] = power[:, 1:half] + power[:, n - 1: half: -1]
    folded[:, half] = power[:, half]
    freqs = np.arange(half + 1) * (sample_rate / n)
    return folded, freqs


def window_quality(
    signal: Signal,
    window_samples: int,
    overlap: float = 0.5,
    clip_fraction: float = 0.01,
    gap_samples: int = 16,
    dead_fraction: float = 0.9,
    energy_outlier_mads: float = 8.0,
) -> np.ndarray:
    """Per-window acquisition-quality flags aligned with :func:`stft`.

    Computed from the raw samples, before any spectral processing, so a
    corrupted window is flagged regardless of what its (garbage) spectrum
    happens to look like. Returns a uint8 bitmask per window (``QF_*``).

    Detection criteria:

    - *clipped* (``QF_CLIPPED``): at least ``clip_fraction`` of the
      window's samples sit at the capture's amplitude rails (within 0.1%
      of the global max of |I| / |Q|). A clean capture puts only its
      single largest sample there; a saturated ADC piles samples up.
    - *gapped* (``QF_GAPPED``): the window contains a run of at least
      ``gap_samples`` consecutive exact zeros -- the signature of a
      zero-filled overflow gap (noise makes exact zeros vanishingly rare
      otherwise).
    - *dead* (``QF_DEAD``): at least ``dead_fraction`` of the window is
      exact zeros (front-end dropout).
    - *energy outlier* (``QF_ENERGY_OUTLIER``): the window's log-energy
      is more than ``energy_outlier_mads`` robust standard deviations
      (scaled MAD over the not-otherwise-flagged windows) from the
      capture's median -- impulsive interference or an AGC gain step.
    - *non-finite* (``QF_NONFINITE``): the window holds a NaN or inf
      sample. The rail and energy statistics above are taken over finite
      samples only, so such samples cannot blind the other flags of the
      rest of the capture.
    """
    if window_samples < 8:
        raise SignalError(f"window_samples must be >= 8, got {window_samples}")
    if not 0.0 <= overlap < 1.0:
        raise SignalError(f"overlap must be in [0, 1), got {overlap}")
    samples = signal.samples
    if len(samples) < window_samples:
        raise SignalError(
            f"signal has {len(samples)} samples, shorter than one window "
            f"({window_samples})"
        )
    hop = max(1, int(round(window_samples * (1.0 - overlap))))
    n_windows = 1 + (len(samples) - window_samples) // hop
    starts = np.arange(n_windows) * hop

    is_zero = samples == 0
    samples, finite = _finite_view(samples)
    amp = _amplitude(samples)

    flags = np.zeros(n_windows, dtype=np.uint8)
    if finite is not None:
        bad = _window_sums(~finite, starts, window_samples)
        flags[bad > 0] |= QF_NONFINITE

    # Clipping: samples at the capture's rails.
    full_scale = float(amp.max()) if len(amp) else 0.0
    if full_scale > 0:
        at_rail = amp >= 0.999 * full_scale
        rail_counts = _window_sums(at_rail, starts, window_samples)
        flags[rail_counts >= max(2, clip_fraction * window_samples)] |= (
            QF_CLIPPED
        )

    # Gaps and dead windows from exact-zero runs.
    zero_counts = _window_sums(is_zero, starts, window_samples)
    flags[zero_counts >= dead_fraction * window_samples] |= QF_DEAD
    run_len = _zero_run_lengths(is_zero)
    long_run = run_len >= gap_samples
    gap_hits = _window_sums(long_run, starts, window_samples)
    flags[gap_hits > 0] |= QF_GAPPED

    # Energy outliers, robustly referenced to the unflagged windows.
    energy = _window_sums(np.abs(samples) ** 2, starts, window_samples)
    log_e = np.log10(energy + np.finfo(float).tiny)
    baseline = log_e[flags == 0]
    if len(baseline) >= 8:
        median = float(np.median(baseline))
        mad = float(np.median(np.abs(baseline - median)))
        scale = max(1.4826 * mad, 0.02)  # floor: 0.02 decades
        outlier = np.abs(log_e - median) > energy_outlier_mads * scale
        flags[outlier & (flags == 0)] |= QF_ENERGY_OUTLIER

    if OBS.enabled:
        for bit, name in (
            (QF_CLIPPED, "flagged_clipped"),
            (QF_GAPPED, "flagged_gapped"),
            (QF_DEAD, "flagged_dead"),
            (QF_ENERGY_OUTLIER, "flagged_energy_outlier"),
            (QF_NONFINITE, "flagged_nonfinite"),
        ):
            hits = int(np.count_nonzero(flags & bit))
            if hits:
                record_count("core.stft", name, hits)
    return flags


def _finite_view(samples: np.ndarray):
    """``(samples, finite)`` with non-finite entries zeroed.

    ``finite`` is the per-sample mask, or ``None`` when every sample is
    finite (then ``samples`` is returned as is, without a copy).
    """
    finite = np.isfinite(samples)
    if finite.all():
        return samples, None
    return np.where(finite, samples, 0), finite


def _amplitude(samples: np.ndarray) -> np.ndarray:
    """Per-sample rail amplitude: max(|I|, |Q|) for IQ, |x| for real."""
    if np.iscomplexobj(samples):
        return np.maximum(np.abs(samples.real), np.abs(samples.imag))
    return np.abs(samples)


def _window_sums(
    values: np.ndarray, starts: np.ndarray, window_samples: int
) -> np.ndarray:
    """Sum of ``values`` over each [start, start + window_samples) window."""
    csum = np.concatenate([[0.0], np.cumsum(values, dtype=float)])
    return csum[starts + window_samples] - csum[starts]


def _zero_run_lengths(is_zero: np.ndarray) -> np.ndarray:
    """At each position, the length of the zero-run ending there (else 0)."""
    nonzero_idx = np.nonzero(~is_zero)[0]
    if len(nonzero_idx) == 0:
        return np.arange(1, len(is_zero) + 1, dtype=np.int64)
    # Index of the most recent nonzero at or before each position.
    prev = np.full(len(is_zero), -1, dtype=np.int64)
    prev[nonzero_idx] = nonzero_idx
    prev = np.maximum.accumulate(prev)
    out = np.arange(len(is_zero), dtype=np.int64) - prev
    out[~is_zero] = 0
    return out


def _taper(name: str, length: int) -> np.ndarray:
    if name == "hann":
        return np.hanning(length)
    if name == "hamming":
        return np.hamming(length)
    if name == "rect":
        return np.ones(length)
    raise SignalError(f"unknown window {name!r}")


class StreamingQuality:
    """Causal, chunked counterpart of :func:`window_quality`.

    Consumes arbitrary-size sample chunks and emits the quality bitmask of
    every window completed by each chunk, in lockstep with
    :class:`StreamingStft`. State is O(1) in the stream length: a residual
    sample buffer shorter than one window plus one chunk, the running
    amplitude rail, the zero-run length carried across the chunk boundary,
    and a bounded ring of recent log-energies.

    Exactness relative to the batch function (which sees the whole capture
    at once):

    - *gapped* / *dead* flags are bit-identical: zero runs only ever look
      backward, and the run length at the chunk boundary is carried over.
    - *non-finite* flags are bit-identical: they depend on the window's
      own samples only.
    - *clipped* uses the running amplitude maximum instead of the global
      one, so a window early in the stream may miss the flag if the
      capture's true rail only appears later (a fielded receiver knows its
      ADC rail up front and can seed ``full_scale``).
    - *energy outlier* references the median/MAD of the last
      ``baseline_capacity`` unflagged windows instead of the whole
      capture's -- the stationary-capture verdicts agree, and the causal
      version additionally adapts to slow drift.
    """

    def __init__(
        self,
        window_samples: int,
        overlap: float = 0.5,
        clip_fraction: float = 0.01,
        gap_samples: int = 16,
        dead_fraction: float = 0.9,
        energy_outlier_mads: float = 8.0,
        full_scale: Optional[float] = None,
        baseline_capacity: int = 512,
    ) -> None:
        if window_samples < 8:
            raise SignalError(
                f"window_samples must be >= 8, got {window_samples}"
            )
        if not 0.0 <= overlap < 1.0:
            raise SignalError(f"overlap must be in [0, 1), got {overlap}")
        if baseline_capacity < 8:
            raise SignalError("baseline_capacity must be >= 8")
        self._window = window_samples
        self._hop = max(1, int(round(window_samples * (1.0 - overlap))))
        self._clip_fraction = clip_fraction
        self._gap_samples = gap_samples
        self._dead_fraction = dead_fraction
        self._mads = energy_outlier_mads
        self._buffer: Optional[np.ndarray] = None
        self._full_scale = float(full_scale) if full_scale else 0.0
        self._zero_carry = 0
        self._baseline = np.empty(baseline_capacity)
        self._baseline_size = 0
        self._baseline_pos = 0

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Quality flags of the windows completed by this chunk."""
        samples = np.asarray(samples)
        prev = self._buffer
        if prev is not None and len(prev):
            buf = np.concatenate([prev, samples])
            private = True
        else:
            # Hop-aligned fast path: nothing carried over, so the chunk
            # itself is the working buffer -- no full-chunk copy (the
            # residual tail is copied below, and nothing here mutates
            # ``buf``).
            buf = samples
            private = False
        if len(samples):
            amp_new = _amplitude(_finite_view(samples)[0])
            self._full_scale = max(self._full_scale, float(amp_new.max()))
        w, hop = self._window, self._hop
        if len(buf) < w:
            self._buffer = buf if private else buf.copy()
            return np.zeros(0, dtype=np.uint8)
        n = 1 + (len(buf) - w) // hop
        starts = np.arange(n) * hop
        raw = buf[: (n - 1) * hop + w]
        is_zero = raw == 0
        region, finite = _finite_view(raw)
        amp = _amplitude(region)

        flags = np.zeros(n, dtype=np.uint8)
        if finite is not None:
            flags[_window_sums(~finite, starts, w) > 0] |= QF_NONFINITE
        if self._full_scale > 0:
            at_rail = amp >= 0.999 * self._full_scale
            rail_counts = _window_sums(at_rail, starts, w)
            flags[rail_counts >= max(2, self._clip_fraction * w)] |= QF_CLIPPED

        zero_counts = _window_sums(is_zero, starts, w)
        flags[zero_counts >= self._dead_fraction * w] |= QF_DEAD
        run_len = _zero_run_lengths(is_zero)
        if self._zero_carry:
            # Fold the pre-buffer zero run into the leading zero prefix so
            # runs spanning the chunk boundary keep their full length.
            prefix = len(run_len)
            nz = np.nonzero(~is_zero)[0]
            if len(nz):
                prefix = int(nz[0])
            run_len[:prefix] += self._zero_carry
        gap_hits = _window_sums(run_len >= self._gap_samples, starts, w)
        flags[gap_hits > 0] |= QF_GAPPED

        energy = _window_sums(np.abs(region) ** 2, starts, w)
        log_e = np.log10(energy + np.finfo(float).tiny)
        for i in range(n):
            if flags[i]:
                continue
            if self._baseline_size >= 8:
                base = self._baseline[: self._baseline_size]
                median = float(np.median(base))
                mad = float(np.median(np.abs(base - median)))
                scale = max(1.4826 * mad, 0.02)  # floor: 0.02 decades
                if abs(log_e[i] - median) > self._mads * scale:
                    flags[i] |= QF_ENERGY_OUTLIER
            # Like the batch baseline (every not-otherwise-flagged window,
            # outliers included -- the robust statistics absorb them).
            self._baseline[self._baseline_pos] = log_e[i]
            self._baseline_pos = (self._baseline_pos + 1) % len(self._baseline)
            self._baseline_size = min(
                self._baseline_size + 1, len(self._baseline)
            )

        drop = n * hop
        self._zero_carry = int(run_len[drop - 1])
        self._buffer = buf[drop:].copy()
        return flags

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> tuple:
        """State needed to resume this quality stream elsewhere.

        Returns ``(meta, arrays)`` where ``meta`` is JSON-able and
        ``arrays`` maps names to ndarrays. The baseline ring is exported
        as its defined slots only; ring position and fill are carried in
        ``meta`` so a restored stream continues bit-identically.
        """
        meta = {
            "full_scale": self._full_scale,
            "zero_carry": self._zero_carry,
            "baseline_size": self._baseline_size,
            "baseline_pos": self._baseline_pos,
            "baseline_capacity": len(self._baseline),
            "has_buffer": self._buffer is not None,
        }
        arrays = {
            "baseline": self._baseline[: self._baseline_size].copy(),
        }
        if self._buffer is not None:
            arrays["buffer"] = self._buffer.copy()
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict) -> None:
        """Adopt state exported by :meth:`export_state`."""
        if int(meta["baseline_capacity"]) != len(self._baseline):
            raise SignalError(
                f"quality snapshot has baseline capacity "
                f"{meta['baseline_capacity']}, this stream uses "
                f"{len(self._baseline)}"
            )
        self._full_scale = float(meta["full_scale"])
        self._zero_carry = int(meta["zero_carry"])
        size = int(meta["baseline_size"])
        baseline = np.asarray(arrays["baseline"], dtype=float)
        if len(baseline) != size:
            raise SignalError(
                f"quality snapshot carries {len(baseline)} baseline "
                f"entries but declares {size}"
            )
        self._baseline[:size] = baseline
        self._baseline_size = size
        self._baseline_pos = int(meta["baseline_pos"])
        if meta["has_buffer"]:
            self._buffer = np.array(arrays["buffer"], copy=True)
        else:
            self._buffer = None


class _StagedStft:
    """One chunk staged by :meth:`StreamingStft.begin_feed`: the frames
    awaiting their spectral transform, plus the chunk's completed-window
    bookkeeping (``frames`` is ``None`` when the chunk completed no
    window)."""

    __slots__ = ("frames", "quality_flags", "times", "n")

    def __init__(self, frames, quality_flags, times, n):
        self.frames = frames
        self.quality_flags = quality_flags
        self.times = times
        self.n = n


class StreamingStft:
    """Chunked, stateful counterpart of :func:`stft`.

    Accepts arbitrary-size sample chunks via :meth:`feed` and emits the
    Short-Term Spectra of every window completed so far, carrying the STFT
    tail (the up-to ``window_samples - 1`` samples that belong to
    not-yet-complete windows) across chunk boundaries. Each emitted window
    contains exactly the samples the batch :func:`stft` would have given
    it, and the per-window transform is shared code
    (:func:`_transform_frames`), so streaming spectra are bit-identical to
    batch spectra for any chunking of the same signal.

    Steady-state memory is O(window_samples + chunk), independent of how
    much of the stream has been consumed.
    """

    def __init__(
        self,
        sample_rate: float,
        window_samples: int = 1024,
        overlap: float = 0.5,
        window: str = "hann",
        detrend: bool = True,
        fold: bool = True,
        t0: float = 0.0,
        quality: Optional[StreamingQuality] = None,
    ) -> None:
        if sample_rate <= 0:
            raise SignalError(
                f"sample_rate must be positive, got {sample_rate}"
            )
        if window_samples < 8:
            raise SignalError(
                f"window_samples must be >= 8, got {window_samples}"
            )
        if not 0.0 <= overlap < 1.0:
            raise SignalError(f"overlap must be in [0, 1), got {overlap}")
        self.sample_rate = float(sample_rate)
        self.window_samples = int(window_samples)
        self.hop = max(1, int(round(window_samples * (1.0 - overlap))))
        self.t0 = float(t0)
        self._taper_arr = _taper(window, window_samples)
        self._detrend = detrend
        self._fold = fold
        self._quality = quality
        self._buffer: Optional[np.ndarray] = None
        self._consumed = 0  # absolute sample index of _buffer[0]
        self._is_complex: Optional[bool] = None
        self._freqs: Optional[np.ndarray] = None

    @property
    def pending_samples(self) -> int:
        """Samples buffered but not yet part of a completed window."""
        return 0 if self._buffer is None else len(self._buffer)

    @property
    def samples_seen(self) -> int:
        """Total samples consumed so far (including the pending tail)."""
        return self._consumed + self.pending_samples

    def feed(self, samples: np.ndarray) -> SpectrumSequence:
        """Consume one chunk; return the windows it completed (possibly
        zero of them)."""
        staged = self.begin_feed(np.asarray(samples))
        power = freqs = None
        if staged.n:
            power, freqs = self.transform(staged)
        return self.finish_feed(staged, power, freqs)

    def begin_feed(self, samples: np.ndarray) -> "_StagedStft":
        """Stage one chunk: gather its completed frames and advance the
        stream state, deferring the spectral transform.

        The split lets the fleet kernel pool many sessions' staged frames
        into one :func:`_transform_frames` call (per-row transform, so
        pooling is bit-identical); :meth:`feed` is simply
        ``begin_feed`` + :meth:`transform` + :meth:`finish_feed`.

        When an incoming chunk aligns with the window hop (no residual
        tail carried over), the chunk is processed in place: no
        concatenation and no full-chunk copy -- only the new residual
        tail (under one window of samples) is copied out. The returned
        frames may alias the caller's chunk; nothing downstream mutates
        them.
        """
        if samples.ndim != 1:
            raise SignalError(
                f"chunk must be 1-D, got shape {samples.shape}"
            )
        chunk_complex = np.iscomplexobj(samples)
        if self._is_complex is None:
            self._is_complex = chunk_complex
        elif chunk_complex and not self._is_complex:
            raise SignalError(
                "complex chunk fed into a stream that started real"
            )
        quality_flags = (
            self._quality.feed(samples) if self._quality is not None else None
        )
        prev = self._buffer
        if prev is not None and len(prev):
            buf = np.concatenate([prev, samples])
            private = True
        else:
            buf = samples
            private = False
        w, hop = self.window_samples, self.hop
        n = 1 + (len(buf) - w) // hop if len(buf) >= w else 0
        if n <= 0:
            self._buffer = buf if private else buf.copy()
            return _StagedStft(None, quality_flags, np.empty(0), 0)
        local_starts = np.arange(n) * hop
        frames = np.lib.stride_tricks.sliding_window_view(buf, w)[local_starts]
        starts = self._consumed + local_starts
        times = self.t0 + (starts + w / 2.0) / self.sample_rate
        self._consumed += n * hop
        self._buffer = buf[n * hop:].copy()
        return _StagedStft(frames, quality_flags, times, n)

    def transform(self, staged: "_StagedStft"):
        """Spectral transform of a staged chunk's frames:
        ``(power, freqs)``."""
        return _transform_frames(
            staged.frames, self._is_complex, self._taper_arr, self._detrend,
            self._fold, self.window_samples, self.sample_rate,
        )

    def finish_feed(
        self,
        staged: "_StagedStft",
        power: Optional[np.ndarray],
        freqs: Optional[np.ndarray],
    ) -> SpectrumSequence:
        """Wrap a staged chunk and its (possibly pooled) spectra into the
        chunk's :class:`SpectrumSequence`."""
        if staged.n == 0:
            return self._empty_sequence(staged.quality_flags)
        self._freqs = freqs
        if OBS.enabled:
            record_count("core.stft", "stream_chunks")
            record_count("core.stft", "stream_windows", staged.n)
        return SpectrumSequence(
            freqs=freqs,
            times=staged.times,
            power=power,
            window_duration=self.window_samples / self.sample_rate,
            hop_duration=self.hop / self.sample_rate,
            quality=staged.quality_flags,
        )

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> tuple:
        """State needed to resume this STFT stream elsewhere.

        Returns ``(meta, arrays)``: the residual sample tail (the carry
        across chunk boundaries), the absolute consumed-sample cursor,
        the real/complex stream mode, and -- when quality gating rides
        along -- the quality stream's state under a ``quality`` namespace.
        ``_freqs`` is deliberately not exported: it is a pure function of
        the config and stream mode, recomputed on the next feed.
        """
        meta = {
            "consumed": self._consumed,
            "is_complex": self._is_complex,
            "has_buffer": self._buffer is not None,
            "has_quality": self._quality is not None,
        }
        arrays = {}
        if self._buffer is not None:
            arrays["buffer"] = self._buffer.copy()
        if self._quality is not None:
            q_meta, q_arrays = self._quality.export_state()
            meta["quality"] = q_meta
            for name, value in q_arrays.items():
                arrays[f"quality.{name}"] = value
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict) -> None:
        """Adopt state exported by :meth:`export_state`."""
        if bool(meta["has_quality"]) != (self._quality is not None):
            raise SignalError(
                "snapshot and stream disagree about quality gating"
            )
        self._consumed = int(meta["consumed"])
        is_complex = meta["is_complex"]
        self._is_complex = None if is_complex is None else bool(is_complex)
        if meta["has_buffer"]:
            self._buffer = np.array(arrays["buffer"], copy=True)
        else:
            self._buffer = None
        self._freqs = None
        if self._quality is not None:
            prefix = "quality."
            q_arrays = {
                name[len(prefix):]: value
                for name, value in arrays.items()
                if name.startswith(prefix)
            }
            self._quality.restore_state(meta["quality"], q_arrays)

    def _empty_sequence(
        self, quality_flags: Optional[np.ndarray]
    ) -> SpectrumSequence:
        freqs = self._freqs
        if freqs is None:
            # No window completed yet; the bin grid is still known from
            # the stream mode and config.
            if self._is_complex and not self._fold:
                freqs = np.fft.fftshift(
                    np.fft.fftfreq(self.window_samples, 1.0 / self.sample_rate)
                )
            else:
                freqs = np.fft.rfftfreq(
                    self.window_samples, 1.0 / self.sample_rate
                )
        return SpectrumSequence(
            freqs=freqs,
            times=np.empty(0),
            power=np.empty((0, len(freqs))),
            window_duration=self.window_samples / self.sample_rate,
            hop_duration=self.hop / self.sample_rate,
            quality=quality_flags,
        )
