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
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SignalError
from repro.obs import OBS, record_count
from repro.types import Signal

__all__ = [
    "SpectrumSequence",
    "StreamingStft",
    "StreamingQuality",
    "energy_outliers",
    "energy_reference",
    "require_finite",
    "stft",
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
                         # outside the trained robust range
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
    power, freqs = _transform_frames(
        _gather_frames([samples], [starts], window_samples),
        is_complex, taper, detrend, fold, window_samples, signal.sample_rate,
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


def _gather_frames(
    buffers: Sequence[np.ndarray],
    starts: Sequence[np.ndarray],
    window_samples: int,
) -> np.ndarray:
    """Copy the frames of one or more sample buffers into one fresh
    ``(n_frames, window_samples)`` array.

    ``starts[k]`` holds the frame starts within ``buffers[k]``. The
    buffers are concatenated (a group of one is used as is) and every
    frame is taken by one fancy index into a strided window view, so the
    result is a new, C-contiguous array the caller owns -- and
    :func:`_transform_frames` may overwrite -- while the buffers, which
    can be a caller's chunk, are left untouched. Rows are in buffer
    order. The buffers must share a dtype (concatenation would otherwise
    promote one buffer's samples through another's).
    """
    if len(buffers) == 1:
        flat, global_starts = buffers[0], starts[0]
    else:
        flat = np.concatenate(buffers)
        offsets = np.cumsum([0] + [len(b) for b in buffers[:-1]])
        global_starts = np.concatenate(
            [s + offset for s, offset in zip(starts, offsets)]
        )
    return np.lib.stride_tricks.sliding_window_view(flat, window_samples)[
        global_starts
    ]


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

    ``frames`` is consumed: it comes from :func:`_gather_frames`, and each
    step writes into it (or into the step's one promoted or reshaped
    output) instead of allocating a temporary. Narrow frames (float32,
    complex64) detrend in their own dtype and are promoted once, at the
    taper multiply.
    """
    if detrend:
        # Remove each frame's mean BEFORE tapering: subtracting after
        # tapering leaves a taper-shaped residual that leaks into the
        # lowest bins and can outweigh genuine loop peaks.
        frames = _in_place(
            np.subtract, frames, frames.mean(axis=1, keepdims=True)
        )
    frames = _in_place(np.multiply, frames, taper)
    if is_complex:
        spectra = np.fft.fft(frames, axis=1, out=frames)
    else:
        spectra = np.fft.rfft(frames, axis=1)
    power = np.abs(spectra)
    np.square(power, out=power)
    if not is_complex:
        freqs = np.fft.rfftfreq(window_samples, 1.0 / sample_rate)
    elif fold:
        power, freqs = _fold_two_sided(power, window_samples, sample_rate)
    else:
        power = np.fft.fftshift(power, axes=1)
        freqs = np.fft.fftshift(
            np.fft.fftfreq(window_samples, 1.0 / sample_rate)
        )
    return power, freqs


def _in_place(ufunc, frames: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``ufunc(frames, operand)``, written into ``frames`` when the result
    keeps its dtype, else into one new array of the promoted dtype."""
    keeps = np.result_type(frames.dtype, operand.dtype) == frames.dtype
    return ufunc(frames, operand, out=frames if keeps else None)


def _fold_two_sided(
    power: np.ndarray, window_samples: int, sample_rate: float
):
    """Fold an unshifted two-sided power spectrum onto [0, Nyquist].

    The bins are ``rfftfreq``'s: positive bin k (1 <= k < n/2) pairs with
    negative bin n - k, and only an even window has a Nyquist bin, which
    has no pair.
    """
    n = window_samples
    half = n // 2
    pairs = (n - 1) // 2
    folded = np.empty((power.shape[0], half + 1))
    folded[:, 0] = power[:, 0]
    np.add(
        power[:, 1:pairs + 1],
        power[:, n - 1: n - 1 - pairs: -1],
        out=folded[:, 1:pairs + 1],
    )
    if n % 2 == 0:
        folded[:, half] = power[:, half]
    freqs = np.arange(half + 1) * (sample_rate / n)
    return folded, freqs


def _window_counts(
    mask: np.ndarray, starts: np.ndarray, window_samples: int
) -> np.ndarray:
    """How many set entries of ``mask`` lie in each
    [start, start + window_samples) window."""
    hits = np.flatnonzero(mask)
    return np.searchsorted(hits, starts + window_samples) - np.searchsorted(
        hits, starts
    )


def _zero_run_lengths(is_zero: np.ndarray, carry: int = 0) -> np.ndarray:
    """At each position, the length of the zero run ending there (else 0),
    counting ``carry`` zeros just before the first position."""
    index = np.arange(len(is_zero))
    # Index of the most recent nonzero at or before each position.
    prev = np.maximum.accumulate(np.where(is_zero, -1 - carry, index))
    return np.where(is_zero, index - prev, 0)


def _taper(name: str, length: int) -> np.ndarray:
    if name == "hann":
        return np.hanning(length)
    if name == "hamming":
        return np.hamming(length)
    if name == "rect":
        return np.ones(length)
    raise SignalError(f"unknown window {name!r}")


class StreamingQuality:
    """Per-window acquisition-quality flags of a sample stream: the one
    quality gate of every path (DESIGN.md D14, D36).

    Batch runs and training feed it a whole capture as one chunk; stream,
    fleet and served sessions feed it chunk by chunk, in lockstep with
    :class:`StreamingStft`. Flags come from the raw samples, whatever the
    window's spectrum looks like, as a uint8 bitmask (``QF_*``) per
    window a chunk completes:

    - *clipped*: at least ``clip_fraction`` of the window's samples lie
      within 0.1% of the rail, the running maximum of |I| / |Q| (a clean
      capture puts only its largest sample there);
    - *gapped*: a run of at least ``gap_samples`` exact zeros, the mark
      of a zero-filled overflow gap;
    - *dead*: at least ``dead_fraction`` of the window is exact zeros;
    - *energy outlier*: the window's log-energy lies more than
      ``energy_outlier_mads`` scales from ``energy_reference``, the
      trained ``(median, scale)`` (:func:`energy_reference`); without a
      reference the rule is off;
    - *non-finite*: a NaN or inf sample. The rail and energy are taken
      over finite samples only, so such samples blind no other flag.

    Every flag but *clipped* depends only on the window's own samples
    (zero runs carry across chunk boundaries) and the reference, so any
    chunking gives the same bits. The rail can only be the one seen so
    far: over one chunk it is the capture's, but an early stream window
    misses the flag when the rail appears later. State is O(1) in the
    stream length: the residual samples, the rail, and the zero run.
    """

    def __init__(
        self,
        window_samples: int,
        overlap: float = 0.5,
        clip_fraction: float = 0.01,
        gap_samples: int = 16,
        dead_fraction: float = 0.9,
        energy_outlier_mads: float = 8.0,
        energy_reference: Optional[Tuple[float, float]] = None,
    ) -> None:
        if window_samples < 8:
            raise SignalError(
                f"window_samples must be >= 8, got {window_samples}"
            )
        if not 0.0 <= overlap < 1.0:
            raise SignalError(f"overlap must be in [0, 1), got {overlap}")
        self._window = window_samples
        self._hop = max(1, int(round(window_samples * (1.0 - overlap))))
        self._clip_fraction = clip_fraction
        self._gap_samples = gap_samples
        self._dead_fraction = dead_fraction
        self._mads = energy_outlier_mads
        self._reference = energy_reference
        self._buffer: Optional[np.ndarray] = None
        self._rail = 0.0
        self._zero_carry = 0

    @classmethod
    def from_config(
        cls, config, energy_reference: Optional[Tuple[float, float]] = None
    ) -> "StreamingQuality":
        """The gate an :class:`~repro.core.model.EddieConfig` describes."""
        return cls(
            config.window_samples,
            config.overlap,
            clip_fraction=config.clip_fraction,
            gap_samples=config.gap_samples,
            dead_fraction=config.dead_fraction,
            energy_outlier_mads=config.energy_outlier_mads,
            energy_reference=energy_reference,
        )

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Quality flags of the windows completed by this chunk."""
        flags, _ = self.measure(samples)
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

    def measure(self, samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(flags, log_energy)`` of the windows completed by this chunk,
        like :meth:`feed` but recording no counters (training fits the
        reference from the log-energies)."""
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
        finite = np.isfinite(buf)
        region = buf if finite.all() else np.where(finite, buf, 0)
        if np.iscomplexobj(region):
            amp = np.maximum(np.abs(region.real), np.abs(region.imag))
        else:
            amp = np.abs(region)
        if len(samples):
            self._rail = max(
                self._rail, float(amp[len(buf) - len(samples):].max())
            )
        w, hop = self._window, self._hop
        if len(buf) < w:
            self._buffer = buf if private else buf.copy()
            return np.zeros(0, dtype=np.uint8), np.zeros(0)
        n = 1 + (len(buf) - w) // hop
        m = (n - 1) * hop + w
        starts = np.arange(n) * hop

        flags = np.zeros(n, dtype=np.uint8)
        flags[_window_counts(~finite[:m], starts, w) > 0] |= QF_NONFINITE
        if self._rail > 0:
            rail_counts = _window_counts(
                amp[:m] >= 0.999 * self._rail, starts, w
            )
            flags[rail_counts >= max(2, self._clip_fraction * w)] |= QF_CLIPPED

        is_zero = buf[:m] == 0
        run_len = None
        if is_zero.any():
            zero_counts = _window_counts(is_zero, starts, w)
            flags[zero_counts >= self._dead_fraction * w] |= QF_DEAD
            run_len = _zero_run_lengths(is_zero, self._zero_carry)
            gap_hits = _window_counts(run_len >= self._gap_samples, starts, w)
            flags[gap_hits > 0] |= QF_GAPPED

        # Each window's energy is summed from its own samples, never as a
        # difference of a chunk-wide cumsum, whose last bits depend on
        # where the chunk starts.
        power = np.square(np.abs(region[:m]), dtype=float)
        frames = np.lib.stride_tricks.sliding_window_view(power, w)
        log_e = np.log10(frames[::hop].sum(axis=1) + np.finfo(float).tiny)
        flags[energy_outliers(log_e, self._reference, self._mads)] |= (
            QF_ENERGY_OUTLIER
        )

        drop = n * hop
        self._zero_carry = 0 if run_len is None else int(run_len[drop - 1])
        self._buffer = buf[drop:].copy()
        return flags, log_e

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> tuple:
        """``(meta, arrays)`` to resume this stream elsewhere (``meta``
        JSON-able). The energy reference is the model's, not exported."""
        meta = {
            "rail": self._rail,
            "zero_carry": self._zero_carry,
            "has_buffer": self._buffer is not None,
        }
        arrays = {}
        if self._buffer is not None:
            arrays["buffer"] = self._buffer.copy()
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict) -> None:
        """Adopt state exported by :meth:`export_state`."""
        self._rail = float(meta["rail"])
        self._zero_carry = int(meta["zero_carry"])
        if meta["has_buffer"]:
            self._buffer = np.array(arrays["buffer"], copy=True)
        else:
            self._buffer = None


def energy_reference(
    log_energy: np.ndarray,
) -> Optional[Tuple[float, float]]:
    """``(median, scale)`` of window log-energies, the scale being the
    scaled MAD floored at 0.02 decades; ``None`` for fewer than 8."""
    log_energy = np.asarray(log_energy, dtype=float)
    if len(log_energy) < 8:
        return None
    median = float(np.median(log_energy))
    mad = float(np.median(np.abs(log_energy - median)))
    return median, max(1.4826 * mad, 0.02)


def energy_outliers(
    log_energy: np.ndarray,
    reference: Optional[Tuple[float, float]],
    mads: float,
) -> np.ndarray:
    """Which log-energies lie more than ``mads`` scales from the
    reference median (none without a reference)."""
    if reference is None:
        return np.zeros(len(log_energy), dtype=bool)
    median, scale = reference
    return np.abs(log_energy - median) > mads * scale


def require_finite(samples: np.ndarray) -> None:
    """Refuse NaN or inf samples with :class:`SignalError`: without
    quality gating nothing would flag their windows."""
    if not np.isfinite(samples).all():
        raise SignalError(
            "samples hold NaN or inf; enable quality_gating to flag such "
            "windows as unscorable"
        )


class _StagedStft:
    """One chunk staged by :meth:`StreamingStft.begin_feed`: the sample
    buffer its completed windows lie in and their starts within it,
    awaiting the gather and spectral transform, plus the chunk's
    completed-window bookkeeping (``buffer`` is ``None`` when the chunk
    completed no window)."""

    __slots__ = ("buffer", "starts", "quality_flags", "times", "n")

    def __init__(self, buffer, starts, quality_flags, times, n):
        self.buffer = buffer
        self.starts = starts
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
        """Stage one chunk: advance the stream state and return the
        sample buffer holding the chunk's completed windows with their
        local starts, deferring the frame gather and spectral transform.

        The split lets the fleet kernel gather many sessions' staged
        buffers with one :func:`_gather_frames` call and transform them
        with one :func:`_transform_frames` call (per-row transform, so
        pooling is bit-identical); :meth:`feed` is simply
        ``begin_feed`` + :meth:`transform` + :meth:`finish_feed`.

        When an incoming chunk aligns with the window hop (no residual
        tail carried over), the chunk itself is the staged buffer: no
        concatenation and no full-chunk copy -- only the new residual
        tail (under one window of samples) is copied out. The staged
        buffer may therefore be the caller's chunk; it is only read, by
        the gather, which copies the frames out before the transform
        overwrites them.
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
            return _StagedStft(None, None, quality_flags, np.empty(0), 0)
        local_starts = np.arange(n) * hop
        starts = self._consumed + local_starts
        times = self.t0 + (starts + w / 2.0) / self.sample_rate
        self._consumed += n * hop
        self._buffer = buf[n * hop:].copy()
        return _StagedStft(buf, local_starts, quality_flags, times, n)

    def transform(self, staged: "_StagedStft"):
        """Gather and spectrally transform a staged chunk's frames:
        ``(power, freqs)``. The fleet kernel does the same for a pooled
        group of stagings."""
        w = self.window_samples
        return _transform_frames(
            _gather_frames([staged.buffer], [staged.starts], w),
            self._is_complex, self._taper_arr, self._detrend, self._fold,
            w, self.sample_rate,
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
