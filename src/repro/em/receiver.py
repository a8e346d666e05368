"""SDR-like receiver front end.

Models the relevant behaviour of the paper's acquisition chain (Keysight
scope or USRP B200-mini): front-end gain, optional band-limiting around the
carrier with decimation, and quantization. The output is the IQ stream that
EDDIE's STFT consumes.

The saturation model lives in :func:`saturate` so the fault layer
(:mod:`repro.em.faults`) and the real front end clip identically: a
saturation burst injected by a fault produces the same flat-topped samples
an overdriven ADC would, and both report overflow counts the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.dsp.stage import fir_filter, fir_lowpass
from repro.errors import SignalError
from repro.obs import OBS, record_count
from repro.types import Signal

__all__ = ["Receiver", "OverflowCounter", "saturate"]


def saturate(values: np.ndarray, full_scale: float) -> Tuple[np.ndarray, int]:
    """Clip real or complex samples to ``[-full_scale, full_scale]``.

    For complex input, I and Q clip independently (as the two ADC chains
    do). Returns ``(clipped, n_overflow)`` where ``n_overflow`` counts the
    samples whose I or Q rail hit the rails -- the USRP-style overflow
    counter.
    """
    if full_scale <= 0:
        raise SignalError(f"full_scale must be positive, got {full_scale}")
    if np.iscomplexobj(values):
        over = (np.abs(values.real) > full_scale) | (
            np.abs(values.imag) > full_scale
        )
        clipped = (
            np.clip(values.real, -full_scale, full_scale)
            + 1j * np.clip(values.imag, -full_scale, full_scale)
        )
    else:
        over = np.abs(values) > full_scale
        clipped = np.clip(values, -full_scale, full_scale)
    return clipped, int(over.sum())


class OverflowCounter:
    """Mutable overflow tally a frozen :class:`Receiver` can report into."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)

    def reset(self) -> None:
        self.count = 0

    def __repr__(self) -> str:
        return f"OverflowCounter(count={self.count})"


@dataclass(frozen=True)
class Receiver:
    """Receiver front-end configuration.

    Attributes:
        gain: linear front-end gain.
        decimation: integer decimation factor; >1 band-limits the signal to
            the inner ``1/decimation`` of the band with an anti-alias FIR
            before downsampling. The FIR's group delay is compensated so
            the decimated stream stays aligned with the ground-truth
            timeline.
        adc_bits: quantizer resolution; ``None`` for ideal (float) capture.
        adc_full_scale: full-scale amplitude of the quantizer.
        dc_offset: additive DC at the mixer output (cheap direct-conversion
            SDRs have a notorious DC spike).
        iq_imbalance_db: gain imbalance between the I and Q chains in dB;
            produces an image of every spectral component mirrored about
            the tuning frequency.
        lo_drift_hz_per_s: linear local-oscillator drift; slowly smears
            every spectral line over the capture.
        overflow_counter: optional :class:`OverflowCounter` hook; every
            capture adds the number of ADC-railed samples to it, like an
            SDR driver's "O" counter.

    The impairment defaults are zero (ideal capture, the Keysight-scope
    setting); nonzero values model the paper's <$800 USRP / <$100 custom
    receiver claim (Section 5.1), exercised by
    ``benchmarks/bench_receiver_robustness.py``.
    """

    gain: float = 1.0
    decimation: int = 1
    adc_bits: Optional[int] = None
    adc_full_scale: float = 4.0
    dc_offset: complex = 0.0
    iq_imbalance_db: float = 0.0
    lo_drift_hz_per_s: float = 0.0
    overflow_counter: Optional[OverflowCounter] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise SignalError(f"gain must be positive, got {self.gain}")
        if self.decimation < 1:
            raise SignalError(f"decimation must be >= 1, got {self.decimation}")
        if self.adc_bits is not None and not 2 <= self.adc_bits <= 24:
            raise SignalError(f"adc_bits must be 2..24, got {self.adc_bits}")
        if self.adc_full_scale <= 0:
            raise SignalError(
                f"adc_full_scale must be positive, got {self.adc_full_scale}"
            )
        if self.iq_imbalance_db < 0:
            raise SignalError("iq_imbalance_db must be >= 0")

    def capture(self, signal: Signal) -> Signal:
        """Apply the front end to a received signal."""
        samples = signal.samples * self.gain
        rate = signal.sample_rate

        if self.lo_drift_hz_per_s and np.iscomplexobj(samples):
            t = signal.t0 + np.arange(len(samples)) / rate
            # Instantaneous offset f(t) = drift * t; phase = pi * drift * t^2.
            samples = samples * np.exp(1j * np.pi * self.lo_drift_hz_per_s * t**2)

        if self.iq_imbalance_db and np.iscomplexobj(samples):
            # Q-chain gain error epsilon: y = I + j*(1+eps)*Q, equivalently
            # a scaled image of the conjugate signal.
            epsilon = 10.0 ** (self.iq_imbalance_db / 20.0) - 1.0
            samples = samples + 1j * epsilon * samples.imag

        if self.dc_offset:
            samples = samples + self.dc_offset

        if self.decimation > 1:
            # Anti-alias low-pass at the post-decimation Nyquist. The
            # 65-tap linear-phase FIR delays the stream by (65-1)/2 = 32
            # samples; feed 32 trailing zeros through the filter and drop
            # the first 32 outputs so the IQ stream stays aligned with the
            # ground-truth timeline after decimation.
            cutoff = 0.8 / self.decimation  # fraction of input Nyquist
            taps = fir_lowpass(65, cutoff)
            delay = (len(taps) - 1) // 2
            padded = np.concatenate(
                [samples, np.zeros(delay, dtype=samples.dtype)]
            )
            samples = fir_filter(taps, padded)[delay:]
            samples = samples[:: self.decimation]
            rate = rate / self.decimation

        if self.adc_bits is not None:
            step = 2.0 * self.adc_full_scale / (1 << self.adc_bits)
            samples, n_over = saturate(samples, self.adc_full_scale)
            if self.overflow_counter is not None:
                self.overflow_counter.add(n_over)
            if OBS.enabled and n_over:
                record_count("em.receiver", "adc_overflows", n_over)
            samples = np.round(samples / step) * step

        if OBS.enabled:
            record_count("em.receiver", "captures")
        return Signal(samples, rate, signal.t0)
