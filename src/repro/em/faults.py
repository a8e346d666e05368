"""Acquisition fault injection (the robustness layer's ground truth side).

Real low-cost SDR capture fails in ways an ideal receiver never does:
USRP-style overflow gaps when the host can't drain the stream, ADC
saturation bursts when a nearby transmitter keys up, gain steps when the
AGC reacts, impulsive wideband interference, and dead stretches when the
front end drops out entirely. EDDIE's Section 5.1 low-cost-receiver claim
only survives deployment if the monitor degrades gracefully through these
events instead of reporting an anomaly at every hiccup.

This module corrupts captured :class:`~repro.types.Signal`\\ s with
scheduled or stochastic faults, and -- crucially -- emits a ground-truth
:class:`~repro.types.FaultSpan` log for every corrupted stretch, so
benchmarks can score fault-overlapping windows separately from clean ones
(see ``benchmarks/bench_fault_robustness.py``).

Saturation reuses :func:`repro.em.receiver.saturate` so an injected burst
clips exactly as an overdriven ADC does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.em.receiver import saturate
from repro.errors import SignalError
from repro.obs import OBS, record_count
from repro.types import FaultSpan, Signal

__all__ = [
    "AcquisitionFault",
    "SampleDropFault",
    "SaturationFault",
    "GainStepFault",
    "ImpulseNoiseFault",
    "DeadChannelFault",
    "NonFiniteFault",
    "FaultInjector",
    "standard_fault_mix",
]


def _poisson_spans(
    duration: float,
    rate_per_s: float,
    mean_duration_s: float,
    rng: np.random.Generator,
    min_duration_s: float = 0.0,
) -> List[Tuple[float, float]]:
    """Sample fault occurrences: Poisson arrivals, exponential lengths.

    Returned spans are relative to the start of the signal, clipped to
    ``[0, duration]``, merged when they overlap, and time-ordered.
    """
    if rate_per_s <= 0 or duration <= 0:
        return []
    n = int(rng.poisson(rate_per_s * duration))
    if n == 0:
        return []
    starts = np.sort(rng.uniform(0.0, duration, size=n))
    lengths = np.maximum(
        rng.exponential(mean_duration_s, size=n), min_duration_s
    )
    spans: List[Tuple[float, float]] = []
    for start, length in zip(starts, lengths):
        end = min(duration, start + length)
        if end <= start:
            continue
        if spans and start <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], end))
        else:
            spans.append((start, end))
    return spans


@dataclass(frozen=True)
class AcquisitionFault:
    """Base class: one fault type with a stochastic or fixed schedule.

    Attributes:
        rate_per_s: mean fault occurrences per second (Poisson arrivals).
        mean_duration_s: mean length of one fault event (exponential).
        schedule: explicit ``(t_start_rel, t_end_rel)`` spans relative to
            the signal start; when non-empty it replaces the stochastic
            schedule entirely (for deterministic tests and benches).
    """

    rate_per_s: float = 1.0
    mean_duration_s: float = 1e-4
    schedule: Tuple[Tuple[float, float], ...] = ()

    kind = "fault"

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise SignalError(f"rate_per_s must be >= 0, got {self.rate_per_s}")
        if self.mean_duration_s <= 0:
            raise SignalError(
                f"mean_duration_s must be positive, got {self.mean_duration_s}"
            )
        for start, end in self.schedule:
            if end < start:
                raise SignalError(
                    f"scheduled span ({start}, {end}) ends before it starts"
                )

    def spans_for(
        self, signal: Signal, rng: np.random.Generator
    ) -> List[Tuple[float, float]]:
        """Relative corrupted spans for this capture."""
        if self.schedule:
            duration = signal.duration
            return [
                (max(0.0, s), min(duration, e))
                for s, e in self.schedule
                if s < duration and e > 0.0
            ]
        return _poisson_spans(
            signal.duration, self.rate_per_s, self.mean_duration_s, rng
        )

    def apply(
        self, signal: Signal, rng: np.random.Generator
    ) -> Tuple[Signal, List[FaultSpan]]:
        """Corrupt ``signal``; return the new signal and the fault log."""
        spans = self.spans_for(signal, rng)
        if not spans:
            return signal, []
        samples = np.array(signal.samples, copy=True)
        rate = signal.sample_rate
        logged: List[FaultSpan] = []
        for start, end in spans:
            i0 = max(0, int(round(start * rate)))
            i1 = min(len(samples), int(round(end * rate)))
            if i1 <= i0:
                continue
            magnitude = self._corrupt(samples, i0, i1, rng)
            logged.append(
                FaultSpan(
                    kind=self.kind,
                    t_start=signal.t0 + i0 / rate,
                    t_end=signal.t0 + i1 / rate,
                    magnitude=magnitude,
                )
            )
        return Signal(samples, rate, signal.t0), logged

    # Subclasses corrupt samples[i0:i1] in place and return the magnitude.
    def _corrupt(
        self, samples: np.ndarray, i0: int, i1: int, rng: np.random.Generator
    ) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class SampleDropFault(AcquisitionFault):
    """USRP-style overflow: the host misses a stretch of the stream.

    ``fill='zero'`` (the default) models a driver that zero-fills the gap
    to keep timestamps aligned -- the gap is visible as a run of exact
    zeros. ``fill='hold'`` repeats the last good sample (some cheap
    front ends latch), which is harder to see but still kills the
    spectrum. Either way the span is logged with a timestamp
    discontinuity marker in ``magnitude`` (the number of lost samples).
    """

    fill: str = "zero"
    kind = "drop"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fill not in ("zero", "hold"):
            raise SignalError(f"unknown fill mode {self.fill!r}")

    def _corrupt(self, samples, i0, i1, rng):
        if self.fill == "zero":
            samples[i0:i1] = 0
        else:
            samples[i0:i1] = samples[i0 - 1] if i0 > 0 else 0
        return float(i1 - i0)


@dataclass(frozen=True)
class SaturationFault(AcquisitionFault):
    """ADC saturation burst: a strong in-band transient rails the ADC.

    The affected stretch is overdriven by ``drive`` and clipped at
    ``full_scale`` through the receiver's own saturation model, producing
    the same flat-topped samples an overloaded front end records.
    """

    drive: float = 20.0
    full_scale: float = 4.0
    kind = "saturation"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.drive <= 1.0:
            raise SignalError(f"drive must exceed 1, got {self.drive}")
        if self.full_scale <= 0:
            raise SignalError(
                f"full_scale must be positive, got {self.full_scale}"
            )

    def _corrupt(self, samples, i0, i1, rng):
        clipped, _ = saturate(samples[i0:i1] * self.drive, self.full_scale)
        samples[i0:i1] = clipped
        return self.drive


@dataclass(frozen=True)
class GainStepFault(AcquisitionFault):
    """AGC gain step: the front-end gain jumps, then settles back.

    During the span the signal is scaled by a factor drawn uniformly from
    ``+/- step_db`` (in dB, never exactly 0 dB); afterwards the AGC has
    recovered. The K-S statistics see every spectral line's power move at
    once.
    """

    step_db: float = 12.0
    kind = "gain_step"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.step_db <= 0:
            raise SignalError(f"step_db must be positive, got {self.step_db}")

    def _corrupt(self, samples, i0, i1, rng):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        db = sign * rng.uniform(0.25 * self.step_db, self.step_db)
        factor = 10.0 ** (db / 20.0)
        samples[i0:i1] = samples[i0:i1] * factor
        return factor


@dataclass(frozen=True)
class ImpulseNoiseFault(AcquisitionFault):
    """Impulsive wideband interference: a broadband burst rides on top.

    Adds white noise at ``amplitude`` times the signal's RMS over the
    span -- the motor-brush / ignition / switching-supply transient that
    Miller et al. identify as the dominant corruption in noisy
    deployments.
    """

    amplitude: float = 8.0
    mean_duration_s: float = 2e-5
    kind = "impulse"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.amplitude <= 0:
            raise SignalError(
                f"amplitude must be positive, got {self.amplitude}"
            )

    def _corrupt(self, samples, i0, i1, rng):
        rms = float(np.sqrt(np.mean(np.abs(samples) ** 2)))
        scale = self.amplitude * (rms if rms > 0 else 1.0)
        n = i1 - i0
        if np.iscomplexobj(samples):
            burst = scale * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ) / np.sqrt(2.0)
        else:
            burst = scale * rng.standard_normal(n)
        samples[i0:i1] = samples[i0:i1] + burst
        return self.amplitude


@dataclass(frozen=True)
class DeadChannelFault(AcquisitionFault):
    """Dead channel: the front end drops out and records nothing.

    Unlike a drop gap (a short buffering hiccup) a dead stretch is long --
    an antenna cable wiggle, a USB renegotiation -- and the monitor must
    suspend rather than score through it.
    """

    rate_per_s: float = 0.2
    mean_duration_s: float = 2e-3
    kind = "dead"

    def _corrupt(self, samples, i0, i1, rng):
        samples[i0:i1] = 0
        return float(i1 - i0)


@dataclass(frozen=True)
class NonFiniteFault(AcquisitionFault):
    """Non-finite samples: a host-side DMA fault writes NaN.

    No spectrum can be computed from such a window, so quality gating
    must flag it (``QF_NONFINITE``) rather than score it. Not part of
    :func:`standard_fault_mix`.
    """

    kind = "nonfinite"

    def _corrupt(self, samples, i0, i1, rng):
        samples[i0:i1] = np.nan
        return float(i1 - i0)


@dataclass(frozen=True)
class FaultInjector:
    """Composable pipeline of acquisition faults.

    Applies every fault in order to the captured signal and returns the
    merged, time-ordered ground-truth log. Deterministic under a fixed
    ``seed`` (or an explicitly passed RNG), so benches can replay the
    exact same fault pattern against gated and ungated monitors.
    """

    faults: Tuple[AcquisitionFault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(f, AcquisitionFault):
                raise SignalError(
                    f"FaultInjector takes AcquisitionFault instances, got "
                    f"{type(f).__name__}"
                )

    def inject(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Tuple[Signal, List[FaultSpan]]:
        """Corrupt one captured signal; returns (signal, fault log)."""
        if rng is None:
            rng = np.random.default_rng(self.seed)
        log: List[FaultSpan] = []
        for fault in self.faults:
            signal, spans = fault.apply(signal, rng)
            log.extend(spans)
        log.sort(key=lambda s: (s.t_start, s.t_end))
        if OBS.enabled and log:
            kinds: dict = {}
            for fault_span in log:
                kinds[fault_span.kind] = kinds.get(fault_span.kind, 0) + 1
            for kind, count in kinds.items():
                record_count("em.faults", f"spans.{kind}", count)
        return signal, log

    def __bool__(self) -> bool:
        return bool(self.faults)


def standard_fault_mix(
    drop_rate_per_s: float,
    clip_rate_per_s: float,
    mean_duration_s: float = 2e-4,
    seed: Optional[int] = None,
) -> FaultInjector:
    """The bench's canonical mix: sample-drop gaps plus saturation bursts."""
    faults: List[AcquisitionFault] = []
    if drop_rate_per_s > 0:
        faults.append(
            SampleDropFault(
                rate_per_s=drop_rate_per_s, mean_duration_s=mean_duration_s
            )
        )
    if clip_rate_per_s > 0:
        faults.append(
            SaturationFault(
                rate_per_s=clip_rate_per_s, mean_duration_s=mean_duration_s
            )
        )
    return FaultInjector(faults=tuple(faults), seed=seed)
