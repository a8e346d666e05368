"""EDDIE training (Sections 4.1 and 4.3 of the paper).

Training consumes instrumented, injection-free runs -- each a (signal,
region timeline) pair -- and produces an :class:`~repro.core.model.EddieModel`:

1. every run's signal becomes an STS sequence; each STS is labelled with
   the region that produced it (via the instrumentation timeline);
2. per region, the labelled STSs' peak vectors form the reference set;
3. per region, the K-S group size n is selected by sweeping candidate
   values over held-out training windows and taking the smallest n that
   achieves the minimum false-rejection rate (the paper's Figure 3
   procedure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.model import EddieConfig, EddieModel, RegionProfile
from repro.core.peaks import peak_matrix
from repro.core.stats import two_sample_reject
from repro.core.stft import (
    QF_UNSCORABLE,
    SpectrumSequence,
    StreamingQuality,
    energy_outliers,
    energy_reference,
    stft,
)
from repro.errors import TrainingError
from repro.types import RegionTimeline, Signal

__all__ = [
    "Trainer",
    "LabelledRun",
    "label_windows",
    "select_group_size",
    "group_rejection_rates",
]


def label_windows(
    spectra: SpectrumSequence, timeline: RegionTimeline
) -> List[Optional[str]]:
    """Attribute each STS window to the region that dominated it."""
    labels: List[Optional[str]] = []
    for i in range(len(spectra)):
        start, end = spectra.window_span(i)
        labels.append(timeline.dominant_region(start, end))
    return labels


@dataclass
class LabelledRun:
    """One training run reduced to labelled peak observations, with each
    window's quality flags (energy rule off) and log-energy."""

    peaks: np.ndarray  # (n_windows, max_peaks)
    labels: List[Optional[str]]
    flags: np.ndarray
    log_energy: np.ndarray

    def windows_of(self, region: str) -> np.ndarray:
        """Peak rows of this run attributed to ``region`` (in time order)."""
        mask = np.array([lbl == region for lbl in self.labels])
        return self.peaks[mask]


class Trainer:
    """Accumulates training runs and builds the model."""

    def __init__(
        self,
        program_name: str,
        successors: Dict[str, List[str]],
        initial_regions: Sequence[str],
        config: Optional[EddieConfig] = None,
    ) -> None:
        self.program_name = program_name
        self.successors = successors
        self.initial_regions = list(initial_regions)
        self.config = config or EddieConfig()
        self._runs: List[LabelledRun] = []
        self._sample_rate: Optional[float] = None

    def add_run(self, signal: Signal, timeline: RegionTimeline) -> None:
        """Ingest one instrumented, injection-free training run."""
        if self._sample_rate is None:
            self._sample_rate = signal.sample_rate
        elif signal.sample_rate != self._sample_rate:
            raise TrainingError(
                f"training runs disagree on sample rate "
                f"({self._sample_rate} vs {signal.sample_rate})"
            )
        cfg = self.config
        if cfg.frontend:
            from repro.dsp import apply_frontend

            # Same placement as monitoring: the chain runs between
            # capture and STFT, and quality flags are computed on the
            # processed stream (matching the streaming path bit for bit).
            signal = apply_frontend(cfg.frontend, signal)
        spectra = stft(signal, cfg.window_samples, cfg.overlap)
        peaks = peak_matrix(spectra, cfg.energy_fraction, cfg.max_peaks,
                            cfg.peak_prominence, cfg.diffuse_features)
        labels = label_windows(spectra, timeline)
        flags, log_energy = StreamingQuality.from_config(cfg).measure(
            signal.samples
        )
        self._runs.append(LabelledRun(peaks, labels, flags, log_energy))

    def build(self, seed: int = 0) -> EddieModel:
        """Assemble the model from all ingested runs."""
        if not self._runs:
            raise TrainingError("no training runs ingested")
        rng = np.random.default_rng(seed)
        cfg = self.config

        # The energy reference is fitted whether or not this config gates:
        # gating can be switched on after training (with_quality_gating).
        energy_ref = energy_reference(np.concatenate(
            [run.log_energy[run.flags == 0] for run in self._runs]
        ))
        if cfg.quality_gating:
            # Even "clean" training captures can carry front-end hiccups;
            # corrupted windows must not pollute the reference sets.
            for run in self._runs:
                bad = (run.flags & QF_UNSCORABLE) | energy_outliers(
                    run.log_energy, energy_ref, cfg.energy_outlier_mads
                )
                run.labels = [
                    None if b else lbl for lbl, b in zip(run.labels, bad)
                ]

        regions = self._observed_regions()
        if not regions:
            raise TrainingError("no region received any training windows")

        # Hold out the last ~30% of runs (at least one, if we have more
        # than one run) for group-size validation.
        n_holdout = max(1, len(self._runs) * 3 // 10) if len(self._runs) > 1 else 0
        ref_runs = self._runs[: len(self._runs) - n_holdout] or self._runs
        val_runs = self._runs[len(self._runs) - n_holdout:] or self._runs

        profiles: Dict[str, RegionProfile] = {}
        for region in regions:
            reference = np.concatenate(
                [run.windows_of(region) for run in ref_runs], axis=0
            )
            if reference.shape[0] == 0:
                # Seen only in holdout runs; use those windows as reference.
                reference = np.concatenate(
                    [run.windows_of(region) for run in val_runs], axis=0
                )
            if reference.shape[0] == 0:
                continue
            if reference.shape[0] > cfg.reference_cap:
                keep = rng.choice(
                    reference.shape[0], size=cfg.reference_cap, replace=False
                )
                reference = reference[np.sort(keep)]

            num_peaks = _choose_num_peaks(reference, cfg)
            descriptor_dims = (
                (cfg.max_peaks, cfg.max_peaks + 1) if cfg.diffuse_features else ()
            )
            validation = np.concatenate(
                [run.windows_of(region) for run in val_runs], axis=0
            )
            dims = tuple(range(num_peaks)) + descriptor_dims
            group_size = select_group_size(
                reference, validation, dims, cfg
            )
            profiles[region] = RegionProfile(
                name=region,
                reference=reference,
                num_peaks=num_peaks,
                group_size=group_size,
                descriptor_dims=descriptor_dims,
            )

        if self._sample_rate is None:
            raise TrainingError("no training signal ingested")
        return EddieModel(
            program_name=self.program_name,
            config=cfg,
            profiles=profiles,
            successors=self.successors,
            initial_regions=self.initial_regions,
            sample_rate=self._sample_rate,
            energy_reference=energy_ref,
        )

    def _observed_regions(self) -> List[str]:
        seen: Dict[str, None] = {}
        for run in self._runs:
            for label in run.labels:
                if label is not None:
                    seen.setdefault(label, None)
        return list(seen)


_MAX_TESTED_PEAKS = 4


def _choose_num_peaks(reference: np.ndarray, config: EddieConfig) -> int:
    """Number of peak dimensions to test: the median peak count, capped.

    Dimensions beyond the median would be NaN in many windows, starving
    the K-S test of data. The cap exists because peaks beyond the first
    few are harmonics of the same loop lines: they move together with the
    fundamentals, so testing them adds family-wise false rejections
    (inflating the needed group size) without adding information. The cap
    also keeps the tested-dimension count comparable across cores whose
    clocks place different numbers of harmonics below Nyquist.

    Only the peak columns are counted; descriptor columns (when diffuse
    features are enabled) are tracked separately.
    """
    counts = (~np.isnan(reference[:, : config.max_peaks])).sum(axis=1)
    return min(int(np.median(counts)), _MAX_TESTED_PEAKS)


def select_group_size(
    reference: np.ndarray,
    validation: np.ndarray,
    dims,
    config: EddieConfig,
) -> int:
    """Select the K-S group size n for one region (paper Section 4.3).

    Slides a window of each candidate n over the held-out validation
    observations, runs the per-dimension K-S tests against the reference,
    and returns the smallest n achieving (within tolerance) the minimum
    false-rejection rate across all candidates. Larger n than that only
    costs latency.

    ``dims`` may be an int (test the first N columns) or an explicit
    sequence of column indices.
    """
    dims = _as_dims(dims)
    candidates = sorted(config.group_sizes)
    if not dims or len(validation) < min(candidates) + 1:
        return candidates[0]

    rates = group_rejection_rates(reference, validation, dims, config)
    if not rates:
        return candidates[0]

    best_rate = min(rates.values())
    tolerance = 0.005
    for n in candidates:
        if n in rates and rates[n] <= best_rate + tolerance:
            return n
    return candidates[-1]


def _as_dims(dims) -> tuple:
    """Normalize a dims spec: an int means the first N columns."""
    if isinstance(dims, (int, np.integer)):
        return tuple(range(int(dims)))
    return tuple(int(d) for d in dims)


def group_rejection_rates(
    reference: np.ndarray,
    validation: np.ndarray,
    dims,
    config: EddieConfig,
    group_sizes: Optional[Sequence[int]] = None,
) -> Dict[int, float]:
    """False-rejection rate of the K-S test per candidate group size n.

    This is the data behind the paper's Figure 3: slide groups of each n
    over injection-free validation observations and count groups where any
    tested dimension's test rejects. ``dims`` may be an int (first N
    columns) or explicit column indices.
    """
    dims = _as_dims(dims)
    candidates = sorted(group_sizes if group_sizes is not None else config.group_sizes)
    ref_dims = {}
    for dim in dims:
        column = reference[:, dim]
        ref_dims[dim] = np.sort(column[~np.isnan(column)])

    rates: Dict[int, float] = {}
    for n in candidates:
        if len(validation) < n + 1:
            break
        rejected = 0
        positions = 0
        stride = max(1, n // 4)  # sliding with a stride keeps this cheap
        for end in range(n, len(validation) + 1, stride):
            group = validation[end - n: end]
            positions += 1
            if _group_rejects(ref_dims, group, dims, config):
                rejected += 1
        if positions:
            rates[n] = rejected / positions
    return rates


def _group_rejects(
    ref_dims: Dict[int, np.ndarray],
    group: np.ndarray,
    dims: tuple,
    config: EddieConfig,
) -> bool:
    """Whether any tested dimension's K-S test rejects for this group."""
    for dim in dims:
        ref = ref_dims[dim]
        if len(ref) == 0:
            continue
        values = group[:, dim]
        values = values[~np.isnan(values)]
        if len(values) < config.min_mon_values:
            continue
        if two_sample_reject(ref, values, config.alpha, config.statistic):
            return True
    return False
