"""EDDIE's trained model and its configuration.

Training (Section 4.1) produces, per region of the region-level state
machine: a reference set of peak-frequency observations (one row per
training STS, strongest peak first), the number of peak dimensions to test,
and the K-S group size n selected for the accuracy/latency trade-off
(Section 4.3). The model also carries the state machine's successor
relation, which Algorithm 1 consults on rejections.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats.ks import sorted_run_ends
from repro.dsp import FrontendStage, validate_frontend
from repro.errors import ConfigurationError, TrainingError

__all__ = ["EddieConfig", "RegionProfile", "EddieModel", "CalibrationInfo"]


@dataclass(frozen=True, kw_only=True)
class CalibrationInfo:
    """Provenance of a derived (calibrated) model.

    A derived model is a trained :class:`EddieModel` whose reference
    distributions were warped onto a perturbed device variant by
    ``repro.transfer.calibrate_model`` -- never retrained. The record
    pins the exact base model (by content fingerprint) and the warp that
    produced the derivation, so registries and serve can refuse
    derivations whose lineage does not check out.

    Attributes:
        base_fingerprint: ``model_fingerprint`` hex of the base model the
            references were warped from.
        method: warp family identifier (currently ``"scale-snap"``:
            global constrained frequency scale + per-region refinement +
            per-dim monotone line snapping; DESIGN.md D23).
        variant: free-form description of the target device variant.
        freq_scale: the estimated global frequency scale factor
            (target / base).
        windows: STS windows of the unlabeled calibration capture used.
        snapped_fraction: share of reference mass that snapped onto an
            observed target spectral line.
    """

    base_fingerprint: str
    method: str = "scale-snap"
    variant: str = ""
    freq_scale: float = 1.0
    windows: int = 0
    snapped_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.base_fingerprint:
            raise ConfigurationError(
                "CalibrationInfo requires the base model fingerprint"
            )
        if not self.method:
            raise ConfigurationError("CalibrationInfo.method must be set")
        if not self.freq_scale > 0:
            raise ConfigurationError(
                f"freq_scale must be positive, got {self.freq_scale}"
            )
        if self.windows < 0:
            raise ConfigurationError("windows must be >= 0")
        if not 0 <= self.snapped_fraction <= 1:
            raise ConfigurationError("snapped_fraction must be in [0, 1]")

    def to_dict(self) -> Dict[str, object]:
        return {
            "base_fingerprint": self.base_fingerprint,
            "method": self.method,
            "variant": self.variant,
            "freq_scale": float(self.freq_scale),
            "windows": int(self.windows),
            "snapped_fraction": float(self.snapped_fraction),
        }

    @classmethod
    def from_dict(cls, raw: object) -> "CalibrationInfo":
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"calibration block must be a mapping, got {type(raw).__name__}"
            )
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"calibration block has unknown fields: {sorted(unknown)}"
            )
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigurationError(f"bad calibration block: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class EddieConfig:
    """All tunables of the EDDIE pipeline.

    Construction is keyword-only and validates eagerly: every invalid
    field raises :class:`~repro.errors.ConfigurationError` at
    construction time, never later inside the pipeline.

    Attributes:
        window_samples: STFT window length in samples.
        overlap: STFT window overlap (paper: 50%).
        energy_fraction: minimum share of window energy for a peak (paper: 1%).
        peak_prominence: minimum ratio of a peak bin to the median bin
            power (noise-floor criterion; see repro.core.peaks).
        max_peaks: cap on tracked peak dimensions per region.
        alpha: K-S significance level (paper: 99% confidence = 0.01).
        statistic: the two-sample test: 'ks' (the paper's choice) or
            'utest' (the alternative it was compared against, Sec. 4.2).
        diffuse_features: also track each window's spectral centroid and
            bandwidth as two extra tested dimensions (the paper's
            suggested "consideration of diffuse spectral features"); makes
            even peak-less regions testable.
        report_threshold: tolerated consecutive K-S rejections; an anomaly
            is reported on a longer streak (paper: 3).
        change_fraction: fraction of the rejecting peak dimensions a
            successor region must explain in one step to earn a change
            vote.
        change_steps: change votes a successor needs before the monitor
            transitions to it.
        group_sizes: candidate values of the K-S group size n evaluated
            during training (Figure 3 sweep).
        reference_cap: maximum reference windows stored per region.
        min_mon_values: minimum non-NaN observations needed to run a test.
        quality_gating: compute per-window acquisition-quality flags
            (clipped / gapped / dead / energy-outlier / non-finite; see
            repro.core.stft.StreamingQuality) and treat flagged STSs as
            *unscorable*: the anomaly streak suspends across them instead
            of counting them as rejections, and after a gap the monitor
            re-enters region search (DESIGN.md D14). Off by default --
            the paper's lab capture never needed it.
        clip_fraction: share of rail-level samples marking a window
            clipped.
        gap_samples: consecutive exact zeros marking a window gapped.
        dead_fraction: share of zeros marking a window dead.
        energy_outlier_mads: robust z-score (in scaled MADs of
            log-energy, against the model's trained
            ``EddieModel.energy_reference``) beyond which a window is an
            energy outlier.
        resync_timeout: scorable windows the monitor may spend
            reacquiring a region after a gap before escalating to a
            ``desync`` report.
        max_unscorable_fraction: when at least this share of a run's
            windows is unscorable, the result's status is ``'degraded'``.
        frontend: preprocessing chain applied to every captured signal
            before the STFT -- a tuple of
            :class:`~repro.dsp.FrontendStage` stages (e.g.
            :class:`~repro.dsp.SvdDenoiser`) run in order on training,
            batch, streaming, fleet, and served paths alike. Part of the
            config fingerprint, so a served model reproduces its
            training front end exactly (DESIGN.md D22).
    """

    window_samples: int = 512
    overlap: float = 0.5
    energy_fraction: float = 0.01
    peak_prominence: float = 15.0
    max_peaks: int = 12
    alpha: float = 0.01
    statistic: str = "ks"
    diffuse_features: bool = False
    report_threshold: int = 3
    change_fraction: float = 0.5
    change_steps: int = 3
    group_sizes: Tuple[int, ...] = (8, 12, 16, 24, 32, 48, 64, 96, 128)
    reference_cap: int = 1200
    min_mon_values: int = 5
    quality_gating: bool = False
    clip_fraction: float = 0.01
    gap_samples: int = 16
    dead_fraction: float = 0.9
    energy_outlier_mads: float = 8.0
    resync_timeout: int = 96
    max_unscorable_fraction: float = 0.9
    frontend: Tuple[FrontendStage, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.frontend, tuple):
            object.__setattr__(self, "frontend", tuple(self.frontend))
        self.validate()

    def validate(self) -> "EddieConfig":
        """Check every field; raise ConfigurationError on the first bad one.

        Runs automatically at construction; call it explicitly after
        deserializing a config through a path that bypasses ``__init__``.
        Returns ``self`` so it chains.
        """
        if self.window_samples < 8:
            raise ConfigurationError(
                f"window_samples must be >= 8, got {self.window_samples}"
            )
        if not 0 <= self.overlap < 1:
            raise ConfigurationError(
                f"overlap must be in [0, 1), got {self.overlap}"
            )
        if not 0 < self.energy_fraction < 1:
            raise ConfigurationError(
                f"energy_fraction must be in (0, 1), got {self.energy_fraction}"
            )
        if self.peak_prominence < 0:
            raise ConfigurationError("peak_prominence must be >= 0")
        if self.reference_cap < 1:
            raise ConfigurationError("reference_cap must be >= 1")
        if self.min_mon_values < 2:
            raise ConfigurationError("min_mon_values must be >= 2")
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.statistic not in ("ks", "utest"):
            raise ConfigurationError(f"unknown statistic {self.statistic!r}")
        if self.report_threshold < 0:
            raise ConfigurationError("report_threshold must be >= 0")
        if not 0 < self.change_fraction <= 1:
            raise ConfigurationError("change_fraction must be in (0, 1]")
        if self.change_steps < 1:
            raise ConfigurationError("change_steps must be >= 1")
        if not self.group_sizes or any(n < 2 for n in self.group_sizes):
            raise ConfigurationError("group_sizes must be >= 2")
        if self.max_peaks < 1:
            raise ConfigurationError("max_peaks must be >= 1")
        if not 0 < self.clip_fraction <= 1:
            raise ConfigurationError("clip_fraction must be in (0, 1]")
        if self.gap_samples < 1:
            raise ConfigurationError("gap_samples must be >= 1")
        if not 0 < self.dead_fraction <= 1:
            raise ConfigurationError("dead_fraction must be in (0, 1]")
        if self.energy_outlier_mads <= 0:
            raise ConfigurationError("energy_outlier_mads must be positive")
        if self.resync_timeout < 1:
            raise ConfigurationError("resync_timeout must be >= 1")
        if not 0 < self.max_unscorable_fraction <= 1:
            raise ConfigurationError(
                "max_unscorable_fraction must be in (0, 1]"
            )
        validate_frontend(self.frontend)
        return self


class RegionProfile:
    """Reference data for one region.

    Attributes:
        name: region name (``loop:...`` or ``inter:...``).
        reference: array (n_windows, max_peaks [+2]) of training peak
            frequencies, strongest first, NaN-padded -- plus the spectral
            centroid/bandwidth columns when diffuse features are enabled.
        num_peaks: peak dimensions tested for this region.
        group_size: the K-S group size n chosen for this region.
        descriptor_dims: column indices of the diffuse-feature descriptors
            tested in addition to the peaks (empty when disabled).
    """

    def __init__(
        self,
        name: str,
        reference: np.ndarray,
        num_peaks: int,
        group_size: int,
        descriptor_dims: Tuple[int, ...] = (),
    ) -> None:
        reference = np.asarray(reference, dtype=float)
        if reference.ndim != 2:
            raise TrainingError(
                f"region {name!r}: reference must be 2-D, got shape "
                f"{reference.shape}"
            )
        if num_peaks > reference.shape[1]:
            raise TrainingError(
                f"region {name!r}: num_peaks {num_peaks} exceeds reference "
                f"width {reference.shape[1]}"
            )
        if any(d >= reference.shape[1] for d in descriptor_dims):
            raise TrainingError(
                f"region {name!r}: descriptor dims {descriptor_dims} exceed "
                f"reference width {reference.shape[1]}"
            )
        if group_size < 2:
            raise TrainingError(f"region {name!r}: group_size must be >= 2")
        self.name = name
        self.reference = reference
        self.num_peaks = int(num_peaks)
        self.group_size = int(group_size)
        self.descriptor_dims = tuple(int(d) for d in descriptor_dims)
        self._sorted_dims: Dict[int, np.ndarray] = {}
        self._dim_runs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._test_dims: Tuple[int, ...] = (
            tuple(range(self.num_peaks)) + self.descriptor_dims
        )

    @property
    def n_reference(self) -> int:
        return self.reference.shape[0]

    @property
    def test_dims(self) -> Tuple[int, ...]:
        """Column indices tested for this region: peaks, then descriptors."""
        return self._test_dims

    def reference_dim(self, dim: int) -> np.ndarray:
        """Sorted, NaN-free reference values of peak dimension ``dim``."""
        cached = self._sorted_dims.get(dim)
        if cached is None:
            column = self.reference[:, dim]
            cached = np.sort(column[~np.isnan(column)])
            self._sorted_dims[dim] = cached
        return cached

    def reference_dim_runs(self, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """Precomputed :func:`sorted_run_ends` of ``reference_dim(dim)``.

        The reference side of every K-S test is fixed per region, so its
        run-end structure (cumulative counts and distinct values) is
        computed once and fed to the batched kernel on every window.
        """
        cached = self._dim_runs.get(dim)
        if cached is None:
            ref = self.reference_dim(dim)
            if len(ref):
                cached = sorted_run_ends(ref)
            else:
                cached = (np.empty(0, dtype=np.int64), ref)
            self._dim_runs[dim] = cached
        return cached

    def precompute_references(self) -> None:
        """Eagerly sort every tested dimension's reference set.

        The sorted arrays (and their run-end structure) are cached per
        profile either way (lazily, on first use); the monitor calls this
        once up front so no sort is ever paid inside its scoring loop.
        """
        for dim in self.test_dims:
            self.reference_dim(dim)
            self.reference_dim_runs(dim)

    def testable(self) -> bool:
        """Whether this region has any usable tested dimension.

        Regions whose loops produce no spectral peaks (the paper's GSM
        example) are untestable -- unless diffuse features are enabled;
        they are the source of imperfect coverage.
        """
        return any(len(self.reference_dim(d)) > 0 for d in self.test_dims)

    def __repr__(self) -> str:
        return (
            f"RegionProfile({self.name!r}, refs={self.n_reference}, "
            f"peaks={self.num_peaks}, n={self.group_size})"
        )


class EddieModel:
    """The full trained model for one program.

    ``energy_reference`` is the trained ``(median, scale)`` the quality
    gate's energy rule tests against (DESIGN.md D36); ``None`` turns the
    rule off.
    """

    def __init__(
        self,
        program_name: str,
        config: EddieConfig,
        profiles: Dict[str, RegionProfile],
        successors: Dict[str, List[str]],
        initial_regions: Sequence[str],
        sample_rate: float,
        calibration: Optional[CalibrationInfo] = None,
        energy_reference: Optional[Tuple[float, float]] = None,
    ) -> None:
        if not profiles:
            raise TrainingError("model has no region profiles")
        unknown = set(successors) - set(profiles)
        # Successor lists may mention regions never observed in training;
        # keep them (monitoring simply cannot transition into them).
        self.program_name = program_name
        self.config = config
        self.profiles = profiles
        self.successors = {k: list(v) for k, v in successors.items()}
        self.initial_regions = [r for r in initial_regions if r in profiles] or list(
            profiles
        )[:1]
        self.sample_rate = float(sample_rate)
        self.calibration = calibration
        self.energy_reference = energy_reference and tuple(energy_reference)
        del unknown

    @property
    def is_derived(self) -> bool:
        """Whether this model was calibrated from a base model."""
        return self.calibration is not None

    def profile(self, region: str) -> RegionProfile:
        try:
            return self.profiles[region]
        except KeyError:
            raise ConfigurationError(f"model has no profile for {region!r}") from None

    def candidate_regions(self, current: str) -> List[str]:
        """Regions execution may plausibly be in after leaving ``current``.

        Direct successors plus their successors (two steps), because
        inter-loop regions can be too brief to yield a full STS group --
        the execution may already be in the *next* loop by the time the
        K-S test notices the change.
        """
        seen: Dict[str, None] = {}
        for succ in self.successors.get(current, []):
            if succ in self.profiles and succ != current:
                seen.setdefault(succ, None)
            for succ2 in self.successors.get(succ, []):
                if succ2 in self.profiles and succ2 != current:
                    seen.setdefault(succ2, None)
        return list(seen)

    @property
    def max_group_size(self) -> int:
        return max(p.group_size for p in self.profiles.values())

    @property
    def hop_duration(self) -> float:
        """Time between consecutive STSs, in seconds."""
        hop = int(round(self.config.window_samples * (1 - self.config.overlap)))
        return max(1, hop) / self.sample_rate

    def with_group_size(self, group_size: int) -> "EddieModel":
        """A copy with every region forced to one group size.

        Used by the latency sweeps (Figures 6-10): detection latency is
        varied by varying n.
        """
        profiles = {
            name: RegionProfile(
                name=p.name,
                reference=p.reference,
                num_peaks=p.num_peaks,
                group_size=group_size,
                descriptor_dims=p.descriptor_dims,
            )
            for name, p in self.profiles.items()
        }
        return EddieModel(
            self.program_name,
            self.config,
            profiles,
            self.successors,
            self.initial_regions,
            self.sample_rate,
            calibration=self.calibration,
            energy_reference=self.energy_reference,
        )

    def with_alpha(self, alpha: float) -> "EddieModel":
        """A copy with a different K-S significance level (Figure 9)."""
        return EddieModel(
            self.program_name,
            replace(self.config, alpha=alpha),
            self.profiles,
            self.successors,
            self.initial_regions,
            self.sample_rate,
            calibration=self.calibration,
            energy_reference=self.energy_reference,
        )

    def with_quality_gating(self, enabled: bool = True) -> "EddieModel":
        """A copy with acquisition-quality gating toggled (DESIGN.md D14)."""
        return EddieModel(
            self.program_name,
            replace(self.config, quality_gating=enabled),
            self.profiles,
            self.successors,
            self.initial_regions,
            self.sample_rate,
            calibration=self.calibration,
            energy_reference=self.energy_reference,
        )

    def with_calibrated_references(
        self,
        references: Dict[str, np.ndarray],
        calibration: CalibrationInfo,
        sample_rate: Optional[float] = None,
        energy_reference: Optional[Tuple[float, float]] = None,
    ) -> "EddieModel":
        """Derived-model constructor (``with_*`` style, DESIGN.md D23).

        Replaces per-region reference arrays with warped copies while
        keeping the state machine, per-region group sizes, and tested
        dimensions of the base model. Every replacement must match its
        base region's shape exactly: calibration warps observations, it
        never adds or drops them. ``sample_rate`` may be updated to the
        target device's estimated rate so hop timing follows the warp,
        and ``energy_reference`` to the target's (the base's is kept
        when it is ``None``).
        """
        unknown = set(references) - set(self.profiles)
        if unknown:
            raise TrainingError(
                f"calibrated references for unknown regions: {sorted(unknown)}"
            )
        profiles = {}
        for name, base in self.profiles.items():
            warped = references.get(name)
            if warped is None:
                profiles[name] = base
                continue
            warped = np.asarray(warped, dtype=float)
            if warped.shape != base.reference.shape:
                raise TrainingError(
                    f"region {name!r}: warped reference shape {warped.shape} "
                    f"!= base {base.reference.shape}"
                )
            if not np.array_equal(np.isnan(warped), np.isnan(base.reference)):
                raise TrainingError(
                    f"region {name!r}: warp changed the NaN padding mask"
                )
            profiles[name] = RegionProfile(
                name=base.name,
                reference=warped,
                num_peaks=base.num_peaks,
                group_size=base.group_size,
                descriptor_dims=base.descriptor_dims,
            )
        return EddieModel(
            self.program_name,
            self.config,
            profiles,
            self.successors,
            self.initial_regions,
            self.sample_rate if sample_rate is None else float(sample_rate),
            calibration=calibration,
            energy_reference=energy_reference or self.energy_reference,
        )

    def __repr__(self) -> str:
        return (
            f"EddieModel({self.program_name!r}, regions={len(self.profiles)})"
        )
