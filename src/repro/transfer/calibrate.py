"""Calibration: adapt a trained model to a target device variant.

The pipeline (DESIGN.md D23) needs only a *short, unlabeled* capture
from the target device -- no region timeline, no injections, no
retraining:

1. **Denoise** (optional): run extra front-end stages, then the model's
   own configured chain, over the calibration capture -- exactly what
   the monitor will do to the target's traffic at runtime.
2. **Line tables**: pool the model's reference peak observations into a
   weighted table of *base spectral lines*, and the target capture's STS
   peaks into a table of *observed target lines*. Peak frequencies are
   STFT-bin quantized, so both tables are small sets of exact float
   values with occurrence counts.
3. **Global constrained warp**: estimate the frequency scale factor
   ``s = f_target / f_base`` as the weighted mode of pairwise
   target/base line ratios within ``1 +/- max_scale_dev``. A clock-scaled
   device moves *every* line by the same factor, so the true ratio
   dominates the histogram while accidental pairings scatter.
4. **Per-region refinement**: each region's line set may additionally
   shift (cache-geometry changes move memory-bound loops more than
   compute loops), so a small local factor around ``s`` is chosen per
   region to maximize the reference mass landing on observed target
   lines.
5. **Monotone warp + snap**: every reference column is mapped through
   ``x -> r * x`` (region factor ``r``), then each distinct mapped value
   snaps to the nearest *observed* target line within a fraction of an
   STFT bin. Snapping to observed values -- not to a computed grid --
   makes warped references **bitwise equal** to the values the monitor
   will extract from target captures, which is what the exact-integer
   K-S kernel needs to see zero distribution distance on matching
   traffic. The per-dim mapping is kept monotone non-decreasing (equal
   values stay equal, order never inverts), so sorted references and
   their run structure remain valid.
6. **Per-dim quantile mapping**: positional alignment cannot fix a
   changed *mixture* -- different cache geometry shifts which line is
   strongest in each window, so a dim's distribution over the same
   lines changes shape. Calibration therefore attributes each target
   window to the region whose aligned line set best explains its peaks
   (unlabeled region matching), and where a region collects enough
   windows, each tested dim's reference distribution is quantile-mapped
   onto the attributed target observations: distinct reference values
   map (monotonically, ties to ties) onto the target dim's empirical
   quantiles -- which are themselves observed target values, keeping
   the exact-value property. Dims without enough attributed mass keep
   the scale+snap warp.
7. **Energy reference**: the quality gate's energy reference is
   re-fitted from the capture's unflagged windows (DESIGN.md D36), so a
   target whose received level differs is not flagged wholesale; a
   capture too short to fit one keeps the base model's.

The result is a derived :class:`~repro.core.model.EddieModel` carrying
:class:`~repro.core.model.CalibrationInfo` provenance pinned to the base
model's content fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import CalibrationInfo, EddieModel
from repro.core.peaks import peak_matrix
from repro.core.stft import StreamingQuality, energy_reference, stft
from repro.dsp import FrontendStage, apply_frontend, validate_frontend
from repro.em.scenario import EmTrace
from repro.errors import TrainingError
from repro.types import Signal

__all__ = [
    "CalibrationReport",
    "CalibrationResult",
    "RegionCalibration",
    "calibrate_model",
]


@dataclass(frozen=True)
class RegionCalibration:
    """Per-region outcome of the warp."""

    region: str
    scale: float
    snapped: int
    total: int
    matched_windows: int = 0
    quantile_dims: int = 0

    @property
    def snapped_fraction(self) -> float:
        return self.snapped / self.total if self.total else 0.0


@dataclass(frozen=True)
class CalibrationReport:
    """What calibration estimated and how well references landed."""

    freq_scale: float
    windows: int
    snapped_fraction: float
    regions: Tuple[RegionCalibration, ...]

    def format(self) -> str:
        lines = [
            f"freq scale {self.freq_scale:.6f} "
            f"({(self.freq_scale - 1) * 100:+.3f}%), "
            f"{self.windows} calibration windows, "
            f"{self.snapped_fraction * 100:.1f}% of reference mass "
            f"snapped to observed target lines",
        ]
        for region in self.regions:
            lines.append(
                f"  {region.region}: scale {region.scale:.6f}, "
                f"{region.snapped}/{region.total} snapped, "
                f"{region.matched_windows} matched windows, "
                f"{region.quantile_dims} quantile-mapped dims"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CalibrationResult:
    """A derived model plus the report describing its warp."""

    model: EddieModel
    report: CalibrationReport


def _line_table(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct finite values with occurrence counts (both sorted)."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    return np.unique(finite, return_counts=True)


def _estimate_scale(
    base_values: np.ndarray,
    base_weights: np.ndarray,
    target_values: np.ndarray,
    target_weights: np.ndarray,
    max_dev: float,
) -> float:
    """Weighted-mode estimate of the global frequency ratio.

    Every (target line, base line) pair whose ratio lies within
    ``1 +/- max_dev`` votes for its ratio with weight
    ``min(count_base, count_target)``; the estimate is the weighted mean
    of the most popular histogram bin's neighborhood. For a pure clock
    scale the true ratio is *exact* for every real line pair (same STFT
    bin index on both grids), so the histogram mode recovers it to float
    precision.
    """
    base_pos = base_values > 0
    base_values = base_values[base_pos]
    base_weights = base_weights[base_pos]
    if base_values.size == 0 or target_values.size == 0:
        return 1.0
    ratios = target_values[:, None] / base_values[None, :]
    weights = np.minimum(
        target_weights[:, None], base_weights[None, :]
    ).astype(float)
    mask = (ratios >= 1.0 - max_dev) & (ratios <= 1.0 + max_dev)
    ratios = ratios[mask]
    weights = weights[mask]
    if ratios.size == 0:
        return 1.0
    # Bin at ~2e-4 relative resolution, then refine inside the winning
    # neighborhood with a weighted mean.
    n_bins = max(int(np.ceil(2 * max_dev / 2e-4)), 1)
    hist, edges = np.histogram(
        ratios,
        bins=n_bins,
        range=(1.0 - max_dev, 1.0 + max_dev),
        weights=weights,
    )
    best = int(np.argmax(hist))
    lo = edges[max(best - 1, 0)]
    hi = edges[min(best + 2, len(edges) - 1)]
    near = (ratios >= lo) & (ratios <= hi)
    total = weights[near].sum()
    if total <= 0:
        return 1.0
    return float(np.sum(ratios[near] * weights[near]) / total)


def _refine_region_scale(
    line_values: np.ndarray,
    line_weights: np.ndarray,
    target_values: np.ndarray,
    global_scale: float,
    local_dev: float,
    tolerance: float,
) -> float:
    """Pick the per-region factor that lands the most line mass on
    observed target lines; ties prefer the global estimate.

    Scoring is distance-weighted (``w * (1 - dist/tolerance)``), not a
    hit count: spectral lines sit one STFT bin apart, so with any usable
    tolerance nearly every factor in the search range lands every line
    within tolerance of *some* comb tooth. A hit count saturates and a
    skewed factor can capture stray mass for free; the triangular kernel
    makes a skew pay on every line, so the exactly-aligned factor wins.
    """
    if line_values.size == 0 or target_values.size == 0 or local_dev <= 0:
        return global_scale
    factors = global_scale * (1.0 + np.linspace(-local_dev, local_dev, 41))
    best_scale = global_scale
    best_score = -1.0
    best_dist = np.inf
    for factor in factors:
        mapped = line_values * factor
        idx = np.searchsorted(target_values, mapped)
        left = np.clip(idx - 1, 0, target_values.size - 1)
        right = np.clip(idx, 0, target_values.size - 1)
        dist = np.minimum(
            np.abs(mapped - target_values[left]),
            np.abs(mapped - target_values[right]),
        )
        closeness = np.clip(1.0 - dist / tolerance, 0.0, None)
        score = float(np.sum(line_weights * closeness))
        deviation = abs(factor - global_scale)
        if score > best_score or (
            score == best_score and deviation < best_dist
        ):
            best_score = score
            best_scale = float(factor)
            best_dist = deviation
    return best_scale


def _warp_column(
    column: np.ndarray,
    scale: float,
    target_values: np.ndarray,
    tolerance: float,
    snap: bool,
) -> Tuple[np.ndarray, int, int]:
    """Map one reference column through the monotone warp.

    Returns (warped column, snapped observation count, total
    observation count). NaN padding is untouched; equal inputs map to
    equal outputs; the distinct-value mapping is forced non-decreasing,
    so per-dim sorted order (what the K-S kernel consumes) is preserved.
    """
    mask = ~np.isnan(column)
    values = column[mask]
    if values.size == 0:
        return column.copy(), 0, 0
    distinct, inverse = np.unique(values, return_inverse=True)
    counts = np.bincount(inverse)
    mapped = distinct * scale
    snapped = 0
    if snap and target_values.size:
        idx = np.searchsorted(target_values, mapped)
        left = np.clip(idx - 1, 0, target_values.size - 1)
        right = np.clip(idx, 0, target_values.size - 1)
        use_right = np.abs(mapped - target_values[right]) <= np.abs(
            mapped - target_values[left]
        )
        nearest = np.where(
            use_right, target_values[right], target_values[left]
        )
        snap_mask = np.abs(mapped - nearest) <= tolerance
        mapped = np.where(snap_mask, nearest, mapped)
        # Snapping two adjacent lines to the same observed line is a
        # legal (tie-creating) monotone map; crossing is not -- clamp.
        mapped = np.maximum.accumulate(mapped)
        snapped = int(counts[snap_mask].sum())
    warped = column.copy()
    warped[mask] = mapped[inverse]
    return warped, snapped, int(values.size)


def _attribute_windows(
    target_peaks: np.ndarray,
    region_tables: Dict[str, Tuple[np.ndarray, np.ndarray]],
    tolerance: float,
) -> Dict[str, np.ndarray]:
    """Assign each target window to the region that explains its peaks.

    A window's primary score for a region is the fraction of its finite
    peak values lying within ``tolerance`` of the region's *aligned*
    line set; a window is only assignable where that fraction reaches
    1/2. Regions share lines, though (a loop's fundamental often shows
    up in its neighbor's windows), so explained-fraction ties are broken
    by *line-mass likelihood*: the summed reference probability of the
    matched lines. A 557 kHz window ties 1/1 between a region where
    that line carries half the reference mass and one where it is a bit
    player -- the mass-weighted score attributes it to the former
    instead of discarding it, which matters because discarding exactly
    the shared-line windows skews every quantile estimate downstream.
    """
    names = list(region_tables)
    n_windows = target_peaks.shape[0]
    finite = ~np.isnan(target_peaks)
    n_finite = finite.sum(axis=1)
    frac = np.zeros((n_windows, len(names)))
    likelihood = np.zeros((n_windows, len(names)))
    for j, name in enumerate(names):
        lines, probs = region_tables[name]
        if lines.size == 0:
            continue
        vals = np.where(finite, target_peaks, 0.0)
        idx = np.searchsorted(lines, vals)
        left = np.clip(idx - 1, 0, lines.size - 1)
        right = np.clip(idx, 0, lines.size - 1)
        use_right = np.abs(vals - lines[right]) <= np.abs(
            vals - lines[left]
        )
        dist = np.where(
            use_right,
            np.abs(vals - lines[right]),
            np.abs(vals - lines[left]),
        )
        hit = (dist <= tolerance) & finite
        frac[:, j] = hit.sum(axis=1) / np.maximum(n_finite, 1)
        nearest_prob = np.where(use_right, probs[right], probs[left])
        likelihood[:, j] = np.where(hit, nearest_prob, 0.0).sum(axis=1)
    # Lexicographic (fraction, likelihood): fraction dominates, the
    # mass-weighted term only separates fraction ties (likelihood is
    # bounded by the peak count, so the scaling keeps the tiers apart).
    combined = frac * (4.0 * target_peaks.shape[1]) + likelihood
    best = np.argmax(combined, axis=1)
    rows = np.arange(n_windows)
    if len(names) > 1:
        runner_up = combined.copy()
        runner_up[rows, best] = -np.inf
        second = runner_up.max(axis=1)
    else:
        second = np.full(n_windows, -np.inf)
    ok = (
        (n_finite > 0)
        & (frac[rows, best] >= 0.5)
        & (combined[rows, best] > second)
    )
    return {
        name: np.nonzero(ok & (best == j))[0]
        for j, name in enumerate(names)
    }


def _quantile_map_column(
    column: np.ndarray, target_sorted: np.ndarray
) -> np.ndarray:
    """Monotone quantile map of one reference column onto observed
    target values.

    Each distinct reference value is replaced by the target empirical
    quantile at the midpoint of its cumulative-mass range, so the warped
    reference's distribution *shape* matches the target capture's while
    every output is an actually-observed target value (exact-integer K-S
    compatibility). Midpoints strictly increase over distinct values and
    the target is sorted, so the map is non-decreasing with ties
    preserved.
    """
    mask = ~np.isnan(column)
    values = column[mask]
    if values.size == 0 or target_sorted.size == 0:
        return column.copy()
    distinct, inverse = np.unique(values, return_inverse=True)
    counts = np.bincount(inverse).astype(float)
    midpoints = (np.cumsum(counts) - counts / 2.0) / counts.sum()
    idx = np.minimum(
        (midpoints * target_sorted.size).astype(np.int64),
        target_sorted.size - 1,
    )
    warped = column.copy()
    warped[mask] = target_sorted[idx][inverse]
    return warped


def calibrate_model(
    model: EddieModel,
    capture: Union[EmTrace, Signal],
    *,
    frontend: Sequence[FrontendStage] = (),
    variant: str = "",
    max_scale_dev: float = 0.10,
    local_scale_dev: float = 0.02,
    snap_tolerance_bins: float = 0.75,
    quantile_min_windows: int = 24,
    update_sample_rate: bool = True,
) -> CalibrationResult:
    """Adapt ``model`` to the device that produced ``capture``.

    Args:
        model: the trained base model (must not itself be a derivation).
        capture: a short *unlabeled* capture from the target device --
            an :class:`~repro.em.scenario.EmTrace` (its ground truth, if
            any, is ignored) or a raw :class:`~repro.types.Signal`.
        frontend: extra denoise stages applied to the calibration
            capture *before* the model's own configured chain (e.g. an
            SVD denoiser for a harsh target site).
        variant: free-form description of the target, recorded in the
            provenance.
        max_scale_dev: global scale search range (fractional).
        local_scale_dev: per-region refinement range around the global
            scale (fractional).
        snap_tolerance_bins: snap radius in STFT bins of the target
            capture's frequency grid.
        quantile_min_windows: minimum attributed target windows a region
            needs before its reference distributions are quantile-mapped
            onto the target's observed distributions (below it, the
            region keeps the scale+snap warp).
        update_sample_rate: stamp the derived model with the calibration
            capture's exact sample rate, so hop timing and the streaming
            engine's rate check follow the target device.

    Returns:
        A :class:`CalibrationResult`: the derived model (original is
        untouched) and the warp report.
    """
    if model.calibration is not None:
        raise TrainingError(
            "model is already a derivation; calibrate from its base model"
        )
    from repro.cache import fingerprint as cache_fingerprint

    base_fp = cache_fingerprint("eddie-model", model)
    signal = capture.iq if isinstance(capture, EmTrace) else capture
    frontend = tuple(frontend)
    if frontend:
        validate_frontend(frontend)
        signal = apply_frontend(frontend, signal)
    cfg = model.config
    if cfg.frontend:
        signal = apply_frontend(cfg.frontend, signal)

    spectra = stft(signal, cfg.window_samples, cfg.overlap)
    peaks = peak_matrix(
        spectra,
        cfg.energy_fraction,
        cfg.max_peaks,
        cfg.peak_prominence,
        cfg.diffuse_features,
    )
    windows = int(peaks.shape[0])
    target_values, target_weights = _line_table(
        peaks[:, : cfg.max_peaks]
    )
    if target_values.size == 0:
        raise TrainingError(
            "calibration capture yielded no spectral lines; capture "
            "longer or denoise harder"
        )
    if len(spectra.freqs) > 1:
        bin_width = float(spectra.freqs[1] - spectra.freqs[0])
    else:
        bin_width = float(signal.sample_rate / cfg.window_samples)
    tolerance = snap_tolerance_bins * bin_width

    # Pool the model's reference lines (peak dims only: descriptor
    # columns are continuous statistics, not quantized lines).
    base_chunks = []
    for profile in model.profiles.values():
        block = profile.reference[:, : profile.num_peaks]
        base_chunks.append(block[~np.isnan(block)])
    base_values, base_weights = _line_table(
        np.concatenate(base_chunks) if base_chunks else np.empty(0)
    )
    if base_values.size == 0:
        raise TrainingError("model has no reference peak lines to warp")

    freq_scale = _estimate_scale(
        base_values, base_weights, target_values, target_weights,
        max_scale_dev,
    )

    references: Dict[str, np.ndarray] = {}
    region_scales: Dict[str, float] = {}
    for name, profile in model.profiles.items():
        block = profile.reference[:, : profile.num_peaks]
        line_values, line_weights = _line_table(block[~np.isnan(block)])
        region_scale = _refine_region_scale(
            line_values,
            line_weights.astype(float),
            target_values,
            freq_scale,
            local_scale_dev,
            tolerance,
        )
        warped = profile.reference.copy()
        for dim in range(profile.reference.shape[1]):
            # Peak dims snap onto observed target lines; descriptor and
            # unused padding columns scale only (they are continuous
            # statistics, not bin-quantized lines).
            warped[:, dim], _, _ = _warp_column(
                profile.reference[:, dim],
                region_scale,
                target_values,
                tolerance,
                snap=dim < profile.num_peaks,
            )
        references[name] = warped
        region_scales[name] = region_scale

    # Stage 6: unlabeled region matching + per-dim quantile mapping.
    # Reference rows share the peak-matrix column layout, so reference
    # dim d maps onto the attributed target windows' column d.
    target_peaks = peaks[:, : cfg.max_peaks]
    # Score windows against every peak column of the warped reference
    # (not just the num_peaks *tested* dims): a target window carries up
    # to max_peaks finite lines and all of them must find a home for the
    # attribution fraction to clear its threshold.
    region_tables: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name, ref in references.items():
        lines, counts = _line_table(ref[:, : cfg.max_peaks])
        probs = (
            counts / counts.sum() if counts.size else counts.astype(float)
        )
        region_tables[name] = (lines, probs)
    assigned = _attribute_windows(target_peaks, region_tables, tolerance)
    matched_counts: Dict[str, int] = {}
    quantile_counts: Dict[str, int] = {}
    for name, profile in model.profiles.items():
        rows = assigned.get(name, np.empty(0, dtype=np.int64))
        matched_counts[name] = int(rows.size)
        quantile_counts[name] = 0
        if rows.size < quantile_min_windows:
            continue
        region_target = peaks[rows]
        warped = references[name]
        for dim in profile.test_dims:
            if dim >= region_target.shape[1]:
                continue
            dim_values = region_target[:, dim]
            dim_values = dim_values[~np.isnan(dim_values)]
            if dim_values.size < quantile_min_windows:
                continue
            warped[:, dim] = _quantile_map_column(
                warped[:, dim], np.sort(dim_values)
            )
            quantile_counts[name] += 1

    # Score the final warp: a peak observation counts as snapped when
    # its warped value is exactly an observed target line (snap and
    # quantile outputs both are, by construction).
    region_reports = []
    snapped_total = 0
    observations_total = 0
    for name, profile in model.profiles.items():
        block = references[name][:, : profile.num_peaks]
        finite = block[np.isfinite(block)]
        snapped = int(np.isin(finite, target_values).sum())
        total = int(finite.size)
        snapped_total += snapped
        observations_total += total
        region_reports.append(
            RegionCalibration(
                region=name,
                scale=region_scales[name],
                snapped=snapped,
                total=total,
                matched_windows=matched_counts[name],
                quantile_dims=quantile_counts[name],
            )
        )

    snapped_fraction = (
        snapped_total / observations_total if observations_total else 0.0
    )
    method = (
        "scale-snap-qmap"
        if any(quantile_counts.values())
        else "scale-snap"
    )
    info = CalibrationInfo(
        base_fingerprint=base_fp,
        method=method,
        variant=variant,
        freq_scale=float(freq_scale),
        windows=windows,
        snapped_fraction=float(snapped_fraction),
    )
    flags, log_energy = StreamingQuality.from_config(cfg).measure(
        signal.samples
    )
    derived = model.with_calibrated_references(
        references,
        info,
        sample_rate=(
            float(signal.sample_rate) if update_sample_rate else None
        ),
        energy_reference=energy_reference(log_energy[flags == 0]),
    )
    report = CalibrationReport(
        freq_scale=float(freq_scale),
        windows=windows,
        snapped_fraction=float(snapped_fraction),
        regions=tuple(region_reports),
    )
    return CalibrationResult(model=derived, report=report)
