"""Spectral-peak extraction (Section 4.1 of the paper).

A *peak frequency* is a frequency at which at least ``energy_fraction``
(the paper uses 1%) of the entire window's signal energy is concentrated.
Peaks are reported strongest-first, because EDDIE's statistics compare
windows dimension-by-dimension: one K-S test on the strongest peak's
frequency, another on the second-strongest, and so on (Section 4.2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.stft import SpectrumSequence
from repro.errors import SignalError

__all__ = [
    "extract_peaks",
    "peak_matrix",
    "peak_rows",
    "spectral_descriptors",
    "DEFAULT_ENERGY_FRACTION",
]

DEFAULT_ENERGY_FRACTION = 0.01


def extract_peaks(
    power: np.ndarray,
    freqs: np.ndarray,
    energy_fraction: float = DEFAULT_ENERGY_FRACTION,
    max_peaks: int = 20,
    min_prominence: float = 15.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract the peak frequencies of one spectrum.

    Args:
        power: power spectrum of one window.
        freqs: bin frequencies.
        energy_fraction: minimum share of window energy a bin must hold.
        max_peaks: keep at most this many peaks.
        min_prominence: minimum ratio of a peak bin to the median bin
            power. The paper's 1%-of-energy criterion presupposes fine
            spectral resolution: with few bins, even white noise puts >1%
            of the window's energy into its maximum bin (max of N
            exponentials ~ ln(N) times the mean). The prominence floor is
            the resolution-independent reading of "energy *concentrated*
            at a frequency": a true spectral line towers over the noise
            floor; a noise maximum does not. 0 disables the check.

    Returns:
        (peak_freqs, peak_powers), both sorted by descending power.
    """
    if len(power) != len(freqs):
        raise SignalError(
            f"power has {len(power)} bins but freqs has {len(freqs)}"
        )
    if not 0.0 < energy_fraction < 1.0:
        raise SignalError(f"energy_fraction must be in (0, 1), got {energy_fraction}")
    total = power.sum()
    if total <= 0:
        return np.empty(0), np.empty(0)

    threshold = energy_fraction * total
    if min_prominence > 0:
        floor = min_prominence * float(np.median(power))
        threshold = max(threshold, floor)
    # Local maxima: strictly above at least one neighbour and not below
    # either (plateau edges count once via strict left comparison).
    left = np.empty(len(power))
    right = np.empty(len(power))
    left[0] = -np.inf
    left[1:] = power[:-1]
    right[-1] = -np.inf
    right[:-1] = power[1:]
    is_peak = (power > left) & (power >= right) & (power >= threshold)
    idx = np.nonzero(is_peak)[0]
    if len(idx) == 0:
        return np.empty(0), np.empty(0)

    # Stable sort so ties in power break deterministically (by descending
    # bin index after the reversal) -- the vectorized multi-window path
    # (:func:`peak_rows`) orders ties the same way, keeping the two
    # implementations bit-identical.
    order = np.argsort(power[idx], kind="stable")[::-1][:max_peaks]
    chosen = idx[order]
    return freqs[chosen].copy(), power[chosen].copy()


def spectral_descriptors(power: np.ndarray, freqs: np.ndarray) -> Tuple[float, float]:
    """Diffuse-spectrum descriptors of one window: centroid and bandwidth.

    The paper's accuracy post-mortem (Section 5.2) suggests that "better
    consideration of diffuse spectral features may improve EDDIE's
    accuracy": regions whose energy forms a hump rather than discrete
    peaks still carry *where* the hump sits (the power-weighted centroid)
    and *how wide* it is (the power-weighted spread). Both are frequencies,
    so they drop into the same per-dimension K-S machinery as peaks.
    """
    total = power.sum()
    if total <= 0:
        return (np.nan, np.nan)
    weights = power / total
    centroid = float(np.dot(weights, freqs))
    spread = float(np.sqrt(np.dot(weights, (freqs - centroid) ** 2)))
    return (centroid, spread)


def peak_rows(
    power: np.ndarray,
    freqs: np.ndarray,
    energy_fraction: float = DEFAULT_ENERGY_FRACTION,
    max_peaks: int = 20,
    min_prominence: float = 15.0,
    descriptors: bool = False,
) -> np.ndarray:
    """Peak frequencies of many spectra at once, vectorized.

    ``power`` has shape ``(n_windows, n_bins)``; the rows are independent,
    so this is exactly :func:`extract_peaks` applied per row (and
    :func:`spectral_descriptors` when ``descriptors``), bit-identical to
    the scalar loop -- the fleet kernel calls it on the pooled power
    matrix of a whole session group. The only per-window Python left is
    the descriptor dot products, which stay looped so BLAS batching
    cannot perturb their last-ulp rounding.

    Per-window candidate selection is vectorized end to end: the
    prominence floor takes each row's median with one partition
    (:func:`_row_median`, equal to ``np.median`` bit for bit, NaN rows
    included), the threshold and local-maxima mask is built in place from
    slice comparisons, and the strongest-first ordering is one lexsort
    over all candidate bins keyed ``(window, -power, -bin)`` -- the same
    order ``np.argsort(power[idx], kind='stable')[::-1]`` produces in
    :func:`extract_peaks`, ties included. Rows holding NaN or inf (a
    non-finite sample, with quality gating off) get the peaks
    :func:`extract_peaks` gives them.
    """
    power = np.asarray(power, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if power.ndim != 2:
        raise SignalError(f"power must be 2-D, got shape {power.shape}")
    if power.shape[1] != len(freqs):
        raise SignalError(
            f"power has {power.shape[1]} bins but freqs has {len(freqs)}"
        )
    if not 0.0 < energy_fraction < 1.0:
        raise SignalError(
            f"energy_fraction must be in (0, 1), got {energy_fraction}"
        )
    n_windows, n_bins = power.shape
    width = max_peaks + (2 if descriptors else 0)
    out = np.full((n_windows, width), np.nan)
    if n_windows == 0:
        return out

    totals = power.sum(axis=1)
    scorable = totals > 0
    thresholds = energy_fraction * totals
    if min_prominence > 0:
        floors = min_prominence * _row_median(power)
        thresholds = np.maximum(thresholds, floors)
    is_peak = power >= thresholds[:, None]
    is_peak &= scorable[:, None]
    # Local maxima, in place from slice comparisons. The edge bins skip
    # extract_peaks' -inf neighbour test: it fails only for NaN or -inf
    # bins, which a scorable row's non-negative threshold rejects.
    if n_bins > 1:
        shifted = np.empty((n_windows, n_bins - 1), dtype=bool)
        np.greater(power[:, 1:], power[:, :-1], out=shifted)
        is_peak[:, 1:] &= shifted
        np.greater_equal(power[:, :-1], power[:, 1:], out=shifted)
        is_peak[:, :-1] &= shifted
    win, bins = np.nonzero(is_peak)
    if len(win):
        # Candidates are already grouped by window (nonzero is row-major);
        # order each window's group by descending power, ties by
        # descending bin, in one lexsort over all candidates.
        order = np.lexsort((-bins, -power[win, bins], win))
        win = win[order]
        bins = bins[order]
        # Rank within each window = position minus the window's first slot.
        first = np.zeros(len(win), dtype=np.int64)
        new_window = np.empty(len(win), dtype=bool)
        new_window[0] = True
        new_window[1:] = win[1:] != win[:-1]
        first[new_window] = np.flatnonzero(new_window)
        first = np.maximum.accumulate(first)
        rank = np.arange(len(win), dtype=np.int64) - first
        keep = rank < max_peaks
        out[win[keep], rank[keep]] = freqs[bins[keep]]
    if descriptors:
        for i in range(n_windows):
            out[i, max_peaks:] = spectral_descriptors(power[i], freqs)
    return out


def _row_median(power: np.ndarray) -> np.ndarray:
    """``np.median(power, axis=1)``, bit for bit, at a fraction of its
    cost.

    ``np.median`` also partitions at the last index to find NaN rows,
    which costs several times the partition at the middle. Here one
    partition at the upper middle index finds the median (the lower
    middle, for an even bin count, is the maximum of the part below it,
    and the two average as ``np.mean`` averages them), and a row holding
    a NaN is masked to NaN directly.
    """
    n_bins = power.shape[1]
    half = n_bins // 2
    part = np.partition(power, half, axis=1)
    median = part[:, half].copy()
    if n_bins % 2 == 0:
        median += part[:, :half].max(axis=1)
        median /= 2
    median[np.isnan(power).any(axis=1)] = np.nan
    return median


def peak_matrix(
    spectra: SpectrumSequence,
    energy_fraction: float = DEFAULT_ENERGY_FRACTION,
    max_peaks: int = 20,
    min_prominence: float = 15.0,
    descriptors: bool = False,
) -> np.ndarray:
    """Peak frequencies of every window of a spectrum sequence.

    Returns an array of shape ``(n_windows, max_peaks)`` where row i holds
    window i's peak frequencies sorted strongest-first, NaN-padded when a
    window has fewer peaks (e.g. the paper's peak-less GSM loop). With
    ``descriptors=True`` two extra columns are appended: the spectral
    centroid and bandwidth of each window (see
    :func:`spectral_descriptors`), giving shape
    ``(n_windows, max_peaks + 2)``. Delegates to the vectorized
    :func:`peak_rows`.
    """
    return peak_rows(
        spectra.power, spectra.freqs, energy_fraction, max_peaks,
        min_prominence, descriptors,
    )
