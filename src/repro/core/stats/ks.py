"""Two-sample Kolmogorov-Smirnov test (Section 4.2 of the paper).

Given a reference set of m observations with ECDF R(x) and a monitored set
of n observations with ECDF M(x), the statistic is
``D = max_x |R(x) - M(x)|``. The null hypothesis (both sets drawn from the
same population) is rejected at significance alpha when
``D > c(alpha) * sqrt((m + n) / (m * n))``, where c(alpha) is the inverse
of the Kolmogorov distribution's survival function.

This is exactly the formulation in the paper; the p-value uses the same
asymptotic Kolmogorov distribution.

Numerics note: the D statistic is computed in exact integer arithmetic
(``|n * count_ref - m * count_mon|`` divided by ``m * n`` once at the end),
so the scalar path (:func:`ks_statistic`) and the vectorized kernels
produce bit-identical values -- the monitor's verdict tables can never
flip a rejection decision relative to one test per set. The vectorized
kernels work on rank keys (:func:`rank_keys`): each monitored value's
left and right rank in the reference, packed into one int64. The
monitor ranks every value of its monitored streams once and sorts each
window's keys (DESIGN.md D37); :func:`ks_d_int_rows` ranks pre-sorted
rows of values. Both score the keys with :func:`ks_d_int_keys`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "KsResult",
    "ks_2samp",
    "ks_statistic",
    "ks_d_int_rows",
    "ks_d_int_keys",
    "rank_keys",
    "NAN_KEY",
    "ks_critical_value",
    "kolmogorov_sf",
    "sorted_run_ends",
]


def sorted_run_ends(sample_sorted: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(cumulative counts, values) at the equal-value run ends of a sorted sample.

    ``counts[j]`` is how many elements are <= the j-th distinct value;
    ``values[j]`` is that value. Reference sets are fixed per region, so
    the monitor precomputes this once per dimension instead of on every
    K-S call.
    """
    k = len(sample_sorted)
    end = np.empty(k, dtype=bool)
    end[:-1] = sample_sorted[1:] != sample_sorted[:-1]
    end[-1] = True
    counts = np.flatnonzero(end) + 1
    return counts, sample_sorted[counts - 1]


@dataclass(frozen=True)
class KsResult:
    """Outcome of one two-sample K-S test."""

    statistic: float
    pvalue: float
    m: int
    n: int

    def reject(self, alpha: float = 0.01) -> bool:
        """Whether H0 (same population) is rejected at significance alpha."""
        return self.statistic > ks_critical_value(self.m, self.n, alpha)


def _ks_d_int(
    ref: np.ndarray,
    mon: np.ndarray,
    m: int,
    n: int,
    ref_runs: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> int:
    """max |n*count_ref(x) - m*count_mon(x)| over all jump points.

    Both inputs must be sorted. The ECDF difference only changes at jump
    points, and within a run of tied values it is only defined once the
    whole run is consumed (side='right' semantics), so it suffices to
    evaluate at the *last* element of each equal-value run of either
    sample -- two small searchsorted calls instead of one over the merged
    arrays. ``ref_runs`` may carry the reference side's precomputed
    :func:`sorted_run_ends` (it is fixed per region). Exact integer
    arithmetic: dividing by m*n once at the end keeps the scalar path
    bit-identical to :func:`ks_d_int_rows`.
    """
    if ref_runs is None:
        ref_runs = sorted_run_ends(ref)
    ref_counts, ref_ends = ref_runs
    mon_counts, mon_ends = sorted_run_ends(mon)
    mon_at_ref = np.searchsorted(mon, ref_ends, side="right")
    ref_at_mon = np.searchsorted(ref, mon_ends, side="right")
    d_ref = int(np.abs(n * ref_counts - m * mon_at_ref).max())
    d_mon = int(np.abs(n * ref_at_mon - m * mon_counts).max())
    return max(d_ref, d_mon)


#: The rank key of a NaN -- a monitored set's padding past its count of
#: real values: above every real value's key, so a sorted set of keys
#: holds its real values first.
NAN_KEY = np.iinfo(np.int64).max


def rank_keys(reference_sorted: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's two ranks in a sorted reference, packed into one
    int64 key: ``left << 32 | right``.

    ``left`` counts the reference values below the value and ``right``
    those at or below it; a NaN gets :data:`NAN_KEY`. Both ranks are
    monotone in the value, so the keys of a sorted set are sorted, and
    sorting a set's keys sorts it as its values would sort. Two distinct
    values share a key only when no reference value lies between them
    (:func:`ks_d_int_keys` relies on nothing more).
    """
    keys = np.searchsorted(reference_sorted, values, side="left").astype(
        np.int64, copy=False
    )
    keys <<= 32
    keys |= np.searchsorted(reference_sorted, values, side="right")
    np.putmask(keys, np.isnan(values), NAN_KEY)
    return keys


def ks_d_int_keys(
    keys_sorted: np.ndarray, counts: np.ndarray, m
) -> np.ndarray:
    """Exact-integer K-S numerators of monitored sets given as rank keys.

    ``keys_sorted`` is ``(..., g)``: each set's :func:`rank_keys`
    against one reference of ``m`` values, sorted along the last axis,
    its ``counts`` (``(...)``, each in ``1..g``) real values first and
    :data:`NAN_KEY` after them. ``m`` is an int or an array that
    broadcasts against ``counts`` (one reference size per set). Returns
    the ``(...)`` int64 ``D_int = max_x |c * count_ref(x) - m *
    count_mon(x)|`` per set -- the integer :func:`_ks_d_int` computes,
    so ``D_int / (m * c)`` is bit-identical to :func:`ks_statistic`.

    Why evaluating only at the monitored values suffices: the sup of
    the ECDF difference is attained at a jump point of either sample.
    At a monitored value the difference (side='right') is ``A_t = |c *
    r_t - m * rc_t|``, with ``r_t`` the reference's right rank of the
    value and ``rc_t`` the set's count up to the end of its run, and the
    left limit is ``B_t = |c * l_t - m * lc_t|``, with the left rank and
    the count before the run; in a sorted set those counts are the run's
    last position plus one and its first position. Between two
    consecutive monitored values the monitored count is constant, so
    over that gap ``|c * R - m * C|`` is piecewise linear in the
    reference count R and maximized at the gap's endpoints -- exactly
    the ``A``/``B`` values above. Every reference-side run end is
    therefore dominated by a monitored-side endpoint.

    Why runs of equal keys may stand for runs of equal values: two
    distinct values share a key only when no reference value lies
    between them, so across their merged run the reference count is
    constant and ``|c * R - m * C|`` is convex in the monitored count
    C; its maximum over the run is at the run's two ends, which the
    merged run evaluates. (Fuzz-verified against ``_ks_d_int`` over
    tie-heavy inputs in tests/test_fleet_kernel.py.)
    """
    g = keys_sorted.shape[-1]
    pos = np.arange(g, dtype=np.int64)
    c = np.asarray(counts, dtype=np.int64)[..., None]
    m = np.asarray(m, dtype=np.int64)[..., None]
    # A run of equal keys is evaluated at its last position t, where the
    # set's count up to the run's end is t + 1 (the right-rank side),
    # and at its first position t, where the count before the run is t
    # (the left-rank side); its other positions repeat those two values
    # of R with counts in between, which convexity dominates. The
    # padding past each set's count takes no part.
    end = np.empty(keys_sorted.shape, dtype=bool)
    np.not_equal(keys_sorted[..., 1:], keys_sorted[..., :-1],
                 out=end[..., :-1])
    end[..., -1] = True
    start = np.empty(keys_sorted.shape, dtype=bool)
    start[..., 0] = True
    start[..., 1:] = end[..., :-1]
    real = pos < c
    end &= real
    start &= real
    d = c * (keys_sorted & 0xFFFFFFFF)
    d -= m * (pos + 1)
    np.abs(d, out=d)
    d *= end
    d_left = c * (keys_sorted >> 32)
    d_left -= m * pos
    np.abs(d_left, out=d_left)
    d_left *= start
    np.maximum(d, d_left, out=d)
    return d.max(axis=-1)


def ks_d_int_rows(
    reference_sorted: np.ndarray,
    rows_sorted: np.ndarray,
    counts: "np.ndarray | None" = None,
) -> np.ndarray:
    """Exact-integer K-S numerators for many monitored sets against one
    shared reference, with no per-pair Python.

    ``reference_sorted`` is one pre-sorted 1-D reference of m values;
    ``rows_sorted`` is ``(B, g)`` where every row is one pre-sorted
    monitored set. Without ``counts`` every row is a set of ``g`` real
    values; with it, row ``b`` holds ``counts[b]`` real values (``1..g``)
    and NaN after them. Returns the ``(B,)`` int64 array of ``D_int``
    per row, the same integer :func:`_ks_d_int` computes, so ``D_int /
    (m * c)`` is bit-identical to :func:`ks_statistic`. The rows are
    ranked (:func:`rank_keys`) and scored by :func:`ks_d_int_keys`.
    """
    ref = np.asarray(reference_sorted, dtype=float)
    rows = np.asarray(rows_sorted, dtype=float)
    if rows.ndim != 2:
        raise ConfigurationError(
            f"rows_sorted must be 2-D, got shape {rows.shape}"
        )
    b, g = rows.shape
    m = len(ref)
    if b == 0:
        return np.empty(0, dtype=np.int64)
    if m == 0 or g == 0:
        raise ConfigurationError("K-S test requires non-empty samples")
    if counts is None:
        counts = np.full(b, g, dtype=np.int64)
    return ks_d_int_keys(rank_keys(ref, rows), counts, m)


def ks_statistic(
    reference_sorted: np.ndarray,
    monitored: np.ndarray,
    ref_runs: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> float:
    """The K-S D statistic; ``reference_sorted`` must be pre-sorted.

    The monitor's per-window callers (the peak-less switch and resync
    reacquisition) test against fixed references, so it avoids
    re-sorting the reference set on every call. ``monitored`` may arrive
    in any order
    (sorting an already-sorted monitored group is cheap). ``ref_runs``
    may carry the reference's precomputed :func:`sorted_run_ends`.
    """
    reference_sorted = np.asarray(reference_sorted, dtype=float)
    mon_sorted = np.sort(np.asarray(monitored, dtype=float))
    m, n = len(reference_sorted), len(mon_sorted)
    if m == 0 or n == 0:
        raise ConfigurationError("K-S test requires non-empty samples")
    return _ks_d_int(reference_sorted, mon_sorted, m, n, ref_runs) / (m * n)


def ks_2samp(reference: np.ndarray, monitored: np.ndarray) -> KsResult:
    """Two-sample K-S test with the asymptotic Kolmogorov p-value."""
    ref_sorted = np.sort(np.asarray(reference, dtype=float))
    statistic = ks_statistic(ref_sorted, monitored)
    m, n = len(ref_sorted), len(monitored)
    effective = np.sqrt(m * n / (m + n))
    pvalue = float(kolmogorov_sf(statistic * effective))
    return KsResult(statistic=statistic, pvalue=pvalue, m=m, n=n)


def kolmogorov_sf(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Survival function of the Kolmogorov distribution.

    Q(x) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2); Q(0) = 1.

    Accepts a scalar or an array; the alternating series is evaluated as
    one vectorized cumulative sum over the first 100 terms (terms beyond
    the old scalar loop's 1e-16 early-exit underflow to zero and change
    nothing).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xs = np.atleast_1d(arr)
    out = np.ones_like(xs)
    # Q(0.18) differs from 1 by ~1e-30, but the alternating series
    # converges slowly there; return the limit directly.
    big = xs > 0.18
    if big.any():
        xb = xs[big]
        k = np.arange(1, 101, dtype=float)
        signs = np.where(np.arange(100) % 2 == 0, 1.0, -1.0)
        with np.errstate(under="ignore"):
            terms = signs * np.exp(-2.0 * np.outer(xb * xb, k * k))
        totals = 2.0 * np.cumsum(terms, axis=1)[:, -1]
        out[big] = np.clip(totals, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out


@lru_cache(maxsize=1024)
def _kolmogorov_isf(alpha: float) -> float:
    """c(alpha): the x with Q(x) = alpha, by bisection."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = 1e-6, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=8192)
def ks_critical_value(m: int, n: int, alpha: float = 0.01) -> float:
    """D_{m,n,alpha} = c(alpha) * sqrt((m + n) / (m * n)) (paper, Sec. 4.2).

    Cached: the monitor evaluates the same (m, n, alpha) triples on every
    STS, so the square root and the bisection behind c(alpha) are paid
    once.
    """
    if m <= 0 or n <= 0:
        raise ConfigurationError("sample sizes must be positive")
    return _kolmogorov_isf(alpha) * np.sqrt((m + n) / (m * n))
