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
so the scalar path (:func:`ks_statistic`) and the monitor's row kernel
(:func:`ks_d_int_rows`) produce bit-identical values -- the monitor's
verdict tables can never flip a rejection decision relative to one test
per set.
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


def ks_d_int_rows(
    reference_sorted: np.ndarray, rows_sorted: np.ndarray
) -> np.ndarray:
    """Exact-integer K-S numerators for many equal-size monitored sets
    against one shared reference, with no per-pair Python.

    ``reference_sorted`` is one pre-sorted 1-D reference of m values;
    ``rows_sorted`` is ``(B, c)`` where every row is one pre-sorted
    monitored set (no NaNs). Returns the ``(B,)`` int64 array of
    ``D_int = max_x |c * count_ref(x) - m * count_mon(x)|`` per row --
    the same integer :func:`_ks_d_int` computes, so
    ``D_int / (m * c)`` is bit-identical to :func:`ks_statistic`.

    Why evaluating only at the monitored values suffices: the sup of the
    ECDF difference is attained at a jump point of either sample. At a
    monitored jump the difference (side='right') is
    ``A_t = |c * r_t - m * rc_t|`` with ``r_t`` the reference's right
    rank of the value and ``rc_t`` the row's right run-end count, and
    its left limit is ``B_t = |c * l_t - m * lc_t]`` with the
    corresponding left ranks/counts. Between two consecutive monitored
    values the monitored count is constant, so over that gap
    ``|c * R - m * C|`` is piecewise linear in the reference count R and
    maximized at the gap's endpoints -- which are exactly the ``A``/``B``
    values above. Every reference-side run end is therefore dominated by
    a monitored-side endpoint, and the per-pair reference scan of
    :func:`_ks_d_int` is unnecessary. (Fuzz-verified against
    ``_ks_d_int`` over tie-heavy inputs in tests/test_fleet_kernel.py.)
    """
    ref = np.asarray(reference_sorted, dtype=float)
    rows = np.asarray(rows_sorted, dtype=float)
    if rows.ndim != 2:
        raise ConfigurationError(
            f"rows_sorted must be 2-D, got shape {rows.shape}"
        )
    b, c = rows.shape
    m = len(ref)
    if b == 0:
        return np.empty(0, dtype=np.int64)
    if m == 0 or c == 0:
        raise ConfigurationError("K-S test requires non-empty samples")
    right = np.searchsorted(ref, rows.ravel(), side="right").reshape(b, c)
    left = np.searchsorted(ref, rows.ravel(), side="left").reshape(b, c)
    idx1 = np.arange(1, c + 1, dtype=np.int64)
    idx0 = np.arange(c, dtype=np.int64)
    if c > 1:
        neq = rows[:, 1:] != rows[:, :-1]
        run_end = np.concatenate([neq, np.ones((b, 1), dtype=bool)], axis=1)
        run_start = np.concatenate([np.ones((b, 1), dtype=bool), neq], axis=1)
    else:
        run_end = np.ones((b, 1), dtype=bool)
        run_start = run_end
    # Right count of each value's run: backward-min of the run-end ranks.
    rc = np.where(run_end, idx1, np.int64(c + 1))
    rc = np.minimum.accumulate(rc[:, ::-1], axis=1)[:, ::-1]
    # Left count (values strictly below): forward-max of run-start indices.
    lc = np.where(run_start, idx0, np.int64(-1))
    lc = np.maximum.accumulate(lc, axis=1)
    d_right = np.abs(c * right - m * rc)
    d_left = np.abs(c * left - m * lc)
    return np.maximum(d_right, d_left).max(axis=1).astype(np.int64)


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
