"""Wilcoxon-Mann-Whitney U test (normal approximation with tie correction).

The paper compares the U-test with the K-S test and finds K-S performs
better for EDDIE (the U-test only senses median shifts, while injected
execution often changes the *shape* of the peak-frequency distribution).
Both are provided so the comparison can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["UTestResult", "mann_whitney_u"]


@dataclass(frozen=True)
class UTestResult:
    """Outcome of one two-sided Mann-Whitney U test."""

    statistic: float  # U of the first sample
    pvalue: float
    m: int
    n: int

    def reject(self, alpha: float = 0.01) -> bool:
        return self.pvalue < alpha


def mann_whitney_u(x: np.ndarray, y: np.ndarray) -> UTestResult:
    """Two-sided Mann-Whitney U test via the normal approximation.

    Uses midranks for ties and the standard tie-corrected variance. The
    approximation is accurate for the sample sizes EDDIE uses (tens to
    hundreds per group).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = len(x), len(y)
    if m == 0 or n == 0:
        raise ConfigurationError("U test requires non-empty samples")

    combined = np.concatenate([x, y])
    ranks = _midranks(combined)
    rank_sum_x = ranks[:m].sum()
    u_x = rank_sum_x - m * (m + 1) / 2.0

    mean_u = m * n / 2.0
    total = m + n
    _, counts = np.unique(combined, return_counts=True)
    tie_term = np.sum(counts**3 - counts)
    var_u = m * n / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if var_u <= 0:
        # All values identical: no evidence of difference.
        return UTestResult(statistic=float(u_x), pvalue=1.0, m=m, n=n)

    # ndtr(-z) is scipy.stats.norm.sf(z) bit for bit; scipy.special is
    # imported here so importing this module does not load it.
    from scipy.special import ndtr

    z = (u_x - mean_u - 0.5 * np.sign(u_x - mean_u)) / np.sqrt(var_u)
    pvalue = float(2.0 * ndtr(-abs(z)))
    return UTestResult(statistic=float(u_x), pvalue=min(1.0, pvalue), m=m, n=n)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties assigned their average rank."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
