"""Statistical tests used by EDDIE (own implementations, scipy-validated).

The paper's detector is built on the two-sample Kolmogorov-Smirnov test
(:mod:`repro.core.stats.ks`); the Wilcoxon-Mann-Whitney U test
(:mod:`repro.core.stats.utest`) is implemented as well because the authors
compared both and chose K-S. The N-way ANOVA of the Section 5.3
architecture-sensitivity study lives in :mod:`repro.core.stats.anova`.
"""

import numpy as np

from repro.core.stats.anova import AnovaResult, n_way_anova
from repro.core.stats.empirical import ecdf
from repro.core.stats.ks import (
    KsResult,
    kolmogorov_sf,
    ks_2samp,
    ks_critical_value,
    ks_d_int_rows,
    ks_statistic,
    sorted_run_ends,
)
from repro.core.stats.utest import UTestResult, mann_whitney_u
from repro.errors import ConfigurationError

__all__ = [
    "ks_2samp",
    "ks_critical_value",
    "ks_d_int_rows",
    "kolmogorov_sf",
    "KsResult",
    "mann_whitney_u",
    "UTestResult",
    "n_way_anova",
    "AnovaResult",
    "ecdf",
    "sorted_run_ends",
    "two_sample_reject",
]


def two_sample_reject(
    reference_sorted: np.ndarray,
    monitored: np.ndarray,
    alpha: float,
    method: str = "ks",
    ref_runs=None,
) -> bool:
    """Whether a two-sample test rejects H0 (same population).

    ``method`` selects the paper's two candidates: ``'ks'`` (the
    Kolmogorov-Smirnov test EDDIE settled on) or ``'utest'`` (the
    Wilcoxon-Mann-Whitney test it was compared against). The reference
    sample must be pre-sorted (the monitor's hot path); ``ref_runs`` may
    carry its precomputed :func:`~repro.core.stats.ks.sorted_run_ends`
    (only used by the K-S method).
    """
    if method == "ks":
        d_stat = ks_statistic(reference_sorted, monitored, ref_runs)
        return d_stat > ks_critical_value(
            len(reference_sorted), len(monitored), alpha
        )
    if method == "utest":
        return mann_whitney_u(reference_sorted, monitored).reject(alpha)
    raise ConfigurationError(f"unknown statistical test {method!r}")
