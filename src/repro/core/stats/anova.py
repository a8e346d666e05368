"""N-way fixed-effects ANOVA (main effects), for the Section 5.3 study.

The paper simulates 51 core configurations and uses N-way analysis of
variance to decide which architectural parameters (kind, issue width,
pipeline depth, ROB size) significantly affect EDDIE's detection latency.
This module implements a main-effects ANOVA: each factor's sum of squares
is computed from its level means, the residual absorbs everything else,
and each factor gets an F statistic and p-value.

For unbalanced designs this is a Type-I-style decomposition with the
factors treated independently (no interactions), which is the standard
reading of the paper's use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FactorEffect", "AnovaResult", "n_way_anova"]


@dataclass(frozen=True)
class FactorEffect:
    """One factor's row of the ANOVA table."""

    name: str
    ss: float
    df: int
    f_stat: float
    pvalue: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha


@dataclass(frozen=True)
class AnovaResult:
    """Full main-effects ANOVA table."""

    effects: Dict[str, FactorEffect]
    ss_residual: float
    df_residual: int
    ss_total: float

    def significant_factors(self, alpha: float = 0.05) -> Sequence[str]:
        return [name for name, eff in self.effects.items() if eff.significant(alpha)]


def n_way_anova(
    factors: Mapping[str, Sequence], response: Sequence[float]
) -> AnovaResult:
    """Main-effects N-way ANOVA of ``response`` against ``factors``.

    Args:
        factors: mapping from factor name to a sequence of level labels,
            one per observation.
        response: the measured values.
    """
    y = np.asarray(response, dtype=float)
    n_obs = len(y)
    if n_obs < 3:
        raise ConfigurationError("ANOVA needs at least 3 observations")
    if not factors:
        raise ConfigurationError("ANOVA needs at least one factor")

    grand_mean = y.mean()
    ss_total = float(((y - grand_mean) ** 2).sum())

    factor_ss: Dict[str, float] = {}
    factor_df: Dict[str, int] = {}
    for name, labels in factors.items():
        labels = np.asarray(labels)
        if len(labels) != n_obs:
            raise ConfigurationError(
                f"factor {name!r} has {len(labels)} labels for {n_obs} observations"
            )
        levels = np.unique(labels)
        if len(levels) < 2:
            # A constant factor explains nothing; keep it with zero df so
            # callers see it in the table.
            factor_ss[name] = 0.0
            factor_df[name] = 0
            continue
        ss = 0.0
        for level in levels:
            group = y[labels == level]
            ss += len(group) * (group.mean() - grand_mean) ** 2
        factor_ss[name] = float(ss)
        factor_df[name] = len(levels) - 1

    df_model = sum(factor_df.values())
    df_residual = n_obs - 1 - df_model
    if df_residual <= 0:
        raise ConfigurationError(
            f"not enough residual degrees of freedom "
            f"({n_obs} observations, model df {df_model})"
        )
    ss_residual = max(0.0, ss_total - sum(factor_ss.values()))
    ms_residual = ss_residual / df_residual

    # fdtrc(d1, d2, x) is scipy.stats.f.sf(x, d1, d2) bit for bit;
    # scipy.special is imported here so importing this module does not
    # load it.
    from scipy.special import fdtrc

    effects: Dict[str, FactorEffect] = {}
    for name in factors:
        df = factor_df[name]
        if df == 0 or ms_residual == 0:
            effects[name] = FactorEffect(name, factor_ss[name], df, 0.0, 1.0)
            continue
        ms = factor_ss[name] / df
        f_stat = ms / ms_residual
        pvalue = float(fdtrc(df, df_residual, f_stat))
        effects[name] = FactorEffect(name, factor_ss[name], df, f_stat, pvalue)

    return AnovaResult(
        effects=effects,
        ss_residual=ss_residual,
        df_residual=df_residual,
        ss_total=ss_total,
    )
