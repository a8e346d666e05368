"""A small 1-D Gaussian mixture model fitted with EM.

Used by the Figure-2 reproduction: the paper fits a bi-normal (two
Gaussian components) distribution to the strongest-peak frequencies of one
Susan loop nest and shows the fit differs enough from the empirical
distribution that a parametric test would produce unavoidable false
positives and false negatives -- the motivation for EDDIE's nonparametric
K-S test. scipy.stats is imported by the functions that use it, so
importing :mod:`repro.core.stats` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["GaussianMixture1D", "fit_gmm"]


@dataclass(frozen=True)
class GaussianMixture1D:
    """A fitted 1-D Gaussian mixture."""

    weights: Tuple[float, ...]
    means: Tuple[float, ...]
    stds: Tuple[float, ...]
    log_likelihood: float

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        from scipy.stats import norm

        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for w, mu, sd in zip(self.weights, self.means, self.stds):
            total += w * norm.pdf(x, mu, sd)
        return total

    def cdf(self, x: np.ndarray) -> np.ndarray:
        from scipy.stats import norm

        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for w, mu, sd in zip(self.weights, self.means, self.stds):
            total += w * norm.cdf(x, mu, sd)
        return total

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        component = rng.choice(self.n_components, size=n, p=self.weights)
        means = np.asarray(self.means)[component]
        stds = np.asarray(self.stds)[component]
        return rng.normal(means, stds)

    def within_k_sigma(self, x: np.ndarray, k: float = 3.0) -> np.ndarray:
        """Whether each x lies within k sigma of ANY component.

        This is the acceptance region of the naive parametric test in the
        paper's Figure 2 (the +-3 sigma band of the fitted distribution).
        """
        x = np.asarray(x, dtype=float)
        accept = np.zeros(len(x), dtype=bool)
        for mu, sd in zip(self.means, self.stds):
            accept |= np.abs(x - mu) <= k * sd
        return accept


def fit_gmm(
    data: np.ndarray,
    n_components: int = 2,
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
) -> GaussianMixture1D:
    """Fit a 1-D Gaussian mixture by expectation-maximization."""
    from scipy.stats import norm

    x = np.asarray(data, dtype=float)
    x = x[~np.isnan(x)]
    if len(x) < 2 * n_components:
        raise ConfigurationError(
            f"need at least {2 * n_components} points to fit {n_components} "
            f"components, got {len(x)}"
        )
    rng = np.random.default_rng(seed)

    # Initialize from quantiles (robust for well-separated modes).
    quantiles = np.linspace(0, 1, n_components + 2)[1:-1]
    means = np.quantile(x, quantiles)
    spread = max(x.std() / n_components, 1e-12)
    stds = np.full(n_components, spread)
    weights = np.full(n_components, 1.0 / n_components)

    log_likelihood = -np.inf
    for _ in range(max_iter):
        # E step: responsibilities.
        densities = np.stack(
            [w * norm.pdf(x, mu, max(sd, 1e-12))
             for w, mu, sd in zip(weights, means, stds)]
        )
        totals = densities.sum(axis=0)
        totals = np.maximum(totals, 1e-300)
        resp = densities / totals

        new_ll = float(np.log(totals).sum())

        # M step.
        counts = resp.sum(axis=1)
        counts = np.maximum(counts, 1e-12)
        weights = counts / len(x)
        means = (resp @ x) / counts
        variances = (resp @ (x**2)) / counts - means**2
        stds = np.sqrt(np.maximum(variances, 1e-18))

        if abs(new_ll - log_likelihood) < tol * (abs(log_likelihood) + 1):
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    order = np.argsort(means)
    return GaussianMixture1D(
        weights=tuple(float(w) for w in weights[order]),
        means=tuple(float(m) for m in means[order]),
        stds=tuple(float(s) for s in stds[order]),
        log_likelihood=log_likelihood,
    )
