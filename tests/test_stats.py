"""Unit tests for repro.core.stats, validated against scipy as the oracle."""

import numpy as np
import pytest
import scipy.stats

from repro.core.stats.anova import n_way_anova
from repro.core.stats.empirical import ecdf, ecdf_values
from repro.core.stats.ks import (
    KsResult,
    kolmogorov_sf,
    ks_2samp,
    ks_critical_value,
    ks_statistic,
)
from repro.core.stats.utest import mann_whitney_u
from repro.errors import ConfigurationError


class TestEcdf:
    def test_basic_steps(self):
        F = ecdf(np.array([1.0, 2.0, 3.0]))
        assert F(0.5) == 0.0
        assert F(1.0) == pytest.approx(1 / 3)
        assert F(2.5) == pytest.approx(2 / 3)
        assert F(3.0) == 1.0

    def test_vectorized(self):
        F = ecdf(np.array([1.0, 2.0]))
        np.testing.assert_allclose(F(np.array([0.0, 1.5, 5.0])), [0.0, 0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ecdf(np.array([]))

    def test_ecdf_values_matches_callable(self):
        data = np.array([3.0, 1.0, 2.0])
        F = ecdf(data)
        at = np.array([0.5, 1.5, 2.5, 3.5])
        np.testing.assert_allclose(ecdf_values(np.sort(data), at), F(at))


class TestKolmogorovDistribution:
    def test_sf_bounds(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(5.0) < 1e-15

    def test_sf_matches_scipy(self):
        for x in (0.5, 0.8, 1.0, 1.36, 1.63, 2.0):
            assert kolmogorov_sf(x) == pytest.approx(
                scipy.stats.kstwobign.sf(x), abs=1e-9
            )

    def test_critical_value_textbook(self):
        # c(0.05) ~ 1.358, c(0.01) ~ 1.628 (classic K-S table values).
        assert ks_critical_value(100, 100, 0.05) == pytest.approx(
            1.358 * np.sqrt(2 / 100), abs=0.01
        )
        assert ks_critical_value(100, 100, 0.01) == pytest.approx(
            1.628 * np.sqrt(2 / 100), abs=0.01
        )

    def test_critical_value_validations(self):
        with pytest.raises(ConfigurationError):
            ks_critical_value(0, 10)


class TestKs2Samp:
    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 200)
        y = rng.normal(0.3, 1.2, 150)
        ours = ks_2samp(x, y)
        theirs = scipy.stats.ks_2samp(x, y, method="asymp")
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)
        # scipy's 'asymp' applies a small-sample correction; our p-value is
        # the textbook Kolmogorov asymptotic the paper specifies, so match
        # kstwobign exactly and scipy loosely.
        en = np.sqrt(len(x) * len(y) / (len(x) + len(y)))
        assert ours.pvalue == pytest.approx(
            scipy.stats.kstwobign.sf(ours.statistic * en), abs=1e-9
        )
        assert ours.pvalue == pytest.approx(theirs.pvalue, rel=0.15)

    def test_identical_samples(self):
        x = np.arange(50, dtype=float)
        result = ks_2samp(x, x)
        assert result.statistic == 0.0
        assert result.pvalue == 1.0
        assert not result.reject(0.01)

    def test_disjoint_samples_reject(self):
        x = np.arange(0, 100, dtype=float)
        y = np.arange(1000, 1100, dtype=float)
        result = ks_2samp(x, y)
        assert result.statistic == 1.0
        assert result.reject(0.01)

    def test_same_distribution_rarely_rejects(self):
        rng = np.random.default_rng(1)
        rejections = 0
        trials = 200
        for _ in range(trials):
            x = rng.normal(0, 1, 120)
            y = rng.normal(0, 1, 60)
            if ks_2samp(x, y).reject(0.05):
                rejections += 1
        # At alpha=0.05, expect ~5% (the asymptotic test is conservative).
        assert rejections / trials < 0.08

    def test_ks_statistic_requires_nonempty(self):
        with pytest.raises(ConfigurationError):
            ks_statistic(np.array([]), np.array([1.0]))

    def test_presorted_fast_path_agrees(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 80)
        y = rng.uniform(0, 1, 40)
        d_fast = ks_statistic(np.sort(x), y)
        d_full = ks_2samp(x, y).statistic
        assert d_fast == pytest.approx(d_full, abs=1e-15)

    def test_discrete_data_with_ties(self):
        """Peak frequencies are bin-quantized; ties must be handled."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, 10, 100).astype(float)
        y = rng.integers(0, 10, 100).astype(float)
        ours = ks_2samp(x, y)
        theirs = scipy.stats.ks_2samp(x, y, method="asymp")
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)


class TestMannWhitney:
    def test_matches_scipy_continuous(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 80)
        y = rng.normal(0.5, 1, 90)
        ours = mann_whitney_u(x, y)
        theirs = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                          method="asymptotic")
        assert ours.statistic == theirs.statistic
        assert ours.pvalue == theirs.pvalue

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 6, 60).astype(float)
        y = rng.integers(1, 7, 70).astype(float)
        ours = mann_whitney_u(x, y)
        theirs = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                          method="asymptotic")
        assert ours.pvalue == theirs.pvalue

    def test_identical_constant_samples(self):
        x = np.ones(20)
        result = mann_whitney_u(x, x)
        assert result.pvalue == 1.0

    def test_clear_shift_rejects(self):
        x = np.arange(50, dtype=float)
        y = np.arange(100, 150, dtype=float)
        assert mann_whitney_u(x, y).reject(0.01)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mann_whitney_u(np.array([]), np.array([1.0]))


class TestAnova:
    def test_one_way_matches_scipy(self):
        rng = np.random.default_rng(0)
        groups = [rng.normal(mu, 1, 30) for mu in (0.0, 0.5, 1.0)]
        y = np.concatenate(groups)
        labels = np.repeat(["a", "b", "c"], 30)
        ours = n_way_anova({"g": labels}, y)
        theirs = scipy.stats.f_oneway(*groups)
        effect = ours.effects["g"]
        assert effect.f_stat == pytest.approx(theirs.statistic, rel=1e-9)
        # The F statistics differ in the last bits (different sums of
        # squares), so the p-value is held exactly to scipy.stats' F tail
        # at this module's own statistic.
        assert effect.pvalue == scipy.stats.f.sf(
            effect.f_stat, effect.df, ours.df_residual
        )

    def test_two_way_balanced(self):
        rng = np.random.default_rng(1)
        rows = []
        a_labels, b_labels = [], []
        for a in (0.0, 2.0):
            for b in (0.0, 0.0):  # factor b has no effect
                for _ in range(25):
                    rows.append(a + rng.normal(0, 1))
                    a_labels.append(f"a{a}")
                    b_labels.append(f"b{len(b_labels) % 2}")
        result = n_way_anova({"a": a_labels, "b": b_labels}, rows)
        assert result.effects["a"].significant(0.01)
        assert not result.effects["b"].significant(0.05)
        assert result.significant_factors(0.01) == ["a"]

    def test_constant_factor_zero_df(self):
        y = np.random.default_rng(0).normal(0, 1, 20)
        result = n_way_anova({"c": ["x"] * 20}, y)
        assert result.effects["c"].df == 0
        assert result.effects["c"].pvalue == 1.0

    def test_label_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            n_way_anova({"a": ["x", "y"]}, [1.0, 2.0, 3.0])

    def test_too_few_observations(self):
        with pytest.raises(ConfigurationError):
            n_way_anova({"a": ["x", "y"]}, [1.0, 2.0])

    def test_ss_decomposition(self):
        rng = np.random.default_rng(2)
        labels = np.repeat(["a", "b"], 40)
        y = rng.normal(0, 1, 80) + (labels == "b") * 1.5
        result = n_way_anova({"g": labels}, y)
        assert result.ss_total == pytest.approx(
            result.effects["g"].ss + result.ss_residual
        )
