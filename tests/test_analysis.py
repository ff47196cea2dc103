"""Statistics: summaries, correlations with oracles, trends, robustness."""

from __future__ import annotations

import io
import math
from datetime import datetime

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import rankdata

from litmetrics.analysis import (
    _average_ranks,
    _p_from_t_transform,
    correlations,
    descriptive_stats,
    gaussian_smooth,
    synonym_robustness,
    trend_rows,
    write_csv,
    yearly_feature_trend,
)
from litmetrics.errors import ConstantInput, EmptyInput, LengthMismatch
from litmetrics.indicators import citation_histograms, kl_divergence
from litmetrics.retrieval import TopicContext
from litmetrics.snapshot import FeatureVector


def brute_force_correlations(x: list[float], y: list[float]) -> tuple[float, float, float, float]:
    """Independent oracle: counting-based ranks, explicit covariance sums,
    p-values from the regularized incomplete beta via mpmath."""
    n = len(x)

    def ranks(v: list[float]) -> list[float]:
        out = []
        for a in v:
            less = sum(1 for b in v if b < a)
            equal = sum(1 for b in v if b == a)
            # average rank of a tie block starting after `less` items
            out.append(less + (equal + 1) / 2)
        return out

    def corr(u: list[float], w: list[float]) -> float:
        mu = sum(u) / n
        mw = sum(w) / n
        cov = sum((a - mu) * (b - mw) for a, b in zip(u, w))
        vu = sum((a - mu) ** 2 for a in u)
        vw = sum((b - mw) ** 2 for b in w)
        return cov / math.sqrt(vu * vw)

    r = corr(x, y)
    rho = corr(ranks(x), ranks(y))
    return r, oracle_p_value(r, n), rho, oracle_p_value(rho, n)


def oracle_p_value(r: float, n: int) -> float:
    """Two-sided t-transform p-value from mpmath's regularized incomplete beta."""
    if abs(r) >= 1.0:
        return 0.0
    t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
    nu = n - 2
    xx = nu / (nu + t * t)
    return float(mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, xx, regularized=True))


FINITE = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0]))
INTS = st.integers(-(2**70), 2**70)


def even_lists(elements):
    return st.lists(st.tuples(elements, elements), min_size=1, max_size=20).map(
        lambda pairs: [v for pair in pairs for v in pair])


class TestDescriptiveStats:
    def test_hand_example(self):
        s = descriptive_stats([1, 2, 2, 9])
        assert (s.max, s.min, s.mean, s.median, s.mode) == (9, 1, 3.5, 2, 2)

    def test_singleton(self):
        s = descriptive_stats([5])
        assert (s.max, s.min, s.mean, s.median, s.mode) == (5, 5, 5, 5, 5)

    def test_mode_tie_breaks_to_smallest(self):
        assert descriptive_stats([1, 1, 2, 2]).mode == 1

    def test_empty(self):
        with pytest.raises(EmptyInput):
            descriptive_stats([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_mean_median_within_range(self, values):
        s = descriptive_stats(values)
        assert s.min <= s.mean <= s.max
        assert s.min <= s.median <= s.max

    @given(st.one_of(
        st.lists(FINITE, min_size=1, max_size=40),
        st.lists(INTS, min_size=1, max_size=40),
        even_lists(FINITE),
        even_lists(INTS),
    ))
    def test_median_is_numpys(self, values):
        expected = float(np.median(np.asarray(values, dtype=np.float64)))
        assert descriptive_stats(values).median.hex() == expected.hex()


class TestCorrelations:
    def test_perfect_linear(self):
        x = list(range(1, 11))
        y = [2 * v + 1 for v in x]
        res = correlations(x, y)
        assert res.pearson_r == 1.0
        assert res.spearman_rho == 1.0
        assert res.pearson_p == 0.0

    def test_perfect_inverse(self):
        x = list(range(1, 11))
        res = correlations(x, list(reversed(x)))
        assert res.pearson_r == -1.0
        assert res.spearman_rho == -1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = list(rng.normal(size=8))
            y = list(rng.normal(size=8))
            res = correlations(x, y)
            r, pr, rho, prho = brute_force_correlations(x, y)
            assert res.pearson_r == pytest.approx(r, abs=1e-12)
            assert res.spearman_rho == pytest.approx(rho, abs=1e-12)
            assert res.pearson_p == pytest.approx(pr, abs=1e-6)
            assert res.spearman_p == pytest.approx(prho, abs=1e-6)

    def test_ties_use_average_ranks(self):
        x = [1, 1, 2, 3]
        y = [10, 10, 20, 30]
        res = correlations(x, y)
        assert res.spearman_rho == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=30))
    def test_average_ranks_match_scipy_on_ties(self, values):
        v = np.asarray(values, dtype=np.float64)
        assert np.array_equal(_average_ranks(v), rankdata(v, method="average"))

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 30, 200, 5000])
    def test_p_value_matches_mpmath_oracle(self, n):
        for r in (-0.9999, -0.6, -0.1, -1e-9, 0.0, 1e-6, 0.05, 0.3, 0.75, 0.999999):
            assert _p_from_t_transform(r, n) == pytest.approx(oracle_p_value(r, n), abs=1e-6)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            correlations([1, 2, 3], [1, 2])
        with pytest.raises(EmptyInput):
            correlations([1, 2], [3, 4])
        with pytest.raises(ConstantInput):
            correlations([1, 1, 1], [2, 3, 4])

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=12,
                 unique=True),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-100, max_value=100),
    )
    def test_affine_invariance(self, x, scale, shift):
        rng = np.random.default_rng(abs(hash(tuple(x))) % 2**32)
        y = list(rng.normal(size=len(x)))
        if len(set(y)) < 2:
            return
        base = correlations(x, y)
        scaled_x = correlations([scale * v + shift for v in x], y)
        scaled_y = correlations(x, [scale * v + shift for v in y])
        for scaled in (scaled_x, scaled_y):
            assert scaled.pearson_r == pytest.approx(base.pearson_r, abs=1e-9)
            assert scaled.spearman_rho == pytest.approx(base.spearman_rho, abs=1e-9)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=10,
                    unique=True))
    def test_spearman_monotone_invariance(self, x):
        rng = np.random.default_rng(abs(hash(tuple(x))) % 2**32)
        y = list(rng.normal(size=len(x)))
        if len(set(y)) < 2:
            return
        base = correlations(x, y)
        transformed = correlations([math.exp(v / 10) for v in x], y)
        assert transformed.spearman_rho == pytest.approx(base.spearman_rho, abs=1e-12)


class TestFeatureTrend:
    @staticmethod
    def rows(year_values: dict[int, list[int]]):
        out = []
        for year, flags in year_values.items():
            for flag in flags:
                out.append((year, FeatureVector(taxonomy=flag)))
        return out

    def test_sigma_zero_is_identity(self):
        trend = yearly_feature_trend(self.rows({2020: [1, 0], 2021: [1, 1]}), sigma=0.0)
        assert trend.raw["taxonomy"] == (0.5, 1.0)
        assert trend.smoothed["taxonomy"] == (0.5, 1.0)

    def test_constant_preserved(self):
        rows = self.rows({y: [1, 1, 0, 0, 0] for y in range(2010, 2021)})
        trend = yearly_feature_trend(rows, sigma=1.0)
        assert all(v == pytest.approx(0.4, abs=1e-12) for v in trend.smoothed["taxonomy"])

    def test_impulse_mass_preserved(self):
        year_values = {y: [0] for y in range(2000, 2015)}
        year_values[2007] = [1]
        trend = yearly_feature_trend(self.rows(year_values), sigma=1.0)
        total = sum(trend.smoothed["taxonomy"])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert max(trend.smoothed["taxonomy"]) == trend.smoothed["taxonomy"][7]

    def test_smoothed_stays_in_unit_interval(self):
        rng = np.random.default_rng(3)
        year_values = {2000 + i: list(rng.integers(0, 2, size=4)) for i in range(12)}
        trend = yearly_feature_trend(self.rows(year_values), sigma=2.0)
        for values in trend.smoothed.values():
            assert all(0.0 <= v <= 1.0 for v in values)

    @given(
        st.dictionaries(st.integers(min_value=1990, max_value=2030),
                        st.integers(min_value=0, max_value=12), min_size=1, max_size=25),
        st.floats(min_value=0.05, max_value=6),
    )
    @example({2000: 12, 2003: 0}, 1.0)  # a neighbour exactly 3 sigma away counts
    def test_gaussian_smooth_matches_numpy(self, twelfths, sigma):
        years = sorted(twelfths)
        values = [twelfths[y] / 12 for y in years]
        pos = np.asarray(years, dtype=np.float64)
        vals = np.asarray(values)
        expected = []
        for p in pos:
            mask = np.abs(pos - p) <= 3.0 * sigma
            weights = np.exp(-0.5 * ((pos[mask] - p) / sigma) ** 2)
            expected.append(float(np.dot(weights, vals[mask]) / weights.sum()))
        assert gaussian_smooth(years, values, sigma) == pytest.approx(expected, rel=1e-13,
                                                                     abs=1e-15)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_gaussian_smooth_validation(self, sigma):
        with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
            gaussian_smooth([0, 1], [1.0, 2.0], sigma=sigma)

    def test_empty_rows(self):
        trend = yearly_feature_trend([], sigma=1.0)
        assert trend.years == ()


class TestSynonymRobustness:
    @staticmethod
    def sampler(table: dict[str, list[int]]):
        def fetch(keyword: str) -> TopicContext:
            return TopicContext(
                keyword=keyword,
                sample_citation_counts=tuple(table[keyword]),
                k=1000,
                fetched_at=datetime(2024, 10, 1),
            )

        return fetch

    def test_identical_term_gives_zero(self):
        fetch = self.sampler({"a": [0, 1, 2, 5]})
        result = synonym_robustness([("a", ["a"])], fetch)
        assert result.groups[0].group_kl == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_computed_kl(self):
        table = {"anchor": [0, 0, 1, 2], "other": [1, 1, 2, 3]}
        fetch = self.sampler(table)
        result = synonym_robustness([("anchor", ["other"])], fetch)
        h_a, h_o = citation_histograms(table["anchor"], table["other"])
        assert result.groups[0].per_term["other"] == pytest.approx(
            kl_divergence(h_a, h_o), rel=1e-12
        )

    def test_overall_is_mean_of_groups(self):
        table = {"a": [0, 1], "b": [5, 6], "c": [2, 2], "d": [0, 9]}
        fetch = self.sampler(table)
        result = synonym_robustness([("a", ["b"]), ("c", ["d"])], fetch)
        assert result.overall == pytest.approx(
            (result.groups[0].group_kl + result.groups[1].group_kl) / 2, rel=1e-15
        )

    def test_empty_groups_rejected(self):
        with pytest.raises(EmptyInput):
            synonym_robustness([], self.sampler({}))


class TestEmission:
    def test_csv_and_trend_rows(self):
        trend = yearly_feature_trend(
            [(2020, FeatureVector(taxonomy=1)), (2021, FeatureVector())], sigma=0.0
        )
        header, rows = trend_rows(trend, feature="taxonomy")
        assert header == ["year", "taxonomy_raw", "taxonomy_smoothed"]
        buf = io.StringIO()
        write_csv(buf, header, rows)
        assert buf.getvalue() == "year,taxonomy_raw,taxonomy_smoothed\n2020,1.0,1.0\n2021,0.0,0.0\n"
