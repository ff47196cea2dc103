"""Unit and property tests for the pure indicator mathematics."""

from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest
from scipy.integrate import simpson
from hypothesis import example, given
from hypothesis import strategies as st

from litmetrics.errors import (
    BinMismatch,
    DegenerateSample,
    EmptyReferenceList,
    EmptySample,
    FlatObjective,
    IndexOutOfRange,
    InvalidInterval,
    LengthMismatch,
    ZeroBaseline,
)
from litmetrics.indicators import (
    AgingPolynomial,
    BezierTrend,
    CitationSeries,
    ExponentialFit,
    RqmInputs,
    RuiWeights,
    arq,
    bernstein,
    bezier_tangent,
    cdr,
    citation_histograms,
    fit_exponential_mle,
    iei_average,
    iei_instantaneous,
    iei_weighted,
    kl_divergence,
    median_semesters,
    optimize_beta,
    rad,
    rqm,
    rqm_at,
    rqm_spread,
    rqm_value,
    rui,
    tncsi,
)

WINDOW_END = date(2024, 10, 1)


def series(*counts: int) -> CitationSeries:
    return CitationSeries(monthly_counts=tuple(counts), window_end=WINDOW_END)


def hodograph_slope_average(counts: list[int]) -> float:
    """Independent IEI oracle: derivative via the Bernstein-basis difference rule.

    Evaluates C'(t) = sum_i n*(B_{i-1,n-1}(t) - B_{i,n-1}(t)) * P_i applied to
    the original control points (not their forward differences), which is a
    distinct algebraic route from the implementation.
    """
    n = len(counts) - 1
    total = 0.0
    for a in range(n + 1):
        t = a / n
        dx = 0.0
        dy = 0.0
        for i, y in enumerate(counts):
            basis = n * (bernstein(i - 1, n - 1, t) - bernstein(i, n - 1, t))
            dx += basis * i
            dy += basis * y
        total += dy / dx
    return total / (n + 1)


class TestExponentialFit:
    def test_analytic_mle(self):
        fit = fit_exponential_mle([1, 2, 3])
        assert fit.lam == pytest.approx(0.5, abs=1e-15)
        assert fit.sample_size == 3

    def test_single_observation(self):
        assert fit_exponential_mle([10]).lam == pytest.approx(0.1, abs=1e-15)

    def test_all_zero_sample_rejected(self):
        with pytest.raises(DegenerateSample):
            fit_exponential_mle([0, 0, 0])

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            fit_exponential_mle([])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_mle([3, -1])

    @given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1).filter(lambda s: sum(s) > 0))
    def test_rate_times_mean_is_one(self, sample):
        fit = fit_exponential_mle(sample)
        mean = sum(sample) / len(sample)
        assert fit.lam * mean == pytest.approx(1.0, abs=1e-12)

    def test_invalid_fit_values_rejected(self):
        with pytest.raises(ValueError):
            ExponentialFit(lam=0.0, sample_size=3)
        with pytest.raises(ValueError):
            ExponentialFit(lam=1.0, sample_size=0)


class TestTncsi:
    def test_zero_citations(self):
        assert tncsi(0, ExponentialFit(lam=0.7, sample_size=5)) == 0.0

    def test_unit_exponent(self):
        v = tncsi(100, ExponentialFit(lam=0.01, sample_size=9))
        assert v == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_fit_pipeline_example(self):
        fit = fit_exponential_mle([1, 2, 3])
        assert tncsi(2, fit) == pytest.approx(0.6321205588285577, abs=1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=0, max_value=5000),
    )
    def test_matches_quadrature(self, lam, cite_num):
        fit = ExponentialFit(lam=lam, sample_size=1)
        closed = tncsi(cite_num, fit)
        if cite_num == 0:
            numeric = 0.0
        else:
            # tail beyond 60/lam is below 1e-26 and ignored
            upper = min(float(cite_num), 60.0 / lam)
            xs = np.linspace(0.0, upper, 20001)
            numeric = float(simpson(lam * np.exp(-lam * xs), x=xs))
        assert closed == pytest.approx(numeric, abs=1e-9)
        assert 0.0 <= closed <= 1.0
        if lam * cite_num < 36:  # below float64 saturation of 1 - exp(-x)
            assert closed < 1.0

    def test_monotone_in_citations(self):
        fit = ExponentialFit(lam=0.03, sample_size=40)
        values = [tncsi(c, fit) for c in range(0, 400, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


class TestBezierTangent:
    def test_constant_series(self):
        trend = BezierTrend.from_series(series(5, 5, 5, 5, 5, 5))
        assert bezier_tangent(trend, 3) == (5.0, 0.0)

    def test_linear_series_start(self):
        trend = BezierTrend.from_series(series(0, 1, 2, 3, 4, 5))
        x, y = bezier_tangent(trend, 0)
        assert x == 5.0
        assert y == pytest.approx(5.0, abs=1e-12)

    def test_end_tangent_is_last_difference(self):
        trend = BezierTrend.from_series(series(0, 0, 0, 0, 0, 5))
        x, y = bezier_tangent(trend, 5)
        assert (x, y) == (5.0, 25.0)

    def test_index_out_of_range(self):
        trend = BezierTrend.from_series(series(1, 2, 3))
        with pytest.raises(IndexOutOfRange):
            bezier_tangent(trend, 3)
        with pytest.raises(IndexOutOfRange):
            bezier_tangent(trend, -1)

    def test_x_component_exactly_n(self):
        for counts in ([3, 1, 4, 1, 5, 9], [2, 7], [0, 0, 0, 1]):
            trend = BezierTrend.from_series(series(*counts))
            for a in range(trend.degree + 1):
                assert bezier_tangent(trend, a)[0] == float(trend.degree)

    def test_partition_of_unity(self):
        for n in range(1, 11):
            for t in np.linspace(0.0, 1.0, 11):
                total = sum(bernstein(i, n, float(t)) for i in range(n + 1))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_unit_spacing_enforced(self):
        with pytest.raises(ValueError):
            BezierTrend(((0.0, 1.0), (2.0, 2.0)))


class TestIeiAverage:
    def test_flat_series_is_zero(self):
        for c in (0, 3, 17):
            assert iei_average(series(c, c, c, c, c, c)) == pytest.approx(0.0, abs=1e-12)

    def test_affine_series_gives_increment(self):
        for d in (1, 3):
            counts = tuple(2 + d * i for i in range(6))
            assert iei_average(series(*counts)) == pytest.approx(d, abs=1e-9)

    def test_terminal_burst_matches_frozen_oracle(self):
        # value computed with the Bernstein-difference oracle below
        assert iei_average(series(0, 0, 0, 0, 0, 5)) == pytest.approx(
            1.3053333333333335, abs=1e-12
        )
        assert hodograph_slope_average([0, 0, 0, 0, 0, 5]) == pytest.approx(
            1.3053333333333335, abs=1e-9
        )

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=6, max_size=6))
    def test_matches_independent_oracle(self, counts):
        assert iei_average(series(*counts)) == pytest.approx(
            hodograph_slope_average(counts), abs=1e-9
        )

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=-20, max_value=20),
    )
    def test_affine_identity(self, base, d):
        counts = tuple(base + d * i for i in range(6))
        if any(c < 0 for c in counts):
            counts = tuple(c - min(counts) for c in counts)
        s = series(*counts)
        assert iei_average(s) == pytest.approx(d, abs=1e-9)
        assert iei_instantaneous(s) == pytest.approx(d, abs=1e-9)


class TestIeiWeighted:
    def test_uniform_weights_equal_average(self):
        s = series(4, 0, 9, 2, 2, 8)
        assert iei_weighted(s, [1.0] * 6) == pytest.approx(iei_average(s), abs=1e-12)

    def test_last_point_only(self):
        s = series(1, 1, 1, 1, 1, 7)
        # end-tangent slope is the final increment; dividing by l gives 6/6
        assert iei_weighted(s, [0, 0, 0, 0, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_weights(self):
        assert iei_weighted(series(3, 1, 4, 1, 5, 9), [0.0] * 6) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            iei_weighted(series(1, 2, 3), [1.0, 1.0])


class TestIeiInstantaneous:
    def test_flat(self):
        assert iei_instantaneous(series(3, 3, 3, 3, 3, 3)) == 0.0

    def test_final_increment(self):
        assert iei_instantaneous(series(0, 0, 0, 0, 2, 7)) == pytest.approx(5.0, abs=1e-12)

    def test_decreasing(self):
        assert iei_instantaneous(series(9, 8, 7, 6, 5, 4)) == pytest.approx(-1.0, abs=1e-12)


class TestArqAndMedianSemesters:
    def test_mean(self):
        assert arq([0.5, 0.7]) == pytest.approx(0.6, abs=1e-15)
        assert arq([1.0] * 17) == 1.0
        assert arq([0.0, 0.0, 0.9]) == pytest.approx(0.3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyReferenceList):
            arq([])

    def test_median_semesters(self):
        assert median_semesters([6, 12, 18]) == 2
        assert median_semesters([0]) == 0
        assert median_semesters([5, 5, 5, 5]) == 0

    def test_lower_median_for_even_counts(self):
        assert median_semesters([6, 12, 18, 24]) == 2  # semesters [1,2,3,4]

    def test_median_errors(self):
        with pytest.raises(EmptyReferenceList):
            median_semesters([])
        with pytest.raises(ValueError):
            median_semesters([-1])


class TestRqm:
    # (ARQ, S_mp) pairs with their expected scores at the default shift
    TABLE_ROWS = [
        (0.72, 2, 0.94),
        (0.83, 3, 0.95),
        (0.83, 1, 0.99),
        (0.69, 5, 0.65),
        (0.52, 2, 0.85),
        (0.19, 2, 0.63),
    ]

    def test_example_values(self):
        assert rqm_value(0.83, 1) == pytest.approx(0.99, abs=0.015)
        assert rqm_value(0.72, 2) == pytest.approx(0.94, abs=0.015)
        assert rqm_value(1.0, 7) == pytest.approx(0.9932620530009145, abs=1e-12)

    @pytest.mark.parametrize("arq_v,s_mp,expected", TABLE_ROWS)
    def test_reference_pairs(self, arq_v, s_mp, expected):
        assert rqm_value(arq_v, s_mp) == pytest.approx(expected, abs=0.015)

    def test_decreasing_in_age(self):
        for arq_v in np.arange(0.1, 0.95, 0.1):
            values = [rqm_value(float(arq_v), s) for s in range(0, 12)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_age_independent_at_perfect_quality(self):
        values = {rqm_value(1.0, s) for s in range(0, 30, 3)}
        assert len(values) == 1

    def test_increasing_in_quality(self):
        values = [rqm_value(a / 20, 4) for a in range(21)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_range_open_unit_interval(self):
        v = rqm(RqmInputs(arq=0.0, s_mp=40, beta=5.0))
        assert 0.0 < v < 1.0

    @given(st.floats(0.0, 1.0), st.integers(0, 60), st.floats(0.01, 100.0))
    def test_rqm_is_the_curve_the_calibration_reads(self, arq_v, s_mp, beta):
        v = rqm(RqmInputs(arq=arq_v, s_mp=s_mp, beta=beta))
        assert v == rqm_at(arq_v, float(s_mp), beta)
        expected = 1.0 - math.exp(-beta * math.exp(-(1.0 - arq_v) * s_mp))
        assert v == pytest.approx(expected, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("l_s, r_s, arq_v, beta", [
        (5, 10, 0.6, 3.0), (0, 4, 0.2, 0.5), (2, 30, 0.9, 40.0),
    ])
    def test_the_spread_is_the_drop_of_rqm_over_the_interval(self, l_s, r_s, arq_v, beta):
        assert rqm_spread(beta, l_s, r_s, arq_v) == (
            rqm_value(arq_v, l_s, beta) - rqm_value(arq_v, r_s, beta))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            RqmInputs(arq=1.2, s_mp=1)
        with pytest.raises(ValueError):
            RqmInputs(arq=0.5, s_mp=-1)
        with pytest.raises(ValueError):
            RqmInputs(arq=0.5, s_mp=1, beta=0.0)


class TestOptimizeBeta:
    def test_matches_closed_form_stationary_point(self):
        decay = 1.0 - 0.6
        k_l, k_r = math.exp(-decay * 5), math.exp(-decay * 10)
        expected = math.log(k_l / k_r) / (k_l - k_r)  # about 17.09
        assert optimize_beta(5, 10, 0.6) == pytest.approx(expected, abs=1e-3)

    def test_objective_matches_quadrature(self):
        beta = optimize_beta(5, 10, 0.6)
        s_grid = np.linspace(5.0, 10.0, 10_000)
        rqm_vals = 1.0 - np.exp(-beta * np.exp(-(1.0 - 0.6) * s_grid))
        numeric = float(np.trapezoid(np.abs(np.gradient(rqm_vals, s_grid)), s_grid))
        assert rqm_spread(beta, 5, 10, 0.6) == pytest.approx(numeric, abs=1e-6)

    def test_objective_is_maximal_on_dense_grid(self):
        beta = optimize_beta(5, 10, 0.6)
        grid = np.arange(0.1, 100.0, 1e-3)
        best = max(rqm_spread(float(b), 5, 10, 0.6) for b in grid)
        assert rqm_spread(beta, 5, 10, 0.6) >= best - 1e-6

    @pytest.mark.parametrize("l_s, r_s, arq_bar, search_range, clamped", [
        (5, 10, 0.6, (0.1, 100.0), None),
        (0, 1, 0.5, (0.1, 100.0), None),
        (1, 3, 0.2, (0.1, 100.0), None),
        (2.5, 4.0, 0.9, (0.1, 100.0), None),
        (5, 10, 0.6, (0.1, 10.0), "hi"),
        (0, 1, 0.5, (2.0, 50.0), "lo"),
        (20, 30, 0.2, (0.1, 100.0), "hi"),
        (1000, 1001, 0.1, (0.1, 100.0), "hi"),  # a and b underflow to zero
    ])
    def test_matches_dense_grid_maximum(self, l_s, r_s, arq_bar, search_range, clamped):
        lo, hi = search_range
        beta = optimize_beta(l_s, r_s, arq_bar, search_range=search_range)
        assert lo <= beta <= hi
        grid = np.append(np.arange(lo, hi, 1e-2), hi)
        best = max(rqm_spread(float(b), l_s, r_s, arq_bar) for b in grid)
        assert rqm_spread(beta, l_s, r_s, arq_bar) >= best - 1e-12
        if clamped is not None:
            assert beta == {"lo": lo, "hi": hi}[clamped]

    def test_flat_objective(self):
        with pytest.raises(FlatObjective):
            optimize_beta(5, 10, 1.0)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            optimize_beta(10, 5, 0.6)
        with pytest.raises(InvalidInterval):
            optimize_beta(5, 10, 0.6, search_range=(-1.0, 10.0))


class TestRad:
    def test_zero_months(self):
        assert rad(0) == 0.0

    def test_one_year_against_antiderivative(self):
        exact = AgingPolynomial().antiderivative(1.0)
        assert exact == pytest.approx(0.07583333333333334, abs=1e-12)
        assert rad(12) == pytest.approx(exact, abs=1e-4)

    def test_six_years(self):
        assert rad(72) == pytest.approx(AgingPolynomial().antiderivative(6.0), abs=1e-3)

    def test_trapezoid_tracks_antiderivative_over_window(self):
        poly = AgingPolynomial()
        for m in range(1, 73):
            assert rad(m) == pytest.approx(poly.antiderivative(m / 12.0), abs=1e-4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rad(-1)
        with pytest.raises(ValueError):
            rad(12, step=0.0)

    def test_each_age_is_computed_once_and_a_failure_is_not_kept(self):
        rad.cache_clear()
        ages = [30, 30, 31, 30]
        assert [rad(m).hex() for m in ages] == [rad.__wrapped__(m).hex() for m in ages]
        assert (rad.cache_info().hits, rad.cache_info().misses) == (2, 2)
        for _ in range(2):
            with pytest.raises(ValueError):
                rad(-1)
        assert (rad.cache_info().misses, rad.cache_info().currsize) == (4, 2)
        poly = AgingPolynomial(c0=0.5)
        assert rad(30, poly) == rad(30, AgingPolynomial(c0=0.5)) != rad(30)

    @staticmethod
    def numpy_rad(m_pc: int, poly: AgingPolynomial = AgingPolynomial(),
                  step: float = 1.0 / 120.0) -> float:
        """The trapezoid over numpy's grid that `rad` reproduces bit for bit."""
        if m_pc == 0:
            return 0.0
        span = m_pc / 12.0
        xs = np.linspace(0.0, span, max(1, math.ceil(span / step - 1e-12)) + 1)
        ys = ((poly.c3 * xs + poly.c2) * xs + poly.c1) * xs + poly.c0
        return float(np.trapezoid(ys, xs))

    def test_bit_identical_to_numpy_trapezoid(self):
        # every month up to 60 years (up to 7,200 terms, every summation
        # branch), then every 29th month up to 3000 (30,000 terms)
        for m in [*range(721), *range(721, 3001, 29), 3000]:
            assert rad(m).hex() == self.numpy_rad(m).hex(), m

    @given(m=st.integers(0, 3000))
    def test_bit_identical_to_numpy_at_any_age(self, m):
        assert rad(m).hex() == self.numpy_rad(m).hex()

    @given(
        m=st.integers(0, 240),
        step=st.floats(0.004, 3.0),
        coefficients=st.tuples(*[st.floats(-10.0, 10.0)] * 4),
    )
    def test_bit_identical_to_numpy_for_any_step_and_cubic(self, m, step, coefficients):
        poly = AgingPolynomial(*coefficients)
        assert rad(m, poly, step).hex() == self.numpy_rad(m, poly, step).hex()


class TestCdrRui:
    def test_cdr_examples(self):
        assert cdr(250, 250) == 1.0
        assert cdr(0, 99) == 0.0
        assert cdr(300, 150) == 2.0

    def test_cdr_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            cdr(10, 0)

    def test_rui_examples(self):
        assert rui(1.0, 0.2) == 11.0
        assert rui(0.0, 0.0) == 0.0
        assert rui(0.5, 0.07583) == pytest.approx(5.37915, abs=1e-9)

    def test_rui_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rui(float("nan"), 0.0)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_linearity(self, a, b, c, d):
        w = RuiWeights()
        assert rui(a + b, c + d, w) == pytest.approx(rui(a, c, w) + rui(b, d, w), rel=1e-12, abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            RuiWeights(p=0.0, q=5.0)


class TestKlDivergence:
    def test_identity(self):
        assert kl_divergence([4, 2, 9], [4, 2, 9]) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_mass_is_epsilon_scale(self):
        eps = 1e-9
        got = kl_divergence([1, 0], [0, 1], epsilon=eps)
        # direct summation of the smoothed formula
        p = np.array([1 + eps, eps]) / (1 + 2 * eps)
        q = np.array([eps, 1 + eps]) / (1 + 2 * eps)
        expected = float(np.sum(p * np.log(p / q)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > 0.9 * math.log(1 / eps)

    def test_asymmetry(self):
        # a 2-bin reversal is always symmetric, so use a 3-bin pair;
        # hand values: KL(p||q)=0.8 ln2 + 0.1 ln(1/5), KL(q||p)=0.4 ln(1/2) + 0.5 ln5
        p, q = [8, 1, 1], [4, 5, 1]
        forward = kl_divergence(p, q)
        backward = kl_divergence(q, p)
        assert forward == pytest.approx(0.8 * math.log(2) + 0.1 * math.log(1 / 5), abs=1e-6)
        assert backward == pytest.approx(0.4 * math.log(0.5) + 0.5 * math.log(5), abs=1e-6)
        assert forward != backward

    @pytest.mark.parametrize("epsilon", [0.0, -1e-9, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            kl_divergence([1, 2], [2, 1], epsilon=epsilon)

    @pytest.mark.parametrize("bad", [-1, math.nan, math.inf])
    def test_counts_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="counts must be non-negative and finite"):
            kl_divergence([1, bad], [2, 1])
        with pytest.raises(ValueError, match="counts must be non-negative and finite"):
            kl_divergence([2, 1], [1, bad])

    def test_bin_mismatch(self):
        with pytest.raises(BinMismatch):
            kl_divergence([1, 2], [1, 2, 3])
        with pytest.raises(BinMismatch):
            kl_divergence([], [])

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12),
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12),
    )
    def test_gibbs_inequality(self, p, q):
        n = min(len(p), len(q))
        assert kl_divergence(p[:n], q[:n]) >= -1e-12

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12),
    )
    def test_matches_numpy(self, p, q):
        n = min(len(p), len(q))
        pp = np.asarray(p[:n], dtype=np.float64) + 1e-9
        qq = np.asarray(q[:n], dtype=np.float64) + 1e-9
        pp, qq = pp / pp.sum(), qq / qq.sum()
        expected = float(np.sum(pp * np.log(pp / qq)))
        assert kl_divergence(p[:n], q[:n]) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=60),
        st.one_of(st.just(99.0), st.floats(min_value=0, max_value=100)),
    )
    @example([8, 8], [63], 80.0)  # 41 by numpy's `_lerp`, 42 by a + (b - a) * t
    def test_histogram_cap_is_numpys_linear_percentile(self, a, b, percentile):
        h_a, h_b = citation_histograms(a, b, percentile)
        cap = math.ceil(float(np.percentile(np.asarray(a + b, dtype=np.float64), percentile)))
        assert len(h_a) == len(h_b) == cap + 2

    def test_histogram_builder_shares_bins(self):
        h_a, h_b = citation_histograms([0, 1, 1, 2, 50], [0, 0, 3])
        assert len(h_a) == len(h_b)
        assert sum(h_a) == 5 and sum(h_b) == 3
        assert kl_divergence(h_a, h_a) == pytest.approx(0.0, abs=1e-12)


class TestCitationSeriesType:
    def test_too_short(self):
        with pytest.raises(ValueError):
            CitationSeries(monthly_counts=(1,), window_end=WINDOW_END)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            CitationSeries(monthly_counts=(1, -2), window_end=WINDOW_END)
