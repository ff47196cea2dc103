"""Pure indicator mathematics: TNCSI, IEI, RQM, RUI and their supporting pieces.

Everything in this module is deterministic, side-effect free, and safe to call
concurrently. Inputs are plain numbers and small frozen dataclasses; no I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Optional, Sequence

import numpy as np

from .errors import (
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

DEFAULT_BETA = 5.0
DEFAULT_RAD_STEP = 1.0 / 120.0  # years; ten sub-steps per month
RAD_FIT_WINDOW_MONTHS = 72  # the aging cubic was fitted on 6 years of data


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialFit:
    """Decay rate fitted over a topic's citation-count sample.

    ``lam`` is the rate of the exponential density ``lam * exp(-lam * x)``;
    the maximum-likelihood estimate is the reciprocal of the sample mean.
    """

    lam: float
    sample_size: int

    def __post_init__(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")


@dataclass(frozen=True)
class CitationSeries:
    """New-citation counts per calendar month for one paper, oldest first.

    ``window_end`` is the first month *not* covered by the series (the
    current month at retrieval time); index i covers the month
    ``window_end - (len - i)`` months.
    """

    monthly_counts: tuple[int, ...]
    window_end: date
    dropped_undated: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "monthly_counts", tuple(self.monthly_counts))
        if len(self.monthly_counts) < 2:
            raise ValueError("need at least 2 monthly counts")
        if any(c < 0 for c in self.monthly_counts):
            raise ValueError("monthly counts must be non-negative")

    def __len__(self) -> int:
        return len(self.monthly_counts)


@dataclass(frozen=True)
class BezierTrend:
    """Control polygon of the citation-trend curve.

    Control points are ``(i, count_i)`` with unit x-spacing, so the curve
    degree is one less than the number of points.
    """

    control_points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.control_points)
        object.__setattr__(self, "control_points", pts)
        if len(pts) < 2:
            raise ValueError("need at least 2 control points")
        for i, (x, _) in enumerate(pts):
            if x != float(i):
                raise ValueError("control point x-coordinates must be 0,1,...,n")

    @property
    def degree(self) -> int:
        return len(self.control_points) - 1

    @classmethod
    def from_series(cls, series: CitationSeries) -> "BezierTrend":
        return cls(tuple((float(i), float(c)) for i, c in enumerate(series.monthly_counts)))


@dataclass(frozen=True)
class RqmInputs:
    """Average reference quality, median reference age in semesters, shift."""

    arq: float
    s_mp: int
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if not 0.0 <= self.arq <= 1.0:
            raise ValueError(f"arq must lie in [0, 1], got {self.arq}")
        if self.s_mp < 0:
            raise ValueError(f"s_mp must be >= 0, got {self.s_mp}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class AgingPolynomial:
    """Cubic fitted to yearly new-citation counts of aging reviews.

    Coefficients are for x**3, x**2, x, 1 with x in years.
    """

    c3: float = -0.003
    c2: float = 0.001
    c1: float = 0.1267
    c0: float = 0.0129

    def __call__(self, x: float) -> float:
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0

    def antiderivative(self, x: float) -> float:
        """Exact integral from 0 to x; used as the oracle for the trapezoid."""
        return (((self.c3 / 4 * x + self.c2 / 3) * x + self.c1 / 2) * x + self.c0) * x


@dataclass(frozen=True)
class RuiWeights:
    """Weights of the coverage-difference and aging terms (defaults 10 and 5)."""

    p: float = 10.0
    q: float = 5.0

    def __post_init__(self) -> None:
        if not (self.p > 0 and self.q > 0):
            raise ValueError("weights must be positive")


@dataclass
class IndicatorReport:
    """All indicator values computed for one paper, plus provenance.

    Fields are None when the corresponding indicator was not requested or
    could not be computed; ``warnings`` collects per-indicator caveats
    (e.g. aging integral evaluated beyond its fitted window).
    """

    tncsi: Optional[float] = None
    iei_avg: Optional[float] = None
    iei_weighted: Optional[float] = None
    iei_instant: Optional[float] = None
    arq: Optional[float] = None
    s_mp: Optional[int] = None
    rqm: Optional[float] = None
    cdr: Optional[float] = None
    rad: Optional[float] = None
    rui: Optional[float] = None
    topic_keyword: str = ""
    sample_size: Optional[int] = None
    computed_at: Optional[datetime] = None
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# TNCSI
# ---------------------------------------------------------------------------


def fit_exponential_mle(citation_counts: Sequence[int]) -> ExponentialFit:
    """Fit the exponential decay rate over a raw citation-count sample.

    The MLE of the rate is the reciprocal of the sample mean. An all-zero
    sample is rejected rather than mapped to an infinite rate: the resulting
    success index would be a degenerate step function, so callers must widen
    the topic sample instead.
    """
    counts = list(citation_counts)
    if not counts:
        raise EmptySample("citation sample is empty")
    if any(c < 0 for c in counts):
        raise ValueError("citation counts must be non-negative")
    total = float(sum(counts))
    if total == 0.0:
        raise DegenerateSample("all citation counts are zero")
    return ExponentialFit(lam=len(counts) / total, sample_size=len(counts))


def tncsi(cite_num: int, fit: ExponentialFit) -> float:
    """Probability that a random same-topic paper has fewer citations.

    Closed form of the definite integral of ``lam * exp(-lam * x)`` over
    [0, cite_num]: ``1 - exp(-lam * cite_num)``. Monotone non-decreasing in
    the citation count and strictly below 1.
    """
    if cite_num < 0:
        raise ValueError("citation count must be non-negative")
    return -math.expm1(-fit.lam * cite_num)


# ---------------------------------------------------------------------------
# IEI (Bezier trend slopes)
# ---------------------------------------------------------------------------


def bernstein(i: int, n: int, t: float) -> float:
    """Bernstein basis polynomial value C(n,i) * (1-t)^(n-i) * t^i."""
    if not 0 <= i <= n:
        return 0.0
    return math.comb(n, i) * (1.0 - t) ** (n - i) * t**i


def bezier_tangent(trend: BezierTrend, a: int) -> tuple[float, float]:
    """Tangent vector of the trend curve at parameter a/n.

    Evaluates the hodograph n * sum_i B_{i,n-1}(a/n) * (P_{i+1} - P_i).
    With unit x-spacing every forward difference has x-component 1, so the
    tangent's x-component is analytically n and is returned exactly.
    """
    n = trend.degree
    if not 0 <= a <= n:
        raise IndexOutOfRange(f"point index {a} outside 0..{n}")
    t = a / n
    dy = 0.0
    pts = trend.control_points
    for i in range(n):
        dy += bernstein(i, n - 1, t) * (pts[i + 1][1] - pts[i][1])
    return float(n), n * dy


def iei_average(series: CitationSeries) -> float:
    """Average tangent slope over the l = n+1 sample points of the trend curve."""
    trend = BezierTrend.from_series(series)
    n = trend.degree
    total = 0.0
    for a in range(n + 1):
        x_a, y_a = bezier_tangent(trend, a)
        total += y_a / x_a
    return total / (n + 1)


def iei_weighted(series: CitationSeries, weights: Sequence[float]) -> float:
    """Weighted variant: sum of w_a * slope_a divided by the point count."""
    trend = BezierTrend.from_series(series)
    n = trend.degree
    if len(weights) != n + 1:
        raise LengthMismatch(f"expected {n + 1} weights, got {len(weights)}")
    total = 0.0
    for a, w in enumerate(weights):
        x_a, y_a = bezier_tangent(trend, a)
        total += w * (y_a / x_a)
    return total / (n + 1)


def iei_instantaneous(series: CitationSeries) -> float:
    """Slope of the curve tangent at the final sample month.

    The end tangent is n * (P_n - P_{n-1}); with unit x-spacing its slope
    reduces to the last month-to-month increment.
    """
    trend = BezierTrend.from_series(series)
    x_n, y_n = bezier_tangent(trend, trend.degree)
    return y_n / x_n


# ---------------------------------------------------------------------------
# RQM
# ---------------------------------------------------------------------------


def arq(reference_tncsi: Sequence[float]) -> float:
    """Average reference quality: mean success index of the cited references."""
    values = list(reference_tncsi)
    if not values:
        raise EmptyReferenceList("no reference TNCSI values")
    return sum(values) / len(values)


def median_semesters(reference_ages_months: Sequence[int]) -> int:
    """Median reference age in whole semesters (6-month units).

    Each age is floored to full semesters; the lower median is taken for
    even-length lists so the result stays integer-valued.
    """
    ages = sorted(reference_ages_months)
    if not ages:
        raise EmptyReferenceList("no reference ages")
    if ages[0] < 0:
        raise ValueError("reference ages must be non-negative")
    semesters = [a // 6 for a in ages]
    return semesters[(len(semesters) - 1) // 2]


def rqm(inputs: RqmInputs) -> float:
    """Shifted-Gompertz reference quality score in (0, 1).

    ``1 - exp(-beta * exp(-(1 - arq) * s_mp))``: increasing in reference
    quality, decreasing in reference age, constant in age when arq is 1.
    """
    inner = math.exp(-(1.0 - inputs.arq) * inputs.s_mp)
    return -math.expm1(-inputs.beta * inner)


def rqm_value(arq_value: float, s_mp: int, beta: float = DEFAULT_BETA) -> float:
    """Convenience wrapper building RqmInputs from scalars."""
    return rqm(RqmInputs(arq=arq_value, s_mp=s_mp, beta=beta))


def optimize_beta(
    l_s: float,
    r_s: float,
    arq_bar: float,
    search_range: tuple[float, float] = (0.1, 100.0),
) -> float:
    """Shift parameter maximising the curve's spread over a typical age interval.

    The objective is the integral of |dRQM/dS| over [l_s, r_s] at fixed mean
    reference quality. RQM is strictly monotone in S for arq_bar < 1, so the
    integral collapses to RQM(l_s; beta) - RQM(r_s; beta) = exp(-beta*b) -
    exp(-beta*a) with a = exp(-(1-arq_bar)*l_s) and b = exp(-(1-arq_bar)*r_s).
    That is unimodal in beta with its stationary point at
    (1-arq_bar)*(r_s-l_s) / (a-b), which is clamped to the search range.

    This calibration is exposed for inspection only; the shipped default
    remains ``DEFAULT_BETA`` and is never replaced silently.
    """
    if not l_s < r_s:
        raise InvalidInterval(f"need l_s < r_s, got [{l_s}, {r_s}]")
    lo, hi = search_range
    if not (0 < lo < hi):
        raise InvalidInterval(f"search range must be positive and ordered, got {search_range}")
    if arq_bar >= 1.0:
        raise FlatObjective("objective is identically zero when arq_bar >= 1")
    if arq_bar <= 0.0:
        raise ValueError("arq_bar must lie in (0, 1)")

    decay = 1.0 - arq_bar
    span = decay * (r_s - l_s)
    # log of span / (a - b), written so that a and b cannot underflow to zero
    log_beta = math.log(span) + decay * l_s - math.log(-math.expm1(-span))
    if log_beta >= math.log(hi):
        return float(hi)
    return max(float(lo), math.exp(log_beta))


def rqm_spread(beta: float, l_s: float, r_s: float, arq_bar: float) -> float:
    """Objective of the beta calibration: integral of |dRQM/dS| over [l_s, r_s].

    RQM is strictly decreasing in S (for arq_bar < 1), so the integral of the
    absolute derivative telescopes to the endpoint difference.
    """
    return rqm_at(arq_bar, float(l_s), beta) - rqm_at(arq_bar, float(r_s), beta)


def rqm_at(arq_value: float, s: float, beta: float) -> float:
    """RQM evaluated at a real-valued age (used by the calibration objective)."""
    return -math.expm1(-beta * math.exp(-(1.0 - arq_value) * s))


# ---------------------------------------------------------------------------
# RUI
# ---------------------------------------------------------------------------


def rad(
    m_pc: int,
    poly: AgingPolynomial = AgingPolynomial(),
    step: float = DEFAULT_RAD_STEP,
) -> float:
    """Review aging degree: trapezoidal integral of the aging cubic.

    Accumulates the curve over [0, m_pc/12] years in uniform steps
    (default 1/120 year). The discrete trapezoid is the defining method;
    the closed-form antiderivative only serves as a test oracle.
    """
    if m_pc < 0:
        raise ValueError("months since publication must be non-negative")
    if not step > 0:
        raise ValueError("step must be positive")
    if m_pc == 0:
        return 0.0
    span = m_pc / 12.0
    n_steps = max(1, math.ceil(span / step - 1e-12))
    xs = np.linspace(0.0, span, n_steps + 1)
    ys = ((poly.c3 * xs + poly.c2) * xs + poly.c1) * xs + poly.c0
    return float(np.trapezoid(ys, xs))


def cdr(n_pc: int, n_mp: int) -> float:
    """Coverage difference ratio: post-publication hits over pre-publication hits."""
    if n_pc < 0 or n_mp < 0:
        raise ValueError("counts must be non-negative")
    if n_mp == 0:
        raise ZeroBaseline("no relevant literature before publication")
    return n_pc / n_mp


def rui(cdr_value: float, rad_value: float, weights: RuiWeights = RuiWeights()) -> float:
    """Review update index: weighted sum p*CDR + q*RAD."""
    if not (math.isfinite(cdr_value) and math.isfinite(rad_value)):
        raise ValueError("CDR and RAD must be finite")
    return weights.p * cdr_value + weights.q * rad_value


# ---------------------------------------------------------------------------
# keyword robustness helpers
# ---------------------------------------------------------------------------


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance divided by the longer length; 0 for two empty strings."""
    if a == b:
        return 0.0
    longer = max(len(a), len(b))
    if longer == 0:
        return 0.0
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1] / longer


def kl_divergence(
    p_counts: Sequence[float],
    q_counts: Sequence[float],
    epsilon: float = 1e-9,
) -> float:
    """One-directional KL divergence between two smoothed count histograms.

    Both histograms must share the same binning. ``epsilon`` is added to
    every bin before normalisation so empty bins stay finite.
    """
    if len(p_counts) != len(q_counts):
        raise BinMismatch(f"histogram sizes differ: {len(p_counts)} vs {len(q_counts)}")
    if len(p_counts) == 0:
        raise BinMismatch("histograms are empty")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    p = np.asarray(p_counts, dtype=np.float64) + epsilon
    q = np.asarray(q_counts, dtype=np.float64) + epsilon
    if np.any(p < epsilon) or np.any(q < epsilon):
        raise ValueError("histogram counts must be non-negative")
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def citation_histograms(
    anchor_counts: Sequence[int],
    other_counts: Sequence[int],
    percentile: float = 99.0,
) -> tuple[list[int], list[int]]:
    """Paired integer-binned histograms of two citation-count samples.

    Bins are the integers 0..cap plus one overflow bin, where cap is the
    given percentile of the pooled counts; the shared binning makes the
    histograms directly comparable for KL divergence.
    """
    anchor = list(anchor_counts)
    other = list(other_counts)
    if not anchor or not other:
        raise EmptySample("both samples must be non-empty")
    pooled = np.asarray(anchor + other, dtype=np.float64)
    cap = int(math.ceil(float(np.percentile(pooled, percentile))))
    n_bins = cap + 2  # 0..cap plus overflow

    def fill(counts: list[int]) -> list[int]:
        hist = [0] * n_bins
        for c in counts:
            hist[min(c, cap + 1)] += 1
        return hist

    return fill(anchor), fill(other)
