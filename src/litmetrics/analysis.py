"""Descriptive and inferential statistics over snapshot contents."""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import IO, Callable, Optional, Sequence

from .errors import ConstantInput, EmptyInput, LengthMismatch
from .indicators import _pairwise_sum, citation_histograms, kl_divergence
from .records import TopicContext
from .snapshot import FEATURE_NAMES, FeatureVector
from .values import Frozen


class DescriptiveStats(Frozen):
    _fields = ("max", "min", "mean", "median", "mode")

    def __init__(self, max: float, min: float, mean: float, median: float, mode: float) -> None:
        vars(self).update(max=max, min=min, mean=mean, median=median, mode=mode)


def descriptive_stats(values: Sequence[float]) -> DescriptiveStats:
    """Max/min/mean/median/mode summary; mode ties resolve to the smallest value."""
    data = list(values)
    if not data:
        raise EmptyInput("no values to summarize")
    counts = Counter(data)
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)
    lo, hi = min(data), max(data)
    # exact summation, then clamp the possible 1-ulp excursion of the division
    mean = min(max(math.fsum(data) / len(data), lo), hi)
    # np.median's mean adds the middle values to 0.0; 0.0 + v gives the same
    # floats and signs of zero
    ordered = sorted(0.0 + v for v in data)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return DescriptiveStats(max=hi, min=lo, mean=mean, median=median, mode=mode)


class CorrelationResult(Frozen):
    _fields = ("pearson_r", "pearson_p", "spearman_rho", "spearman_p", "n", "method_note")

    def __init__(self, pearson_r: float, pearson_p: float, spearman_rho: float,
                 spearman_p: float, n: int,
                 # the p-values use the t-statistic transform with n-2 degrees
                 # of freedom, which is approximate for very small samples
                 method_note: str = "two-sided p via t-transform, df = n - 2") -> None:
        vars(self).update(pearson_r=pearson_r, pearson_p=pearson_p, spearman_rho=spearman_rho,
                          spearman_p=spearman_p, n=n, method_note=method_note)


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    mx = math.fsum(x) / len(x)
    my = math.fsum(y) / len(y)
    cx = [v - mx for v in x]
    cy = [v - my for v in y]
    vx = math.fsum(v * v for v in cx)
    vy = math.fsum(v * v for v in cy)
    if vx == 0.0 or vy == 0.0:
        raise ConstantInput("correlation undefined for a constant input")
    r = math.fsum(a * b for a, b in zip(cx, cy)) / math.sqrt(vx * vy)
    return max(-1.0, min(1.0, r))


def _average_ranks(v: Sequence[float]) -> list[float]:
    """1-based ranks; each run of tied values gets the mean of its positions."""
    ordered = sorted(v)
    return [(bisect_left(ordered, x) + bisect_right(ordered, x) + 1) / 2.0 for x in v]


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betainc_regularized(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for 0 < x <= 1, with y = 1 - x passed in so callers keep its precision."""
    if y <= 0.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    # the fraction converges fast below the mean; use the symmetry above it
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, y) / b


def _p_from_t_transform(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    # two-sided Student-t tail: P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)
    return _betainc_regularized(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def correlations(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson on raw values and Spearman on average ranks, with p-values."""
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)} values")
    n = len(x)
    if n < 3:
        raise EmptyInput("need at least 3 paired values")
    r = _pearson(x, y)
    rho = _pearson(_average_ranks(x), _average_ranks(y))
    return CorrelationResult(
        pearson_r=r,
        pearson_p=_p_from_t_transform(r, n),
        spearman_rho=rho,
        spearman_p=_p_from_t_transform(rho, n),
        n=n,
    )


# ---------------------------------------------------------------------------
# feature trends
# ---------------------------------------------------------------------------


class FeatureTrend(Frozen):
    _fields = ("years", "raw", "smoothed", "sigma")

    def __init__(self, years: tuple[int, ...], raw: dict[str, tuple[float, ...]],
                 smoothed: dict[str, tuple[float, ...]], sigma: float) -> None:
        vars(self).update(years=years, raw=raw, smoothed=smoothed, sigma=sigma)


def gaussian_smooth(
    positions: Sequence[float], values: Sequence[float], sigma: float
) -> list[float]:
    """Discrete Gaussian smoothing truncated at 3*sigma, renormalized so each
    output is a convex combination of the observed values (boundaries and
    gaps included); sigma = 0 returns the input unchanged."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be non-negative and finite, got {sigma}")
    if sigma == 0.0:
        return [float(v) for v in values]
    radius = 3.0 * sigma
    out = []
    for p in positions:
        near = [(math.exp(-0.5 * ((q - p) / sigma) ** 2), v)
                for q, v in zip(positions, values) if abs(q - p) <= radius]
        # `_pairwise_sum`, not `sum`, whose float rounding changed in Python 3.12,
        # so `trend` prints the same on every Python
        total = _pairwise_sum([w * v for w, v in near], 0, len(near))
        out.append(total / _pairwise_sum([w for w, _ in near], 0, len(near)))
    return out


def yearly_feature_trend(
    feature_rows: Sequence[tuple[int, FeatureVector]], sigma: float = 1.0
) -> FeatureTrend:
    """Per-year proportion of each binary feature, optionally smoothed."""
    if not feature_rows:
        return FeatureTrend(years=(), raw={}, smoothed={}, sigma=sigma)
    by_year: dict[int, list[FeatureVector]] = {}
    for year, fv in feature_rows:
        by_year.setdefault(int(year), []).append(fv)
    years = tuple(sorted(by_year))
    raw: dict[str, tuple[float, ...]] = {}
    smoothed: dict[str, tuple[float, ...]] = {}
    for name in FEATURE_NAMES:
        proportions = [
            sum(getattr(fv, name) for fv in by_year[y]) / len(by_year[y]) for y in years
        ]
        raw[name] = tuple(proportions)
        smoothed[name] = tuple(gaussian_smooth(years, proportions, sigma))
    return FeatureTrend(years=years, raw=raw, smoothed=smoothed, sigma=sigma)


# ---------------------------------------------------------------------------
# keyword robustness
# ---------------------------------------------------------------------------


class RobustnessGroup(Frozen):
    _fields = ("anchor", "per_term")

    def __init__(self, anchor: str, per_term: dict[str, float]) -> None:
        vars(self).update(anchor=anchor, per_term=per_term)

    @property
    def group_kl(self) -> float:
        return sum(self.per_term.values()) / len(self.per_term)


class RobustnessResult(Frozen):
    _fields = ("groups",)

    def __init__(self, groups: tuple[RobustnessGroup, ...]) -> None:
        vars(self).update(groups=groups)

    @property
    def overall(self) -> float:
        return sum(g.group_kl for g in self.groups) / len(self.groups)


def synonym_robustness(
    groups: Sequence[tuple[str, Sequence[str]]],
    fetch_sample: Callable[[str], TopicContext],
    epsilon: float = 1e-9,
) -> RobustnessResult:
    """Average one-directional KL divergence of each synonym group.

    For every comparison term, the divergence KL(anchor || comparison) is
    computed over shared citation-count histograms; the group value is the
    mean over its comparison terms and the overall value the mean over
    groups. Retrieval failures (e.g. a term with zero hits) propagate.
    """
    if not groups:
        raise EmptyInput("no synonym groups given")
    results = []
    for anchor, comparisons in groups:
        if not comparisons:
            raise EmptyInput(f"group {anchor!r} has no comparison terms")
        anchor_counts = list(fetch_sample(anchor).sample_citation_counts)
        per_term: dict[str, float] = {}
        for term in comparisons:
            term_counts = list(fetch_sample(term).sample_citation_counts)
            h_anchor, h_term = citation_histograms(anchor_counts, term_counts)
            per_term[term] = kl_divergence(h_anchor, h_term, epsilon)
        results.append(RobustnessGroup(anchor=anchor, per_term=per_term))
    return RobustnessResult(groups=tuple(results))


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------


def write_csv(stream: IO[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def trend_rows(trend: FeatureTrend, feature: Optional[str] = None) -> tuple[list[str], list[list]]:
    """(header, rows) of a trend table, one row per year, ready for CSV."""
    names = [feature] if feature else list(FEATURE_NAMES)
    header = ["year"]
    for name in names:
        header += [f"{name}_raw", f"{name}_smoothed"]
    rows = []
    for i, year in enumerate(trend.years):
        row: list = [year]
        for name in names:
            row += [trend.raw[name][i], trend.smoothed[name][i]]
        rows.append(row)
    return header, rows
