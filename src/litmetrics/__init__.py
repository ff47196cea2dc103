"""litmetrics: article-level indicators for literature reviews.

Four indicators over scholarly metadata (topic-normalized citation success,
impact evolution, reference quality, review update urgency), backed by
retrieval clients, a SQLite snapshot store, content-feature extraction, and
batch statistics.

Importing the package loads none of its modules: each name below is
imported from its module on first use (https://peps.python.org/pep-0562/),
so a command loads only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "indicators": (
        "AgingPolynomial", "BezierTrend", "CitationSeries", "ExponentialFit", "IndicatorReport",
        "RqmInputs", "RuiWeights", "arq", "bezier_tangent", "cdr", "fit_exponential_mle",
        "iei_average", "iei_instantaneous", "iei_weighted", "kl_divergence", "median_semesters",
        "optimize_beta", "rad", "rqm", "rqm_value", "rui", "tncsi",
    ),
    "pipeline": ("ScoringEngine", "enrich", "harvest", "score_batch"),
    "records": ("PaperRecord", "TopicContext"),
    "retrieval": (
        "ArxivClient", "LazyPaper", "LlmHttpClient", "SemanticScholarClient", "StubLlm",
        "arxiv_review_query", "count_relevant", "fetch_arxiv_candidates",
        "fetch_monthly_citations", "fetch_topic_sample", "llm_topic_keyword",
    ),
    "snapshot": ("FeatureVector", "SnapshotStore"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .<module> import <name>` for a module named at run time, without
    # `importlib`, which would import `warnings` too
    value = getattr(__import__(_HOME[name], globals(), None, (name,), 1), name)
    globals()[name] = value  # found here from now on, without this hook
    return value
