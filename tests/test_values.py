"""Value semantics of the library's record and result classes: equality within
one class, repr, hashing of the frozen ones and immutability."""

from __future__ import annotations

from datetime import date, datetime
from types import SimpleNamespace

import pytest

from litmetrics.analysis import (
    CorrelationResult,
    DescriptiveStats,
    FeatureTrend,
    RobustnessGroup,
    RobustnessResult,
)
from litmetrics.demo import DemoCorpus
from litmetrics.extraction import Chunk, StructuredDocument
from litmetrics.indicators import (
    AgingPolynomial,
    BezierTrend,
    CitationSeries,
    ExponentialFit,
    IndicatorReport,
    RqmInputs,
    RuiWeights,
)
from litmetrics.jsonio import utc_now
from litmetrics.pipeline import BatchItem, ScoringEngine
from litmetrics.retrieval import PaperRecord, TopicContext, TransportResponse
from litmetrics.snapshot import FeatureVector, ImportResult

STORE, CLIENT = object(), object()
WHEN = datetime(2024, 1, 1)


def fields(**values):
    """Constructor arguments, which are also every field, in field order; a
    fresh copy of each list and dict per call."""
    return lambda: {k: type(v)(v) if isinstance(v, (list, dict)) else v
                    for k, v in values.items()}


FROZEN = [
    (ExponentialFit, fields(lam=0.5, sample_size=3)),
    (CitationSeries, fields(monthly_counts=(1, 2, 3), window_end=date(2024, 10, 1),
                            dropped_undated=1, dropped_year_only=0)),
    (BezierTrend, fields(control_points=((0.0, 1.0), (1.0, 2.0)))),
    (RqmInputs, fields(arq=0.5, s_mp=4, beta=5.0)),
    (AgingPolynomial, fields(c3=-0.003, c2=0.001, c1=0.1267, c0=0.0129)),
    (RuiWeights, fields(p=10.0, q=5.0)),
    (TopicContext, fields(keyword="k", sample_citation_counts=(1, 2), k=10, fetched_at=WHEN,
                          provenance={"endpoint": "search"})),
    (TransportResponse, fields(status=200, body="{}")),
    (FeatureVector, fields(taxonomy=1, prisma=0, preliminary=1, benchmark=0, application=0,
                           discussion=1, structured_abstract=0)),
    (DescriptiveStats, fields(max=3.0, min=1.0, mean=2.0, median=2.0, mode=1.0)),
    (CorrelationResult, fields(pearson_r=0.1, pearson_p=0.2, spearman_rho=0.3, spearman_p=0.4,
                               n=5, method_note="note")),
    (FeatureTrend, fields(years=(2020,), raw={"a": (0.5,)}, smoothed={"a": (0.25,)},
                          sigma=1.0)),
    (RobustnessGroup, fields(anchor="a", per_term={"b": 0.1})),
    (RobustnessResult, fields(groups=(RobustnessGroup("a", {"b": 0.1}),))),
    (Chunk, fields(text="t", oversized=True)),
]
MUTABLE = [
    (IndicatorReport, fields(tncsi=0.5, iei_avg=None, iei_instant=1.0, arq=None, s_mp=3,
                             rqm=None, cdr=None, rad=None, rui=None, topic_keyword="k",
                             sample_size=200, computed_at=WHEN, warnings=["w"])),
    (PaperRecord, fields(canonical_id="arxiv:1", title="T", abstract="", external_ids={},
                         publication_date=date(2023, 1, 1), venue=None, citation_count=4,
                         reference_ids=["s2:a"], author_count=2, topic_keyword="k",
                         retrieved_at=WHEN)),
    (ImportResult, fields(imported=2, corrupt=1)),
    # the engine's per-batch state is neither an argument nor shown
    (ScoringEngine, fields(store=STORE, s2=CLIENT, llm=None, now=date(2024, 10, 1), beta=5.0,
                           topic_k=100)),
    (BatchItem, fields(paper_id="p", report=None, error="e")),
    (StructuredDocument, fields(title="t", abstract="a", toc=["Intro"],
                                sections=[("Intro", "body")])),
    (DemoCorpus, fields(papers=[], references=[], exchanges=[{}], features={})),
]
ALL = FROZEN + MUTABLE


def outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("cls, args", ALL, ids=[cls.__name__ for cls, _ in ALL])
def test_equal_arguments_give_equal_instances_of_one_class_only(cls, args):
    one, two = cls(**args()), cls(**args())
    assert one == two and not one != two
    values = tuple(args().values())
    assert tuple(getattr(one, name) for name in args()) == values
    shown = ", ".join(f"{k}={v!r}" for k, v in args().items())
    assert repr(one) == f"{cls.__qualname__}({shown})"
    # the same fields under another class, or as a tuple, are not equal
    assert one != values and one != SimpleNamespace(**args())
    for other, other_args in ALL:
        if other is not cls:
            assert one != other(**other_args())


@pytest.mark.parametrize("cls, args", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_a_frozen_instance_hashes_by_its_fields_and_rejects_assignment(cls, args):
    one = cls(**args())
    # a dict field makes the instance unhashable, as it makes the tuple
    assert outcome(lambda: hash(one)) == outcome(lambda: hash(tuple(args().values())))
    if outcome(lambda: hash(one)) is not TypeError:
        assert hash(one) == hash(cls(**args()))
        assert len({one, cls(**args())}) == 1
    name = next(iter(args()))
    before = getattr(one, name)
    for change in (lambda: setattr(one, name, None), lambda: delattr(one, name),
                   lambda: setattr(one, "added", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(one, name) is before and not hasattr(one, "added")


@pytest.mark.parametrize("cls, args", MUTABLE, ids=[cls.__name__ for cls, _ in MUTABLE])
def test_a_mutable_instance_is_unhashable_and_assignable(cls, args):
    one = cls(**args())
    with pytest.raises(TypeError):
        hash(one)
    name = next(iter(args()))
    setattr(one, name, "changed")
    assert getattr(one, name) == "changed" and one != cls(**args())


def test_list_and_dict_defaults_are_new_for_each_instance():
    for make in (IndicatorReport, StructuredDocument,
                 lambda: PaperRecord("arxiv:1", "T"),
                 lambda: TopicContext("k", (1,), 1, WHEN)):
        one, two = make(), make()
        for name, value in vars(one).items():
            if isinstance(value, (list, dict)):
                assert value == type(value)() and value is not getattr(two, name)


def test_a_record_left_without_a_retrieval_time_takes_the_current_one():
    before = utc_now()
    assert before <= PaperRecord("arxiv:1", "T").retrieved_at <= utc_now()


@pytest.mark.parametrize("name", ["external_ids", "reference_ids"])
def test_a_null_list_or_mapping_is_still_rejected(name):
    with pytest.raises(ValueError, match=name):
        PaperRecord("arxiv:1", "T", **{name: None})


def test_replace_copies_a_record_with_one_field_changed_and_checks_it():
    record = PaperRecord(**MUTABLE[1][1]())
    changed = record.replace(topic_keyword="other")
    assert changed.topic_keyword == "other" and record.topic_keyword == "k"
    assert changed == PaperRecord(**{**MUTABLE[1][1](), "topic_keyword": "other"})
    with pytest.raises(ValueError, match="citation_count"):
        record.replace(citation_count=-1)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)
