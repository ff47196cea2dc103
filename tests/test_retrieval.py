"""Retrieval layer: query grammar, fixture replay, caching, laziness, pacing."""

from __future__ import annotations

import http.server
import itertools
import json
import re
import socket
import sys
import threading
import time
import urllib.parse
from datetime import date, datetime
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LEGACY_STORED_AT,
    CountingTransport,
    FlakyTransport,
    arxiv_exchange,
    make_legacy,
    s2_citations_exchange,
    s2_paper_exchange,
    s2_references_exchange,
    s2_search_exchange,
    with_body,
)
from litmetrics.errors import (
    EmptyKeyword,
    EmptyResult,
    InvalidDateRange,
    LitmetricsError,
    LlmUnavailable,
    MalformedResponse,
    NetworkError,
    NetworkForbidden,
    ParseError,
    RateLimited,
    UnknownPaper,
)
import litmetrics
from litmetrics import retrieval, snapshot
from litmetrics.pipeline import ScoringEngine, score_batch
from litmetrics.retrieval import (
    ArxivClient,
    DictCache,
    FixtureTransport,
    LazyPaper,
    LiveTransport,
    LlmHttpClient,
    OfflineTransport,
    PaperRecord,
    RateLimiter,
    SemanticScholarClient,
    StubLlm,
    arxiv_review_query,
    count_relevant,
    fetch_arxiv_candidates,
    fetch_monthly_citations,
    fetch_paper_record,
    fetch_references,
    fetch_topic_sample,
    llm_topic_keyword,
    parse_arxiv_feed,
)
from litmetrics.snapshot import SnapshotStore

NOW = date(2024, 10, 15)
WINDOW = {"publicationDateOrYear": "2023-01-01:2023-06-01"}


def s2_client(transport, rate=None):
    limiter = RateLimiter(rate) if rate else RateLimiter(10_000.0)
    return SemanticScholarClient(transport=transport, limiter=limiter)


def arxiv_client(transport):
    return ArxivClient(transport=transport, limiter=RateLimiter(10_000.0))


class TestQueryGrammar:
    KEYWORDS = [
        ("Object Detection", "object detection"),
        ("NER", "ner"),
        ("Pose Estimation", "pose estimation"),
        ("Machine Translation", "machine translation"),
        ("GAN", "gan"),
        ("Few-Shot Learning", "few-shot learning"),
        ("speech recognition", "speech recognition"),
        ("Video Object Segmentation", "video object segmentation"),
        ("Knowledge Graph", "knowledge graph"),
        ("3D Reconstruction", "3d reconstruction"),
    ]

    @pytest.mark.parametrize("keyword,lowered", KEYWORDS)
    def test_byte_exact_template(self, keyword, lowered):
        expected = f'(ti:"review" OR ti:"survey") AND (ti:"{lowered}" OR abs:"{lowered}")'
        assert arxiv_review_query(keyword) == expected

    def test_empty_keyword(self):
        with pytest.raises(EmptyKeyword):
            arxiv_review_query("")
        with pytest.raises(EmptyKeyword):
            arxiv_review_query("   ")


FEED_ENTRIES = [
    {
        "arxiv_id": "2401.00001v2",
        "title": "A Survey on Object Detection",
        "abstract": "We survey object detection methods in depth.",
        "published": "2024-01-05",
        "authors": ["A", "B"],
    },
    {
        "arxiv_id": "2401.00002",
        "title": "A Review of Something Else",
        "abstract": "This abstract never mentions the topic at all.",
        "published": "2024-02-11",
    },
    {
        "arxiv_id": "2401.00003",
        "title": "Object Detection: A Review",
        "abstract": "Recent progress in object\n detection is reviewed.",
        "published": "2024-03-20",
    },
]


class TestArxivCandidates:
    def test_post_filter_keeps_matching_abstracts(self, fixture_transport_factory):
        query = arxiv_review_query("Object Detection")
        transport = fixture_transport_factory([arxiv_exchange(query, 25, FEED_ENTRIES)])
        records = fetch_arxiv_candidates(arxiv_client(transport), "Object Detection", 25)
        assert [r.canonical_id for r in records] == ["arxiv:2401.00001", "arxiv:2401.00003"]
        first = records[0]
        assert first.citation_count is None
        assert first.publication_date == date(2024, 1, 5)
        assert first.author_count == 2
        assert first.topic_keyword == "Object Detection"

    def test_zero_limit(self, fixture_transport_factory):
        transport = fixture_transport_factory([])
        assert fetch_arxiv_candidates(arxiv_client(transport), "anything", 0) == []

    def test_malformed_feed(self):
        with pytest.raises(ParseError):
            parse_arxiv_feed("<feed><entry></fe")

    def test_caching_is_idempotent(self, fixture_transport_factory):
        query = arxiv_review_query("Object Detection")
        inner = fixture_transport_factory([arxiv_exchange(query, 25, FEED_ENTRIES)])
        counting = CountingTransport(inner)
        cache = DictCache()
        client = arxiv_client(counting)
        first = fetch_arxiv_candidates(client, "Object Detection", 25, cache=cache)
        second = fetch_arxiv_candidates(client, "Object Detection", 25, cache=cache)
        assert counting.count == 1
        assert [r.to_canonical_json() for r in first] == [r.to_canonical_json() for r in second]


class TestTopicSample:
    def test_counts_from_fixture(self, fixture_transport_factory):
        data = [{"citationCount": c} for c in [0, 3, 9, 1, 0]]
        transport = fixture_transport_factory(
            [s2_search_exchange("diffusion models", "citationCount", data, limit=5)]
        )
        ctx = fetch_topic_sample(s2_client(transport), "diffusion models", k=5)
        assert sorted(ctx.sample_citation_counts) == [0, 0, 1, 3, 9]
        assert ctx.k == 5
        assert ctx.provenance["endpoint"] == "graph/paper/search"

    def test_single_hit(self, fixture_transport_factory):
        transport = fixture_transport_factory(
            [s2_search_exchange("niche topic", "citationCount", [{"citationCount": 7}], limit=1)]
        )
        ctx = fetch_topic_sample(s2_client(transport), "niche topic", k=1)
        assert ctx.sample_citation_counts == (7,)

    def test_empty_result(self, fixture_transport_factory):
        transport = fixture_transport_factory(
            [s2_search_exchange("unknown keyword", "citationCount", [], limit=10)]
        )
        with pytest.raises(EmptyResult):
            fetch_topic_sample(s2_client(transport), "unknown keyword", k=10)

    def test_pagination_follows_next(self, fixture_transport_factory):
        page1 = s2_search_exchange(
            "big topic", "citationCount",
            [{"citationCount": i} for i in range(100)], offset=0, limit=100, next_offset=100,
        )
        page2 = s2_search_exchange(
            "big topic", "citationCount",
            [{"citationCount": 100}], offset=100, limit=50, next_offset=None,
        )
        transport = fixture_transport_factory([page1, page2])
        ctx = fetch_topic_sample(s2_client(transport), "big topic", k=150)
        assert len(ctx.sample_citation_counts) == 101

    def test_a_hit_without_a_count_counts_zero(self):
        page = s2_search_exchange("topic", "citationCount",
                                  [{"citationCount": 4}, {}, {"citationCount": None}], limit=3)
        ctx = fetch_topic_sample(s2_client(FixtureTransport.from_pairs([page])), "topic", k=3)
        assert ctx.sample_citation_counts == (4, 0, 0)

    def test_a_page_with_more_hits_than_asked_for_is_cut_at_k(self):
        data = [{"citationCount": c} for c in [5, 6, 7, 8]]
        page = s2_search_exchange("topic", "citationCount", data, limit=3, next_offset=3)
        transport = FixtureTransport.from_pairs([page])
        ctx = fetch_topic_sample(s2_client(transport), "topic", k=3)
        assert ctx.sample_citation_counts == (5, 6, 7)


class TestMonthlyCitations:
    def test_bucketing_with_leading_zeros(self, fixture_transport_factory):
        citing = ["2024-07-02", "2024-08-15", "2024-08-20", "2024-09-01", "2024-09-02",
                  "2024-09-30"]
        transport = fixture_transport_factory([s2_citations_exchange("p1", citing)])
        series = fetch_monthly_citations(s2_client(transport), "p1", 6, now=NOW)
        assert series.monthly_counts == (0, 0, 0, 1, 2, 3)
        assert series.window_end == date(2024, 10, 1)
        assert series.dropped_undated == 0

    def test_no_citations(self, fixture_transport_factory):
        transport = fixture_transport_factory([s2_citations_exchange("p2", [])])
        series = fetch_monthly_citations(s2_client(transport), "p2", 6, now=NOW)
        assert series.monthly_counts == (0, 0, 0, 0, 0, 0)

    def test_undated_citers_are_dropped_and_tallied(self, fixture_transport_factory):
        citing = ["2024-09-10", None, "2024-08-01"]
        transport = fixture_transport_factory([s2_citations_exchange("p3", citing)])
        series = fetch_monthly_citations(s2_client(transport), "p3", 6, now=NOW)
        assert series.monthly_counts == (0, 0, 0, 0, 1, 1)
        assert series.dropped_undated == 1

    def test_current_month_excluded(self, fixture_transport_factory):
        citing = ["2024-10-01", "2024-09-15"]
        transport = fixture_transport_factory([s2_citations_exchange("p4", citing)])
        series = fetch_monthly_citations(s2_client(transport), "p4", 6, now=NOW)
        assert series.monthly_counts == (0, 0, 0, 0, 0, 1)

    def test_citations_are_cached_as_a_month_histogram(self, fixture_transport_factory):
        citing = ["2024-09-10", "2024-09-30T23:59:59Z", "2024-08", None, "", "2023",
                  "2031-01-01"]
        transport = fixture_transport_factory([s2_citations_exchange("p5", citing)])
        cache = DictCache()
        series = fetch_monthly_citations(s2_client(transport), "p5", 6, now=NOW, cache=cache)
        assert series.monthly_counts == (0, 0, 0, 0, 1, 2)
        assert (series.dropped_undated, series.dropped_year_only) == (2, 1)
        # the future month is kept; it falls outside every window before it
        assert [json.loads(p) for p in cache.data.values()] == [
            {"months": {"2024-08": 1, "2024-09": 2, "2031-01": 1}, "undated": 2,
             "year_only": 1}]

    def test_a_year_only_citer_is_dropped_and_its_payload_served(
            self, fixture_transport_factory):
        exchange = s2_citations_exchange("p6", ["2024", "2024-08-02"])
        counting = CountingTransport(fixture_transport_factory([exchange]))
        cache = DictCache()
        client = s2_client(counting)
        for _ in range(2):
            series = fetch_monthly_citations(client, "p6", 6, now=NOW, cache=cache)
            assert series.monthly_counts == (0, 0, 0, 0, 1, 0)
            assert (series.dropped_undated, series.dropped_year_only) == (0, 1)
        assert (counting.count, len(cache.data)) == (1, 1)

    @pytest.mark.parametrize("citing, cached", [
        (["2024-09-10", "2024-08", None, "2023", "2024-05-31"],
         '{"months":{"2024-05":1,"2024-08":1,"2024-09":1},"undated":1,"year_only":1}'),
        (["2024-09-10", "2024-13-40"], None),
    ], ids=["converted", "dropped"])
    def test_dates_cached_before_months_are_still_served(self, tmp_path, citing, cached):
        # the upgrade turns the citing dates into the months they count in,
        # or drops them when a date fails the rule, as a fetch of them would
        path = tmp_path / "s.db"
        SnapshotStore(path).close()
        key = retrieval.canonical_json({"op": "citations", "paper_id": "p7"})
        make_legacy(path, 2, payloads={key: retrieval.canonical_json({"citing_dates": citing})})
        offline = OfflineTransport()
        with SnapshotStore(path) as store:
            assert store._conn.execute("SELECT payload, stored_at FROM api_cache").fetchall() == (
                [(cached, LEGACY_STORED_AT)] if cached else [])
            if cached:
                fresh = FixtureTransport.from_pairs([s2_citations_exchange("p7", citing)])
                assert fetch_monthly_citations(s2_client(offline), "p7", 6, now=NOW,
                                               cache=store) == fetch_monthly_citations(
                    s2_client(fresh), "p7", 6, now=NOW)
            else:
                with pytest.raises(NetworkForbidden):
                    fetch_monthly_citations(s2_client(offline), "p7", 6, now=NOW, cache=store)
        assert offline.attempts == (0 if cached else 1)

    def test_a_next_that_does_not_advance_ends_the_paging(self):
        exchange = s2_citations_exchange("p8", ["2024-09-01"], next_offset=0)
        counting = CountingTransport(FixtureTransport.from_pairs([exchange]), max_calls=3)
        cache = DictCache()
        with pytest.raises(ParseError, match="malformed citations payload: page at offset 0 "
                                             "names next 0, not one past it"):
            fetch_monthly_citations(s2_client(counting), "p8", 6, now=NOW, cache=cache)
        assert (counting.count, cache.data) == (1, {})


def date_rule(raw) -> tuple[str, tuple[int, int] | None]:
    """The citing-date rule, stated apart from the program: ("month", (y, m)),
    ("undated", None), ("year_only", None) or ("bad", None)."""
    if raw is None or raw == "":
        return "undated", None
    if not isinstance(raw, str):
        return "bad", None
    if re.fullmatch(r"[0-9]{4}", raw):
        return "year_only", None
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}", raw):
        text, fmt = raw, "%Y-%m"
    else:
        text, fmt = raw[:10], "%Y-%m-%d"
    try:
        d = datetime.strptime(text, fmt)
    except ValueError:
        return "bad", None
    return "month", (d.year, d.month)


def bucketed(citing: list, now: date, window: int = 6) -> tuple[tuple[int, ...], int, int]:
    """(monthly counts, undated, year-only) of the window before ``now``'s month."""
    end = now.year * 12 + now.month - 1
    counts = [0] * window
    tally = {"undated": 0, "year_only": 0}
    for raw in citing:
        kind, month = date_rule(raw)
        if kind == "month":
            i = month[0] * 12 + month[1] - 1 - (end - window)
            if 0 <= i < window:
                counts[i] += 1
        else:
            tally[kind] += 1
    return tuple(counts), tally["undated"], tally["year_only"]


_days = st.dates(min_value=date(1990, 1, 1), max_value=date(2031, 12, 31))
CITING_DATES = st.lists(st.one_of(
    _days.map(str),
    _days.map(lambda d: f"{d}T08:30:00Z"),
    _days.map(lambda d: d.strftime("%Y-%m")),
    _days.map(lambda d: str(d.year)),
    st.sampled_from([None, ""]),
), max_size=40)
GARBAGE = st.one_of(
    st.sampled_from(["2024-13-40", "abc", "2024-02-30", "2024-00", "2024-1", "24-01-01",
                     " 2024-01-05", "0000-01"]),
    st.integers(),
    st.text(alphabet="0123456789-T: ", max_size=12),
)
NOWS = (date(2024, 10, 15), date(2025, 1, 1), date(2031, 6, 30))


class TestCitationDateRuleProperties:
    @settings(max_examples=60, deadline=None)
    @given(citing=CITING_DATES)
    def test_the_series_is_the_bucketing_of_the_dates_for_every_now(self, citing):
        exchange = s2_citations_exchange("pH", citing)
        counting = CountingTransport(FixtureTransport.from_pairs([exchange]))
        cache = DictCache()
        for now in NOWS:
            series = fetch_monthly_citations(s2_client(counting), "pH", 6, now=now, cache=cache)
            assert (series.monthly_counts, series.dropped_undated,
                    series.dropped_year_only) == bucketed(citing, now)
        assert counting.count == 1

    @settings(max_examples=80, deadline=None)
    @given(citing=CITING_DATES, garbage=st.lists(GARBAGE, max_size=2),
           at=st.integers(min_value=0))
    def test_only_typed_errors_leave_and_a_raise_caches_nothing(self, citing, garbage, at):
        for value in garbage:
            citing.insert(at % (len(citing) + 1), value)
        bad = any(date_rule(raw)[0] == "bad" for raw in citing)
        key = retrieval.canonical_json({"op": "citations", "paper_id": "pG"})
        client = s2_client(FixtureTransport.from_pairs([s2_citations_exchange("pG", citing)]))
        cache = DictCache()
        try:
            series = fetch_monthly_citations(client, "pG", 6, now=NOW, cache=cache)
        except LitmetricsError as exc:
            assert bad and isinstance(exc, ParseError)
            assert cache.data == {}
        else:
            assert not bad and key in cache.data
            assert (series.monthly_counts, series.dropped_undated,
                    series.dropped_year_only) == bucketed(citing, NOW)
        # the same through a scoring batch over a store
        store = SnapshotStore(":memory:")
        store.upsert_paper(PaperRecord(
            canonical_id="s2:pG", title="A Survey", external_ids={"s2": "pG"},
            topic_keyword="kw", retrieved_at=datetime(2024, 10, 1)))
        engine = ScoringEngine(store=store, s2=client, now=NOW)
        (item,) = score_batch(engine, ["s2:pG"], ["iei"], workers=1)
        assert (item.error or "").startswith("ParseError") == bad
        assert (store.cache_get(key) is None) == bad
        store.close()


class TestCountRelevant:
    def test_half_open_window(self, fixture_transport_factory):
        hits = [
            {"publicationDate": "2023-01-01"},  # in
            {"publicationDate": "2023-05-31"},  # in
            {"publicationDate": "2023-06-01"},  # out: right edge exclusive
            {"publicationDate": "2022-12-31"},  # out
            {"publicationDate": None},          # out: undated
            {"publicationDate": "2023-03-03"},  # in
            {"publicationDate": "2023-04-04"},  # in
        ]
        transport = fixture_transport_factory([
            s2_search_exchange(
                "object detection", "publicationDate", hits,
                extra={"publicationDateOrYear": "2023-01-01:2023-06-01"},
            )
        ])
        n = count_relevant(
            s2_client(transport), "object detection", date(2023, 1, 1), date(2023, 6, 1)
        )
        assert n == (4, None)  # no `total`: the paging reached every hit

    def test_empty_interval(self, fixture_transport_factory):
        transport = fixture_transport_factory([])
        assert count_relevant(s2_client(transport), "x", NOW, NOW) == (0, None)

    def test_reversed_dates(self, fixture_transport_factory):
        transport = fixture_transport_factory([])
        with pytest.raises(InvalidDateRange):
            count_relevant(s2_client(transport), "x", date(2024, 2, 1), date(2024, 1, 1))

    @pytest.mark.parametrize("total, payload", [(1000, {"count": 900}),
                                                (4321, {"count": 900, "total": 4321})])
    def test_a_search_its_paging_cannot_finish_caches_its_total(
            self, fixture_transport_factory, total, payload):
        window = {"publicationDateOrYear": "2023-01-01:2023-06-01"}
        hits = [{"publicationDate": "2023-02-01"}] * 90 + [{"publicationDate": None}] * 10
        # the relevance search serves ten pages of 100 and no `next` after them
        pages = [s2_search_exchange("kw", "publicationDate", hits, offset=offset,
                                    extra=window, total=total,
                                    next_offset=offset + 100 if offset < 900 else None)
                 for offset in range(0, 1000, 100)]
        cache = DictCache()
        n = count_relevant(s2_client(fixture_transport_factory(pages)), "kw",
                           date(2023, 1, 1), date(2023, 6, 1), cache=cache)
        assert n == (900, payload.get("total"))
        assert [json.loads(p) for p in cache.data.values()] == [payload]


class TestLlmTopicKeyword:
    def test_stub_canned_response(self):
        stub = StubLlm({"Few-shot Object Detection: a Survey": "few-shot object detection"})
        kw = llm_topic_keyword(
            "Few-shot Object Detection: a Survey", "We survey FSOD.", stub
        )
        assert kw == "few-shot object detection"

    def test_refusal_is_malformed(self):
        stub = StubLlm({}, default="I'm sorry, but there is no content to analyze.")
        with pytest.raises(MalformedResponse):
            llm_topic_keyword("", "", stub)

    def test_multiline_is_malformed(self):
        stub = StubLlm({}, default="topic one\ntopic two")
        with pytest.raises(MalformedResponse):
            llm_topic_keyword("t", "a", stub)

    def test_braces_in_title_are_safe(self):
        stub = StubLlm({"The {X} Framework": "structured state spaces"})
        assert llm_topic_keyword("The {X} Framework", "a", stub) == "structured state spaces"

    def test_hash_key_lookup(self):
        from litmetrics.retrieval import _topic_messages

        # pinned, so that a change to the prompt fails here and not only in
        # the canned tables keyed by its hash
        key = StubLlm.key_for(_topic_messages("T", "A"))
        assert key == "25e931a6e40c7197"
        stub = StubLlm({key: "graph neural networks"})
        assert llm_topic_keyword("T", "A", stub) == "graph neural networks"

    def test_stub_without_match_raises(self):
        with pytest.raises(LlmUnavailable):
            llm_topic_keyword("T", "A", StubLlm({}))

    def test_http_client_parses_chat_payload(self, fixture_transport_factory):
        from litmetrics.jsonio import canonical_json
        from litmetrics.retrieval import _topic_messages

        messages = _topic_messages("T", "A")
        body = canonical_json({"model": "m", "messages": messages, "temperature": 0})
        exchange = {
            "request": {
                "method": "POST",
                "url": "https://llm.example/v1/chat/completions",
                "params": {},
                "body": body,
            },
            "response": {
                "status": 200,
                "body": '{"choices": [{"message": {"content": "  neural rendering "}}]}',
            },
        }
        transport = fixture_transport_factory([exchange])
        client = LlmHttpClient(
            "https://llm.example/v1", model="m", transport=transport,
            limiter=RateLimiter(10_000.0),
        )
        assert llm_topic_keyword("T", "A", client) == "neural rendering"


class TestLazyLoading:
    PAPER = {
        "paperId": "abc123",
        "externalIds": {"ArXiv": "2401.00001", "DOI": "10.1/x"},
        "title": "A Survey on Object Detection",
        "abstract": "We survey detection.",
        "publicationDate": "2024-01-05",
        "venue": "arXiv",
        "citationCount": 42,
        "authors": [{"name": "A"}, {"name": "B"}],
    }

    def test_construction_issues_zero_requests(self, fixture_transport_factory):
        inner = fixture_transport_factory([s2_paper_exchange("ARXIV:2401.00001", self.PAPER)])
        counting = CountingTransport(inner)
        client = s2_client(counting)
        handle = LazyPaper("ARXIV:2401.00001", client)
        assert counting.count == 0
        assert handle.paper_id == "ARXIV:2401.00001"

    def test_first_access_fetches_exactly_once(self, fixture_transport_factory):
        inner = fixture_transport_factory([s2_paper_exchange("ARXIV:2401.00001", self.PAPER)])
        counting = CountingTransport(inner)
        handle = LazyPaper("ARXIV:2401.00001", s2_client(counting))
        assert handle.title == "A Survey on Object Detection"
        assert handle.citation_count == 42
        assert handle.publication_date == date(2024, 1, 5)
        assert counting.count == 1
        assert handle.record.canonical_id == "arxiv:2401.00001"

    def test_client_construction_is_network_free(self):
        # no transport configured at all: nothing to hit unless used
        client = SemanticScholarClient(transport=OfflineTransport())
        arxiv = ArxivClient(transport=OfflineTransport())
        llm = LlmHttpClient("https://llm.example/v1", transport=OfflineTransport())
        assert client.transport.attempts == 0
        assert arxiv.transport.attempts == 0
        assert llm.transport.attempts == 0


class TestRateLimiter:
    RATE = 25.0
    N = 40

    def request_stamps(self, fixture_transport_factory) -> list[float]:
        """Sorted send times of N requests from 4 threads through one limiter."""
        exchanges = [s2_citations_exchange(f"p{i}", []) for i in range(self.N)]
        counting = CountingTransport(fixture_transport_factory(exchanges))
        client = SemanticScholarClient(transport=counting, limiter=RateLimiter(self.RATE))

        def worker(ids):
            for pid in ids:
                fetch_monthly_citations(client, pid, 6, now=NOW)

        ids = [f"p{i}" for i in range(self.N)]
        threads = [threading.Thread(target=worker, args=(ids[i::4],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        return sorted(ts for ts, _ in counting.calls)

    def assert_within_budget(self, stamps: list[float]) -> None:
        assert len(stamps) == self.N
        # shrink the window a little so scheduling jitter cannot drag the
        # request sitting exactly on the 1-second boundary into the count
        window = 1.0 - 0.02
        for start in stamps:
            in_window = sum(1 for s in stamps if start <= s < start + window)
            assert in_window <= self.RATE
        assert stamps[-1] - stamps[0] >= (self.N - 1) / self.RATE - 0.05

    def test_pacing_respects_budget(self, fixture_transport_factory):
        # 40 requests from 4 threads at 25 rps must spread over >= 1.5 s and
        # never put more than 25 requests into any sliding 1-second window
        self.assert_within_budget(self.request_stamps(fixture_transport_factory))

    def test_late_wakes_do_not_let_later_callers_burst(self, fixture_transport_factory,
                                                       monkeypatch):
        # two sleeps wake 0.1 s late; the callers queued behind them must not
        # then go out on a schedule set before they woke
        sleeps = itertools.count(1)

        def late_sleep(seconds):
            time.sleep(seconds + (0.1 if next(sleeps) in (5, 6) else 0.0))

        monkeypatch.setattr(retrieval, "time",
                            SimpleNamespace(monotonic=time.monotonic, sleep=late_sleep))
        self.assert_within_budget(self.request_stamps(fixture_transport_factory))
        assert next(sleeps) > 6

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)


class TestRetries:
    def test_recovers_from_transient_failures(self, fixture_transport_factory):
        query = arxiv_review_query("object detection")
        inner = fixture_transport_factory([arxiv_exchange(query, 5, FEED_ENTRIES[:1])])
        flaky = FlakyTransport(inner, failures=2)
        import litmetrics.retrieval as retrieval_mod

        original = retrieval_mod.RETRY_BASE_DELAY
        retrieval_mod.RETRY_BASE_DELAY = 0.0
        try:
            records = fetch_arxiv_candidates(
                ArxivClient(transport=flaky, limiter=RateLimiter(10_000.0)),
                "object detection",
                5,
            )
        finally:
            retrieval_mod.RETRY_BASE_DELAY = original
        assert len(records) == 1
        assert flaky.attempts == 3

    def test_persistent_429_raises_rate_limited(self, fixture_transport_factory):
        inner = fixture_transport_factory([])
        flaky = FlakyTransport(inner, failures=99, status=429)
        import litmetrics.retrieval as retrieval_mod

        original = retrieval_mod.RETRY_BASE_DELAY
        retrieval_mod.RETRY_BASE_DELAY = 0.0
        try:
            with pytest.raises(RateLimited):
                fetch_topic_sample(
                    SemanticScholarClient(transport=flaky, limiter=RateLimiter(10_000.0)),
                    "x",
                    k=5,
                )
        finally:
            retrieval_mod.RETRY_BASE_DELAY = original
        assert flaky.attempts == 3

    def test_offline_transport_refuses_immediately(self):
        transport = OfflineTransport()
        client = SemanticScholarClient(transport=transport, limiter=RateLimiter(10_000.0))
        with pytest.raises(NetworkForbidden):
            fetch_topic_sample(client, "x", k=5)
        assert transport.attempts == 1  # no retries on forbidden traffic

    def test_cache_hit_never_touches_offline_transport(self, fixture_transport_factory):
        data = [{"citationCount": 4}]
        live = fixture_transport_factory(
            [s2_search_exchange("topic", "citationCount", data, limit=5)]
        )
        cache = DictCache()
        ctx1 = fetch_topic_sample(s2_client(live), "topic", k=5, cache=cache)
        offline = OfflineTransport()
        ctx2 = fetch_topic_sample(s2_client(offline), "topic", k=5, cache=cache)
        assert offline.attempts == 0
        assert ctx1.sample_citation_counts == ctx2.sample_citation_counts
        assert ctx1.fetched_at == ctx2.fetched_at


class _LoopbackServer(http.server.ThreadingHTTPServer):
    """Serves `replies` in order and records every request it reads."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.replies: list[tuple[int, dict, bytes]] = []
        self.seen: list[tuple[str, str, dict, bytes]] = []
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


class _LoopbackHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.seen.append((self.command, self.path, dict(self.headers), body))
        status, headers, payload = self.server.replies.pop(0)
        self.send_response(status)
        headers = {"Content-Length": str(len(payload)), **headers}
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    do_POST = do_GET

    def log_message(self, *args):
        pass


@pytest.fixture
def no_proxies(monkeypatch):
    """urllib honours the proxy variables; loopback requests must go direct."""
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def loopback(no_proxies):
    server = _LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


class TestLiveTransport:
    """urllib against an HTTP server on 127.0.0.1; nothing leaves the host."""

    TEXT = {"Content-Type": "text/plain"}

    def test_a_404_comes_back_as_a_status_and_the_client_names_it(self, loopback):
        loopback.replies += [(404, self.TEXT, b"no such paper")] * 2
        resp = LiveTransport().request("GET", loopback.url + "/paper/x", {}, {})
        assert (resp.status, resp.body) == (404, "no such paper")
        client = SemanticScholarClient(transport=LiveTransport(), base_url=loopback.url,
                                       limiter=RateLimiter(10_000.0))
        with pytest.raises(UnknownPaper):
            client.paper("x")
        assert len(loopback.seen) == 2

    def test_a_429_then_200_is_retried_once(self, loopback):
        loopback.replies += [(429, self.TEXT, b"slow down"), (200, self.TEXT, b"ok")]
        sleeps = []
        resp = retrieval._request_with_retries(LiveTransport(), None, "GET", loopback.url,
                                               {}, {}, sleep=sleeps.append)
        assert (resp.status, resp.body) == (200, "ok")
        assert len(sleeps) == 1 and len(loopback.seen) == 2

    def test_a_503_is_retried_then_raised(self, loopback):
        loopback.replies += [(503, self.TEXT, b"down")] * retrieval.RETRY_ATTEMPTS
        with pytest.raises(NetworkError, match="returned 503"):
            retrieval._request_with_retries(LiveTransport(), None, "GET", loopback.url,
                                            {}, {}, sleep=lambda s: None)
        assert len(loopback.seen) == retrieval.RETRY_ATTEMPTS

    def test_a_timeout_is_a_network_error(self, no_proxies):
        # the listen backlog takes the connection, but nothing ever answers
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen(1)
            url = f"http://127.0.0.1:{silent.getsockname()[1]}/"
            with pytest.raises(NetworkError, match="timed out"):
                LiveTransport(timeout=0.2).request("GET", url, {}, {})

    def test_a_refused_port_is_a_network_error(self, no_proxies):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        with pytest.raises(NetworkError, match="refused"):
            LiveTransport(timeout=5).request("GET", f"http://127.0.0.1:{port}/", {}, {})

    def test_a_body_cut_short_is_a_network_error(self, loopback):
        loopback.replies.append((200, {"Content-Length": "100"}, b"short"))
        with pytest.raises(NetworkError):
            LiveTransport().request("GET", loopback.url, {}, {})

    def test_params_are_url_encoded(self, loopback):
        loopback.replies.append((200, self.TEXT, b"{}"))
        params = {"query": "graph neural networks & co/ü", "offset": 0, "limit": 100}
        LiveTransport().request("GET", loopback.url + "/paper/search", params, {})
        path = loopback.seen[0][1]
        assert path == ("/paper/search?query=graph+neural+networks+%26+co%2F%C3%BC"
                        "&offset=0&limit=100")
        assert urllib.parse.parse_qs(urllib.parse.urlsplit(path).query) == {
            k: [str(v)] for k, v in params.items()}

    def test_a_post_sends_its_body_as_utf8_with_its_headers(self, loopback):
        loopback.replies.append((200, {"Content-Type": "application/json"}, b'{"a": 1}'))
        body = '{"prompt": "résumé"}'
        headers = {"Content-Type": "application/json", "Authorization": "Bearer k"}
        resp = LiveTransport().request("POST", loopback.url + "/chat", {}, headers, body)
        assert (resp.status, resp.body) == (200, '{"a": 1}')
        method, path, sent, data = loopback.seen[0]
        assert (method, path, data) == ("POST", "/chat", body.encode("utf-8"))
        assert sent["Content-Type"] == "application/json"
        assert sent["Authorization"] == "Bearer k"
        assert sent["Content-Length"] == str(len(body.encode("utf-8")))
        assert sent["User-Agent"] == f"litmetrics/{litmetrics.__version__}"

    @pytest.mark.parametrize("content_type, payload, text", [
        ("text/plain; charset=latin-1", "café".encode("latin-1"), "café"),
        ("text/plain", "café".encode("utf-8"), "café"),
        ("text/plain; charset=no-such-codec", "café".encode("utf-8"), "café"),
        ("text/plain", b"caf\xe9", "caf\ufffd"),
    ])
    def test_the_body_is_decoded_by_its_charset(self, loopback, content_type, payload, text):
        loopback.replies.append((200, {"Content-Type": content_type}, payload))
        assert LiveTransport().request("GET", loopback.url, {}, {}).body == text


class TestCacheIdempotenceAllOps:
    """Repeating any fetch with the cache enabled is request-free and
    byte-stable, except a reference list, which is never cached: its caller
    keeps the ids."""

    def test_monthly_citations(self, fixture_transport_factory):
        inner = fixture_transport_factory(
            [s2_citations_exchange("pX", ["2024-09-01", "2024-08-02"])]
        )
        counting = CountingTransport(inner)
        cache = DictCache()
        client = s2_client(counting)
        first = fetch_monthly_citations(client, "pX", 6, now=NOW, cache=cache)
        second = fetch_monthly_citations(client, "pX", 6, now=NOW, cache=cache)
        assert counting.count == 1
        assert first == second

    def test_count_relevant(self, fixture_transport_factory):
        hits = [{"publicationDate": "2023-02-01"}] * 3
        inner = fixture_transport_factory([
            s2_search_exchange("kw", "publicationDate", hits,
                               extra={"publicationDateOrYear": "2023-01-01:2023-06-01"})
        ])
        counting = CountingTransport(inner)
        cache = DictCache()
        client = s2_client(counting)
        args = (client, "kw", date(2023, 1, 1), date(2023, 6, 1))
        assert count_relevant(*args, cache=cache) == (3, None)
        assert count_relevant(*args, cache=cache) == (3, None)
        assert counting.count == 1

    def test_paper_record_and_references_are_fetched_each_time(self, fixture_transport_factory):
        from conftest import s2_references_exchange
        from litmetrics.retrieval import fetch_paper_record, fetch_references

        paper = {
            "paperId": "idem", "externalIds": {"ArXiv": "2401.77777"},
            "title": "T", "abstract": "A", "publicationDate": "2024-01-01",
            "venue": None, "citationCount": 5, "authors": [],
        }
        refs = [{"paperId": "q1", "externalIds": {}, "title": "Q1",
                 "publicationDate": "2020-01-01", "citationCount": 10}]
        inner = fixture_transport_factory([
            s2_paper_exchange("ARXIV:2401.77777", paper),
            s2_references_exchange("ARXIV:2401.77777", refs),
        ])
        counting = CountingTransport(inner)
        client = s2_client(counting)
        r1 = fetch_paper_record(client, "ARXIV:2401.77777")
        r2 = fetch_paper_record(client, "ARXIV:2401.77777")
        l1 = fetch_references(client, "ARXIV:2401.77777")
        l2 = fetch_references(client, "ARXIV:2401.77777")
        assert counting.count == 4  # neither is cached: `enrich` keeps them in rows
        assert (r1.canonical_id, r1.citation_count) == (r2.canonical_id, 5)
        assert [r.canonical_id for r in l1] == [r.canonical_id for r in l2] == ["s2:q1"]
        row = l1[0]
        assert (row.external_ids, row.title, row.publication_date, row.citation_count) == (
            {"s2": "q1"}, "Q1", date(2020, 1, 1), 10)


# every code point, and those that `\s` matches in a str pattern
_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
_REGEX_SPACES = "".join(re.findall(r"\s", _CODE_POINTS))


class TestCollapseWhitespace:
    def test_the_regex_and_str_split_split_at_the_same_code_points(self):
        assert len(_REGEX_SPACES) == 29
        assert _REGEX_SPACES == "".join(c for c in _CODE_POINTS if c.isspace())

    @given(st.text(st.sampled_from(_REGEX_SPACES + "a\u00e9-\u200b")) | st.text())
    def test_collapse_ws_is_the_regex_form(self, text):
        assert retrieval._collapse_ws(text) == re.sub(r"\s+", " ", text).strip()


class TestNothingUndecodableIsCached:
    """A payload that fails its checks (`PaperRecord`'s, or the citing-date
    rule), or holds a value of the wrong JSON type, raises `ParseError` on
    every call and leaves no cache entry behind."""

    @pytest.mark.parametrize("op", ["paper", "references", "citations"])
    def test_each_call_fetches_again_and_raises(self, fixture_transport_factory, tmp_path, op):
        from conftest import s2_references_exchange
        from litmetrics.retrieval import fetch_paper_record, fetch_references

        if op == "paper":
            paper = {"paperId": "fut", "externalIds": {"ArXiv": "2401.88888"}, "title": "F",
                     "publicationDate": "2999-01-01", "citationCount": 1}
            exchange = s2_paper_exchange("ARXIV:2401.88888", paper)
            fetch, message = (lambda client, pid, store: fetch_paper_record(client, pid)), (
                "publication_date cannot postdate retrieval")
        elif op == "references":
            refs = [{"paperId": "ok", "externalIds": {}, "title": "OK",
                     "publicationDate": "2020-01-01", "citationCount": 3},
                    {"paperId": "neg", "externalIds": {}, "title": "Neg",
                     "publicationDate": "2020-01-01", "citationCount": -1}]
            exchange = s2_references_exchange("ARXIV:2401.88888", refs)
            fetch, message = (lambda client, pid, store: fetch_references(client, pid)), (
                "citation_count must be non-negative")
        else:
            exchange = s2_citations_exchange("ARXIV:2401.88888", ["2024-08-02", "2024-13-40"])
            fetch, message = (lambda client, pid, store: fetch_monthly_citations(
                client, pid, 6, now=NOW, cache=store)), "citing date '2024-13-40'"
        counting = CountingTransport(fixture_transport_factory([exchange]))
        store = SnapshotStore(tmp_path / "s.db")
        client = s2_client(counting)
        for calls in (1, 2):
            with pytest.raises(ValueError, match=message) as raised:
                fetch(client, "ARXIV:2401.88888", store)
            assert isinstance(raised.value, ParseError)
            assert f"malformed {op} payload" in str(raised.value)
            assert counting.count == calls
        key = retrieval.canonical_json({"op": op, "paper_id": "ARXIV:2401.88888"})
        assert store.cache_get(key) is None
        assert store.paper_count() == 0

    @pytest.mark.parametrize("op, exchange", [
        ("citations", with_body(s2_citations_exchange("pW", []), {"offset": 0, "data": [1, 2]})),
        ("citations", with_body(s2_citations_exchange("pW", []),
                                [{"citingPaper": {"publicationDate": "2024-09-01"}}])),
        ("citations", with_body(s2_citations_exchange("pW", []),
                                {"offset": 0, "data": [{"citingPaper": 5}]})),
        ("topic_sample", with_body(s2_search_exchange("kw", "citationCount", [], limit=5),
                                   {"offset": 0, "data": [1]})),
        ("paper", s2_paper_exchange("pW", {"paperId": "pW", "externalIds": ["ArXiv"],
                                           "title": "T"})),
        ("paper", s2_paper_exchange("pW", {"paperId": "pW", "title": 5})),
        ("paper", s2_paper_exchange("pW", {"paperId": "pW", "title": "T", "venue": {"a": 1}})),
        # Python's JSON parser reads the non-standard `Infinity`
        ("count_relevant", with_body(s2_search_exchange("kw", "publicationDate", [],
                                                        extra=WINDOW),
                                     {"data": [{"publicationDate": "2023-02-01"}],
                                      "total": float("inf")})),
        *(("topic_sample", s2_search_exchange(
            "kw", "citationCount", [{"citationCount": 3}, {"citationCount": count}], limit=5))
          for count in (1.5, True, "7", -5)),
        *(("references", s2_references_exchange("pW", [
            {"paperId": "q0", "externalIds": {}, "title": "Q0",
             "publicationDate": "2020-01-01", "citationCount": count}]))
          for count in (1.5, float("inf"), True)),
    ], ids=["data-of-numbers", "body-an-array", "citing-paper-a-number", "topic-data-of-numbers",
            "external-ids-a-list", "title-a-number", "venue-an-object", "total-infinite",
            "topic-count-fractional", "topic-count-a-bool", "topic-count-a-string",
            "topic-count-negative", "reference-count-fractional",
            "reference-count-infinite", "reference-count-a-bool"])
    def test_a_value_of_the_wrong_json_type_raises_parse_error(self, op, exchange):
        fetch = {
            "citations": lambda client, cache: fetch_monthly_citations(
                client, "pW", 6, now=NOW, cache=cache),
            "topic_sample": lambda client, cache: fetch_topic_sample(client, "kw", 5, cache),
            "paper": lambda client, cache: fetch_paper_record(client, "pW"),
            "count_relevant": lambda client, cache: count_relevant(
                client, "kw", date(2023, 1, 1), date(2023, 6, 1), cache),
            "references": lambda client, cache: fetch_references(client, "pW"),
        }[op]
        cache = DictCache()
        with pytest.raises(ParseError, match=f"malformed {op} payload: "):
            fetch(s2_client(FixtureTransport.from_pairs([exchange])), cache)
        assert cache.data == {}

    def test_a_topic_count_cached_before_counts_were_checked_raises_parse_error(self):
        cache = DictCache()
        key = retrieval.canonical_json({"op": "topic_sample", "keyword": "kw", "k": 5})
        cache.cache_put(key, retrieval.canonical_json(
            {"counts": [3, -5], "fetched_at": "2024-10-01T00:00:00Z", "provenance": {}}))
        with pytest.raises(ParseError, match="malformed topic_sample payload: "
                                             "citationCount must be non-negative"):
            fetch_topic_sample(s2_client(OfflineTransport()), "kw", 5, cache)


    def test_a_payload_rejected_when_cached_is_replaced_by_a_fresh_one(self, tmp_path,
                                                                        monkeypatch):
        key = retrieval.canonical_json({"op": "topic_sample", "keyword": "kw", "k": 5})
        stale = retrieval.canonical_json(
            {"counts": [3, -5], "fetched_at": "2024-09-01T00:00:00Z", "provenance": {}})
        store = SnapshotStore(tmp_path / "s.db")
        monkeypatch.setattr(snapshot, "utc_now", lambda: datetime(2024, 9, 1))
        store.cache_put(key, stale)
        store.write()
        monkeypatch.setattr(snapshot, "utc_now", lambda: datetime(2024, 10, 1))
        counting = CountingTransport(FixtureTransport.from_pairs([s2_search_exchange(
            "kw", "citationCount", [{"citationCount": 3}, {"citationCount": 5}], limit=5)]))
        client = s2_client(counting)
        assert fetch_topic_sample(client, "kw", 5, store).sample_citation_counts == (3, 5)
        store.write()
        assert counting.count == 1
        payload, stored_at = store._conn.execute(
            "SELECT payload, stored_at FROM api_cache WHERE key = ?", (key,)).fetchone()
        assert json.loads(payload)["counts"] == [3, 5]
        assert stored_at == "2024-10-01T00:00:00Z"
        assert fetch_topic_sample(client, "kw", 5, store).sample_citation_counts == (3, 5)
        assert counting.count == 1


REFS = [{"paperId": f"q{i}", "externalIds": {"DOI": f"10.1/q{i}"}, "title": f"Q{i}",
         "publicationDate": "2020-01-01", "citationCount": i} for i in range(3)]
# per paged op: its valid pages, each but the last naming the next one's
# offset; the fetch; what the fetch returns from those pages, as the example
# tests above find it; and the object paths inside an item of a page that the
# op reads
PAGED_OPS = {
    "topic_sample": (
        [s2_search_exchange("kw", "citationCount", [{"citationCount": 3}, {"citationCount": 1}],
                            limit=5, next_offset=2),
         s2_search_exchange("kw", "citationCount", [{"citationCount": 7}], offset=2, limit=3)],
        lambda client, cache: fetch_topic_sample(
            client, "kw", 5, cache).sample_citation_counts,
        (3, 1, 7),
        [],
    ),
    "citations": (
        [s2_citations_exchange("pP", ["2024-09-01", "2024-08-15"], next_offset=100),
         s2_citations_exchange("pP", ["2024-09-30"], offset=100)],
        lambda client, cache: fetch_monthly_citations(
            client, "pP", 6, now=NOW, cache=cache).monthly_counts,
        (0, 0, 0, 0, 1, 2),
        [("citingPaper",)],
    ),
    "count_relevant": (
        [s2_search_exchange("kw", "publicationDate", [{"publicationDate": "2023-02-01"},
                                                      {"publicationDate": "2022-12-31"}],
                            extra=WINDOW, next_offset=100),
         s2_search_exchange("kw", "publicationDate", [{"publicationDate": "2023-05-31"}],
                            offset=100, extra=WINDOW)],
        lambda client, cache: count_relevant(
            client, "kw", date(2023, 1, 1), date(2023, 6, 1), cache),
        (2, None),
        [],
    ),
    "references": (
        [s2_references_exchange("pP", REFS[:2], next_offset=100),
         s2_references_exchange("pP", REFS[2:], offset=100)],
        lambda client, cache: [r.canonical_id for r in fetch_references(client, "pP")],
        ["doi:10.1/q0", "doi:10.1/q1", "doi:10.1/q2"],
        [("citedPaper",), ("citedPaper", "externalIds")],
    ),
}

JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=4))
NOT_OBJECT = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2))
NOT_LIST = st.one_of(JSON_SCALARS, st.dictionaries(st.text(max_size=3), JSON_SCALARS,
                                                   max_size=2))


def replaced(value, path: tuple, new):
    """A copy of the JSON ``value`` with the value at ``path`` set to ``new``."""
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = new if len(path) == 1 else replaced(value[path[0]], path[1:], new)
    return copy


def page_mutations(offset: int, nested: list[tuple]) -> st.SearchStrategy:
    """(path, new value, whether the op must fail: True, False or None for
    either) for one page at ``offset``. A falsy ``data`` or nested object
    reads as absent; a ``next`` never names an offset the fixture lacks."""
    not_advancing = st.one_of(
        st.integers(max_value=offset),
        NOT_LIST.filter(lambda v: v is not None and not isinstance(v, (bool, int))),
        st.lists(JSON_SCALARS, max_size=2))
    return st.one_of(
        NOT_OBJECT.map(lambda v: ((), v, True)),
        NOT_LIST.map(lambda v: (("data",), v, bool(v))),
        NOT_OBJECT.map(lambda v: (("data", 0), v, True)),
        not_advancing.map(lambda v: (("next",), v, True)),
        NOT_OBJECT.map(lambda v: (("total",), v, None)),
        *(NOT_OBJECT.map(lambda v, p=p: (("data", 0, *p), v, bool(v))) for p in nested),
    )


class TestPageShapeProperties:
    """Mutated pages of every paged op: only `ParseError` (or `EmptyResult`
    for a topic left with no hit) leaves the fetch, a `ParseError` leaves no
    cache entry, a success leaves one entry (the references op none), and
    unmutated pages give the examples' result."""

    @pytest.mark.parametrize("op", sorted(PAGED_OPS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_only_typed_errors_leave_and_a_failed_op_caches_nothing(self, op, data):
        pages, fetch, expected, nested = PAGED_OPS[op]
        bodies = [json.loads(page["response"]["body"]) for page in pages]
        i = data.draw(st.integers(0, len(pages) - 1), label="page")
        mutation = data.draw(st.none() | page_mutations(bodies[i]["offset"], nested),
                             label="mutation")
        if mutation is not None:
            path, new, must_fail = mutation
            pages = [*pages[:i], with_body(pages[i], replaced(bodies[i], path, new)),
                     *pages[i + 1:]]
        else:
            must_fail = False
        counting = CountingTransport(FixtureTransport.from_pairs(pages), max_calls=len(pages))
        cache = DictCache()
        try:
            result = fetch(s2_client(counting), cache)
        except ParseError as exc:
            assert must_fail is not False, exc
            assert cache.data == {}
        except EmptyResult:
            assert op == "topic_sample" and must_fail is not True
        else:
            assert must_fail is not True, result
            if op == "references":
                assert cache.data == {}
            else:
                assert len(cache.data) == 1
            if mutation is None:
                assert result == expected
