"""Retrieval layer: query grammar, fixture replay, caching, laziness, pacing."""

from __future__ import annotations

import itertools
import threading
import time
from datetime import date
from types import SimpleNamespace

import pytest

from conftest import (
    CountingTransport,
    FlakyTransport,
    arxiv_exchange,
    s2_citations_exchange,
    s2_paper_exchange,
    s2_search_exchange,
)
from litmetrics.errors import (
    EmptyKeyword,
    EmptyResult,
    InvalidDateRange,
    LlmUnavailable,
    MalformedResponse,
    NetworkForbidden,
    ParseError,
    RateLimited,
)
from litmetrics import retrieval
from litmetrics.retrieval import (
    ArxivClient,
    DictCache,
    LazyPaper,
    LlmHttpClient,
    OfflineTransport,
    RateLimiter,
    SemanticScholarClient,
    StubLlm,
    arxiv_review_query,
    count_relevant,
    fetch_arxiv_candidates,
    fetch_monthly_citations,
    fetch_topic_sample,
    llm_topic_keyword,
    parse_arxiv_feed,
)
from litmetrics.snapshot import SnapshotStore

NOW = date(2024, 10, 15)


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
        assert n == 4

    def test_empty_interval(self, fixture_transport_factory):
        transport = fixture_transport_factory([])
        assert count_relevant(s2_client(transport), "x", NOW, NOW) == 0

    def test_reversed_dates(self, fixture_transport_factory):
        transport = fixture_transport_factory([])
        with pytest.raises(InvalidDateRange):
            count_relevant(s2_client(transport), "x", date(2024, 2, 1), date(2024, 1, 1))


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
        from litmetrics.retrieval import DEFAULT_TOPIC_PROFILE

        messages = DEFAULT_TOPIC_PROFILE.messages(title="T", abstract="A")
        stub = StubLlm({StubLlm.key_for(messages): "graph neural networks"})
        assert llm_topic_keyword("T", "A", stub) == "graph neural networks"

    def test_stub_without_match_raises(self):
        with pytest.raises(LlmUnavailable):
            llm_topic_keyword("T", "A", StubLlm({}))

    def test_http_client_parses_chat_payload(self, fixture_transport_factory):
        from litmetrics.jsonio import canonical_json
        from litmetrics.retrieval import DEFAULT_TOPIC_PROFILE

        messages = DEFAULT_TOPIC_PROFILE.messages(title="T", abstract="A")
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


class TestCacheIdempotenceAllOps:
    """Repeating any fetch with the cache enabled is request-free and byte-stable."""

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
        assert count_relevant(*args, cache=cache) == 3
        assert count_relevant(*args, cache=cache) == 3
        assert counting.count == 1

    def test_paper_record_and_references(self, fixture_transport_factory, tmp_path):
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
        store = SnapshotStore(tmp_path / "s.db")
        client = s2_client(counting)
        r1 = fetch_paper_record(client, "ARXIV:2401.77777", cache=store)
        r2 = fetch_paper_record(client, "ARXIV:2401.77777", cache=store)
        l1 = fetch_references(client, "ARXIV:2401.77777", store)
        l2 = fetch_references(client, "ARXIV:2401.77777", store)
        assert counting.count == 2
        assert r1.to_canonical_json() == r2.to_canonical_json()
        assert l1 == l2 == ["s2:q1"]
        assert r1.retrieved_at == r2.retrieved_at  # timestamp comes from the cache
        row = store.get_paper("s2:q1")
        assert (row.external_ids, row.title, row.publication_date, row.citation_count) == (
            {"s2": "q1"}, "Q1", date(2020, 1, 1), 10)


class TestNothingUndecodableIsCached:
    """A payload that fails `PaperRecord`'s checks raises on every call and
    leaves no cache entry behind."""

    @pytest.mark.parametrize("op", ["paper", "references"])
    def test_each_call_fetches_again_and_raises(self, fixture_transport_factory, tmp_path, op):
        from conftest import s2_references_exchange
        from litmetrics.retrieval import fetch_paper_record, fetch_references

        if op == "paper":
            paper = {"paperId": "fut", "externalIds": {"ArXiv": "2401.88888"}, "title": "F",
                     "publicationDate": "2999-01-01", "citationCount": 1}
            exchange = s2_paper_exchange("ARXIV:2401.88888", paper)
            fetch, message = fetch_paper_record, "publication_date cannot postdate retrieval"
        else:
            refs = [{"paperId": "ok", "externalIds": {}, "title": "OK",
                     "publicationDate": "2020-01-01", "citationCount": 3},
                    {"paperId": "neg", "externalIds": {}, "title": "Neg",
                     "publicationDate": "2020-01-01", "citationCount": -1}]
            exchange = s2_references_exchange("ARXIV:2401.88888", refs)
            fetch, message = fetch_references, "citation_count must be non-negative"
        counting = CountingTransport(fixture_transport_factory([exchange]))
        store = SnapshotStore(tmp_path / "s.db")
        client = s2_client(counting)
        for calls in (1, 2):
            with pytest.raises(ValueError, match=message):
                fetch(client, "ARXIV:2401.88888", store)
            assert counting.count == calls
        key = retrieval.canonical_json({"op": op, "paper_id": "ARXIV:2401.88888"})
        assert store.cache_get(key) is None
        assert store.paper_count() == 0
