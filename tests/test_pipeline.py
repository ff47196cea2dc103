"""Scoring engine and batch orchestration."""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from datetime import date, datetime

import pytest

from conftest import (
    s2_citations_exchange,
    s2_paper_exchange,
    s2_references_exchange,
    s2_search_exchange,
)
from litmetrics.errors import EmptyResult, LlmUnavailable, UnknownPaper
from litmetrics.pipeline import (
    ScoringEngine,
    api_id_for,
    enrich,
    lower_median_date,
    months_between,
    score_batch,
)
from litmetrics.retrieval import (
    FixtureTransport,
    PaperRecord,
    RateLimiter,
    SemanticScholarClient,
    StubLlm,
)
from litmetrics.snapshot import SnapshotStore

NOW = date(2024, 10, 1)
RETRIEVED = datetime(2024, 10, 1)


def fast_client(exchanges):
    return SemanticScholarClient(
        transport=FixtureTransport.from_pairs(exchanges), limiter=RateLimiter(100_000.0)
    )


class SlowCountingTransport:
    """Counts requests per (url, query, fields) and holds each one briefly, so
    concurrent workers overlap inside a fetch."""

    def __init__(self, inner, delay=0.02):
        self.inner = inner
        self.delay = delay
        self.requests = Counter()
        self.lock = threading.Lock()

    def request(self, method, url, params, headers, body=None):
        with self.lock:
            self.requests[(url, params.get("query"), params.get("fields"))] += 1
        time.sleep(self.delay)
        return self.inner.request(method, url, params, headers, body)


def review(cid="arxiv:2301.00001", **kw) -> PaperRecord:
    defaults = dict(
        canonical_id=cid,
        title="A Survey on Something",
        abstract="We survey something.",
        external_ids={"arxiv": cid.split(":")[1]},
        publication_date=date(2024, 2, 1),
        citation_count=10,
        reference_ids=[],
        topic_keyword="something",
        retrieved_at=RETRIEVED,
    )
    defaults.update(kw)
    return PaperRecord(**defaults)


def reference(cid, pub, cites) -> PaperRecord:
    return PaperRecord(
        canonical_id=cid,
        title=f"Ref {cid}",
        external_ids={"s2": cid.split(":")[1]},
        publication_date=pub,
        citation_count=cites,
        retrieved_at=RETRIEVED,
    )


class TestHelpers:
    def test_months_between(self):
        assert months_between(date(2024, 2, 1), date(2024, 10, 1)) == 8
        assert months_between(date(2020, 5, 1), date(2024, 2, 1)) == 45
        assert months_between(date(2024, 10, 1), date(2024, 2, 1)) == 0  # clamped
        assert months_between(date(2024, 2, 28), date(2024, 3, 1)) == 1  # day ignored

    def test_lower_median_date(self):
        dates = [date(2020, 1, 1), date(2019, 1, 1), date(2021, 1, 1), date(2022, 1, 1)]
        assert lower_median_date(dates) == date(2020, 1, 1)
        with pytest.raises(ValueError):
            lower_median_date([])

    def test_api_id_for(self):
        assert api_id_for(review()) == "ARXIV:2301.00001"
        rec = reference("s2:abc", date(2020, 1, 1), 3)
        assert api_id_for(rec) == "abc"
        doi = PaperRecord(canonical_id="doi:10.1/x", title="t",
                          external_ids={"doi": "10.1/x"}, retrieved_at=RETRIEVED)
        assert api_id_for(doi) == "DOI:10.1/x"
        bare = PaperRecord(canonical_id="x", title="t", retrieved_at=RETRIEVED)
        with pytest.raises(UnknownPaper):
            api_id_for(bare)


class TestScoringEngine:
    def make_store(self, tmp_path, paper: PaperRecord, refs=()):
        store = SnapshotStore(tmp_path / "s.db")
        for r in refs:
            store.upsert_paper(r)
        store.upsert_paper(paper)
        return store

    def test_rad_warning_beyond_fitted_window(self, tmp_path):
        # published 2017-01-01: 93 months before NOW, past the 72-month window
        refs = [reference("s2:r1", date(2015, 1, 1), 50)]
        paper = review(publication_date=date(2017, 1, 1),
                       reference_ids=["s2:r1"], retrieved_at=RETRIEVED)
        store = self.make_store(tmp_path, paper, refs)
        exchanges = [
            s2_search_exchange(
                "something", "publicationDate", [{"publicationDate": "2015-01-01"}] * 4,
                extra={"publicationDateOrYear": "2015-01-01:2017-01-01"}),
            s2_search_exchange(
                "something", "publicationDate", [{"publicationDate": "2017-01-01"}] * 8,
                extra={"publicationDateOrYear": "2017-01-01:2024-10-01"}),
        ]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        report = engine.score(paper.canonical_id, ["rui"])
        assert report.cdr == 2.0
        assert any("beyond its fitted window" in w for w in report.warnings)

    def test_weighted_iei_when_weights_configured(self, tmp_path):
        paper = review()
        store = self.make_store(tmp_path, paper)
        citing = ["2024-09-01", "2024-09-02", "2024-09-03"]  # series ends ...0,3
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", citing)]
        weights = [0, 0, 0, 0, 0, 1.0]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW,
                               iei_weights=weights)
        report = engine.score(paper.canonical_id, ["iei"])
        # end-tangent slope is the last increment (3), divided by l=6
        assert report.iei_weighted == pytest.approx(0.5, abs=1e-12)
        assert report.iei_instant == pytest.approx(3.0, abs=1e-12)

    def test_undated_citers_warning(self, tmp_path):
        paper = review()
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_citations_exchange("ARXIV:2301.00001",
                                           ["2024-09-01", None, None])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        report = engine.score(paper.canonical_id, ["iei"])
        assert "2 undated citing papers dropped" in report.warnings

    def test_llm_assigns_and_persists_missing_keyword(self, tmp_path):
        paper = review(topic_keyword=None)
        store = self.make_store(tmp_path, paper)
        stub = StubLlm({"A Survey on Something": "something niche"})
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), llm=stub, now=NOW)
        report = engine.score(paper.canonical_id, ["iei"])
        assert report.topic_keyword == "something niche"
        assert store.get_paper(paper.canonical_id).topic_keyword == "something niche"

    def test_missing_keyword_without_llm(self, tmp_path):
        paper = review(topic_keyword=None)
        store = self.make_store(tmp_path, paper)
        engine = ScoringEngine(store=store, s2=fast_client([]), now=NOW)
        with pytest.raises(LlmUnavailable):
            engine.score(paper.canonical_id, ["iei"])

    def test_rqm_requires_cited_references(self, tmp_path):
        paper = review(reference_ids=[])
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100)]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        with pytest.raises(EmptyResult, match="references with citation counts"):
            engine.score(paper.canonical_id, ["rqm"])

    def test_tncsi_requires_citation_count(self, tmp_path):
        paper = review(citation_count=None)
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100)]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        with pytest.raises(EmptyResult, match="no citation count"):
            engine.score(paper.canonical_id, ["tncsi"])


class TestScoreBatch:
    def test_order_preserved_with_interleaved_failures(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        good = review()
        store.upsert_paper(good)
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        ids = ["arxiv:missing-a", good.canonical_id, "arxiv:missing-b"]
        items = score_batch(engine, ids, ["iei"], workers=3)
        assert [i.paper_id for i in items] == ids
        assert items[0].error and "UnknownPaper" in items[0].error
        assert items[1].report is not None
        assert items[2].error
        # the successful report was persisted, failures were not
        assert store.latest_report(good.canonical_id) is not None
        assert store.report_history(good.canonical_id) != []

    def test_each_topic_sample_fetched_once_across_workers(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        sizes = {"topic a": 4, "topic b": 6}
        keyword_of = {}
        for n in range(12):
            paper = review(f"arxiv:2301.{n:05d}", topic_keyword=sorted(sizes)[n % 2])
            store.upsert_paper(paper)
            keyword_of[paper.canonical_id] = paper.topic_keyword
        exchanges = [
            s2_search_exchange(kw, "citationCount", [{"citationCount": 5}] * size, limit=100)
            for kw, size in sizes.items()
        ]
        transport = SlowCountingTransport(FixtureTransport.from_pairs(exchanges))
        client = SemanticScholarClient(transport=transport, limiter=RateLimiter(100_000.0))
        engine = ScoringEngine(store=store, s2=client, now=NOW)
        items = []
        worker = threading.Thread(
            target=lambda: items.extend(score_batch(engine, list(keyword_of), ["tncsi"], workers=4)),
            daemon=True,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert [i.error for i in items] == [None] * len(keyword_of)
        assert sorted((query, fields, count)
                      for (_, query, fields), count in transport.requests.items()) == [
            ("topic a", "citationCount", 1), ("topic b", "citationCount", 1)]
        assert {i.paper_id: i.report.sample_size for i in items} == {
            pid: sizes[kw] for pid, kw in keyword_of.items()}

    def test_topic_sample_error_is_shared_by_the_topic(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        ids = []
        for n in range(6):
            paper = review(f"arxiv:2301.{n:05d}", topic_keyword="unsampled")
            store.upsert_paper(paper)
            ids.append(paper.canonical_id)
        exchanges = [s2_search_exchange("unsampled", "citationCount", [], limit=100)]
        transport = SlowCountingTransport(FixtureTransport.from_pairs(exchanges))
        client = SemanticScholarClient(transport=transport, limiter=RateLimiter(100_000.0))
        engine = ScoringEngine(store=store, s2=client, now=NOW)
        items = score_batch(engine, ids, ["tncsi"], workers=4)
        assert {i.error for i in items} == {
            "EmptyResult: TNCSI uncomputable: no search hits for keyword 'unsampled'"}
        assert list(transport.requests.values()) == [1]

    def test_sequential_fallback(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        good = review()
        store.upsert_paper(good)
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        items = score_batch(engine, [good.canonical_id], ["iei"], workers=1)
        assert items[0].report.iei_instant is not None


class TestBulkReads:
    SAMPLE = [s2_search_exchange(
        "something", "citationCount", [{"citationCount": c} for c in (1, 5, 9, 20)], limit=100)]

    def score_counted(self, tmp_path, monkeypatch, n_refs, which=("tncsi", "rqm")):
        """Score six reviews citing overlapping windows of n_refs shared
        references; return the decodes per id and the `papers` queries."""
        store = SnapshotStore(tmp_path / f"refs{n_refs}.db")
        refs = [reference(f"s2:r{k:03d}", date(2019, 1 + k % 12, 1), 10 + k)
                for k in range(n_refs)]
        store.insert_new_papers(refs)
        ids = []
        for n in range(6):
            paper = review(f"arxiv:2301.{n:05d}",
                           reference_ids=[r.canonical_id for r in refs[n % 3:]])
            store.upsert_paper(paper)
            ids.append(paper.canonical_id)

        decodes = Counter()
        decode = PaperRecord.__dict__["from_json_dict"].__func__

        def counting(cls, data):
            decodes[data["canonical_id"]] += 1
            return decode(cls, data)

        queries = []
        monkeypatch.setattr(PaperRecord, "from_json_dict", classmethod(counting))
        store._conn.set_trace_callback(queries.append)
        try:
            engine = ScoringEngine(store=store, s2=fast_client(self.SAMPLE), now=NOW)
            items = score_batch(engine, ids, which, workers=4)
        finally:
            store._conn.set_trace_callback(None)
            monkeypatch.undo()
        reference_engine = ScoringEngine(store=store, s2=fast_client(self.SAMPLE), now=NOW)
        assert [i.report for i in items] == [reference_engine.score(pid, which) for pid in ids]
        return decodes, [q for q in queries if "FROM papers" in q]

    def test_each_stored_row_decoded_once_in_a_constant_number_of_queries(
            self, tmp_path, monkeypatch):
        few_decodes, few_queries = self.score_counted(tmp_path, monkeypatch, 5)
        many_decodes, many_queries = self.score_counted(tmp_path, monkeypatch, 60)
        assert len(many_decodes) == 6 + 60
        assert set(few_decodes.values()) == set(many_decodes.values()) == {1}
        assert len(few_queries) == len(many_queries)

    def test_references_are_not_read_for_tncsi_alone(self, tmp_path, monkeypatch):
        decodes, _ = self.score_counted(tmp_path, monkeypatch, 5, which=("tncsi",))
        assert sorted(decodes) == [f"arxiv:2301.{n:05d}" for n in range(6)]


class TestEnrich:
    def test_existing_reference_rows_stay_untouched(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review(citation_count=None))
        stored_ref = reference("s2:r1", date(2018, 1, 1), 5)
        store.upsert_paper(stored_ref)
        fetched = {"paperId": "s2rev", "externalIds": {"ArXiv": "2301.00001"},
                   "title": "A Survey on Something", "publicationDate": "2024-02-01",
                   "citationCount": 42}
        refs = [
            {"paperId": "r1", "externalIds": {}, "title": "Changed upstream",
             "publicationDate": "2020-05-01", "citationCount": 900},
            {"paperId": "r2", "externalIds": {}, "title": "New",
             "publicationDate": "2019-03-01", "citationCount": 400},
            {"paperId": "r2", "externalIds": {}, "title": "New, listed twice",
             "publicationDate": "2019-03-01", "citationCount": 1},
        ]
        client = fast_client([s2_paper_exchange("ARXIV:2301.00001", fetched),
                              s2_references_exchange("ARXIV:2301.00001", refs)])
        enrich(store, client, "arxiv:2301.00001")
        assert store.get_paper("s2:r1").to_canonical_json() == stored_ref.to_canonical_json()
        assert (store.get_paper("s2:r2").title, store.get_paper("s2:r2").citation_count) == (
            "New", 400)
        merged = store.get_paper("arxiv:2301.00001")
        assert merged.citation_count == 42
        assert merged.reference_ids == ["s2:r1", "s2:r2", "s2:r2"]
