"""Scoring engine and batch orchestration."""

from __future__ import annotations

import itertools
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (
    CountingTransport,
    arxiv_exchange,
    count_decodes,
    papers_rows,
    s2_citations_exchange,
    s2_paper_exchange,
    s2_references_exchange,
    s2_search_exchange,
    with_body,
    write_fixture_dir,
)
from litmetrics import pipeline, retrieval, snapshot
from litmetrics.cli import main
from litmetrics.demo import DEMO_NOW, DEMO_RETRIEVED_AT, build_demo_corpus, build_demo_snapshot
from litmetrics.errors import (
    EmptyResult,
    LlmUnavailable,
    ParseError,
    StorageError,
    UnknownPaper,
)
from litmetrics.indicators import ALL_INDICATORS
from litmetrics.jsonio import canonical_json, format_date, format_timestamp
from litmetrics.pipeline import (
    ScoringEngine,
    api_id_for,
    enrich,
    harvest,
    lower_median_date,
    months_between,
    score_batch,
)
from litmetrics.retrieval import (
    S2_API_URL,
    FixtureTransport,
    OfflineTransport,
    PaperRecord,
    RateLimiter,
    SemanticScholarClient,
    StubLlm,
    request_key,
)
from litmetrics.snapshot import SnapshotStore

NOW = date(2024, 10, 1)
RETRIEVED = datetime(2024, 10, 1)


def replay_client(transport) -> SemanticScholarClient:
    return SemanticScholarClient(transport=transport, limiter=RateLimiter(100_000.0))


def fast_client(exchanges):
    return replay_client(FixtureTransport.from_pairs(exchanges))


def score_one(engine, paper_id, which):
    """The paper's report, gathered and scored on its own."""
    engine.gather([paper_id], which)
    return engine.score(paper_id)


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
        report = score_one(engine, paper.canonical_id, ["rui"])
        assert report.cdr == 2.0
        assert any("beyond its fitted window" in w for w in report.warnings)

    def test_today_without_now_is_the_utc_date(self, tmp_path, monkeypatch):
        # late on New Year's Eve in UTC, which is already January 1 east of it
        monkeypatch.setattr(pipeline, "utc_now", lambda: datetime(2024, 12, 31, 23, 30))
        paper = review()
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges))
        assert engine.now == date(2024, 12, 31)
        report = score_one(engine, paper.canonical_id, ["iei"])
        assert report.computed_at == datetime(2024, 12, 31)

    def test_a_batch_across_midnight_has_one_date_and_one_iei_window(
            self, tmp_path, monkeypatch):
        # the clock reads the last minute of September once, then October:
        # a citation in September is outside a window that ends with August
        clock = iter([datetime(2024, 9, 30, 23, 59)])
        monkeypatch.setattr(pipeline, "utc_now", lambda: next(clock, datetime(2024, 10, 1)))
        ids = ["arxiv:2301.00001", "arxiv:2301.00002"]
        store = SnapshotStore(tmp_path / "s.db")
        store.write(new_papers=[review(cid) for cid in ids])
        exchanges = [s2_citations_exchange(f"ARXIV:{cid[6:]}", ["2024-08-01", "2024-09-01"])
                     for cid in ids]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges))
        first, second = [i.report for i in score_batch(engine, ids, ["iei"], workers=1)]
        assert first == second
        assert first.computed_at == datetime(2024, 9, 30)
        frozen = ScoringEngine(store=store, s2=fast_client(exchanges), now=date(2024, 9, 30))
        assert first == score_one(frozen, ids[0], ["iei"])

    def test_undated_citers_warning(self, tmp_path):
        paper = review()
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_citations_exchange("ARXIV:2301.00001",
                                           ["2024-09-01", None, None])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        report = score_one(engine, paper.canonical_id, ["iei"])
        assert "2 undated citing papers dropped" in report.warnings

    def test_year_only_citers_warning(self, tmp_path):
        store = self.make_store(tmp_path, review())
        exchanges = [s2_citations_exchange("ARXIV:2301.00001",
                                           ["2024-09-01", "2024", None, "2023", "2024-08"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        report = score_one(engine, "arxiv:2301.00001", ["iei"])
        assert report.warnings == ["1 undated citing papers dropped",
                                   "2 citing papers dated only by year dropped"]

    def test_counts_from_a_capped_search_warn(self, tmp_path):
        refs = [reference("s2:r1", date(2020, 1, 1), 50)]
        store = self.make_store(tmp_path, review(reference_ids=["s2:r1"]), refs)
        exchanges = [
            s2_search_exchange(
                "something", "publicationDate", [{"publicationDate": "2021-01-01"}] * 4,
                extra={"publicationDateOrYear": "2020-01-01:2024-02-01"}, total=5000),
            s2_search_exchange(
                "something", "publicationDate", [{"publicationDate": "2024-03-01"}] * 8,
                extra={"publicationDateOrYear": "2024-02-01:2024-10-01"}),
        ]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        report = score_one(engine, "arxiv:2301.00001", ["rui"])
        assert report.cdr == 2.0  # the counts are what the paging reached
        assert report.warnings == ["n_mp counted from the first 1000 of 5000 search hits"]

    def test_llm_assigns_and_persists_missing_keyword(self, tmp_path):
        paper = review(topic_keyword=None)
        store = self.make_store(tmp_path, paper)
        stub = StubLlm({"A Survey on Something": "something niche"})
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), llm=stub, now=NOW)
        [item] = score_batch(engine, [paper.canonical_id], ["iei"])
        assert item.report.topic_keyword == "something niche"
        assert store.get_paper(paper.canonical_id).topic_keyword == "something niche"

    def test_missing_keyword_without_llm(self, tmp_path):
        paper = review(topic_keyword=None)
        store = self.make_store(tmp_path, paper)
        engine = ScoringEngine(store=store, s2=fast_client([]), now=NOW)
        with pytest.raises(LlmUnavailable):
            score_one(engine, paper.canonical_id, ["iei"])

    def test_rqm_requires_cited_references(self, tmp_path):
        paper = review(reference_ids=[])
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100)]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        with pytest.raises(EmptyResult, match="references with citation counts"):
            score_one(engine, paper.canonical_id, ["rqm"])

    def test_tncsi_requires_citation_count(self, tmp_path):
        paper = review(citation_count=None)
        store = self.make_store(tmp_path, paper)
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100)]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        with pytest.raises(EmptyResult, match="no citation count"):
            score_one(engine, paper.canonical_id, ["tncsi"])


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

    @pytest.mark.parametrize("error", [RuntimeError("defect"), KeyboardInterrupt()],
                             ids=["error", "ctrl-c"])
    def test_a_topic_fetch_that_broke_is_fetched_again(self, tmp_path, error):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review())
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100)]
        broken = BreakingTransport(FixtureTransport.from_pairs(exchanges),
                                   f"{S2_API_URL}/paper/search", error)
        transport = CountingTransport(broken)
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=NOW)
        with pytest.raises(type(error)):
            score_batch(engine, ["arxiv:2301.00001"], ["tncsi"])
        broken.broken_url = None  # the same engine asks again and gets the sample
        assert score_batch(engine, ["arxiv:2301.00001"], ["tncsi"])[0].report.sample_size == 1
        assert transport.count == 2

    def test_four_workers_on_a_broken_topic_fetch_make_one_request_and_raise_it(
            self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        ids = [f"arxiv:2301.{n:05d}" for n in range(4)]
        for cid in ids:
            store.upsert_paper(review(cid))

        class StalledTransport:
            """Breaks the topic fetch after a pause in which any other worker
            fetching the same topic would ask too."""

            calls = 0

            def request(self, method, url, params, headers, body=None):
                self.calls += 1
                time.sleep(0.05)
                raise RuntimeError("defect")

        transport = StalledTransport()
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=NOW)
        with pytest.raises(RuntimeError, match="defect"):
            score_batch(engine, ids, ["tncsi"], workers=4)
        assert transport.calls == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_citations_are_fetched_for_a_paper_that_fails_before_iei(
            self, tmp_path, workers):
        store = SnapshotStore(tmp_path / "s.db")
        good = review("arxiv:2301.00001")
        no_keyword = review("arxiv:2301.00002", title="Unknown to the LLM", topic_keyword=None)
        uncounted = review("arxiv:2301.00003", citation_count=None)
        for paper in (good, no_keyword, uncounted):
            store.upsert_paper(paper)
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100),
                     *(s2_citations_exchange(f"ARXIV:2301.0000{n}", ["2024-09-01"])
                       for n in (1, 2, 3))]
        transport = CountingTransport(FixtureTransport.from_pairs(exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport),
                               llm=StubLlm(), now=NOW)
        ids = ["arxiv:missing", good.canonical_id, no_keyword.canonical_id,
               uncounted.canonical_id]
        items = score_batch(engine, ids, ["tncsi", "iei"], workers=workers)
        assert [(i.error or "").split(":")[0] for i in items] == [
            "UnknownPaper", "", "LlmUnavailable", "EmptyResult"]
        assert items[3].error.endswith("has no citation count; run enrich first")
        citations = [key for _, key in transport.calls if "/citations" in key]
        assert citations == [request_key("GET", f"{S2_API_URL}/paper/ARXIV:2301.00001/citations",
                                         exchanges[1]["request"]["params"])]

    def test_a_topic_with_no_hits_fails_its_papers_and_caches_their_citations(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        ids = [f"arxiv:2301.{n:05d}" for n in range(3)]
        for cid in ids:
            store.upsert_paper(review(cid, topic_keyword="unsampled"))
        exchanges = [s2_search_exchange("unsampled", "citationCount", [], limit=100),
                     *(s2_citations_exchange(f"ARXIV:2301.{n:05d}", ["2024-09-01"])
                       for n in range(3))]
        transport = CountingTransport(FixtureTransport.from_pairs(exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=NOW)
        items = score_batch(engine, ids, workers=4)
        assert [i.error for i in items] == [
            "EmptyResult: TNCSI uncomputable: no search hits for keyword 'unsampled'"] * 3
        urls = Counter(json.loads(key)["url"] for _, key in transport.calls)
        assert urls == {f"{S2_API_URL}/paper/search": 1,
                        **{f"{S2_API_URL}/paper/ARXIV:2301.{n:05d}/citations": 1
                           for n in range(3)}}
        assert set(payloads(store)) == {
            canonical_json({"op": "topic_sample", "keyword": "unsampled", "k": 1000}),
            *(canonical_json({"op": "citations", "paper_id": f"ARXIV:2301.{n:05d}"})
              for n in range(3))}

    def test_a_second_batch_of_other_indicators_gathers_its_own(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        paper = review()
        store.upsert_paper(paper)
        exchanges = [s2_search_exchange("something", "citationCount",
                                        [{"citationCount": 3}], limit=100),
                     s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        [item] = score_batch(engine, [paper.canonical_id], ["tncsi"])
        assert item.report.tncsi is not None and item.report.iei_instant is None
        [item] = score_batch(engine, [paper.canonical_id], ["iei"])
        assert item.report.iei_instant is not None and item.report.tncsi is None

    def test_a_paper_that_fails_tncsi_or_rqm_has_its_rui_counts_fetched(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.write(new_papers=[reference("s2:r1", date(2015, 1, 1), None)])  # dated, uncited
        uncounted = review("arxiv:2301.00001", citation_count=None, reference_ids=["s2:r1"])
        uncited = review("arxiv:2301.00002", publication_date=date(2024, 3, 1),
                         reference_ids=["s2:r1"])
        store.write(new_papers=[uncounted, uncited])
        windows = [("2015-01-01", "2024-02-01"), ("2024-02-01", "2024-10-01"),
                   ("2015-01-01", "2024-03-01"), ("2024-03-01", "2024-10-01")]
        exchanges = [
            s2_search_exchange("something", "citationCount", [{"citationCount": 3}], limit=100),
            s2_citations_exchange("ARXIV:2301.00002", ["2024-09-01"]),  # none when uncounted
            *(s2_search_exchange("something", "publicationDate", [{"publicationDate": start}],
                                 extra={"publicationDateOrYear": f"{start}:{end}"})
              for start, end in windows)]
        transport = CountingTransport(FixtureTransport.from_pairs(exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=NOW)
        items = score_batch(engine, [uncounted.canonical_id, uncited.canonical_id], workers=1)
        assert [i.error for i in items] == [
            "EmptyResult: arxiv:2301.00001 has no citation count; run enrich first",
            "EmptyResult: arxiv:2301.00002 has no references with citation counts"]
        assert transport.count == len(exchanges)
        assert {key for key in payloads(store) if json.loads(key)["op"] == "count_relevant"} == {
            canonical_json({"op": "count_relevant", "keyword": "something", "from": start,
                            "to": end}) for start, end in windows}

    @pytest.mark.parametrize("which", [("tncsi", "iei", "rqm", "rui"), ("rui",)],
                             ids=["all-four", "rui"])
    def test_after_gather_scoring_fetches_and_looks_up_nothing(
            self, tmp_path, demo_corpus, monkeypatch, which):
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        transport = CountingTransport(FixtureTransport.from_pairs(demo_corpus.exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=DEMO_NOW)
        ids = [p.canonical_id for p in demo_corpus.papers]
        engine.gather(ids, which)
        fetched, lookups = transport.count, []
        monkeypatch.setattr(store, "cache_get", lookups.append)
        reports = [engine.score(pid) for pid in ids]
        assert transport.count == fetched and lookups == []
        assert all(report.rui is not None for report in reports)
        with pytest.raises(KeyError):  # a paper not gathered is the caller's defect
            engine.score("arxiv:not-gathered")

    def test_each_papers_reference_facts_are_taken_once_per_batch(
            self, tmp_path, demo_corpus, monkeypatch):
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), now=DEMO_NOW)
        taken, stage = Counter(), ScoringEngine._gather_paper
        monkeypatch.setattr(ScoringEngine, "_gather_paper", lambda self, pid: (
            taken.update([pid]) or stage(self, pid)))
        ids = [p.canonical_id for p in demo_corpus.papers]
        items = score_batch(engine, ids, workers=1)
        assert all(item.report.rqm is not None and item.report.rui is not None for item in items)
        assert taken == Counter(ids)
        # the facts of the stored references, in reference order
        facts = {r.canonical_id: (r.citation_count, r.publication_date)
                 for r in demo_corpus.references}
        assert [engine._inputs[p.canonical_id][2] for p in demo_corpus.papers] == [
            [facts[rid] for rid in p.reference_ids if rid in facts] for p in demo_corpus.papers]

    def test_sequential_fallback(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        good = review()
        store.upsert_paper(good)
        exchanges = [s2_citations_exchange("ARXIV:2301.00001", ["2024-09-01"])]
        engine = ScoringEngine(store=store, s2=fast_client(exchanges), now=NOW)
        items = score_batch(engine, [good.canonical_id], ["iei"], workers=1)
        assert items[0].report.iei_instant is not None


@pytest.fixture(scope="module")
def demo_corpus():
    return build_demo_corpus()


@pytest.fixture(scope="module")
def demo_payloads(tmp_path_factory):
    """The demo snapshot's cached payloads by key: what scoring it fetches."""
    path = tmp_path_factory.mktemp("demo") / "demo.db"
    build_demo_snapshot(path)
    with SnapshotStore(path, read_only=True) as store:
        return payloads(store)


def cold_demo_store(path, corpus) -> SnapshotStore:
    """The demo papers and references, committed, with an empty API cache."""
    store = SnapshotStore(path)
    store.write(new_papers=corpus.references + corpus.papers)
    store.write()
    return store


def payloads(store) -> dict[str, dict]:
    """Cached payloads by key, less the fetch time a topic sample records."""
    rows = store._conn.execute("SELECT key, payload FROM api_cache")
    return {key: {k: v for k, v in json.loads(payload).items() if k != "fetched_at"}
            for key, payload in rows}


def demo_citing_dates(corpus) -> dict[str, list]:
    """The citing dates each demo paper's citations exchange serves, by paper id."""
    dates = {}
    for exchange in corpus.exchanges:
        url = exchange["request"]["url"]
        if url.endswith("/citations"):
            paper_id = url.removeprefix(f"{S2_API_URL}/paper/").removesuffix("/citations")
            dates[paper_id] = [item["citingPaper"]["publicationDate"]
                               for item in json.loads(exchange["response"]["body"])["data"]]
    return dates


class BreakingTransport:
    """Raises ``error`` for one URL and records the requests it serves."""

    def __init__(self, inner, broken_url, error):
        self.inner = inner
        self.broken_url = broken_url
        self.error = error
        self.served = set()

    def request(self, method, url, params, headers, body=None):
        if url == self.broken_url:
            raise self.error
        self.served.add(request_key(method, url, params, body))
        return self.inner.request(method, url, params, headers, body)


def transaction_counts(store, action) -> tuple[int, int]:
    """The BEGINs and COMMITs the store runs in ``action``."""
    statements = []
    store._conn.set_trace_callback(statements.append)
    try:
        action()
    finally:
        store._conn.set_trace_callback(None)
    verbs = [sql.split()[0] for sql in statements]
    return verbs.count("BEGIN"), verbs.count("COMMIT")


def begin_count(store, action) -> int:
    return transaction_counts(store, action)[0]


def stored_rows(path) -> tuple[list, list]:
    """Every `papers` row with its id, and every `features` row, by id."""
    conn = sqlite3.connect(path)
    try:
        return (conn.execute(f"SELECT id, {snapshot._PAPER_ROW} FROM papers ORDER BY id")
                .fetchall(), conn.execute("SELECT * FROM features ORDER BY id").fetchall())
    finally:
        conn.close()


class TestDemoSnapshot:
    def test_rows_and_features_take_two_writes_and_are_those_of_single_writes(
            self, tmp_path, demo_corpus, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        written = []
        write = SnapshotStore.write

        def recording_write(self, reports=(), **rows):
            rows = {name: list(items) for name, items in rows.items()}
            if "payloads" not in rows:  # a put is no write of rows
                written.append(sum(map(len, rows.values())))
            write(self, reports, **rows)

        monkeypatch.setattr(SnapshotStore, "write", recording_write)
        build_demo_snapshot(tmp_path / "demo.db")
        # the references, then the papers with their features; then the
        # commit at close
        assert written == [len(demo_corpus.references), 2 * len(demo_corpus.papers), 0]
        monkeypatch.setattr(SnapshotStore, "write", write)
        # as written one row or feature vector at a time, references first
        with SnapshotStore(tmp_path / "single.db") as store:
            for ref in demo_corpus.references:
                store.upsert_paper(ref)
            for paper in demo_corpus.papers:
                store.upsert_paper(paper)
                store.store_features(paper.canonical_id, demo_corpus.features[paper.canonical_id],
                                     recorded_at=DEMO_RETRIEVED_AT)
        assert stored_rows(tmp_path / "demo.db") == stored_rows(tmp_path / "single.db")


class TestBatchWrites:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_cold_batch_commits_once(self, tmp_path, demo_corpus, demo_payloads, workers,
                                       monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)  # a slow host stays at one
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        ids = [p.canonical_id for p in demo_corpus.papers]
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), now=DEMO_NOW)
        items = []

        def batch_and_close():  # the commit at close included
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # workers interleave inside the store
            try:
                items.extend(score_batch(engine, ids, workers=workers))
            finally:
                sys.setswitchinterval(interval)
            store.write()

        assert transaction_counts(store, batch_and_close) == (1, 1)
        assert [i.error for i in items] == [None] * len(ids)
        assert sorted(store.latest_reports()) == sorted(ids)
        assert payloads(store) == demo_payloads

    def test_a_cold_batch_makes_the_same_requests_with_one_or_four_workers(
            self, tmp_path, demo_corpus):
        requests = {}
        for workers in (1, 4):
            store = cold_demo_store(tmp_path / f"{workers}.db", demo_corpus)
            transport = CountingTransport(FixtureTransport.from_pairs(demo_corpus.exchanges))
            engine = ScoringEngine(store=store, s2=replay_client(transport), now=DEMO_NOW)
            ids = [p.canonical_id for p in demo_corpus.papers]
            assert [i.error for i in score_batch(engine, ids, workers=workers)] == [None] * 20
            requests[workers] = Counter(key for _, key in transport.calls)
        assert requests[1] == requests[4] and sum(requests[1].values()) == 66

    def test_keywords_from_an_llm_are_stored_with_every_held_payload(
            self, tmp_path, demo_corpus, demo_payloads, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        store = SnapshotStore(tmp_path / "s.db")
        store.write(new_papers=[
            *demo_corpus.references,
            *(p.replace(topic_keyword=None) for p in demo_corpus.papers)])
        stub = StubLlm({p.title: p.topic_keyword for p in demo_corpus.papers})
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), llm=stub,
                               now=DEMO_NOW)
        ids = [p.canonical_id for p in demo_corpus.papers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # keyword writes interleave with puts
        try:
            items = score_batch(engine, ids, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert [i.error for i in items] == [None] * len(ids)
        store.close()
        with SnapshotStore(tmp_path / "s.db", read_only=True) as reopened:
            assert payloads(reopened) == demo_payloads
            assert {cid: r.topic_keyword for cid, r in reopened.get_papers(ids).items()} == {
                p.canonical_id: p.topic_keyword for p in demo_corpus.papers}
            assert sorted(reopened.latest_reports()) == sorted(ids)

    def test_llm_keywords_are_stored_by_the_batch_write_with_its_reports(
            self, tmp_path, demo_corpus, monkeypatch):
        store = SnapshotStore(tmp_path / "s.db")
        store.write(new_papers=[
            *demo_corpus.references,
            *(p.replace(topic_keyword=None) for p in demo_corpus.papers)])
        upserts, writes = [], []
        monkeypatch.setattr(SnapshotStore, "upsert_paper", lambda self, r: upserts.append(r))
        write = SnapshotStore.write

        def recording_write(self, reports=(), **rows):
            reports = list(reports)
            if "payloads" not in rows:  # a put is no write of rows
                writes.append((reports, rows))
            write(self, reports, **rows)

        monkeypatch.setattr(SnapshotStore, "write", recording_write)
        stub = StubLlm({p.title: p.topic_keyword for p in demo_corpus.papers})
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), llm=stub,
                               now=DEMO_NOW)
        ids = [p.canonical_id for p in demo_corpus.papers]
        items = score_batch(engine, ids, workers=4)
        assert [i.error for i in items] == [None] * len(ids)
        assert upserts == []
        [(reports, rows)] = writes
        assert reports == [(i.paper_id, i.report) for i in items]
        assert sorted((r.canonical_id, r.topic_keyword) for r in rows["papers"]) == sorted(
            (p.canonical_id, p.topic_keyword) for p in demo_corpus.papers)

    def test_cold_run_caches_every_fetch_and_replays_offline(self, tmp_path, demo_corpus, capsys):
        db = tmp_path / "s.db"
        cold_demo_store(db, demo_corpus).close()
        argv = ["--db", str(db), "--rate", "100000", "--now", "2024-10-01", "score", "--all"]
        fixtures = FixtureTransport.from_pairs(demo_corpus.exchanges)
        assert main(argv, transport=fixtures) == 0
        cold = capsys.readouterr().out
        offline = CountingTransport(OfflineTransport())
        assert main(["--offline", *argv], transport=offline) == 0
        assert offline.count == 0
        assert capsys.readouterr().out == cold

    @pytest.mark.parametrize("error, workers", [(RuntimeError("transport defect"), 1),
                                                (KeyboardInterrupt(), 4)],
                             ids=["error-1-worker", "ctrl-c-4-workers"])
    def test_a_failing_batch_keeps_the_payloads_fetched_before_it(
            self, tmp_path, demo_corpus, demo_payloads, error, workers):
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        ids = [p.canonical_id for p in demo_corpus.papers]
        arxiv_id = demo_corpus.papers[3].external_ids["arxiv"]
        broken = BreakingTransport(FixtureTransport.from_pairs(demo_corpus.exchanges),
                                   f"{S2_API_URL}/paper/ARXIV:{arxiv_id}/citations", error)
        engine = ScoringEngine(store=store, s2=replay_client(broken), now=DEMO_NOW)
        with pytest.raises(type(error)):
            score_batch(engine, ids, workers=workers)
        kept = payloads(store)
        assert kept and all(demo_payloads[key] == payload for key, payload in kept.items())
        assert store.latest_reports() == {}
        # a re-run fetches only what the failed batch had not
        counting = CountingTransport(FixtureTransport.from_pairs(demo_corpus.exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(counting), now=DEMO_NOW)
        assert [i.error for i in score_batch(engine, ids, workers=1)] == [None] * len(ids)
        assert broken.served.isdisjoint(key for _, key in counting.calls)
        assert payloads(store) == demo_payloads

    def test_citations_are_cached_as_the_month_counts_of_their_dates(
            self, tmp_path, demo_corpus):
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        ids = [p.canonical_id for p in demo_corpus.papers]
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), now=DEMO_NOW)
        assert [i.error for i in score_batch(engine, ids, workers=1)] == [None] * len(ids)
        cached = {key: payload for key, payload in payloads(store).items()
                  if json.loads(key)["op"] == "citations"}
        assert cached == {
            canonical_json({"op": "citations", "paper_id": paper_id}):
                {"months": dict(Counter(d[:7] for d in dates)), "undated": 0, "year_only": 0}
            for paper_id, dates in demo_citing_dates(demo_corpus).items()}

    def test_each_stored_report_is_the_report_the_batch_returned(
            self, tmp_path, demo_corpus, demo_payloads):
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        ids = [p.canonical_id for p in demo_corpus.papers]
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), now=DEMO_NOW)
        items = score_batch(engine, ids, workers=4)
        assert store.latest_reports() == {i.paper_id: i.report for i in items}
        assert payloads(store) == demo_payloads

    def test_a_negative_topic_count_fails_its_topic_only(self, tmp_path, demo_corpus, capsys):
        db = tmp_path / "s.db"
        cold_demo_store(db, demo_corpus).close()
        exchanges = list(demo_corpus.exchanges)
        i, page = next((i, json.loads(x["response"]["body"])) for i, x in enumerate(exchanges)
                       if x["request"]["params"].get("fields") == "citationCount")
        keyword = exchanges[i]["request"]["params"]["query"]
        page["data"][0]["citationCount"] = -5
        exchanges[i] = with_body(exchanges[i], page)
        code = main(["--db", str(db), "--rate", "100000", "--now", "2024-10-01",
                     "score", "--all"], transport=FixtureTransport.from_pairs(exchanges))
        out, err = capsys.readouterr()
        assert code == 1 and "internal" not in err
        failed = [row.split()[0] for row in out.splitlines()
                  if "error: ParseError: malformed topic_sample payload: "
                     "citationCount must be non-negative" in row]
        assert failed == [p.canonical_id for p in demo_corpus.papers if p.topic_keyword == keyword]
        with SnapshotStore(db, read_only=True) as store:
            assert len(store.latest_reports()) == len(demo_corpus.papers) - len(failed)
            assert not any(json.loads(key) == {"op": "topic_sample", "keyword": keyword,
                                               "k": 1000} for key in payloads(store))

    def test_a_payload_put_in_the_batch_serves_its_later_lookups(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(reference("s2:r1", date(2015, 1, 1), 50))
        ids = []
        for n in range(2):  # same topic, date and references: same count windows
            paper = review(f"arxiv:2301.{n:05d}", reference_ids=["s2:r1"])
            store.upsert_paper(paper)
            ids.append(paper.canonical_id)
        exchanges = [
            s2_search_exchange(
                "something", "publicationDate", [{"publicationDate": "2015-01-01"}] * 4,
                extra={"publicationDateOrYear": "2015-01-01:2024-02-01"}),
            s2_search_exchange(
                "something", "publicationDate", [{"publicationDate": "2024-02-01"}] * 8,
                extra={"publicationDateOrYear": "2024-02-01:2024-10-01"}),
        ]
        transport = CountingTransport(FixtureTransport.from_pairs(exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=NOW)
        items = score_batch(engine, ids, ["rui"], workers=1)
        assert [i.report.cdr for i in items] == [2.0, 2.0]
        assert transport.count == 2

    def test_each_put_is_a_row_of_the_open_transaction_as_it_arrives(
            self, tmp_path, demo_corpus, demo_payloads, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        ids = [p.canonical_id for p in demo_corpus.papers]
        puts, seen = [0], []

        class RowCountingTransport:
            """Records, before each request, the payload rows this store
            reads against the puts made so far."""

            def __init__(self, inner):
                self.inner = inner

            def request(self, *args, **kwargs):
                seen.append((store._conn.execute("SELECT COUNT(*) FROM api_cache").fetchone()[0],
                             puts[0]))
                return self.inner.request(*args, **kwargs)

        put = SnapshotStore.cache_put

        def counting_put(self, key, payload):
            put(self, key, payload)
            puts[0] += 1

        monkeypatch.setattr(SnapshotStore, "cache_put", counting_put)
        transport = RowCountingTransport(FixtureTransport.from_pairs(demo_corpus.exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=DEMO_NOW)
        # however many payloads a batch puts, nothing is held in memory, and
        # the batch and the close share one transaction
        assert transaction_counts(store, lambda: (score_batch(engine, ids, workers=1),
                                                  store.write())) == (1, 1)
        assert puts[0] == len(demo_payloads) and len(seen) == 66
        assert all(rows == made for rows, made in seen)
        assert payloads(store) == demo_payloads
        assert sorted(store.latest_reports()) == sorted(ids)

    def test_paced_fetches_are_written_about_as_they_arrive(
            self, tmp_path, demo_corpus, monkeypatch):
        clock = [0.0]

        class PacedTransport:
            """Moves the store's clock 0.6 s forward per request."""

            def __init__(self, inner):
                self.inner = inner

            def request(self, *args, **kwargs):
                clock[0] += 0.6
                return self.inner.request(*args, **kwargs)

        monkeypatch.setattr(snapshot, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        ids = [p.canonical_id for p in demo_corpus.papers[:4]]
        transport = PacedTransport(FixtureTransport.from_pairs(demo_corpus.exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=DEMO_NOW)
        begins = begin_count(store, lambda: score_batch(engine, ids, ["iei"], workers=1))
        # puts at 0.6, 1.2, 1.8 and 2.4 s, committed at 1.2 and 2.4 s; the
        # reports open a third transaction, which the close commits
        assert begins == 3
        assert len(store._conn.execute("SELECT key FROM api_cache").fetchall()) == 4

    def test_puts_while_a_write_runs_are_all_stored(self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        store = SnapshotStore(tmp_path / "s.db")
        halfway, go = threading.Barrier(5), threading.Event()

        def put(worker):  # a batch worker, still fetching while the store commits
            for n in range(100):
                store.cache_put(f"{worker}-{n}", "{}")
                if n == 49:
                    halfway.wait()
                    go.wait()

        threads = [threading.Thread(target=put, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        halfway.wait()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the puts interleave with the commit
        try:
            go.set()
            store.write()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        store.close()
        with SnapshotStore(tmp_path / "s.db", read_only=True) as reopened:
            assert reopened._conn.execute("SELECT COUNT(*) FROM api_cache").fetchone()[0] == 400

    def test_stored_at_is_the_time_of_the_put(self, tmp_path, demo_corpus, monkeypatch):
        clock = [datetime(2024, 10, 1)]

        class TickingTransport:
            """Moves the clock one minute forward per request."""

            def __init__(self, inner):
                self.inner = inner

            def request(self, *args, **kwargs):
                clock[0] += timedelta(minutes=1)
                return self.inner.request(*args, **kwargs)

        monkeypatch.setattr(snapshot, "utc_now", lambda: clock[0])
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        papers = demo_corpus.papers[:2]
        transport = TickingTransport(FixtureTransport.from_pairs(demo_corpus.exchanges))
        engine = ScoringEngine(store=store, s2=replay_client(transport), now=DEMO_NOW)
        score_batch(engine, [p.canonical_id for p in papers], ["iei"], workers=1)
        stamps = dict(store._conn.execute("SELECT key, stored_at FROM api_cache"))
        keys = [canonical_json({"op": "citations", "paper_id": f"ARXIV:{p.external_ids['arxiv']}"})
                for p in papers]
        assert [stamps[key] for key in keys] == [
            format_timestamp(datetime(2024, 10, 1, 0, minute)) for minute in (1, 2)]


class TestBulkReads:
    SAMPLE = [s2_search_exchange(
        "something", "citationCount", [{"citationCount": c} for c in (1, 5, 9, 20)], limit=100)]

    def score_counted(self, tmp_path, monkeypatch, n_refs, which=("tncsi", "rqm"), dangling=()):
        """Score six reviews citing overlapping windows of n_refs shared
        references, and the ``dangling`` ids, which are not stored; return
        the decodes per id and the `papers` queries."""
        store = SnapshotStore(tmp_path / f"refs{n_refs}-{len(dangling)}.db")
        refs = [reference(f"s2:r{k:03d}", date(2019, 1 + k % 12, 1), 10 + k)
                for k in range(n_refs)]
        store.write(new_papers=refs)
        ids = []
        for n in range(6):
            paper = review(f"arxiv:2301.{n:05d}",
                           reference_ids=[r.canonical_id for r in refs[n % 3:]] + [*dangling])
            store.upsert_paper(paper)
            ids.append(paper.canonical_id)

        queries = []
        decoded = count_decodes(monkeypatch)
        store._conn.set_trace_callback(queries.append)
        try:
            engine = ScoringEngine(store=store, s2=fast_client(self.SAMPLE), now=NOW)
            items = score_batch(engine, ids, which, workers=4)
        finally:
            store._conn.set_trace_callback(None)
            monkeypatch.undo()
        reference_engine = ScoringEngine(store=store, s2=fast_client(self.SAMPLE), now=NOW)
        assert [i.report for i in items] == [score_one(reference_engine, pid, which)
                                             for pid in ids]
        return Counter(decoded), [q for q in queries if "FROM papers" in q]

    def test_only_the_reviews_are_decoded_in_a_constant_number_of_queries(
            self, tmp_path, monkeypatch):
        few_decodes, few_queries = self.score_counted(tmp_path, monkeypatch, 5)
        many_decodes, many_queries = self.score_counted(tmp_path, monkeypatch, 60)
        reviews = {f"arxiv:2301.{n:05d}": 1 for n in range(6)}
        assert few_decodes == many_decodes == reviews
        assert len(few_queries) == len(many_queries)

    def test_a_reference_that_is_not_stored_costs_no_query(self, tmp_path, monkeypatch):
        _, queries = self.score_counted(tmp_path, monkeypatch, 5)
        _, dangling_queries = self.score_counted(tmp_path, monkeypatch, 5, dangling=["s2:gone"])
        assert len(dangling_queries) == len(queries)

    def test_a_reference_stored_after_its_review_is_scored_as_a_linked_one(self, tmp_path):
        refs = [reference(f"s2:r{k}", date(2019, 1 + k, 1), 10 + k) for k in range(3)]
        paper = review(reference_ids=[r.canonical_id for r in refs])
        reports, stored = [], []
        for late in (False, True):
            store = SnapshotStore(tmp_path / f"late-{late}.db")
            store.write(new_papers=[] if late else refs)
            store.upsert_paper(paper)
            store.write(new_papers=refs if late else [])
            stored.append(json.loads(papers_rows(store)[paper.canonical_id][-1]))
            engine = ScoringEngine(store=store, s2=fast_client(self.SAMPLE), now=NOW)
            [item] = score_batch(engine, [paper.canonical_id], ("tncsi", "rqm"), workers=1)
            reports.append(item.report)
        # linked when stored first, text when stored after: scored alike
        assert stored == [[1, 2, 3], paper.reference_ids]
        assert reports[0] == reports[1] and reports[0].rqm is not None

    def test_references_are_not_decoded_for_tncsi_alone(self, tmp_path, monkeypatch):
        decodes, _ = self.score_counted(tmp_path, monkeypatch, 5, which=("tncsi",))
        assert sorted(decodes) == [f"arxiv:2301.{n:05d}" for n in range(6)]

    @pytest.mark.parametrize("which", [
        which for n in range(1, len(ALL_INDICATORS) + 1)
        for which in itertools.combinations(ALL_INDICATORS, n)], ids="-".join)
    def test_every_subset_reads_its_papers_and_reference_facts_once(
            self, tmp_path, demo_corpus, monkeypatch, which):
        store = cold_demo_store(tmp_path / "s.db", demo_corpus)
        reads = Counter()
        for name in ("get_papers", "get_papers_and_reference_facts"):
            monkeypatch.setattr(store, name, lambda ids, name=name, read=getattr(store, name): (
                reads.update([name]) or read(ids)))
        engine = ScoringEngine(store=store, s2=fast_client(demo_corpus.exchanges), now=DEMO_NOW)
        engine.gather([p.canonical_id for p in demo_corpus.papers], which)
        assert reads == Counter(["get_papers_and_reference_facts"])

    def test_a_reference_that_is_a_paper_of_the_batch_gives_its_record_facts(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        cited = review("arxiv:2301.00001", publication_date=date(2020, 5, 1), citation_count=9)
        citing = review("arxiv:2301.00002", reference_ids=[cited.canonical_id, "s2:gone"])
        store.write(new_papers=[cited, citing])
        engine = ScoringEngine(store=store, s2=fast_client(self.SAMPLE), now=NOW)
        items = score_batch(engine, [citing.canonical_id, cited.canonical_id], ["rqm"],
                            workers=1)
        assert engine.references[cited.canonical_id] == (9, date(2020, 5, 1))
        assert engine._inputs[citing.canonical_id][2] == [(9, date(2020, 5, 1))]
        assert items[0].report.rqm is not None and items[0].report.s_mp == 7


class TestHarvest:
    FEED = [{"arxiv_id": f"2301.0000{n}", "title": f"A Survey on Something, {n}",
             "abstract": "We survey something.", "published": f"2023-01-0{n}"}
            for n in (1, 2, 3)]

    def test_stored_rows_keep_their_fields_and_a_reference_row_becomes_a_review(
            self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        enriched = review("arxiv:2301.00001", topic_keyword="other topic",
                          external_ids={"arxiv": "2301.00001", "s2_join": "arxiv"},
                          reference_ids=["s2:r1"])
        as_reference = review("arxiv:2301.00002", topic_keyword=None, citation_count=7)
        store.upsert_paper(enriched)
        store.upsert_paper(as_reference)
        query = retrieval.arxiv_review_query("something")
        client = retrieval.ArxivClient(
            transport=FixtureTransport.from_pairs([arxiv_exchange(query, 10, self.FEED)]),
            limiter=RateLimiter(100_000.0))
        assert harvest(store, client, "something", 10) == [
            "arxiv:2301.00001", "arxiv:2301.00002", "arxiv:2301.00003"]
        assert store.get_paper("arxiv:2301.00001") == enriched
        assert store.get_paper("arxiv:2301.00002") == as_reference.replace(
            topic_keyword="something")
        harvested = store.get_paper("arxiv:2301.00003")
        assert (harvested.title, harvested.topic_keyword, harvested.citation_count) == (
            "A Survey on Something, 3", "something", None)
        assert store.review_ids() == [
            "arxiv:2301.00001", "arxiv:2301.00002", "arxiv:2301.00003"]

    def test_a_harvest_commits_its_rows_and_payload_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review("arxiv:2301.00002", topic_keyword=None))
        store.write()
        query = retrieval.arxiv_review_query("something")
        client = retrieval.ArxivClient(
            transport=FixtureTransport.from_pairs([arxiv_exchange(query, 10, self.FEED)]),
            limiter=RateLimiter(100_000.0))
        assert transaction_counts(store, lambda: (harvest(store, client, "something", 10),
                                                  store.write())) == (1, 1)
        store.close()
        with SnapshotStore(tmp_path / "s.db", read_only=True) as reopened:
            assert reopened.review_ids() == [
                "arxiv:2301.00001", "arxiv:2301.00002", "arxiv:2301.00003"]
            assert [op for (op,) in reopened._conn.execute(
                "SELECT json_extract(key, '$.op') FROM api_cache")] == ["arxiv_candidates"]


class TestEnrich:
    FETCHED = {"paperId": "s2rev", "externalIds": {"ArXiv": "2301.00001"},
               "title": "A Survey on Something", "publicationDate": "2024-02-01",
               "citationCount": 42}
    REFS = [
        {"paperId": "r1", "externalIds": {}, "title": "Changed upstream",
         "publicationDate": "2020-05-01", "citationCount": 900},
        {"paperId": "r2", "externalIds": {}, "title": "New",
         "publicationDate": "2019-03-01", "citationCount": 400},
        {"paperId": "r2", "externalIds": {}, "title": "New, listed twice",
         "publicationDate": "2019-03-01", "citationCount": 1},
    ]
    EXCHANGES = [s2_paper_exchange("ARXIV:2301.00001", FETCHED),
                 s2_references_exchange("ARXIV:2301.00001", REFS)]

    def test_existing_reference_rows_stay_untouched(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review(citation_count=None))
        stored_ref = reference("s2:r1", date(2018, 1, 1), 5)
        store.upsert_paper(stored_ref)
        enrich(store, fast_client(self.EXCHANGES), "arxiv:2301.00001")
        assert store.get_paper("s2:r1").to_canonical_json() == stored_ref.to_canonical_json()
        assert (store.get_paper("s2:r2").title, store.get_paper("s2:r2").citation_count) == (
            "New", 400)
        merged = store.get_paper("arxiv:2301.00001")
        assert merged.citation_count == 42
        assert merged.reference_ids == ["s2:r1", "s2:r2", "s2:r2"]

    def test_a_row_with_its_own_s2_id_is_joined_by_it(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(PaperRecord(canonical_id="s2:abc", title="Foo Survey",
                                       external_ids={"s2": "abc"}, retrieved_at=RETRIEVED))
        fetched = {"paperId": "abc", "externalIds": {}, "title": "Foo Survey",
                   "publicationDate": "2023-02-01", "citationCount": 7}
        transport = CountingTransport(FixtureTransport.from_pairs([
            s2_search_exchange("Foo Survey", "paperId", [{"paperId": "zzz"}], limit=1),
            s2_paper_exchange("abc", fetched),
            s2_references_exchange("abc", self.REFS[:1]),
        ]))
        assert enrich(store, replay_client(transport), "s2:abc") == "s2:abc"
        assert [json.loads(key)["url"] for _, key in transport.calls] == [
            f"{S2_API_URL}/paper/abc", f"{S2_API_URL}/paper/abc/references"]
        merged = store.get_paper("s2:abc")
        assert merged.external_ids == {"s2": "abc", "s2_join": "s2"}
        assert (merged.citation_count, merged.reference_ids) == (7, ["s2:r1"])

    def test_reference_lists_are_kept_in_the_row_only(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review(citation_count=None))
        enrich(store, fast_client(self.EXCHANGES), "arxiv:2301.00001")
        store.write()
        assert store.get_paper("arxiv:2301.00001").reference_ids == ["s2:r1", "s2:r2", "s2:r2"]
        assert store._conn.execute("SELECT COUNT(*) FROM api_cache").fetchone()[0] == 0

    def test_an_enriched_row_is_enriched_from_itself(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review(citation_count=None))
        enrich(store, fast_client(self.EXCHANGES), "arxiv:2301.00001")
        before = papers_rows(store)
        offline = OfflineTransport()
        assert begin_count(store, lambda: enrich(
            store, replay_client(offline), "arxiv:2301.00001")) == 0
        assert offline.attempts == 0
        assert papers_rows(store) == before

    def test_a_failed_write_of_the_row_leaves_it_unenriched(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review(citation_count=None))
        before = papers_rows(store)
        counting = CountingTransport(FixtureTransport.from_pairs(self.EXCHANGES))
        # the paper's row fails after its new reference rows are inserted
        store._conn.execute("CREATE TRIGGER refuse BEFORE UPDATE ON papers "
                            "BEGIN SELECT RAISE(ABORT, 'disk full'); END")
        with pytest.raises(StorageError, match="disk full"):
            enrich(store, replay_client(counting), "arxiv:2301.00001")
        assert papers_rows(store) == before  # no reference row is left
        store._conn.execute("DROP TRIGGER refuse")
        enrich(store, replay_client(counting), "arxiv:2301.00001")
        assert sum("/references" in key for _, key in counting.calls) == 2
        stored = papers_rows(store).keys()
        assert set(store.get_paper("arxiv:2301.00001").reference_ids) <= stored

    def test_a_failed_references_fetch_leaves_the_row_unenriched(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.upsert_paper(review(citation_count=None))
        broken = with_body(self.EXCHANGES[1], {"offset": 0, "data": [1]})
        with pytest.raises(ParseError, match="malformed references payload"):
            enrich(store, fast_client([self.EXCHANGES[0], broken]), "arxiv:2301.00001")
        assert store.get_paper("arxiv:2301.00001").external_ids == {"arxiv": "2301.00001"}
        counting = CountingTransport(FixtureTransport.from_pairs(self.EXCHANGES))
        enrich(store, replay_client(counting), "arxiv:2301.00001")
        assert counting.count == 2
        assert store.get_paper("arxiv:2301.00001").external_ids["s2_join"] == "arxiv"


def demo_enrich_exchanges(corpus, bad_reference_of: str = "") -> list[dict]:
    """The paper and references exchanges `enrich` makes for each demo paper;
    the references of the paper ``bad_reference_of`` names hold a negative
    citation count."""
    refs = {r.canonical_id: r for r in corpus.references}
    exchanges = []
    for paper in corpus.papers:
        api_id = f"ARXIV:{paper.external_ids['arxiv']}"
        exchanges.append(s2_paper_exchange(api_id, {
            "paperId": paper.external_ids["s2"],
            "externalIds": {"ArXiv": paper.external_ids["arxiv"]},
            "title": paper.title, "publicationDate": format_date(paper.publication_date),
            "citationCount": paper.citation_count}))
        cited = [{"paperId": refs[rid].external_ids["s2"], "externalIds": {},
                  "title": refs[rid].title,
                  "publicationDate": format_date(refs[rid].publication_date),
                  "citationCount": refs[rid].citation_count} for rid in paper.reference_ids]
        if paper.canonical_id == bad_reference_of:
            cited[-1] = {**cited[-1], "citationCount": -1}
        exchanges.append(s2_references_exchange(api_id, cited))
    return exchanges


class TestEnrichWrites:
    @pytest.mark.parametrize("paced", [False, True], ids=["fast", "paced"])
    def test_enrich_all_commits_once_an_interval_and_caches_nothing(
            self, tmp_path, demo_corpus, monkeypatch, paced):
        clock = [0.0]

        class PacedTransport:
            """Moves the store's clock 0.5 s forward per request when paced:
            1 s per paper, two requests and one write."""

            def __init__(self, inner):
                self.inner = inner

            def request(self, *args, **kwargs):
                clock[0] += 0.5 if paced else 0.0
                return self.inner.request(*args, **kwargs)

        monkeypatch.setattr(snapshot, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        store = SnapshotStore(tmp_path / "s.db")
        store.write(new_papers=demo_corpus.papers)
        store.write()
        client = replay_client(PacedTransport(
            FixtureTransport.from_pairs(demo_enrich_exchanges(demo_corpus))))
        ids = store.review_ids()

        def enrich_all():  # as `enrich --all` runs, then closes the store
            for cid in ids:
                enrich(store, client, cid)
            store.write()

        # fast: every paper in one transaction; paced, each paper's reference
        # rows and the paper itself commit together as they are written
        n = len(ids) if paced else 1
        assert transaction_counts(store, enrich_all) == (n, n)
        store.close()
        with SnapshotStore(tmp_path / "s.db", read_only=True) as reopened:
            assert payloads(reopened) == {}
            for paper in demo_corpus.papers:
                assert reopened.get_paper(paper.canonical_id).reference_ids == paper.reference_ids

    def test_a_second_offline_enrich_all_leaves_the_file_as_it_is(
            self, tmp_path, demo_corpus, capsys):
        db = tmp_path / "s.db"
        with SnapshotStore(db) as store:
            store.write(new_papers=demo_corpus.papers)
        transport = FixtureTransport.from_pairs(demo_enrich_exchanges(demo_corpus))
        assert main(["--db", str(db), "--rate", "100000", "enrich", "--all"],
                    transport=transport) == 0
        first, before = capsys.readouterr().out, db.read_bytes()
        offline = OfflineTransport()
        assert main(["--db", str(db), "--offline", "enrich", "--all"], transport=offline) == 0
        assert capsys.readouterr().out == first
        assert offline.attempts == 0
        assert db.read_bytes() == before

    @pytest.mark.parametrize("abort", [False, True], ids=["parse-error", "transport-defect"])
    def test_a_failing_enrich_keeps_the_rows_before_it(
            self, tmp_path, demo_corpus, capsys, abort):
        db = tmp_path / "s.db"
        with SnapshotStore(db) as store:
            store.write(new_papers=demo_corpus.papers)
        ids = sorted(p.canonical_id for p in demo_corpus.papers)
        failing = next(p for p in demo_corpus.papers if p.canonical_id == ids[3])
        references_url = f"{S2_API_URL}/paper/ARXIV:{failing.external_ids['arxiv']}/references"
        if abort:
            transport = BreakingTransport(
                FixtureTransport.from_pairs(demo_enrich_exchanges(demo_corpus)),
                references_url, RuntimeError("transport defect"))
        else:
            transport = FixtureTransport.from_pairs(
                demo_enrich_exchanges(demo_corpus, bad_reference_of=failing.canonical_id))
        code = main(["--db", str(db), "--rate", "100000", "enrich", "--all"],
                    transport=transport)
        out, err = capsys.readouterr()
        assert code == 1
        if abort:  # the run stops at the failing paper
            assert err == "error: internal: RuntimeError: transport defect\n"
            enriched = ids[:3]
        else:  # the failing paper alone
            assert err == ""
            assert f"{failing.canonical_id}  error: ParseError" in out
            enriched = [cid for cid in ids if cid != failing.canonical_id]
        assert out.count("  enriched") == len(enriched)
        with SnapshotStore(db, read_only=True) as store:
            assert payloads(store) == {}
            records = store.get_papers()
            for paper in demo_corpus.papers:
                record = records[paper.canonical_id]
                if paper.canonical_id in enriched:
                    assert record.reference_ids == paper.reference_ids
                    assert set(record.reference_ids) <= records.keys()
                    assert record.external_ids["s2_join"] == "arxiv"
                else:
                    assert "s2_join" not in record.external_ids

    def test_a_hard_kill_loses_the_open_interval_which_the_next_enrich_fetches_again(
            self, tmp_path, demo_corpus):
        db = tmp_path / "s.db"
        with SnapshotStore(db) as store:
            store.write(new_papers=demo_corpus.papers)
        exchanges = demo_enrich_exchanges(demo_corpus)
        fixtures = write_fixture_dir(tmp_path / "fixtures", exchanges)
        code = """if True:
            import os, signal, sys
            from litmetrics import snapshot
            from litmetrics.pipeline import enrich
            from litmetrics.retrieval import FixtureTransport, RateLimiter, SemanticScholarClient
            snapshot.PENDING_MAX_AGE_S = 1e9  # no write past the first commit is due
            store = snapshot.SnapshotStore(sys.argv[1])
            client = SemanticScholarClient(transport=FixtureTransport(sys.argv[2]),
                                           limiter=RateLimiter(100000.0))
            ids = store.review_ids()
            for cid in ids[:8]:
                enrich(store, client, cid)
            store.write()  # commits the first eight
            for cid in ids[8:]:
                enrich(store, client, cid)
            os.kill(os.getpid(), signal.SIGKILL)
        """
        src = str(Path(snapshot.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code, str(db), str(fixtures)],
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == -signal.SIGKILL
        ids = sorted(p.canonical_id for p in demo_corpus.papers)
        committed = set(ids[:8])
        refs = {rid for p in demo_corpus.papers if p.canonical_id in committed
                for rid in p.reference_ids}
        conn = sqlite3.connect(db)  # a writing open rolls the hot journal back
        try:
            assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        finally:
            conn.close()
        with SnapshotStore(db, read_only=True) as store:
            records = store.get_papers()
        assert records.keys() == set(ids) | refs
        assert {cid for cid in ids if "s2_join" in records[cid].external_ids} == committed
        transport = CountingTransport(FixtureTransport.from_pairs(exchanges))
        assert main(["--db", str(db), "--rate", "100000", "enrich", "--all"],
                    transport=transport) == 0
        lost = [p for p in demo_corpus.papers if p.canonical_id not in committed]
        assert sorted(json.loads(key)["url"] for _, key in transport.calls) == sorted(
            f"{S2_API_URL}/paper/ARXIV:{p.external_ids['arxiv']}{tail}"
            for p in lost for tail in ("", "/references"))

    def test_a_write_that_fails_at_close_exits_1_with_one_line(
            self, tmp_path, demo_corpus, capsys, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        db = tmp_path / "s.db"
        with SnapshotStore(db) as store:
            store.write(new_papers=demo_corpus.papers)
        paper_id = demo_corpus.papers[0].canonical_id

        write = SnapshotStore.write

        def failing_write(self, reports=(), **rows):
            if not (reports or any(rows.values())):  # the write at close
                raise StorageError("disk full")
            write(self, reports, **rows)

        monkeypatch.setattr(SnapshotStore, "write", failing_write)
        code = main(["--db", str(db), "--rate", "100000", "enrich", paper_id],
                    transport=FixtureTransport.from_pairs(demo_enrich_exchanges(demo_corpus)))
        assert code == 1
        assert capsys.readouterr() == (f"{paper_id}  enriched\n",
                                       "error: StorageError: disk full\n")
        monkeypatch.setattr(SnapshotStore, "write", write)
        # the final commit did not run, so the paper's enrichment is lost
        with SnapshotStore(db, read_only=True) as store:
            assert "s2_join" not in store.get_paper(paper_id).external_ids
            assert store.paper_count() == len(demo_corpus.papers)
