"""Deterministic demo corpus: a small synthetic snapshot plus the recorded
API exchanges that produced it.

Used by the test suite as the bundled fixture snapshot and by the offline
demo script. Twenty synthetic review papers across three topics, each with a
reference pool, monthly citation events, topic samples, and relevant-count
windows, all generated from fixed string seeds. The snapshot cache is seeded
by replaying the exchanges through the real fetch code paths, so offline
scoring exercises exactly the online logic.
"""

from __future__ import annotations

import json
import random
from datetime import date, datetime
from pathlib import Path

from .indicators import IEI_WINDOW_MONTHS
from .jsonio import format_date
from .pipeline import ScoringEngine, lower_median_date
from .retrieval import (
    S2_API_URL,
    S2_PAGE_SIZE,
    FixtureTransport,
    PaperRecord,
    RateLimiter,
    SemanticScholarClient,
    month_index,
)
from .snapshot import FeatureVector, SnapshotStore
from .values import Value

DEMO_NOW = date(2024, 10, 1)
DEMO_RETRIEVED_AT = datetime(2024, 10, 1, 0, 0, 0)
DEMO_TOPICS = {
    "object detection": 8,
    "diffusion models": 7,
    "speech recognition": 5,
}
REFS_PER_TOPIC = 12
TOPIC_SAMPLE_SIZE = 200


class DemoCorpus(Value):
    _fields = ("papers", "references", "exchanges", "features")

    def __init__(self, papers: list[PaperRecord], references: list[PaperRecord],
                 exchanges: list[dict], features: dict[str, FeatureVector]) -> None:
        self.papers = papers
        self.references = references
        self.exchanges = exchanges
        self.features = features


def _search_exchange(query: str, fields: str, data: list[dict], offset: int,
                     limit: int, extra: dict | None = None,
                     next_offset: int | None = None) -> dict:
    params = {"query": query, "offset": str(offset), "limit": str(limit), "fields": fields}
    if extra:
        params.update({k: str(v) for k, v in extra.items()})
    body: dict = {"total": len(data), "offset": offset, "data": data}
    if next_offset is not None:
        body["next"] = next_offset
    return {
        "request": {"method": "GET", "url": f"{S2_API_URL}/paper/search", "params": params},
        "response": {"status": 200, "body": json.dumps(body)},
    }


def _citations_exchange(lookup_id: str, citing_dates: list[str]) -> dict:
    data = [{"citingPaper": {"publicationDate": d}} for d in citing_dates]
    return {
        "request": {
            "method": "GET",
            "url": f"{S2_API_URL}/paper/{lookup_id}/citations",
            "params": {
                "fields": "publicationDate",
                "offset": "0",
                "limit": str(S2_PAGE_SIZE),
            },
        },
        "response": {"status": 200, "body": json.dumps({"offset": 0, "data": data})},
    }


def build_demo_corpus(now: date = DEMO_NOW) -> DemoCorpus:
    papers: list[PaperRecord] = []
    references: list[PaperRecord] = []
    exchanges: list[dict] = []
    features: dict[str, FeatureVector] = {}

    window_end = date(now.year, now.month, 1)

    for topic_index, (keyword, n_reviews) in enumerate(DEMO_TOPICS.items()):
        rng = random.Random(f"demo:{keyword}")

        # reference pool, published 2018-2020 so it predates every review
        topic_refs: list[PaperRecord] = []
        for r in range(REFS_PER_TOPIC):
            pub = date(2018 + r % 3, 1 + (r * 5) % 12, 1 + (r * 7) % 27)
            ref = PaperRecord(
                canonical_id=f"s2:ref-{topic_index}-{r}",
                title=f"Foundations of {keyword} {r}",
                abstract=f"Early work on {keyword}.",
                external_ids={"s2": f"ref-{topic_index}-{r}"},
                publication_date=pub,
                citation_count=rng.randint(0, 120),
                author_count=rng.randint(1, 8),
                retrieved_at=DEMO_RETRIEVED_AT,
            )
            topic_refs.append(ref)
        references.extend(topic_refs)

        # one topic sample of 200 citation counts, served as two search pages
        sample = [int(rng.expovariate(1.0 / 40.0)) for _ in range(TOPIC_SAMPLE_SIZE)]
        page_one = [{"citationCount": c} for c in sample[:100]]
        page_two = [{"citationCount": c} for c in sample[100:]]
        exchanges.append(
            _search_exchange(keyword, "citationCount", page_one, 0, 100, next_offset=100)
        )
        exchanges.append(_search_exchange(keyword, "citationCount", page_two, 100, 100))

        for j in range(n_reviews):
            arxiv_id = f"25{topic_index:02d}.{10000 + j}"
            # keep every publication no later than mid-2024, before DEMO_NOW
            pub = date(2021 + (j % 4), 1 + (j * 3) % 6, 1 + (j * 11) % 27)
            refs = rng.sample(topic_refs, rng.randint(6, REFS_PER_TOPIC))
            paper = PaperRecord(
                canonical_id=f"arxiv:{arxiv_id}",
                title=f"A Survey on {keyword.title()} ({2021 + j % 4}, no. {j + 1})",
                abstract=f"We review recent progress in {keyword} and its applications.",
                external_ids={"arxiv": arxiv_id, "s2": f"rev-{topic_index}-{j}"},
                publication_date=pub,
                venue="arXiv",
                citation_count=rng.randint(0, 150),
                reference_ids=[r.canonical_id for r in refs],
                author_count=rng.randint(2, 9),
                topic_keyword=keyword,
                retrieved_at=DEMO_RETRIEVED_AT,
            )
            papers.append(paper)

            # citing papers for the IEI window's full months before `now`
            citing_dates: list[str] = []
            for back in range(IEI_WINDOW_MONTHS, 0, -1):
                index = month_index(window_end) - back
                month = date(index // 12, index % 12 + 1, 15)
                for _ in range(rng.randint(0, 8)):
                    citing_dates.append(format_date(month))
            exchanges.append(_citations_exchange(f"ARXIV:{arxiv_id}", citing_dates))

            # relevant-literature windows for the coverage ratio
            median_ref = lower_median_date(
                [r.publication_date for r in refs if r.publication_date]
            )
            for from_d, to_d, bound in (
                (median_ref, pub, (20, 90)),
                (pub, now, (5, 95)),
            ):
                n_hits = rng.randint(*bound)
                hits = [{"publicationDate": format_date(from_d)}] * n_hits
                exchanges.append(
                    _search_exchange(
                        keyword,
                        "publicationDate",
                        hits,
                        0,
                        100,
                        extra={
                            "publicationDateOrYear": f"{format_date(from_d)}:{format_date(to_d)}"
                        },
                    )
                )

            features[paper.canonical_id] = FeatureVector(
                taxonomy=rng.randint(0, 1),
                prisma=rng.randint(0, 1),
                preliminary=rng.randint(0, 1),
                benchmark=rng.randint(0, 1),
                application=rng.randint(0, 1),
                discussion=rng.randint(0, 1),
                structured_abstract=rng.randint(0, 1),
            )

    return DemoCorpus(
        papers=papers, references=references, exchanges=exchanges, features=features
    )


def build_demo_snapshot(path: str | Path, now: date = DEMO_NOW) -> DemoCorpus:
    """Create the bundled fixture snapshot: papers, features, seeded cache.

    The cache is filled by a scoring engine's `gather` against a replay
    transport, so every cached payload is one that scoring fetches, in
    exactly the shape the live client would have produced.
    """
    corpus = build_demo_corpus(now)
    transport = FixtureTransport.from_pairs(corpus.exchanges)
    # replaying local fixtures needs no polite pacing
    client = SemanticScholarClient(transport=transport, limiter=RateLimiter(100_000.0))

    with SnapshotStore(path, source_notes="synthetic demo corpus") as store:
        # the references first, so that the papers link them
        store.write(papers=corpus.references)
        store.write(papers=corpus.papers, features=[
            (paper.canonical_id, corpus.features[paper.canonical_id], DEMO_RETRIEVED_AT)
            for paper in corpus.papers])

        engine = ScoringEngine(store=store, s2=client, now=now)
        ids = [paper.canonical_id for paper in corpus.papers]
        engine.gather(ids)
    return corpus


def write_fixture_ndjson(corpus: DemoCorpus, out_dir: str | Path) -> Path:
    """Write the corpus exchanges as a recorded-transport fixture directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "demo_exchanges.ndjson"
    with open(out_path, "w", encoding="utf-8") as fh:
        for pair in corpus.exchanges:
            fh.write(json.dumps(pair, ensure_ascii=False) + "\n")
    return out_path
