"""Seeded synthetic corpus for the scaled workloads.

One seed gives one corpus: harvested review rows, per-topic reference pools
shared by the reviews of a topic, citing-paper dates, topic citation samples
and relevant-literature windows. It is written three ways:

  pre.db                  the pre-enrich snapshot: review rows and feature
                          vectors only, stored through SnapshotStore
  fixtures/*.ndjson       the Semantic Scholar exchanges enrich and score
                          make, in the format FixtureTransport replays
  truth.json              the ground truth the output checks recompute from

The warm snapshot of the re-score workload is made by running the program's
own `enrich` and `score` over these fixtures, never by writing SQLite here.

Run as a script to write a corpus:

  PYTHONPATH=src python3 perfbench/corpus.py --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

from litmetrics.jsonio import format_date
from litmetrics.retrieval import S2_API_URL, S2_PAGE_SIZE, S2_PAPER_FIELDS, PaperRecord
from litmetrics.snapshot import FEATURE_NAMES, FeatureVector, SnapshotStore

NOW = date(2024, 10, 1)
RETRIEVED_AT = datetime(2024, 10, 1)
REFERENCE_FIELDS = "paperId,externalIds,title,publicationDate,citationCount"
TOPICS = (
    "graph neural networks",
    "federated learning",
    "neural radiance fields",
    "time series forecasting",
    "code generation",
    "point cloud segmentation",
    "knowledge distillation",
    "medical image registration",
    "visual question answering",
    "anomaly detection",
)
# References predate every review by months to a few years, as in the
# bundled demo corpus, so RQM and RUI stay away from their degenerate corners.
REVIEW_DATES = (date(2021, 1, 1), date(2024, 6, 30))
REFERENCE_DATES = (date(2017, 7, 1), date(2020, 12, 31))


@dataclass(frozen=True)
class Size:
    reviews: int
    topics: int
    pool: int  # reference pool per topic, shared by that topic's reviews
    refs: tuple[int, int]  # reference-list length, smallest and largest
    cites: tuple[int, int]  # citing papers per review
    n_mp: tuple[int, int]  # relevant papers between median reference and review
    n_pc: tuple[int, int]  # relevant papers between review and NOW
    sample: int  # topic citation sample; the CLI's --k default is 1000


SIZES = {
    "full": Size(reviews=80, topics=6, pool=250, refs=(40, 140), cites=(20, 260),
                 n_mp=(30, 240), n_pc=(10, 160), sample=1000),
    "smoke": Size(reviews=6, topics=2, pool=130, refs=(20, 110), cites=(5, 120),
                  n_mp=(30, 120), n_pc=(10, 110), sample=150),
}


def spread(lo: int, hi: int, n: int, rng: random.Random) -> list[int]:
    """n integers evenly spread over [lo, hi], shuffled: the multiset, and so
    the total work, is the same for every seed."""
    values = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def random_date(rng: random.Random, lo: date, hi: date) -> date:
    return lo + timedelta(days=rng.randint(0, (hi - lo).days))


def lower_median(values: list):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def reference_lists(pools: dict[str, list[dict]], review_topics: list[str],
                    lengths: list[int], rng: random.Random) -> list[list[dict]]:
    """Each review's references, drawn from its topic's pool, then adjusted so
    every pool entry is cited at least once: the number of distinct
    reference rows, and with it every traced count, is the same for every
    seed."""
    lists = [rng.sample(pools[t], n) for t, n in zip(review_topics, lengths)]
    for topic, pool in pools.items():
        mine = [refs for t, refs in zip(review_topics, lists) if t == topic]
        cited = Counter(id(c) for refs in mine for c in refs)
        uncited = [c for c in pool if not cited[id(c)]]
        for refs in mine:
            for k, c in enumerate(refs):
                if not uncited:
                    break
                if cited[id(c)] > 1:
                    cited[id(c)] -= 1
                    refs[k] = uncited.pop()
        if uncited:
            raise ValueError(f"reference lists of {topic!r} cannot cover its pool")
    return lists


def _get(path: str, params: dict, body: dict) -> dict:
    return {
        "request": {"method": "GET", "url": f"{S2_API_URL}{path}",
                    "params": {k: str(v) for k, v in params.items()}},
        "response": {"status": 200, "body": json.dumps(body, separators=(",", ":"))},
    }


def _paged(path: str, params: dict, items: list, page_limit: int = S2_PAGE_SIZE) -> list[dict]:
    """The exchanges of one paged listing, 100 items a page, `next` on all but the last."""
    pages = []
    for offset in range(0, max(1, len(items)), page_limit):
        body = {"offset": offset, "data": items[offset:offset + page_limit]}
        if offset + page_limit < len(items):
            body["next"] = offset + page_limit
        pages.append(_get(path, {**params, "offset": offset, "limit": page_limit}, body))
    return pages


def generate(seed: int, size: Size) -> tuple[list[PaperRecord], dict, list[dict], dict]:
    """(review rows, feature vectors, exchanges, truth) for one seed."""
    rng = random.Random(f"perfbench:{seed}")
    topics = TOPICS[:size.topics]
    exchanges: list[dict] = []
    truth: dict = {"now": format_date(NOW), "topics": {}, "references": {}, "reviews": []}

    pools: dict[str, list[dict]] = {}
    for t, keyword in enumerate(topics):
        mean = rng.uniform(20.0, 60.0)
        sample = [int(rng.expovariate(1.0 / mean)) for _ in range(size.sample)]
        truth["topics"][keyword] = sample
        exchanges += _paged("/paper/search", {"query": keyword, "fields": "citationCount"},
                            [{"citationCount": c} for c in sample])
        pool = []
        for r in range(size.pool):
            paper_id = f"{rng.getrandbits(160):040x}"
            kind = r % 3  # DOI, arXiv or bare S2 ids give the three canonical forms
            external = {"CorpusId": 10_000_000 + t * 100_000 + r}
            if kind == 0:
                external["DOI"] = f"10.{1000 + t}/ref.{r}.{paper_id[:8]}"
            elif kind == 1:
                external["ArXiv"] = f"{17 + r % 4}{1 + r % 12:02d}.{t:01d}{r:04d}"
            pub = random_date(rng, *REFERENCE_DATES) if r % 41 else None
            cites = int(rng.expovariate(1.0 / (1.5 * mean)))
            cited = {"paperId": paper_id, "externalIds": external,
                     "title": f"{keyword.title()} method {r}",
                     "publicationDate": format_date(pub), "citationCount": cites}
            pool.append(cited)
            cid = ("doi:" + external["DOI"] if kind == 0 else
                   "arxiv:" + external["ArXiv"] if kind == 1 else "s2:" + paper_id)
            truth["references"][cid] = {"date": format_date(pub), "cites": cites}
            cited["_cid"] = cid
        pools[keyword] = pool

    ref_lists = reference_lists(pools, [topics[i % len(topics)] for i in range(size.reviews)],
                                spread(*size.refs, size.reviews, rng), rng)
    cite_counts = spread(*size.cites, size.reviews, rng)
    mp_counts = spread(*size.n_mp, size.reviews, rng)
    pc_counts = spread(*size.n_pc, size.reviews, rng)
    reviews: list[PaperRecord] = []
    features: dict[str, FeatureVector] = {}
    used_dates: set[tuple[str, date]] = set()
    for i in range(size.reviews):
        # ids sort in index order and topics interleave, so concurrent
        # scoring workers start on different topics
        keyword = topics[i % len(topics)]
        arxiv_id = f"2410.{i:05d}"
        cid = f"arxiv:{arxiv_id}"
        lookup = f"ARXIV:{arxiv_id}"
        pub = random_date(rng, *REVIEW_DATES)
        while (keyword, pub) in used_dates:  # unique windows per topic
            pub += timedelta(days=1)
        used_dates.add((keyword, pub))
        refs = ref_lists[i]
        title = f"A Survey of {keyword.title()}: Part {i}"
        abstract = f"We review {keyword} and open problems."
        authors = rng.randint(2, 9)

        reviews.append(PaperRecord(
            canonical_id=cid, title=title, abstract=abstract,
            external_ids={"arxiv": arxiv_id}, publication_date=pub,
            author_count=authors, topic_keyword=keyword, retrieved_at=RETRIEVED_AT,
        ))
        features[cid] = FeatureVector(**{n: rng.randint(0, 1) for n in FEATURE_NAMES})

        exchanges.append(_get(f"/paper/{lookup}", {"fields": S2_PAPER_FIELDS}, {
            "paperId": f"{rng.getrandbits(160):040x}",
            "externalIds": {"ArXiv": arxiv_id},
            "title": title, "abstract": abstract, "publicationDate": format_date(pub),
            "venue": "arXiv", "citationCount": cite_counts[i],
            "authors": [{"name": f"Author {a}"} for a in range(authors)],
        }))
        exchanges += _paged(f"/paper/{lookup}/references", {"fields": REFERENCE_FIELDS},
                            [{"citedPaper": {k: v for k, v in c.items() if k != "_cid"}}
                             for c in refs])

        citing = [None if rng.random() < 0.03 else
                  format_date(random_date(rng, pub, NOW - timedelta(days=1)))
                  for _ in range(cite_counts[i])]
        exchanges += _paged(f"/paper/{lookup}/citations", {"fields": "publicationDate"},
                            [{"citingPaper": {"publicationDate": d}} for d in citing])

        dated = [date.fromisoformat(c["publicationDate"]) for c in refs if c["publicationDate"]]
        relevant = {}
        for lo, hi, n in ((lower_median(dated), pub, mp_counts[i]), (pub, NOW, pc_counts[i])):
            window = f"{format_date(lo)}:{format_date(hi)}"
            hits = [{"publicationDate": format_date(random_date(rng, lo, hi - timedelta(days=1)))}
                    for _ in range(n)]
            # the date filter is inclusive, the window is not; undated hits do not count
            hits += [{"publicationDate": format_date(hi)}, {"publicationDate": None}]
            rng.shuffle(hits)
            exchanges += _paged("/paper/search", {"query": keyword, "fields": "publicationDate",
                                                  "publicationDateOrYear": window}, hits)
            relevant[window] = n

        truth["reviews"].append({
            "id": cid, "topic": keyword, "date": format_date(pub), "cites": cite_counts[i],
            "refs": [c["_cid"] for c in refs], "citing": citing, "relevant": relevant,
            "features": features[cid].as_dict(),
        })
    return reviews, features, exchanges, truth


def write_corpus(seed: int, out: Path, size: Size = SIZES["full"]) -> dict:
    """Write pre.db, fixtures/exchanges.ndjson and truth.json under out; return the truth."""
    reviews, features, exchanges, truth = generate(seed, size)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fixtures").mkdir(exist_ok=True)
    with open(out / "fixtures" / "exchanges.ndjson", "w", encoding="utf-8") as fh:
        for pair in exchanges:
            fh.write(json.dumps(pair, separators=(",", ":")) + "\n")
    with SnapshotStore(out / "pre.db", source_notes=f"perfbench corpus seed {seed}") as store:
        for record in reviews:
            store.upsert_paper(record)
            store.store_features(record.canonical_id, features[record.canonical_id],
                                 recorded_at=RETRIEVED_AT)
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if (args.out / "pre.db").exists():
        parser.error(f"{args.out / 'pre.db'} already exists")
    truth = write_corpus(args.seed, args.out)
    refs = sum(len(r["refs"]) for r in truth["reviews"])
    print(f"{len(truth['reviews'])} reviews, {refs} reference links, "
          f"{len({c for r in truth['reviews'] for c in r['refs']})} distinct references")


if __name__ == "__main__":
    main()
