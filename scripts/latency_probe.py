#!/usr/bin/env python3
"""Time a cold `score` of the demo corpus over a replay transport that waits
before it answers, to see what batch worker threads buy on a slow host.

The snapshot holds the demo papers and references with an empty API cache,
so every lookup goes to the transport. Each request sleeps ``--latency``
seconds and is paced by the usual per-host `RateLimiter` at ``--rate``.
``--retry-every N`` answers the first try of every N-th distinct request
with 429, so the client backs off and retries. ``--llm-latency S`` stores the
reviews without topic keywords and lets an LLM stand-in that sleeps S seconds,
behind its own limiter at ``--rate``, assign them. Compare, for example:

  python scripts/latency_probe.py --latency 1.5 --workers 1
  python scripts/latency_probe.py --latency 1.5 --workers 4

The probe exits 1 when the score exits non-zero or prints a failed row, when
a request key is answered more than once (a 429 refusal is no answer), or,
with ``--llm-latency``, when a review's assigned keyword does not read back
from the snapshot after the run; so a short run, such as ``--latency 0.01
--rate 1000``, checks the worker pool.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

from litmetrics.cli import main as litmetrics_main
from litmetrics.demo import build_demo_corpus
from litmetrics.retrieval import FixtureTransport, RateLimiter, TransportResponse, request_key
from litmetrics.snapshot import SnapshotStore


class SlowTransport:
    """Replays ``inner`` after ``latency`` seconds; optionally a 429 first.
    Counts the answers given to each request key."""

    def __init__(self, inner, latency: float, retry_every: int = 0):
        self.inner = inner
        self.latency = latency
        self.retry_every = retry_every
        self.order: dict[str, int] = {}
        self.refused: set[str] = set()
        self.answered: Counter[str] = Counter()
        self.count = 0
        self.lock = threading.Lock()

    def request(self, method, url, params, headers, body=None):
        time.sleep(self.latency)
        key = request_key(method, url, params, body)
        with self.lock:
            self.count += 1
            n = self.order.setdefault(key, len(self.order))
            refuse = self.retry_every and n % self.retry_every == 0 and key not in self.refused
            if refuse:
                self.refused.add(key)
            else:
                self.answered[key] += 1
        if refuse:
            return TransportResponse(status=429, body="")
        return self.inner.request(method, url, params, headers, body)


class SlowLlm:
    """Answers each review's demo topic keyword after ``latency`` seconds."""

    def __init__(self, keyword_by_title: dict[str, str], latency: float, rate: float):
        self.keyword_by_title = keyword_by_title
        self.latency = latency
        self.limiter = RateLimiter(rate)
        self.count = 0

    def complete(self, messages):
        self.count += 1
        self.limiter.acquire()
        time.sleep(self.latency)
        prompt = messages[-1]["content"]
        return self.keyword_by_title[prompt.split("Title: ")[-1].split("\nAbstract:")[0]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--latency", type=float, default=0.3, help="seconds per request")
    parser.add_argument("--rate", type=float, default=1.0, help="requests per second per host")
    parser.add_argument("--workers", type=int, default=4, help="batch worker threads")
    parser.add_argument("--retry-every", type=int, default=0, metavar="N",
                        help="answer the first try of every N-th request with 429")
    parser.add_argument("--llm-latency", type=float, default=None, metavar="S",
                        help="assign the topic keywords through an LLM taking S seconds")
    args = parser.parse_args()

    corpus = build_demo_corpus()
    papers = corpus.papers
    llm = None
    if args.llm_latency is not None:
        llm = SlowLlm({p.title: p.topic_keyword for p in papers}, args.llm_latency, args.rate)
        papers = [p.replace(topic_keyword=None) for p in papers]
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "cold.db"
        with SnapshotStore(db) as store:
            store.write(new_papers=corpus.references + papers)
        transport = SlowTransport(FixtureTransport.from_pairs(corpus.exchanges),
                                  args.latency, args.retry_every)
        # `--all` selects papers with a stored keyword, so name them instead
        argv = ["--db", str(db), "--rate", str(args.rate), "--workers", str(args.workers),
                "--now", "2024-10-01", "score", *[p.canonical_id for p in papers]]
        out = io.StringIO()
        started = time.monotonic()
        with contextlib.redirect_stdout(out):
            code = litmetrics_main(argv, transport=transport, llm=llm)
        elapsed = time.monotonic() - started
        with SnapshotStore(db, read_only=True) as store:
            keywords = {cid: r.topic_keyword
                        for cid, r in store.get_papers(p.canonical_id for p in papers).items()}
    # each keyword the LLM assigned is stored by the batch's write
    unstored = [p.canonical_id for p in corpus.papers
                if llm and keywords.get(p.canonical_id) != p.topic_keyword]
    # each payload is fetched once: the batch's stages split its fetches among
    # the workers, and none fetches what another does
    repeated = sum(n - 1 for n in transport.answered.values())
    failed_rows = out.getvalue().count("Error")
    print(f"workers={args.workers} latency={args.latency}s rate={args.rate}/s "
          f"exit={code} requests={transport.count} repeated={repeated} "
          f"llm_calls={llm.count if llm else 0} score_s={elapsed:.1f} "
          f"unstored_keywords={len(unstored)} failed_rows={failed_rows}")
    if code or failed_rows or unstored or repeated:
        sys.exit(1)


if __name__ == "__main__":
    main()
