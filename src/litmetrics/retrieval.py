"""Clients for the arXiv query API, the Semantic Scholar graph API, and an
LLM chat-completion endpoint.

Everything is lazy and replayable: constructing a client or a paper handle
performs no network traffic, every request funnels through a process-wide
per-host rate limiter, and all traffic can be served from recorded fixture
files or from payloads cached in the snapshot store.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

from .errors import (
    EmptyKeyword,
    EmptyResult,
    InvalidDateRange,
    LlmUnavailable,
    MalformedResponse,
    NetworkError,
    NetworkForbidden,
    ParseError,
    RateLimited,
    UnknownPaper,
)
from .indicators import CitationSeries
from .jsonio import (
    canonical_json,
    format_date,
    format_timestamp,
    parse_date,
    parse_timestamp,
    utc_now,
)

ARXIV_API_URL = "https://export.arxiv.org/api/query"
S2_API_URL = "https://api.semanticscholar.org/graph/v1"
DEFAULT_TOPIC_SAMPLE_K = 1000
S2_PAGE_SIZE = 100
ATOM_NS = {"atom": "http://www.w3.org/2005/Atom"}


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class PaperRecord:
    """Metadata for one scholarly document.

    ``citation_count`` is None until citation data has been attached (the
    arXiv feed carries none). ``topic_keyword`` records the harvest keyword
    or an LLM-assigned topic so offline scoring needs no live keyword step.
    """

    canonical_id: str
    title: str
    abstract: str = ""
    external_ids: dict[str, str] = field(default_factory=dict)
    publication_date: Optional[date] = None
    venue: Optional[str] = None
    citation_count: Optional[int] = None
    reference_ids: list[str] = field(default_factory=list)
    author_count: int = 0
    topic_keyword: Optional[str] = None
    retrieved_at: datetime = field(default_factory=utc_now)

    def __post_init__(self) -> None:
        if not self.canonical_id:
            raise ValueError("canonical_id must be non-empty")
        if self.citation_count is not None and self.citation_count < 0:
            raise ValueError("citation_count must be non-negative")
        if self.author_count < 0:
            raise ValueError("author_count must be non-negative")
        if (
            self.publication_date is not None
            and self.publication_date > self.retrieved_at.date()
        ):
            raise ValueError("publication_date cannot postdate retrieval")

    def to_json_dict(self) -> dict:
        return {
            "canonical_id": self.canonical_id,
            "external_ids": dict(sorted(self.external_ids.items())),
            "title": self.title,
            "abstract": self.abstract,
            "publication_date": format_date(self.publication_date),
            "venue": self.venue,
            "citation_count": self.citation_count,
            "reference_ids": list(self.reference_ids),
            "author_count": self.author_count,
            "topic_keyword": self.topic_keyword,
            "retrieved_at": format_timestamp(self.retrieved_at),
        }

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PaperRecord":
        return cls(
            canonical_id=data["canonical_id"],
            title=data.get("title", ""),
            abstract=data.get("abstract") or "",
            external_ids=dict(data.get("external_ids") or {}),
            publication_date=parse_date(data.get("publication_date")),
            venue=data.get("venue"),
            citation_count=data.get("citation_count"),
            reference_ids=list(data.get("reference_ids") or []),
            author_count=int(data.get("author_count") or 0),
            topic_keyword=data.get("topic_keyword"),
            retrieved_at=parse_timestamp(data["retrieved_at"]),
        )


@dataclass(frozen=True)
class TopicContext:
    """Citation-count sample of up to k search hits for one topic keyword."""

    keyword: str
    sample_citation_counts: tuple[int, ...]
    k: int
    fetched_at: datetime
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sample_citation_counts", tuple(self.sample_citation_counts)
        )
        if not 1 <= len(self.sample_citation_counts) <= self.k:
            raise ValueError("sample size must lie in 1..k")


@dataclass(frozen=True)
class LlmPromptProfile:
    """System text, few-shot pairs, and a user template with {title}/{abstract}."""

    system_text: str
    few_shot_pairs: tuple[tuple[str, str], ...]
    user_template: str

    def __post_init__(self) -> None:
        if "{title}" not in self.user_template or "{abstract}" not in self.user_template:
            raise ValueError("user_template needs {title} and {abstract} placeholders")

    def messages(self, title: str, abstract: str) -> list[dict[str, str]]:
        msgs = [{"role": "system", "content": self.system_text}]
        for user_text, assistant_text in self.few_shot_pairs:
            msgs.append({"role": "user", "content": user_text})
            msgs.append({"role": "assistant", "content": assistant_text})
        # plain replacement, not str.format: titles may legally contain braces
        user = self.user_template.replace("{title}", title).replace("{abstract}", abstract)
        msgs.append({"role": "user", "content": user})
        return msgs


_TOPIC_INSTRUCTION = (
    "Name the single research topic of the paper below, so the phrase can be "
    "used directly as a search keyword to retrieve closely related papers from "
    "a scholarly search engine. Avoid broad umbrella terms such as 'deep "
    "learning', 'taxonomy', or 'surveys'; prefer the specific phrase that is "
    "unique to the paper's subject. Reply with the phrase only, in the form: xxx"
)

DEFAULT_TOPIC_PROFILE = LlmPromptProfile(
    system_text=(
        "You label scholarly papers with their single most specific topic "
        "key phrase. You answer with the phrase only, no punctuation or "
        "explanation."
    ),
    few_shot_pairs=(
        (
            _TOPIC_INSTRUCTION
            + "\n\nTitle: An Image is Worth 16x16 Words: Transformers for Image "
            "Recognition at Scale\nAbstract: Applies a pure transformer "
            "directly to sequences of image patches for image classification, "
            "matching convolutional networks when pre-trained at scale.",
            "vision transformer",
        ),
    ),
    user_template=_TOPIC_INSTRUCTION + "\n\nTitle: {title}\nAbstract: {abstract}",
)


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------


class RateLimiter:
    """Minimum-interval pacing: at most ``rate`` acquisitions per second.

    Thread-safe; a slot is reserved under the lock and any needed delay is
    slept outside it, so concurrent callers are serialized fairly.
    """

    def __init__(self, rate: float = 1.0):
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.interval = 1.0 / rate
        self._next_slot = 0.0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            slot = max(now, self._next_slot)
            self._next_slot = slot + self.interval
        delay = slot - now
        if delay > 0:
            time.sleep(delay)


_HOST_LIMITERS: dict[str, RateLimiter] = {}
_HOST_LIMITERS_LOCK = threading.Lock()


def shared_limiter(host: str, rate: float = 1.0) -> RateLimiter:
    """Process-wide limiter for one remote host; first caller fixes the rate."""
    with _HOST_LIMITERS_LOCK:
        limiter = _HOST_LIMITERS.get(host)
        if limiter is None:
            limiter = RateLimiter(rate)
            _HOST_LIMITERS[host] = limiter
        return limiter


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportResponse:
    status: int
    body: str


class Transport(Protocol):
    def request(
        self, method: str, url: str, params: dict, headers: dict, body: Optional[str] = None
    ) -> TransportResponse: ...


def request_key(method: str, url: str, params: dict, body: Optional[str] = None) -> str:
    key = {
        "method": method.upper(),
        "url": url,
        "params": {k: str(v) for k, v in params.items()},
    }
    if body is not None:
        key["body"] = body
    return canonical_json(key)


class LiveTransport:
    """Real HTTP via requests; created lazily so imports stay network-free."""

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout

    def request(self, method, url, params, headers, body=None):
        import requests

        try:
            resp = requests.request(
                method,
                url,
                params=params,
                headers=headers,
                data=body.encode("utf-8") if body is not None else None,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise NetworkError(f"{method} {url}: {exc}") from exc
        return TransportResponse(status=resp.status_code, body=resp.text)


class OfflineTransport:
    """Refuses all traffic; counts attempts so tests can assert zero."""

    def __init__(self):
        self.attempts = 0

    def request(self, method, url, params, headers, body=None):
        self.attempts += 1
        raise NetworkForbidden(f"offline mode forbids {method} {url}")


class FixtureTransport:
    """Replays request->response pairs recorded as newline-delimited JSON.

    Each line holds {"request": {"method", "url", "params"[, "body"]},
    "response": {"status", "body"}}; requests are matched on the canonical
    form of the request object. Call timestamps are kept for test inspection.
    """

    def __init__(self, fixture_dir: Optional[str | Path] = None):
        self.responses: dict[str, TransportResponse] = {}
        self.calls: list[tuple[float, str]] = []
        if fixture_dir is None:
            return
        fixture_dir = Path(fixture_dir)
        for path in sorted(fixture_dir.glob("*.ndjson")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    self.add_pair(json.loads(line))

    def add_pair(self, pair: dict) -> None:
        req = pair["request"]
        key = request_key(req["method"], req["url"], req.get("params", {}), req.get("body"))
        resp = pair["response"]
        self.responses[key] = TransportResponse(
            status=int(resp.get("status", 200)), body=resp["body"]
        )

    @classmethod
    def from_pairs(cls, pairs: Sequence[dict]) -> "FixtureTransport":
        transport = cls()
        for pair in pairs:
            transport.add_pair(pair)
        return transport

    def request(self, method, url, params, headers, body=None):
        key = request_key(method, url, params, body)
        self.calls.append((time.monotonic(), key))
        try:
            return self.responses[key]
        except KeyError:
            raise NetworkError(f"no recorded fixture for {method} {url} {params}") from None


# ---------------------------------------------------------------------------
# cache protocol (satisfied by the snapshot store)
# ---------------------------------------------------------------------------


class ApiCache(Protocol):
    def cache_get(self, key: str) -> Optional[str]: ...

    def cache_put(self, key: str, payload: str) -> None: ...


class DictCache:
    """In-memory ApiCache for tests and one-shot scripts."""

    def __init__(self):
        self.data: dict[str, str] = {}

    def cache_get(self, key):
        return self.data.get(key)

    def cache_put(self, key, payload):
        self.data[key] = payload


def _cached_call(
    cache: Optional[ApiCache], key_obj: dict, compute: Callable[[], dict]
) -> dict:
    key = canonical_json(key_obj)
    if cache is not None:
        hit = cache.cache_get(key)
        if hit is not None:
            return json.loads(hit)
    payload = compute()
    if cache is not None:
        cache.cache_put(key, canonical_json(payload))
    return payload


# ---------------------------------------------------------------------------
# retrying request helper
# ---------------------------------------------------------------------------

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.5


def _request_with_retries(
    transport: Transport,
    limiter: Optional[RateLimiter],
    method: str,
    url: str,
    params: dict,
    headers: dict,
    body: Optional[str] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> TransportResponse:
    """Issue one request with bounded retries and jittered exponential backoff.

    Retries cover 429 and 5xx responses; other 4xx statuses are surfaced to
    the caller unchanged so endpoint-specific errors (404 -> UnknownPaper)
    can be raised there.
    """
    last_error: Exception | None = None
    for attempt in range(RETRY_ATTEMPTS):
        if attempt > 0:
            sleep(RETRY_BASE_DELAY * 2 ** (attempt - 1) * (1.0 + random.random()))
        if limiter is not None:
            limiter.acquire()
        try:
            resp = transport.request(method, url, params, headers, body)
        except NetworkForbidden:
            raise
        except NetworkError as exc:
            last_error = exc
            continue
        if resp.status == 429:
            last_error = RateLimited(f"{url} kept returning 429")
            continue
        if resp.status >= 500:
            last_error = NetworkError(f"{url} returned {resp.status}")
            continue
        return resp
    assert last_error is not None
    raise last_error


# ---------------------------------------------------------------------------
# arXiv
# ---------------------------------------------------------------------------


def arxiv_review_query(keyword: str) -> str:
    """Query string selecting review/survey articles mentioning the keyword."""
    if not keyword or not keyword.strip():
        raise EmptyKeyword("keyword must be non-empty")
    kw = keyword.lower()
    return f'(ti:"review" OR ti:"survey") AND (ti:"{kw}" OR abs:"{kw}")'


def _keyword_pattern(keyword: str) -> re.Pattern:
    # literal match, case-insensitive, tolerant of line wraps inside the phrase
    parts = [re.escape(p) for p in keyword.split()]
    return re.compile(r"\s+".join(parts), re.IGNORECASE)


def _collapse_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text or "").strip()


class ArxivClient:
    """Atom-feed client for the arXiv query API. Construction is network-free."""

    def __init__(
        self,
        transport: Optional[Transport] = None,
        base_url: str = ARXIV_API_URL,
        rate: float = 1.0,
        limiter: Optional[RateLimiter] = None,
    ):
        self.base_url = base_url
        self._transport = transport
        self.limiter = limiter if limiter is not None else shared_limiter("arxiv", rate)

    @property
    def transport(self) -> Transport:
        if self._transport is None:
            self._transport = LiveTransport()
        return self._transport

    def search(self, query: str, limit: int) -> list[dict]:
        """Run one query and parse the feed into plain entry dicts."""
        params = {
            "search_query": query,
            "start": 0,
            "max_results": limit,
            "sortBy": "relevance",
        }
        resp = _request_with_retries(
            self.transport, self.limiter, "GET", self.base_url, params, {}
        )
        if resp.status != 200:
            raise NetworkError(f"arXiv query returned {resp.status}")
        return parse_arxiv_feed(resp.body)


def parse_arxiv_feed(body: str) -> list[dict]:
    """Parse an arXiv Atom feed into entry dicts; malformed XML -> ParseError."""
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ParseError(f"malformed arXiv feed: {exc}") from exc
    entries = []
    for entry in root.findall("atom:entry", ATOM_NS):
        raw_id = (entry.findtext("atom:id", "", ATOM_NS) or "").strip()
        arxiv_id = raw_id.rsplit("/", 1)[-1]
        arxiv_id = re.sub(r"v\d+$", "", arxiv_id)
        if not arxiv_id:
            raise ParseError("feed entry without an id")
        entries.append(
            {
                "arxiv_id": arxiv_id,
                "title": _collapse_ws(entry.findtext("atom:title", "", ATOM_NS)),
                "abstract": _collapse_ws(entry.findtext("atom:summary", "", ATOM_NS)),
                "published": (entry.findtext("atom:published", "", ATOM_NS) or "")[:10],
                "author_count": len(entry.findall("atom:author", ATOM_NS)),
            }
        )
    return entries


def fetch_arxiv_candidates(
    client: ArxivClient,
    keyword: str,
    limit: int,
    cache: Optional[ApiCache] = None,
) -> list[PaperRecord]:
    """Search arXiv for review articles on the keyword and post-filter abstracts.

    Only entries whose abstract contains the keyword (case-insensitive) are
    kept. Returned records carry no citation data.
    """
    query = arxiv_review_query(keyword)
    if limit <= 0:
        return []

    def compute() -> dict:
        entries = client.search(query, limit)
        pattern = _keyword_pattern(keyword)
        records = []
        retrieved_at = format_timestamp(utc_now())
        for entry in entries:
            if not pattern.search(entry["abstract"]):
                continue
            records.append(
                {
                    "canonical_id": f"arxiv:{entry['arxiv_id']}",
                    "external_ids": {"arxiv": entry["arxiv_id"]},
                    "title": entry["title"],
                    "abstract": entry["abstract"],
                    "publication_date": entry["published"] or None,
                    "venue": None,
                    "citation_count": None,
                    "reference_ids": [],
                    "author_count": entry["author_count"],
                    "topic_keyword": keyword,
                    "retrieved_at": retrieved_at,
                }
            )
        return {"records": records}

    payload = _cached_call(
        cache, {"op": "arxiv_candidates", "keyword": keyword, "limit": limit}, compute
    )
    return [PaperRecord.from_json_dict(r) for r in payload["records"]]


# ---------------------------------------------------------------------------
# Semantic Scholar
# ---------------------------------------------------------------------------

S2_PAPER_FIELDS = (
    "paperId,externalIds,title,abstract,publicationDate,venue,citationCount,authors"
)


class SemanticScholarClient:
    """Client for the Semantic Scholar graph API. Construction is network-free."""

    def __init__(
        self,
        transport: Optional[Transport] = None,
        base_url: str = S2_API_URL,
        api_key: Optional[str] = None,
        rate: float = 1.0,
        limiter: Optional[RateLimiter] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self._transport = transport
        self.limiter = limiter if limiter is not None else shared_limiter("semanticscholar", rate)

    @property
    def transport(self) -> Transport:
        if self._transport is None:
            self._transport = LiveTransport()
        return self._transport

    def _headers(self) -> dict:
        return {"x-api-key": self.api_key} if self.api_key else {}

    def _get_json(self, path: str, params: dict) -> dict:
        url = f"{self.base_url}{path}"
        resp = _request_with_retries(
            self.transport, self.limiter, "GET", url, params, self._headers()
        )
        if resp.status == 404:
            raise UnknownPaper(f"{path} not found")
        if resp.status != 200:
            raise NetworkError(f"{url} returned {resp.status}")
        try:
            return json.loads(resp.body)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON from {url}: {exc}") from exc

    def paper(self, paper_id: str, fields: str = S2_PAPER_FIELDS) -> dict:
        return self._get_json(f"/paper/{paper_id}", {"fields": fields})

    def search_page(self, query: str, offset: int, limit: int, fields: str,
                    extra: Optional[dict] = None) -> dict:
        params = {"query": query, "offset": offset, "limit": limit, "fields": fields}
        if extra:
            params.update(extra)
        return self._get_json("/paper/search", params)

    def citations_page(self, paper_id: str, offset: int, limit: int) -> dict:
        return self._get_json(
            f"/paper/{paper_id}/citations",
            {"fields": "publicationDate", "offset": offset, "limit": limit},
        )

    def references_page(self, paper_id: str, offset: int, limit: int) -> dict:
        return self._get_json(
            f"/paper/{paper_id}/references",
            {
                "fields": "paperId,externalIds,title,publicationDate,citationCount",
                "offset": offset,
                "limit": limit,
            },
        )


def fetch_topic_sample(
    client: SemanticScholarClient,
    keyword: str,
    k: int = DEFAULT_TOPIC_SAMPLE_K,
    cache: Optional[ApiCache] = None,
) -> TopicContext:
    """Citation counts of up to k search hits for the keyword.

    The search endpoint and paging parameters are recorded in the context's
    provenance, since relevance ranking affects which sample is drawn.
    """
    if not keyword or not keyword.strip():
        raise EmptyKeyword("keyword must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    def compute() -> dict:
        counts: list[int] = []
        offset = 0
        while len(counts) < k:
            page = client.search_page(
                keyword, offset, min(S2_PAGE_SIZE, k - len(counts)), "citationCount"
            )
            data = page.get("data") or []
            for item in data:
                counts.append(int(item.get("citationCount") or 0))
                if len(counts) >= k:
                    break
            nxt = page.get("next")
            if not data or nxt is None:
                break
            offset = int(nxt)
        return {
            "counts": counts,
            "fetched_at": format_timestamp(utc_now()),
            "provenance": {
                "endpoint": "graph/paper/search",
                "fields": "citationCount",
                "page_size": str(S2_PAGE_SIZE),
            },
        }

    payload = _cached_call(cache, {"op": "topic_sample", "keyword": keyword, "k": k}, compute)
    if not payload["counts"]:
        raise EmptyResult(f"no search hits for keyword {keyword!r}")
    return TopicContext(
        keyword=keyword,
        sample_citation_counts=tuple(payload["counts"]),
        k=k,
        fetched_at=parse_timestamp(payload["fetched_at"]),
        provenance=dict(payload["provenance"]),
    )


def _month_index(d: date) -> int:
    return d.year * 12 + (d.month - 1)


def fetch_monthly_citations(
    client: SemanticScholarClient,
    paper_id: str,
    window_months: int = 6,
    now: Optional[date] = None,
    cache: Optional[ApiCache] = None,
) -> CitationSeries:
    """Bucket citing papers into the last full calendar months before ``now``.

    The bucket key is the citing paper's publication month; citers without a
    publication date are dropped and tallied. Months with no citations are
    explicit zeros. The current month is excluded.
    """
    if window_months < 2:
        raise ValueError("window_months must be >= 2")
    now = now or utc_now().date()

    def compute() -> dict:
        citing_dates: list[Optional[str]] = []
        offset = 0
        while True:
            page = client.citations_page(paper_id, offset, S2_PAGE_SIZE)
            data = page.get("data") or []
            for item in data:
                citing = item.get("citingPaper") or {}
                citing_dates.append(citing.get("publicationDate"))
            nxt = page.get("next")
            if not data or nxt is None:
                break
            offset = int(nxt)
        return {"citing_dates": citing_dates}

    payload = _cached_call(cache, {"op": "citations", "paper_id": paper_id}, compute)

    window_end = date(now.year, now.month, 1)
    end_index = _month_index(window_end)  # exclusive
    start_index = end_index - window_months
    counts = [0] * window_months
    dropped = 0
    for raw in payload["citing_dates"]:
        d = parse_date(raw)
        if d is None:
            dropped += 1
            continue
        idx = _month_index(d)
        if start_index <= idx < end_index:
            counts[idx - start_index] += 1
    return CitationSeries(
        monthly_counts=tuple(counts), window_end=window_end, dropped_undated=dropped
    )


def count_relevant(
    client: SemanticScholarClient,
    keyword: str,
    from_date: date,
    to_date: date,
    cache: Optional[ApiCache] = None,
) -> int:
    """Number of search hits published in the half-open window [from, to)."""
    if not keyword or not keyword.strip():
        raise EmptyKeyword("keyword must be non-empty")
    if from_date > to_date:
        raise InvalidDateRange(f"{from_date} > {to_date}")
    if from_date == to_date:
        return 0

    def compute() -> dict:
        total = 0
        offset = 0
        date_filter = f"{format_date(from_date)}:{format_date(to_date)}"
        while True:
            page = client.search_page(
                keyword,
                offset,
                S2_PAGE_SIZE,
                "publicationDate",
                extra={"publicationDateOrYear": date_filter},
            )
            data = page.get("data") or []
            for item in data:
                d = parse_date(item.get("publicationDate"))
                if d is not None and from_date <= d < to_date:
                    total += 1
            nxt = page.get("next")
            if not data or nxt is None:
                break
            offset = int(nxt)
        return {"count": total}

    payload = _cached_call(
        cache,
        {
            "op": "count_relevant",
            "keyword": keyword,
            "from": format_date(from_date),
            "to": format_date(to_date),
        },
        compute,
    )
    return int(payload["count"])


def _record_from_s2(data: dict, canonical_id: str, join_key: Optional[str] = None) -> dict:
    external = {}
    for source, value in (data.get("externalIds") or {}).items():
        external[source.lower()] = str(value)
    if data.get("paperId"):
        external["s2"] = data["paperId"]
    if join_key:
        external["s2_join"] = join_key
    return {
        "canonical_id": canonical_id,
        "external_ids": external,
        "title": _collapse_ws(data.get("title") or ""),
        "abstract": _collapse_ws(data.get("abstract") or ""),
        "publication_date": data.get("publicationDate"),
        "venue": data.get("venue") or None,
        "citation_count": data.get("citationCount"),
        "reference_ids": [],
        "author_count": len(data.get("authors") or []),
        "topic_keyword": None,
        "retrieved_at": format_timestamp(utc_now()),
    }


def canonical_id_for_s2(data: dict) -> str:
    ext = data.get("externalIds") or {}
    arxiv_id = ext.get("ArXiv") or ext.get("arxiv")
    if arxiv_id:
        return f"arxiv:{arxiv_id}"
    doi = ext.get("DOI") or ext.get("doi")
    if doi:
        return f"doi:{doi}"
    return f"s2:{data.get('paperId')}"


def fetch_paper_record(
    client: SemanticScholarClient,
    paper_id: str,
    cache: Optional[ApiCache] = None,
) -> PaperRecord:
    """One paper's metadata by S2-acceptable id (ARXIV:..., DOI:..., sha)."""

    def compute() -> dict:
        data = client.paper(paper_id)
        return _record_from_s2(data, canonical_id_for_s2(data))

    payload = _cached_call(cache, {"op": "paper", "paper_id": paper_id}, compute)
    return PaperRecord.from_json_dict(payload)


def fetch_references(
    client: SemanticScholarClient,
    paper_id: str,
    cache: Optional[ApiCache] = None,
) -> list[PaperRecord]:
    """Reference list with citation counts and publication dates attached."""

    def compute() -> dict:
        records = []
        offset = 0
        retrieved_at = format_timestamp(utc_now())
        while True:
            page = client.references_page(paper_id, offset, S2_PAGE_SIZE)
            data = page.get("data") or []
            for item in data:
                cited = item.get("citedPaper") or {}
                if not cited.get("paperId"):
                    continue
                rec = _record_from_s2(cited, canonical_id_for_s2(cited))
                rec["retrieved_at"] = retrieved_at
                records.append(rec)
            nxt = page.get("next")
            if not data or nxt is None:
                break
            offset = int(nxt)
        return {"records": records}

    payload = _cached_call(cache, {"op": "references", "paper_id": paper_id}, compute)
    return [PaperRecord.from_json_dict(r) for r in payload["records"]]


class LazyPaper:
    """Handle to one paper; the first attribute access triggers the single fetch."""

    def __init__(
        self,
        paper_id: str,
        client: SemanticScholarClient,
        cache: Optional[ApiCache] = None,
    ):
        self.paper_id = paper_id
        self._client = client
        self._cache = cache
        self._record: Optional[PaperRecord] = None

    @property
    def record(self) -> PaperRecord:
        if self._record is None:
            self._record = fetch_paper_record(self._client, self.paper_id, self._cache)
        return self._record

    @property
    def title(self) -> str:
        return self.record.title

    @property
    def abstract(self) -> str:
        return self.record.abstract

    @property
    def citation_count(self) -> Optional[int]:
        return self.record.citation_count

    @property
    def publication_date(self) -> Optional[date]:
        return self.record.publication_date


# ---------------------------------------------------------------------------
# LLM completion backends
# ---------------------------------------------------------------------------


class LlmBackend(Protocol):
    def complete(self, messages: Sequence[dict]) -> str: ...


class LlmHttpClient:
    """Chat-completion JSON client; any compatible provider satisfies it."""

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        model: str = "gpt-3.5-turbo",
        transport: Optional[Transport] = None,
        rate: float = 1.0,
        limiter: Optional[RateLimiter] = None,
    ):
        if not base_url:
            raise LlmUnavailable("no LLM base URL configured")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.model = model
        self._transport = transport
        self.limiter = limiter if limiter is not None else shared_limiter("llm", rate)

    @property
    def transport(self) -> Transport:
        if self._transport is None:
            self._transport = LiveTransport()
        return self._transport

    def complete(self, messages: Sequence[dict]) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/chat/completions"
        body = canonical_json(
            {"model": self.model, "messages": list(messages), "temperature": 0}
        )
        try:
            resp = _request_with_retries(
                self.transport, self.limiter, "POST", url, {}, headers, body=body
            )
        except NetworkError as exc:
            raise LlmUnavailable(f"LLM endpoint unreachable: {exc}") from exc
        if resp.status != 200:
            raise LlmUnavailable(f"LLM endpoint returned {resp.status}")
        try:
            data = json.loads(resp.body)
            return data["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unparseable completion payload: {exc}") from exc


class StubLlm:
    """Deterministic LLM stand-in driven by a canned response table.

    Lookup order: the hash key of the full conversation (sha256 of the
    canonical messages, first 16 hex digits), then table keys treated as
    substrings of the conversation text (sorted, so ties resolve
    deterministically), then the optional default. A key may combine
    several required substrings with ``' && '``.
    """

    def __init__(self, table: Optional[dict[str, str]] = None, default: Optional[str] = None):
        self.table = dict(table or {})
        self.default = default
        self.calls: list[list[dict]] = []

    @staticmethod
    def key_for(messages: Sequence[dict]) -> str:
        blob = canonical_json([{m["role"]: m["content"]} for m in messages])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_json_file(cls, path: str | Path, default: Optional[str] = None) -> "StubLlm":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(table=data.get("responses", data), default=data.get("default", default))

    def complete(self, messages: Sequence[dict]) -> str:
        self.calls.append(list(messages))
        key = self.key_for(messages)
        if key in self.table:
            return self.table[key]
        text = "\n".join(str(m.get("content", "")) for m in messages)
        for candidate in sorted(self.table):
            parts = candidate.split(" && ")
            if candidate and all(part in text for part in parts):
                return self.table[candidate]
        if self.default is not None:
            return self.default
        raise LlmUnavailable(f"stub has no canned response (hash key {key})")


_SENTENCE_PUNCT = re.compile(r"[.!?;:]")


def llm_topic_keyword(
    title: str,
    abstract: str,
    llm: LlmBackend,
    profile: LlmPromptProfile = DEFAULT_TOPIC_PROFILE,
) -> str:
    """Topic key phrase for a paper, validated against the answer-only contract.

    The reply must reduce to one short phrase: non-empty, a single line, no
    sentence punctuation, fewer than 12 words. Anything else (refusals,
    explanations) raises MalformedResponse.
    """
    raw = llm.complete(profile.messages(title=title, abstract=abstract))
    keyword = raw.strip().strip("`'\"").strip()
    if keyword.lower().startswith("xxx:"):
        keyword = keyword[4:].strip()
    if not keyword or "\n" in keyword:
        raise MalformedResponse(f"not a single key phrase: {raw!r}")
    if _SENTENCE_PUNCT.search(keyword) or len(keyword.split()) >= 12:
        raise MalformedResponse(f"not a single key phrase: {raw!r}")
    return keyword
