"""Clients for the arXiv query API, the Semantic Scholar graph API, and an
LLM chat-completion endpoint.

Everything is lazy and replayable: constructing a client or a paper handle
performs no network traffic, every request of a client funnels through its
rate limiter (its own, unless one is passed in to share), and all traffic
can be served from recorded fixture files or from payloads cached in the
snapshot store.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from collections import Counter
from datetime import date, datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence

from .errors import (
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
from .indicators import IEI_WINDOW_MONTHS, CitationSeries
from .jsonio import (
    canonical_json,
    format_date,
    format_timestamp,
    parse_date,
    parse_timestamp,
    utc_now,
)
from .records import DEFAULT_TOPIC_SAMPLE_K, PaperRecord, TopicContext, _check_count
from .values import Frozen

ARXIV_API_URL = "https://export.arxiv.org/api/query"
S2_API_URL = "https://api.semanticscholar.org/graph/v1"
S2_PAGE_SIZE = 100
ATOM_NS = {"atom": "http://www.w3.org/2005/Atom"}


_TOPIC_INSTRUCTION = (
    "Name the single research topic of the paper below, so the phrase can be "
    "used directly as a search keyword to retrieve closely related papers from "
    "a scholarly search engine. Avoid broad umbrella terms such as 'deep "
    "learning', 'taxonomy', or 'surveys'; prefer the specific phrase that is "
    "unique to the paper's subject. Reply with the phrase only, in the form: xxx"
)
_TOPIC_SYSTEM = (
    "You label scholarly papers with their single most specific topic "
    "key phrase. You answer with the phrase only, no punctuation or "
    "explanation."
)
# one worked example: (question, answer)
_TOPIC_EXAMPLE = (
    _TOPIC_INSTRUCTION
    + "\n\nTitle: An Image is Worth 16x16 Words: Transformers for Image "
    "Recognition at Scale\nAbstract: Applies a pure transformer "
    "directly to sequences of image patches for image classification, "
    "matching convolutional networks when pre-trained at scale.",
    "vision transformer",
)


def _topic_messages(title: str, abstract: str) -> list[dict[str, str]]:
    """The chat messages that ask for a paper's topic key phrase."""
    question, answer = _TOPIC_EXAMPLE
    return [
        {"role": "system", "content": _TOPIC_SYSTEM},
        {"role": "user", "content": question},
        {"role": "assistant", "content": answer},
        {"role": "user",
         "content": f"{_TOPIC_INSTRUCTION}\n\nTitle: {title}\nAbstract: {abstract}"},
    ]


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------


class RateLimiter:
    """Minimum-interval pacing: at most ``rate`` acquisitions per second.

    Thread-safe; callers pass one at a time, and each waits under the lock
    until ``interval`` after the moment the one before it was let through.
    A sleep that wakes late therefore delays the callers behind it, instead
    of letting them through in a burst on slots reserved before it woke.
    """

    def __init__(self, rate: float = 1.0):
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.interval = 1.0 / rate
        self._next_slot = 0.0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            delay = self._next_slot - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._next_slot = time.monotonic() + self.interval


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class TransportResponse(Frozen):
    _fields = ("status", "body")

    def __init__(self, status: int, body: str) -> None:
        vars(self).update(status=status, body=body)


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
    """Real HTTP via urllib, imported on the first request, so building one
    is network-free and import-free. Every status comes back as a response;
    a failed connection, a timeout or a body cut short is a NetworkError.
    The body is decoded by the charset its Content-Type names, as UTF-8 when
    it names none or one Python does not know, undecodable bytes replaced."""

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout

    def request(self, method, url, params, headers, body=None):
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        from . import __version__

        req = urllib.request.Request(
            f"{url}?{urllib.parse.urlencode(params)}" if params else url,
            data=body.encode("utf-8") if body is not None else None,
            headers={"User-Agent": f"litmetrics/{__version__}", **headers},
            method=method,
        )
        try:
            try:
                resp = urllib.request.urlopen(req, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                resp = exc  # 429 and 5xx are for the retry loop, 404 for the caller
            with resp:
                data, charset = resp.read(), resp.headers.get_content_charset() or "utf-8"
        except (OSError, http.client.HTTPException) as exc:
            raise NetworkError(f"{method} {url}: {exc}") from exc
        try:
            text = data.decode(charset, errors="replace")
        except LookupError:  # a charset Python does not know
            text = data.decode("utf-8", errors="replace")
        return TransportResponse(status=resp.status, body=text)


class OfflineTransport:
    """Refuses all traffic; counts attempts so tests can assert zero."""

    def __init__(self):
        self.attempts = 0

    def request(self, method, url, params, headers, body=None):
        self.attempts += 1
        raise NetworkForbidden(f"offline mode forbids {method} {url}")


class FixtureTransport:
    """Replays request->response pairs recorded as newline-delimited JSON.

    Each line holds {"request": {"method", "url"[, "params", "body"]},
    "response": {"body"[, "status"]}}; requests are matched on the canonical
    form of the request object. A line of another shape raises ValueError
    naming its file and line. A request with no recording raises
    `NetworkForbidden`, which is not retried. Call timestamps are kept for
    test inspection.
    """

    def __init__(self, fixture_dir: Optional[str | Path] = None):
        self.responses: dict[str, TransportResponse] = {}
        self.calls: list[tuple[float, str]] = []
        if fixture_dir is None:
            return
        fixture_dir = Path(fixture_dir)
        for path in sorted(fixture_dir.glob("*.ndjson")):
            with open(path, "rb") as fh:
                for number, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        self.add_pair(json.loads(line.decode("utf-8")))
                    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
                        raise ValueError(f"{path} line {number}: {exc}") from None

    def add_pair(self, pair: dict) -> None:
        """Record one exchange; ValueError if it is not of the shape above:
        a string method, url and response body, an object of params, a
        string or null request body and an integer status."""
        req = pair.get("request") if type(pair) is dict else None
        resp = pair.get("response") if type(pair) is dict else None
        if not (type(req) is dict and type(resp) is dict
                and type(req.get("method")) is str and type(req.get("url")) is str
                and type(req.get("params", {})) is dict
                and type(req.get("body")) in (str, type(None))
                and type(resp.get("body")) is str and type(resp.get("status", 200)) is int):
            raise ValueError('not {"request": {"method", "url"[, "params", "body"]}, '
                             f'"response": {{"body"[, "status"]}}}}: {pair!r:.200}')
        key = request_key(req["method"], req["url"], req.get("params", {}), req.get("body"))
        self.responses[key] = TransportResponse(status=resp.get("status", 200), body=resp["body"])

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
            raise NetworkForbidden(f"no recorded fixture for {method} {url} {params}") from None


# ---------------------------------------------------------------------------
# cache protocol (satisfied by the snapshot store)
# ---------------------------------------------------------------------------


class ApiCache(Protocol):
    def cache_get(self, key: str) -> Optional[str]: ...

    def cache_put(self, key: str, payload: str) -> None: ...


# what reading a value of the wrong JSON type, or one that fails a check, raises
PAYLOAD_ERRORS = (ValueError, KeyError, TypeError, AttributeError, OverflowError)


def _checked(op: str, step: Callable[[], Any]) -> Any:
    """``step()``, with one of `PAYLOAD_ERRORS` it raises turned into
    `ParseError` naming the op."""
    try:
        return step()
    except LitmetricsError:
        raise
    except PAYLOAD_ERRORS as exc:
        raise ParseError(f"malformed {op} payload: {exc}") from exc


def _cached_call(
    cache: Optional[ApiCache],
    key_obj: dict,
    compute: Callable[[], dict],
    decode: Callable[[dict], Any] = lambda payload: payload,
) -> Any:
    """``decode`` of the payload cached under the key, or else of what
    ``compute`` returns, which is cached only once it has decoded.

    A payload that fails a check of ``compute`` or ``decode``, or has a value
    of the wrong JSON type where one is read (a ValueError, KeyError,
    TypeError, AttributeError or OverflowError), raises `ParseError` naming
    the op, and nothing is cached; a `LitmetricsError` passes through as it is.
    A cached payload that ``decode`` rejects, such as one an older version
    cached before a check was added, is fetched again: a fresh payload that
    decodes replaces it, and when the fetch raises a `LitmetricsError`
    (offline, say) the `ParseError` of the cached payload is raised.
    """
    op = key_obj["op"]
    key = canonical_json(key_obj)
    hit = cache.cache_get(key) if cache is not None else None

    def fetch() -> tuple[dict, Any]:
        payload = compute()
        return payload, decode(payload)

    if hit is None:
        payload, result = _checked(op, fetch)
    else:
        try:
            return _checked(op, lambda: decode(json.loads(hit)))
        except ParseError as stale:
            try:
                payload, result = _checked(op, fetch)
            except LitmetricsError:
                raise stale
    if cache is not None:
        cache.cache_put(key, canonical_json(payload))
    return result


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
    return " ".join((text or "").split())


class ArxivClient:
    """Atom-feed client for the arXiv query API. Construction is network-free."""

    def __init__(
        self,
        transport: Optional[Transport] = None,
        base_url: str = ARXIV_API_URL,
        limiter: Optional[RateLimiter] = None,
    ):
        self.base_url = base_url
        self.transport: Transport = transport if transport is not None else LiveTransport()
        self.limiter = limiter if limiter is not None else RateLimiter()

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
    import xml.etree.ElementTree as ET  # only harvest reads XML

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

    return _cached_call(
        cache,
        {"op": "arxiv_candidates", "keyword": keyword, "limit": limit},
        compute,
        lambda payload: [PaperRecord.from_json_dict(r) for r in payload["records"]],
    )


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
        limiter: Optional[RateLimiter] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.transport: Transport = transport if transport is not None else LiveTransport()
        self.limiter = limiter if limiter is not None else RateLimiter()

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


def _pages(fetch_page: Callable[[int], dict]) -> Iterator[tuple[dict, list]]:
    """Each page of an S2 listing with its ``data``, from offset 0 on.

    ``fetch_page(offset)`` returns one page. The paging follows each page's
    ``next`` and stops after a page with no ``data`` or no ``next``; a ``next``
    that is not an integer past the page's offset raises ValueError, so a
    host that names the same page again cannot hold the caller in a loop.
    """
    offset = 0
    while True:
        page = fetch_page(offset)
        data = page.get("data") or []
        yield page, data
        nxt = page.get("next")
        if not data or nxt is None:
            return
        if not isinstance(nxt, int) or nxt <= offset:
            raise ValueError(f"page at offset {offset} names next {nxt!r}, not one past it")
        offset = nxt


def fetch_topic_sample(
    client: SemanticScholarClient,
    keyword: str,
    k: int = DEFAULT_TOPIC_SAMPLE_K,
    cache: Optional[ApiCache] = None,
) -> TopicContext:
    """Citation counts of up to k search hits for the keyword.

    The search endpoint and paging parameters are recorded in the context's
    provenance, since relevance ranking affects which sample is drawn. A hit
    with no count counts 0; a count that is not a non-negative integer, or a
    fetch time or provenance that does not decode, fetched or cached, raises
    `ParseError`, and a fetched one caches nothing.
    """
    if not keyword or not keyword.strip():
        raise EmptyKeyword("keyword must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    def compute() -> dict:
        counts: list[int] = []
        for _, data in _pages(lambda offset: client.search_page(
                keyword, offset, min(S2_PAGE_SIZE, k - len(counts)), "citationCount")):
            for item in data[: k - len(counts)]:
                count = item.get("citationCount")
                counts.append(0 if count is None else count)
            if len(counts) >= k:
                break
        return {
            "counts": counts,
            "fetched_at": format_timestamp(utc_now()),
            "provenance": {
                "endpoint": "graph/paper/search",
                "fields": "citationCount",
                "page_size": str(S2_PAGE_SIZE),
            },
        }

    def decode(payload: dict) -> Optional[TopicContext]:
        """The context, or None for a search with no hits."""
        counts = payload["counts"]
        for count in counts:
            _check_count("citationCount", count)
        stamp = parse_timestamp(payload["fetched_at"]), dict(payload["provenance"])
        return TopicContext(keyword, counts, k, *stamp) if counts else None

    context = _cached_call(
        cache, {"op": "topic_sample", "keyword": keyword, "k": k}, compute, decode)
    if context is None:
        raise EmptyResult(f"no search hits for keyword {keyword!r}")
    return context


def month_index(d: date) -> int:
    """The month of ``d`` as one integer, counted from January of year 0."""
    return d.year * 12 + (d.month - 1)


_YEAR_RE = re.compile(r"\d{4}", re.ASCII)
_YEAR_MONTH_RE = re.compile(r"(\d{4})-(\d{2})", re.ASCII)


def _citation_months(citing_dates: Iterable[Any]) -> dict:
    """Citing papers per publication month, the form a ``citations`` payload
    is cached in: ``{"months": {"YYYY-MM": n}, "undated": n, "year_only": n}``.

    None or "" is undated and a bare ``YYYY`` is year-only; ``YYYY-MM``, and
    ``YYYY-MM-DD`` read from the first ten characters as `parse_date` reads
    them, count in their month. Any other value raises ValueError.
    """
    month_indexes: list[int] = []
    undated = year_only = 0
    for raw in citing_dates:
        try:
            d = parse_date(raw)
        except (ValueError, TypeError):
            d = _partial_date(raw)
            if d is None:
                year_only += 1
                continue
        if d is None:
            undated += 1
        else:
            month_indexes.append(month_index(d))
    return {
        "months": {f"{i // 12:04d}-{i % 12 + 1:02d}": n
                   for i, n in Counter(month_indexes).items()},
        "undated": undated,
        "year_only": year_only,
    }


def _partial_date(raw: Any) -> Optional[date]:
    """The first day of a ``YYYY-MM`` citing date's month, or None for a bare
    ``YYYY``; any other value raises ValueError."""
    if isinstance(raw, str):
        if _YEAR_RE.fullmatch(raw):
            return None
        m = _YEAR_MONTH_RE.fullmatch(raw)
        if m:
            try:
                return date(int(m[1]), int(m[2]), 1)
            except ValueError:
                pass
    raise ValueError(f"citing date {raw!r} is not YYYY, YYYY-MM or YYYY-MM-DD")


def fetch_monthly_citations(
    client: SemanticScholarClient,
    paper_id: str,
    window_months: int = IEI_WINDOW_MONTHS,
    now: Optional[date] = None,
    cache: Optional[ApiCache] = None,
) -> CitationSeries:
    """Bucket citing papers into the last full calendar months before ``now``.

    The bucket key is the citing paper's publication month; citers without a
    publication date, and those dated only by year, are dropped and tallied
    apart. Months with no citations are explicit zeros. The current month is
    excluded, and so is any later one.

    The payload is cached as the month histogram of `_citation_months`, which
    holds no window, so one payload serves any ``now``. It is built and
    checked before it is cached, so a citing date that fails the checks
    raises `ParseError` and leaves no entry. A tally that is not a
    non-negative integer, fetched or cached, raises `ParseError` too.
    """
    if window_months < 2:
        raise ValueError("window_months must be >= 2")
    now = now or utc_now().date()
    window_end = date(now.year, now.month, 1)
    start_index = month_index(window_end) - window_months

    def compute() -> dict:
        citing_dates: list[Optional[str]] = []
        for _, data in _pages(
                lambda offset: client.citations_page(paper_id, offset, S2_PAGE_SIZE)):
            for item in data:
                citing = item.get("citingPaper") or {}
                citing_dates.append(citing.get("publicationDate"))
        return _citation_months(citing_dates)

    def decode(payload: dict) -> CitationSeries:
        counts = [0] * window_months
        for month, n in payload["months"].items():
            _check_count("monthly count", n)
            i = month_index(date(int(month[:4]), int(month[5:]), 1)) - start_index
            if 0 <= i < window_months:
                counts[i] += n
        _check_count("undated", payload["undated"])
        _check_count("year_only", payload["year_only"])
        return CitationSeries(
            monthly_counts=tuple(counts),
            window_end=window_end,
            dropped_undated=payload["undated"],
            dropped_year_only=payload["year_only"],
        )

    return _cached_call(cache, {"op": "citations", "paper_id": paper_id}, compute, decode)


class RelevantCount(NamedTuple):
    """Search hits in a date window. ``total`` is set only when the search
    reported more hits than its paging could reach (S2's relevance search
    stops at `S2_SEARCH_CAP`), so ``count`` saw only the first of them."""

    count: int
    total: Optional[int] = None


def count_relevant(
    client: SemanticScholarClient,
    keyword: str,
    from_date: date,
    to_date: date,
    cache: Optional[ApiCache] = None,
) -> RelevantCount:
    """Number of search hits published in the half-open window [from, to).

    The payload is cached as ``{"count": n}``, with ``"total": t`` added only
    when the search reported more hits than its paging reached; a payload,
    fetched or cached, whose values are not non-negative integers raises
    `ParseError`."""
    if not keyword or not keyword.strip():
        raise EmptyKeyword("keyword must be non-empty")
    if from_date > to_date:
        raise InvalidDateRange(f"{from_date} > {to_date}")
    if from_date == to_date:
        return RelevantCount(0)

    def compute() -> dict:
        count = reached = total = 0
        date_filter = f"{format_date(from_date)}:{format_date(to_date)}"
        for page, data in _pages(lambda offset: client.search_page(
            keyword,
            offset,
            S2_PAGE_SIZE,
            "publicationDate",
            extra={"publicationDateOrYear": date_filter},
        )):
            reached += len(data)
            total = max(total, int(page.get("total") or 0))
            for item in data:
                d = parse_date(item.get("publicationDate"))
                if d is not None and from_date <= d < to_date:
                    count += 1
        return {"count": count, "total": total} if total > reached else {"count": count}

    def decode(payload: dict) -> RelevantCount:
        _check_count("count", payload["count"])
        if payload.get("total") is not None:
            _check_count("total", payload["total"])
        return RelevantCount(payload["count"], payload.get("total"))

    return _cached_call(
        cache,
        {
            "op": "count_relevant",
            "keyword": keyword,
            "from": format_date(from_date),
            "to": format_date(to_date),
        },
        compute,
        decode,
    )


def _record_from_s2(data: dict, retrieved_at: datetime) -> PaperRecord:
    """The `PaperRecord` of one S2 paper object, fetched at ``retrieved_at``."""
    external = {}
    for source, value in (data.get("externalIds") or {}).items():
        external[source.lower()] = str(value)
    if data.get("paperId"):
        external["s2"] = data["paperId"]
    return PaperRecord(
        canonical_id=canonical_id_for_s2(data),
        title=_collapse_ws(data.get("title") or ""),
        abstract=_collapse_ws(data.get("abstract") or ""),
        external_ids=external,
        publication_date=parse_date(data.get("publicationDate")),
        venue=data.get("venue") or None,
        citation_count=data.get("citationCount"),
        author_count=len(data.get("authors") or []),
        retrieved_at=retrieved_at,
    )


def canonical_id_for_s2(data: dict) -> str:
    ext = data.get("externalIds") or {}
    arxiv_id = ext.get("ArXiv") or ext.get("arxiv")
    if arxiv_id:
        return f"arxiv:{arxiv_id}"
    doi = ext.get("DOI") or ext.get("doi")
    if doi:
        return f"doi:{doi}"
    return f"s2:{data.get('paperId')}"


def join_route(record: PaperRecord) -> Optional[tuple[str, str]]:
    """(scheme, graph API id) of the external id a record is joined on: its
    arXiv id, else its DOI, else its Semantic Scholar id; None when it has
    none of them."""
    for scheme, prefix in (("arxiv", "ARXIV:"), ("doi", "DOI:"), ("s2", "")):
        if record.external_ids.get(scheme):
            return scheme, prefix + record.external_ids[scheme]
    return None


def api_id_for(record: PaperRecord) -> str:
    """Identifier accepted by the graph API for an already-stored record."""
    if route := join_route(record):
        return route[1]
    raise UnknownPaper(f"{record.canonical_id} has no API-resolvable identifier")


def fetch_paper_record(client: SemanticScholarClient, paper_id: str) -> PaperRecord:
    """One paper's metadata by S2-acceptable id (ARXIV:..., DOI:..., sha).
    A payload that fails `PaperRecord`'s checks raises `ParseError`."""
    return _checked("paper", lambda: _record_from_s2(client.paper(paper_id), utc_now()))


def fetch_references(client: SemanticScholarClient, paper_id: str) -> list[PaperRecord]:
    """A paper's reference records, in list order, duplicates kept, fetched
    and not cached. A record that fails `PaperRecord`'s checks, or a page of
    the wrong shape, raises `ParseError`."""

    def fetch() -> list[PaperRecord]:
        records = []
        retrieved_at = utc_now()
        for _, data in _pages(
                lambda offset: client.references_page(paper_id, offset, S2_PAGE_SIZE)):
            for item in data:
                cited = item.get("citedPaper") or {}
                if cited.get("paperId"):
                    records.append(_record_from_s2(cited, retrieved_at))
        return records

    return _checked("references", fetch)


def merge_fetched(record: PaperRecord, fetched: PaperRecord,
                  reference_ids: list[str]) -> PaperRecord:
    """The stored ``record`` enriched with the ``fetched`` record of the same
    paper and its reference ids, which `enrich` writes. The route `enrich`
    joined it by, arXiv id, DOI, Semantic Scholar id or title, is kept under
    ``s2_join``."""
    ids = record.external_ids
    join_key = (join_route(record) or ("title",))[0]
    return PaperRecord(
        canonical_id=record.canonical_id,
        title=record.title or fetched.title,
        abstract=record.abstract or fetched.abstract,
        external_ids={**fetched.external_ids, **ids, "s2_join": join_key},
        publication_date=record.publication_date or fetched.publication_date,
        venue=fetched.venue or record.venue,
        citation_count=fetched.citation_count,
        reference_ids=reference_ids,
        author_count=record.author_count or fetched.author_count,
        topic_keyword=record.topic_keyword,
        retrieved_at=fetched.retrieved_at,
    )


class LazyPaper:
    """Handle to one paper; the first attribute access triggers the single fetch."""

    def __init__(self, paper_id: str, client: SemanticScholarClient):
        self.paper_id = paper_id
        self._client = client
        self._record: Optional[PaperRecord] = None

    @property
    def record(self) -> PaperRecord:
        if self._record is None:
            self._record = fetch_paper_record(self._client, self.paper_id)
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
        limiter: Optional[RateLimiter] = None,
    ):
        if not base_url:
            raise LlmUnavailable("no LLM base URL configured")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.model = model
        self.transport: Transport = transport if transport is not None else LiveTransport()
        self.limiter = limiter if limiter is not None else RateLimiter()

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
            content = json.loads(resp.body)["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unparseable completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise MalformedResponse(f"completion content is not a string: {content!r:.80}")
        return content


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
        import hashlib  # kept off the start-up of commands that use no LLM

        blob = canonical_json([{m["role"]: m["content"]} for m in messages])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_json_file(cls, path: str | Path, default: Optional[str] = None) -> "StubLlm":
        """The stub of a JSON object whose `responses`, or else the object
        itself less its `default`, maps keys to responses, all strings, and
        whose `default`, if given, is a string; ValueError if the file is not
        JSON of that shape."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {data!r:.200}")
        default = data.pop("default", default)
        table = data.get("responses", data)
        if not (isinstance(table, dict) and all(type(v) is str for v in table.values())):
            raise ValueError(f"responses must map strings to strings, not {table!r:.200}")
        if not (default is None or type(default) is str):
            raise ValueError(f"default must be a string, not {default!r:.200}")
        return cls(table=table, default=default)

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


def llm_topic_keyword(title: str, abstract: str, llm: LlmBackend) -> str:
    """Topic key phrase for a paper, validated against the answer-only contract.

    The reply must reduce to one short phrase: non-empty, a single line, no
    sentence punctuation, fewer than 12 words. Anything else (refusals,
    explanations) raises MalformedResponse.
    """
    raw = llm.complete(_topic_messages(title, abstract))
    keyword = raw.strip().strip("`'\"").strip()
    if keyword.lower().startswith("xxx:"):
        keyword = keyword[4:].strip()
    if not keyword or "\n" in keyword:
        raise MalformedResponse(f"not a single key phrase: {raw!r}")
    if _SENTENCE_PUNCT.search(keyword) or len(keyword.split()) >= 12:
        raise MalformedResponse(f"not a single key phrase: {raw!r}")
    return keyword
