"""Shared fixtures: canned HTTP exchanges, fake transports, stub LLM tables,
and raw `papers` rows."""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path

import pytest

from litmetrics import snapshot
from litmetrics.indicators import IndicatorReport
from litmetrics.retrieval import (
    ARXIV_API_URL,
    S2_API_URL,
    S2_PAGE_SIZE,
    FixtureTransport,
    TransportResponse,
    request_key,
)

# ---------------------------------------------------------------------------
# canned exchange builders
# ---------------------------------------------------------------------------


def atom_feed(entries: list[dict]) -> str:
    """Minimal arXiv Atom feed body."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append('<feed xmlns="http://www.w3.org/2005/Atom">')
    for e in entries:
        authors = "".join(
            f"<author><name>{name}</name></author>" for name in e.get("authors", ["A. Author"])
        )
        parts.append(
            "<entry>"
            f"<id>http://arxiv.org/abs/{e['arxiv_id']}</id>"
            f"<title>{e['title']}</title>"
            f"<summary>{e['abstract']}</summary>"
            f"<published>{e['published']}T00:00:00Z</published>"
            f"{authors}"
            "</entry>"
        )
    parts.append("</feed>")
    return "".join(parts)


def arxiv_exchange(query: str, limit: int, entries: list[dict]) -> dict:
    return {
        "request": {
            "method": "GET",
            "url": ARXIV_API_URL,
            "params": {
                "search_query": query,
                "start": "0",
                "max_results": str(limit),
                "sortBy": "relevance",
            },
        },
        "response": {"status": 200, "body": atom_feed(entries)},
    }


def s2_search_exchange(
    query: str,
    fields: str,
    data: list[dict],
    offset: int = 0,
    limit: int = S2_PAGE_SIZE,
    extra: dict | None = None,
    next_offset: int | None = None,
    total: int | None = None,
) -> dict:
    """One search page; ``total`` is the hit count the page reports, by
    default the number of hits on it."""
    params = {
        "query": query,
        "offset": str(offset),
        "limit": str(limit),
        "fields": fields,
    }
    if extra:
        params.update({k: str(v) for k, v in extra.items()})
    body = {"total": len(data) if total is None else total, "offset": offset, "data": data}
    if next_offset is not None:
        body["next"] = next_offset
    return {
        "request": {"method": "GET", "url": f"{S2_API_URL}/paper/search", "params": params},
        "response": {"status": 200, "body": json.dumps(body)},
    }


def s2_citations_exchange(
    paper_id: str, citing_dates: list[str | None], offset: int = 0,
    next_offset: int | None = None,
) -> dict:
    data = [{"citingPaper": {"publicationDate": d}} for d in citing_dates]
    body = {"offset": offset, "data": data}
    if next_offset is not None:
        body["next"] = next_offset
    return {
        "request": {
            "method": "GET",
            "url": f"{S2_API_URL}/paper/{paper_id}/citations",
            "params": {
                "fields": "publicationDate",
                "offset": str(offset),
                "limit": str(S2_PAGE_SIZE),
            },
        },
        "response": {"status": 200, "body": json.dumps(body)},
    }


def s2_paper_exchange(paper_id: str, paper: dict, fields: str | None = None) -> dict:
    from litmetrics.retrieval import S2_PAPER_FIELDS

    return {
        "request": {
            "method": "GET",
            "url": f"{S2_API_URL}/paper/{paper_id}",
            "params": {"fields": fields or S2_PAPER_FIELDS},
        },
        "response": {"status": 200, "body": json.dumps(paper)},
    }


def s2_references_exchange(
    paper_id: str, refs: list[dict], offset: int = 0, next_offset: int | None = None
) -> dict:
    data = [{"citedPaper": r} for r in refs]
    body = {"offset": offset, "data": data}
    if next_offset is not None:
        body["next"] = next_offset
    return {
        "request": {
            "method": "GET",
            "url": f"{S2_API_URL}/paper/{paper_id}/references",
            "params": {
                "fields": "paperId,externalIds,title,publicationDate,citationCount",
                "offset": str(offset),
                "limit": str(S2_PAGE_SIZE),
            },
        },
        "response": {"status": 200, "body": json.dumps(body)},
    }


def with_body(exchange: dict, body) -> dict:
    """The exchange answered with ``body``, any JSON value, in place of its own."""
    return {**exchange, "response": {"status": 200, "body": json.dumps(body)}}


def write_fixture_dir(path: Path, exchanges: list[dict], name: str = "recorded.ndjson") -> Path:
    path.mkdir(parents=True, exist_ok=True)
    with open(path / name, "w", encoding="utf-8") as fh:
        for pair in exchanges:
            fh.write(json.dumps(pair, ensure_ascii=False) + "\n")
    return path


# ---------------------------------------------------------------------------
# counting transports
# ---------------------------------------------------------------------------


class CountingTransport:
    """Delegates to an inner transport while recording timestamps and keys.
    A request past ``max_calls`` fails the test, so a fetch that would page
    without end fails instead of hanging."""

    def __init__(self, inner, max_calls: int | None = None):
        self.inner = inner
        self.max_calls = max_calls
        self.calls: list[tuple[float, str]] = []

    @property
    def count(self) -> int:
        return len(self.calls)

    def request(self, method, url, params, headers, body=None):
        self.calls.append((time.monotonic(), request_key(method, url, params, body)))
        assert self.max_calls is None or self.count <= self.max_calls, "paging did not end"
        return self.inner.request(method, url, params, headers, body)


class FlakyTransport:
    """Fails a fixed number of times before delegating; used for retry tests."""

    def __init__(self, inner, failures: int = 0, status: int | None = None):
        from litmetrics.errors import NetworkError

        self.inner = inner
        self.failures = failures
        self.status = status
        self.attempts = 0
        self._error_cls = NetworkError

    def request(self, method, url, params, headers, body=None):
        self.attempts += 1
        if self.attempts <= self.failures:
            if self.status is not None:
                return TransportResponse(status=self.status, body="")
            raise self._error_cls("synthetic connection failure")
        return self.inner.request(method, url, params, headers, body)


# ---------------------------------------------------------------------------
# raw `papers` rows
# ---------------------------------------------------------------------------


def papers_rows(store) -> dict[str, tuple]:
    """Every `papers` row, all its columns as stored, by canonical id."""
    rows = store._conn.execute(f"SELECT {snapshot._PAPER_ROW} FROM papers")
    return {row[0]: row for row in rows}


def put_raw_paper(store, data: dict) -> None:
    """Store a record's JSON dict as its `papers` row in plain SQL, with no
    check, so a row that `PaperRecord` rejects can be written: each key's
    value goes into the column of its name as it is, the two lists as JSON.
    A reference that is a number is written as that link."""
    row = {**data, **{key: json.dumps(data[key]) for key in ("external_ids", "reference_ids")}}
    with store._lock, store._conn:
        store._conn.execute(
            f"INSERT INTO papers ({', '.join(row)}) VALUES ({', '.join('?' * len(row))}) "
            "ON CONFLICT(canonical_id) DO UPDATE SET "
            + ", ".join(f"{key} = excluded.{key}" for key in row), list(row.values()))


def count_decodes(monkeypatch) -> list[str]:
    """The canonical id of each `papers` row the store decodes into a
    record from now on, and "report" for each `reports` row it decodes
    into a report, in decode order."""
    decoded = []
    decode, decode_report = snapshot._paper_record, snapshot._stored_report
    monkeypatch.setattr(snapshot, "_paper_record",
                        lambda row, *args: decoded.append(row[0]) or decode(row, *args))
    monkeypatch.setattr(snapshot, "_stored_report",
                        lambda row: decoded.append("report") or decode_report(row))
    return decoded


def link_pairs(path) -> set[tuple[int, str]]:
    """The (id, canonical_id) pair of every `papers` row of the file."""
    conn = sqlite3.connect(path)
    try:
        return set(conn.execute("SELECT id, canonical_id FROM papers"))
    finally:
        conn.close()


def report_rows(path) -> list[tuple[str, ...]]:
    """Every `reports` row of the file, all its columns, in id order, each
    value as its repr, so that 1 and 1.0, or 0.0 and -0.0, differ."""
    conn = sqlite3.connect(path)
    try:
        return [tuple(map(repr, row)) for row in conn.execute("SELECT * FROM reports ORDER BY id")]
    finally:
        conn.close()


# the schema that `make_legacy` writes, the one a writing open upgrades
LEGACY_SCHEMA = 7
# the `reports` table of schema 7, which also held `iei_weighted`, a column
# no command filled
V7_REPORTS = ("""
CREATE TABLE reports (
    id INTEGER PRIMARY KEY,
    paper_id TEXT NOT NULL REFERENCES papers(canonical_id),
    tncsi, iei_avg, iei_weighted, iei_instant, arq, s_mp, rqm, cdr, rad, rui,
    topic_keyword,
    sample_size,
    computed_at TEXT NOT NULL,
    warnings TEXT
)""", "CREATE INDEX idx_reports_paper ON reports(paper_id)")


def make_legacy(path: Path) -> None:
    """Turn the closed snapshot at ``path`` into a schema-7 file, as
    schema 7 wrote it: every table but `reports` stays as it is, and
    `reports` holds each stored row, id kept, with `iei_weighted` NULL."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            columns = ("id", "paper_id", *IndicatorReport._fields)
            rows = conn.execute(f"SELECT {', '.join(columns)} FROM reports").fetchall()
            conn.execute("DROP TABLE reports")
            for statement in V7_REPORTS:
                conn.execute(statement)
            conn.executemany(f"INSERT INTO reports ({', '.join(columns)}) "
                             f"VALUES ({', '.join('?' * len(columns))})", rows)
            conn.execute("UPDATE meta SET schema_version = ?", (LEGACY_SCHEMA,))
    finally:
        conn.close()


@pytest.fixture
def fixture_transport_factory(tmp_path):
    """Build a FixtureTransport from a list of canned exchanges."""

    def build(exchanges: list[dict]) -> FixtureTransport:
        d = write_fixture_dir(tmp_path / "transport", exchanges)
        return FixtureTransport(d)

    return build
