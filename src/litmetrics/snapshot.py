"""SQLite-backed snapshot of paper metadata, computed indicators, extracted
features, and cached API payloads.

One file on disk, no server. A single connection guarded by a lock gives
single-writer/multi-reader semantics at desk scale; opening read-only is
enforced by SQLite itself via a query-only pragma.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, fields as dataclass_fields
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable, Optional

from .errors import SchemaMismatch, StorageError, UnknownPaper
from .indicators import IndicatorReport
from .jsonio import canonical_json, format_timestamp, parse_date, parse_timestamp, utc_now
from .retrieval import PaperRecord, check_citation_facts

SCHEMA_VERSION = 1

# ids bound per `IN (...)` query, well below SQLite's parameter limit
_IN_CHUNK = 500

# The store holds the API payloads put into it and writes them once this many
# are held, or at the first put this long after its last write. That bounds
# what a hard kill loses and what the store holds in memory. At the default
# `--rate` of one request a second, fetches arrive about this far apart and
# each is written about as it arrives; faster fetches (a higher rate,
# replayed fixtures) share a transaction.
PENDING_MAX = 100
PENDING_MAX_AGE_S = 1.0

FEATURE_NAMES = (
    "taxonomy",
    "prisma",
    "preliminary",
    "benchmark",
    "application",
    "discussion",
    "structured_abstract",
)


@dataclass(frozen=True)
class SnapshotMeta:
    schema_version: int
    created_at: datetime
    source_notes: str = ""


@dataclass(frozen=True)
class FeatureVector:
    """Binary review-content features extracted from one paper."""

    taxonomy: int = 0
    prisma: int = 0
    preliminary: int = 0
    benchmark: int = 0
    application: int = 0
    discussion: int = 0
    structured_abstract: int = 0

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if value not in (0, 1):
                raise ValueError(f"{f.name} must be 0 or 1, got {value!r}")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


_SCHEMA = """
CREATE TABLE meta (
    schema_version INTEGER NOT NULL,
    created_at TEXT NOT NULL,
    source_notes TEXT NOT NULL DEFAULT ''
);
CREATE TABLE papers (
    canonical_id TEXT PRIMARY KEY,
    record_json TEXT NOT NULL
);
CREATE TABLE reports (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    paper_id TEXT NOT NULL REFERENCES papers(canonical_id),
    computed_at TEXT NOT NULL,
    report_json TEXT NOT NULL
);
CREATE TABLE features (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    paper_id TEXT NOT NULL REFERENCES papers(canonical_id),
    recorded_at TEXT NOT NULL,
    features_json TEXT NOT NULL
);
CREATE TABLE api_cache (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    stored_at TEXT NOT NULL
);
CREATE INDEX idx_reports_paper ON reports(paper_id);
CREATE INDEX idx_features_paper ON features(paper_id);
"""


def report_to_json_dict(report: IndicatorReport) -> dict:
    data = {
        "tncsi": report.tncsi,
        "iei_avg": report.iei_avg,
        "iei_weighted": report.iei_weighted,
        "iei_instant": report.iei_instant,
        "arq": report.arq,
        "s_mp": report.s_mp,
        "rqm": report.rqm,
        "cdr": report.cdr,
        "rad": report.rad,
        "rui": report.rui,
        "topic_keyword": report.topic_keyword,
        "sample_size": report.sample_size,
        "warnings": list(report.warnings),
    }
    if report.computed_at is not None:
        data["computed_at"] = format_timestamp(report.computed_at)
    return data


def report_from_json_dict(data: dict) -> IndicatorReport:
    computed = data.get("computed_at")
    return IndicatorReport(
        tncsi=data.get("tncsi"),
        iei_avg=data.get("iei_avg"),
        iei_weighted=data.get("iei_weighted"),
        iei_instant=data.get("iei_instant"),
        arq=data.get("arq"),
        s_mp=data.get("s_mp"),
        rqm=data.get("rqm"),
        cdr=data.get("cdr"),
        rad=data.get("rad"),
        rui=data.get("rui"),
        topic_keyword=data.get("topic_keyword") or "",
        sample_size=data.get("sample_size"),
        computed_at=parse_timestamp(computed) if computed else None,
        warnings=list(data.get("warnings") or []),
    )


@dataclass
class ImportResult:
    imported: int = 0
    corrupt: int = 0


class SnapshotStore:
    """Versioned local snapshot; safe for concurrent readers, one writer.

    sqlite3 here reports threadsafety level 1, so the shared connection is
    serialized by a lock on every access, reads included. API payloads are
    written behind: `cache_put` holds them, within the bounds of
    `PENDING_MAX` and `PENDING_MAX_AGE_S`, and `write` and `close` store
    what is held.
    """

    def __init__(self, path: str | Path, read_only: bool = False,
                 source_notes: str = ""):
        self.path = Path(path)
        self.read_only = read_only
        self._lock = threading.RLock()
        # key -> (payload, time of the put), until written; under the lock
        self._pending: dict[str, tuple[str, datetime]] = {}
        self._written_at = time.monotonic()
        exists = self.path.exists()
        if read_only and not exists:
            raise StorageError(f"snapshot {self.path} does not exist")
        try:
            if read_only:
                self._conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
                )
                self._conn.execute("PRAGMA query_only = ON")
            else:
                self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open snapshot {self.path}: {exc}") from exc
        if not exists and not read_only:
            with self._lock, self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(
                    "INSERT INTO meta (schema_version, created_at, source_notes) VALUES (?, ?, ?)",
                    (SCHEMA_VERSION, format_timestamp(utc_now()), source_notes),
                )
        self._check_schema()

    def _check_schema(self) -> None:
        try:
            row = self._conn.execute(
                "SELECT schema_version, created_at, source_notes FROM meta"
            ).fetchone()
        except sqlite3.Error as exc:
            raise SchemaMismatch(f"{self.path} is not a snapshot: {exc}") from exc
        if row is None or row[0] != SCHEMA_VERSION:
            raise SchemaMismatch(
                f"snapshot schema {row[0] if row else 'missing'} != supported {SCHEMA_VERSION}"
            )
        self.meta = SnapshotMeta(
            schema_version=row[0], created_at=parse_timestamp(row[1]), source_notes=row[2]
        )

    def close(self) -> None:
        """Write the held payloads, then close the connection."""
        try:
            self.write()
        finally:
            self._conn.close()

    def __enter__(self) -> "SnapshotStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- papers -----------------------------------------------------------

    def upsert_paper(self, record: PaperRecord) -> str:
        """Insert or replace by canonical id; dangling reference ids are allowed."""
        if not isinstance(record, PaperRecord):
            raise StorageError("upsert_paper expects a PaperRecord")
        if not record.canonical_id:
            raise StorageError("record has an empty canonical_id")
        payload = record.to_canonical_json()
        with self._lock:
            try:
                with self._conn:
                    self._conn.execute(
                        "INSERT INTO papers (canonical_id, record_json) VALUES (?, ?) "
                        "ON CONFLICT(canonical_id) DO UPDATE SET record_json = excluded.record_json",
                        (record.canonical_id, payload),
                    )
            except sqlite3.Error as exc:
                raise StorageError(f"upsert failed: {exc}") from exc
        return record.canonical_id

    def get_paper(self, canonical_id: str) -> Optional[PaperRecord]:
        return self.get_papers([canonical_id]).get(canonical_id)

    def get_papers(self, ids: Optional[Iterable[str]] = None) -> dict[str, PaperRecord]:
        """Stored records by canonical id, each row read and decoded once.

        With ``ids``, ids that are not stored are left out; without, every
        paper is returned in canonical id order.
        """
        rows = self.paper_fields("canonical_id, record_json", ids)
        return {cid: PaperRecord.from_json_dict(json.loads(blob)) for cid, blob in rows}

    def paper_fields(self, columns: str, ids: Optional[Iterable[str]] = None) -> list[tuple]:
        """`papers` rows of ``columns``, SQL expressions such as
        ``json_extract(record_json, '$.citation_count')``, with no record
        decoded: for the stored ids among ``ids`` in chunked IN queries, or
        without ``ids`` for every paper in canonical id order."""
        with self._lock:
            if ids is None:
                return self._conn.execute(
                    f"SELECT {columns} FROM papers ORDER BY canonical_id"
                ).fetchall()
            wanted = sorted(set(ids))
            rows = []
            for start in range(0, len(wanted), _IN_CHUNK):
                chunk = wanted[start:start + _IN_CHUNK]
                rows += self._conn.execute(
                    f"SELECT {columns} FROM papers "
                    f"WHERE canonical_id IN ({','.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
            return rows

    def citation_facts(
        self, ids: Optional[Iterable[str]] = None
    ) -> dict[str, tuple[Optional[int], Optional[date]]]:
        """(citation_count, publication_date) by canonical id, read as
        `paper_fields` reads rows and checked as a `PaperRecord` checks these
        two fields, which raise the same ValueError; no other field is read."""
        rows = self.paper_fields(
            "canonical_id, json_extract(record_json, '$.citation_count'), "
            "json_extract(record_json, '$.publication_date'), "
            "json_extract(record_json, '$.retrieved_at')",
            ids,
        )
        facts = {}
        for cid, count, published_text, retrieved_text in rows:
            published = parse_date(published_text)
            check_citation_facts(count, published, parse_timestamp(retrieved_text))
            facts[cid] = (count, published)
        return facts

    def insert_new_papers(self, records: Iterable[PaperRecord]) -> None:
        """Insert, in one transaction, the records whose canonical id is not
        stored yet; stored rows stay untouched, and of two records with one id
        the first wins."""
        rows = [(r.canonical_id, r.to_canonical_json()) for r in records]
        with self._lock:
            try:
                with self._conn:
                    self._conn.executemany(
                        "INSERT INTO papers (canonical_id, record_json) VALUES (?, ?) "
                        "ON CONFLICT(canonical_id) DO NOTHING",
                        rows,
                    )
            except sqlite3.Error as exc:
                raise StorageError(f"insert failed: {exc}") from exc

    def require_paper(self, canonical_id: str) -> PaperRecord:
        record = self.get_paper(canonical_id)
        if record is None:
            raise UnknownPaper(canonical_id)
        return record

    def review_ids(self) -> list[str]:
        """Ids of papers carrying a topic keyword (harvested reviews, as
        opposed to bare reference rows), in canonical id order, read in one
        query without decoding any record."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT canonical_id FROM papers "
                "WHERE json_extract(record_json, '$.topic_keyword') <> '' "
                "ORDER BY canonical_id"
            ).fetchall()
        return [r[0] for r in rows]

    def paper_count(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM papers").fetchone()[0]

    # -- JSONL export / import ---------------------------------------------

    def export_jsonl(self, stream: IO[str], ids: Optional[Iterable[str]] = None) -> int:
        """Write one canonical-JSON record per line, ordered by canonical id."""
        selected = sorted(ids) if ids is not None else None
        records = self.get_papers(selected)
        count = 0
        for cid in records if selected is None else selected:
            record = records.get(cid)
            if record is None:
                continue
            stream.write(record.to_canonical_json() + "\n")
            count += 1
        return count

    def import_jsonl(self, stream: IO[str]) -> ImportResult:
        """Upsert records from a JSONL stream; corrupt lines are skipped and tallied."""
        result = ImportResult()
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = PaperRecord.from_json_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                result.corrupt += 1
                continue
            self.upsert_paper(record)
            result.imported += 1
        return result

    # -- reports and features (versioned append) ---------------------------

    def store_report(self, paper_id: str, report: IndicatorReport) -> None:
        self.write([(paper_id, report)])

    def write(self, reports: Iterable[tuple[str, IndicatorReport]] = ()) -> None:
        """Append (paper id, report) pairs and upsert the held API payloads in
        one transaction: all are stored, or, when a paper is unknown or the
        write fails, none, and the payloads stay held. A payload replaces the
        one stored under its key, stored_at included."""
        rows = [
            (paper_id, format_timestamp(report.computed_at or utc_now()),
             canonical_json(report_to_json_dict(report)))
            for paper_id, report in reports
        ]
        with self._lock:
            cached = [(key, payload, format_timestamp(stored_at))
                      for key, (payload, stored_at) in self._pending.items()]
            if not rows and not cached:
                return
            stored = {cid for (cid,) in self.paper_fields("canonical_id", (r[0] for r in rows))}
            for paper_id, _, _ in rows:
                if paper_id not in stored:
                    raise UnknownPaper(paper_id)
            try:
                with self._conn:
                    self._conn.executemany(
                        "INSERT INTO api_cache (key, payload, stored_at) VALUES (?, ?, ?) "
                        "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload, "
                        "stored_at = excluded.stored_at",
                        cached,
                    )
                    self._conn.executemany(
                        "INSERT INTO reports (paper_id, computed_at, report_json) VALUES (?, ?, ?)",
                        rows,
                    )
            except sqlite3.Error as exc:
                raise StorageError(f"snapshot write failed: {exc}") from exc
            self._pending.clear()
            self._written_at = time.monotonic()

    def latest_report(self, paper_id: str) -> Optional[IndicatorReport]:
        with self._lock:
            row = self._conn.execute(
                "SELECT report_json FROM reports WHERE paper_id = ? "
                "ORDER BY computed_at DESC, id DESC LIMIT 1",
                (paper_id,),
            ).fetchone()
        return report_from_json_dict(json.loads(row[0])) if row else None

    def latest_reports(self) -> dict[str, IndicatorReport]:
        """Every paper's latest report, picked as `latest_report` picks it,
        in one query."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT paper_id, report_json FROM ("
                " SELECT paper_id, report_json, ROW_NUMBER() OVER ("
                "  PARTITION BY paper_id ORDER BY computed_at DESC, id DESC) AS row_num"
                " FROM reports) WHERE row_num = 1"
            ).fetchall()
        return {pid: report_from_json_dict(json.loads(blob)) for pid, blob in rows}

    def report_history(self, paper_id: str) -> list[IndicatorReport]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT report_json FROM reports WHERE paper_id = ? ORDER BY id",
                (paper_id,),
            ).fetchall()
        return [report_from_json_dict(json.loads(r[0])) for r in rows]

    def store_features(self, paper_id: str, fv: FeatureVector,
                       recorded_at: Optional[datetime] = None) -> None:
        self.require_paper(paper_id)
        stamp = format_timestamp(recorded_at or utc_now())
        with self._lock:
            try:
                with self._conn:
                    self._conn.execute(
                        "INSERT INTO features (paper_id, recorded_at, features_json) VALUES (?, ?, ?)",
                        (paper_id, stamp, canonical_json(fv.as_dict())),
                    )
            except sqlite3.Error as exc:
                raise StorageError(f"store_features failed: {exc}") from exc

    def latest_features(self, paper_id: str) -> Optional[FeatureVector]:
        with self._lock:
            row = self._conn.execute(
                "SELECT features_json FROM features WHERE paper_id = ? "
                "ORDER BY recorded_at DESC, id DESC LIMIT 1",
                (paper_id,),
            ).fetchone()
        return FeatureVector(**json.loads(row[0])) if row else None

    def all_latest_features(self) -> list[tuple[str, FeatureVector]]:
        """Every paper's latest feature vector, picked as `latest_features`
        picks it, in paper id order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT paper_id, features_json FROM ("
                " SELECT paper_id, features_json, ROW_NUMBER() OVER ("
                "  PARTITION BY paper_id ORDER BY recorded_at DESC, id DESC) AS row_num"
                " FROM features) WHERE row_num = 1 ORDER BY paper_id"
            ).fetchall()
        return [(pid, FeatureVector(**json.loads(blob))) for pid, blob in rows]

    # -- API cache ----------------------------------------------------------

    def cache_get(self, key: str) -> Optional[str]:
        """The payload held or stored under the key, None if neither."""
        with self._lock:
            held = self._pending.get(key)
            if held is not None:
                return held[0]
            row = self._conn.execute(
                "SELECT payload FROM api_cache WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row else None

    def cache_put(self, key: str, payload: str) -> None:
        """Hold the payload, stamped with the time of the put, and write what
        is held once a bound is reached."""
        if self.read_only:
            raise StorageError(f"snapshot {self.path} is read-only")
        with self._lock:
            self._pending[key] = (payload, utc_now())
            if (len(self._pending) >= PENDING_MAX
                    or time.monotonic() - self._written_at >= PENDING_MAX_AGE_S):
                self.write()
