"""SQLite-backed snapshot of paper metadata, computed indicators, extracted
features, and cached API payloads.

One file on disk, no server. A single connection guarded by a lock gives
single-writer/multi-reader semantics at desk scale; opening read-only is
enforced by SQLite itself via a query-only pragma.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional

from .errors import SchemaMismatch, StorageError, UnknownPaper
from .indicators import IndicatorReport
from .jsonio import (canonical_json, format_date, format_timestamp, parse_date,
                     parse_timestamp, utc_now)
from .records import PaperRecord
from .values import Frozen, Value

SCHEMA_VERSION = 8

# ids bound per `IN (...)` list, a power of two well below SQLite's parameter
# limit
_IN_CHUNK = 512

# The writing connection keeps one transaction open across writes and puts
# and commits it after the first of them this long after its last commit, and
# at `close`. That bounds what a hard kill loses to the writes of about the
# last second. At the default `--rate` of one request a second, writes come
# farther apart than this and each commits at once; faster ones (a higher
# rate, replayed fixtures, rows written in a loop) share a transaction.
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


class FeatureVector(Frozen):
    """Binary review-content features extracted from one paper."""

    _fields = FEATURE_NAMES

    def __init__(self, taxonomy: int = 0, prisma: int = 0, preliminary: int = 0,
                 benchmark: int = 0, application: int = 0, discussion: int = 0,
                 structured_abstract: int = 0) -> None:
        vars(self).update(taxonomy=taxonomy, prisma=prisma, preliminary=preliminary,
                          benchmark=benchmark, application=application, discussion=discussion,
                          structured_abstract=structured_abstract)
        for name in FEATURE_NAMES:
            value = getattr(self, name)
            if value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


# `papers`, since schema 5: one column per `PaperRecord` field, NULL, 0 and ""
# taking no payload bytes (https://www.sqlite.org/fileformat2.html#record_format);
# a text column keeps "" and NULL apart.
# `id` is explicit because `VACUUM` may renumber an implicit rowid, and the ids
# are links. `external_ids` is compact JSON, NULL when empty, less the entry
# that an `arxiv:`, `doi:` or `s2:` canonical id spells; a `null` under that
# scheme marks a record that lacks the entry, and a value that differs is
# kept. `reference_ids` is a JSON array, NULL when empty: a reference stored
# when its citing row was written is its `id`, a JSON integer, and any other
# its canonical id (a dangling id); a link takes 1-6 bytes where a canonical
# id takes about 33. Nothing deletes or replaces a `papers` row, and an
# upsert keeps its `id`, so a link never goes stale. Every row
# holds a record that passed `PaperRecord`'s checks: `write` stores only
# records, and schema 7, the one schema a writing open upgrades, held this
# same table. A read builds each record anew, so a damaged row fails its
# checks there, as a StorageError naming the paper.
_PAPERS = """
CREATE TABLE papers (
    id INTEGER PRIMARY KEY,
    canonical_id TEXT NOT NULL UNIQUE,
    topic_keyword TEXT,
    citation_count INTEGER,
    publication_date TEXT,
    retrieved_at TEXT NOT NULL,
    title TEXT,
    abstract TEXT,
    venue TEXT,
    author_count INTEGER,
    external_ids TEXT,
    reference_ids TEXT
)"""
# the reviews, in canonical id order, with no table read: `review_ids`
_REVIEWS_INDEX = ("CREATE INDEX idx_papers_reviews ON papers(canonical_id, topic_keyword) "
                  "WHERE topic_keyword <> ''")
# `reports`, since schema 8: one column per `IndicatorReport` field, in field
# order and named as the field. The value columns declare no type, so SQLite
# converts nothing: an int or a float reads back as the type it was written
# as, and NULL, 0 and 1 take no payload bytes. `computed_at` is the report's
# time, or the time `write` stamped on a report that had none, and reports are
# ordered by it, then by `id`. `warnings` is compact JSON, NULL when empty.
# SQLite stores NaN as NULL, and binds no int outside its 64-bit range, so
# `write` refuses a report that holds either.
# Nothing deletes a `reports` or `features` row, so a plain INTEGER PRIMARY
# KEY numbers them as AUTOINCREMENT would, with no `sqlite_sequence` table.
# A writing open brings schema 7's `reports` to this table (see `_upgrade`).
_REPORTS = ("""
CREATE TABLE reports (
    id INTEGER PRIMARY KEY,
    paper_id TEXT NOT NULL REFERENCES papers(canonical_id),
    tncsi, iei_avg, iei_instant, arq, s_mp, rqm, cdr, rad, rui,
    topic_keyword,
    sample_size,
    computed_at TEXT NOT NULL,
    warnings TEXT
)""", "CREATE INDEX idx_reports_paper ON reports(paper_id)")
# `features`, since schema 7: one column per `FEATURE_NAMES` entry, with no
# declared type, after the time the vector was recorded
_FEATURES = ("""
CREATE TABLE features (
    id INTEGER PRIMARY KEY,
    paper_id TEXT NOT NULL REFERENCES papers(canonical_id),
    recorded_at TEXT NOT NULL,
    taxonomy, prisma, preliminary, benchmark, application, discussion, structured_abstract
)""", "CREATE INDEX idx_features_paper ON features(paper_id)")
_SCHEMA = ";\n".join(("""
CREATE TABLE meta (
    schema_version INTEGER NOT NULL,
    created_at TEXT NOT NULL,
    source_notes TEXT NOT NULL DEFAULT ''
);
CREATE TABLE api_cache (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    stored_at TEXT NOT NULL
)""", *_REPORTS, *_FEATURES, _PAPERS, _REVIEWS_INDEX)) + ";\n"

# each column is named as the `PaperRecord` field it holds: `_paper_row`
# builds a row from a record's fields, and `_paper_record` a record from a row
_PAPER_COLUMNS = ("canonical_id", "topic_keyword", "citation_count", "publication_date",
                  "retrieved_at", "title", "abstract", "venue", "author_count", "external_ids",
                  "reference_ids")
_PAPER_ROW = ", ".join(_PAPER_COLUMNS)
# what `get_papers` reads: `_PAPER_ROW`, then the row's id
_LINKED_ROW = _PAPER_ROW + ", id"
# what `get_papers_and_reference_facts` reads of a paper that a read record
# names: RQM's and RUI's (citation_count, publication_date)
_FACT_COLUMNS = "canonical_id, citation_count, publication_date"
# a `papers` row's publication year, NULL when it has no date
_PUBLICATION_YEAR = "CAST(substr(publication_date, 1, 4) AS INTEGER)"
_INSERT_PAPER = (f"INSERT INTO papers ({_PAPER_ROW}) "
                 f"VALUES ({', '.join('?' * len(_PAPER_COLUMNS))})")
_UPSERT_PAPER = _INSERT_PAPER + (
    " ON CONFLICT(canonical_id) DO UPDATE SET "
    + ", ".join(f"{c} = excluded.{c}" for c in _PAPER_COLUMNS[1:]))
_INSERT_NEW_PAPER = _INSERT_PAPER + " ON CONFLICT(canonical_id) DO NOTHING"
# the canonical id schemes that spell an external id: `arxiv:X` is the
# record's `external_ids["arxiv"] == "X"`, when it has that entry
_OWN_ID_SCHEMES = ("arxiv", "doi", "s2")


def _own_id(canonical_id: str) -> tuple[str, str]:
    """(scheme, value) of a canonical id that spells an external id, or
    ("", "") for one that does not."""
    scheme, colon, value = canonical_id.partition(":")
    return (scheme, value) if colon and scheme in _OWN_ID_SCHEMES else ("", "")


def _paper_row(record: PaperRecord, links: Mapping[str, int]) -> tuple:
    """The `papers` row, in `_PAPER_ROW` order, of a record, each reference
    that ``links`` holds written as its link."""
    ids = dict(record.external_ids)
    scheme, own = _own_id(record.canonical_id)
    if scheme and ids.setdefault(scheme, None) == own:
        del ids[scheme]
    references = [links.get(r, r) for r in record.reference_ids]
    return (record.canonical_id, record.topic_keyword, record.citation_count,
            format_date(record.publication_date), format_timestamp(record.retrieved_at),
            record.title, record.abstract, record.venue, record.author_count,
            canonical_json(ids) if ids else None,
            canonical_json(references) if references else None)


def _stored_references(row: tuple) -> list:
    """The decoded `reference_ids` of a `papers` row selected as `_LINKED_ROW`,
    its links as stored. A column that holds no JSON list raises StorageError."""
    try:
        references = [] if row[-2] is None else json.loads(row[-2])
        if type(references) is list:
            return references
        raise ValueError(f"reference_ids must be a list, not {references!r:.80}")
    except ValueError as exc:
        raise StorageError(f"paper {row[0]!r} has a corrupt `papers` row: {exc}") from None


def _paper_record(row: tuple, references: list, names: Mapping[int, str]) -> PaperRecord:
    """The record of a `papers` row selected as `_LINKED_ROW` whose
    `reference_ids` decode to ``references``, each link replaced by the
    canonical id ``names`` holds for it. A link it lacks, which no row has,
    or a row that fails the record's checks, raises StorageError."""
    cid, keyword, count, published, retrieved, title, abstract, venue, authors, ids, _, _ = row
    try:
        references = [names[r] if type(r) is int else r for r in references]
        ids = {} if ids is None else json.loads(ids)
        scheme, own = _own_id(cid)
        if scheme and ids.setdefault(scheme, own) is None:
            del ids[scheme]
        return PaperRecord(cid, title, abstract or "", ids, parse_date(published), venue,
                           count, references, authors, keyword, parse_timestamp(retrieved))
    except KeyError as exc:  # only `names` is looked up by key
        raise StorageError(f"paper {cid!r} names reference link {exc.args[0]}, "
                           "which is no `papers` row id") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise StorageError(f"paper {cid!r} has a corrupt `papers` row: {exc}") from None


def _reference_fact(row: tuple) -> tuple:
    """(canonical_id, (citation_count, publication_date)) of a row read as
    ``id, `` + `_FACT_COLUMNS`; a date that does not parse raises StorageError."""
    _, cid, count, published = row
    try:
        return cid, (count, parse_date(published))
    except (TypeError, ValueError) as exc:
        raise StorageError(f"paper {cid!r} has a corrupt `papers` row: {exc}") from None


def _padded(values: list) -> list:
    """``values`` padded with NULLs, which match no row, to a power of two:
    the connection caches every statement text it prepares, so `IN` lists
    come in a few lengths, not one per count of ids."""
    return values + [None] * ((1 << max(0, len(values) - 1).bit_length()) - len(values))


# a report's `reports` columns, in `IndicatorReport` field order
_REPORT_ROW = ", ".join(IndicatorReport._fields)
_INSERT_REPORT = (f"INSERT INTO reports (id, paper_id, {_REPORT_ROW}) "
                  f"VALUES (?, ?, {', '.join('?' * len(IndicatorReport._fields))})")
# each paper's latest report: its last by `computed_at`, then by `id`; a
# `paper_id = ?` term is pushed into the window's partition and searches the index
_LATEST_REPORTS = (f"(SELECT * FROM (SELECT paper_id, {_REPORT_ROW}, ROW_NUMBER() OVER ("
                   "PARTITION BY paper_id ORDER BY computed_at DESC, id DESC) AS row_num "
                   "FROM reports) WHERE row_num = 1)")
# the `stats` metrics, each an SQL expression over a review's `papers` row
# joined to its latest report's columns, NULL where the review has no value
STATS_METRICS = {
    "cites": "citation_count",
    "refs": "NULLIF(json_array_length(reference_ids), 0)",
    "authors": "NULLIF(author_count, 0)",
    "year": _PUBLICATION_YEAR,
    "tncsi": "tncsi", "iei": "iei_avg", "arq": "arq", "s_mp": "s_mp",
    "rqm": "rqm", "cdr": "cdr", "rad": "rad", "rui": "rui",
}
_FEATURE_ROW = ", ".join(FEATURE_NAMES)
_INSERT_FEATURES = (f"INSERT INTO features (id, paper_id, recorded_at, {_FEATURE_ROW}) "
                    f"VALUES (?, ?, ?, {', '.join('?' * len(FEATURE_NAMES))})")


def _report_row(paper_id: str, report: IndicatorReport, stamp: str) -> tuple:
    """The `reports` row, less its id, of a paper's report, its time
    ``stamp`` when it has none. A value that is NaN, or an int outside
    SQLite's 64-bit range, raises StorageError naming the paper and field."""
    *values, computed, warnings = (getattr(report, name) for name in IndicatorReport._fields)
    for name, value in zip(IndicatorReport._fields, values):
        if value != value:
            raise StorageError(f"report of paper {paper_id!r} holds NaN in {name}, "
                               "which the snapshot cannot store")
        if isinstance(value, int) and not -2**63 <= value < 2**63:
            raise StorageError(f"report of paper {paper_id!r} holds {value} in {name}, "
                               "outside the 64-bit range the snapshot stores")
    return (paper_id, *values, format_timestamp(computed) if computed else stamp,
            canonical_json(warnings) if warnings else None)


def _stored_report(row: tuple) -> IndicatorReport:
    """The report of a `reports` row selected as `_REPORT_ROW`."""
    *values, computed, warnings = row
    return IndicatorReport(*values, parse_timestamp(computed),
                           [] if warnings is None else json.loads(warnings))


class ImportResult(Value):
    _fields = ("imported", "corrupt")

    def __init__(self, imported: int = 0, corrupt: int = 0) -> None:
        self.imported = imported
        self.corrupt = corrupt


class SnapshotStore:
    """Versioned local snapshot; safe for concurrent readers, one writer.

    sqlite3 here reports threadsafety level 1, so the shared connection is
    serialized by a lock on every access, reads included. Writes are
    group-committed: each `write` and `cache_put` joins the one transaction
    the connection keeps open, which the first write after a commit opens
    with `BEGIN IMMEDIATE`, and the transaction is committed after the
    first write `PENDING_MAX_AGE_S` after the last commit, and by `close`.
    This connection reads what it has not committed yet; other connections
    see it at the commit. Until then the store holds SQLite's RESERVED
    lock, so another writer waits.
    """

    def __init__(self, path: str | Path, read_only: bool = False,
                 source_notes: str = ""):
        self.path = Path(path)
        self.read_only = read_only
        self._lock = threading.RLock()
        self._committed_at = time.monotonic()
        if read_only and not self.path.exists():
            raise StorageError(f"snapshot {self.path} does not exist")
        try:
            if read_only:
                # percent-encoded, a `#`, `?` or `%` in the path is part of the
                # name, not a URI's fragment, query or escape
                self._conn = sqlite3.connect(
                    self.path.resolve().as_uri() + "?mode=ro", uri=True, check_same_thread=False
                )
                self._conn.execute("PRAGMA query_only = ON")
            else:
                self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open snapshot {self.path}: {exc}") from exc
        try:
            if not read_only and not self._conn.execute("SELECT 1 FROM sqlite_master").fetchone():
                # one transaction, so that an interrupted creation leaves no table
                with self._lock, self._conn:
                    self._conn.executescript("BEGIN;" + _SCHEMA)
                    self._conn.execute(
                        "INSERT INTO meta (schema_version, created_at, source_notes) "
                        "VALUES (?, ?, ?)",
                        (SCHEMA_VERSION, format_timestamp(utc_now()), source_notes),
                    )
            self._check_schema()
        except BaseException as exc:
            self._conn.close()
            if isinstance(exc, sqlite3.Error):
                raise StorageError(f"cannot open snapshot {self.path}: {exc}") from exc
            raise

    def _check_schema(self) -> None:
        try:
            row = self._conn.execute("SELECT schema_version FROM meta").fetchone()
        except sqlite3.Error as exc:
            raise SchemaMismatch(f"{self.path} is not a snapshot: {exc}") from exc
        version = row[0] if row else "missing"
        if version == SCHEMA_VERSION - 1 and not self.read_only:
            self._upgrade()
        elif version != SCHEMA_VERSION:
            import shlex

            db = shlex.quote(str(self.path))
            if version == SCHEMA_VERSION - 1:
                raise SchemaMismatch(
                    f"snapshot {self.path} has schema {version} and is opened read-only; any "
                    f"writing command upgrades it to schema {SCHEMA_VERSION}, for example "
                    f"`litmetrics --db {db} import {os.devnull}`, which makes no request"
                )
            if version in range(1, SCHEMA_VERSION - 1):
                raise SchemaMismatch(
                    f"snapshot {self.path} has schema {version}, and this litmetrics upgrades "
                    f"only schema {SCHEMA_VERSION - 1}; with the litmetrics that wrote it, run "
                    f"`litmetrics --db {db} export RECORDS.jsonl`, then with this one "
                    "`litmetrics --db NEW.db import RECORDS.jsonl`; reports, features and "
                    "cached payloads are not carried"
                )
            raise SchemaMismatch(f"snapshot schema {version} != supported {SCHEMA_VERSION}")

    def _upgrade(self) -> None:
        """Bring a schema-7 file to schema 8 in one transaction: all of it,
        or, when the write fails, nothing. `reports` loses its weighted-IEI
        column, which no command filled; every row keeps its id and its
        other columns, and the other tables stay as they were
        (https://www.sqlite.org/lang_altertable.html#alter_table_drop_column,
        SQLite 3.35 on). The drop shortens each row in place and frees no
        page; a `VACUUM` then packs the shortened rows (on 3,000 reports, one
        4 KiB page less)."""
        with self._lock:
            try:
                with self._conn:
                    self._conn.execute("BEGIN")
                    self._conn.execute("ALTER TABLE reports DROP COLUMN iei_weighted")
                    self._conn.execute("UPDATE meta SET schema_version = ?", (SCHEMA_VERSION,))
                self._conn.execute("VACUUM")
            except sqlite3.Error as exc:
                raise StorageError(f"cannot upgrade {self.path} to schema "
                                   f"{SCHEMA_VERSION}: {exc}") from exc

    def close(self) -> None:
        """Commit the open transaction, then close the connection. When the
        commit fails, the writes since the last commit are lost."""
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
        self.write(papers=[record])
        return record.canonical_id

    def _put_papers(self, statement: str, records: list[PaperRecord]) -> None:
        """Run the `papers` statement over records' rows in one
        `executemany`, inside the caller's transaction. A reference stored
        before the statement runs, read in one chunked query, is written as
        its link; any other, a row the statement itself adds included, stays
        its canonical id."""
        named = {r for record in records for r in record.reference_ids}
        links = dict(self._paper_rows("canonical_id, id", named))
        self._conn.executemany(statement, [_paper_row(record, links) for record in records])

    def get_paper(self, canonical_id: str) -> Optional[PaperRecord]:
        return self.get_papers([canonical_id]).get(canonical_id)

    def get_papers(self, ids: Optional[Iterable[str]] = None) -> dict[str, PaperRecord]:
        """Stored records by canonical id, each row read and decoded once,
        and the links to rows not read named in one chunked read by id.

        With ``ids``, ids that are not stored are left out; without, every
        paper is returned in canonical id order.
        """
        return self._records(self._paper_rows(_LINKED_ROW, ids))[0]

    def get_papers_and_reference_facts(
        self, ids: Iterable[str]
    ) -> tuple[dict[str, PaperRecord], dict[str, tuple[Optional[int], Optional[date]]]]:
        """`get_papers(ids)`, and the (citation_count, publication_date) by
        canonical id of these papers, from their records, and of every other
        stored paper their reference lists name, read from those two columns
        with no record decoded: the links' in the queries that name them, the
        dangling ids' by canonical id in the same queries. A named id the
        store lacks has no entry; a date that does not parse raises
        StorageError."""
        return self._records(self._paper_rows(_LINKED_ROW, ids), facts=True)

    def _records(self, rows: list[tuple], facts: bool = False) -> tuple[dict, dict]:
        """The records of rows selected as `_LINKED_ROW`, by canonical id,
        and with ``facts`` the facts of these and of the other papers they name."""
        names = {row[-1]: row[0] for row in rows}
        stored = [_stored_references(row) for row in rows]
        listed = [r for references in stored for r in references]
        links = {r for r in listed if type(r) is int} - names.keys()
        dangling = ({r for r in listed if type(r) is str} - {row[0] for row in rows}
                    if facts else ())
        read = self._paper_rows("id, " + (_FACT_COLUMNS if facts else "canonical_id"),
                                dangling, links)
        names.update((row[0], row[1]) for row in read)
        records = {row[0]: _paper_record(row, references, names)
                   for row, references in zip(rows, stored)}
        if not facts:
            return records, {}
        own = {cid: (r.citation_count, r.publication_date) for cid, r in records.items()}
        return records, dict(map(_reference_fact, read)) | own

    def _paper_rows(self, columns: str, ids: Optional[Iterable[str]] = None,
                    links: Iterable[int] = ()) -> list[tuple]:
        """`papers` rows of ``columns``, with no record decoded: those whose
        canonical id is among ``ids`` or whose id is among ``links``, in
        chunked queries (a row may come once per chunk naming it), or, with
        ``ids`` None, every paper in canonical id order. The lists are not
        bound as one JSON array each, through `json_each`, because SQLite's
        JSON functions cut a text at its first NUL character."""
        with self._lock:
            if ids is None:
                return self._conn.execute(
                    f"SELECT {columns} FROM papers ORDER BY canonical_id"
                ).fetchall()
            ids, links = sorted(set(ids)), sorted(set(links))
            rows = []
            for start in range(0, max(len(ids), len(links)), _IN_CHUNK):
                names, numbers = (_padded(v[start:start + _IN_CHUNK]) for v in (ids, links))
                rows += self._conn.execute(
                    f"SELECT {columns} FROM papers WHERE canonical_id IN "
                    f"({','.join('?' * len(names))}) OR id IN ({','.join('?' * len(numbers))})",
                    names + numbers,
                ).fetchall()
            return rows

    def require_paper(self, canonical_id: str) -> PaperRecord:
        record = self.get_paper(canonical_id)
        if record is None:
            raise UnknownPaper(canonical_id)
        return record

    def require_stored(self, ids: Iterable[str]) -> None:
        """Raise UnknownPaper for the first of ``ids`` that is not stored,
        read from the canonical ids alone, with no record decoded."""
        ids = list(ids)
        stored = {cid for (cid,) in self._paper_rows("canonical_id", ids)}
        for cid in ids:
            if cid not in stored:
                raise UnknownPaper(cid)

    def review_ids(self) -> list[str]:
        """Ids of papers carrying a topic keyword (harvested reviews, as
        opposed to bare reference rows), in canonical id order, read in one
        query from the reviews' partial index."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT canonical_id FROM papers WHERE topic_keyword <> '' "
                "ORDER BY canonical_id"
            ).fetchall()
        return [r[0] for r in rows]

    def review_values(self, metric: str) -> list:
        """The `STATS_METRICS` ``metric`` of each of `review_ids`, in its
        order, None for no value: one query over each review's `papers` row
        and latest report, with no record or report decoded."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {STATS_METRICS[metric]} FROM papers LEFT JOIN {_LATEST_REPORTS} "
                "ON paper_id = canonical_id WHERE papers.topic_keyword <> '' "
                "ORDER BY canonical_id"
            ).fetchall()
        return [value for (value,) in rows]

    def paper_count(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM papers").fetchone()[0]

    # -- JSONL export / import ---------------------------------------------

    def export_jsonl(self, stream: IO[str], ids: Optional[Iterable[str]] = None) -> int:
        """Write one canonical-JSON record per line, ordered by canonical id,
        each stored id once however often ``ids`` names it."""
        records = self.get_papers(ids)
        for cid in sorted(records):
            stream.write(records[cid].to_canonical_json() + "\n")
        return len(records)

    def import_jsonl(self, stream: IO[str]) -> ImportResult:
        """Upsert records from a JSONL stream in one write: all of them, or,
        when the write fails, none. Corrupt lines are skipped and
        tallied; of two lines with one id the last wins. Each record is
        inserted before any is written in full, so every reference the file
        or the snapshot stores is written as its link."""
        result = ImportResult()
        records = []
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(PaperRecord.from_json_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                result.corrupt += 1
        self.write(new_papers=records, papers=records)
        result.imported = len(records)
        return result

    # -- reports and features (versioned append) ---------------------------

    def store_report(self, paper_id: str, report: IndicatorReport) -> None:
        self.write([(paper_id, report)])

    def write(self, reports: Iterable[tuple[str, IndicatorReport]] = (), *,
              new_papers: Iterable[PaperRecord] = (), papers: Iterable[PaperRecord] = (),
              payloads: Iterable[tuple[str, str]] = (),
              features: Iterable[tuple[str, FeatureVector, Optional[datetime]]] = ()) -> None:
        """Store all of the following or, when a report or features name an
        unknown paper, a report holds NaN or an int outside the 64-bit
        range, or the write fails, none of them, in this order: the
        ``new_papers`` whose canonical id is not stored yet (stored rows
        stay untouched, and of two with one id the first wins); the
        ``papers``, each inserted or replaced by canonical id;
        the (key, payload) pairs, each replacing what its key held; the
        (paper id, report) pairs; and the (paper id, features, recorded_at)
        triples. Payloads, reports and features with no time are stamped
        with the time of the write. A reference whose row is stored once the
        new papers are inserted is written as its link. The write runs in
        its own savepoint of the open transaction (see the class), so a
        failure rolls back its own rows only; one with nothing to store
        commits. The only other writer is a schema upgrade."""
        new_papers, papers = list(new_papers), list(papers)
        now = format_timestamp(utc_now())
        payload_rows = [(key, payload, now) for key, payload in payloads]
        report_rows = [(None, *_report_row(paper_id, report, now)) for paper_id, report in reports]
        feature_rows = [
            (None, paper_id, format_timestamp(recorded_at) if recorded_at else now,
             *fv.as_dict().values())
            for paper_id, fv, recorded_at in features
        ]
        stores = new_papers or papers or payload_rows or report_rows or feature_rows
        with self._lock:
            try:
                if stores:
                    if not self._conn.in_transaction:
                        self._conn.execute("BEGIN IMMEDIATE")
                    self._conn.execute("SAVEPOINT write")
                    try:
                        self._put_papers(_INSERT_NEW_PAPER, new_papers)
                        self._put_papers(_UPSERT_PAPER, papers)
                        self.require_stored(row[1] for row in report_rows + feature_rows)
                        self._conn.executemany(
                            "INSERT INTO api_cache (key, payload, stored_at) VALUES (?, ?, ?) "
                            "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload, "
                            "stored_at = excluded.stored_at",
                            payload_rows,
                        )
                        self._conn.executemany(_INSERT_REPORT, report_rows)
                        self._conn.executemany(_INSERT_FEATURES, feature_rows)
                    except BaseException:
                        if self._conn.in_transaction:  # SQLite may have rolled it all back
                            self._conn.execute("ROLLBACK TO write")
                            self._conn.execute("RELEASE write")
                        raise
                    self._conn.execute("RELEASE write")
                if not stores or time.monotonic() - self._committed_at >= PENDING_MAX_AGE_S:
                    self._conn.commit()
                    self._committed_at = time.monotonic()
            except (sqlite3.Error, OverflowError) as exc:
                raise StorageError(f"snapshot write failed: {exc}") from exc

    def latest_report(self, paper_id: str) -> Optional[IndicatorReport]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_REPORT_ROW} FROM {_LATEST_REPORTS} WHERE paper_id = ?", (paper_id,)
            ).fetchone()
        return _stored_report(row) if row else None

    def latest_reports(self) -> dict[str, IndicatorReport]:
        """Every paper's latest report (see `_LATEST_REPORTS`), in one query."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT paper_id, {_REPORT_ROW} FROM {_LATEST_REPORTS}"
            ).fetchall()
        return {row[0]: _stored_report(row[1:]) for row in rows}

    def report_history(self, paper_id: str) -> list[IndicatorReport]:
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_REPORT_ROW} FROM reports WHERE paper_id = ? ORDER BY id",
                (paper_id,),
            ).fetchall()
        return [_stored_report(row) for row in rows]

    def store_features(self, paper_id: str, fv: FeatureVector,
                       recorded_at: Optional[datetime] = None) -> None:
        self.write(features=[(paper_id, fv, recorded_at)])

    def all_latest_features(self) -> list[tuple[str, Optional[int], FeatureVector]]:
        """(paper id, publication year, latest feature vector) of every paper
        with features, in paper id order, the year None for an undated
        paper: the vector by recorded_at and then insertion order, the year
        read from the `papers` row's date column, in one query."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT paper_id, {_PUBLICATION_YEAR}, {_FEATURE_ROW} FROM ("
                f" SELECT paper_id, {_FEATURE_ROW}, ROW_NUMBER() OVER ("
                "  PARTITION BY paper_id ORDER BY recorded_at DESC, id DESC) AS row_num"
                " FROM features) JOIN papers ON canonical_id = paper_id"
                " WHERE row_num = 1 ORDER BY paper_id"
            ).fetchall()
        return [(row[0], row[1], FeatureVector(*row[2:])) for row in rows]

    # -- API cache ----------------------------------------------------------

    def cache_get(self, key: str) -> Optional[str]:
        """The payload stored under the key, None if none is."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM api_cache WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row else None

    def cache_put(self, key: str, payload: str) -> None:
        """Store the payload under the key, stamped with the time of the put,
        as `write` stores it."""
        self.write(payloads=[(key, payload)])
