"""Snapshot store: upsert semantics, JSONL round-trips, versioned reports."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import shlex
import sqlite3
import tempfile
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LEGACY_SCHEMA,
    link_pairs,
    make_legacy,
    papers_rows,
)
from litmetrics import snapshot
from litmetrics.errors import SchemaMismatch, StorageError, UnknownPaper
from litmetrics.indicators import IndicatorReport
from litmetrics.jsonio import canonical_json
from litmetrics.retrieval import PaperRecord
from litmetrics.snapshot import FeatureVector, SnapshotStore

RETRIEVED = datetime(2024, 10, 1, 12, 0, 0)


def record(cid: str, cites: int | None = None, **kw) -> PaperRecord:
    defaults = dict(
        canonical_id=cid,
        title=f"A Survey about {cid}",
        abstract=f"Abstract of {cid}.",
        publication_date=date(2023, 5, 1),
        citation_count=cites,
        retrieved_at=RETRIEVED,
    )
    defaults.update(kw)
    return PaperRecord(**defaults)


@pytest.fixture
def store(tmp_path):
    with SnapshotStore(tmp_path / "snap.db") as s:
        yield s


class TestUpsert:
    def test_update_replaces_row(self, store):
        store.upsert_paper(record("arxiv:1", cites=3))
        store.upsert_paper(record("arxiv:1", cites=9))
        assert store.paper_count() == 1
        assert store.get_paper("arxiv:1").citation_count == 9

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            record("")

    def test_non_record_rejected(self, store):
        with pytest.raises(StorageError):
            store.upsert_paper({"canonical_id": "x"})

    def test_batch_round_trip(self, store):
        records = [record(f"arxiv:24{i:03d}", cites=i) for i in range(1000)]
        for r in records:
            store.upsert_paper(r)
        assert store.paper_count() == 1000
        for r in random.Random(1).sample(records, 25):
            assert store.get_paper(r.canonical_id).to_canonical_json() == r.to_canonical_json()

    def test_order_independent_final_state(self, tmp_path):
        records = [record(f"arxiv:{i}", cites=i) for i in range(50)]
        outputs = []
        for seed in (1, 2):
            with SnapshotStore(tmp_path / f"s{seed}.db") as s:
                shuffled = records[:]
                random.Random(seed).shuffle(shuffled)
                for r in shuffled:
                    s.upsert_paper(r)
                buf = io.StringIO()
                s.export_jsonl(buf)
                outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_get_papers_spans_chunks_and_skips_unknown_ids(self, store):
        records = [record(f"s2:{n:04d}", cites=n) for n in range(1200)]
        store.write(new_papers=records)
        wanted = [r.canonical_id for r in records[::-1]] + ["s2:missing"]
        got = store.get_papers(wanted)
        assert sorted(got) == sorted(r.canonical_id for r in records)
        assert all(got[r.canonical_id].to_canonical_json() == r.to_canonical_json()
                   for r in records)
        assert list(store.get_papers()) == [r.canonical_id for r in records]
        assert store.get_papers([]) == {}

    def test_new_papers_leave_stored_rows_and_the_first_of_one_id_wins(self, store):
        store.upsert_paper(record("s2:a", cites=1))
        store.write(new_papers=[record("s2:a", cites=7), record("s2:b", cites=2),
                                record("s2:b", cites=5)])
        got = store.get_papers()
        assert {cid: r.citation_count for cid, r in got.items()} == {"s2:a": 1, "s2:b": 2}

    def test_id_lists_of_any_length_share_a_few_statement_texts(self, store):
        # the connection caches each statement text it prepares
        store.write(new_papers=(record(f"s2:{n:02d}") for n in range(40)))
        statements = set()
        store._conn.set_trace_callback(statements.add)
        try:
            for n in range(1, 41):
                assert len(store.get_papers(f"s2:{k:02d}" for k in range(n))) == n
        finally:
            store._conn.set_trace_callback(None)
        # statements come expanded: the commas count the ids bound, 1, 2, 4, ..., 64
        assert len({sql.count(",") for sql in statements}) == 7

    def test_review_ids_are_the_papers_with_a_topic_keyword(self, store):
        store.upsert_paper(record("arxiv:2", topic_keyword="graphs"))
        store.upsert_paper(record("arxiv:1", topic_keyword="trees"))
        store.upsert_paper(record("s2:none", topic_keyword=None))
        store.upsert_paper(record("s2:empty", topic_keyword=""))
        assert store.review_ids() == ["arxiv:1", "arxiv:2"]

    def test_dangling_reference_ids_allowed(self, store):
        store.upsert_paper(record("arxiv:1", reference_ids=["s2:missing1", "s2:missing2"]))
        assert store.get_paper("arxiv:1").reference_ids == ["s2:missing1", "s2:missing2"]


class TestJsonl:
    def test_round_trip_is_byte_identical(self, store, tmp_path):
        for i in range(10):
            store.upsert_paper(record(f"arxiv:24{i:02d}", cites=i, venue="arXiv" if i % 2 else None))
        buf = io.StringIO()
        store.export_jsonl(buf)
        exported = buf.getvalue()

        with SnapshotStore(tmp_path / "other.db") as other:
            result = other.import_jsonl(io.StringIO(exported))
            assert result.imported == 10 and result.corrupt == 0
            buf2 = io.StringIO()
            other.export_jsonl(buf2)
            assert buf2.getvalue() == exported

    def test_empty_snapshot_exports_zero_lines(self, store):
        buf = io.StringIO()
        assert store.export_jsonl(buf) == 0
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("corrupt", [
        '{"canonical_id": "broken"',  # truncated JSON
        # values a column or a conversion would store as another value
        *(canonical_json({**record("arxiv:4").to_json_dict(), field: value})
          for field, value in [("canonical_id", 7), ("topic_keyword", 5),
                               ("reference_ids", "abc"), ("reference_ids", ["s2:a", 1]),
                               ("author_count", 2.7), ("author_count", True),
                               # values no `papers` column holds as given
                               ("author_count", 2**63), ("title", {"a": 1}),
                               ("title", True), ("title", 5), ("abstract", ["a"]),
                               ("venue", False), ("venue", 7),
                               ("external_ids", {"doi": 5}), ("external_ids", {"s2": None}),
                               # values the record's own checks refuse
                               ("citation_count", True), ("citation_count", "12"),
                               ("citation_count", 2**64), ("citation_count", -1),
                               ("publication_date", 2019), ("publication_date", "2019-02-30"),
                               ("publication_date", "2025-01-01"), ("retrieved_at", None),
                               ("author_count", "3"), ("author_count", 3.0),
                               ("external_ids", ["arxiv", "9"])]),
    ], ids=["truncated", "numeric-id", "numeric-keyword", "references-a-string",
            "reference-a-number", "fractional-authors", "authors-a-bool", "authors-too-many",
            "title-an-object", "title-a-bool", "title-a-number", "abstract-an-array",
            "venue-a-bool", "venue-a-number", "external-id-a-number", "external-id-null",
            "count-a-bool", "text-count", "huge-count", "negative-count", "numeric-date",
            "bad-date", "date-after-retrieval", "no-retrieved-at", "text-authors",
            "float-authors", "external-ids-a-list"])
    def test_corrupt_line_skipped_and_tallied(self, store, corrupt):
        lines = [record(f"arxiv:{i}").to_canonical_json() for i in range(10)]
        lines[4] = corrupt
        result = store.import_jsonl(io.StringIO("\n".join(lines) + "\n"))
        assert result.imported == 9
        assert result.corrupt == 1
        assert store.paper_count() == 9

    def test_export_filter_by_ids(self, store):
        for i in range(5):
            store.upsert_paper(record(f"arxiv:{i}"))
        buf = io.StringIO()
        n = store.export_jsonl(buf, ids=["arxiv:3", "arxiv:1"])
        assert n == 2
        out = buf.getvalue().splitlines()
        assert '"canonical_id":"arxiv:1"' in out[0]
        assert '"canonical_id":"arxiv:3"' in out[1]


    def test_export_writes_an_id_named_twice_once(self, store):
        store.upsert_paper(record("arxiv:1"))
        store.upsert_paper(record("arxiv:2"))
        buf = io.StringIO()
        assert store.export_jsonl(buf, ids=["arxiv:1", "arxiv:1", "arxiv:9"]) == 1
        assert buf.getvalue() == record("arxiv:1").to_canonical_json() + "\n"

    def test_import_writes_every_record_in_one_transaction(self, store):
        lines = [record(f"arxiv:{i}", cites=i).to_canonical_json() for i in range(50)]
        lines[7] = '{"canonical_id": "broken"'
        lines.append(record("arxiv:3", cites=99).to_canonical_json())  # the last line wins
        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            result = store.import_jsonl(io.StringIO("\n".join(lines) + "\n"))
        finally:
            store._conn.set_trace_callback(None)
        assert (result.imported, result.corrupt) == (50, 1)
        assert [sql.split()[0] for sql in statements].count("BEGIN") == 1
        assert store.paper_count() == 49
        assert store.get_paper("arxiv:3").citation_count == 99

    def test_a_failed_import_writes_nothing(self, store):
        store.upsert_paper(record("arxiv:0", cites=1))
        store._conn.execute(
            "CREATE TRIGGER refuse BEFORE INSERT ON papers WHEN NEW.canonical_id = 'arxiv:5' "
            "BEGIN SELECT RAISE(ABORT, 'refused'); END")
        lines = [record(f"arxiv:{i}", cites=i + 10).to_canonical_json() for i in range(10)]
        with pytest.raises(StorageError, match="refused"):
            store.import_jsonl(io.StringIO("\n".join(lines)))
        assert store.paper_count() == 1
        assert store.get_paper("arxiv:0").citation_count == 1


def read_back(row: tuple, names: dict) -> PaperRecord:
    """The record the store decodes from a row `_paper_row` built, read as
    `_LINKED_ROW` with no row id."""
    linked = (*row, None)
    return snapshot._paper_record(linked, snapshot._stored_references(linked), names)


class TestRowLayout:
    TEXT = st.one_of(st.sampled_from(["", "x"]), st.text(max_size=12))
    # rows stored, by their ids, before a drawn record is written
    STORED = {"s2:a": 1, "s2:b": 2}
    # canonical ids that spell an external id, and ids that do not
    CANONICAL_IDS = st.one_of(
        st.builds("{}:{}".format, st.sampled_from(["arxiv", "doi", "s2", "corpusid"]), TEXT),
        st.text(min_size=1, max_size=12))

    @st.composite
    def records(draw, canonical_id=CANONICAL_IDS, named=()):
        """A record whose external ids hold the entry named by its canonical
        id's scheme equal to the id, different or not at all, and whose
        reference list mixes stored ids, its own id, the ``named`` ids and
        dangling ids, duplicates included."""
        retrieved = draw(st.datetimes(max_value=datetime(2100, 12, 31))).replace(microsecond=0)
        text = TestRowLayout.TEXT
        cid = draw(canonical_id)
        scheme, _, own = cid.partition(":")
        ids = draw(st.dictionaries(text, text, max_size=3))
        ids.pop(scheme, None)
        entry = draw(st.sampled_from([None, own, own + "x"]))
        return PaperRecord(
            canonical_id=cid,
            title=draw(st.none() | text),
            abstract=draw(text),
            external_ids=ids if entry is None else {**ids, scheme: entry},
            publication_date=draw(st.none() | st.dates(max_value=retrieved.date())),
            venue=draw(st.none() | text),
            citation_count=draw(st.none() | st.integers(0, 2**63 - 1)),
            reference_ids=draw(st.lists(
                st.sampled_from([*TestRowLayout.STORED, cid, *named]) | text, max_size=6)),
            author_count=draw(st.integers(0, 2**63 - 1)),
            topic_keyword=draw(st.none() | text),
            retrieved_at=retrieved,
        )

    @staticmethod
    def exported(store) -> str:
        buf = io.StringIO()
        store.export_jsonl(buf)
        return buf.getvalue()

    @given(records())
    @example(record("s2"))  # a bare id that names a scheme spells no external id
    def test_a_record_comes_back_from_its_row_as_it_was(self, paper):
        data = paper.to_json_dict()
        row = snapshot._paper_row(paper, {})
        assert read_back(row, {}) == paper
        # a column per field; the last two hold JSON
        assert row[:-2] == tuple(data[key] for key in (
            "canonical_id", "topic_keyword", "citation_count", "publication_date",
            "retrieved_at", "title", "abstract", "venue", "author_count"))
        # no external id is stored that the canonical id spells
        scheme, colon, own = paper.canonical_id.partition(":")
        stored_ids = json.loads(row[-2] or "{}")
        if colon and scheme in ("arxiv", "doi", "s2"):
            assert stored_ids.get(scheme) != own
            assert (scheme in stored_ids) == (paper.external_ids.get(scheme) != own)
        else:
            assert stored_ids == paper.external_ids
        stored = [record(cid) for cid in self.STORED]
        with SnapshotStore(":memory:") as store:
            store.write(new_papers=stored)
            # written while its own id may not be stored, then once it is:
            # a self-reference is text, then a link
            own_link = self.STORED.get(paper.canonical_id, len(self.STORED) + 1)
            for links in (self.STORED, {**self.STORED, paper.canonical_id: own_link}):
                store.upsert_paper(paper)
                assert papers_rows(store)[paper.canonical_id] == snapshot._paper_row(paper, links)
                assert store.get_paper(paper.canonical_id) == paper
                expected = {r.canonical_id: r for r in stored} | {paper.canonical_id: paper}
                assert self.exported(store) == "".join(
                    expected[cid].to_canonical_json() + "\n" for cid in sorted(expected))

    @given(st.lists(st.sampled_from(["s2:c", "s2:d", "s2:e", "s2:f"]), min_size=1,
                    max_size=4, unique=True).flatmap(
        lambda ids: st.tuples(*(TestRowLayout.records(st.just(cid), ids) for cid in ids))))
    def test_an_import_batch_links_every_name_the_batch_or_the_file_stores(self, batch):
        lines = "".join(r.to_canonical_json() + "\n" for r in batch)
        with SnapshotStore(":memory:") as store:
            store.write(new_papers=(record(cid) for cid in self.STORED))
            assert store.import_jsonl(io.StringIO(lines)).imported == len(batch)
            rows = papers_rows(store)
            # the batch's rows take the next ids in file order, and a
            # record of the batch, itself included, is a link too
            links = {**self.STORED, **{paper.canonical_id: link for link, paper in
                                       enumerate(batch, len(self.STORED) + 1)}}
            for paper in batch:
                assert rows[paper.canonical_id] == snapshot._paper_row(paper, links)
            assert store.get_papers(r.canonical_id for r in batch) == {
                r.canonical_id: r for r in batch}
            expected = {r.canonical_id: r for r in batch} | {
                cid: record(cid) for cid in self.STORED}
            assert self.exported(store) == "".join(
                expected[cid].to_canonical_json() + "\n" for cid in sorted(expected))

    def test_each_field_is_a_column_and_the_own_id_is_stored_once(self):
        bare = record("arxiv:1", abstract="", publication_date=None)
        assert snapshot._paper_row(bare, {}) == (
            "arxiv:1", None, None, None, "2024-10-01T12:00:00Z", "A Survey about arxiv:1", "",
            None, 0, '{"arxiv":null}', None)
        blank = record("arxiv:1", title="", topic_keyword="", venue="",
                       external_ids={"arxiv": "1", "doi": "10.1/x"},
                       reference_ids=["s2:a", "s2:b", "s2:a"])
        row = snapshot._paper_row(blank, {"s2:a": 7})
        assert row == ("arxiv:1", "", None, "2023-05-01", "2024-10-01T12:00:00Z", "",
                       "Abstract of arxiv:1.", "", 0, '{"doi":"10.1/x"}', '[7,"s2:b",7]')
        assert read_back(row, {7: "s2:a"}) == blank
        for cid, ids, stored in [("s2:abc", {"s2": "abc"}, None),
                                 ("s2:abc", {"s2": "other"}, '{"s2":"other"}'),
                                 ("doi:10.1/x", {"doi": "10.1/x", "s2": "p"}, '{"s2":"p"}'),
                                 ("corpusid:5", {}, None),
                                 ("corpusid:5", {"corpusid": "5"}, '{"corpusid":"5"}')]:
            paper = record(cid, external_ids=ids)
            row = snapshot._paper_row(paper, {})
            assert row[-2] == stored
            assert read_back(row, {}) == paper


def contents(path) -> dict:
    """Every row of every table but `meta`, in id or key order, each value
    as its repr, so that 1 and 1.0, or 0.0 and -0.0, differ; and, under
    `sqlite_master`, the (type, name, tbl_name, sql) of every table and
    index."""
    conn = sqlite3.connect(path)
    try:
        tables = {table: [tuple(map(repr, row))
                          for row in conn.execute(f"SELECT * FROM {table} ORDER BY 1")]
                  for table in ("papers", "api_cache", "reports", "features")}
        tables["sqlite_master"] = sorted(
            conn.execute("SELECT type, name, tbl_name, sql FROM sqlite_master"))
        return tables
    finally:
        conn.close()


def schema_version(store) -> int:
    (version,), = store._conn.execute("SELECT schema_version FROM meta").fetchall()
    return version


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSchemaUpgrade:
    @staticmethod
    def legacy_snapshot(tmp_path) -> tuple:
        """The path of a schema-7 file, its records, and the `contents` it
        held at the current schema before it was made legacy."""
        path = tmp_path / "legacy.db"
        records = [record(f"arxiv:{i}", cites=i, topic_keyword="t" if i % 2 else None,
                          reference_ids=["arxiv:0"] * i + ["s2:gone"] * (i == 4))
                   for i in range(5)]
        with SnapshotStore(path) as store:
            for r in records:
                store.upsert_paper(r)
            store.store_report("arxiv:1", IndicatorReport(tncsi=0.5))
            store.store_report("arxiv:3", IndicatorReport(
                s_mp=4, rqm=-0.0, topic_keyword="t", computed_at=datetime(2024, 6, 1),
                warnings=["w\x00 ü"]))
            store.store_report("arxiv:3", IndicatorReport(iei_avg=1, iei_instant=2.0, rui=-1.5))
            store.store_features("arxiv:1", FeatureVector(discussion=1))
            store.cache_put("k", "v")
        tables = contents(path)
        make_legacy(path)
        return path, records, tables

    def test_a_writing_open_upgrades_and_leaves_the_rest(self, tmp_path):
        # every row comes back as it was, each report with its id and every
        # column but the one dropped, and the schema is a fresh file's
        path, records, before = self.legacy_snapshot(tmp_path)
        assert contents(path) != before
        with SnapshotStore(path) as store:
            assert schema_version(store) == snapshot.SCHEMA_VERSION
            assert store.get_papers() == {r.canonical_id: r for r in records}
            assert store.review_ids() == ["arxiv:1", "arxiv:3"]
            # a stored reference is a link, a dangling one stays text
            assert link_pairs(path) == {(n + 1, f"arxiv:{n}") for n in range(5)}
            assert json.loads(papers_rows(store)["arxiv:4"][-1]) == [1, 1, 1, 1, "s2:gone"]
        assert contents(path) == before
        SnapshotStore(tmp_path / "fresh.db").close()
        assert contents(path)["sqlite_master"] == contents(tmp_path / "fresh.db")["sqlite_master"]
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA freelist_count").fetchone() == (0,)
        assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        conn.close()
        with SnapshotStore(path, read_only=True) as store:
            assert store.all_latest_features() == [("arxiv:1", 2023, FeatureVector(discussion=1))]
            assert store.report_history("arxiv:3")[0] == IndicatorReport(
                s_mp=4, rqm=-0.0, topic_keyword="t", computed_at=datetime(2024, 6, 1),
                warnings=["w\x00 ü"])

    def test_a_read_only_open_names_a_command_that_upgrades(self, tmp_path):
        path = self.legacy_snapshot(tmp_path)[0]
        before = sha256(path)
        with pytest.raises(SchemaMismatch) as raised:
            SnapshotStore(path, read_only=True)
        assert f"has schema {LEGACY_SCHEMA} and is opened read-only" in str(raised.value)
        assert f"`litmetrics --db {shlex.quote(str(path))} import {os.devnull}`" in str(
            raised.value)
        assert sha256(path) == before

    @pytest.mark.parametrize("version", [0, *range(1, snapshot.SCHEMA_VERSION - 1),
                                         snapshot.SCHEMA_VERSION + 1, None])
    @pytest.mark.parametrize("read_only", [True, False], ids=["read-only", "writing"])
    def test_a_file_of_another_schema_is_refused_and_left_as_it_was(
            self, tmp_path, version, read_only):
        # only the previous schema is upgraded; an older file is routed
        # through `export` with the litmetrics that wrote it, then `import`
        path = tmp_path / "other.db"
        with SnapshotStore(path) as store:
            store.upsert_paper(record("arxiv:1"))
        conn = sqlite3.connect(path)
        with conn:
            if version is None:  # a `meta` table with no row
                conn.execute("DELETE FROM meta")
            else:
                conn.execute("UPDATE meta SET schema_version = ?", (version,))
        conn.close()
        before = sha256(path)
        with pytest.raises(SchemaMismatch) as raised:
            SnapshotStore(path, read_only=read_only)
        message = str(raised.value)
        if version in range(1, snapshot.SCHEMA_VERSION - 1):
            assert (f"{path} has schema {version}, and this litmetrics upgrades only schema "
                    f"{snapshot.SCHEMA_VERSION - 1}") in message
            assert message.index(" export ") < message.index(" import ")
        else:
            shown = "missing" if version is None else version
            assert message == f"snapshot schema {shown} != supported {snapshot.SCHEMA_VERSION}"
        assert sha256(path) == before

    @pytest.mark.parametrize("field, column, value", [
        ("tncsi", -0.0, -0.0),
        ("iei_avg", 2**53 + 1, 2**53 + 1),
        ("iei_instant", float("inf"), float("inf")),
        ("arq", 5e-324, 5e-324),
        ("s_mp", 7, 7),
        ("rqm", 1.0, 1.0),
        ("cdr", -float("inf"), -float("inf")),
        ("rad", 1.7976931348623157e308, 1.7976931348623157e308),
        ("rui", -2, -2),
        ("topic_keyword", "w\x00 ü", "w\x00 ü"),
        ("sample_size", 0, 0),
        ("computed_at", "1999-12-31T23:59:59Z", datetime(1999, 12, 31, 23, 59, 59)),
        ("warnings", '["a","b"]', ["a", "b"]),
    ], ids=IndicatorReport._fields)
    def test_each_column_but_the_dropped_one_reads_back_into_its_field(
            self, tmp_path, field, column, value):
        # the drop moves every column after `iei_weighted` one place left,
        # a filled `iei_weighted` too; each value lands in its own field
        path = self.legacy_snapshot(tmp_path)[0]
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(f"UPDATE reports SET iei_weighted = 0.25, {field} = ? WHERE id = 1",
                         (column,))
        conn.close()
        with SnapshotStore(path) as store:
            report, = store.report_history("arxiv:1")
        assert report == IndicatorReport(
            tncsi=0.5, computed_at=report.computed_at).replace(**{field: value})
        assert repr(getattr(report, field)) == repr(value)

    @pytest.mark.parametrize("value", [2**63 - 1, -2**63], ids=["max", "min"])
    def test_an_int_at_the_64_bit_bounds_is_carried(self, tmp_path, value):
        path = self.legacy_snapshot(tmp_path)[0]
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE reports SET s_mp = ?, sample_size = ?, computed_at = ? "
                         "WHERE id = 1", (value, value, "2024-06-01T00:00:00Z"))
        conn.close()
        with SnapshotStore(path) as store:
            assert store.report_history("arxiv:1") == [IndicatorReport(
                tncsi=0.5, s_mp=value, sample_size=value, computed_at=datetime(2024, 6, 1))]

    @pytest.mark.parametrize("statement", [
        "ALTER TABLE reports RENAME COLUMN iei_weighted TO iei_other",
        "CREATE INDEX obstacle ON reports(iei_weighted)",
        "CREATE UNIQUE INDEX obstacle ON reports(paper_id, iei_weighted)",
        "CREATE INDEX obstacle ON reports(coalesce(iei_weighted, 0))",
        "CREATE INDEX obstacle ON reports(paper_id) WHERE iei_weighted IS NULL",
        "CREATE VIEW obstacle AS SELECT paper_id, iei_weighted FROM reports",
        "CREATE TRIGGER obstacle AFTER INSERT ON reports BEGIN SELECT new.iei_weighted; END",
        "ALTER TABLE reports ADD COLUMN obstacle AS (iei_weighted * 2)",
    ], ids=["no-column", "index", "unique-index", "expression-index", "partial-index", "view",
            "trigger", "generated-column"])
    def test_a_schema_7_file_the_drop_cannot_alter_is_refused_and_left_as_it_was(
            self, tmp_path, statement):
        # SQLite refuses to drop a column that another part of the schema
        # names; the upgrade then fails as a whole
        path = self.legacy_snapshot(tmp_path)[0]
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(statement)
        conn.close()
        before = sha256(path)
        with pytest.raises(StorageError, match=re.escape(
                f"cannot upgrade {path} to schema {snapshot.SCHEMA_VERSION}: ")) as raised:
            SnapshotStore(path)
        assert "iei_weighted" in str(raised.value)
        assert sha256(path) == before

    def test_a_failed_write_leaves_the_file_as_it_was(self, tmp_path):
        # the last step of the transaction, the version's update, fails
        path, records, before = self.legacy_snapshot(tmp_path)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TRIGGER refuse BEFORE UPDATE ON meta "
                         "BEGIN SELECT RAISE(ABORT, 'refused'); END")
        unchanged = sha256(path)
        with pytest.raises(StorageError, match=re.escape(
                f"cannot upgrade {path} to schema {snapshot.SCHEMA_VERSION}: refused")):
            SnapshotStore(path)
        assert sha256(path) == unchanged
        with conn:
            conn.execute("DROP TRIGGER refuse")
        conn.close()
        with SnapshotStore(path) as store:
            assert schema_version(store) == snapshot.SCHEMA_VERSION
            assert store.get_papers() == {r.canonical_id: r for r in records}
        assert contents(path) == before


class TestReportsAndFeatures:
    def test_latest_report_wins_history_retained(self, store):
        store.upsert_paper(record("arxiv:1"))
        early = IndicatorReport(tncsi=0.3, computed_at=datetime(2024, 1, 1))
        late = IndicatorReport(tncsi=0.8, computed_at=datetime(2024, 6, 1))
        store.store_report("arxiv:1", early)
        store.store_report("arxiv:1", late)
        assert store.latest_report("arxiv:1").tncsi == 0.8
        history = store.report_history("arxiv:1")
        assert [r.tncsi for r in history] == [0.3, 0.8]

    def test_report_for_unknown_paper(self, store):
        with pytest.raises(UnknownPaper):
            store.store_report("arxiv:nope", IndicatorReport(tncsi=0.5))

    def test_store_reports_is_one_transaction(self, store, monkeypatch):
        ids = [f"arxiv:{n}" for n in range(3)]
        for cid in ids:
            store.upsert_paper(record(cid))
        store.cache_put("k1", "old")
        store.write()
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        monkeypatch.setattr(snapshot, "utc_now", lambda: datetime(2024, 6, 1))
        statements = []
        store._conn.set_trace_callback(statements.append)
        store.cache_put("k1", "new")
        store.cache_put("k2", "v")
        store.write([(cid, IndicatorReport(tncsi=0.1 * n)) for n, cid in enumerate(ids)])
        store.write()  # as `close` does
        store._conn.set_trace_callback(None)
        verbs = [sql.split()[0] for sql in statements]
        # the two puts and the reports share one transaction, each in its savepoint
        assert verbs.count("BEGIN") == 1 and verbs.count("COMMIT") == 1
        assert verbs.count("SAVEPOINT") == verbs.count("RELEASE") == 3
        assert verbs.count("INSERT") == 5
        assert [store.latest_report(cid).tncsi for cid in ids] == [0.0, 0.1, 0.2]
        # a report with no time reads back with the time the write stamped
        assert store.latest_report(ids[0]).computed_at == datetime(2024, 6, 1)
        assert (store.cache_get("k1"), store.cache_get("k2")) == ("new", "v")
        stamps = dict(store._conn.execute("SELECT key, stored_at FROM api_cache"))
        assert stamps["k1"] == stamps["k2"] == "2024-06-01T00:00:00Z"  # k1 takes its last put

    def test_store_reports_with_unknown_paper_stores_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        path = tmp_path / "s.db"
        with SnapshotStore(path) as store:
            store.upsert_paper(record("arxiv:1"))
            store.cache_put("k", "v")
            with pytest.raises(UnknownPaper, match="arxiv:nope"):
                store.write([("arxiv:1", IndicatorReport(tncsi=0.5)),
                             ("arxiv:nope", IndicatorReport(tncsi=0.5))])
            # only the failed write's rows go: the row and the put before it stay
            assert store._conn.in_transaction
            assert store.report_history("arxiv:1") == []
            assert store.cache_get("k") == "v"
        with SnapshotStore(path, read_only=True) as reopened:
            assert reopened.paper_count() == 1
            assert reopened.report_history("arxiv:1") == []
            assert reopened._conn.execute("SELECT payload FROM api_cache").fetchall() == [("v",)]

    def test_latest_reports_pick_as_latest_report_does(self, store):
        for cid in ("arxiv:1", "arxiv:2", "arxiv:3"):
            store.upsert_paper(record(cid))
        tied = datetime(2024, 6, 1)
        # equal computed_at: the later row wins
        store.store_report("arxiv:1", IndicatorReport(tncsi=0.2, computed_at=tied))
        store.store_report("arxiv:1", IndicatorReport(tncsi=0.9, computed_at=tied))
        # later computed_at wins over a later row
        store.store_report("arxiv:2", IndicatorReport(tncsi=0.5, computed_at=datetime(2024, 7, 1)))
        store.store_report("arxiv:2", IndicatorReport(tncsi=0.1, computed_at=tied))
        latest = store.latest_reports()
        assert latest == {cid: store.latest_report(cid) for cid in ("arxiv:1", "arxiv:2")}
        assert {cid: r.tncsi for cid, r in latest.items()} == {"arxiv:1": 0.9, "arxiv:2": 0.5}

    def test_features_round_trip(self, store):
        store.upsert_paper(record("arxiv:1"))
        fv = FeatureVector(taxonomy=1, discussion=1)
        store.store_features("arxiv:1", fv)
        assert store.all_latest_features() == [("arxiv:1", 2023, fv)]

    def test_all_latest_features_pick_the_latest_recorded(self, store):
        store.upsert_paper(record("arxiv:1"))
        # stored second, but recorded earlier: the June vector stays the latest
        store.store_features("arxiv:1", FeatureVector(discussion=1),
                             recorded_at=datetime(2024, 6, 1))
        store.store_features("arxiv:1", FeatureVector(discussion=0),
                             recorded_at=datetime(2024, 1, 1))
        assert store.all_latest_features() == [("arxiv:1", 2023, FeatureVector(discussion=1))]

    def test_all_latest_features_read_each_year_beside_its_vector(self, store):
        # an undated paper's year is None, a year before 1000 is read from its
        # zero-padded column, and a paper with no features is left out
        store.write(papers=[record("arxiv:1", publication_date=None),
                            record("arxiv:2", publication_date=date(987, 6, 1)),
                            record("arxiv:3")])
        for cid in ("arxiv:2", "arxiv:1"):
            store.store_features(cid, FeatureVector(taxonomy=1))
        assert store.all_latest_features() == [("arxiv:1", None, FeatureVector(taxonomy=1)),
                                               ("arxiv:2", 987, FeatureVector(taxonomy=1))]

    def test_features_unknown_paper(self, store):
        with pytest.raises(UnknownPaper):
            store.store_features("arxiv:nope", FeatureVector())

    def test_feature_vector_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(taxonomy=2)

    def test_report_warnings_round_trip(self, store):
        store.upsert_paper(record("arxiv:1"))
        report = IndicatorReport(rad=0.3, warnings=["aging integral beyond fitted window"])
        store.store_report("arxiv:1", report)
        assert store.latest_report("arxiv:1").warnings == [
            "aging integral beyond fitted window"
        ]


class TestReportAndFeatureColumns:
    """A report or a feature vector reads back from its typed columns as it
    was written, each value of the type it had."""

    NUMBER = st.none() | st.floats(allow_nan=False) | st.integers(-2**63, 2**63 - 1)

    @staticmethod
    @st.composite
    def reports(draw) -> IndicatorReport:
        numbers = {name: draw(TestReportAndFeatureColumns.NUMBER)
                   for name in IndicatorReport._fields
                   if name not in ("topic_keyword", "computed_at", "warnings")}
        return IndicatorReport(
            **numbers, topic_keyword=draw(st.none() | st.text()),
            computed_at=draw(st.none() | st.datetimes().map(lambda t: t.replace(microsecond=0))),
            warnings=draw(st.lists(st.text())))

    @given(reports())
    def test_a_report_comes_back_as_it_was_written(self, report):
        with SnapshotStore(":memory:") as store:
            store.upsert_paper(record("arxiv:1"))
            store.write([("arxiv:1", report)])
            stored = store.latest_report("arxiv:1")
            assert store.latest_reports() == {"arxiv:1": stored}
            assert store.report_history("arxiv:1") == [stored]
        # a report with no time takes the one the write stamped
        expected = report.replace(computed_at=report.computed_at or stored.computed_at)
        assert stored == expected
        # each value of the type and sign it had: 1 is not 1.0, nor -0.0 0.0
        assert all(repr(getattr(stored, name)) == repr(getattr(expected, name))
                   for name in IndicatorReport._fields if name != "computed_at")

    @given(st.builds(FeatureVector, **{name: st.sampled_from([0, 1, 0.0, -0.0, 1.0])
                                       for name in snapshot.FEATURE_NAMES}))
    def test_a_feature_vector_comes_back_as_it_was_written(self, fv):
        with SnapshotStore(":memory:") as store:
            store.upsert_paper(record("arxiv:1"))
            store.store_features("arxiv:1", fv)
            (paper_id, year, stored), = store.all_latest_features()
        assert (paper_id, year, stored) == ("arxiv:1", 2023, fv)
        assert canonical_json(stored.as_dict()) == canonical_json(fv.as_dict())

    @pytest.mark.parametrize("field, value, message", [
        ("tncsi", float("nan"), "report of paper 'arxiv:1' holds NaN in tncsi"),
        ("rui", float("nan"), "report of paper 'arxiv:1' holds NaN in rui"),
        ("s_mp", 2**63, "report of paper 'arxiv:1' holds 9223372036854775808 in s_mp, "
                        "outside the 64-bit range the snapshot stores"),
        ("s_mp", -2**63 - 1, "report of paper 'arxiv:1' holds -9223372036854775809 in s_mp, "
                             "outside the 64-bit range the snapshot stores"),
    ], ids=["nan-tncsi", "nan-rui", "huge-s_mp", "huge-negative-s_mp"])
    def test_a_value_no_column_holds_is_refused(self, store, field, value, message):
        store.upsert_paper(record("arxiv:1"))
        with pytest.raises(StorageError, match=message):
            store.write([("arxiv:1", IndicatorReport(tncsi=0.5)),
                         ("arxiv:1", IndicatorReport(**{field: value}))])
        assert store.report_history("arxiv:1") == []

    @pytest.mark.parametrize("value", [2**63 - 1, -2**63], ids=["max", "min"])
    def test_an_int_at_the_64_bit_bounds_is_stored(self, tmp_path, value):
        path = tmp_path / "snap.db"
        report = IndicatorReport(s_mp=value, sample_size=value, computed_at=datetime(2024, 6, 1))
        with SnapshotStore(path) as store:
            store.upsert_paper(record("arxiv:1"))
            store.store_report("arxiv:1", report)
        with SnapshotStore(path, read_only=True) as store:
            assert store.latest_report("arxiv:1") == report


class TestReadOnlyAndSchema:
    def test_read_only_never_mutates(self, tmp_path):
        path = tmp_path / "snap.db"
        with SnapshotStore(path) as s:
            for i in range(5):
                s.upsert_paper(record(f"arxiv:{i}", cites=i))
        before = hashlib.sha256(path.read_bytes()).hexdigest()

        with SnapshotStore(path, read_only=True) as ro:
            assert ro.paper_count() == 5
            ro.get_papers()
            buf = io.StringIO()
            ro.export_jsonl(buf)
            with pytest.raises(StorageError):
                ro.upsert_paper(record("arxiv:new"))
            with pytest.raises(StorageError):
                ro.cache_put("k", "v")
        after = hashlib.sha256(path.read_bytes()).hexdigest()
        assert before == after

    def test_an_interrupted_creation_leaves_a_file_the_next_open_creates(
            self, tmp_path, monkeypatch):
        path = tmp_path / "snap.db"

        def interrupt(value):
            raise KeyboardInterrupt

        monkeypatch.setattr(snapshot, "format_timestamp", interrupt)  # before the meta row
        with pytest.raises(KeyboardInterrupt):
            SnapshotStore(path)
        monkeypatch.undo()
        with pytest.raises(SchemaMismatch, match="is not a snapshot"):
            SnapshotStore(path, read_only=True)
        with SnapshotStore(path) as store:
            assert schema_version(store) == snapshot.SCHEMA_VERSION
            store.upsert_paper(record("arxiv:1"))
        with SnapshotStore(path, read_only=True) as store:
            assert store.get_paper("arxiv:1") == record("arxiv:1")

    def test_read_only_requires_existing_file(self, tmp_path):
        with pytest.raises(StorageError):
            SnapshotStore(tmp_path / "missing.db", read_only=True)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE meta (schema_version INTEGER NOT NULL, created_at TEXT NOT NULL, "
            "source_notes TEXT NOT NULL DEFAULT '');"
        )
        conn.execute("INSERT INTO meta VALUES (99, '2024-01-01T00:00:00Z', '')")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaMismatch):
            SnapshotStore(path)

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaMismatch):
            SnapshotStore(path)


class TestCache:
    def test_put_get(self, store):
        assert store.cache_get("k") is None
        store.cache_put("k", '{"v": 1}')
        assert store.cache_get("k") == '{"v": 1}'
        store.cache_put("k", '{"v": 2}')
        assert store.cache_get("k") == '{"v": 2}'

    def test_a_put_is_seen_by_other_connections_once_the_store_closes(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot, "PENDING_MAX_AGE_S", 1e9)
        path = tmp_path / "s.db"
        with SnapshotStore(path) as store:
            store.cache_put("k", "v")
            # a row of the open transaction: this connection reads it, another does not
            assert store._conn.execute("SELECT COUNT(*) FROM api_cache").fetchone()[0] == 1
            with SnapshotStore(path, read_only=True) as other:
                assert other.cache_get("k") is None
        with SnapshotStore(path, read_only=True) as reopened:
            assert reopened.cache_get("k") == "v"


class TestGroupCommit:
    PAPERS = ("arxiv:1", "arxiv:2", "arxiv:3")
    # (kind, paper id or key, value); a report or features naming a paper
    # not stored yet fail as `unknown` does
    STEP = st.one_of(
        st.tuples(st.just("paper"), st.sampled_from(PAPERS), st.integers(0, 99)),
        st.tuples(st.just("report"), st.sampled_from(PAPERS), st.floats(0, 1)),
        st.tuples(st.just("features"), st.sampled_from(PAPERS), st.sampled_from([0, 1])),
        st.tuples(st.just("put"), st.sampled_from(["k1", "k2", "k3"]), st.text(max_size=4)),
        st.tuples(st.sampled_from(["unknown", "nan", "refused"]), st.sampled_from(PAPERS),
                  st.integers(0, 99)),
    )
    # the report that fails a write of a paper row and a valid report, with
    # the error it raises
    FAILING = {
        "unknown": (lambda key: ("arxiv:nope", IndicatorReport()), UnknownPaper, "arxiv:nope"),
        "nan": (lambda key: (key, IndicatorReport(tncsi=float("nan"))), StorageError, "NaN"),
        "refused": (lambda key: (key, IndicatorReport(tncsi=-1.0)), StorageError, "refused"),
    }

    @staticmethod
    def step(store, model, kind, key, value) -> None:
        """Apply one step to the store and, when it succeeds, to the model."""
        papers, reports, features, payloads = model
        if kind == "put":
            store.cache_put(key, value)
            payloads[key] = value
        elif kind == "paper":
            store.upsert_paper(record(key, cites=value))
            papers[key] = value
        elif kind == "report" and key in papers:
            store.store_report(key, IndicatorReport(tncsi=value))
            reports.setdefault(key, []).append(value)
        elif kind == "features" and key in papers:
            store.store_features(key, FeatureVector(taxonomy=value))
            features.setdefault(key, []).append(value)
        elif kind in ("report", "features"):
            with pytest.raises(UnknownPaper, match=re.escape(key)):
                if kind == "report":
                    store.write([(key, IndicatorReport())])
                else:
                    store.write(features=[(key, FeatureVector(), None)])
        else:
            failing, error, message = TestGroupCommit.FAILING[kind]
            with pytest.raises(error, match=message):
                store.write([(key, IndicatorReport(tncsi=0.5)), failing(key)],
                            papers=[record(key, cites=value)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(STEP, max_size=25))
    def test_a_failed_write_takes_only_its_own_rows(self, steps):
        model = papers, reports, features, payloads = {}, {}, {}, {}
        verbs = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            # the commit clock stands still: every step joins one transaction
            mp.setattr(snapshot, "time", SimpleNamespace(monotonic=lambda: 0.0))
            path = os.path.join(tmp, "s.db")
            with SnapshotStore(path) as store:
                store._conn.execute("CREATE TRIGGER refuse BEFORE INSERT ON reports WHEN "
                                    "NEW.tncsi = -1 BEGIN SELECT RAISE(ABORT, 'refused'); END")
                store._conn.set_trace_callback(lambda sql: verbs.append(sql.split()[0]))
                for kind, key, value in steps:
                    self.step(store, model, kind, key, value)
                assert "COMMIT" not in verbs
            with SnapshotStore(path, read_only=True) as reopened:
                stored = reopened.get_papers()
                assert {cid: r.citation_count for cid, r in stored.items()} == papers
                assert {cid: [r.tncsi for r in reopened.report_history(cid)]
                        for cid in papers if reopened.report_history(cid)} == reports
                stored = {}
                for cid, taxonomy in reopened._conn.execute(
                        "SELECT paper_id, taxonomy FROM features ORDER BY id"):
                    stored.setdefault(cid, []).append(taxonomy)
                assert stored == features
                assert dict(reopened._conn.execute("SELECT key, payload FROM api_cache")) == (
                    payloads)


class TestCanonicalJsonIO:
    @given(st.dates(), st.datetimes())
    def test_date_and_timestamp_round_trip(self, d, ts):
        from litmetrics.jsonio import (
            format_date, format_timestamp, parse_date, parse_timestamp,
        )

        # years before 1000 included, which `strftime` does not zero-pad
        assert parse_date(format_date(d)) == d
        ts = ts.replace(microsecond=0)
        assert parse_timestamp(format_timestamp(ts)) == ts
        assert format_timestamp(ts)[:10] == format_date(ts.date())
        # from year 1000 on, the text `strftime` gave
        if d.year >= 1000:
            assert format_date(d) == d.strftime("%Y-%m-%d")
        if ts.year >= 1000:
            assert format_timestamp(ts) == ts.strftime("%Y-%m-%dT%H:%M:%SZ")

    @given(st.dates(), st.datetimes(), st.none() | st.builds(
        timezone, st.timedeltas(min_value=-timedelta(hours=23, minutes=59),
                                max_value=timedelta(hours=23, minutes=59))))
    def test_formats_give_the_written_out_fields(self, d, ts, tz):
        from litmetrics.jsonio import format_date, format_timestamp

        def reference(ts):
            if ts.tzinfo is not None:
                ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
            return (f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}T"
                    f"{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}Z")

        # microseconds dropped, an aware time in UTC
        ts = ts.replace(tzinfo=tz)
        assert format_date(d) == f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
        assert format_date(ts) == f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
        assert format_date(None) is None
        try:
            expected = reference(ts)
        except OverflowError:  # UTC falls outside years 1-9999
            with pytest.raises(OverflowError):
                format_timestamp(ts)
        else:
            assert format_timestamp(ts) == expected

    @staticmethod
    def _outcome(parse, s):
        try:
            return parse(s)
        except ValueError:
            return ValueError

    # near-miss strings around the exact shapes: field widths, digit values and
    # digit scripts vary, so out-of-range fields and wrong shapes both occur
    _FIELD = st.sampled_from(["0", "00", "0000", "1999", "2024", "9999", "01", "02", "09",
                              "12", "13", "24", "28", "29", "30", "31", "59", "60", "61",
                              "99", "7", " 7", "+1", "\u0661\u0662", "\u00b2"])
    _DATE = st.builds("{}-{}-{}".format, _FIELD, _FIELD, _FIELD)
    _TIMESTAMP = st.builds("{}T{}:{}:{}Z".format, _DATE, _FIELD, _FIELD, _FIELD)

    @given(st.one_of(
        _DATE,
        _TIMESTAMP,
        st.builds(str.__add__, _DATE, st.sampled_from(["T00:00:00", "x", "Z", " "])),
        st.text(alphabet="0123456789-:TZ \u0660\u0669", max_size=24),
        st.datetimes().map(lambda t: f"{t.year:04d}-{t.month:02d}-{t.day:02d}T"
                                     f"{t.hour:02d}:{t.minute:02d}:{t.second:02d}Z"),
    ))
    def test_fast_date_decode_agrees_with_strptime(self, s):
        from litmetrics.jsonio import DATE_FMT, TIMESTAMP_FMT, parse_date, parse_timestamp

        def strptime_date(v):
            return datetime.strptime(v[:10], DATE_FMT).date()

        def strptime_timestamp(v):
            return datetime.strptime(v, TIMESTAMP_FMT)

        if s:
            assert self._outcome(parse_date, s) == self._outcome(strptime_date, s)
        assert self._outcome(parse_timestamp, s) == self._outcome(strptime_timestamp, s)

    def test_memoised_parse_raises_every_time_and_shares_values(self):
        from litmetrics.jsonio import parse_date, parse_timestamp

        for parse, bad, good in [
            (parse_date, ["2024-13-01", "2024-02-30", "2024", "2024-05", "soon"], "2024-02-29"),
            (parse_timestamp, ["2024-01-01T24:00:00Z", "2024-01-01", "2024-01-01T00:00:00"],
             "2024-02-29T23:59:59Z"),
        ]:
            for s in bad:
                for _ in range(3):
                    with pytest.raises(ValueError):
                        parse(s)
            first = parse(good)
            assert parse(good) == first
            assert parse(good) is first  # decoded once, then shared

    def test_canonical_json_is_sorted_and_compact(self):
        from litmetrics.jsonio import canonical_json

        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
        assert canonical_json({"u": "é"}) == '{"u":"é"}'  # unicode verbatim

    @given(st.builds(
        dict,
        title=st.text(max_size=40),
        abstract=st.text(max_size=80),
        cites=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    ))
    def test_record_round_trip(self, fields):
        record = PaperRecord(
            canonical_id="arxiv:1234.5678",
            title=fields["title"],
            abstract=fields["abstract"],
            citation_count=fields["cites"],
            publication_date=date(2020, 3, 4),
            retrieved_at=RETRIEVED,
        )
        import json as _json

        clone = PaperRecord.from_json_dict(_json.loads(record.to_canonical_json()))
        assert clone.to_canonical_json() == record.to_canonical_json()
        assert clone == record
