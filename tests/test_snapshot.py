"""Snapshot store: upsert semantics, JSONL round-trips, versioned reports."""

from __future__ import annotations

import hashlib
import io
import random
import sqlite3
from datetime import date, datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from litmetrics.errors import SchemaMismatch, StorageError, UnknownPaper
from litmetrics.indicators import IndicatorReport
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
        store.insert_new_papers(records)
        wanted = [r.canonical_id for r in records[::-1]] + ["s2:missing"]
        got = store.get_papers(wanted)
        assert sorted(got) == sorted(r.canonical_id for r in records)
        assert all(got[r.canonical_id].to_canonical_json() == r.to_canonical_json()
                   for r in records)
        assert list(store.get_papers()) == [r.canonical_id for r in records]
        assert store.get_papers([]) == {}

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

    def test_corrupt_line_skipped_and_tallied(self, store):
        lines = [record(f"arxiv:{i}").to_canonical_json() for i in range(10)]
        lines[4] = '{"canonical_id": "broken"'  # truncated JSON
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

    def test_store_reports_is_one_transaction(self, store):
        ids = [f"arxiv:{n}" for n in range(3)]
        for cid in ids:
            store.upsert_paper(record(cid))
        statements = []
        store._conn.set_trace_callback(statements.append)
        store.store_reports([(cid, IndicatorReport(tncsi=0.1 * n)) for n, cid in enumerate(ids)])
        store._conn.set_trace_callback(None)
        verbs = [sql.split()[0] for sql in statements]
        assert verbs.count("BEGIN") == 1 and verbs.count("COMMIT") == 1
        assert verbs.count("INSERT") == 3
        assert [store.latest_report(cid).tncsi for cid in ids] == [0.0, 0.1, 0.2]

    def test_store_reports_with_unknown_paper_stores_none(self, store):
        store.upsert_paper(record("arxiv:1"))
        with pytest.raises(UnknownPaper, match="arxiv:nope"):
            store.store_reports([("arxiv:1", IndicatorReport(tncsi=0.5)),
                                 ("arxiv:nope", IndicatorReport(tncsi=0.5))])
        assert store.report_history("arxiv:1") == []

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
        assert store.latest_features("arxiv:1") == fv

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


class TestCanonicalJsonIO:
    @given(
        st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31)),
        st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2030, 12, 31)),
    )
    def test_date_and_timestamp_round_trip(self, d, ts):
        from litmetrics.jsonio import (
            format_date, format_timestamp, parse_date, parse_timestamp,
        )

        assert parse_date(format_date(d)) == d
        ts = ts.replace(microsecond=0)
        assert parse_timestamp(format_timestamp(ts)) == ts

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
