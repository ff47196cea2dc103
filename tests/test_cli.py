"""Command surface: exit codes, determinism, offline guarantees, round trips."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import shutil
import sqlite3
import subprocess
import sys
import textwrap
import threading
from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CountingTransport,
    arxiv_exchange,
    link_pairs,
    make_legacy,
    put_raw_paper,
    s2_citations_exchange,
    s2_paper_exchange,
    s2_references_exchange,
    s2_search_exchange,
    with_body,
    write_fixture_dir,
)
import litmetrics
from litmetrics import cli
from litmetrics.analysis import descriptive_stats
from litmetrics.cli import RECORD_METRICS, Settings, build_parser, main, read_config_file
from litmetrics.demo import build_demo_corpus, build_demo_snapshot, write_fixture_ndjson
from litmetrics.indicators import IndicatorReport
from litmetrics.retrieval import OfflineTransport, PaperRecord, StubLlm, arxiv_review_query
from litmetrics.snapshot import SnapshotStore



@pytest.fixture(scope="module")
def demo_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("demo") / "demo.db"
    build_demo_snapshot(path)
    return path


GOLDEN = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_RUNS = {  # in this order: `stats` reads the reports that `score` stores
    "score_all": ["score", "--all"],
    **{f"stats_{m}": ["stats", m] for m in ("tncsi", "rqm", "rui", "iei", "cites")},
    "trend_discussion": ["trend", "--feature", "discussion", "--sigma", "1.0"],
}


@pytest.fixture(scope="module")
def demo_stdout(tmp_path_factory) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of each golden run on a fresh demo snapshot."""
    path = tmp_path_factory.mktemp("golden") / "demo.db"
    build_demo_snapshot(path)
    results = {}
    for name, argv in GOLDEN_RUNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--db", str(path), "--offline", "--now", "2024-10-01", *argv],
                        transport=OfflineTransport())
        results[name] = (code, out.getvalue())
    return results


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_demo_stdout_matches_golden(demo_stdout, name):
    assert demo_stdout[name] == (0, (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"))


UPGRADED = pytest.mark.parametrize("version", [1, 2, 3, 4],
                                   ids=["schema-1", "schema-2", "schema-3", "schema-4"])


class TestSchemaUpgrade:
    @staticmethod
    def legacy_demo(tmp_path, version) -> Path:
        path = tmp_path / "legacy.db"
        build_demo_snapshot(path)
        with SnapshotStore(path) as store:
            rows = [r.to_json_dict() for r in store.get_papers().values()]
        make_legacy(path, version, rows)
        return path

    @UPGRADED
    def test_an_upgraded_demo_snapshot_gives_the_golden_stdout(self, demo_db, tmp_path, version):
        path = self.legacy_demo(tmp_path, version)
        transport = CountingTransport(OfflineTransport())
        for name, argv in GOLDEN_RUNS.items():  # `score` comes first and upgrades
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--db", str(path), "--offline", "--now", "2024-10-01", *argv],
                            transport=transport)
            assert (code, out.getvalue()) == (0, (GOLDEN / f"{name}.txt").read_text("utf-8"))
        assert transport.count == 0
        for db in (demo_db, path):
            assert main(["--db", str(db), "export", str(tmp_path / f"{db.stem}.jsonl")]) == 0
        assert (tmp_path / "legacy.jsonl").read_bytes() == (tmp_path / "demo.jsonl").read_bytes()

    @UPGRADED
    def test_stats_on_a_legacy_file_names_the_command_that_upgrades_it(
            self, tmp_path, capsys, version):
        path = self.legacy_demo(tmp_path, version)
        assert main(["--db", str(path), "stats", "cites"]) == 1
        err = capsys.readouterr().err
        command = shlex.split(re.search(r"`litmetrics (.*)`", err).group(1))
        assert command == ["--db", str(path), "import", os.devnull]
        transport = CountingTransport(OfflineTransport())
        assert main(command, transport=transport) == 0
        assert transport.count == 0
        assert main(["--db", str(path), "stats", "cites"]) == 0


class TestLinks:
    @staticmethod
    def exported(path, tmp_path) -> str:
        out = tmp_path / "export.jsonl"
        assert main(["--db", str(path), "export", str(out)]) == 0
        return out.read_text(encoding="utf-8")

    def test_links_never_go_stale(self, demo_db, tmp_path):
        path = tmp_path / "demo.db"
        shutil.copyfile(demo_db, path)
        pairs = link_pairs(path)
        review = "arxiv:2500.10000"

        def grown() -> None:
            nonlocal pairs
            now = link_pairs(path)
            assert pairs <= now
            pairs = now

        with SnapshotStore(path) as store:
            paper = store.get_paper(review)
            store.upsert_paper(paper)
            assert store.get_paper(review) == paper
        grown()
        # a stored id imported again, naming a row the same batch adds after it
        added = PaperRecord(canonical_id="arxiv:2409.00001", title="A Reference",
                            retrieved_at=datetime(2024, 10, 1))
        named = PaperRecord(**{**paper.__dict__,
                               "reference_ids": [*paper.reference_ids, added.canonical_id]})
        lines = tmp_path / "batch.jsonl"
        lines.write_text(named.to_canonical_json() + "\n" + added.to_canonical_json() + "\n",
                         encoding="utf-8")
        assert main(["--db", str(path), "import", str(lines)]) == 0
        grown()
        # harvest gives the reference row a keyword
        query = arxiv_review_query("ai")
        fixtures = write_fixture_dir(tmp_path / "fixtures", [arxiv_exchange(query, 5, [
            {"arxiv_id": "2409.00001", "title": "A Survey of AI", "abstract": "A review of ai.",
             "published": "2024-09-01"}])])
        assert main(["--db", str(path), "--fixtures", str(fixtures), "--rate", "100000",
                     "harvest", "ai", "--limit", "5"]) == 0
        grown()
        exported = self.exported(path, tmp_path)
        with SnapshotStore(path, read_only=True) as store:
            assert store.get_paper(review) == named
            assert store.get_paper(added.canonical_id).topic_keyword == "ai"
        # the upgrade, which ends in `VACUUM`
        make_legacy(path, 3)
        assert main(["--db", str(path), "import", os.devnull]) == 0
        grown()
        assert self.exported(path, tmp_path) == exported
        # nothing may take a row's id away from it
        source = Path(litmetrics.snapshot.__file__).read_text(encoding="utf-8")
        assert not re.search(r"DELETE\s+FROM\s+papers\b|REPLACE\s+INTO\s+papers\b",
                             source, re.IGNORECASE)

    def test_a_link_that_names_no_row_is_one_error_line(self, demo_db, tmp_path, capsys):
        path = tmp_path / "demo.db"
        shutil.copyfile(demo_db, path)
        with SnapshotStore(path) as store:
            data = store.get_paper("arxiv:2500.10000").to_json_dict()
            put_raw_paper(store, {**data, "reference_ids": [1, 9999, "s2:gone"]})
            with pytest.raises(litmetrics.errors.StorageError):
                store.get_paper("arxiv:2500.10000")
        capsys.readouterr()
        for argv in (["export", str(tmp_path / "out.jsonl")], ["--offline", "score", "--all"]):
            assert main(["--db", str(path), *argv]) == 1
            err = capsys.readouterr().err
            assert err == ("error: StorageError: paper 'arxiv:2500.10000' names reference "
                           "link 9999, which is no `papers` row id\n")


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(litmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, litmetrics.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_import_score_and_stats_load_no_numpy(self, demo_db, tmp_path):
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)
        groups = tmp_path / "groups.json"
        src = str(Path(litmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = textwrap.dedent(f"""
            import sys
            from litmetrics.cli import main

            def loaded(step, code, unused):
                return [step, code, [m for m in sys.modules
                                     if any(m == u or m.startswith(u + ".") for u in unused)]]

            flags = ["--db", {str(db)!r}, "--offline", "--now", "2024-10-01"]
            third_party = ["numpy", "scipy", "requests"]
            score_unused = ["concurrent.futures", "hashlib", "xml.etree", "_strptime", *third_party]
            seen = [loaded("import", 0, [*score_unused, "urllib.request", "http.client"])]
            seen.append(loaded("score", main([*flags, "score", "--all"]), score_unused))
            seen.append(loaded("stats", main([*flags, "stats", "tncsi"]),
                               ["statistics", *third_party]))
            seen.append(loaded("trend", main([*flags, "trend"]), third_party))
            seen.append(loaded("robustness", main([*flags, "robustness", {str(groups)!r}]),
                               third_party))
            print(seen, file=sys.stderr)
        """)
        groups.write_text(json.dumps([
            {"anchor": "object detection", "comparisons": ["diffusion models"]}]))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stderr.splitlines()[-1] == str([["import", 0, []], ["score", 0, []],
                                                     ["stats", 0, []], ["trend", 0, []],
                                                     ["robustness", 0, []]])

    @pytest.mark.parametrize("source", ["offline", "offline-fixtures", "injected"])
    def test_score_starts_threads_only_when_it_can_fetch(self, demo_db, tmp_path, monkeypatch,
                                                          capsys, source):
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)
        fixtures = (["--fixtures", str(write_fixture_dir(tmp_path / "fixtures", []))]
                    if source == "offline-fixtures" else [])
        # a transport passed in may wait on a remote host, so the pool starts
        transport = CountingTransport(OfflineTransport()) if source == "injected" else None
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        assert main(["--db", str(db), "--offline", *fixtures, "--now", "2024-10-01",
                     "--workers", "4", "score", "--all"], transport=transport) == 0
        assert bool(started) == (source == "injected")
        assert capsys.readouterr().out == (GOLDEN / "score_all.txt").read_text(encoding="utf-8")

    def test_entrypoint_freezes_the_heap_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        with pytest.raises(SystemExit) as exited:
            cli.entrypoint()
        assert exited.value.code == 0
        assert calls == ["freeze", "main"]

    def test_module_run_prints_the_golden_score_table(self, demo_db, tmp_path):
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)
        src = str(Path(litmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "litmetrics", "--db", str(db), "--offline",
                               "--now", "2024-10-01", "score", "--all"],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout == (GOLDEN / "score_all.txt").read_text(encoding="utf-8")

    def test_latency_probe_scores_the_cold_demo(self):
        src = str(Path(litmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = Path(__file__).resolve().parents[1] / "scripts" / "latency_probe.py"
        done = subprocess.run([sys.executable, str(script), "--rate", "100000", "--latency", "0",
                               "--workers", "2", "--llm-latency", "0"],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120, check=True)
        assert "exit=0 requests=66 llm_calls=20 " in done.stdout
        assert done.stdout.rstrip().endswith("failed_rows=0")


class TestScoreCommand:
    def test_offline_score_is_deterministic_and_networkless(self, demo_db, capsys):
        outputs = []
        for _ in range(3):
            transport = OfflineTransport()
            code = main(
                ["--db", str(demo_db), "--offline", "--now", "2024-10-01",
                 "score", "--all"],
                transport=transport,
            )
            assert code == 0
            assert transport.attempts == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count("\n") == 21  # header + 20 papers

    def test_single_indicator_selection(self, demo_db, capsys):
        code = main(
            ["--db", str(demo_db), "--offline", "--now", "2024-10-01",
             "score", "arxiv:2500.10000", "--tncsi"],
            transport=OfflineTransport(),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tncsi" in out
        assert "rqm" not in out

    def test_missing_topic_sample_is_per_item_error(self, tmp_path, capsys):
        db = tmp_path / "s.db"
        with SnapshotStore(db) as store:
            store.upsert_paper(PaperRecord(
                canonical_id="arxiv:9999.00001",
                title="A Survey on an Unsampled Topic",
                abstract="x",
                external_ids={"arxiv": "9999.00001"},
                publication_date=date(2023, 1, 1),
                citation_count=5,
                topic_keyword="unsampled topic",
                retrieved_at=datetime(2024, 1, 1),
            ))
        fixtures = write_fixture_dir(
            tmp_path / "fx",
            [s2_search_exchange("unsampled topic", "citationCount", [], limit=100)],
        )
        code = main(
            ["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
             "--now", "2024-10-01", "score", "arxiv:9999.00001", "--tncsi"],
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "EmptyResult" in out
        assert "TNCSI uncomputable" in out

    def test_unknown_paper_id_is_per_item_error(self, demo_db, capsys):
        code = main(
            ["--db", str(demo_db), "--offline", "--now", "2024-10-01",
             "score", "arxiv:does-not-exist", "--tncsi"],
            transport=OfflineTransport(),
        )
        assert code == 1
        assert "UnknownPaper" in capsys.readouterr().out

    def test_one_and_four_workers_print_and_store_the_same(self, demo_db, tmp_path, capsys):
        outputs = []
        for workers in ("1", "4"):
            db = tmp_path / f"w{workers}.db"
            shutil.copy(demo_db, db)
            assert main(["--db", str(db), "--offline", "--now", "2024-10-01",
                         "--workers", workers, "score", "--all"],
                        transport=OfflineTransport()) == 0
            with sqlite3.connect(db) as conn:
                stored = conn.execute(
                    "SELECT paper_id, computed_at, report_json FROM reports ORDER BY id"
                ).fetchall()
            outputs.append((capsys.readouterr().out, stored))
        assert outputs[0] == outputs[1]

    def test_error_row_shows_the_keyword_the_llm_assigned(self, tmp_path, capsys):
        db = tmp_path / "k.db"
        with SnapshotStore(db) as store:
            store.upsert_paper(PaperRecord(
                canonical_id="arxiv:2402.11111", title="A Survey on Graphs",
                external_ids={"arxiv": "2402.11111"}, retrieved_at=datetime(2024, 10, 1)))
        stub = StubLlm({"A Survey on Graphs": "graph learning"})
        code = main(["--db", str(db), "--offline", "--now", "2024-10-01",
                     "score", "arxiv:2402.11111", "--tncsi"],
                    transport=OfflineTransport(), llm=stub)
        assert code == 1
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("arxiv:2402.11111  -     -      graph learning  -      error: ")

    @staticmethod
    def score_iei_with_a_bad_second_page(tmp_path, capsys, bad_page: dict) -> str:
        """`score --all --iei` of three papers whose second is answered with
        ``bad_page``; checks that only it fails, and returns its row."""
        db = tmp_path / "s.db"
        citing = {"9999.00001": ["2024-09-01"], "9999.00002": ["2024-09-02"],
                  "9999.00003": ["2024-08-03", None]}
        with SnapshotStore(db) as store:
            for arxiv_id in citing:
                store.upsert_paper(PaperRecord(
                    canonical_id=f"arxiv:{arxiv_id}", title=f"A Survey {arxiv_id}",
                    external_ids={"arxiv": arxiv_id}, topic_keyword="kw",
                    retrieved_at=datetime(2024, 1, 1)))
        exchanges = [s2_citations_exchange(f"ARXIV:{arxiv_id}", dates)
                     for arxiv_id, dates in citing.items()]
        exchanges[1] = bad_page
        fixtures = write_fixture_dir(tmp_path / "fx", exchanges)
        code = main(["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                     "--now", "2024-10-01", "score", "--all", "--iei"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == 1
        assert [row.split()[0] for row in rows if "error: ParseError" in row] == [
            "arxiv:9999.00002"]
        with SnapshotStore(db, read_only=True) as store:
            assert sorted(store.latest_reports()) == ["arxiv:9999.00001", "arxiv:9999.00003"]
            cached = [json.loads(key)["paper_id"] for (key,) in
                      store._conn.execute("SELECT key FROM api_cache")]
        assert sorted(cached) == ["ARXIV:9999.00001", "ARXIV:9999.00003"]
        return rows[1]

    def test_a_malformed_citing_date_fails_its_paper_only(self, tmp_path, capsys):
        bad = s2_citations_exchange("ARXIV:9999.00002", ["2024-09-02", "2024-13-40"])
        row = self.score_iei_with_a_bad_second_page(tmp_path, capsys, bad)
        assert "malformed citations payload: citing date '2024-13-40'" in row

    def test_a_page_of_the_wrong_json_type_fails_its_paper_only(self, tmp_path, capsys):
        bad = with_body(s2_citations_exchange("ARXIV:9999.00002", []), {"data": [1, 2]})
        row = self.score_iei_with_a_bad_second_page(tmp_path, capsys, bad)
        assert "malformed citations payload: 'int' object has no attribute 'get'" in row

    def test_reports_are_persisted(self, demo_db):
        with SnapshotStore(demo_db, read_only=True) as store:
            report = store.latest_report("arxiv:2500.10000")
            assert report is not None
            assert report.tncsi is not None
            assert report.topic_keyword == "object detection"


class TestUsageErrors:
    def test_empty_harvest_keyword(self, tmp_path):
        code = main(["--db", str(tmp_path / "x.db"), "harvest", ""])
        assert code == 2

    def test_unknown_subcommand(self, tmp_path):
        assert main(["--db", str(tmp_path / "x.db"), "frobnicate"]) == 2

    def test_score_without_selection(self, demo_db):
        assert main(["--db", str(demo_db), "--offline", "score"]) == 2

    def test_missing_fixtures_dir_is_operational_error(self, demo_db, capsys):
        code = main(["--db", str(demo_db), "--fixtures", "/no/such/dir",
                     "score", "--all"])
        assert code == 1
        assert "fixtures directory not found" in capsys.readouterr().err

    def test_a_defect_prints_one_line_and_exits_1(self, tmp_path, monkeypatch, capsys):
        class BrokenTransport:
            def request(self, method, url, params, headers, body=None):
                raise RuntimeError("transport defect")

        closed = []
        close = cli.Runtime.close
        monkeypatch.setattr(cli.Runtime, "close", lambda self: (closed.append(1), close(self)))
        code = main(["--db", str(tmp_path / "x.db"), "--rate", "1000", "harvest", "gnn"],
                    transport=BrokenTransport())
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: internal: RuntimeError: transport defect\n"
        assert captured.out == "" and closed == [1]

    def test_bad_now_value(self, demo_db):
        assert main(["--db", str(demo_db), "--now", "not-a-date", "score", "--all"]) == 2

    @given(st.one_of(
        st.text(max_size=12),
        st.text(alphabet="0123456789-０１２", min_size=8, max_size=11),
        st.dates().map(lambda d: f"{d.year:04d}-{d.month:02d}-{d.day:02d}"),
        st.builds(lambda y, m, d: f"{y}-{m}-{d}", st.integers(0, 10_000),
                  st.integers(0, 13), st.integers(0, 32)),
    ))
    def test_now_accepts_exactly_what_strptime_accepts(self, text):
        try:
            expected = datetime.strptime(text, "%Y-%m-%d").date()
        except ValueError:
            with pytest.raises(argparse.ArgumentTypeError,
                               match=f"^not a YYYY-MM-DD date: {re.escape(repr(text))}$"):
                cli._parse_date(text)
        else:
            assert cli._parse_date(text) == expected


class TestHarvestEnrich:
    FEED = [
        {
            "arxiv_id": "2402.11111",
            "title": "A Survey on Graph Neural Networks",
            "abstract": "We survey graph neural networks broadly.",
            "published": "2024-02-01",
            "authors": ["A", "B", "C"],
        },
        {
            "arxiv_id": "2402.22222",
            "title": "A Review of Unrelated Matters",
            "abstract": "Nothing relevant here.",
            "published": "2024-02-02",
        },
    ]

    def test_harvest_via_fixtures(self, tmp_path, capsys):
        query = arxiv_review_query("graph neural networks")
        fixtures = write_fixture_dir(
            tmp_path / "fx", [arxiv_exchange(query, 100, self.FEED)]
        )
        db = tmp_path / "h.db"
        code = main(["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                     "harvest", "graph neural networks"])
        assert code == 0
        out = capsys.readouterr().out
        assert "arxiv:2402.11111" in out
        assert "arxiv:2402.22222" not in out  # post-filtered
        with SnapshotStore(db) as store:
            rec = store.get_paper("arxiv:2402.11111")
            assert rec.topic_keyword == "graph neural networks"
            assert rec.citation_count is None

    def test_enrich_attaches_citations_and_references(self, tmp_path, capsys):
        query = arxiv_review_query("graph neural networks")
        paper = {
            "paperId": "s2gnn",
            "externalIds": {"ArXiv": "2402.11111"},
            "title": "A Survey on Graph Neural Networks",
            "abstract": "We survey graph neural networks broadly.",
            "publicationDate": "2024-02-01",
            "venue": "arXiv",
            "citationCount": 77,
            "authors": [{"name": "A"}, {"name": "B"}, {"name": "C"}],
        }
        refs = [
            {"paperId": "r1", "externalIds": {}, "title": "GNN Foundations",
             "publicationDate": "2020-05-01", "citationCount": 900},
            {"paperId": "r2", "externalIds": {"DOI": "10.1/r2"}, "title": "Spectral Methods",
             "publicationDate": "2019-03-01", "citationCount": 400},
        ]
        fixtures = write_fixture_dir(
            tmp_path / "fx",
            [
                arxiv_exchange(query, 100, self.FEED),
                s2_paper_exchange("ARXIV:2402.11111", paper),
                s2_references_exchange("ARXIV:2402.11111", refs),
            ],
        )
        db = tmp_path / "h.db"
        assert main(["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                     "harvest", "graph neural networks"]) == 0
        capsys.readouterr()
        assert main(["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                     "enrich", "arxiv:2402.11111"]) == 0
        out = capsys.readouterr().out
        assert "enriched" in out
        with SnapshotStore(db) as store:
            rec = store.get_paper("arxiv:2402.11111")
            assert rec.citation_count == 77
            assert rec.external_ids["s2_join"] == "arxiv"
            assert rec.reference_ids == ["s2:r1", "doi:10.1/r2"]
            assert store.get_paper("s2:r1").citation_count == 900

    def test_enrich_goes_on_past_a_payload_that_fails_its_checks(self, tmp_path, capsys):
        db = tmp_path / "h.db"
        with SnapshotStore(db) as store:
            for arxiv_id in ("2402.00001", "2402.00002"):
                store.upsert_paper(PaperRecord(
                    canonical_id=f"arxiv:{arxiv_id}", title="A Survey",
                    external_ids={"arxiv": arxiv_id}, retrieved_at=datetime(2024, 1, 1)))
        paper = {"paperId": "p", "externalIds": {"ArXiv": "2402.00001"}, "title": "A Survey",
                 "publicationDate": "2024-02-01", "citationCount": 1}
        fixtures = write_fixture_dir(tmp_path / "fx", [
            s2_paper_exchange("ARXIV:2402.00001", {**paper, "publicationDate": "2999-01-01"}),
            s2_paper_exchange("ARXIV:2402.00002",
                              {**paper, "externalIds": {"ArXiv": "2402.00002"}}),
            s2_references_exchange("ARXIV:2402.00002", []),
        ])
        code = main(["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                     "enrich", "arxiv:2402.00001", "arxiv:2402.00002"])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "arxiv:2402.00001  error: ParseError: malformed paper payload: "
            "publication_date cannot postdate retrieval",
            "arxiv:2402.00002  enriched",
        ]

    @pytest.mark.parametrize("page, error", [
        ({"data": [{"title": "A Survey"}]}, "ParseError: malformed title search for s2:a: "
                                             "no paperId in {'data': [{'title': 'A Survey'}]}"),
        ([{"paperId": "a"}], "ParseError: malformed title search for s2:a: "
                             "no paperId in [{'paperId': 'a'}]"),
        ({"data": []}, "UnknownPaper: no search hit for title of s2:a"),
    ], ids=["hit-without-paper-id", "page-not-an-object", "no-hit"])
    def test_a_title_join_that_fails_fails_its_paper_only(self, tmp_path, capsys, page, error):
        db = tmp_path / "h.db"
        with SnapshotStore(db) as store:
            for s2_id in ("a", "b"):
                store.upsert_paper(PaperRecord(canonical_id=f"s2:{s2_id}",
                                               title=f"Survey {s2_id.upper()}",
                                               retrieved_at=datetime(2024, 1, 1)))
        fixtures = write_fixture_dir(tmp_path / "fx", [
            with_body(s2_search_exchange("Survey A", "paperId", [], limit=1), page),
            s2_search_exchange("Survey B", "paperId", [{"paperId": "b"}], limit=1),
            s2_paper_exchange("b", {"paperId": "b", "title": "Survey B",
                                    "publicationDate": "2023-02-01", "citationCount": 4}),
            s2_references_exchange("b", []),
        ])
        code = main(["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                     "enrich", "s2:a", "s2:b"])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [f"s2:a  error: {error}", "s2:b  enriched"]
        with SnapshotStore(db, read_only=True) as store:
            assert store.get_paper("s2:b").external_ids == {"s2": "b", "s2_join": "title"}
            assert store.get_paper("s2:b").citation_count == 4

    def test_enrich_unknown_paper_reports_error(self, tmp_path, capsys):
        db = tmp_path / "h.db"
        with SnapshotStore(db):
            pass
        code = main(["--db", str(db), "--offline", "enrich", "arxiv:nope"])
        assert code == 1
        assert "UnknownPaper" in capsys.readouterr().out


class TestFeaturesCommand:
    def test_features_with_stub(self, tmp_path, capsys):
        db = tmp_path / "f.db"
        with SnapshotStore(db) as store:
            store.upsert_paper(PaperRecord(
                canonical_id="arxiv:2403.00001",
                title="A Comprehensive Review of Multi-View Video Summarization",
                abstract="x",
                external_ids={"arxiv": "2403.00001"},
                publication_date=date(2023, 6, 1),
                topic_keyword="multi-view video summarization",
                retrieved_at=datetime(2024, 1, 1),
            ))
        docs = tmp_path / "docs"
        docs.mkdir()
        source = Path(__file__).parent / "fixtures" / "docs" / "multiview_summarization.txt"
        (docs / "arxiv_2403.00001.txt").write_text(source.read_text(encoding="utf-8"))
        stub = Path(__file__).parent / "fixtures" / "stubs" / "extraction_stub.json"
        code = main([
            "--db", str(db), "--offline", "--llm-stub", str(stub), "--now", "2024-10-01",
            "features", "arxiv:2403.00001", "--docs", str(docs),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "taxonomy" in out
        with SnapshotStore(db) as store:
            fv = store.latest_features("arxiv:2403.00001")
            assert fv.preliminary == 1 and fv.prisma == 0

    def test_features_decode_no_record(self, demo_db, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        source = Path(__file__).parent / "fixtures" / "docs" / "multiview_summarization.txt"
        (docs / "arxiv_2403.00001.txt").write_text(source.read_text(encoding="utf-8"))
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)
        with SnapshotStore(db) as store:
            store.upsert_paper(PaperRecord(canonical_id="arxiv:2403.00001", title="A review",
                                           retrieved_at=datetime(2024, 1, 1)))
        decodes = []
        decode = PaperRecord.__dict__["from_json_dict"].__func__
        monkeypatch.setattr(PaperRecord, "from_json_dict", classmethod(
            lambda cls, data: decodes.append(data["canonical_id"]) or decode(cls, data)))
        stub = Path(__file__).parent / "fixtures" / "stubs" / "extraction_stub.json"
        assert main(["--db", str(db), "--offline", "--llm-stub", str(stub),
                     "features", "arxiv:2403.00001", "--docs", str(docs)]) == 0
        assert decodes == []

    def test_features_without_llm(self, demo_db, capsys):
        code = main(["--db", str(demo_db), "--offline",
                     "features", "arxiv:2500.10000", "--docs", "/nonexistent"])
        assert code == 1
        assert "LlmUnavailable" in capsys.readouterr().err

    def test_missing_document_is_per_item_error(self, demo_db, tmp_path, capsys):
        stub = Path(__file__).parent / "fixtures" / "stubs" / "extraction_stub.json"
        code = main([
            "--db", str(demo_db), "--offline", "--llm-stub", str(stub),
            "features", "arxiv:2500.10000", "--docs", str(tmp_path),
        ])
        assert code == 1
        assert "no structured-text document" in capsys.readouterr().out


class TestStatsTrendRobustness:
    def test_stats_table_and_read_only_no_mutation(self, demo_db, capsys):
        import hashlib

        before = hashlib.sha256(demo_db.read_bytes()).hexdigest()
        assert main(["--db", str(demo_db), "--offline", "stats", "cites"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["metric", "n", "max", "min", "mean",
                                               "median", "mode"]
        assert hashlib.sha256(demo_db.read_bytes()).hexdigest() == before

    def test_stats_json_and_csv(self, demo_db, tmp_path, capsys):
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)  # the demo snapshot holds no report until scored
        assert main(["--db", str(db), "--offline", "--now", "2024-10-01", "score", "--all"]) == 0
        jpath = tmp_path / "stats.json"
        cpath = tmp_path / "stats.csv"
        assert main(["--db", str(db), "--offline", "stats", "tncsi",
                     "--json", str(jpath), "--csv", str(cpath)]) == 0
        payload = json.loads(jpath.read_text())
        assert payload["metric"] == "tncsi"
        assert 0.0 <= payload["mean"] <= 1.0
        assert cpath.read_text().startswith("metric,n,max,min,mean,median,mode")

    def test_stats_equals_the_per_paper_loop_with_tied_reports(self, tmp_path, capsys):
        db = tmp_path / "tied.db"
        tied = datetime(2024, 6, 1)
        with SnapshotStore(db) as store:
            for n in range(4):
                store.upsert_paper(PaperRecord(canonical_id=f"arxiv:{n}", title="t",
                                               retrieved_at=datetime(2024, 10, 1)))
            store.store_report("arxiv:0", IndicatorReport(tncsi=0.2, computed_at=tied))
            store.store_report("arxiv:0", IndicatorReport(tncsi=0.9, computed_at=tied))
            store.store_report("arxiv:1", IndicatorReport(tncsi=0.5, computed_at=tied))
            store.store_report("arxiv:1", IndicatorReport(tncsi=0.1, computed_at=datetime(2024, 1, 1)))
            store.store_report("arxiv:3", IndicatorReport(tncsi=0.3, computed_at=tied))
            # the per-paper loop that stats ran before it read in bulk
            expected = []
            for n in range(4):
                report = store.latest_report(f"arxiv:{n}")
                if report is not None and report.tncsi is not None:
                    expected.append(report.tncsi)
        jpath = tmp_path / "stats.json"
        assert main(["--db", str(db), "--offline", "stats", "tncsi", "--json", str(jpath)]) == 0
        s = descriptive_stats(expected)
        assert expected == [0.9, 0.5, 0.3]
        assert json.loads(jpath.read_text()) == {
            "metric": "tncsi", "n": 3, "max": s.max, "min": s.min, "mean": s.mean,
            "median": s.median, "mode": s.mode}

    def test_report_metric_decodes_no_record(self, demo_db, tmp_path, monkeypatch, capsys):
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)
        flags = ["--db", str(db), "--offline", "--now", "2024-10-01"]
        assert main([*flags, "score", "--all"]) == 0
        capsys.readouterr()
        decoded = []
        decode = PaperRecord.from_json_dict.__func__
        monkeypatch.setattr(PaperRecord, "from_json_dict",
                            classmethod(lambda cls, d: decoded.append(d) or decode(cls, d)))
        assert main([*flags, "stats", "tncsi"]) == 0
        assert decoded == []
        assert capsys.readouterr().out == (GOLDEN / "stats_tncsi.txt").read_text(encoding="utf-8")

    def test_record_metric_decodes_no_record(self, demo_db, monkeypatch, capsys):
        decoded = []
        decode = PaperRecord.from_json_dict.__func__
        monkeypatch.setattr(PaperRecord, "from_json_dict",
                            classmethod(lambda cls, d: decoded.append(d) or decode(cls, d)))
        assert main(["--db", str(demo_db), "--offline", "stats", "cites"]) == 0
        assert decoded == []
        assert capsys.readouterr().out == (GOLDEN / "stats_cites.txt").read_text(encoding="utf-8")

    def test_record_metrics_read_what_the_records_hold(self, demo_db, tmp_path):
        db = tmp_path / "demo.db"
        shutil.copyfile(demo_db, db)
        decoded_metrics = {
            "cites": lambda rec: rec.citation_count,
            "refs": lambda rec: len(rec.reference_ids) if rec.reference_ids else None,
            "authors": lambda rec: rec.author_count or None,
            "year": lambda rec: rec.publication_date.year if rec.publication_date else None,
        }
        with SnapshotStore(db) as store:
            store.upsert_paper(PaperRecord(canonical_id="s2:bare", title="Bare",
                                           retrieved_at=datetime(2024, 10, 1)))
            store.upsert_paper(PaperRecord(
                canonical_id="s2:full", title="Full", publication_date=date(1999, 12, 31),
                citation_count=0, reference_ids=["s2:bare", "s2:gone"], author_count=7,
                retrieved_at=datetime(2024, 10, 1)))
            records = store.get_papers().values()
            assert set(decoded_metrics) == set(RECORD_METRICS)
            for metric, extract in decoded_metrics.items():
                assert RECORD_METRICS[metric](store) == [extract(rec) for rec in records], metric

    def test_stats_empty_metric(self, tmp_path, capsys):
        db = tmp_path / "empty.db"
        with SnapshotStore(db):
            pass
        assert main(["--db", str(db), "--offline", "stats", "cites"]) == 1
        assert "EmptyInput" in capsys.readouterr().err

    def test_trend_decodes_no_record(self, demo_db, monkeypatch, capsys):
        decoded = []
        decode = PaperRecord.from_json_dict.__func__
        monkeypatch.setattr(PaperRecord, "from_json_dict",
                            classmethod(lambda cls, d: decoded.append(d) or decode(cls, d)))
        assert main(["--db", str(demo_db), "--offline", "trend",
                     "--feature", "discussion", "--sigma", "1.0"]) == 0
        assert decoded == []
        assert capsys.readouterr().out == (
            GOLDEN / "trend_discussion.txt").read_text(encoding="utf-8")

    def test_trend_csv(self, demo_db, tmp_path, capsys):
        cpath = tmp_path / "trend.csv"
        assert main(["--db", str(demo_db), "--offline", "trend",
                     "--feature", "taxonomy", "--sigma", "0", "--csv", str(cpath)]) == 0
        lines = cpath.read_text().splitlines()
        assert lines[0] == "year,taxonomy_raw,taxonomy_smoothed"
        assert len(lines) == 5  # 2021..2024

    def test_robustness_from_cached_samples(self, demo_db, tmp_path, capsys):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({
            "groups": [
                {"anchor": "object detection", "comparisons": ["diffusion models"]},
                {"anchor": "speech recognition", "comparisons": ["speech recognition"]},
            ]
        }))
        code = main(["--db", str(demo_db), "--offline", "robustness", str(groups)],
                    transport=OfflineTransport())
        assert code == 0
        out = capsys.readouterr().out
        assert "overall" in out
        # identical anchor and comparison term: KL exactly zero
        line = [l for l in out.splitlines() if l.startswith("speech recognition")][0]
        assert "0.0000" in line

    @pytest.mark.parametrize("argv, flag, value", [
        *((["trend"], "sigma", value) for value in ("-1", "nan", "inf", "-inf", "x")),
        *((["robustness", "groups.json"], "epsilon", value)
          for value in ("0", "-1e-9", "nan", "inf", "x")),
    ])
    def test_bad_sigma_or_epsilon_is_a_usage_error(self, demo_db, capsys, argv, flag, value):
        assert main(["--db", str(demo_db), "--offline", *argv, f"--{flag}={value}"]) == 2
        rule = "non-negative" if flag == "sigma" else "positive"
        assert (f"error: argument --{flag}: not a finite {rule} number: {value!r}"
                in capsys.readouterr().err)

    def test_robustness_missing_term(self, demo_db, tmp_path, capsys):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps(
            {"groups": [{"anchor": "object detection", "comparisons": ["never sampled"]}]}
        ))
        code = main(["--db", str(demo_db), "--offline", "--rate", "1000",
                     "robustness", str(groups)])
        assert code == 1


class TestExportImport:
    def test_round_trip(self, demo_db, tmp_path, capsys):
        out_path = tmp_path / "dump.jsonl"
        assert main(["--db", str(demo_db), "--offline", "export", str(out_path)]) == 0
        db2 = tmp_path / "fresh.db"
        assert main(["--db", str(db2), "--offline", "import", str(out_path)]) == 0
        again = tmp_path / "dump2.jsonl"
        assert main(["--db", str(db2), "--offline", "export", str(again)]) == 0
        assert out_path.read_bytes() == again.read_bytes()

    def test_export_of_an_id_named_twice_writes_it_once(self, demo_db, tmp_path, capsys):
        out_path = tmp_path / "one.jsonl"
        assert main(["--db", str(demo_db), "export", str(out_path),
                     "--ids", "arxiv:2500.10000", "arxiv:2500.10000"]) == 0
        assert len(out_path.read_text().splitlines()) == 1
        assert "exported 1 records" in capsys.readouterr().err

    def test_import_tallies_corrupt_lines(self, demo_db, tmp_path, capsys):
        out_path = tmp_path / "dump.jsonl"
        main(["--db", str(demo_db), "--offline", "export", str(out_path)])
        lines = out_path.read_text().splitlines()
        lines.insert(3, "{corrupt")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        db2 = tmp_path / "fresh.db"
        code = main(["--db", str(db2), "--offline", "import", str(bad)])
        assert code == 1
        assert "1 corrupt" in capsys.readouterr().err


class TestSettings:
    def test_precedence_flags_env_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("workers = 9\nrate=3.5\ns2_api_key = from-file\n# comment\n")
        monkeypatch.setenv("S2_API_KEY", "from-env")
        parser = build_parser()
        args = parser.parse_args(["--config", str(cfg), "--workers", "2", "score", "--all"])
        settings = Settings(args)
        assert settings.workers == 2          # flag wins
        assert settings.rate == 3.5           # file used
        assert settings.s2_api_key == "from-env"  # env beats file

    def test_config_file_parse_error(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("not a pair\n")
        with pytest.raises(ValueError):
            read_config_file(cfg)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("rate = not-a-number\n")
        assert main(["--config", str(cfg), "--db", str(tmp_path / "x.db"),
                     "score", "--all"]) == 2

    @pytest.mark.parametrize("key, value", [("rate", "0"), ("rate", "-1"), ("rate", "nan"),
                                            ("k", "0"), ("k", "1001"), ("workers", "0"),
                                            ("workers", "-3"), ("beta", "0"), ("beta", "-5"),
                                            ("beta", "nan"), ("beta", "inf")])
    def test_out_of_range_rate_or_k_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = {value}\n")
        db = ["--db", str(tmp_path / "x.db"), "--offline"]
        for source in (["--config", str(cfg)], [f"--{key}={value}"]):
            assert main([*db, *source, "score", "--all"]) == 2
            assert f"error: bad configuration: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["rat = 5", "worker = 4"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"rate = 2\n{line}\n")
        assert main(["--config", str(cfg), "--db", str(tmp_path / "x.db"),
                     "score", "--all"]) == 2
        assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err


class TestFixturesFlagRoundTrip:
    def test_demo_exchanges_replayable_from_disk(self, tmp_path, capsys):
        corpus = build_demo_corpus()
        fixtures_dir = tmp_path / "fx"
        write_fixture_ndjson(corpus, fixtures_dir)
        db = tmp_path / "replay.db"
        with SnapshotStore(db) as store:
            for rec in corpus.references:
                store.upsert_paper(rec)
            for rec in corpus.papers:
                store.upsert_paper(rec)
        code = main(["--db", str(db), "--fixtures", str(fixtures_dir), "--rate", "1000",
                     "--now", "2024-10-01", "score", "--all"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 21


class TestFullWorkflow:
    """harvest -> enrich -> score -> stats, end to end over recorded fixtures."""

    KEYWORD = "graph neural networks"
    SAMPLE = [0, 2, 5, 10, 33]  # topic citation counts; rate = 5/50 = 0.1

    def build_fixtures(self, tmp_path, r2_published: str = "2019-03-01") -> Path:
        """The exchanges of the four stages; the second reference, the
        lower median of the two, is dated ``r2_published``."""
        query = arxiv_review_query(self.KEYWORD)
        feed = [{
            "arxiv_id": "2402.11111",
            "title": "A Survey on Graph Neural Networks",
            "abstract": "We survey graph neural networks broadly.",
            "published": "2024-02-01",
            "authors": ["A", "B"],
        }]
        paper = {
            "paperId": "s2gnn",
            "externalIds": {"ArXiv": "2402.11111"},
            "title": "A Survey on Graph Neural Networks",
            "abstract": "We survey graph neural networks broadly.",
            "publicationDate": "2024-02-01",
            "venue": "arXiv",
            "citationCount": 77,
            "authors": [{"name": "A"}, {"name": "B"}],
        }
        refs = [
            {"paperId": "r1", "externalIds": {}, "title": "GNN Foundations",
             "publicationDate": "2020-05-01", "citationCount": 900},
            {"paperId": "r2", "externalIds": {}, "title": "Spectral Methods",
             "publicationDate": r2_published, "citationCount": 400},
        ]
        citing = ["2024-08-15", "2024-08-20", "2024-09-01", "2024-09-10", "2024-09-15"]
        window_pre = [{"publicationDate": "2019-03-01"}] * 40
        window_post = [{"publicationDate": "2024-02-01"}] * 30
        return write_fixture_dir(tmp_path / "fx", [
            arxiv_exchange(query, 100, feed),
            s2_paper_exchange("ARXIV:2402.11111", paper),
            s2_references_exchange("ARXIV:2402.11111", refs),
            s2_search_exchange(self.KEYWORD, "citationCount",
                               [{"citationCount": c} for c in self.SAMPLE], limit=100),
            s2_citations_exchange("ARXIV:2402.11111", citing),
            s2_search_exchange(
                self.KEYWORD, "publicationDate", window_pre,
                extra={"publicationDateOrYear": f"{r2_published}:2024-02-01"}),
            s2_search_exchange(
                self.KEYWORD, "publicationDate", window_post,
                extra={"publicationDateOrYear": "2024-02-01:2024-10-01"}),
        ])

    def test_all_four_stages(self, tmp_path, capsys):
        from litmetrics.indicators import (
            CitationSeries, fit_exponential_mle, iei_average, rad, rqm_value, tncsi,
        )

        fixtures = self.build_fixtures(tmp_path)
        db = tmp_path / "flow.db"
        base = ["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                "--now", "2024-10-01"]

        assert main(base + ["harvest", self.KEYWORD]) == 0
        assert main(base + ["enrich", "arxiv:2402.11111"]) == 0
        assert main(base + ["score", "arxiv:2402.11111"]) == 0
        capsys.readouterr()

        with SnapshotStore(db, read_only=True) as store:
            report = store.latest_report("arxiv:2402.11111")
        fit = fit_exponential_mle(self.SAMPLE)
        assert report.tncsi == tncsi(77, fit)
        assert report.sample_size == len(self.SAMPLE)
        # refs aged 45 and 59 months -> semesters [7, 9] -> lower median 7
        assert report.s_mp == 7
        expected_arq = (tncsi(900, fit) + tncsi(400, fit)) / 2
        assert report.arq == pytest.approx(expected_arq, abs=1e-15)
        assert report.rqm == pytest.approx(rqm_value(expected_arq, 7), abs=1e-15)
        series = CitationSeries(monthly_counts=(0, 0, 0, 0, 2, 3),
                                window_end=date(2024, 10, 1))
        assert report.iei_avg == pytest.approx(iei_average(series), abs=1e-15)
        assert report.iei_instant == 1.0
        assert report.cdr == 30 / 40
        assert report.rad == pytest.approx(rad(8), abs=1e-15)
        assert report.rui == pytest.approx(10 * (30 / 40) + 5 * rad(8), abs=1e-12)

        assert main(base + ["--offline", "stats", "tncsi"]) == 0
        out = capsys.readouterr().out
        assert "tncsi" in out

    def test_a_reference_dated_before_year_1000_is_enriched_scored_and_exported(
            self, tmp_path, capsys):
        # `strftime` wrote this date as `999-05-01`, which every read rejected
        fixtures = self.build_fixtures(tmp_path, r2_published="0999-05-01")
        db = tmp_path / "flow.db"
        base = ["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                "--now", "2024-10-01"]
        assert main(base + ["harvest", self.KEYWORD]) == 0
        assert main(base + ["enrich", "--all"]) == 0
        capsys.readouterr()
        assert main(base + ["score", "--all"]) == 0
        cold = capsys.readouterr().out
        offline = CountingTransport(OfflineTransport())
        assert main(["--db", str(db), "--offline", "--now", "2024-10-01", "score", "--all"],
                    transport=offline) == 0
        assert capsys.readouterr().out == cold
        assert "error" not in cold and offline.count == 0
        with SnapshotStore(db, read_only=True) as store:
            assert store.get_paper("s2:r2").publication_date == date(999, 5, 1)
            # the lower median reference date opens RUI's first window
            assert store.latest_report("arxiv:2402.11111").cdr == 30 / 40
        out = tmp_path / "export.jsonl"
        assert main(["--db", str(db), "export", str(out)]) == 0
        exported = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        assert [(r["canonical_id"], r["publication_date"]) for r in exported] == [
            ("arxiv:2402.11111", "2024-02-01"), ("s2:r1", "2020-05-01"),
            ("s2:r2", "0999-05-01")]

    def test_a_second_harvest_keeps_the_enrichment(self, tmp_path, capsys):
        fixtures = self.build_fixtures(tmp_path)
        db = tmp_path / "flow.db"
        base = ["--db", str(db), "--fixtures", str(fixtures), "--rate", "1000",
                "--now", "2024-10-01"]
        assert main(base + ["harvest", self.KEYWORD]) == 0
        first = capsys.readouterr()
        assert main(base + ["enrich", "arxiv:2402.11111"]) == 0
        capsys.readouterr()
        with SnapshotStore(db, read_only=True) as store:
            enriched = store.get_paper("arxiv:2402.11111").to_canonical_json()
        assert main(base + ["harvest", self.KEYWORD]) == 0
        assert capsys.readouterr() == first
        with SnapshotStore(db, read_only=True) as store:
            assert store.get_paper("arxiv:2402.11111").to_canonical_json() == enriched
        offline = OfflineTransport()
        assert main(["--db", str(db), "--offline", "--now", "2024-10-01", "enrich", "--all"],
                    transport=offline) == 0
        assert main(base + ["score", "arxiv:2402.11111"]) == 0
        assert offline.attempts == 0
        assert "error" not in capsys.readouterr().out
