"""Command surface: exit codes, determinism, offline guarantees, round trips."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import textwrap
from datetime import date, datetime
from pathlib import Path

import pytest

from conftest import (
    arxiv_exchange,
    s2_citations_exchange,
    s2_paper_exchange,
    s2_references_exchange,
    s2_search_exchange,
    write_fixture_dir,
)
import litmetrics
from litmetrics.analysis import descriptive_stats
from litmetrics.cli import Settings, build_parser, main, read_config_file
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
        src = str(Path(litmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = textwrap.dedent(f"""
            import sys
            from litmetrics.cli import main

            def numpy_modules(step, code=0):
                return [step, code, [m for m in sys.modules if m.split(".")[0] == "numpy"]]

            flags = ["--db", {str(db)!r}, "--offline", "--now", "2024-10-01"]
            seen = [numpy_modules("import")]
            seen.append(numpy_modules("score", main([*flags, "score", "--all"])))
            seen.append(numpy_modules("stats", main([*flags, "stats", "tncsi"])))
            print(seen, file=sys.stderr)
        """)
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stderr.splitlines()[-1] == str([["import", 0, []], ["score", 0, []],
                                                     ["stats", 0, []]])

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

    def test_bad_now_value(self, demo_db):
        assert main(["--db", str(demo_db), "--now", "not-a-date", "score", "--all"]) == 2


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
        jpath = tmp_path / "stats.json"
        cpath = tmp_path / "stats.csv"
        assert main(["--db", str(demo_db), "--offline", "stats", "tncsi",
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
        assert main([*flags, "stats", "cites"]) == 0
        assert decoded  # a record metric still reads the records

    def test_stats_empty_metric(self, tmp_path, capsys):
        db = tmp_path / "empty.db"
        with SnapshotStore(db):
            pass
        assert main(["--db", str(db), "--offline", "stats", "cites"]) == 1
        assert "EmptyInput" in capsys.readouterr().err

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
                                            ("k", "0"), ("workers", "0"), ("workers", "-3")])
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

    def build_fixtures(self, tmp_path) -> Path:
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
             "publicationDate": "2019-03-01", "citationCount": 400},
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
                extra={"publicationDateOrYear": "2019-03-01:2024-02-01"}),
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
