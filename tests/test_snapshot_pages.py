"""scripts/snapshot_pages.py: bytes per table and index of a snapshot file."""

from __future__ import annotations

import importlib.util
import sqlite3
import subprocess
import sys
from pathlib import Path

from litmetrics.demo import build_demo_snapshot

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "snapshot_pages.py"


def test_the_demo_snapshot_is_accounted_for_page_by_page(tmp_path):
    path = tmp_path / "demo.db"
    build_demo_snapshot(path)
    done = subprocess.run([sys.executable, str(SCRIPT), str(path)], capture_output=True,
                          text=True, timeout=120, check=True)
    header, *rows, total, file_line = done.stdout.splitlines()
    assert header.split() == ["name", "pages", "bytes", "payload", "unused", "overflow"]
    by_name = {row.split()[0]: [int(v) for v in row.split()[1:]] for row in rows}
    assert {"papers", "sqlite_autoindex_papers_1", "idx_papers_reviews", "api_cache",
            "reports", "features", "meta"} <= by_name.keys()
    assert total.split()[1:] == [str(sum(v[i] for v in by_name.values())) for i in range(5)]
    conn = sqlite3.connect(path)
    page_size, free = (conn.execute(f"PRAGMA {p}").fetchone()[0]
                       for p in ("page_size", "freelist_count"))
    conn.close()
    assert int(total.split()[2]) + free * page_size == path.stat().st_size
    assert file_line == f"file {path.stat().st_size} bytes: {free} free pages of {page_size} bytes"


def test_a_sqlite_without_dbstat_exits_2(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("snapshot_pages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "demo.db"
    build_demo_snapshot(path)

    def no_dbstat(path):
        raise sqlite3.OperationalError("no such table: dbstat")

    monkeypatch.setattr(module, "page_stats", no_dbstat)
    assert module.main([str(path)]) == 2
    assert "has no dbstat table" in capsys.readouterr().err
    assert module.main([str(tmp_path / "missing.db")]) == 2


def test_a_file_that_is_no_database_exits_2(tmp_path):
    path = tmp_path / "junk.db"
    path.write_bytes(b"not a database at all" * 300)
    done = subprocess.run([sys.executable, str(SCRIPT), str(path)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2 and done.stderr.startswith("error: cannot read")
