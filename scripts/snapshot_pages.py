#!/usr/bin/env python3
"""Print where a snapshot file's bytes go, per table and index.

For each b-tree it prints, from SQLite's `dbstat` table, the pages it holds,
their bytes, the payload they store, the bytes left unused in them, and how
many of the pages are overflow pages (a row too large for its leaf page
spills onto them). A total line follows, then the file's size and its free
pages. For example:

  python3 scripts/snapshot_pages.py litmetrics.db

The file is opened read-only. Exits 2 when the file cannot be read, or when
this Python's SQLite was built without `dbstat` (SQLITE_ENABLE_DBSTAT_VTAB).
"""

from __future__ import annotations

import argparse
import sqlite3
import sys
from pathlib import Path

COLUMNS = ("name", "pages", "bytes", "payload", "unused", "overflow")
QUERY = ("SELECT name, COUNT(*), SUM(pgsize), SUM(payload), SUM(unused), "
         "SUM(pagetype = 'overflow') FROM dbstat GROUP BY name ORDER BY SUM(pgsize) DESC, name")


def page_stats(path: Path) -> tuple[list[tuple], int, int]:
    """The `COLUMNS` of each b-tree, largest first, the page size and the
    number of free pages."""
    conn = sqlite3.connect(f"{path.resolve().as_uri()}?mode=ro", uri=True)
    try:
        rows = conn.execute(QUERY).fetchall()
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        free = conn.execute("PRAGMA freelist_count").fetchone()[0]
    finally:
        conn.close()
    return rows, page_size, free


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("file", type=Path, help="snapshot file")
    args = parser.parse_args(argv)
    if not args.file.is_file():
        print(f"error: {args.file} is not a file", file=sys.stderr)
        return 2
    try:
        rows, page_size, free = page_stats(args.file)
    except sqlite3.Error as exc:
        if "dbstat" in str(exc):
            print(f"error: this Python's SQLite {sqlite3.sqlite_version} has no dbstat "
                  f"table ({exc})", file=sys.stderr)
        else:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    totals = ("total", *(sum(row[i] for row in rows) for i in range(1, len(COLUMNS))))
    width = max(len(str(row[0])) for row in [*rows, totals, COLUMNS])
    for row in (COLUMNS, *rows, totals):
        print(str(row[0]).ljust(width) + "".join(f"{value:>10}" for value in row[1:]))
    print(f"file {args.file.stat().st_size} bytes: {free} free pages of {page_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
