"""Independent checks of the CLI's outputs against a corpus's ground truth.

Every expected value is recomputed here from the truth sidecar with formulas
written apart from `litmetrics.indicators`:

  TNCSI  1 - exp(-n*c / sum(sample))
  IEI    the Bezier derivative evaluated by de Casteljau at a/n, a = 0..n;
         the instantaneous slope is the last monthly increment
  RQM    the Gompertz form over the lower-median reference age in semesters
  RAD    the aging cubic's exact antiderivative, to within the composite
         trapezoid's error bound
  CDR    n_pc / n_mp, and RUI = 10*CDR + 5*RAD

`stats` is checked against the `statistics` module, `trend` against direct
per-year counts. Each check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import math
import statistics
from datetime import date
from pathlib import Path

TOPIC_K = 1000  # the CLI's --k default caps the topic sample
BETA = 5.0
RUI_P, RUI_Q = 10.0, 5.0
AGING = (-0.003, 0.001, 0.1267, 0.0129)  # the paper's cubic: x^3, x^2, x, 1 (x in years)
RAD_STEP = 1.0 / 120.0
IEI_MONTHS = 6
PRINTED = 0.5e-4 + 1e-12  # a table cell shows 4 decimals
STORED = 1e-9


def months(earlier: date, later: date) -> int:
    return max(0, (later.year - earlier.year) * 12 + later.month - earlier.month)


def monthly_counts(citing: list, now: date) -> list[int]:
    end = now.year * 12 + now.month - 1  # the current month is excluded
    counts = [0] * IEI_MONTHS
    for raw in citing:
        if raw is None:
            continue
        d = date.fromisoformat(raw[:10])
        k = d.year * 12 + d.month - 1 - (end - IEI_MONTHS)
        if 0 <= k < IEI_MONTHS:
            counts[k] += 1
    return counts


def de_casteljau(values: list[float], t: float) -> float:
    pts = [float(v) for v in values]
    while len(pts) > 1:
        pts = [(1.0 - t) * a + t * b for a, b in zip(pts, pts[1:])]
    return pts[0]


def aging_integral(m_pc: int) -> tuple[float, float]:
    """Exact integral of the aging cubic over [0, m_pc/12] years, and the
    composite trapezoid's error bound at step <= 1/120 year."""
    c3, c2, c1, c0 = AGING
    x = m_pc / 12.0
    exact = c3 / 4 * x**4 + c2 / 3 * x**3 + c1 / 2 * x**2 + c0 * x
    steps = max(1, math.ceil(x / RAD_STEP - 1e-12)) if x else 1
    h = x / steps
    f2 = max(abs(2 * c2), abs(6 * c3 * x + 2 * c2))  # f'' is linear: extremes at the ends
    return exact, x * h * h / 12.0 * f2


def expected_reports(truth: dict) -> dict[str, dict]:
    now = date.fromisoformat(truth["now"])
    refs = truth["references"]
    expected = {}
    for review in truth["reviews"]:
        sample = truth["topics"][review["topic"]][:TOPIC_K]
        n, total = len(sample), sum(sample)

        def success(c: int) -> float:
            return 1.0 - math.exp(-n * c / total)

        pub = date.fromisoformat(review["date"])
        rows = [refs[cid] for cid in review["refs"]]
        cited = [r["cites"] for r in rows if r["cites"] is not None]
        dated = sorted(date.fromisoformat(r["date"]) for r in rows if r["date"])
        arq = math.fsum(success(c) for c in cited) / len(cited)
        semesters = sorted(months(d, pub) // 6 for d in dated)
        s_mp = semesters[(len(semesters) - 1) // 2]
        median_ref = dated[(len(dated) - 1) // 2]
        n_mp = review["relevant"][f"{median_ref.isoformat()}:{pub.isoformat()}"]
        n_pc = review["relevant"][f"{pub.isoformat()}:{now.isoformat()}"]
        cdr = n_pc / n_mp
        rad, rad_tol = aging_integral(months(pub, now))
        counts = monthly_counts(review["citing"], now)
        deltas = [b - a for a, b in zip(counts, counts[1:])]
        degree = len(counts) - 1
        slopes = [de_casteljau(deltas, a / degree) for a in range(degree + 1)]
        expected[review["id"]] = {
            "year": pub.year,
            "cites": review["cites"],
            "topic": review["topic"],
            "sample_size": n,
            "tncsi": success(review["cites"]),
            "iei_avg": sum(slopes) / len(slopes),
            "iei_inst": float(counts[-1] - counts[-2]),
            "arq": arq,
            "s_mp": s_mp,
            "rqm": 1.0 - math.exp(-BETA * math.exp(-(1.0 - arq) * s_mp)),
            "cdr": cdr,
            "rad": rad,
            "rui": RUI_P * cdr + RUI_Q * rad,
            "rad_tol": rad_tol,
        }
    return expected


def parse_table(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Columns of a left-justified CLI table, cut at the header's offsets."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return [], []
    header = lines[0]
    names = header.split()
    starts, pos = [], 0
    for name in names:
        pos = header.index(name, pos)
        starts.append(pos)
        pos += len(name)
    bounds = list(zip(starts, starts[1:] + [None]))
    rows = [{name: line[a:b].strip() for name, (a, b) in zip(names, bounds)}
            for line in lines[1:]]
    return names, rows


def _tolerance(name: str, exp: dict, base: float) -> float:
    if name == "rad":
        return base + exp["rad_tol"]
    if name == "rui":
        return base + RUI_Q * exp["rad_tol"]
    return base


FLOAT_COLUMNS = ("tncsi", "iei_avg", "iei_inst", "arq", "rqm", "cdr", "rad", "rui")


def check_score_table(stdout: str, expected: dict[str, dict]) -> list[str]:
    names, rows = parse_table(stdout)
    problems = []
    if names[:4] != ["id", "year", "cites", "topic"]:
        return [f"score: unexpected header {names}"]
    ids = [row["id"] for row in rows]
    if ids != sorted(expected):
        problems.append(f"score: {len(ids)} rows, expected {len(expected)} in id order")
    for row in rows:
        exp = expected.get(row["id"])
        if exp is None:
            continue
        if row.get("note", "").startswith("error:"):
            problems.append(f"score: {row['id']} {row['note']}")
            continue
        if row["year"] != str(exp["year"]) or row["cites"] != str(exp["cites"]):
            problems.append(f"score: {row['id']} year/cites {row['year']}/{row['cites']}")
        if row["topic"] != exp["topic"] or row["s_mp"] != str(exp["s_mp"]):
            problems.append(f"score: {row['id']} topic/s_mp {row['topic']}/{row['s_mp']}")
        for name in FLOAT_COLUMNS:
            if abs(float(row[name]) - exp[name]) > _tolerance(name, exp, PRINTED):
                problems.append(f"score: {row['id']} {name} {row[name]} != {exp[name]:.6f}")
    return problems


def report_counts(db: Path, ids) -> dict[str, int]:
    """How many reports the snapshot holds for each of ids."""
    from litmetrics.snapshot import SnapshotStore

    with SnapshotStore(db, read_only=True) as store:
        return {cid: len(store.report_history(cid)) for cid in ids}


def check_stored_reports(db: Path, expected: dict[str, dict],
                         before: dict[str, int]) -> list[str]:
    """The score just run stored exactly one report per review, on top of
    the `before` counts the round started from; that new report is the
    latest one, and it is right at full precision."""
    from litmetrics.snapshot import SnapshotStore

    problems = []
    with SnapshotStore(db, read_only=True) as store:
        for cid, exp in expected.items():
            history = store.report_history(cid)
            if len(history) != before[cid] + 1:
                problems.append(f"report: {cid} has {len(history)} stored reports, "
                                f"expected {before[cid]} + 1")
                continue
            report = history[-1]
            if store.latest_report(cid) != report:
                problems.append(f"report: {cid} newest report is not the latest one")
            got = {"tncsi": report.tncsi, "iei_avg": report.iei_avg,
                   "iei_inst": report.iei_instant, "arq": report.arq, "rqm": report.rqm,
                   "cdr": report.cdr, "rad": report.rad, "rui": report.rui}
            for name, value in got.items():
                if value is None or abs(value - exp[name]) > _tolerance(name, exp, STORED):
                    problems.append(f"report: {cid} {name} {value!r} != {exp[name]!r}")
            if report.s_mp != exp["s_mp"] or report.sample_size != exp["sample_size"]:
                problems.append(f"report: {cid} s_mp/sample_size "
                                f"{report.s_mp}/{report.sample_size}")
    return problems


def check_stats(stdout: str, expected: dict[str, dict]) -> list[str]:
    names, rows = parse_table(stdout)
    if names != ["metric", "n", "max", "min", "mean", "median", "mode"] or len(rows) != 1:
        return [f"stats: unexpected table {names} with {len(rows)} rows"]
    row = rows[0]
    values = [exp["tncsi"] for exp in expected.values()]
    want = {"max": max(values), "min": min(values), "mean": statistics.fmean(values),
            "median": statistics.median(values), "mode": min(statistics.multimode(values))}
    problems = []
    if row["metric"] != "tncsi" or row["n"] != str(len(values)):
        problems.append(f"stats: metric/n {row['metric']}/{row['n']}")
    for name, value in want.items():
        if abs(float(row[name]) - value) > PRINTED:
            problems.append(f"stats: {name} {row[name]} != {value:.6f}")
    return problems


def check_trend(stdout: str, truth: dict, feature: str = "discussion",
                sigma: float = 1.0) -> list[str]:
    by_year: dict[int, list[int]] = {}
    for review in truth["reviews"]:
        by_year.setdefault(int(review["date"][:4]), []).append(review["features"][feature])
    years = sorted(by_year)
    raw = [sum(by_year[y]) / len(by_year[y]) for y in years]
    smoothed = []
    for y in years:
        near = [(math.exp(-0.5 * ((x - y) / sigma) ** 2), r)
                for x, r in zip(years, raw) if abs(x - y) <= 3 * sigma]
        smoothed.append(sum(w * r for w, r in near) / sum(w for w, _ in near))
    names, rows = parse_table(stdout)
    if names != ["year", f"{feature}_raw", f"{feature}_smoothed"]:
        return [f"trend: unexpected header {names}"]
    if [row["year"] for row in rows] != [str(y) for y in years]:
        return [f"trend: years {[row['year'] for row in rows]} != {years}"]
    problems = []
    for row, r, s in zip(rows, raw, smoothed):
        if abs(float(row[f"{feature}_raw"]) - r) > PRINTED:
            problems.append(f"trend: {row['year']} raw {row[f'{feature}_raw']} != {r:.6f}")
        if abs(float(row[f"{feature}_smoothed"]) - s) > PRINTED:
            problems.append(f"trend: {row['year']} smoothed "
                            f"{row[f'{feature}_smoothed']} != {s:.6f}")
    return problems


def check_enrich(stdout: str, db: Path, truth: dict) -> list[str]:
    reviews = {r["id"]: r for r in truth["reviews"]}
    lines = [line.split() for line in stdout.splitlines() if line.strip()]
    problems = []
    if [parts[0] for parts in lines] != sorted(reviews):
        problems.append(f"enrich: {len(lines)} lines, expected {len(reviews)} in id order")
    problems += [f"enrich: {' '.join(p)}" for p in lines if p[1:2] != ["enriched"]]
    from litmetrics.snapshot import SnapshotStore

    distinct = {cid for r in truth["reviews"] for cid in r["refs"]}
    with SnapshotStore(db, read_only=True) as store:
        if store.paper_count() != len(reviews) + len(distinct):
            problems.append(f"enrich: {store.paper_count()} papers, expected "
                            f"{len(reviews)} reviews + {len(distinct)} references")
        for cid, review in reviews.items():
            record = store.get_paper(cid)
            if record is None or record.reference_ids != review["refs"]:
                problems.append(f"enrich: {cid} reference list differs")
            elif record.citation_count != review["cites"]:
                problems.append(f"enrich: {cid} citation count {record.citation_count}")
    return problems


def error_rows(stdout: str) -> int:
    """Paper rows the CLI reported as failed."""
    return sum(1 for line in stdout.splitlines() if "error:" in line)


def paper_rows(stdout: str, header: bool) -> int:
    lines = [line for line in stdout.splitlines() if line.strip()]
    return max(0, len(lines) - (1 if header else 0))
