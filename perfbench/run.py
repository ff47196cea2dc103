#!/usr/bin/env python3
"""Layered benchmark of the litmetrics CLI.

Run from the repository root:

  python3 perfbench/run.py --workload scaled-rescore --seed 3 --seconds 35 --trace 0
  python3 perfbench/run.py --smoke

One client runs one CLI invocation at a time (a closed loop). A round runs a
workload's invocations in order on a fresh copy of its snapshot. Rounds
repeat, at least twice, while the next one is expected to end less than half
a round past --seconds. Every
output is checked against the corpus's ground truth (see oracle.py).

With --trace 0 each invocation is a fresh `python3 -m litmetrics` process
and the end-to-end metrics are printed. With --trace 1 the same invocations
run in-process through `litmetrics.cli.main`, alternating untraced and traced
rounds, and the per-layer metrics are printed (see tracing.py). The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

--smoke runs every workload at the smallest corpus size, untraced and
traced, with all checks on, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("scaled-ingest", "scaled-rescore")
NOW = "2024-10-01"
FIXTURE_RATE = "1000000"  # replayed fixtures need no pacing; the limiter still runs
SETUP_REPEATS = 3  # set-ups before the first round; each round adds one more
MIN_ROUNDS = 2
INVOCATION_TIMEOUT_S = 150
SCORE = ["--now", NOW, "score", "--all"]
STATS = ["stats", "tncsi"]
TREND = ["trend", "--feature", "discussion", "--sigma", "1.0"]

END_TO_END = {"setup_s": "s", "score_s": "s", "peak_rss_mb": "MB", "snapshot_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.select_ids_s": "s", "cli.command_s": "s",
    "pipeline.batch_s": "s", "pipeline.score_calls": "count", "pipeline.score_s": "s",
    "pipeline.score_self_s": "s", "pipeline.enrich_calls": "count", "pipeline.enrich_s": "s",
    "pipeline.enrich_self_s": "s",
    "retrieval.transport_calls": "count", "retrieval.transport_s": "s",
    "retrieval.retries": "count", "retrieval.limiter_acquires": "count",
    "retrieval.limiter_wait_s": "s", "retrieval.cache_hits": "count",
    "retrieval.cache_misses": "count", "retrieval.cache_lookups": "count",
    "retrieval.cache_hit_ratio": "ratio",
    "retrieval.fetch_topic_sample_s": "s", "retrieval.fetch_monthly_citations_s": "s",
    "retrieval.count_relevant_s": "s", "retrieval.fetch_references_s": "s",
    "retrieval.fetch_paper_record_s": "s",
    "retrieval.record_decode_calls": "count", "retrieval.record_decode_s": "s",
    "jsonio.parse_date_calls": "count", "jsonio.parse_timestamp_calls": "count",
    "jsonio.parse_s": "s",
    "snapshot.get_paper_calls": "count", "snapshot.get_paper_s": "s",
    "snapshot.upsert_calls": "count", "snapshot.upsert_s": "s",
    "snapshot.store_report_calls": "count", "snapshot.store_report_s": "s",
    "snapshot.latest_report_calls": "count", "snapshot.latest_report_s": "s",
    "snapshot.cache_get_calls": "count", "snapshot.cache_get_s": "s",
    "snapshot.cache_put_calls": "count", "snapshot.cache_put_s": "s",
    "indicators.fit_calls": "count", "indicators.fit_s": "s",
    "indicators.tncsi_calls": "count", "indicators.math_s": "s",
    "analysis.descriptive_stats_s": "s", "analysis.trend_s": "s",
    "trace.spans": "count", "trace.overhead_pct": "%",
}


@dataclass
class Prepared:
    snapshot: Path
    fixtures: Path | None
    truth: dict
    expected: dict = field(default_factory=dict)
    reports_before: dict = field(default_factory=dict)  # stored reports per review


@dataclass
class Invocation:
    wall: float
    rc: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    score_stdout: str | None = None

    def account(self, label: str, inv: Invocation, problems: list[str]) -> None:
        if inv.rc != 0:
            problems = [f"{label}: exit {inv.rc}: {inv.stderr.strip()[-300:]}", *problems]
        if label == "score":
            if self.score_stdout is None:
                self.score_stdout = inv.stdout
            elif inv.stdout != self.score_stdout:
                problems.append("score: stdout differs from the first round's")
        self.attempted += 1
        self.failed += bool(problems)
        if label in ("enrich", "score"):
            self.attempted += oracle.paper_rows(inv.stdout, header=label == "score")
            self.failed += oracle.error_rows(inv.stdout)
        self.problems += problems


def child_env(run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("S2_API_KEY", "LLM_API_KEY", "LLM_BASE_URL")}
    env.update(PYTHONPATH=str(SRC), SQLITE_TMPDIR=str(run_dir), TMPDIR=str(run_dir))
    return env


def subprocess_runner(run_dir: Path):
    env = child_env(run_dir)

    def run(argv: list[str]) -> Invocation:
        cmd = [sys.executable, "-m", "litmetrics", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        return Invocation(time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)

    return run


def in_process(argv: list[str]) -> Invocation:
    from litmetrics import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return Invocation(time.perf_counter() - start, rc, out.getvalue(), err.getvalue())


def fixture_flags(fixtures: Path) -> list[str]:
    return ["--fixtures", str(fixtures), "--rate", FIXTURE_RATE]


def steps(workload: str, prepared: Prepared) -> list[tuple[str, list[str]]]:
    """The workload's CLI invocations, in order, with the README's flags."""
    if workload == "scaled-ingest":
        fx = fixture_flags(prepared.fixtures)
        return [("enrich", [*fx, "enrich", "--all"]), ("score", [*fx, *SCORE])]
    return [("score", ["--offline", *SCORE]), ("stats", ["--offline", *STATS]),
            ("trend", ["--offline", *TREND])]


def prepare(out: Path, seed: int, size: str) -> Prepared:
    """Write the corpus under out: pre-enrich snapshot, fixtures, ground truth."""
    import corpus

    out.mkdir(parents=True)
    truth = corpus.write_corpus(seed, out, corpus.SIZES[size])
    return Prepared(out / "pre.db", out / "fixtures", truth)


def warm(prepared: Prepared) -> Prepared:
    """The re-score workload's snapshot: the program's own enrich and first
    score over the fixtures, as the ingest workload runs them."""
    warm_db = prepared.snapshot.with_name("warm.db")
    shutil.copyfile(prepared.snapshot, warm_db)
    fx = fixture_flags(prepared.fixtures)
    for args in ([*fx, "enrich", "--all"], [*fx, *SCORE]):
        inv = in_process(["--db", str(warm_db), *args])
        if inv.rc != 0:
            raise RuntimeError(f"warm-up {args[-2:]} exited {inv.rc}: {inv.stderr[-300:]}")
    return Prepared(warm_db, None, prepared.truth)


def expect(prepared: Prepared) -> None:
    """Fill in what every round's checks compare against."""
    prepared.expected = oracle.expected_reports(prepared.truth)
    prepared.reports_before = oracle.report_counts(prepared.snapshot, prepared.expected)


def check(label: str, inv: Invocation, db: Path, prepared: Prepared) -> list[str]:
    try:
        if label == "enrich":
            return oracle.check_enrich(inv.stdout, db, prepared.truth)
        if label == "score":
            return (oracle.check_score_table(inv.stdout, prepared.expected)
                    + oracle.check_stored_reports(db, prepared.expected,
                                                  prepared.reports_before))
        if label == "stats":
            return oracle.check_stats(inv.stdout, prepared.expected)
        return oracle.check_trend(inv.stdout, prepared.truth)
    except Exception as exc:  # output too malformed to check is a failed check
        return [f"{label}: check raised {type(exc).__name__}: {exc}"]


def run_round(workload: str, prepared: Prepared, runner, db: Path, tally: Tally) -> dict:
    """One round on a fresh copy of the snapshot; returns wall seconds per step."""
    for stale in db.parent.glob(db.name + "*"):
        stale.unlink()
    shutil.copyfile(prepared.snapshot, db)
    walls = {}
    for label, args in steps(workload, prepared):
        inv = runner(["--db", str(db), *args])
        walls[label] = inv.wall
        tally.account(label, inv, check(label, inv, db, prepared))
    print("# round " + " ".join(f"{k}={v:.4f}" for k, v in walls.items()), file=sys.stderr)
    return walls


def rounds_for(seconds: float, run_one) -> list:
    """Whole rounds, at least MIN_ROUNDS, while the next one is expected to end
    less than half a round past `seconds`."""
    start = time.perf_counter()
    results, longest = [], 0.0
    while True:
        began = time.perf_counter()
        results.append(run_one())
        longest = max(longest, time.perf_counter() - began)
        if (len(results) >= MIN_ROUNDS
                and time.perf_counter() - start + longest / 2 > seconds):
            return results


def snapshot_bytes(db: Path) -> int:
    return sum(p.stat().st_size for p in db.parent.glob(db.name + "*"))


def warm_up(run_dir: Path) -> None:
    """Compile and cache the program's bytecode before anything is timed."""
    subprocess.run([sys.executable, "-c", "import litmetrics.cli"], cwd=ROOT,
                   env=child_env(run_dir), check=True, timeout=INVOCATION_TIMEOUT_S)


def import_seconds(run_dir: Path, repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import litmetrics.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(run_dir),
                              capture_output=True, text=True, check=True,
                              timeout=INVOCATION_TIMEOUT_S)
        times.append(float(proc.stdout))
    return statistics.median(times)


def load_harness() -> None:
    """Import the generator and the program in this process before anything is timed."""
    import corpus  # noqa: F401
    from litmetrics import cli  # noqa: F401


def measure(workload: str, seed: int, seconds: float, size: str, run_dir: Path):
    """Untraced run: end-to-end metrics from fresh CLI processes."""
    load_harness()
    warm_up(run_dir)
    setup_times: list[float] = []

    def set_up(out: Path) -> Prepared:
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        prepared = prepare(out, seed, size)
        setup_times.append(time.perf_counter() - start)
        return prepared

    # Set-ups are spread over the whole run, so that their median averages
    # the host's drift over the same span as the invocations' medians.
    for _ in range(SETUP_REPEATS - 1):
        set_up(run_dir / "resetup")
    prepared = set_up(run_dir / "setup")
    if workload == "scaled-rescore":
        prepared = warm(prepared)
    expect(prepared)
    tally, db = Tally(), run_dir / "round.db"
    runner = subprocess_runner(run_dir)

    def one_round() -> dict:
        set_up(run_dir / "resetup")
        return run_round(workload, prepared, runner, db, tally)

    rounds = rounds_for(seconds, one_round)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "score_s": statistics.median(r["score"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "snapshot_mb": snapshot_bytes(db) / 2**20,
    }
    print(f"# {workload}: {len(rounds)} rounds, {len(setup_times)} setups", file=sys.stderr)
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def trace(workload: str, seed: int, seconds: float, size: str, run_dir: Path):
    """Traced run: per-layer metrics from in-process invocations."""
    load_harness()
    warm_up(run_dir)
    prepared = prepare(run_dir / "setup", seed, size)
    if workload == "scaled-rescore":
        prepared = warm(prepared)
    expect(prepared)
    import_s = import_seconds(run_dir)
    tally, db = Tally(), run_dir / "round.db"
    tracers: list[Tracer] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []

    def traced_runner(tracer: Tracer):
        def run(argv: list[str]) -> Invocation:
            tracer.install()
            try:
                return in_process(argv)
            finally:
                tracer.uninstall()
        return run

    def pair() -> None:
        untraced_walls.append(sum(run_round(workload, prepared, in_process, db, tally).values()))
        tracer = Tracer()
        walls = run_round(workload, prepared, traced_runner(tracer), db, tally)
        traced_walls.append(sum(walls.values()))
        tracers.append(tracer)

    rounds_for(seconds, pair)
    metrics = fold_rounds([t.layer_metrics() for t in tracers], tally)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)
    spans = WORK / f"trace-{workload}-seed{seed}.jsonl"
    tracers[0].write(spans)
    print(f"# {workload}: {len(tracers)} traced rounds, spans in {spans}", file=sys.stderr)
    return tally, {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}


def fold_rounds(per_round: list[dict], tally: Tally) -> dict:
    """One figure per layer metric: a count must repeat exactly in every
    traced round, or the run fails; a time is the median over the rounds."""
    metrics = {}
    for name, value in per_round[0].items():
        values = [r[name] for r in per_round]
        if PER_LAYER[name] != "count":
            metrics[name] = statistics.median(values)
            continue
        if any(v != value for v in values):
            tally.problems.append(f"trace: {name} differs between traced rounds: {values}")
        metrics[name] = value
    return metrics


def environment() -> str:
    import sqlite3

    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, sqlite {sqlite3.sqlite_version}, "
            f"nproc {len(os.sched_getaffinity(0))}")


def run(workload: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.environ["SQLITE_TMPDIR"] = str(run_dir)
    try:
        tally, metrics = (trace if traced else measure)(workload, seed, seconds, size, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"# FAIL {workload}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, smallest corpus, untraced and traced, once")
    args = parser.parse_args()
    if not (SRC / "litmetrics" / "cli.py").is_file():
        print(f"error: no litmetrics sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    sys.path.insert(0, str(SRC))
    print(f"# {environment()}")
    if args.smoke:
        results = [run(w, args.seed, 0.0, traced, "smoke")
                   for w in WORKLOADS for traced in (False, True)]
        for result in results:
            print(json.dumps(result))
        return 0 if all(r["correct"] and not r["failed"] for r in results) else 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
