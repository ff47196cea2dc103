"""Command-line front door: harvest, enrich, score, features, stats, trend,
robustness, export, import.

Exit codes: 0 success, 1 operational error (including partial batch
failures), 2 usage error. Normal results go to stdout; progress and
diagnostics go to stderr, so identical snapshots and flags produce
byte-identical stdout. ``--now`` freezes the current date to make
time-dependent indicators reproducible.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import LitmetricsError
from .indicators import DEFAULT_BETA
from .jsonio import canonical_json, parse_date
from .pipeline import ALL_INDICATORS, ScoringEngine, enrich, harvest, score_batch
from .retrieval import (
    S2_SEARCH_CAP,
    ArxivClient,
    FixtureTransport,
    LiveTransport,
    LlmHttpClient,
    OfflineTransport,
    RateLimiter,
    SemanticScholarClient,
    StubLlm,
    Transport,
    fetch_topic_sample,
)
from .snapshot import FEATURE_NAMES, SnapshotStore

CONFIG_KEYS = (
    "db", "rate", "workers", "k", "beta",
    "s2_api_key", "llm_api_key", "llm_base_url", "llm_stub",
)


def read_config_file(path: Path) -> dict[str, str]:
    """Simple key-value config: one `key = value` per line, `#` comments."""
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


class Settings:
    """Effective configuration: flags > environment > config file > defaults."""

    def __init__(self, args: argparse.Namespace):
        file_values: dict[str, str] = {}
        if args.config:
            file_values = read_config_file(Path(args.config))
        unknown = sorted(file_values.keys() - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config key {', '.join(map(repr, unknown))} "
                             f"(known: {', '.join(CONFIG_KEYS)})")

        def pick(flag_value, env_name: Optional[str], file_key: str, default):
            if flag_value is not None:
                return flag_value
            if env_name and os.environ.get(env_name):
                return os.environ[env_name]
            if file_key in file_values:
                return file_values[file_key]
            return default

        self.db = str(pick(args.db, None, "db", "litmetrics.db"))
        self.rate = float(pick(args.rate, None, "rate", 1.0))
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        self.workers = int(pick(args.workers, None, "workers", 4))
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        self.topic_k = int(pick(args.k, None, "k", 1000))
        if self.topic_k < 1:
            raise ValueError(f"k must be at least 1, got {self.topic_k}")
        if self.topic_k > S2_SEARCH_CAP:
            raise ValueError(f"k must be at most {S2_SEARCH_CAP}, the search's result cap, "
                             f"got {self.topic_k}")
        self.beta = float(pick(args.beta, None, "beta", DEFAULT_BETA))
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        self.s2_api_key = pick(None, "S2_API_KEY", "s2_api_key", None)
        self.llm_api_key = pick(None, "LLM_API_KEY", "llm_api_key", None)
        self.llm_base_url = pick(None, "LLM_BASE_URL", "llm_base_url", None)
        self.llm_stub = pick(args.llm_stub, None, "llm_stub", None)
        self.offline = bool(args.offline)
        self.fixtures = args.fixtures
        self.now: Optional[date] = args.now


class Runtime:
    """Shared clients and store for one CLI invocation."""

    def __init__(
        self,
        settings: Settings,
        transport: Optional[Transport] = None,
        llm=None,
        read_only: bool = False,
    ):
        self.settings = settings
        if transport is not None:
            self.transport: Transport = transport
        elif settings.fixtures:
            if not Path(settings.fixtures).is_dir():
                raise LitmetricsError(f"fixtures directory not found: {settings.fixtures}")
            self.transport = FixtureTransport(settings.fixtures)
        elif settings.offline:
            self.transport = OfflineTransport()
        else:
            self.transport = LiveTransport()
        self.store = SnapshotStore(settings.db, read_only=read_only)
        # one limiter per remote host, all at the configured budget
        self.arxiv = ArxivClient(
            transport=self.transport, limiter=RateLimiter(settings.rate)
        )
        self.s2 = SemanticScholarClient(
            transport=self.transport,
            api_key=settings.s2_api_key,
            limiter=RateLimiter(settings.rate),
        )
        if llm is not None:
            self.llm = llm
        elif settings.llm_stub:
            self.llm = StubLlm.from_json_file(settings.llm_stub)
        elif settings.llm_base_url and not settings.offline:
            self.llm = LlmHttpClient(
                settings.llm_base_url,
                api_key=settings.llm_api_key,
                transport=self.transport,
                limiter=RateLimiter(settings.rate),
            )
        else:
            self.llm = None

    def engine(self) -> ScoringEngine:
        return ScoringEngine(
            store=self.store,
            s2=self.s2,
            llm=self.llm,
            now=self.settings.now,
            beta=self.settings.beta,
            topic_k=self.settings.topic_k,
        )

    def close(self) -> None:
        self.store.close()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _parse_date(text: str) -> date:
    try:
        # parse_date decodes the exact YYYY-MM-DD shape without strptime, whose
        # first call imports _strptime, and hands it any other 10-character string
        if len(text) == 10:
            return parse_date(text)
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}") from exc


def _finite_float(accept: Callable[[float], bool], rule: str) -> Callable[[str], float]:
    """argparse type: a finite float that `accept` takes, else a usage error."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"not a finite {rule} number: {text!r}")
        return value

    return parse


def fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def print_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    print(line.rstrip())
    for row in rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)).rstrip())


def select_ids(store: SnapshotStore, ids: list[str], use_all: bool,
               parser: argparse.ArgumentParser) -> list[str]:
    """Explicit ids, or with --all every paper carrying a topic keyword
    (harvested reviews, as opposed to bare reference rows)."""
    if use_all:
        return store.review_ids()
    if not ids:
        parser.error("give paper ids or --all")
    return ids


def doc_path_for(docs_dir: Path, canonical_id: str) -> Path:
    return docs_dir / (canonical_id.replace(":", "_").replace("/", "_") + ".txt")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_harvest(runtime: Runtime, args, parser) -> int:
    if not args.keyword.strip():
        parser.error("keyword must be non-empty")
    ids = harvest(runtime.store, runtime.arxiv, args.keyword, args.limit)
    for cid in ids:
        print(cid)
    print(f"harvested {len(ids)} papers for {args.keyword!r}", file=sys.stderr)
    return 0


def cmd_enrich(runtime: Runtime, args, parser) -> int:
    ids = select_ids(runtime.store, args.ids, args.all, parser)
    failures = 0
    for cid in ids:
        try:
            enrich(runtime.store, runtime.s2, cid)
            print(f"{cid}  enriched")
        except LitmetricsError as exc:
            failures += 1
            print(f"{cid}  error: {type(exc).__name__}: {exc}")
    return 1 if failures else 0


# each indicator's columns in the `score` table: (header, report field)
_SCORE_COLUMNS = {
    "tncsi": (("tncsi", "tncsi"),),
    "iei": (("iei_avg", "iei_avg"), ("iei_inst", "iei_instant")),
    "rqm": (("arq", "arq"), ("s_mp", "s_mp"), ("rqm", "rqm")),
    "rui": (("cdr", "cdr"), ("rad", "rad"), ("rui", "rui")),
}


def cmd_score(runtime: Runtime, args, parser) -> int:
    which = [name for name in ALL_INDICATORS if getattr(args, name)]
    if not which:
        which = list(ALL_INDICATORS)
    ids = select_ids(runtime.store, args.ids, args.all, parser)
    engine = runtime.engine()
    # a batch that can reach no host and no live LLM has no wait for a pool
    # to overlap, so it runs on the calling thread; replayed fixtures answer
    # locally, one request at a time through the limiter
    fetches = not isinstance(runtime.transport, (OfflineTransport, FixtureTransport)) or not (
        runtime.llm is None or isinstance(runtime.llm, StubLlm)
    )
    workers = runtime.settings.workers if fetches else 1
    items = score_batch(engine, ids, which, workers=workers)

    columns = [column for name in which for column in _SCORE_COLUMNS[name]]
    header = ["id", "year", "cites", "topic", *(title for title, _ in columns), "note"]

    rows = []
    failures = 0
    for item in items:
        record = engine.records.get(item.paper_id)
        year = record.publication_date.year if record and record.publication_date else None
        cites = record.citation_count if record else None
        if item.error:
            failures += 1
            topic = (record.topic_keyword if record else None) or "-"
            rows.append([item.paper_id, fmt(year), fmt(cites), topic,
                         *["-"] * len(columns), f"error: {item.error}"])
            continue
        r = item.report
        rows.append([item.paper_id, fmt(year), fmt(cites), r.topic_keyword or "-",
                     *(fmt(getattr(r, field)) for _, field in columns),
                     "; ".join(r.warnings) if r.warnings else ""])
    print_table(header, rows)
    print(f"scored {len(items) - failures}/{len(items)} papers", file=sys.stderr)
    return 1 if failures else 0


def cmd_features(runtime: Runtime, args, parser) -> int:
    from .extraction import extract_features_from_document, load_structured_text

    ids = select_ids(runtime.store, args.ids, args.all, parser)
    if runtime.llm is None:
        print("error: LlmUnavailable: features need --llm-stub or an LLM endpoint",
              file=sys.stderr)
        return 1
    docs_dir = Path(args.docs)
    header = ["id", *FEATURE_NAMES, "note"]
    rows = []
    failures = 0
    for cid in ids:
        path = doc_path_for(docs_dir, cid)
        try:
            runtime.store.require_stored([cid])
            if not path.exists():
                raise LitmetricsError(f"no structured-text document at {path}")
            doc = load_structured_text(path)
            fv = extract_features_from_document(doc, runtime.llm)
            runtime.store.store_features(cid, fv, recorded_at=_frozen_ts(runtime))
            rows.append([cid] + [str(getattr(fv, n)) for n in FEATURE_NAMES] + [""])
        except LitmetricsError as exc:
            failures += 1
            rows.append([cid] + ["-"] * len(FEATURE_NAMES) +
                        [f"error: {type(exc).__name__}: {exc}"])
    print_table(header, rows)
    return 1 if failures else 0


def _frozen_ts(runtime: Runtime) -> Optional[datetime]:
    now = runtime.settings.now
    return datetime(now.year, now.month, now.day) if now else None


RECORD_METRICS = {  # metric -> its value for every paper, in canonical id order
    "cites": lambda store: [count for count, _ in store.citation_facts().values()],
    "refs": lambda store: [n or None for n, _ in store.reference_and_author_counts()],
    "authors": lambda store: [n or None for _, n in store.reference_and_author_counts()],
    "year": lambda store: [published.year if published else None
                           for _, published in store.citation_facts().values()],
}
REPORT_METRICS = {  # metric -> IndicatorReport field
    "tncsi": "tncsi", "iei": "iei_avg", "arq": "arq", "s_mp": "s_mp",
    "rqm": "rqm", "cdr": "cdr", "rad": "rad", "rui": "rui",
}


def cmd_stats(runtime: Runtime, args, parser) -> int:
    from .analysis import descriptive_stats, write_csv

    if args.metric in REPORT_METRICS:
        # every report belongs to a stored paper, so no record is read; the
        # values keep the paper-id order of the record metrics below
        name = REPORT_METRICS[args.metric]
        reports = sorted(runtime.store.latest_reports().items())
        values = [getattr(rep, name) for _, rep in reports]
    else:
        values = RECORD_METRICS[args.metric](runtime.store)
    values = [v for v in values if v is not None]
    if not values:
        print(f"error: EmptyInput: no values for metric {args.metric!r}", file=sys.stderr)
        return 1
    s = descriptive_stats(values)
    header = ["metric", "n", "max", "min", "mean", "median", "mode"]
    row = [args.metric, str(len(values)), fmt(s.max), fmt(s.min), fmt(s.mean),
           fmt(s.median), fmt(s.mode)]
    print_table(header, [row])
    payload = {
        "metric": args.metric, "n": len(values), "max": s.max, "min": s.min,
        "mean": s.mean, "median": s.median, "mode": s.mode,
    }
    if args.json:
        Path(args.json).write_text(canonical_json(payload) + "\n", encoding="utf-8")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_csv(fh, header, [[args.metric, len(values), s.max, s.min, s.mean,
                                    s.median, s.mode]])
    return 0


def cmd_trend(runtime: Runtime, args, parser) -> int:
    from .analysis import trend_rows, write_csv, yearly_feature_trend

    features = runtime.store.all_latest_features()
    facts = runtime.store.citation_facts(cid for cid, _ in features)
    rows_in = []
    for cid, fv in features:
        _, published = facts.get(cid, (None, None))
        if published is not None:
            rows_in.append((published.year, fv))
    if not rows_in:
        print("error: EmptyInput: no stored features with publication years",
              file=sys.stderr)
        return 1
    trend = yearly_feature_trend(rows_in, sigma=args.sigma)
    header, rows = trend_rows(trend, feature=args.feature)
    print_table([str(h) for h in header],
                [[fmt(c) if isinstance(c, float) else str(c) for c in row] for row in rows])
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_csv(fh, header, rows)
    return 0


def cmd_robustness(runtime: Runtime, args, parser) -> int:
    from .analysis import synonym_robustness, write_csv

    data = json.loads(Path(args.groups_file).read_text(encoding="utf-8"))
    raw_groups = data["groups"] if isinstance(data, dict) else data
    groups = [(g["anchor"], list(g["comparisons"])) for g in raw_groups]

    def fetch(keyword: str):
        return fetch_topic_sample(runtime.s2, keyword, runtime.settings.topic_k,
                                  cache=runtime.store)

    try:
        result = synonym_robustness(groups, fetch, epsilon=args.epsilon)
    except LitmetricsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    header = ["anchor", "comparisons", "avg_kl"]
    rows = [
        [g.anchor, ", ".join(g.per_term), fmt(g.group_kl)] for g in result.groups
    ]
    rows.append(["overall", "-", fmt(result.overall)])
    print_table(header, rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_csv(fh, header, [[g.anchor, ", ".join(g.per_term), g.group_kl]
                                   for g in result.groups] + [["overall", "-", result.overall]])
    return 0


def cmd_export(runtime: Runtime, args, parser) -> int:
    with open(args.path, "w", encoding="utf-8") as fh:
        n = runtime.store.export_jsonl(fh, ids=args.ids or None)
    print(f"exported {n} records to {args.path}", file=sys.stderr)
    return 0


def cmd_import(runtime: Runtime, args, parser) -> int:
    with open(args.path, encoding="utf-8") as fh:
        result = runtime.store.import_jsonl(fh)
    print(f"imported {result.imported} records, {result.corrupt} corrupt lines skipped",
          file=sys.stderr)
    return 1 if result.corrupt else 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litmetrics",
        description="Compute review-evaluation indicators over a local paper snapshot.",
    )
    parser.add_argument("--db", help="snapshot database path (default litmetrics.db)")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--offline", action="store_true",
                        help="forbid all network traffic")
    parser.add_argument("--fixtures", help="directory of recorded NDJSON exchanges")
    parser.add_argument("--now", type=_parse_date,
                        help="freeze the current date (YYYY-MM-DD) for reproducible runs")
    parser.add_argument("--llm-stub", help="JSON table of canned LLM responses")
    parser.add_argument("--rate", type=float, help="requests per second (default 1)")
    parser.add_argument("--workers", type=int,
                        help="batch worker threads when fetching "
                             "(default 4; runs that cannot fetch use one)")
    parser.add_argument("--k", type=int, help="topic sample size, 1-1000 (default 1000)")
    parser.add_argument("--beta", type=float, help="RQM shift parameter (default 5)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="query arXiv for reviews and store matches")
    p.add_argument("keyword")
    p.add_argument("--limit", type=int, default=100)

    p = sub.add_parser("enrich", help="attach citation data and references")
    p.add_argument("ids", nargs="*")
    p.add_argument("--all", action="store_true")

    p = sub.add_parser("score", help="compute indicators and store reports")
    p.add_argument("ids", nargs="*")
    p.add_argument("--all", action="store_true")
    for name in ALL_INDICATORS:
        p.add_argument(f"--{name}", action="store_true")

    p = sub.add_parser("features", help="extract binary review features")
    p.add_argument("ids", nargs="*")
    p.add_argument("--all", action="store_true")
    p.add_argument("--docs", required=True, help="directory of structured-text documents")

    p = sub.add_parser("stats", help="descriptive statistics for one metric")
    p.add_argument("metric", choices=sorted([*RECORD_METRICS, *REPORT_METRICS]))
    p.add_argument("--csv")
    p.add_argument("--json")

    p = sub.add_parser("trend", help="yearly feature proportions, optionally smoothed")
    p.add_argument("--feature", choices=FEATURE_NAMES)
    p.add_argument("--sigma", type=_finite_float(lambda v: v >= 0, "non-negative"),
                   default=1.0)
    p.add_argument("--csv")

    p = sub.add_parser("robustness", help="synonym-group KL divergence study")
    p.add_argument("groups_file")
    p.add_argument("--epsilon", type=_finite_float(lambda v: v > 0, "positive"),
                   default=1e-9)
    p.add_argument("--csv")

    p = sub.add_parser("export", help="write papers as canonical JSONL")
    p.add_argument("path")
    p.add_argument("--ids", nargs="*")

    p = sub.add_parser("import", help="read papers from JSONL")
    p.add_argument("path")

    return parser


COMMANDS = {
    "harvest": cmd_harvest,
    "enrich": cmd_enrich,
    "score": cmd_score,
    "features": cmd_features,
    "stats": cmd_stats,
    "trend": cmd_trend,
    "robustness": cmd_robustness,
    "export": cmd_export,
    "import": cmd_import,
}

READ_ONLY_COMMANDS = ("stats", "trend")


def main(
    argv: Optional[Sequence[str]] = None,
    transport: Optional[Transport] = None,
    llm=None,
) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = Settings(args)
    except (ValueError, OSError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    try:
        runtime = Runtime(settings, transport=transport, llm=llm,
                          read_only=args.command in READ_ONLY_COMMANDS)
        try:
            return COMMANDS[args.command](runtime, args, parser)
        except SystemExit as exc:  # parser.error inside a command
            return int(exc.code or 0)
        finally:
            runtime.close()  # writes the payloads the store still holds
    except LitmetricsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect: one line and exit 1, not a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    # The modules, classes and functions that imports created live until the
    # process exits. Freezing them moves them out of the collector's view, so
    # neither a collection during the command nor the one at exit walks them
    # again. Only the console entry point freezes; `main` called in-process
    # (tests, a benchmark's warm-up, traced runs) leaves the collector as it is.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
