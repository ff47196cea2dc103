"""Command-line front door: harvest, enrich, score, features, stats, trend,
robustness, export, import.

Exit codes: 0 success, 1 operational error (including partial batch
failures), 2 usage error. Normal results go to stdout; progress and
diagnostics go to stderr, so identical snapshots and flags produce
byte-identical stdout. ``--now`` freezes today's UTC date to make
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
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import LitmetricsError
from .indicators import ALL_INDICATORS, DEFAULT_BETA, INDICATOR_FIELDS
from .jsonio import canonical_json, parse_date
from .records import DEFAULT_TOPIC_SAMPLE_K, DEFAULT_WORKERS, S2_SEARCH_CAP
from .snapshot import FEATURE_NAMES, STATS_METRICS, SnapshotStore

# the commands that fetch import the pipeline and the clients when they run
if TYPE_CHECKING:
    from .pipeline import ScoringEngine
    from .retrieval import ArxivClient, LlmBackend, SemanticScholarClient, Transport

CONFIG_KEYS = (
    "db", "rate", "workers", "k", "beta",
    "s2_api_key", "llm_api_key", "llm_base_url", "llm_stub",
)
DEFAULT_RATE = 1.0  # requests per second per host


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
        self.rate = float(pick(args.rate, None, "rate", DEFAULT_RATE))
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        self.workers = int(pick(args.workers, None, "workers", DEFAULT_WORKERS))
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        self.topic_k = int(pick(args.k, None, "k", DEFAULT_TOPIC_SAMPLE_K))
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
    """The store of one CLI invocation, and its transport and clients, each
    built on first use: a command that does not fetch imports none of them,
    and one that stops at a usage check opens, and so creates, no snapshot."""

    def __init__(
        self,
        settings: Settings,
        transport: Optional[Transport] = None,
        llm: Optional[LlmBackend] = None,
        read_only: bool = False,
    ):
        self.settings = settings
        if transport is not None:
            self.transport = transport
        if llm is not None:
            self.llm = llm
        # one limiter per remote host, all at the configured budget; an
        # offline run makes no request, so its limiters pace nothing
        self.rate = math.inf if settings.offline else settings.rate
        self.read_only = read_only

    @cached_property
    def store(self) -> SnapshotStore:
        return SnapshotStore(self.settings.db, read_only=self.read_only)

    @cached_property
    def transport(self) -> Transport:
        from .retrieval import LiveTransport, OfflineTransport

        return OfflineTransport() if self.settings.offline else LiveTransport()

    @cached_property
    def arxiv(self) -> ArxivClient:
        from .retrieval import ArxivClient, RateLimiter

        return ArxivClient(transport=self.transport, limiter=RateLimiter(self.rate))

    @cached_property
    def s2(self) -> SemanticScholarClient:
        from .retrieval import RateLimiter, SemanticScholarClient

        return SemanticScholarClient(transport=self.transport, api_key=self.settings.s2_api_key,
                                     limiter=RateLimiter(self.rate))

    @cached_property
    def llm(self) -> Optional[LlmBackend]:
        s = self.settings
        if not s.llm_base_url or s.offline:
            return None
        from .retrieval import LlmHttpClient, RateLimiter

        return LlmHttpClient(s.llm_base_url, api_key=s.llm_api_key, transport=self.transport,
                             limiter=RateLimiter(s.rate))

    def engine(self) -> ScoringEngine:
        from .pipeline import ScoringEngine

        return ScoringEngine(
            store=self.store,
            s2=self.s2,
            llm=self.llm,
            now=self.settings.now,
            beta=self.settings.beta,
            topic_k=self.settings.topic_k,
        )

    def close(self) -> None:
        if "store" in vars(self):  # opened
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


def _positive_int(text: str) -> int:
    """argparse type: an integer of 1 or more, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


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


def check_selection(args, parser: argparse.ArgumentParser) -> None:
    """A usage error unless the command names paper ids or --all, not both."""
    if args.all and args.ids:
        parser.error("give paper ids or --all, not both")
    if not (args.all or args.ids):
        parser.error("give paper ids or --all")


def select_ids(runtime: Runtime, args, parser: argparse.ArgumentParser) -> list[str]:
    """Explicit ids, each once in first-seen order, or with --all every paper
    carrying a topic keyword (harvested reviews, as opposed to bare reference
    rows), after `check_selection`. The store opens here, so a snapshot that
    does not open fails the command, not each paper."""
    check_selection(args, parser)
    store = runtime.store
    return store.review_ids() if args.all else list(dict.fromkeys(args.ids))


def doc_path_for(docs_dir: Path, canonical_id: str) -> Path:
    return docs_dir / (canonical_id.replace(":", "_").replace("/", "_") + ".txt")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_harvest(runtime: Runtime, args, parser) -> int:
    from .pipeline import harvest

    if not args.keyword.strip():
        parser.error("keyword must be non-empty")
    ids = harvest(runtime.store, runtime.arxiv, args.keyword, args.limit)
    for cid in ids:
        print(cid)
    print(f"harvested {len(ids)} papers for {args.keyword!r}", file=sys.stderr)
    return 0


def cmd_enrich(runtime: Runtime, args, parser) -> int:
    from .pipeline import enrich

    ids = select_ids(runtime, args, parser)
    failures = 0
    for cid in ids:
        try:
            enrich(runtime.store, runtime.s2, cid)
            print(f"{cid}  enriched")
        except LitmetricsError as exc:
            failures += 1
            print(f"{cid}  error: {type(exc).__name__}: {exc}")
    return 1 if failures else 0


# a `score` column is headed by the name of its report field, but for this one
_SCORE_HEADERS = {"iei_instant": "iei_inst"}


def cmd_score(runtime: Runtime, args, parser) -> int:
    from .pipeline import score_batch
    from .retrieval import FixtureTransport, OfflineTransport, StubLlm

    which = [name for name in ALL_INDICATORS if getattr(args, name)]
    if not which:
        which = list(ALL_INDICATORS)
    ids = select_ids(runtime, args, parser)
    engine = runtime.engine()
    # a batch that can reach no host and no live LLM has no wait for a pool
    # to overlap, so it runs on the calling thread; replayed fixtures answer
    # locally, one request at a time through the limiter
    fetches = not isinstance(runtime.transport, (OfflineTransport, FixtureTransport)) or not (
        runtime.llm is None or isinstance(runtime.llm, StubLlm)
    )
    workers = runtime.settings.workers if fetches else 1
    items = score_batch(engine, ids, which, workers=workers)

    columns = [field for name in which for field in INDICATOR_FIELDS[name]]
    header = ["id", "year", "cites", "topic", *(_SCORE_HEADERS.get(f, f) for f in columns),
              "note"]

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
                     *(fmt(getattr(r, field)) for field in columns),
                     "; ".join(r.warnings) if r.warnings else ""])
    print_table(header, rows)
    print(f"scored {len(items) - failures}/{len(items)} papers", file=sys.stderr)
    return 1 if failures else 0


def cmd_features(runtime: Runtime, args, parser) -> int:
    from .extraction import extract_features_from_document, load_structured_text

    check_selection(args, parser)
    if runtime.llm is None:
        print("error: LlmUnavailable: features need --llm-stub or an LLM endpoint",
              file=sys.stderr)
        return 1
    ids = select_ids(runtime, args, parser)
    docs_dir = Path(args.docs)
    header = ["id", *FEATURE_NAMES, "note"]
    rows = []
    failures = 0
    for cid in ids:
        path = doc_path_for(docs_dir, cid)
        try:
            runtime.store.require_stored([cid])
            if not path.exists():
                raise FileNotFoundError(f"no structured-text document at {path}")
            doc = load_structured_text(path)
            fv = extract_features_from_document(doc, runtime.llm)
            runtime.store.store_features(cid, fv, recorded_at=_frozen_ts(runtime))
            rows.append([cid] + [str(getattr(fv, n)) for n in FEATURE_NAMES] + [""])
        except (LitmetricsError, OSError) as exc:  # OSError: a document that cannot be read
            failures += 1
            rows.append([cid] + ["-"] * len(FEATURE_NAMES) +
                        [f"error: {type(exc).__name__}: {exc}"])
    print_table(header, rows)
    return 1 if failures else 0


def _frozen_ts(runtime: Runtime) -> Optional[datetime]:
    now = runtime.settings.now
    return datetime(now.year, now.month, now.day) if now else None


def cmd_stats(runtime: Runtime, args, parser) -> int:
    from .analysis import descriptive_stats, write_csv

    values = [v for v in runtime.store.review_values(args.metric) if v is not None]
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

    rows_in = [(year, fv) for _, year, fv in runtime.store.all_latest_features()
               if year is not None]
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


def read_groups_file(path: Path) -> list[tuple[str, list[str]]]:
    """Synonym groups, ``[{"anchor": term, "comparisons": [term, ...]}, ...]``,
    given as that list or as the ``groups`` of an object; ValueError if the
    file is not JSON of that shape."""
    data = json.loads(path.read_text(encoding="utf-8"))
    groups = data.get("groups") if isinstance(data, dict) else data
    if not (isinstance(groups, list) and all(
            isinstance(g, dict) and isinstance(g.get("anchor"), str)
            and isinstance(g.get("comparisons"), list)
            and all(isinstance(term, str) for term in g["comparisons"]) for g in groups)):
        raise ValueError('not [{"anchor": term, "comparisons": [term, ...]}, ...] '
                         'or {"groups": [...]}')
    return [(g["anchor"], g["comparisons"]) for g in groups]


def cmd_robustness(runtime: Runtime, args, parser) -> int:
    from .analysis import synonym_robustness, write_csv
    from .retrieval import fetch_topic_sample

    try:
        groups = read_groups_file(Path(args.groups_file))
    except ValueError as exc:  # a file that cannot be read raises OSError, for `main`
        parser.error(f"bad groups file: {exc}")

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
    # before the file is opened, so a snapshot that does not open, or an
    # unknown id, leaves it as it is
    store = runtime.store
    if args.ids is not None:
        store.require_stored(args.ids)
    with open(args.path, "w", encoding="utf-8") as fh:
        n = store.export_jsonl(fh, ids=args.ids)
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
                        help="freeze today's UTC date (YYYY-MM-DD) for reproducible runs")
    parser.add_argument("--llm-stub", help="JSON table of canned LLM responses")
    parser.add_argument("--rate", type=float,
                        help=f"requests per second (default {DEFAULT_RATE:g})")
    parser.add_argument("--workers", type=int,
                        help=f"batch worker threads when fetching "
                             f"(default {DEFAULT_WORKERS}; runs that cannot fetch use one)")
    parser.add_argument("--k", type=int, help=f"topic sample size, 1-{S2_SEARCH_CAP} "
                                              f"(default {DEFAULT_TOPIC_SAMPLE_K})")
    parser.add_argument("--beta", type=float,
                        help=f"RQM shift parameter (default {DEFAULT_BETA:g})")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="query arXiv for reviews and store matches")
    p.add_argument("keyword")
    p.add_argument("--limit", type=_positive_int, default=100)

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
    p.add_argument("metric", choices=sorted(STATS_METRICS))
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
    p.add_argument("--ids", nargs="+")

    p = sub.add_parser("import", help="read papers from JSONL")
    p.add_argument("path")

    for p in sub.choices.values():  # a command's usage errors print its own usage
        p.set_defaults(parser=p)
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
    llm: Optional[LlmBackend] = None,
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
        if llm is None and settings.llm_stub:
            from .retrieval import StubLlm

            try:
                llm = StubLlm.from_json_file(settings.llm_stub)
            except ValueError as exc:  # a file that cannot be read raises OSError, below
                print(f"error: bad --llm-stub file: {exc}", file=sys.stderr)
                return 2
        if transport is None and settings.fixtures:
            if not Path(settings.fixtures).is_dir():
                raise FileNotFoundError(f"fixtures directory not found: {settings.fixtures}")
            from .retrieval import FixtureTransport

            try:
                transport = FixtureTransport(settings.fixtures)
            except ValueError as exc:  # a file that cannot be read raises OSError, below
                print(f"error: bad --fixtures file: {exc}", file=sys.stderr)
                return 2
        runtime = Runtime(settings, transport=transport, llm=llm,
                          read_only=args.command in READ_ONLY_COMMANDS)
        try:
            return COMMANDS[args.command](runtime, args, args.parser)
        except SystemExit as exc:  # a usage error inside a command
            return int(exc.code or 0)
        finally:
            runtime.close()  # commits what the store wrote since its last commit
    except BrokenPipeError:  # stdout closed early, which `entrypoint` makes a quiet exit
        raise
    except (LitmetricsError, OSError) as exc:  # OSError: a file named on the command line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect: one line and exit 1, not a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    # The modules, classes and functions that imports created live until the
    # process exits. Freezing them moves them out of the collector's view, so
    # neither a collection during the command nor the one at exit walks them
    # again. The modules a command imports when it runs (the pipeline, the
    # clients) come after the freeze; they add about 1 ms of collection to a
    # `score` of the benchmark's corpus. Only the console entry point freezes;
    # `main` called in-process (tests, a benchmark's warm-up, traced runs)
    # leaves the collector as it is.
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone, as after `| head`: exit 1 with no message,
        # stdout pointed at devnull so that the flush at exit cannot fail again
        # (https://docs.python.org/3/library/signal.html#note-on-sigpipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
