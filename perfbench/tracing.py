"""Per-layer tracing of an in-process CLI run, from outside the program.

`Tracer.install()` replaces public functions and methods of the litmetrics
modules with wrappers that record one span per call: name, start, end, the
parent span and the thread. Module-level functions are replaced in every
litmetrics module that holds them, because `cli` and `pipeline` import them
by name. `uninstall()` puts the originals back. Spans stay in memory until
`write()`; `layer_metrics()` folds them into the per-layer figures.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

INDICATOR_FUNCTIONS = ("fit_exponential_mle", "tncsi", "iei_average", "iei_instantaneous",
                       "iei_weighted", "arq", "median_semesters", "rqm", "rad", "cdr", "rui")
MODULE_FUNCTIONS = {
    "cli": ("select_ids",),
    "pipeline": ("score_batch", "enrich"),
    "retrieval": ("_request_with_retries", "fetch_topic_sample", "fetch_monthly_citations",
                  "count_relevant", "fetch_references", "fetch_paper_record"),
    "jsonio": ("parse_date", "parse_timestamp"),
    "indicators": INDICATOR_FUNCTIONS,
    "analysis": ("descriptive_stats", "yearly_feature_trend"),
}
METHODS = {
    ("pipeline", "ScoringEngine"): ("score",),
    ("retrieval", "FixtureTransport"): ("request",),
    ("retrieval", "OfflineTransport"): ("request",),
    ("retrieval", "RateLimiter"): ("acquire",),
    ("snapshot", "SnapshotStore"): ("get_paper", "upsert_paper", "store_report",
                                    "latest_report", "cache_get", "cache_put"),
}
SPAN_NAMES = {
    "retrieval._request_with_retries": "retrieval.request",
    "retrieval.FixtureTransport.request": "retrieval.transport",
    "retrieval.OfflineTransport.request": "retrieval.transport",
    "retrieval.RateLimiter.acquire": "retrieval.limiter",
    "pipeline.ScoringEngine.score": "pipeline.score",
    "snapshot.SnapshotStore.upsert_paper": "snapshot.upsert",
    "analysis.yearly_feature_trend": "analysis.trend",
    "indicators.fit_exponential_mle": "indicators.fit",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.cache_hits = 0
        self.cache_misses = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout_parent = -1  # score_batch: worker-thread spans hang under it
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        fanout = name == "pipeline.score_batch"
        cache_get = name == "snapshot.cache_get"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fanout_parent
            span = next(tracer._ids)
            stack.append(span)
            if fanout:
                tracer._fanout_parent = span
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if fanout:
                    tracer._fanout_parent = -1
                tracer.spans.append((span, name, start, end, parent, threading.get_ident()))
            if cache_get:
                with tracer._lock:
                    if result is None:
                        tracer.cache_misses += 1
                    else:
                        tracer.cache_hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "litmetrics" or n.startswith("litmetrics.")) and m is not None]
        for short, names in MODULE_FUNCTIONS.items():
            home = importlib.import_module(f"litmetrics.{short}")
            for fn_name in names:
                original = getattr(home, fn_name)
                key = f"{short}.{fn_name}"
                traced = self.wrap(SPAN_NAMES.get(key, key), original)
                for module in modules:  # wherever it is looked up by name
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, traced)
        for (short, cls_name), names in METHODS.items():
            cls = getattr(importlib.import_module(f"litmetrics.{short}"), cls_name)
            for meth in names:
                key = f"{short}.{cls_name}.{meth}"
                default = f"{short}.{meth}"
                self._replace(cls, meth, self.wrap(SPAN_NAMES.get(key, default),
                                                   cls.__dict__[meth]))
        retrieval = importlib.import_module("litmetrics.retrieval")
        decode = retrieval.PaperRecord.__dict__["from_json_dict"].__func__
        self._replace(retrieval.PaperRecord, "from_json_dict",
                      classmethod(self.wrap("retrieval.record_decode", decode)))
        cli = importlib.import_module("litmetrics.cli")
        for command, fn in list(cli.COMMANDS.items()):
            self._restore.append((cli.COMMANDS, command, fn))
            cli.COMMANDS[command] = self.wrap("cli.command", fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, name, start, end, parent, thread in sorted(self.spans):
                fh.write(json.dumps({"id": span, "name": name, "start": start, "end": end,
                                     "parent": None if parent < 0 else parent,
                                     "thread": thread}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        thread_of = {s[0]: s[5] for s in self.spans}
        for span, name, start, end, parent, thread in self.spans:
            count[name] += 1
            total[name] += end - start
            if parent >= 0 and thread_of.get(parent) == thread:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for span, name, start, end, parent, thread in self.spans:
            self_time[name] += end - start - child[span]
        lookups = self.cache_hits + self.cache_misses
        return {
            "cli.select_ids_s": total["cli.select_ids"],
            "cli.command_s": total["cli.command"],
            "pipeline.batch_s": total["pipeline.score_batch"],
            "pipeline.score_calls": count["pipeline.score"],
            "pipeline.score_s": total["pipeline.score"],
            "pipeline.score_self_s": self_time["pipeline.score"],
            "pipeline.enrich_calls": count["pipeline.enrich"],
            "pipeline.enrich_s": total["pipeline.enrich"],
            "pipeline.enrich_self_s": self_time["pipeline.enrich"],
            "retrieval.transport_calls": count["retrieval.transport"],
            "retrieval.transport_s": total["retrieval.transport"],
            "retrieval.retries": count["retrieval.transport"] - count["retrieval.request"],
            "retrieval.limiter_acquires": count["retrieval.limiter"],
            "retrieval.limiter_wait_s": total["retrieval.limiter"],
            "retrieval.cache_hits": self.cache_hits,
            "retrieval.cache_misses": self.cache_misses,
            "retrieval.cache_lookups": lookups,
            "retrieval.cache_hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "retrieval.fetch_topic_sample_s": total["retrieval.fetch_topic_sample"],
            "retrieval.fetch_monthly_citations_s": total["retrieval.fetch_monthly_citations"],
            "retrieval.count_relevant_s": total["retrieval.count_relevant"],
            "retrieval.fetch_references_s": total["retrieval.fetch_references"],
            "retrieval.fetch_paper_record_s": total["retrieval.fetch_paper_record"],
            "retrieval.record_decode_calls": count["retrieval.record_decode"],
            "retrieval.record_decode_s": total["retrieval.record_decode"],
            "jsonio.parse_date_calls": count["jsonio.parse_date"],
            "jsonio.parse_timestamp_calls": count["jsonio.parse_timestamp"],
            "jsonio.parse_s": total["jsonio.parse_date"] + total["jsonio.parse_timestamp"],
            "snapshot.get_paper_calls": count["snapshot.get_paper"],
            "snapshot.get_paper_s": total["snapshot.get_paper"],
            "snapshot.upsert_calls": count["snapshot.upsert"],
            "snapshot.upsert_s": total["snapshot.upsert"],
            "snapshot.store_report_calls": count["snapshot.store_report"],
            "snapshot.store_report_s": total["snapshot.store_report"],
            "snapshot.latest_report_calls": count["snapshot.latest_report"],
            "snapshot.latest_report_s": total["snapshot.latest_report"],
            "snapshot.cache_get_calls": count["snapshot.cache_get"],
            "snapshot.cache_get_s": total["snapshot.cache_get"],
            "snapshot.cache_put_calls": count["snapshot.cache_put"],
            "snapshot.cache_put_s": total["snapshot.cache_put"],
            "indicators.fit_calls": count["indicators.fit"],
            "indicators.fit_s": total["indicators.fit"],
            "indicators.tncsi_calls": count["indicators.tncsi"],
            "indicators.math_s": sum(total[n] for n in total if n.startswith("indicators.")),
            "analysis.descriptive_stats_s": total["analysis.descriptive_stats"],
            "analysis.trend_s": total["analysis.trend"],
            "trace.spans": len(self.spans),
        }
