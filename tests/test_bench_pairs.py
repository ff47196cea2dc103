"""scripts/bench_pairs.py: seed lists and the summary of parent/change pairs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def better() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(pair: int, side: str, score_s: float, cache_hits: int, correct: bool = True) -> dict:
    return {"pair": pair, "workload": "scaled-ingest", "seed": 900 + pair, "side": side,
            "trace": 0, "result": {"correct": correct, "failed": 0, "metrics": {
                "score_s": {"value": score_s, "unit": "s"},
                "retrieval.cache_hits": {"value": cache_hits, "unit": "count"}}}}


def test_seed_list(bench_pairs):
    assert bench_pairs.seed_list("901-903,907") == [901, 902, 903, 907]


def test_summarise_counts_wins_by_direction_and_quartiles_per_side(bench_pairs, better):
    assert (better["score_s"], better["retrieval.cache_hits"]) == ("lower", "higher")
    parent = [(1.0, 10), (2.0, 10), (3.0, 10), (4.0, 10)]
    change = [(0.5, 11), (2.5, 9), (3.0, 10), (3.0, 12)]  # pair 2 ties on both
    runs = [run(i, "parent", *p) for i, p in enumerate(parent)]
    runs += [run(i, "change", *c) for i, c in enumerate(change)]
    runs.append(run(4, "parent", 9.0, 0))  # a pair without its change run is left out
    runs.append({**run(4, "change", 0.1, 99), "result": None})  # a run that printed nothing

    summary = bench_pairs.summarise(runs, better)

    group = summary["scaled-ingest trace=0"]
    assert (group["pairs"], group["all_correct"]) == (4, True)
    score = group["metrics"]["score_s"]
    assert score["change_better_in_pairs"] == "2/4"
    assert score["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}
    assert score["change"] == {"median": 2.75, "q1": 1.0, "q3": 3.0, "n": 4}
    assert score["median_gap"] == pytest.approx(0.25)
    assert score["parent_quartile_spread"] == pytest.approx(2.5)
    assert group["metrics"]["retrieval.cache_hits"]["change_better_in_pairs"] == "2/4"


def test_summarise_flags_an_incorrect_run(bench_pairs, better):
    runs = [run(0, "parent", 1.0, 1), run(0, "change", 0.5, 1, correct=False)]
    assert bench_pairs.summarise(runs, better)["scaled-ingest trace=0"]["all_correct"] is False
