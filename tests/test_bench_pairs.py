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


@pytest.fixture(scope="module")
def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


PARENT = [1.70, 1.69, 1.68, 1.70, 1.69, 1.71, 1.69, 1.70, 1.68, 1.69]  # quartile spread 0.0125


@pytest.mark.parametrize("metric, parent, change, verdicts", [
    # (claim_met, within_bound, unresolved); snapshot_mb is lower-better, bound 0.1
    ("snapshot_mb", PARENT, [v - 0.17 for v in PARENT], (True, True, False)),
    ("snapshot_mb", PARENT, [v - 0.17 for v in PARENT[:9]] + [PARENT[9]],  # a tie: 9/10
     (True, True, False)),
    ("snapshot_mb", PARENT, [v - 0.17 for v in PARENT[:8]] + PARENT[8:], (False, True, False)),
    ("snapshot_mb", PARENT, [v - 0.005 for v in PARENT], (False, True, False)),  # gap < spread
    ("snapshot_mb", PARENT, [v + 0.15 for v in PARENT], (False, True, False)),  # worse, in bound
    ("snapshot_mb", PARENT, [v + 0.18 for v in PARENT], (False, False, False)),
    ("snapshot_mb", [1.0, 2.0, 1.2, 1.8, 1.1, 1.9, 1.5, 1.4, 1.6, 1.3],
     [1.0, 2.0, 1.2, 1.8, 1.1, 1.9, 1.5, 1.4, 1.6, 1.3], (False, True, True)),
    ("retrieval.cache_hits", [10] * 10, [12] * 10, (True, None, None)),  # no bound
], ids=["met", "met-with-a-tie", "8-of-10", "gap-within-spread", "worse-within-bound",
        "worse-beyond-bound", "unresolved", "no-bound"])
def test_summarise_states_the_claim_rule_verdicts(bench_pairs, better, bounds, metric,
                                                  parent, change, verdicts):
    runs = [{"pair": i, "workload": "scaled-ingest", "seed": 900 + i, "side": side,
             "trace": 0, "result": {"correct": True, "failed": 0,
                                    "metrics": {metric: {"value": value, "unit": "MB"}}}}
            for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]
    summary = bench_pairs.summarise(runs, better, bounds)
    got = summary["scaled-ingest trace=0"]["metrics"][metric]
    assert (got["claim_met"], got["within_bound"], got["unresolved"]) == verdicts


def test_round_steps_reads_the_round_lines(bench_pairs):
    stderr = ("# setup 0.4\n# round enrich=0.5123 score=0.1874 stats=0.0900\n"
              "warning: slow host\n# round enrich=0.5000 score=0.2000 stats=0.1000\n")
    assert bench_pairs.round_steps(stderr) == [
        {"enrich": 0.5123, "score": 0.1874, "stats": 0.09},
        {"enrich": 0.5, "score": 0.2, "stats": 0.1}]


def test_summarise_gives_each_steps_median_per_side_without_a_verdict(bench_pairs, better):
    def with_rounds(pair, side, enrich_times):
        return {**run(pair, side, 1.0, 1),
                "rounds": [{"enrich": t, "score": 0.2} for t in enrich_times]}

    runs = [with_rounds(0, "parent", [0.5, 0.7, 0.6]), with_rounds(0, "change", [0.4, 0.3]),
            with_rounds(1, "parent", [0.8]), with_rounds(1, "change", [0.5, 0.5, 0.9]),
            run(2, "parent", 1.0, 1), run(2, "change", 1.0, 1)]  # runs that kept no rounds

    steps = bench_pairs.summarise(runs, better)["scaled-ingest trace=0"]["steps"]

    assert sorted(steps) == ["enrich", "score"]
    # each run's median round: parent 0.6 and 0.8, change 0.35 and 0.5
    assert steps["enrich"]["parent"]["median"] == pytest.approx(0.7)
    assert steps["enrich"]["change"]["median"] == pytest.approx(0.425)
    assert steps["enrich"]["parent"]["n"] == steps["enrich"]["change"]["n"] == 2
    assert set(steps["enrich"]) == {"parent", "change"}
    assert "claim_met" not in steps["enrich"]["parent"]
