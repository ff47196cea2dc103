"""Keeps the benchmark from rotting: its smoke mode must run every workload
with all checks passing, print exactly the metrics BENCHMARK.json declares,
and its checks must reject a wrong indicator value and a traced count that
does not repeat.

  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_mode_runs_every_workload_and_prints_the_declared_metrics():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(SPEC["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for untraced, traced in zip(results[::2], results[1::2]):
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
        for result in (untraced, traced):
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert all(untraced["metrics"][m]["value"] > 0 for m in end_to_end)


def _table(expected: dict[str, dict]) -> str:
    """A score table laid out the way the CLI prints it."""
    header = ["id", "year", "cites", "topic", "tncsi", "iei_avg", "iei_inst",
              "arq", "s_mp", "rqm", "cdr", "rad", "rui", "note"]
    rows = [[cid, str(e["year"]), str(e["cites"]), e["topic"],
             *(f"{e[n]:.4f}" for n in ("tncsi", "iei_avg", "iei_inst", "arq")),
             str(e["s_mp"]), *(f"{e[n]:.4f}" for n in ("rqm", "cdr", "rad", "rui")), ""]
            for cid, e in sorted(expected.items())]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in [header, *rows]) + "\n"


def test_checks_reject_a_wrong_indicator_value():
    _, _, _, truth = corpus.generate(1, corpus.SIZES["smoke"])
    expected = oracle.expected_reports(truth)
    assert oracle.check_score_table(_table(expected), expected) == []
    cid = sorted(expected)[0]
    for name in oracle.FLOAT_COLUMNS:
        wrong = {**expected, cid: {**expected[cid], name: expected[cid][name] + 0.01}}
        assert oracle.check_score_table(_table(wrong), expected), name


def test_a_traced_count_that_differs_between_rounds_fails_the_run():
    rounds = [{"snapshot.get_paper_calls": 7, "snapshot.get_paper_s": 0.5},
              {"snapshot.get_paper_calls": 7, "snapshot.get_paper_s": 0.7}]
    tally = run.Tally()
    assert run.fold_rounds(rounds, tally) == {"snapshot.get_paper_calls": 7,
                                              "snapshot.get_paper_s": 0.6}
    assert tally.problems == []
    rounds[1]["snapshot.get_paper_calls"] = 8
    run.fold_rounds(rounds, tally)
    assert tally.problems
