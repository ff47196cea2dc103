#!/usr/bin/env python3
"""Run alternating parent/change pairs of `perfbench/run.py` and record them.

Each side is a source tree holding `perfbench/` and `src/`, such as a
`git archive` of the parent commit and the working tree. Pair i runs both
sides on one seed, the parent first in even pairs and the change first in odd
ones, each as `python3 perfbench/run.py --workload W --seed S --seconds N
--trace T` from its own tree. For example:

  PYTHONDONTWRITEBYTECODE=1 python3 scripts/bench_pairs.py \\
      --parent ../parent --change . --workload scaled-rescore \\
      --seeds 901-910 --out BENCH_9.json

The output file keeps every run: its seed, side, position in the pair, exit
status, the environment line, the JSON line run.py printed and the wall
seconds of each step of each round, from run.py's `# round` lines. Runs already
in the file are kept, so several calls (workloads, traced runs) build one
file. The summary is recomputed over all of them, per workload and trace
mode: each metric's median and quartiles per side (`statistics.quantiles`,
n=4, default method) and in how many pairs the change was better, by the
direction BENCHMARK.json gives; ties count for neither side.

Each metric also carries the verdicts of the claim rule:
- ``claim_met``: the change was better in at least nine tenths of the pairs,
  and its median is better than the parent's by more than the parent's
  quartile spread;
- ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's BENCHMARK.json ``bound``, a fraction of the
  parent's median;
- ``unresolved``: the parent's quartile spread is wider than that bound, so
  the runs cannot show a change of the bound's size.
The last two are None for a metric without a bound.

Each step (``enrich``, ``score``, ...) gets the median and quartiles per side
of its runs' median round, with no verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """'901-910' or '901,905,907' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def round_steps(stderr: str) -> list[dict[str, float]]:
    """Wall seconds per step of each round, from lines such as
    ``# round enrich=0.5123 score=0.1874``."""
    return [{step: float(value) for step, _, value in
             (item.partition("=") for item in line.split()[2:])}
            for line in stderr.splitlines() if line.startswith("# round ")]


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    json_lines = [json.loads(line) for line in lines if line.startswith("{")]
    if proc.returncode != 0 or not json_lines:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {
        "started_unix": round(started, 1),
        "rc": proc.returncode,
        "environment": next((line[2:] for line in lines if line.startswith("# python")), None),
        "result": json_lines[-1] if json_lines else None,
        "rounds": round_steps(proc.stderr),
    }


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def step_times(complete: list[dict]) -> dict:
    """Per step and side, the quartiles of each run's median round."""
    medians: dict[str, dict[str, list[float]]] = {}
    for pair in complete:
        for side in SIDES:
            rounds = pair[side].get("rounds") or []
            for step in rounds[0] if rounds else ():
                medians.setdefault(step, {}).setdefault(side, []).append(
                    statistics.median(r[step] for r in rounds))
    return {step: {side: quartiles(values) for side, values in sides.items()}
            for step, sides in sorted(medians.items())}


def summarise(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    groups: dict[str, dict] = {}
    for run in runs:
        if run["result"] is not None:
            key = f"{run['workload']} trace={run['trace']}"
            groups.setdefault(key, {}).setdefault((run["seed"], run["pair"]), {})[
                run["side"]] = run
    summary = {}
    for key, pairs in sorted(groups.items()):
        complete = [p for p in pairs.values() if set(p) == set(SIDES)]
        results = [{side: p[side]["result"] for side in SIDES} for p in complete]
        metrics = {}
        for name in results[0]["parent"]["metrics"] if results else ():
            values = {side: [p[side]["metrics"][name]["value"] for p in results]
                      for side in SIDES}
            sign = -1 if better.get(name, "lower") == "lower" else 1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            gain = sign * (change["median"] - parent["median"])  # > 0: the change is better
            spread = parent["q3"] - parent["q1"]
            bound = (bounds or {}).get(name)
            allowed = None if bound is None else bound * abs(parent["median"])
            metrics[name] = {
                "parent": parent,
                "change": change,
                "change_better_in_pairs": f"{wins}/{len(complete)}",
                "median_gap": change["median"] - parent["median"],
                "parent_quartile_spread": spread,
                "claim_met": 10 * wins >= 9 * len(complete) and gain > spread,
                "within_bound": None if allowed is None else -gain <= allowed,
                "unresolved": None if allowed is None else spread > allowed,
            }
        summary[key] = {
            "pairs": len(complete),
            "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                               for p in results for s in SIDES),
            "metrics": metrics,
            "steps": step_times(complete),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="one pair per seed, e.g. 901-910")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    data = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
            else {"runs": []})
    runs = data["runs"]
    for workload in args.workload:
        for seed in args.seeds:
            pair = sum(1 for r in runs if r["side"] == "parent")
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order, start=1):
                record = {"pair": pair, "workload": workload, "seed": seed, "side": side,
                          "position_in_pair": position, "trace": args.trace,
                          "seconds": args.seconds,
                          "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                          **run_side(trees[side], workload, seed, args.seconds, args.trace)}
                runs.append(record)
                metric = (record["result"] or {}).get("metrics", {}).get("score_s", {})
                print(f"{workload} seed={seed} {side}: rc={record['rc']} "
                      f"score_s={metric.get('value')}", file=sys.stderr)
            data["summary"] = summarise(runs, better, bounds)
            args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["rc"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
