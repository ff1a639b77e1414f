#!/usr/bin/env python3
"""Record perfbench/stability.json: how far the end-to-end metrics move
between runs of the same code, and the bounds in BENCHMARK.json drawn from it.

Runs run.py, untraced, on every workload at the seeds of two sets, one run
at a time, for BENCHMARK.json's run_seconds each.  For each set and metric
it takes the spread, the distance between the first and third quartile of
the set's values (statistics.quantiles, n=4) over their median, and for each
metric the gap between the two sets' medians over the first set's median.
A metric's bound is the largest of 3 x spread and 2 x gap over all
workloads, rounded up to 0.01 and capped at 0.25; setup_s, whose spread is
not bounded, gets the cap.  stability.json keeps every run's values, so each
bound can be checked against the runs behind it.

Usage: python3 perfbench/stability.py
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import run

SETS = (range(1, 11), range(11, 21))
CAP = 0.25
OUT = run.ROOT / "perfbench" / "stability.json"


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs: dict) -> dict:
    """Spreads, gaps and bounds from runs[workload][set index] = [values]."""
    out = {"workloads": {}, "bounds": {}}
    for metric in run.END_TO_END:
        need = 0.0
        for workload, sets in runs.items():
            values = [[r[metric] for r in s] for s in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            gap = abs(medians[1] - medians[0]) / medians[0]
            out["workloads"].setdefault(workload, {})[metric] = {
                "spreads": spreads, "medians": medians, "gap": gap,
            }
            if metric != "setup_s":
                need = max(need, 3 * max(spreads))
            need = max(need, 2 * gap)
        out["bounds"][metric] = CAP if metric == "setup_s" else min(CAP, math.ceil(need * 100) / 100)
    return out


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {w: [[] for _ in SETS] for w in run.WORKLOADS}
    for i, seeds in enumerate(SETS):
        for workload in run.WORKLOADS:
            for seed in seeds:
                runs[workload][i].append(dict(one_run(workload, seed, seconds), seed=seed))
    out = {"run_seconds": seconds, "sets": [list(s) for s in SETS], **summarise(runs), "runs": runs}
    OUT.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
