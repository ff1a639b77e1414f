#!/usr/bin/env python3
"""Record perfbench/baseline.json: one untraced and one traced run of every
workload at seed SEED, each as long as BENCHMARK.json's run_seconds, with the
per-item rows (program, size or term seed, and scaled time in each pass), so
a later regression can be traced to its input.

Usage: python3 perfbench/record_baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import tempfile
from pathlib import Path

import run

SEED = 0


def item_rows(passes: list) -> list:
    rows = {}
    for p in passes:
        scaled = run.item_times(p)
        for r in p["items"]:
            row = rows.setdefault(r["label"], {"item": r["label"], **r["params"], "seconds": []})
            row["seconds"].append(scaled[r["label"]])
    for row in rows.values():
        row["median_s"] = statistics.median(row["seconds"])
    return sorted(rows.values(), key=lambda row: -row["median_s"])


def main() -> None:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {
        "seed": SEED,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workloads": {},
    }
    for name in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as scratch:
            plain = run.measure(name, SEED, seconds, 0, Path(scratch))
            traced = run.measure(name, SEED, seconds, 1, Path(scratch))
        out["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "notes": plain["notes"],
            "failed": plain["failed"] + traced["failed"],
            "per_layer": traced["metrics"],
            "items": item_rows(plain["passes"]),
        }
    path = run.ROOT / "perfbench" / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
