#!/usr/bin/env python3
"""Write bc_strata.json, the stratification of the bc-pipeline population.

The population is random_bc(s, 4) for s in range(POPULATION), the terms of
acceptance criterion 6.  Term seeds are ordered by the time the workload's
pipeline takes on each term, so that adjacent terms cost about the same: the
median of REPEATS runs, each divided by the reference loop's time just before
and after it, as the benchmark scales item times.  Each term's cost is written
beside the order.  The order only groups terms for stratified sampling; every
term stays eligible, and the order never decides a check.

Usage: python3 perfbench/make_bc_strata.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POPULATION = 200
REPEATS = 5


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from one_pass import reference
    from polytrs.bc import random_bc

    cost = {}
    for s in range(POPULATION):
        term = random_bc(s, 4)
        times = []
        for _ in range(REPEATS):
            before = reference()
            start = time.perf_counter()
            workloads.bc_chain(term)
            seconds = time.perf_counter() - start
            times.append(seconds / (before + reference()))
        cost[s] = statistics.median(times)
    order = sorted(range(POPULATION), key=lambda s: (cost[s], s))
    heaviest = sum(cost[s] for s in order[-workloads.BC_CENSUS :])
    out = {
        "population": POPULATION,
        "key": f"pipeline time over the reference loop's time before plus after, median of {REPEATS} runs",
        "order": order,
        "cost": [round(cost[s], 3) for s in order],
        "census_share": round(heaviest / sum(cost.values()), 3),
    }
    (ROOT / "perfbench" / "bc_strata.json").write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
