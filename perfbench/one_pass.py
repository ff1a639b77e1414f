#!/usr/bin/env python3
"""One pass of one workload, in a fresh interpreter; writes its timings as JSON.

run.py starts this once per pass, so process-global caches in polytrs (such
as the unbounded ``is_value`` cache) start cold every pass, as they do for a
command-line user.  Items run one at a time with the garbage collector on;
``gc.collect()``, the output checks and the reference loop (see run.py) run
between items, outside the timed regions; a traced pass pauses its tracer
for the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_REPEATS = 5


@dataclass(frozen=True, slots=True)
class _Node:
    label: int
    kids: tuple = ()


def reference() -> float:
    """Time of a fixed pure-Python loop shaped like polytrs' work: Fraction
    arithmetic, building, hashing, printing and sorting small frozen trees.
    polytrs never runs it, so its time measures only how fast the machine is
    running this process at the moment."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 3) * Fraction(2, i + 1)
    seen = {}
    for i in range(60):
        t = _Node(i)
        for j in range(6):
            t = _Node(j, (t, _Node(i)))
        seen[t] = repr(t)[:20]
        seen.get(_Node(i, (t,)))
    sorted(seen, key=lambda n: (n.label, len(n.kids)))
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0-ns", type=int, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import polytrs

    if Path(polytrs.__file__).resolve().parent != ROOT / "src" / "polytrs":
        sys.exit(f"polytrs imported from {polytrs.__file__}, not from {ROOT / 'src'}")
    untraced = contextlib.nullcontext
    if args.trace:
        import tracing

        tracer = tracing.install()
        untraced = tracer.paused
    import workloads

    items = workloads.setup(args.workload, ROOT, args.seed, Path(args.scratch))
    result: dict = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9}
    result["setup_ref_s"] = [reference() for _ in range(REFERENCE_REPEATS)]
    if not args.setup_only:
        rows = []
        result["ref_s"] = []  # before each item, and once after the last
        for item in items:
            gc.collect()
            result["ref_s"].append(reference())
            output = error = None
            start = time.perf_counter()
            try:
                output = item.run()
            except Exception as exc:  # an item that raises is a failed item
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            summary = None
            if error is None:
                try:
                    with untraced():
                        summary = item.check(output)
                except Exception as exc:  # includes workloads.CheckFailed
                    error = f"check failed: {type(exc).__name__}: {exc}"
            output = None  # free the proof before the next item
            rows.append(
                {"label": item.label, "params": item.params, "seconds": seconds,
                 "error": error, "summary": summary}
            )
        gc.collect()
        result["ref_s"].append(reference())
        with untraced():
            failures = workloads.check_pass(args.workload, rows)
        for row in rows:
            if row["label"] in failures and row["error"] is None:
                row["error"] = f"check failed: {failures[row['label']]}"
        result["items"] = rows
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            result["trace"] = tracer.as_dict()
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
