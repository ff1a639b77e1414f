#!/usr/bin/env python3
"""Benchmark of polytrs: verdict time on four workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Passes over the workload's fixed item list run one at a time, each in a
fresh interpreter (one_pass.py), from one process with no threads.  With
``--trace 0`` passes repeat until ``--seconds`` have gone by and at least
TAIL_PASSES[workload] passes are done, then set-up-only processes run until
SETUP_SAMPLES set-ups are timed; the end-to-end metrics are printed.  With
``--trace 1`` untraced and traced passes alternate over the same time and
the per-layer metrics are printed, with the tracing overhead.  Each metric is
printed as a line ``workload name value unit``; the last line of output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric definitions are in perfbench/spec.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-corpus", "growth-tables", "bc-pipeline", "interp-memo")

# Other tenants share the machine's cores, and its speed drifts by up to a
# half within seconds.  Each pass process times a fixed reference loop that
# polytrs never runs (one_pass.reference) after set-up and between items, and
# every time is scaled by REFERENCE_S over the loop's time nearby: an item by
# the median of the samples taken before the previous item, before it and
# after it; set-up by the median of the samples taken right after it.  Times
# are thus reference-normalised seconds: seconds at the speed at which the loop
# takes REFERENCE_S.  REFERENCE_S is a fixed value near the loop's usual time
# on a 2-vCPU x86-64 host with Python 3.11.7: a run's median is mostly 3.5 to
# 4.5 ms, with spells near 2.4 ms (baseline.json notes each workload's figure
# beside wall_s).  At that usual speed a normalised second is close to a wall
# second.  The unscaled wall time and the loop's time are printed beside wall_s.
REFERENCE_S = 0.004

# item_tail_ms is taken over the items of the first TAIL_PASSES passes, so the
# sample count, and with it the percentile, is the same on every run and
# commit; the count is chosen so the tail falls among one item's repeats
# rather than at the edge between two items.
TAIL_PASSES = {"certify-corpus": 5, "growth-tables": 7, "bc-pipeline": 3, "interp-memo": 7}
TAIL_BEYOND = 10
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    pass


class Runner:
    """Starts the pass processes of one benchmark run, one at a time."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = time.monotonic()
        self.count = itertools.count()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def one(self, trace: int = 0, setup_only: bool = False) -> dict:
        out = self.scratch / f"pass-{next(self.count)}.json"
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--trace", str(trace), "--scratch", str(self.scratch), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--t0-ns", str(time.monotonic_ns())]
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, DEADLINE_S - self.elapsed()),
        )
        if proc.returncode != 0:
            raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())


def setup_time(p: dict) -> float:
    """Scaled set-up time of a pass or set-up-only process."""
    return p["setup_s"] * REFERENCE_S / statistics.median(p["setup_ref_s"])


def item_times(p: dict) -> dict:
    """Scaled time of each item of a pass, by label."""
    ref = p["ref_s"]
    return {
        r["label"]: r["seconds"] * REFERENCE_S / statistics.median(ref[max(0, i - 1) : i + 2])
        for i, r in enumerate(p["items"])
    }


def wall(p: dict) -> float:
    """Timed wall time of one pass: the sum of its scaled item regions."""
    return sum(item_times(p).values())


def tail(times: list) -> tuple:
    """(value, percentile, samples): the highest order statistic that still
    has TAIL_BEYOND samples above it."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def failures(passes: list) -> list:
    """(label, reason) for every failed item of every pass.  A report whose
    bytes differ from the first pass's report for the same item fails too."""
    out = []
    first = {}
    for p in passes:
        for r in p["items"]:
            digest = (r["summary"] or {}).get("digest")
            if r["error"]:
                out.append((r["label"], r["error"]))
            elif digest is not None and first.setdefault(r["label"], digest) != digest:
                out.append((r["label"], "report bytes differ between passes"))
    return out


def end_to_end(workload: str, passes: list, setups: list) -> tuple:
    """End-to-end metric values, and notes printed beside them."""
    times = [item_times(p) for p in passes]
    per_item = {label: statistics.median(t[label] for t in times) for label in times[0]}
    value, pct, n = tail([s for t in times[: TAIL_PASSES[workload]] for s in t.values()])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(t.values()) for t in times),
        "items_per_s": statistics.median(len(t) / sum(t.values()) for t in times),
        "item_p50_ms": 1000 * statistics.median(per_item.values()),
        "item_tail_ms": 1000 * value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    unscaled = statistics.median(sum(r["seconds"] for r in p["items"]) for p in passes)
    ref_ms = 1000 * statistics.median(x for p in passes for x in p["ref_s"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes; unscaled {unscaled:.4g} s, "
        f"reference loop {ref_ms:.3f} ms",
        "item_p50_ms": f"median over {len(per_item)} items of each item's median repeat",
        "item_tail_ms": f"p{pct:.1f} of {n} items of the first {TAIL_PASSES[workload]} passes",
    }
    return metrics, notes


def per_layer_units() -> dict:
    units = {}
    for layer, fns in tracing.SPANS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for layer in tracing.SPANS:
        units[f"{layer}.self_s"] = "s"
    for name in tracing.COUNTS:
        if name != "qi.symbolic_valid":
            units[name] = "count"
    units["qi.symbolic_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def layer_values(p: dict) -> dict:
    """Per-layer metrics of one traced pass; span times are scaled by the
    pass's median reference time."""
    spans, counts = p["trace"]["spans"], p["trace"]["counts"]
    k = REFERENCE_S / statistics.median(p["ref_s"])
    out = {}
    for layer, fns in tracing.SPANS.items():
        layer_self = 0.0
        for fn in fns:
            span = spans.get(f"{layer}.{fn}", {"calls": 0, "self_s": 0.0})
            out[f"{layer}.{fn}.calls"] = span["calls"]
            out[f"{layer}.{fn}.self_s"] = span["self_s"] * k
            layer_self += span["self_s"] * k
        out[f"{layer}.self_s"] = layer_self
    out.update((k, v) for k, v in counts.items() if k != "qi.symbolic_valid")
    obligations = counts["qi.obligations"]
    out["qi.symbolic_ratio"] = counts["qi.symbolic_valid"] / obligations if obligations else 0.0
    return out


def per_layer(plain: list, traced: list) -> dict:
    rows = [layer_values(p) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.wall_s"] = statistics.median(wall(p) for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(wall(p) for p in plain)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    """One benchmark run; returns metrics, notes and every pass's raw rows."""
    runner = Runner(workload, seed, scratch)
    if trace:
        plain, traced = [], []
        while not (plain and traced and runner.elapsed() >= seconds):
            do_trace = len(plain) > len(traced)
            (traced if do_trace else plain).append(runner.one(trace=int(do_trace)))
        passes = plain + traced
        metrics, notes = per_layer(plain, traced), {}
    else:
        passes = []
        while len(passes) < TAIL_PASSES[workload] or runner.elapsed() < seconds:
            passes.append(runner.one())
        setups = [setup_time(p) for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_time(runner.one(setup_only=True)))
        metrics, notes = end_to_end(workload, passes, setups)
    failed = failures(passes)
    attempted = sum(len(p["items"]) for p in passes)
    notes["failed_ratio"] = f"{len(failed)}/{attempted} = {len(failed) / attempted:.4f}"
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "polytrs" / "__init__.py").is_file():
        print(f"no polytrs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        try:
            run = measure(args.workload, args.seed, args.seconds, args.trace, Path(scratch))
        except (PassFailed, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
    units = per_layer_units() if args.trace else END_TO_END
    for label, reason in run["failed"]:
        print(f"{args.workload} FAILED {label}: {reason}")
    for name, unit in units.items():
        note = run["notes"].get(name)
        print(f"{args.workload} {name} {run['metrics'][name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(f"{args.workload} failed_ratio {run['notes']['failed_ratio']}")
    result = {
        "correct": not run["failed"],
        "attempted": run["attempted"],
        "failed": len(run["failed"]),
        "metrics": {n: {"value": run["metrics"][n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
