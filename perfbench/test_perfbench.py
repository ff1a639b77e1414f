"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q

They are outside the repository's test paths, so the tier-1 suite does not
collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polytrs import blind, parser  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())


def items_by_label(name: str, tmp_path: Path, seed: int = 0) -> dict:
    return {i.label: i for i in workloads.setup(name, ROOT, seed, tmp_path)}


def test_benchmark_json_lists_what_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    stability = json.loads((HERE / "stability.json").read_text())
    assert {m["name"]: m["bound"] for m in bench["end_to_end"]} == stability["bounds"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert set(SPEC["span_home"]) == set(tracing.span_names())


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([i / 100 for i in range(100)]) == (0.89, 90.0, 100)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    f = tracer.wrap("terms.format_term", lambda x: x)
    f(1)
    with tracer.paused():
        f(2)
    assert tracer.as_dict()["spans"]["terms.format_term"]["calls"] == 1


def test_report_bytes_must_repeat_across_passes():
    row = {"label": "append", "error": None, "summary": {"digest": "a"}}
    drift = dict(row, summary={"digest": "b"})
    assert run.failures([{"items": [row]}, {"items": [row]}]) == []
    assert run.failures([{"items": [row]}, {"items": [drift]}]) == [
        ("append", "report bytes differ between passes")
    ]


def _assert_check_flips(item, patch):
    item.check(item.run())  # passes as recorded
    patch()
    with pytest.raises(workloads.CheckFailed):
        item.check(item.run())


def test_certify_check_fails_on_a_perturbed_verdict(tmp_path, monkeypatch):
    item = items_by_label("certify-corpus", tmp_path)["append"]
    _assert_check_flips(
        item,
        lambda: monkeypatch.setitem(
            workloads.CERTIFY_VERDICTS, "append", ("pass", "pass", "fail", 0)
        ),
    )


def test_growth_checks_fail_on_perturbed_rows(tmp_path, monkeypatch):
    items = items_by_label("growth-tables", tmp_path)
    _assert_check_flips(
        items["append:5"],
        lambda: monkeypatch.setattr(workloads, "append_expected", lambda n: (2 * n + 3, n, False)),
    )
    _assert_check_flips(
        items["running-blind:5"],
        lambda: monkeypatch.setitem(workloads.RUNNING_BLIND_ROWS, 5, (93, 73618706)),
    )


def test_bc_check_fails_on_a_perturbed_verdict(tmp_path, monkeypatch):
    item = next(iter(items_by_label("bc-pipeline", tmp_path).values()))
    _assert_check_flips(
        item, lambda: monkeypatch.setitem(workloads.BC_EXPECTED, "transferred_qi", "unknown")
    )


def test_interp_checks_fail_on_perturbed_closed_forms(tmp_path, monkeypatch):
    items = items_by_label("interp-memo", tmp_path)
    _assert_check_flips(
        items["cbv:4"], lambda: monkeypatch.setattr(workloads, "cbv_rules", lambda n: 7 * 2**n)
    )
    _assert_check_flips(
        items["memo:4"], lambda: monkeypatch.setattr(workloads, "memo_rules", lambda n: 4 * n + 6)
    )
    rows = [
        {"label": "cbv:3", "summary": {"value": "0"}},
        {"label": "memo:3", "summary": {"value": "s(0)"}},
    ]
    assert set(workloads.check_pass("interp-memo", rows)) == {"cbv:3", "memo:3"}


def test_seed_changes_inputs_but_not_the_closed_form_checks(tmp_path):
    one, two = workloads.bc_term_seeds(ROOT, 1), workloads.bc_term_seeds(ROOT, 2)
    assert len(one) == len(two) and set(one) != set(two)
    append = parser.parse_program((ROOT / "corpus" / "append.trs").read_text())
    assert blind.input_tuples(append, append.main, 10, 80, 1) != blind.input_tuples(
        append, append.main, 10, 80, 2
    )
    for seed in (1, 2):
        items = items_by_label("growth-tables", tmp_path, seed)
        items["append:8"].check(items["append:8"].run())
        bc_items = list(items_by_label("bc-pipeline", tmp_path, seed).values())
        for item in bc_items[:5]:
            item.check(item.run())


def _traced_pass(workload: str, tmp_path: Path) -> dict:
    out = tmp_path / "pass.json"
    subprocess.run(
        [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", "3",
         "--trace", "1", "--scratch", str(tmp_path), "--out", str(out), "--t0-ns", "0"],
        check=True,
        timeout=170,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_fires_its_spans_and_passes_the_checks(workload, tmp_path):
    traced = _traced_pass(workload, tmp_path)
    assert [r["error"] for r in traced["items"]] == [None] * len(traced["items"])
    spans = traced["trace"]["spans"]
    for name in (s for s, home in SPEC["span_home"].items() if home == workload):
        assert spans[name]["calls"] > 0 and spans[name]["self_s"] > 0, name
    if workload == "interp-memo":
        # its checks format every result, but run with the tracer paused
        assert "terms.format_term" not in spans


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interp-memo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
