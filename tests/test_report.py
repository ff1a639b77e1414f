from __future__ import annotations

import itertools
import json
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import polytrs
from polytrs.qi import parse_assignment
from polytrs.report import Report, build_report, decide, dump_json, program_digest, write_json

from .conftest import CORPUS, CORPUS_PROGRAMS


def test_digest_stable(corpus):
    prog = corpus["append.trs"]
    assert program_digest(prog) == program_digest(corpus["append.trs"])
    assert program_digest(prog) != program_digest(corpus["add.trs"])


def test_report_json_deterministic(corpus):
    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    a = build_report(prog, asg, sizes=range(1, 5)).to_json()
    b = build_report(prog, asg, sizes=range(1, 5)).to_json()
    assert a == b
    json.loads(a)  # well-formed


def test_verdicts_recomputable_from_stages(corpus):
    """Every corpus report's verdicts, and its extended overall, follow from
    the stage facts it writes; the corpus reaches every value of each."""
    seen: dict = {}
    for name in CORPUS_PROGRAMS:
        prog = corpus[name]
        qi_path = (CORPUS / name).with_suffix(".qi")
        asg = parse_assignment(qi_path.read_text(), prog) if qi_path.exists() else None
        data = json.loads(build_report(prog, asg).to_json())
        stages = data["stages"]
        qi = stages["qi"]
        linearity = stages["linearity"]
        facts = (
            stages["ordering"]["ppo"]["overall"],
            stages["extended"]["eppo_pass"],
            qi and qi["overall"],
            qi and qi["uniform"],
            linearity and linearity["overall"],
            stages["memo_gate"]["orthogonal"],
            stages["extended"]["bounded_values"],
        )
        assert decide(*facts) == (data["verdicts"], stages["extended"]["overall"]), name
        for key, value in [*data["verdicts"].items(), ("extended", stages["extended"]["overall"])]:
            seen.setdefault(key, set()).add(value)
    assert seen == {
        "p_criterion": {"pass", "fail", "unknown"},
        "blind_p": {"pass", "fail", "unknown"},
        "extended_p": {"pass", "fail", "unknown"},
        "extended": {"certified-p", "refuted", "empirically-consistent", "unknown"},
    }


def expected_verdicts(ppo, eppo, qi, uniform, linear, orthogonal, bounded):
    """The verdict rules as README states them, written out apart from
    report.decide."""
    memo_path = orthogonal or linear is True
    p = "pass" if ppo and qi == "valid" else "fail" if not ppo or qi == "invalid" else "unknown"
    if p == "fail" or False in (uniform, linear):
        blind = "fail"
    else:
        blind = "pass" if p == "pass" and uniform is linear is True else "unknown"
    if eppo and qi == "valid" and memo_path:
        overall, ext = "certified-p", "pass"
    elif bounded == "empirical-exp":
        overall, ext = "refuted", "fail"
    else:
        overall = "empirically-consistent" if eppo and bounded == "empirical-poly" else "unknown"
        ext = "unknown" if eppo else "fail"
    return {"p_criterion": p, "blind_p": blind, "extended_p": ext}, overall


def fact_combinations():
    """Every feasible input of report.decide: bounded values are certified
    exactly when the quasi-interpretation is valid."""
    qi_uniform = [(None, None)] + [
        (qi, u) for qi in ("valid", "invalid", "unknown") for u in (True, False)
    ]
    for ppo, eppo, (qi, uniform), linear, orthogonal in itertools.product(
        (True, False), (True, False), qi_uniform, (None, True, False), (True, False)
    ):
        measured = ("empirical-poly", "empirical-exp", "unknown")
        for bounded in ("certified",) if qi == "valid" else measured:
            yield ppo, eppo, qi, uniform, linear, orthogonal, bounded


def test_decide_matches_the_verdict_table():
    combos = list(fact_combinations())
    assert len(combos) == len(set(combos)) == 408
    for facts in combos:
        verdicts, overall = decide(*facts)
        assert (verdicts, overall) == expected_verdicts(*facts), facts
        ppo, eppo, qi, uniform, linear, orthogonal, bounded = facts
        if verdicts["blind_p"] == "pass":
            assert verdicts["p_criterion"] == "pass", facts
        if verdicts["p_criterion"] == "pass":
            assert ppo and qi == "valid", facts
        if verdicts["extended_p"] == "pass":
            assert eppo and qi == "valid" and (orthogonal or linear), facts
        values = verdicts.values()
        code = 0 if "pass" in values else 1 if set(values) == {"fail"} else 2
        assert Report({"verdicts": verdicts}).exit_code() == code, facts


def test_mult_report_passes_everything(corpus):
    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    report = build_report(prog, asg, sizes=range(1, 5))
    assert report.verdicts == {
        "p_criterion": "pass",
        "blind_p": "pass",
        "extended_p": "pass",
    }
    assert report.exit_code() == 0


def test_running_report_fails_ppo_unknown_overall(corpus):
    prog = corpus["running.trs"]
    report = build_report(prog, sizes=range(1, 8))
    assert report.verdicts["p_criterion"] == "fail"  # no strict order exists
    assert report.data["stages"]["ordering"]["eppo"]["overall"] is True
    assert report.data["stages"]["extended"]["overall"] == "empirically-consistent"
    assert report.exit_code() in (1, 2)


def test_extended_linearity_is_the_linearity_stage(corpus):
    """The report states linearity once: the extended stage repeats the
    linearity stage's overall, null when no precedence exists."""
    for name in CORPUS_PROGRAMS:
        prog = corpus[name]
        qi_path = (CORPUS / name).with_suffix(".qi")
        asg = parse_assignment(qi_path.read_text(), prog) if qi_path.exists() else None
        stages = json.loads(build_report(prog, asg).to_json())["stages"]
        linearity = stages["linearity"]
        expected = None if linearity is None else linearity["overall"]
        assert stages["extended"]["linear"] is expected, name


def test_reverse_report_all_fail(corpus):
    prog = corpus["reverse.trs"]
    report = build_report(prog, sizes=range(1, 5))
    assert report.verdicts["p_criterion"] == "fail"
    assert report.verdicts["extended_p"] == "fail"
    assert report.exit_code() == 1


STAGES = (
    ("ordering", "check_program"),
    ("qi", "check_qi"),
    ("blind", "is_linear"),
    ("semantics", "is_orthogonal"),
)


def count_stage_calls(monkeypatch) -> Counter:
    """Count the calls of each STAGES function: each is rebound in every
    polytrs module holding it, so calls through any import count."""
    calls: Counter = Counter()
    for home, name in STAGES:
        original = getattr(sys.modules[f"polytrs.{home}"], name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("polytrs.") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_build_report_runs_each_stage_once(corpus, monkeypatch):
    calls = count_stage_calls(monkeypatch)
    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    report = build_report(prog, asg, sizes=range(1, 5))
    assert report.exit_code() == 0
    assert calls["check_program"] == 3  # ppo, eppo and the blind image's ppo
    assert calls["check_qi"] == 2  # the program's and the transferred one
    assert calls["is_linear"] == 1
    assert calls["is_orthogonal"] == 1


def test_normalization_reuses_the_reports_fair_order(corpus, monkeypatch):
    """normalize takes the report's fair-order verdict and checks no path
    order again."""
    calls = count_stage_calls(monkeypatch)
    prog = corpus["append.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    stages = build_report(prog, asg, sizes=range(1, 5)).data["stages"]
    assert stages["extended"]["normal_equations"] == 3
    assert calls["check_program"] == 3


def test_tool_version_is_package_version(corpus):
    report = build_report(corpus["add.trs"], sizes=range(1, 3))
    assert report.data["tool_version"] == polytrs.__version__ == "0.1.0"


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)


def json_data(keys):
    return st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(keys, inner, max_size=4),
        max_leaves=25,
    )


@settings(max_examples=300, deadline=None)
@given(data=json_data(st.text()) | json_data(st.integers()))
def test_dump_json_matches_json_dumps(data):
    assert dump_json(data) == json.dumps(data, indent=2, sort_keys=True)


def nested(n: int) -> list:
    """[{"children": [{"children": [...]}]}], n dicts deep."""
    data: list = []
    inner = data
    for _ in range(n):
        inner.append({"children": []})
        inner = inner[-1]["children"]
    return data


def nested_text(n: int) -> str:
    lines = ["["]
    for i in range(n):
        pad = " " * (4 * i)
        lines += [pad + "  {", pad + '    "children": [' + ("]" if i == n - 1 else "")]
    for i in reversed(range(n)):
        pad = " " * (4 * i)
        lines += ([pad + "    ]"] if i < n - 1 else []) + [pad + "  }"]
    return "\n".join(lines + ["]"])


def test_dump_json_writes_any_depth():
    for n in (1, 2, 5):
        assert nested_text(n) == json.dumps(nested(n), indent=2, sort_keys=True)
    assert dump_json(nested(2000)) == nested_text(2000)


def chunks_of(data) -> list[str]:
    chunks: list[str] = []
    write_json(data, chunks.append)
    return chunks


def longest_line(text: str) -> int:
    return max(len(line) for line in text.splitlines(keepends=True))


@settings(max_examples=200, deadline=None)
@given(data=json_data(st.text()) | json_data(st.integers()))
def test_write_json_chunks_fit_in_a_line(data):
    chunks = chunks_of(data)
    text = "".join(chunks)
    assert text == dump_json(data)
    assert max(len(c) for c in chunks) <= longest_line(text)


def test_write_json_streams_deep_data_in_line_sized_chunks():
    chunks = chunks_of(nested(2000))
    assert len(chunks) > 4000
    assert max(len(c) for c in chunks) <= longest_line("".join(chunks))
