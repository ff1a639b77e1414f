from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from polytrs.blind import blind_program
from polytrs.cli import main
from polytrs.parser import format_program

from .conftest import CORPUS, CORPUS_PROGRAMS, load


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_parse_roundtrip(capsys):
    code, data = run_json(capsys, "parse", str(CORPUS / "running.trs"))
    assert code == 0
    assert data["program"].count("->") == 7
    assert len(data["digest"]) == 16


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.trs"
    bad.write_text("functions: f/1\nf(x) -> g(y)\nmain: f\n")
    code, data = run_json(capsys, "parse", str(bad))
    assert code == 3
    assert data["error"] == "parse-error"


def test_eval_running(capsys):
    code, data = run_json(capsys, "eval", str(CORPUS / "running.trs"), "f(s0 s1 nil)")
    assert code == 0
    assert data["result"] == "nil"
    assert data["stats"]["active_count"] == 3
    assert data["schema_version"] == 1
    proof = data["proof"]
    assert proof["root"] == len(proof["nodes"]) - 1  # premises come first
    assert proof["nodes"][proof["root"]]["rule"] == "Function"


def test_memo_and_dag(capsys):
    code, data = run_json(capsys, "memo", str(CORPUS / "running.trs"), "f(s0 s1 nil)")
    assert code == 0
    assert data["stats"]["semi_active_count"] == 1
    code, data = run_json(capsys, "dag", str(CORPUS / "running.trs"), "f(s0 s1 nil)")
    assert code == 0
    assert len(data["nodes"]) == 3


def test_tree_dot_output(capsys):
    code, out = run(
        capsys, "--format", "dot", "tree", str(CORPUS / "running.trs"), "f(s0 s1 nil)"
    )
    assert code == 0
    assert out.startswith("digraph")


def test_check_order_modes(capsys):
    code, data = run_json(
        capsys, "--mode", "ppo", "check-order", str(CORPUS / "running.trs")
    )
    assert code == 1
    assert data["overall"] is False
    code, data = run_json(
        capsys, "--mode", "eppo", "check-order", str(CORPUS / "running.trs")
    )
    assert code == 0
    assert data["overall"] is True


def test_check_order_explicit_precedence(capsys):
    code, data = run_json(
        capsys,
        "--order",
        "append < f ; s0 ~ s1",
        "--mode",
        "eppo",
        "check-order",
        str(CORPUS / "running.trs"),
    )
    assert code == 0 and data["overall"] is True


def test_check_qi_verdict_exit_codes(capsys):
    code, data = run_json(
        capsys,
        "--qi",
        str(CORPUS / "append.qi"),
        "check-qi",
        str(CORPUS / "append.trs"),
    )
    assert code == 0 and data["overall"] == "valid" and data["uniform"] is True
    code, data = run_json(
        capsys,
        "--qi",
        str(CORPUS / "running.qi"),
        "check-qi",
        str(CORPUS / "running.trs"),
    )
    assert code == 1 and data["overall"] == "invalid"


@pytest.mark.parametrize("head", ["append(X, X)", "append(X, 1)", "append(max, Y)"])
def test_bad_qi_parameter_exits_3(tmp_path, capsys, head):
    qi_file = tmp_path / "bad.qi"
    qi_file.write_text(f"qi nil = 1\nqi {head} = 1\n")
    code, data = run_json(
        capsys, "--qi", str(qi_file), "check-qi", str(CORPUS / "append.trs")
    )
    assert code == 3 and data["error"] == "parse-error"


def test_blind_command(capsys):
    code, data = run_json(capsys, "blind", str(CORPUS / "running.trs"))
    assert code == 0
    assert data["duplicate_equations"] == [[0, 1], [4, 5]]
    assert data["provenance"]["f"] == "bl_f"


def test_linearity_command(capsys):
    code, data = run_json(capsys, "linearity", str(CORPUS / "running.trs"))
    assert code == 1
    assert data["per_function"] == {"append": True, "f": False}


def test_normalize_command(capsys):
    code, data = run_json(capsys, "normalize", str(CORPUS / "norm2rule.trs"))
    assert code == 0
    assert data["diff"]["equations_after"] == 3
    assert data["normal"] is True


def test_bc_compile_command(capsys):
    code, data = run_json(capsys, "bc-compile", str(CORPUS / "add.bc"))
    assert code == 0
    assert "bc_rec_0" in data["program"]
    assert data["argument_split"]["bc_rec_0"] == {"normal": 1, "safe": 1}


def test_measure_csv(capsys):
    code, out = run(
        capsys,
        "--format",
        "csv",
        "--sizes",
        "2..6",
        "measure",
        str(CORPUS / "running.trs"),
    )
    assert code == 0
    assert out.splitlines()[0] == "n,worst_rules,worst_result_size,derivations,truncated"
    assert len(out.splitlines()) == 6


def test_measure_values_with_poly(capsys):
    code, data = run_json(
        capsys,
        "--sizes",
        "1..6",
        "measure",
        str(CORPUS / "append.trs"),
        "--kind",
        "values",
        "--poly",
        "2*n + 6",
    )
    assert code == 0
    assert all(r["poly_ok"] for r in data["rows"])


def test_certify_running_with_qi(capsys):
    code, data = run_json(
        capsys,
        "--qi",
        str(CORPUS / "running.qi"),
        "--sizes",
        "1..6",
        "certify",
        str(CORPUS / "running.trs"),
    )
    assert data["stages"]["ordering"]["ppo"]["overall"] is False
    assert data["stages"]["ordering"]["eppo"]["overall"] is True
    assert data["verdicts"]["p_criterion"] == "fail"
    assert data["stages"]["extended"]["overall"] == "empirically-consistent"
    assert code in (1, 2)


def test_certify_bc_pipeline(tmp_path, capsys):
    code, out = run(capsys, "bc-compile", str(CORPUS / "add.bc"))
    data = json.loads(out)
    prog_file = tmp_path / "add_compiled.trs"
    prog_file.write_text(data["program"])
    qi_file = tmp_path / "add_compiled.qi"
    qi_file.write_text(data["qi"])
    code, report = run_json(
        capsys, "--qi", str(qi_file), "--sizes", "1..5", "certify", str(prog_file)
    )
    assert code == 0
    assert report["verdicts"]["p_criterion"] == "pass"
    assert report["verdicts"]["blind_p"] == "pass"
    assert report["verdicts"]["extended_p"] == "pass"


def test_certify_deterministic_bytes(capsys):
    args = [
        "--qi",
        str(CORPUS / "append.qi"),
        "--sizes",
        "1..5",
        "certify",
        str(CORPUS / "append.trs"),
    ]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["--out", str(target), "parse", str(CORPUS / "append.trs")]
    )
    assert code == 0
    assert json.loads(target.read_text())["program"].count("->") == 3


def test_memo_nonconfluent_gate(tmp_path, capsys):
    code, out = run(capsys, "blind", str(CORPUS / "running.trs"))
    blind_text = json.loads(out)["program"]
    f = tmp_path / "blind.trs"
    f.write_text(blind_text)
    code, data = run_json(capsys, "memo", str(f), "bl_f(s s 0)")
    assert code == 3
    assert data["error"] == "non-confluent-program"
    code, data = run_json(
        capsys, "--allow-nonconfluent-memo", "memo", str(f), "bl_f(s s 0)"
    )
    assert code == 0


def test_certify_order_fixes_the_extended_precedence(capsys):
    """--order is the precedence of every stage, the extended one included."""
    code, data = run_json(
        capsys,
        "--qi",
        str(CORPUS / "mult.qi"),
        "--order",
        "mult < add",
        "--sizes",
        "1..4",
        "certify",
        str(CORPUS / "mult.trs"),
    )
    stages = data["stages"]
    assert stages["ordering"]["eppo"]["overall"] is False
    assert stages["extended"]["eppo"] == stages["ordering"]["eppo"]
    assert data["verdicts"]["extended_p"] != "pass"
    assert code == 1


def test_one_size_shows_no_constant_value_growth(capsys):
    """One measured row is constant by itself, so it claims nothing: fib,
    whose state sizes grow exponentially over 1..8, stays unknown at 8..8."""
    code, data = run_json(capsys, "--sizes", "8..8", "certify", str(CORPUS / "fib.trs"))
    extended = data["stages"]["extended"]
    assert len(extended["value_rows"]) == 1
    assert extended["bounded_values"] == "unknown"
    assert extended["overall"] == "unknown"
    assert data["verdicts"]["extended_p"] == "unknown"
    assert code == 2


def test_usage_error_bad_sizes_exits_3(capsys):
    code, data = run_json(capsys, "--sizes", "abc", "measure", str(CORPUS / "append.trs"))
    assert code == 3
    assert data["error"] == "usage"
    assert "--sizes" in data["message"]


def test_usage_error_unknown_command_exits_3(capsys):
    code, data = run_json(capsys, "frobnicate", "x")
    assert code == 3
    assert data["error"] == "usage"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: polytrs" in capsys.readouterr().out


def test_internal_error_exits_3(monkeypatch, capsys):
    import polytrs.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(polytrs.cli, "_dispatch", broken)
    code = main(["parse", str(CORPUS / "append.trs")])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "error": "internal-error",
        "message": "RuntimeError: boom",
    }
    assert "Traceback" in captured.err


def test_unwritable_out_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, data = run_json(capsys, "--out", str(target), "parse", str(CORPUS / "append.trs"))
    assert code == 3
    assert data["error"] == "io-error"


@pytest.mark.parametrize("sizes", ["-2..3", "5..3", "-1"])
def test_usage_error_sizes_out_of_order_or_negative(capsys, sizes):
    for command in ("measure", "certify"):
        code, data = run_json(capsys, f"--sizes={sizes}", command, str(CORPUS / "append.trs"))
        assert code == 3
        assert data["error"] == "usage"
        assert "--sizes" in data["message"]


def test_sizes_from_zero_measure(capsys):
    code, out = run(capsys, "--sizes", "0..2", "--format", "csv", "measure", str(CORPUS / "append.trs"))
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "1", "2"]


@pytest.mark.parametrize("policy", ["first", "seeded", "exhaustive"])
def test_stuck_term_is_no_matching_equation_under_every_policy(capsys, policy):
    code = main(["--policy", policy, "eval", str(CORPUS / "running.trs"), "f(s0 nil)"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"] == "no-matching-equation"
    assert "Traceback" not in captured.err


class ChunkRecorder:
    """A stdout that keeps every chunk written to it."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, chunk: str) -> int:
        self.chunks.append(chunk)
        return len(chunk)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("command", ["eval", "tree", "certify"])
def test_json_output_is_streamed_in_line_sized_chunks(monkeypatch, command):
    recorder = ChunkRecorder()
    monkeypatch.setattr("sys.stdout", recorder)
    trs = str(CORPUS / "running.trs")
    argv = [command, trs] if command == "certify" else [command, trs, "f(s0 s1 s0 nil)"]
    code = main(argv)
    monkeypatch.undo()
    text = "".join(recorder.chunks)
    assert code in (0, 1, 2)
    assert text.endswith("}\n")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    longest = max(len(line) for line in text.splitlines(keepends=True))
    assert len(recorder.chunks) > 10
    assert max(len(c) for c in recorder.chunks) <= longest


def test_parser_is_built_once_and_calls_share_no_state(capsys, monkeypatch):
    code, data = run_json(
        capsys, "--qi", str(CORPUS / "append.qi"), "check-qi", str(CORPUS / "append.trs")
    )
    assert code == 0 and data["overall"] == "valid"
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, data = run_json(capsys, "check-qi", str(CORPUS / "append.trs"))
    assert code == 3
    assert data == {"error": "usage", "message": "--qi FILE is required"}
    code, data = run_json(capsys, "--sizes", "abc", "measure", str(CORPUS / "append.trs"))
    assert code == 3 and data["error"] == "usage"
    code, data = run_json(capsys, "--sizes", "1..2", "measure", str(CORPUS / "append.trs"))
    assert code == 0 and [r["n"] for r in data["rows"]] == [1, 2]
    assert built == []  # later calls reuse the first call's parser


def test_measure_poly_under_kind_growth_is_a_usage_error(capsys):
    trs = str(CORPUS / "append.trs")
    code, data = run_json(capsys, "measure", "--poly", "n + 1", trs)
    assert code == 3
    assert data == {"error": "usage", "message": "--poly needs --kind values"}
    code, data = run_json(
        capsys, "--sizes", "1..2", "measure", "--poly", "n + 1", "--kind", "values", trs
    )
    assert code == 0 and len(data["rows"]) == 2


@pytest.mark.parametrize("order", ["f ~ zzz", "zzz ~ append", "append < zzz"])
def test_order_with_an_unknown_symbol_exits_3(capsys, order):
    code, data = run_json(capsys, "--order", order, "check-order", str(CORPUS / "running.trs"))
    assert code == 3 and data["error"] == "precedence-error"
    assert data["message"] == "unknown symbol zzz in precedence"


def test_order_pair_with_a_constructor_names_the_non_function(capsys):
    code, data = run_json(
        capsys, "--order", "append < s0", "check-order", str(CORPUS / "running.trs")
    )
    assert code == 3
    assert data == {
        "error": "precedence-error",
        "message": "order pair append < s0 mentions a non-function",
    }


@pytest.mark.parametrize("order", ["f < f", "append < f ; append ~ f"])
def test_order_pair_inside_a_class_exits_3(capsys, order):
    code, data = run_json(capsys, "--order", order, "check-order", str(CORPUS / "running.trs"))
    assert code == 3
    assert data == {"error": "precedence-error", "message": "cyclic precedence declaration"}


@pytest.mark.parametrize("order", ["f ~ ", "< f", "append <  < f", "f ~ append ~"])
def test_order_clause_with_an_empty_side_is_a_parse_error(capsys, order):
    code, data = run_json(capsys, "--order", order, "check-order", str(CORPUS / "running.trs"))
    assert code == 3
    clause = order.strip()
    assert data == {
        "error": "parse-error",
        "message": f"precedence clause {clause!r} has an empty side",
    }


def test_order_clause_mixing_order_and_equivalence_exits_3(capsys):
    code, data = run_json(
        capsys, "--order", "append < f ~ f", "check-order", str(CORPUS / "running.trs")
    )
    assert code == 3
    assert data == {
        "error": "parse-error",
        "message": "precedence clause 'append < f ~ f' mixes < and ~",
    }


def test_check_qi_with_a_second_line_for_a_symbol_exits_3(tmp_path, capsys):
    qi = tmp_path / "twice.qi"
    qi.write_text((CORPUS / "append.qi").read_text() + "qi append(X, Y) = X * Y\n")
    code, data = run_json(capsys, "--qi", str(qi), "check-qi", str(CORPUS / "append.trs"))
    assert code == 3
    assert data == {"error": "parse-error", "message": "5:1: second qi line for append"}


def test_a_zero_denominator_in_a_qi_file_or_poly_exits_3(tmp_path, capsys):
    qi = tmp_path / "zero.qi"
    qi.write_text("qi nil = 1\nqi append(X, Y) = X + Y + 1/0\n")
    trs = str(CORPUS / "append.trs")
    code, data = run_json(capsys, "--qi", str(qi), "check-qi", trs)
    assert code == 3
    assert data == {"error": "parse-error", "message": "2:1: constant 1/0 has a zero denominator"}
    code, data = run_json(capsys, "measure", "--kind", "values", "--poly", "1/0", trs)
    assert code == 3
    assert data == {"error": "parse-error", "message": "1:1: constant 1/0 has a zero denominator"}


def test_check_qi_above_the_branch_cap_is_invalid(tmp_path, capsys):
    # 13 distinct maxima give 8192 branch combinations, above qi.BRANCH_CAP:
    # append's subterm condition gets no normal form, so it is unknown (the
    # sampling cannot refute it), and the assignment is invalid.
    maxima = " + ".join(f"max(X, {i})" for i in range(1, 14))
    qi = tmp_path / "wide.qi"
    qi.write_text((CORPUS / "append.qi").read_text().replace("= X + Y", f"= {maxima} + Y"))
    code, data = run_json(capsys, "--qi", str(qi), "check-qi", str(CORPUS / "append.trs"))
    assert code == 1
    assert data["overall"] == "invalid"
    assert data["conditions"]["subterm"]["append"] == {"status": "unknown", "witness": None}


@pytest.mark.parametrize("flag", ["--budget-rules", "--budget-depth"])
def test_a_negative_budget_is_a_usage_error(capsys, flag):
    trs = str(CORPUS / "append.trs")
    code, data = run_json(capsys, flag, "-1", "eval", trs, "append(nil, nil)")
    assert code == 3
    assert data == {"error": "usage", "message": f"{flag} -1 is negative"}
    code, data = run_json(capsys, flag, "0", "eval", trs, "append(nil, nil)")
    assert data.get("error") != "usage"  # a budget of 0 is a budget
    # the exhaustive policy enumerates no derivations, so none are budgeted
    code, data = run_json(capsys, "--budget-derivations", "5", "eval", trs, "append(nil, nil)")
    assert code == 3 and data["error"] == "usage"


APPEND = str(CORPUS / "append.trs")
JSON_ONLY = {  # the flags and command line of each command that writes JSON alone
    "certify": ["certify", APPEND],
    "eval": ["eval", APPEND, "append(nil, nil)"],
    "memo": ["memo", APPEND, "append(nil, nil)"],
    "check-order": ["check-order", APPEND],
    "check-qi": ["--qi", str(CORPUS / "append.qi"), "check-qi", APPEND],
    "blind": ["blind", APPEND],
    "linearity": ["linearity", APPEND],
    "normalize": ["normalize", APPEND],
    "measure --kind values": ["measure", "--kind", "values", APPEND],
}
IGNORED_FORMATS = [(c, argv, f) for c, argv in JSON_ONLY.items() for f in ("csv", "dot")] + [
    ("tree", ["tree", APPEND, "append(nil, nil)"], "csv"),
    ("dag", ["dag", APPEND, "append(nil, nil)"], "csv"),
    ("measure --kind growth", ["measure", APPEND], "dot"),
]


@pytest.mark.parametrize("command, argv, fmt", IGNORED_FORMATS)
def test_a_format_the_command_does_not_write_is_a_usage_error(capsys, command, argv, fmt):
    code, data = run_json(capsys, "--format", fmt, *argv)
    assert code == 3
    assert data == {"error": "usage", "message": f"{command} does not write --format {fmt}"}


POLICY_FREE = {  # every command but eval and tree, with its command line
    **{command: argv for command, argv in JSON_ONLY.items() if command != "eval"},
    "parse": ["parse", APPEND],
    "dag": ["dag", APPEND, "append(nil, nil)"],
    "measure --kind growth": ["measure", APPEND],
    "bc-compile": ["bc-compile", str(CORPUS / "add.bc")],
}


@pytest.mark.parametrize("policy", ["seeded", "exhaustive"])
@pytest.mark.parametrize("command", sorted(POLICY_FREE))
def test_a_policy_the_command_does_not_use_is_a_usage_error(capsys, policy, command):
    code, data = run_json(capsys, "--policy", policy, *POLICY_FREE[command])
    assert code == 3
    message = f"{command.split()[0]} does not take --policy {policy}"
    assert data == {"error": "usage", "message": message}


def test_exhaustive_eval_prints_the_worst_derivation(tmp_path, capsys):
    # 764 rules under first match; the worst of the blind image's
    # derivations of bl_f(s^8 0) has 1,020
    trs = tmp_path / "blind.trs"
    trs.write_text(format_program(blind_program(load("running.trs")).program))
    term = "bl_f(" + "s " * 8 + "0)"
    rules = {}
    for policy in ("first", "exhaustive"):
        code, data = run_json(capsys, "--policy", policy, "eval", str(trs), term)
        assert code == 0
        rules[policy] = data["stats"]["rule_count"]
    assert rules == {"first": 764, "exhaustive": 1020}


def test_a_closed_stdout_exits_3_without_a_traceback():
    # a 900-letter append writes about 7 MB of JSON, far more than a pipe
    # buffers, so polytrs is still writing when its reader stops
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = ["eval", str(CORPUS / "append.trs"), "append(" + "s0 " * 900 + "nil, nil)"]
    with subprocess.Popen(
        [sys.executable, "-m", "polytrs", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 3
    assert err == b""


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_each_stage_command_writes_its_certify_stage(capsys, name):
    """blind, check-qi, linearity and check-order write what certify writes
    under the matching stage; the extended stage repeats the fair order."""
    trs = str(CORPUS / name)
    qi = (CORPUS / name).with_suffix(".qi")
    qi_args = ["--qi", str(qi)] if qi.exists() else []
    stages = run_json(capsys, *qi_args, "certify", trs)[1]["stages"]
    code, blind = run_json(capsys, "blind", trs)
    if code == 0:
        extra = {"ppo", "transferred_qi"}
        assert blind == {k: v for k, v in stages["blind"].items() if k not in extra}
    else:
        assert blind["message"] == stages["blind"]["error"]
    if qi_args:
        assert run_json(capsys, *qi_args, "check-qi", trs)[1] == stages["qi"]
    else:
        assert stages["qi"] is None
    for mode in ("ppo", "eppo"):
        order = run_json(capsys, "--mode", mode, "check-order", trs)[1]
        if "note" not in order:  # a precedence exists
            assert order == stages["ordering"][mode]
    eppo = stages["ordering"]["eppo"]
    assert stages["extended"]["eppo"] == (None if "note" in eppo else eppo)
    mode = "ppo" if "note" in eppo else "eppo"  # the report's choice
    linearity = run_json(capsys, "--mode", mode, "linearity", trs)[1]
    assert linearity == (stages["linearity"] or {"overall": None, "note": "no precedence found"})


def test_certify_with_a_partial_qi_file_is_unknown(tmp_path, capsys):
    """A uniform assignment without an entry for nil carries over to the
    blind image what it has; the blind check finds the rest missing."""
    qi = tmp_path / "partial.qi"
    qi.write_text("qi s0(X) = X + 1\n")
    argv = ["--qi", str(qi), "--sizes", "1..4", "certify", str(CORPUS / "append.trs")]
    code, data = run_json(capsys, *argv)
    assert code == 2
    stages = data["stages"]
    assert stages["qi"]["overall"] == "unknown" and stages["qi"]["uniform"] is True
    assert stages["blind"]["transferred_qi"] == "unknown"


def test_an_unknown_symbol_in_a_qi_line_is_a_parse_error_at_the_name(tmp_path, capsys):
    qi = tmp_path / "unknown.qi"
    qi.write_text("qi s0(X) = X + 1\nqi  f(X) = X\n")
    for command in ("check-qi", "certify"):
        code, data = run_json(capsys, "--qi", str(qi), command, str(CORPUS / "append.trs"))
        assert code == 3
        assert data == {"error": "parse-error", "message": "2:5: unknown symbol f"}
