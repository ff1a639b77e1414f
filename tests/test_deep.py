"""Deep inputs: ``Budget.max_depth`` is the only depth limit.

An n-letter append word nests its proof 2n + 1 judgements deep, and its call
tree n + 1 calls deep.  Every stage that follows the proof, the term or the
call structure runs on ``run_stack`` or an iterative walk, so these words
evaluate, check and print far beyond Python's recursion limit.  JSON this
deep is read back by its top-level lines only: ``json.loads`` itself
recurses once per nesting level.  The text readers run on ``run_stack`` too,
so neither a term nor a ``qi`` or ``--poly`` expression has a nesting limit,
and neither path-order checking nor algebra-term compilation adds one.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from polytrs.base import Budget
from polytrs.bc import bc_arity, parse_bc
from polytrs.blind import blind_program
from polytrs.callgraph import call_dag, call_tree
from polytrs.cli import main
from polytrs.parser import parse_program, parse_term
from polytrs.semantics import (
    check_dependence_bounds,
    check_read_linkage,
    eval_cbv,
    eval_memo,
    outcome_table,
    proof_to_json,
    validate_proof,
)
from polytrs.terms import format_term

from .conftest import CORPUS, symbols_of
from .oracles import all_derivations
from .reference import blind_proof

APPEND = str(CORPUS / "append.trs")


def word_call(n: int) -> str:
    return f"append({'s0 ' * n}nil, nil)"


def word_value(n: int) -> str:
    return "s0(" * n + "nil" + ")" * n


def run(tmp_path, *argv) -> tuple[int, str]:
    out = tmp_path / "out.json"
    code = main(["--out", str(out), *argv])
    return code, out.read_text()


def top_level(text: str, key: str):
    match = re.search(rf'^  "{key}": (.*?),?$', text, re.M)
    return json.loads(match.group(1))


COMMANDS = {
    "eval": ["eval"],
    "memo": ["memo"],
    "exhaustive": ["--policy", "exhaustive", "eval"],
    "tree": ["tree"],
    "dag": ["dag"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize(
    "n, budget", [(900, []), (1500, ["--budget-depth", "4000"])], ids=["900", "1500"]
)
def test_deep_word_through_the_cli(tmp_path, command, n, budget):
    code, text = run(tmp_path, *budget, *COMMANDS[command], APPEND, word_call(n))
    assert code == 0, text[:200]
    if command in ("tree", "dag"):
        data = json.loads(text)
        assert len(data["nodes"]) == n + 1
        assert len(data["edges"]) == n
        assert data["nodes"][-1] == "<append, nil, nil>"
    else:
        assert top_level(text, "result") == word_value(n)


def test_depth_budget_still_binds(tmp_path):
    code, text = run(tmp_path, "--budget-depth", "50", "eval", APPEND, word_call(100))
    assert code == 3
    assert json.loads(text)["error"] == "budget-exceeded"


@pytest.mark.parametrize("n, depth, ok", [(49, 100, True), (50, 100, False), (49, 99, True)])
def test_an_n_letter_word_needs_depth_2n_plus_1(tmp_path, n, depth, ok):
    code, _ = run(tmp_path, "--budget-depth", str(depth), "tree", APPEND, word_call(n))
    assert code == (0 if ok else 3)


@pytest.fixture(scope="module")
def deep(corpus):
    program = corpus["append.trs"]
    term = parse_term(word_call(1500), symbols_of(program))
    budget = Budget(max_depth=4000)
    cbv = next(iter(eval_cbv(program, term, budget=budget)))
    memo = eval_memo(program, term, budget)
    return program, term, budget, cbv, memo


def test_deep_word_checkers_and_walkers(deep):
    program, _, _, cbv, memo = deep
    expected = word_value(1500)
    assert format_term(cbv.result) == format_term(memo.result) == expected
    for proof in (cbv, memo):
        validate_proof(program, proof)
        check_dependence_bounds(proof)
        assert proof_to_json(proof)["mode"] == proof.mode
    check_read_linkage(memo)
    assert call_tree(cbv).node_count() == 1501
    assert call_dag(memo).node_count() == 1501


def test_deep_word_blind_proof(deep):
    program, _, _, cbv, _ = deep
    blind = blind_program(program)
    image = blind_proof(blind, cbv)
    validate_proof(blind.program, image)
    assert image.stats.rule_count == cbv.stats.rule_count


def test_deep_word_exhaustive_and_outcomes(deep):
    program, term, budget, cbv, _ = deep
    proofs, truncated = all_derivations(program, term, budget)
    assert not truncated
    assert [p.result for p in proofs] == [cbv.result]
    assert outcome_table(program, term) == {cbv.result: (cbv.stats.rule_count, 1)}


def test_deep_proof_and_tree_dunders(deep):
    # Judgements and call nodes compare and hash by identity and print
    # shallowly, so no dunder recurses down a 1500-letter proof.
    _, _, _, cbv, _ = deep
    root = cbv.root
    assert root == root and root != root.children[0]
    assert hash(root) == hash(root)
    assert repr(root).startswith("Judgement(Function, append(s0(")
    assert repr(call_tree(cbv).roots[0]).startswith("CallNode(<append, s0(")


def test_dependence_bounds_on_a_long_constructor_chain(corpus):
    # The argument word of append(nil, w) is one Constructor chain whose
    # every judgement roots a dependence; checking them is quadratic in |w|.
    program = corpus["append.trs"]
    term = parse_term(f"append(nil, {'s0 ' * 400}nil)", symbols_of(program))
    proof = next(iter(eval_cbv(program, term)))
    start = time.perf_counter()
    check_dependence_bounds(proof)
    assert time.perf_counter() - start < 2.0


def nested(text: str, depth: int = 3000) -> str:
    return "(" * depth + text + ")" * depth


def test_deep_parentheses_in_a_qi_line(tmp_path):
    qi = tmp_path / "deep.qi"
    qi.write_text(
        (CORPUS / "append.qi").read_text().replace("X + Y", nested("X") + " + Y")
    )
    code, text = run(tmp_path, "--qi", str(qi), "check-qi", APPEND)
    assert code == 0
    assert json.loads(text)["overall"] == "valid"


def test_deep_parentheses_in_a_poly(tmp_path):
    code, text = run(tmp_path, "measure", "--kind", "values", "--poly", nested("n"), APPEND)
    assert code == 0
    assert json.loads(text)["rows"]


def test_deep_lhs_pattern_parses(tmp_path):
    trs = tmp_path / "deep.trs"
    trs.write_text(
        f"constructors: s0/1 nil/0\nfunctions: f/1\nf({'s0 ' * 3000}nil) -> nil\nmain: f\n"
    )
    code, text = run(tmp_path, "parse", str(trs))
    assert code == 0
    assert json.loads(text)["program"].count("s0(") == 3000


def deep_program(tmp_path, equation: str) -> str:
    trs = tmp_path / "deep.trs"
    trs.write_text(f"constructors: s0/1 nil/0\nfunctions: f/1\n{equation}\nmain: f\n")
    return str(trs)


def test_deep_lhs_through_check_order_and_certify(tmp_path):
    trs = deep_program(tmp_path, f"f({'s0 ' * 3000}nil) -> nil")
    code, text = run(tmp_path, "check-order", trs)
    assert code == 0, text[:200]
    assert json.loads(text)["overall"] is True
    code, text = run(tmp_path, "certify", trs)
    assert code in (0, 1, 2), text[:200]
    assert json.loads(text)["stages"]["ordering"]["eppo"]["overall"] is True


def test_deep_failing_pair_is_explained(tmp_path):
    # rhs < lhs fails 3,000 constructors down, where f(nil) meets itself;
    # no precedence is inferred for a failing program, so one is given.
    trs = deep_program(tmp_path, f"f(nil) -> {'s0(' * 3000}f(nil){')' * 3000}")
    code, text = run(tmp_path, "--order", "f ~ f", "check-order", trs)
    assert code == 1, text[:200]
    (verdict,) = json.loads(text)["per_equation"]
    assert verdict["failing_subgoal"] == "no strictly decreasing argument in the product comparison"


def nested_comp(depth: int) -> str:
    term = "(zero)"
    for _ in range(depth):
        term = f"(comp (0 0) {term} () ())"
    return term


def test_deep_algebra_term_compiles(tmp_path):
    bc = tmp_path / "deep.bc"
    bc.write_text(nested_comp(1500))
    code, text = run(tmp_path, "bc-compile", str(bc))
    assert code == 0, text[:200]
    assert len(json.loads(text)["provenance"]) == 1501


def test_deep_algebra_term_dunders():
    # Algebra terms are hash-consed, so hash and == are C-level at any depth
    # and a repr shows a node's own numbers only.
    text = nested_comp(1500)
    term = parse_bc(text)
    assert parse_bc(text) is term and term == parse_bc(text)
    assert hash(term) == object.__hash__(term)
    assert bc_arity(term) == (0, 0)
    assert repr(term) == "BcSafeComp(0, 0, ..., ..., ...)"


def deep_qi(tmp_path, text: str) -> str:
    qi = tmp_path / "deep.qi"
    qi.write_text(text)
    return str(qi)


def test_deep_lhs_through_check_qi_and_certify(tmp_path):
    trs = deep_program(tmp_path, f"f({'s0 ' * 3000}nil) -> nil")
    qi = deep_qi(tmp_path, "qi s0(X) = X + 1\nqi nil = 1\nqi f(X) = X\n")
    code, text = run(tmp_path, "--qi", qi, "check-qi", trs)
    assert code == 0, text[:200]
    assert json.loads(text)["overall"] == "valid"
    code, text = run(tmp_path, "--qi", qi, "certify", trs)
    assert code == 0, text[:200]
    assert json.loads(text)["stages"]["qi"]["overall"] == "valid"


@pytest.mark.parametrize(
    "entry, overall",
    [
        ("(Y + " * 3000 + "X" + ")" * 3000, "valid"),
        # max(X, Y): append(s0 x, y) >= s0 append(x, y) fails at X = 0, Y = 1
        ("max(X, " * 3000 + "Y" + ")" * 3000, "invalid"),
    ],
    ids=["sum", "max"],
)
def test_deep_qi_expression_gets_a_verdict(tmp_path, entry, overall):
    qi = deep_qi(tmp_path, (CORPUS / "append.qi").read_text().replace("X + Y", entry))
    code, text = run(tmp_path, "--qi", qi, "check-qi", APPEND)
    assert code in (0, 1, 2), text[:200]
    assert json.loads(text)["overall"] == overall


def overlapping_program(tmp_path) -> str:
    return deep_program(
        tmp_path, f"f({'s0 ' * 3000}nil) -> nil\nf({'s0 ' * 3000}x) -> nil"
    )


def test_deep_overlapping_equations_through_certify(tmp_path):
    code, text = run(tmp_path, "certify", overlapping_program(tmp_path))
    assert code in (0, 1, 2), text[:200]


@pytest.mark.parametrize("command", ["memo", "dag"])
def test_deep_overlapping_equations_refuse_memoisation(tmp_path, command):
    code, text = run(tmp_path, command, overlapping_program(tmp_path), f"f({'s0 ' * 3000}nil)")
    assert code == 3, text[:200]
    assert json.loads(text)["error"] == "non-confluent-program"


def test_deep_lhs_proof_validates(tmp_path):
    program = parse_program(
        f"constructors: s0/1 nil/0\nfunctions: f/1\nf({'s0 ' * 3000}nil) -> nil\nmain: f\n"
    )
    term = parse_term(f"f({'s0 ' * 3000}nil)", symbols_of(program))
    proof = next(iter(eval_cbv(program, term)))
    validate_proof(program, proof)
    assert format_term(proof.result) == "nil"
