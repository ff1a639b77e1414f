from __future__ import annotations

import pytest
from hypothesis import given, settings

from polytrs.base import (
    Budget,
    BudgetExceeded,
    CycleDetected,
    NoMatchingEquation,
    NonConfluentProgram,
    postorder,
)
from polytrs.parser import parse_program
from polytrs.semantics import (
    R_UPDATE,
    Exhaustive,
    FirstMatch,
    Seeded,
    classify,
    derivable_value_set,
    eval_cbv,
    eval_memo,
    is_orthogonal,
    overlapping_pairs,
    proof_to_json,
    validate_proof,
)
from polytrs.terms import App, term_size

from .conftest import CORPUS_PROGRAMS, checked_cbv, checked_memo, t
from .oracles import all_derivations
from .bounds import activation_growth, assembled_rule_bound, max_arity, max_dependence
from .reference import shape
from .strategies import values

from polytrs.blind import blind_program, input_tuples, word_length


def expected_running_shape(prog):
    """The derivation of f(s0 s1 nil) as the running example prints it."""
    nil = ("Constructor", "nil", "nil", ())
    f_s1 = ("Function", "f(s1(nil))", "nil", (nil,))
    ap = ("Function", "append(nil, nil)", "nil", (nil,))
    split = ("Split", "append(f(s1(nil)), f(s1(nil)))", "nil", (f_s1, f_s1, ap))
    return ("Function", "f(s0(s1(nil)))", "nil", (split,))


def test_golden_running_derivation(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    assert shape(proof.root) == expected_running_shape(prog)
    assert str(proof.result) == "nil"
    stats = proof.stats
    assert stats.active_count == 3  # distinct active judgements
    assert stats.active_occurrences == 4
    assert stats.rule_count == 8
    assert stats.rule_count == (
        stats.active_occurrences + stats.passive_count + stats.semi_active_count
    )


def test_value_evaluates_to_itself(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("nil", prog))
    assert proof.result == t("nil", prog)
    assert proof.stats.rule_count == 1
    assert proof.stats.active_count == 0


def test_stuck_term_raises(corpus):
    prog = corpus["running.trs"]
    with pytest.raises(NoMatchingEquation):
        checked_cbv(prog, t("f(s0 nil)", prog))


def test_budget_exceeded_on_nonterminating():
    prog = parse_program("constructors: 0/0\nfunctions: f/1\nf(x) -> f(x)\nmain: f\n")
    with pytest.raises(BudgetExceeded):
        next(iter(eval_cbv(prog, t("f(0)", prog), FirstMatch(), Budget(max_rules=500))))


def dedup_equations(program):
    """Drop syntactically duplicate equations (blinding keeps them)."""
    from polytrs.terms import Equation, Program

    seen = set()
    eqs = []
    for e in program.equations:
        key = (e.lhs_function.name, e.lhs_patterns, e.rhs)
        if key in seen:
            continue
        seen.add(key)
        eqs.append(Equation(e.lhs_function, e.lhs_patterns, e.rhs, len(eqs)))
    return Program(program.signature, tuple(eqs), program.main)


def test_exhaustive_blind_result_sizes(corpus):
    bl = dedup_equations(blind_program(corpus["running.trs"]).program)
    proofs, truncated = all_derivations(
        bl, t("bl_f(s s s s s 0)", bl), Budget(max_rules=4000), max_derivations=100_000
    )
    assert not truncated
    worst = max(word_length(p.result) for p in proofs)
    assert worst == 8  # output of length 2^(5-2)
    for p in proofs[:50]:
        validate_proof(bl, p)


def test_exhaustive_agrees_with_value_set(corpus):
    bl = dedup_equations(blind_program(corpus["running.trs"]).program)
    term = t("bl_f(s s s s 0)", bl)
    proofs, _ = all_derivations(bl, term, Budget(max_rules=4000), max_derivations=100_000)
    assert {p.result for p in proofs} == set(derivable_value_set(bl, term))


LOOP = parse_program("constructors: s/1 0/0\nfunctions: loop/1\nloop(x) -> loop(x)\nmain: loop\n")
COUNTDOWN = parse_program(
    "constructors: s/1 0/0\nfunctions: down/1\ndown(s x) -> down(x)\ndown(0) -> 0\nmain: down\n"
)


def down(k):
    """down(s^k 0), which enters the k + 1 states down(s^k 0), ..., down(0)."""
    return t("down(" + "s " * k + "0)", COUNTDOWN)


def test_value_set_detects_a_looping_state():
    with pytest.raises(CycleDetected):
        derivable_value_set(LOOP, t("loop(s 0)", LOOP))


@pytest.mark.parametrize("k", [0, 1, 5])
def test_value_set_state_budget_is_exact(k):
    assert derivable_value_set(COUNTDOWN, down(k), max_states=k + 1) == {t("0", COUNTDOWN)}
    with pytest.raises(BudgetExceeded):
        derivable_value_set(COUNTDOWN, down(k), max_states=k)


def test_state_budget_counts_only_new_states():
    store: dict = {}
    paid: set = set()
    derivable_value_set(COUNTDOWN, down(3), store, paid)
    # with down(s^3 0), ..., down(0) paid for, down(s^5 0) enters two states
    zero = {t("0", COUNTDOWN)}
    assert derivable_value_set(COUNTDOWN, down(5), store, set(paid), max_states=2) == zero
    with pytest.raises(BudgetExceeded):
        derivable_value_set(COUNTDOWN, down(5), store, set(paid), max_states=1)
    # a walk that has paid for nothing is charged all six, stored or not
    assert derivable_value_set(COUNTDOWN, down(5), store, set(), max_states=6) == zero
    with pytest.raises(BudgetExceeded):
        derivable_value_set(COUNTDOWN, down(5), store, set(), max_states=5)
    assert len(store) == 6


def test_a_state_on_a_cycle_is_never_stored():
    store: dict = {}
    for _ in range(2):  # the second walk meets the cycle again
        with pytest.raises(CycleDetected):
            derivable_value_set(LOOP, t("loop(s 0)", LOOP), store, set())
        assert store == {}


def test_first_match_deterministic(corpus):
    prog = corpus["fib.trs"]
    a = checked_cbv(prog, t("f(s s s s s s 0)", prog))
    b = checked_cbv(prog, t("f(s s s s s s 0)", prog))
    assert proof_to_json(a) == proof_to_json(b)


def test_seeded_reproducible(corpus):
    bl = blind_program(corpus["running.trs"]).program
    term = t("bl_f(s s s s 0)", bl)
    a = next(iter(eval_cbv(bl, term, Seeded(7))))
    b = next(iter(eval_cbv(bl, term, Seeded(7))))
    assert proof_to_json(a) == proof_to_json(b)
    validate_proof(bl, a)


def test_memo_running_example(corpus):
    prog = corpus["running.trs"]
    proof = checked_memo(prog, t("f(s0 s1 nil)", prog))
    assert str(proof.result) == "nil"
    f_entries = [
        (call, v)
        for call, v in proof.cache_trace
        if call.symbol.name == "f" and term_size(call.args[0]) == 2
    ]
    assert len(f_entries) == 1  # the duplicated call is cached once
    assert proof.stats.semi_active_count == 1  # and read back once


def test_memo_value_is_trivial(corpus):
    prog = corpus["running.trs"]
    proof = checked_memo(prog, t("s0 s1 nil", prog))
    assert proof.cache_trace == ()
    assert proof.stats.semi_active_count == 0


def test_cache_trace_lists_updates_as_their_subderivations_finish(corpus):
    # the cache trace is ordered, not only a set of entries: an Update
    # enters it when its subderivation is done, so in proof post-order
    proofs = 0
    for name in CORPUS_PROGRAMS:
        prog = corpus[name]
        for n in range(1, 5):
            for args in input_tuples(prog, prog.main, n, cap=3):
                try:
                    proof = checked_memo(prog, App(prog.main, args), allow_nonconfluent=True)
                except NoMatchingEquation:  # a partial function
                    continue
                updates = [
                    (j.lhs, j.result)
                    for j in postorder([proof.root], "children")
                    if j.rule == R_UPDATE
                ]
                assert list(proof.cache_trace) == updates, (name, args)
                proofs += 1
    assert proofs > 150


def test_memo_rejects_nonconfluent(corpus):
    bl = blind_program(corpus["running.trs"]).program
    with pytest.raises(NonConfluentProgram):
        eval_memo(bl, t("bl_f(s s 0)", bl))
    proof = eval_memo(bl, t("bl_f(s s 0)", bl), allow_nonconfluent=True)
    validate_proof(bl, proof)


def test_memo_speedup_on_doubly_recursive(corpus):
    prog = corpus["doublerec.trs"]
    for n in range(3, 13):
        term = t("dup(" + "s " * n + "0)", prog)
        memo = checked_memo(prog, term)
        updates = len(memo.cache_trace)
        distinct_states = len({call for call, _ in memo.cache_trace})
        assert updates == distinct_states
        # dup states n+1, xorb states at most 2
        assert updates <= n + 3
    cbv = checked_cbv(prog, t("dup(" + "s " * 10 + "0)", prog))
    memo = checked_memo(prog, t("dup(" + "s " * 10 + "0)", prog))
    assert cbv.stats.rule_count > 20 * memo.stats.rule_count


def test_semi_active_arity_bound(corpus):
    prog = corpus["doublerec.trs"]
    proof = checked_memo(prog, t("dup(" + "s " * 8 + "0)", prog))
    stats = proof.stats
    k = max_arity(prog)
    others = stats.rule_count - stats.semi_active_count
    assert stats.semi_active_count <= k * others


def test_cross_semantics_agreement(corpus):
    for name in ("fib.trs", "doublerec.trs", "add.trs", "mult.trs", "flip.trs"):
        prog = corpus[name]
        arity = prog.main.arity
        word = "s " * 4 + "0" if name != "flip.trs" else "s0 s1 s0 nil"
        args = ", ".join([word] * arity)
        term = t(f"{prog.main.name}({args})", prog)
        assert checked_cbv(prog, term).result == checked_memo(prog, term).result


def test_classify_constructor_only(corpus):
    prog = corpus["running.trs"]
    v = t("s0 s1 nil", prog)
    stats = checked_cbv(prog, v).stats
    assert stats.active_count == 0
    assert stats.rule_count == term_size(v)


def test_max_dependence_paper_example(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    split = proof.root.children[0]
    assert split.rule == "Split"
    dep = max_dependence(proof, split)
    assert dep.size == 1  # the judgement itself only: children are active


def test_max_dependence_constructor_tree(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("s0 nil", prog))
    dep = max_dependence(proof, proof.root)
    assert dep.size == 2
    assert dep.depth == 2


def test_max_dependence_rejects_active(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    with pytest.raises(ValueError):
        max_dependence(proof, proof.root)


def test_activation_growth(corpus):
    prog = corpus["running.trs"]
    # rhs sizes: 7, 7, 1, 1, 4, 4, 1 -- the duplicating rule dominates.
    assert activation_growth(prog) == 7
    ident = corpus["identity.trs"]
    assert activation_growth(ident) == 1


def test_assembled_rule_bound_holds_across_corpus(corpus):
    for name in ("running.trs", "fib.trs", "add.trs", "mult.trs", "flip.trs"):
        prog = corpus[name]
        arity = prog.main.arity
        word = "s " * 5 + "0" if name not in ("running.trs", "flip.trs") else "s0 s1 s0 nil"
        args = ", ".join([word] * arity)
        term = t(f"{prog.main.name}({args})", prog)
        proof = checked_cbv(prog, term)
        assert proof.stats.rule_count <= assembled_rule_bound(prog, proof)
        memo = checked_memo(prog, term)
        assert memo.stats.rule_count <= assembled_rule_bound(prog, memo)


def test_orthogonality(corpus):
    assert is_orthogonal(corpus["running.trs"])
    assert is_orthogonal(corpus["fib.trs"])
    assert not is_orthogonal(corpus["maxw.trs"])  # overlapping bases
    assert not is_orthogonal(blind_program(corpus["running.trs"]).program)
    pairs = overlapping_pairs(corpus["maxw.trs"])
    assert [(a.index, b.index) for a, b in pairs] == [(1, 2)]


def test_charged_cost_at_least_rule_count(corpus):
    prog = corpus["doublerec.trs"]
    proof = checked_memo(prog, t("dup(s s s s 0)", prog))
    assert proof.stats.charged_cost >= proof.stats.rule_count


@settings(max_examples=40, deadline=None)
@given(v=values(max_size=9))
def test_value_proofs_validate(corpus, v):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, v)
    assert proof.result == v
