"""A call-by-value proof shares the judgement of a repeated call.

Under FirstMatch a repeated call derives the same subproof, so the run keeps
one Function judgement per call term and the proof is a dag whose unfolding
is the derivation tree.  These tests hold sharing to the unshared tree: the
budget fails at the same judgement, the statistics count occurrences, the
proof and call-tree tables unfold to the unshared proof's, and the lemma
checks on distinct call nodes give the numbers of an occurrence walk.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import pytest

from polytrs.base import Budget, BudgetExceeded, TrsError
from polytrs.blind import blind_program
from polytrs.callgraph import call_tree
from polytrs.ordering import EPPO, infer_precedence, parse_precedence
from polytrs.parser import parse_term
from polytrs.semantics import (
    R_READ,
    R_UPDATE,
    DerivationStats,
    Exhaustive,
    FirstMatch,
    Judgement,
    Seeded,
    check_read_linkage,
    classify,
    eval_cbv,
    eval_memo,
    proof_to_json,
    validate_proof,
)
from polytrs.terms import format_term, term_size

from .conftest import checked_cbv, checked_memo, load, replace, symbols_of, unshare
from .oracles import all_derivations
from .bounds import (
    check_edge_class_descent,
    max_children,
    occurrence_counts,
    ppo_descendant_bound,
    rank_stats,
    subtree_sizes,
)
from .reference import blind_proof, proof_from_json, shape, unfold_call_tree
from .test_golden_eval import CASES, TERMS


def reference_classify(root: Judgement) -> DerivationStats:
    """DerivationStats counted over an occurrence walk of the unfolded tree."""
    rule_count = active_occ = passive = semi = max_active = charged = cache_size = 0
    distinct_active: set = set()
    per_symbol: Counter = Counter()
    for j in root.walk():
        rule_count += 1
        if j.is_active:
            active_occ += 1
            distinct_active.add((j.lhs, j.result))
            per_symbol[j.lhs.symbol.name] += 1
            max_active = max(max_active, term_size(j.lhs))
            if j.rule == R_UPDATE:
                charged += cache_size * term_size(j.lhs)
                cache_size += 1
        elif j.is_semi_active:
            semi += 1
            charged += cache_size * term_size(j.lhs)
        else:
            passive += 1
    return DerivationStats(
        rule_count=rule_count,
        active_count=len(distinct_active),
        active_occurrences=active_occ,
        passive_count=passive,
        semi_active_count=semi,
        max_active_size=max_active,
        per_symbol_active=dict(per_symbol),
        charged_cost=rule_count + charged,
    )


def cbv(program, term, budget=Budget()):
    return next(iter(eval_cbv(program, term, budget=budget)))


def dup(n: int) -> str:
    return "dup(" + "s " * n + "0)"


ORACLE_CASES = [
    ("doublerec", dup(5)),
    ("fib", "f(s s s s s s 0)"),
    ("trip", "f(s s s s s s s 0)"),
    ("running", "f(s0 s0 s1 s0 nil)"),
    ("running", "append(f(s1 s1 nil), s0 f(s1 s1 nil))"),  # a deeper repeat
]


@pytest.mark.parametrize("stem, text", ORACLE_CASES)
def test_budgets_fail_where_the_unfolded_tree_does(stem, text):
    """The run visits the judgement occurrences in pre-order, charging each
    one rule at its depth, so the tree of one unbudgeted proof predicts, for
    every budget, success or the term that BudgetExceeded names."""
    program = load(f"{stem}.trs")
    term = parse_term(text, symbols_of(program))
    full = cbv(program, term)
    occurrences = []  # (lhs, depth) in pre-order
    todo = [(full.root, 0)]
    while todo:
        j, depth = todo.pop()
        occurrences.append((j.lhs, depth))
        todo.extend((c, depth + 1) for c in reversed(j.children))
    size, height = len(occurrences), max(d for _, d in occurrences) + 1
    assert (full.root.size, full.root.height) == (size, height)
    for max_depth in range(height + 1):
        for max_rules in range(1, size + 2):
            stop = next(
                (
                    lhs
                    for k, (lhs, depth) in enumerate(occurrences, 1)
                    if k > max_rules or depth > max_depth
                ),
                None,
            )
            budget = Budget(max_rules=max_rules, max_depth=max_depth)
            if stop is None:
                proof = cbv(program, term, budget)
                assert proof.root.size == size and proof.stats == full.stats
            else:
                message = f"budget exceeded while evaluating {format_term(stop)[:80]}"
                with pytest.raises(BudgetExceeded) as caught:
                    cbv(program, term, budget)
                assert str(caught.value) == message, (max_rules, max_depth)


def corpus_proofs():
    """(label, proof) for the golden eval terms under cbv and memo, every
    derivation of maxw, the exhaustive policy's worst derivations of maxw
    and the blind running example, and doublerec at growing sizes."""
    for name, (stem, text) in TERMS.items():
        program = load(f"{stem}.trs")
        term = parse_term(text, symbols_of(program))
        try:
            yield f"{name}:cbv", cbv(program, term)
        except TrsError:
            continue  # a stuck term
        try:
            yield f"{name}:memo", eval_memo(program, term)
        except TrsError:
            pass  # memo refused on a non-orthogonal program
    maxw = load("maxw.trs")
    term = parse_term("maxw(s s 0, s 0)", symbols_of(maxw))
    for i, proof in enumerate(all_derivations(maxw, term)[0]):
        yield f"maxw:exhaustive:{i}", proof
    yield "maxw:worst", next(iter(eval_cbv(maxw, term, Exhaustive())))
    blind = blind_program(load("running.trs")).program
    term = parse_term("bl_f(s s s s 0)", symbols_of(blind))
    yield "blind-f:worst", next(iter(eval_cbv(blind, term, Exhaustive())))
    doublerec = load("doublerec.trs")
    for n in range(8):
        yield f"dup:{n}", cbv(doublerec, parse_term(dup(n), symbols_of(doublerec)))


PROOFS = dict(corpus_proofs())


@pytest.mark.parametrize("label", list(PROOFS))
def test_stats_count_occurrences(label):
    proof = PROOFS[label]
    assert proof.stats == reference_classify(proof.root)
    assert classify(unshare(proof.root)) == proof.stats


def test_a_repeated_call_is_one_judgement(corpus):
    program = corpus["doublerec.trs"]
    for n in range(2, 12):
        proof = checked_cbv(program, parse_term(dup(n), symbols_of(program)))
        split = proof.root.children[0]
        assert split.children[0] is split.children[1]  # dup(x), dup(x)
        assert proof.stats.rule_count == proof.root.size == 7 * 2**n - 4
        # per level a Function, its Split and its xorb call; xorb(0, 0) and
        # the base of the recursion once
        assert len(list(proof.root.distinct())) == 2 * n + 7


def test_shared_read_objects_keep_the_charged_cost(corpus):
    # a memo proof in which one Read object stands at two places: the
    # charged cost depends on each occurrence's place, so it is counted
    # over occurrences
    program = corpus["doublerec.trs"]
    proof = checked_memo(program, parse_term(dup(5), symbols_of(program)))
    first = next(j for j in proof.root.walk() if j.rule == R_READ and j.lhs.symbol.name == "xorb")
    shared = Judgement(R_READ, first.lhs, first.result)

    def swap(j):
        if j.rule == R_READ and j.lhs == first.lhs:
            return shared
        return replace(j, children=tuple(swap(c) for c in j.children))

    root = swap(proof.root)
    assert len(list(root.distinct())) < root.size
    assert classify(root) == reference_classify(root) == proof.stats


def table_cases():
    """(label, program, proof) for the ORACLE_CASES terms under cbv, and for
    each golden eval case that writes a proof: cbv and memo of every term,
    and the other policies and the non-confluent override."""
    for stem, text in ORACLE_CASES:
        program = load(f"{stem}.trs")
        yield f"{stem}:{text}", program, cbv(program, parse_term(text, symbols_of(program)))
    blind = blind_program(load("running.trs")).program
    for case_id, (flags, command, stem, text) in CASES.items():
        if command not in ("eval", "memo"):
            continue
        program = blind if stem is None else load(f"{stem}.trs")
        term = parse_term(text, symbols_of(program))
        policy = flags[flags.index("--policy") + 1] if "--policy" in flags else "first"
        try:
            if command == "memo":
                override = "--allow-nonconfluent-memo" in flags
                proof = eval_memo(program, term, allow_nonconfluent=override)
            else:
                choice = {"first": FirstMatch(), "seeded": Seeded(0), "exhaustive": Exhaustive()}
                proof = next(iter(eval_cbv(program, term, choice[policy])))
        except TrsError:
            continue  # a stuck term, or memo refused on a non-orthogonal program
        yield case_id, program, proof


def test_call_tree_and_json_unfold_the_shared_proof():
    """The proof table lists each judgement object once and the call tree
    each call node once; read back, the proof table is the unshared proof,
    and the call tree unfolds, numbered by occurrence, to the unshared
    proof's call tree."""
    cases = list(table_cases())
    assert len(cases) == len(ORACLE_CASES) + 36
    for label, program, proof in cases:
        data = json.loads(json.dumps(proof_to_json(proof)))
        assert len(data["nodes"]) == len(list(proof.root.distinct())), label
        rebuilt = proof_from_json(program, data)
        assert shape(rebuilt.root) == shape(unshare(proof.root)), label
        assert classify(rebuilt.root) == proof.stats, label
        validate_proof(program, rebuilt)
        if proof.mode == "memo":
            check_read_linkage(rebuilt)
            continue
        tree = call_tree(proof)
        active = [j for j in proof.root.distinct() if j.is_active]
        assert tree.node_count() == len(active), label
        ids = {n: i for i, n in enumerate(tree.nodes())}
        table = json.loads(json.dumps(tree.to_json()))
        unfolded = call_tree(replace(proof, root=unshare(proof.root))).to_json()
        assert unfold_call_tree(table, [ids[r] for r in tree.roots]) == unfolded, label


def weighted(rows: list) -> Counter:
    """ppo_descendant_bound rows, each counted as often as its node occurs."""
    out: Counter = Counter()
    for row in rows:
        out[tuple(sorted((k, v) for k, v in row.items() if k != "occurrences"))] += row["occurrences"]
    return out


def test_lemma_checks_on_distinct_nodes_count_occurrences():
    """The lemma checks visit each distinct call node once and weight it by
    its occurrences; every number equals the unshared tree's, where each
    node occurs once."""
    climbs = 0
    for stem, text in ORACLE_CASES:
        program = load(f"{stem}.trs")
        proof = checked_cbv(program, parse_term(text, symbols_of(program)))
        shared = call_tree(proof)
        tree = call_tree(replace(proof, root=unshare(proof.root)))
        sizes = subtree_sizes(shared)
        assert len(sizes) == shared.node_count() < tree.node_count(), text
        assert sum(sizes[r] for r in shared.roots) == tree.node_count(), text
        assert sum(occurrence_counts(shared).values()) == tree.node_count(), text
        assert set(occurrence_counts(tree).values()) == {1}, text
        assert max_children(shared) == max_children(tree), text
        prec = infer_precedence(program, EPPO)
        assert rank_stats(shared, prec, program) == rank_stats(tree, prec, program), text
        rows = ppo_descendant_bound(shared, prec)
        assert len(rows) == shared.node_count(), text
        assert weighted(rows) == weighted(ppo_descendant_bound(tree, prec)), text
        check_edge_class_descent(shared, prec)
        check_edge_class_descent(tree, prec)
        helper = next(f.name for f in program.functions if f != program.main)
        climbing = parse_precedence(f"{program.main.name} < {helper}", program)
        messages = []
        for structure in (shared, tree):
            try:
                check_edge_class_descent(structure, climbing)
                messages.append(None)
            except ValueError as exc:
                messages.append(str(exc))
        assert messages[0] == messages[1], text
        climbs += messages[0] is not None
    assert climbs == len(ORACLE_CASES) - 1  # f(s1 s1 nil) calls nothing


def test_call_tree_of_a_long_doubling_is_built_once_per_call(corpus):
    # dup(s^20 0) has 3 * 2^20 - 2 active occurrences but 23 distinct calls,
    # and the tree and its lemma checks visit each call once
    program = corpus["doublerec.trs"]
    term = parse_term(dup(20), symbols_of(program))
    proof = cbv(program, term, Budget(max_rules=10**8))
    start = time.perf_counter()
    tree = call_tree(proof)
    assert tree.node_count() == 23
    sizes = subtree_sizes(tree)
    assert sum(sizes[r] for r in tree.roots) == proof.stats.active_occurrences
    report = rank_stats(tree, infer_precedence(program, EPPO), program)
    assert sum(c.node_count for c in report.per_class) == proof.stats.active_occurrences
    assert time.perf_counter() - start < 1.0


def test_blind_proof_keeps_the_sharing(corpus):
    program = corpus["doublerec.trs"]
    proof = cbv(program, parse_term(dup(6), symbols_of(program)))
    image = blind_proof(blind_program(program), proof)
    assert image.stats == reference_classify(image.root)
    assert image.stats.rule_count == proof.stats.rule_count
    assert len(list(image.root.distinct())) == len(list(proof.root.distinct()))
    assert shape(image.root) == shape(blind_proof(
        blind_program(program), replace(proof, root=unshare(proof.root))
    ).root)
