from __future__ import annotations

import os
import subprocess
import sys

import pytest

from polytrs.bc import compile_bc, random_bc
from polytrs.blind import blind_program
from polytrs.callgraph import call_dag, call_tree, reachable_states, state_text, successors
from polytrs.ordering import EPPO, PPO, infer_precedence, order_verdict
from polytrs.parser import parse_program, parse_term
from polytrs.qi import parse_assignment
from polytrs.terms import App, Equation, term_size
from polytrs.wordnorm import normalize

from .conftest import CORPUS, checked_cbv, checked_memo, symbols_of, t
from .bounds import (
    check_edge_class_descent,
    max_children,
    ppo_descendant_bound,
    rank_stats,
    same_class_descendant_counts,
    subtree_sizes,
)
from .reference import value_qi


def word(prog, n, letter="s", end="0"):
    return t(letter + " " + (letter + " ") * (n - 1) + end if n else end, prog)


def test_call_tree_running_example(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    tree = call_tree(proof)
    assert len(tree.roots) == 1
    root = tree.roots[0]
    assert state_text(root.state) == "<f, s0(s1(nil))>"
    kids = [state_text(c.state) for _, c in root.children]
    assert kids == ["<f, s1(nil)>", "<f, s1(nil)>", "<append, nil, nil>"]
    assert root.children[0][1] is root.children[1][1]  # the repeated call's one node
    assert tree.node_count() == 3
    assert sum(subtree_sizes(tree)[r] for r in tree.roots) == 4


def test_call_tree_of_value_is_empty(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("s0 s1 nil", prog))
    assert call_tree(proof).node_count() == 0


def test_call_tree_node_count_is_active_occurrences(corpus):
    prog = corpus["fib.trs"]
    proof = checked_cbv(prog, t("f(s s s s s s 0)", prog))
    tree = call_tree(proof)
    sizes = subtree_sizes(tree)
    assert sum(sizes[r] for r in tree.roots) == proof.stats.active_occurrences
    # one node per distinct active judgement, each numbered once
    distinct = [j for j in proof.root.distinct() if j.is_active]
    assert tree.node_count() == len(sizes) == len(distinct) < proof.stats.active_occurrences


def test_call_tree_arity_bound(corpus):
    from .bounds import call_tree_arity

    for name in ("fib.trs", "running.trs", "grid3.trs", "mult.trs"):
        prog = corpus[name]
        k = call_tree_arity(prog)
        arity = prog.main.arity
        args = ", ".join(["s s s 0" if name != "running.trs" else "s0 s1 s0 nil"] * arity)
        proof = checked_cbv(prog, t(f"{prog.main.name}({args})", prog))
        assert max_children(call_tree(proof)) <= k, name


def test_call_dag_running_example(corpus):
    prog = corpus["running.trs"]
    proof = checked_memo(prog, t("f(s0 s1 nil)", prog))
    dag = call_dag(proof)
    assert dag.node_count() == 3  # update count
    assert sum(len(n.read_links) for n in dag.nodes()) == 1
    keys = {(n.state.symbol.name, n.state.args) for n in dag.nodes()}
    assert len(keys) == 3  # pairwise distinct states


def test_call_dag_of_value_is_empty(corpus):
    prog = corpus["running.trs"]
    proof = checked_memo(prog, t("nil", prog))
    assert call_dag(proof).node_count() == 0


def test_call_dag_doublerec_linear(corpus):
    prog = corpus["doublerec.trs"]
    proof = checked_memo(prog, t("dup(" + "s " * 10 + "0)", prog))
    dag = call_dag(proof)
    # dup states for sizes 0..10 plus the two xorb value combinations
    assert dag.node_count() == 13
    assert dag.node_count() == len(proof.cache_trace)


def test_successors_running_example(corpus):
    prog = corpus["running.trs"]
    edges = successors(prog, App(symbols_of(prog)["f"], (t("s0 s1 nil", prog),)))
    targets = sorted((state_text(e.target), e.occurrence) for e in edges)
    assert targets == [
        ("<append, nil, nil>", 0),
        ("<f, s1(nil)>", 1),
        ("<f, s1(nil)>", 2),
    ]


def test_successors_constructor_rhs_empty(corpus):
    prog = corpus["identity.trs"]
    assert successors(prog, App(symbols_of(prog)["id"], (t("s 0", prog),))) == []


def test_successors_blind_overlap(corpus):
    bl = blind_program(corpus["running.trs"])
    prog = bl.program
    edges = successors(prog, App(symbols_of(prog)["bl_f"], (t("s s 0", prog),)))
    # both duplicating instances contribute their three call sites
    eq_ids = {e.equation.index for e in edges}
    assert eq_ids == {0, 1}
    assert len(edges) == 6


def test_edges_agree_with_proof_structure(corpus):
    prog = corpus["fib.trs"]
    proof = checked_cbv(prog, t("f(s s s s 0)", prog))
    tree = call_tree(proof)
    for node in tree.nodes():
        realizable = {
            (state_text(e.target), e.equation.index, e.occurrence)
            for e in successors(prog, node.state)
        }
        for e, child in node.children:
            assert (state_text(child.state), e.equation.index, e.occurrence) in realizable


def test_reachable_states_matches_tree_states(corpus):
    prog = corpus["fib.trs"]
    proof = checked_cbv(prog, t("f(s s s s s 0)", prog))
    tree_states = {n.state for n in call_tree(proof).nodes()}
    reach = reachable_states(prog, App(prog.main, (word(prog, 5),)))
    assert tree_states <= reach


def test_edge_class_descent_everywhere(corpus):
    for name in ("running.trs", "fib.trs", "mult.trs", "twoclass.trs"):
        prog = corpus[name]
        prec = infer_precedence(prog, EPPO)
        assert prec is not None, name
        arity = prog.main.arity
        args = ", ".join(["s s s 0" if name != "running.trs" else "s0 s1 s0 nil"] * arity)
        proof = checked_cbv(prog, t(f"{prog.main.name}({args})", prog))
        check_edge_class_descent(call_tree(proof), prec)


def test_rank_stats_running_example(corpus):
    prog = corpus["running.trs"]
    prec = infer_precedence(prog, EPPO)
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    report = rank_stats(call_tree(proof), prec, prog)
    by_symbols = {c.class_symbols: c for c in report.per_class}
    assert by_symbols[("append",)].node_count == 1
    assert by_symbols[("f",)].node_count == 3
    assert by_symbols[("f",)].max_same_class_descendants == 2
    assert report.holds


def test_rank_stats_linear_chain():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: f/1\nf(s x) -> f(x)\nf(0) -> 0\nmain: f\n"
    )
    prec = infer_precedence(prog, EPPO)
    proof = checked_cbv(prog, t("f(s s s s 0)", prog))
    tree = call_tree(proof)
    counts = same_class_descendant_counts(tree, prec)
    # A chain with n edges has A = n
    assert max(counts.values()) == 4
    assert tree.node_count() == 5
    assert rank_stats(tree, prec, prog).holds


def test_ppo_descendant_bound_on_dags(corpus):
    for name in ("fib.trs", "doublerec.trs", "grid2.trs"):
        prog = corpus[name]
        prec = infer_precedence(prog, PPO) or infer_precedence(prog, EPPO)
        arity = prog.main.arity
        args = ", ".join(["s s s s 0"] * arity)
        proof = checked_memo(prog, t(f"{prog.main.name}({args})", prog))
        for row in ppo_descendant_bound(call_dag(proof), prec):
            assert row["holds"], (name, row)


def test_qi_monotone_along_reachability(corpus):
    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    start = App(prog.main, (word(prog, 3), word(prog, 2)))
    for st in reachable_states(prog, start):
        assert value_qi(asg, st) <= value_qi(asg, start)


def test_dot_and_json_export(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    tree = call_tree(proof)
    dot = tree.to_dot()
    assert dot.startswith("digraph") and "<f, s1(nil)>" in dot
    data = tree.to_json()
    assert data["kind"] == "forest"
    assert data["nodes"] == ["<f, s0(s1(nil))>", "<f, s1(nil)>", "<append, nil, nil>"]
    assert [(e["from"], e["to"]) for e in data["edges"]] == [(0, 1), (0, 1), (0, 2)]
    assert dot.count("label=") == 6  # three nodes, three edges


SUCCESSOR_WALK = """
from polytrs.blind import blind_program
from polytrs.callgraph import state_text, successors
from polytrs.parser import parse_program, parse_term

def load(name):
    with open({corpus!r} + "/" + name, encoding="utf-8") as fh:
        return parse_program(fh.read())

running = load("running.trs")
cases = [
    (blind_program(running).program, "bl_f(s s s s s 0)"),
    (running, "f(s0 s1 s0 nil)"),
    (load("grid3.trs"), "g3(s s 0, s 0, s s 0)"),
    (load("mult.trs"), "mult(s s 0, s s 0)"),
]
for prog, text in cases:
    todo = [parse_term(text, {{s.name: s for s in prog.signature}})]
    seen = set(todo)
    while todo and len(seen) < 60:  # breadth-first, in edge order
        state = todo.pop(0)
        for e in successors(prog, state):
            print(state_text(state), state_text(e.target), e.equation.index, e.occurrence)
            if e.target not in seen:
                seen.add(e.target)
                todo.append(e.target)
"""


def fresh_output(code: str, seed: str) -> str:
    """What ``code`` prints in a fresh interpreter under PYTHONHASHSEED=seed."""
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_successor_order_is_the_same_under_every_hash_seed():
    # No sort fixes the edge order: it is the order in which the outcome
    # table derives each argument's values, which must not follow set order.
    code = SUCCESSOR_WALK.format(corpus=str(CORPUS))
    outputs = [fresh_output(code, seed) for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 100  # the walks reached many states


CERTIFY_THREE = """
from polytrs.cli import main

corpus = {corpus!r} + "/"
main(["certify", corpus + "grid3.trs"])
main(["certify", corpus + "twoclass.trs"])
main(["--qi", corpus + "running.qi", "certify", corpus + "running.trs"])
"""


def test_certify_bytes_are_the_same_in_every_process():
    # Terms and QI nodes hash by address, which differs from process to
    # process even under one hash seed: no report may follow that order.
    code = CERTIFY_THREE.format(corpus=str(CORPUS))
    outputs = [fresh_output(code, "1") for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count('"overall"') >= 3  # three whole reports


CERTIFY_AFTER_THROWAWAYS = """
from polytrs.cli import main
from polytrs.terms import FUNCTION, Symbol, Var

# Kept alive, so that every later symbol, variable and node sits elsewhere.
kept = [(Symbol(f"t{{n}}", FUNCTION, 1), Var(f"t{{n}}")) for n in range({throwaways})]
corpus = {corpus!r} + "/"
for name in ("reverse", "running", "twoclass", "mult"):
    main(["certify", corpus + name + ".trs"])
"""


def test_certify_bytes_do_not_follow_symbol_or_variable_addresses():
    # Symbols and variables hash by address too; one interpreter interns
    # thousands of throwaway ones first, so the two lay their atoms out apart.
    outputs = [
        fresh_output(CERTIFY_AFTER_THROWAWAYS.format(corpus=str(CORPUS), throwaways=n), "1")
        for n in (0, 3000)
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"overall"') >= 4  # four whole reports


def reference_calls(eq):
    """(position, subterm) of each function-headed rhs occurrence, pre-order,
    by a plain positional recursion."""
    out = []

    def go(u, pos):
        if isinstance(u, App):
            if u.symbol.is_function:
                out.append((pos, u))
            for i, a in enumerate(u.args):
                go(a, pos + (i,))

    go(eq.rhs, ())
    return out


def test_equation_calls_match_a_positional_walk(corpus):
    programs = {}
    for name, prog in corpus.items():
        programs[name] = prog
        programs[f"blind {name}"] = blind_program(prog).program
    for name in ("norm2rule.trs", "norm2rule_nil.trs"):
        prog = corpus[name]
        programs[f"normalized {name}"] = normalize(prog, order_verdict(prog, EPPO))
    for seed in range(200):
        programs[f"bc {seed}"] = compile_bc(random_bc(seed, 4)).program
    assert len(programs) == 18 * 2 + 2 + 200
    sites = 0
    for name, prog in programs.items():
        for eq in prog.equations:
            expected = [(pos, (occ, u)) for occ, (pos, u) in enumerate(reference_calls(eq))]
            assert list(eq.calls.items()) == expected, (name, eq)
            sites += len(expected)
    assert sites > 1000


def test_equation_equality_and_hash_ignore_calls(corpus):
    eq = corpus["running.trs"].equations[1]
    assert len(eq.calls) == 3
    # Equations are hash-consed: an equation built again is the one object,
    # calls included, and its calls cannot be replaced.
    twin = Equation(eq.lhs_function, eq.lhs_patterns, eq.rhs, eq.index)
    assert twin is eq and twin.calls is eq.calls
    assert twin == eq and hash(twin) == hash(eq) and repr(twin) == repr(eq)
    with pytest.raises(AttributeError):
        twin.calls = {}
