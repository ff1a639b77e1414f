from __future__ import annotations

import itertools
from collections import Counter

import pytest

from polytrs import callgraph, semantics, wordnorm
from polytrs.base import (
    Budget,
    BudgetExceeded,
    CycleDetected,
    DEFAULT_BUDGET,
    NormalizationError,
    NotWordProgram,
)
from polytrs.blind import blind_program, input_tuples, program_is_linear
from polytrs.callgraph import call_dag, reachable_states, state_text, successors
from polytrs.ordering import EPPO, PPO, infer_precedence, order_verdict
from polytrs.parser import format_program, parse_program, parse_term
from polytrs.qi import check_qi, parse_assignment
from polytrs.report import decide
from polytrs.semantics import derivable_value_set, is_orthogonal
from polytrs.terms import App, term_size
from polytrs.wordnorm import (
    BoundedValuesRow,
    certify_extended,
    is_normal,
    measure_bounded_values,
    normalization_diff,
    normalize,
    production_profile,
    word_pattern,
)

from .conftest import CORPUS, CORPUS_PROGRAMS, PARITY_BUDGETS, checked_memo, load, symbols_of, t
from .oracles import reference_successors
from .bounds import (
    call_site_labels,
    path_word,
    same_class_descendant_bound,
    same_class_paths,
    successors_of,
)

MULTI_LABEL = ["fib.trs", "trip.trs", "grid2.trs", "grid3.trs", "twoclass.trs"]


def word(prog, n):
    return "s " * n + "0"


def test_word_pattern_forms(corpus):
    prog = corpus["norm2rule.trs"]
    w = word_pattern(t("s1 s1 s1 x", prog))
    assert [c.name for c in w.prefix] == ["s1", "s1", "s1"]
    assert w.tail == "x"
    assert w.length == 3
    prog2 = corpus["fib.trs"]
    ground = word_pattern(t("s s 0", prog2))
    assert ground.tail is None
    assert ground.length == 3  # terminator counts for ground words


def test_word_pattern_rejects_trees():
    prog = parse_program(
        "constructors: node/2 leaf/0\nfunctions: f/1\nf(x) -> x\nmain: f\n"
    )
    with pytest.raises(NotWordProgram):
        word_pattern(t("node(leaf, leaf)", prog))


def test_production_profile_paper_example(corpus):
    prog = corpus["norm2rule.trs"]
    prec = infer_precedence(prog, EPPO)
    profile = production_profile(prog, prec)
    assert profile.per_class[prec.class_of("f")] == 2
    assert profile.per_equation == {0: 2, 1: 0}


def test_production_profile_trivial():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: f/1\nf(s x) -> f(x)\nf(0) -> 0\nmain: f\n"
    )
    prec = infer_precedence(prog, EPPO)
    assert production_profile(prog, prec).per_class[prec.class_of("f")] == 0


def test_production_profile_blind_running(corpus):
    bl = blind_program(corpus["running.trs"]).program
    prec = infer_precedence(bl, EPPO)
    profile = production_profile(bl, prec)
    assert profile.per_class[prec.class_of("bl_f")] == 1
    assert profile.per_class[prec.class_of("bl_append")] == 0


def test_is_normal_paper_example(corpus):
    prog = corpus["norm2rule.trs"]
    prec = infer_precedence(prog, EPPO)
    report = is_normal(prog, prec)
    assert not report.normal
    assert report.witnesses == ((1, 0, 1, 2),)  # rule 2's pattern has length 1 < 2


def test_is_normal_blind_running(corpus):
    bl = blind_program(corpus["running.trs"]).program
    prec = infer_precedence(bl, EPPO)
    assert is_normal(bl, prec).normal


def test_is_normal_trivial_constant_production():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: f/1\nf(s x) -> f(x)\nf(0) -> 0\nmain: f\n"
    )
    prec = infer_precedence(prog, EPPO)
    assert is_normal(prog, prec).normal


def test_normalize_golden(corpus):
    prog = corpus["norm2rule.trs"]
    fair = order_verdict(prog, EPPO)
    out = normalize(prog, fair)
    lines = format_program(out).splitlines()
    eqs = [l for l in lines if "->" in l]
    assert eqs == [
        "f(s1(s1(s1(x)))) -> f(s0(s0(x)))",
        "f(s0(s0(x'))) -> f(s0(x'))",
        "f(s0(s1(x'))) -> f(s1(x'))",
    ]
    assert is_normal(out, fair.precedence).normal
    diff = normalization_diff(prog, out)
    assert diff["equations_before"] == 2 and diff["equations_after"] == 3


def test_normalize_fixpoint(corpus):
    bl = blind_program(corpus["running.trs"]).program
    assert normalize(bl, order_verdict(bl, EPPO)).equations == bl.equations
    prog = corpus["fib.trs"]
    assert normalize(prog, order_verdict(prog, EPPO)).equations == prog.equations


def test_normalize_preserves_semantics(corpus):
    prog = corpus["norm2rule_nil.trs"]
    fair = order_verdict(prog, EPPO)
    out = normalize(prog, fair)
    assert is_normal(out, fair.precedence).normal
    symbols = symbols_of(prog)
    for n in range(0, 9):
        for bits in itertools.product("01", repeat=min(n, 6)):
            if len(bits) != n:
                continue
            text = " ".join(f"s{b}" for b in bits) + (" nil" if n else "nil")
            call_old = parse_term(f"f({text})", symbols)
            call_new = parse_term(f"f({text})", symbols_of(out))
            old = derivable_value_set(prog, call_old)
            new = derivable_value_set(out, call_new)
            assert old == new, text


def test_normalize_preserves_eppo_and_cost(corpus):
    from polytrs.blind import measure_strong_poly
    from polytrs.ordering import check_program

    prog = corpus["norm2rule_nil.trs"]
    fair = order_verdict(prog, EPPO)
    out = normalize(prog, fair)
    assert check_program(out, fair.precedence, EPPO).overall
    before = measure_strong_poly(prog, sizes=range(1, 8), inputs_cap=80)
    after = measure_strong_poly(out, sizes=range(1, 8), inputs_cap=80)
    for a, b in zip(before.rows, after.rows):
        assert b.worst_rules >= a.worst_rules  # never decreases complexity


def test_normalize_rejects_non_word():
    prog = parse_program(
        "constructors: node/2 leaf/0\nfunctions: f/1\nf(x) -> x\nmain: f\n"
    )
    with pytest.raises(NotWordProgram):
        normalize(prog, order_verdict(prog, EPPO))


def test_normalize_rejects_short_ground_pattern():
    # A ground pattern below the class production size cannot be extended.
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: f/1\n"
        "f(s s s x) -> f(s s x)\nf(0) -> 0\nmain: f\n"
    )
    with pytest.raises(NormalizationError):
        normalize(prog, order_verdict(prog, EPPO))


def test_call_site_labels(corpus):
    prog = corpus["twoclass.trs"]
    prec = infer_precedence(prog, EPPO)
    labels = call_site_labels(prog, prec)
    # two v-sites in u's rule, two u-sites in v's, plus add's own self-call
    assert len(labels) == 5
    assert sorted({l.callee for l in labels.values()}) == ["add", "u", "v"]


def test_path_word_single_edge(corpus):
    prog = corpus["fib.trs"]
    prec = infer_precedence(prog, EPPO)
    proof = checked_memo(prog, t("f(" + word(prog, 4) + ")", prog))
    dag = call_dag(proof)
    start = next(n.state for n in dag.nodes() if term_size(n.state.args[0]) == 5)
    target = next(n.state for n in dag.nodes() if n.state.symbol.name == "f" and term_size(n.state.args[0]) == 4)
    labels = path_word(dag, start, target, prog, prec)
    assert len(labels) == 1


def _dag_for(prog, text):
    return call_dag(checked_memo(prog, t(text, prog)))


def commutation_violations(prog, dag, prec, max_length=6):
    """(image, last label) pairs that land on different states."""
    labels = call_site_labels(prog, prec)
    bad = []
    for node in dag.nodes():
        groups = {}
        for word_labels, end in same_class_paths(dag, node, labels, prec, max_length):
            if not word_labels:
                continue
            key = (frozenset(Counter(l.index for l in word_labels).items()),
                   word_labels[-1].index)
            groups.setdefault(key, set()).add(end.state)
        for key, states in groups.items():
            if len(states) > 1:
                bad.append((node.state, key, states))
    return bad


def test_commutation_on_normal_programs(corpus):
    cases = {
        "fib.trs": "f(" + word(load("fib.trs"), 8) + ")",
        "trip.trs": "f(" + word(load("trip.trs"), 9) + ")",
        "grid2.trs": "g(s s s s 0, s s s 0)",
        "grid3.trs": "g3(s s s 0, s s 0, s s 0)",
        "twoclass.trs": "u(s s s s 0, s s s 0)",
    }
    assert set(cases) == set(MULTI_LABEL)
    for name, call in cases.items():
        prog = corpus[name]
        prec = infer_precedence(prog, EPPO)
        assert is_normal(prog, prec).normal, name
        labels = call_site_labels(prog, prec)
        assert len(labels) >= 2, name  # genuinely multi-label
        dag = _dag_for(prog, call)
        assert commutation_violations(prog, dag, prec) == [], name


def test_three_step_commutation_pair(corpus):
    # alpha beta gamma vs beta alpha gamma from the same grid corner
    prog = corpus["grid2.trs"]
    prec = infer_precedence(prog, EPPO)
    dag = _dag_for(prog, "g(s s s 0, s s s 0)")
    labels = call_site_labels(prog, prec)
    start = next(n for n in dag.nodes() if state_text(n.state).startswith("<g, s(s(s(0"))
    paths = same_class_paths(dag, start, labels, prec, max_length=3)
    ends = {}
    for word_labels, end in paths:
        seq = tuple(l.index for l in word_labels)
        ends[seq] = end.state
    a, b = 1, 2  # the two call sites of the descent rule
    for gamma in (a, b):
        lhs = ends.get((a, b, gamma))
        rhs = ends.get((b, a, gamma))
        assert lhs is not None and rhs is not None
        assert lhs == rhs


def test_descendant_bound_on_multilabel_dags(corpus):
    cases = {
        "fib.trs": "f(" + word(load("fib.trs"), 7) + ")",
        "trip.trs": "f(" + word(load("trip.trs"), 8) + ")",
        "grid2.trs": "g(s s s 0, s s s 0)",
        "grid3.trs": "g3(s s 0, s s 0, s s 0)",
        "twoclass.trs": "u(s s s 0, s s s 0)",
    }
    for name, call in cases.items():
        prog = corpus[name]
        prec = infer_precedence(prog, EPPO)
        dag = _dag_for(prog, call)
        for node in dag.nodes():
            check = same_class_descendant_bound(dag, node, prec, prog)
            assert check.holds, (name, check)
            assert check.branch_holds, (name, check)


def test_descendant_bound_chain():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: f/1\nf(s x) -> f(x)\nf(0) -> 0\nmain: f\n"
    )
    prec = infer_precedence(prog, EPPO)
    n = 6
    dag = _dag_for(prog, "f(" + "s " * n + "0)")
    root = next(iter(dag.roots))
    check = same_class_descendant_bound(dag, root, prec, prog)
    assert check.count == n
    assert check.bound == (root.state.size - 1 + 1) ** 1  # (I+1)^M with M = 1
    assert check.holds


def test_blind_running_memo_dag_bound(corpus):
    bl = blind_program(corpus["running.trs"]).program
    prec = infer_precedence(bl, EPPO)
    proof = checked_memo(bl, t("bl_f(" + "s " * 6 + "0)", bl), allow_nonconfluent=True)
    dag = call_dag(proof)
    for node in dag.nodes():
        assert same_class_descendant_bound(dag, node, prec, bl).holds


def test_strict_descent_along_same_class_edges(corpus):
    for name in MULTI_LABEL:
        prog = corpus[name]
        prec = infer_precedence(prog, EPPO)
        arity = prog.main.arity
        call = f"{prog.main.name}({', '.join(['s s s 0'] * arity)})"
        dag = _dag_for(prog, call)
        for node in dag.nodes():
            cls = prec.class_of(node.state.symbol.name)
            for _, child in successors_of(node):
                if prec.class_of(child.state.symbol.name) != cls:
                    continue
                pairs = list(zip(node.state.args, child.state.args))
                assert all(term_size(u) >= term_size(v) for u, v in pairs)
                assert any(term_size(u) > term_size(v) for u, v in pairs)


def test_measure_bounded_values_append(corpus):
    prog = corpus["append.trs"]
    rows = measure_bounded_values(prog, sizes=range(1, 11), inputs_cap=40)
    for row in rows:
        assert not row.truncated
        assert row.max_state_size <= row.size + 4


def test_measure_bounded_values_doubling(corpus):
    prog = corpus["grow.trs"]
    rows = measure_bounded_values(prog, sizes=range(1, 9), inputs_cap=8)
    sizes = [r.max_state_size for r in rows]
    # the doubling auxiliary makes the worst state roughly 2^n
    assert all(b >= 2 * a - 6 for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > 100


def test_measure_bounded_values_constant():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: k/0\nk -> s 0\nmain: k\n"
    )
    rows = measure_bounded_values(prog, sizes=range(1, 5))
    assert len({r.max_state_size for r in rows}) == 1


def test_measure_bounded_values_user_poly(corpus):
    from polytrs.qi import parse_expr

    prog = corpus["append.trs"]
    good = parse_expr("2*n + 6", ["n"], 1)
    rows = measure_bounded_values(prog, sizes=range(1, 9), user_poly=good, inputs_cap=30)
    assert all(r.poly_ok for r in rows)
    bad = parse_expr("2", ["n"], 1)
    rows = measure_bounded_values(prog, sizes=range(4, 7), user_poly=bad, inputs_cap=30)
    assert not any(r.poly_ok for r in rows)


def reference_value_rows(program, sizes, budget):
    """measure_bounded_values rebuilt from one unshared walk per input: each
    walk has its own successor map and outcome store."""
    rows = []
    for n in sizes:
        worst = count = 0
        truncated = False
        for args in input_tuples(program, program.main, n, 32, 0):
            try:
                states = reachable_states(program, App(program.main, tuple(args)), budget)
            except (BudgetExceeded, CycleDetected):
                truncated = True
                continue
            count += len(states)
            worst = max([worst] + [term_size(st) for st in states])
        rows.append(BoundedValuesRow(n, worst, count, truncated))
    return rows


@pytest.mark.parametrize("max_rules", PARITY_BUDGETS)
@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_shared_successor_map_keeps_rows_under_tight_budgets(corpus, name, max_rules):
    # Expansions that raised are not shared, and a walk pays for every
    # stored outcome state it reads, so every walk truncates where it would
    # on its own.
    prog = corpus[name]
    budget = DEFAULT_BUDGET if max_rules is None else Budget(max_rules=max_rules)
    got = measure_bounded_values(prog, sizes=range(1, 9), budget=budget)
    assert got == reference_value_rows(prog, range(1, 9), budget)


# The walk from m(b w) expands p(w).  The walk from m(a w) reads p(w) from the
# successor map and must still pay for h(w)'s outcome states; otherwise its
# next expansion, q(w), charges them to the call on h(a w), and that call can
# exceed a budget it fits on its own.
_SHARED_WALK = parse_program(
    "constructors: b/1 a/1 0/0\n"
    "functions: m/1 p/1 q/1 r/1 h/1\n"
    "m(b x) -> p(x)\n"
    "m(a x) -> q(x)\n"
    "m(a x) -> p(x)\n"
    "p(x) -> r(h(x))\n"
    "q(x) -> r(h(a x))\n"
    "r(y) -> y\n"
    "h(a x) -> a a h(x)\n"
    "h(b x) -> b b h(x)\n"
    "h(0) -> 0\n"
    "main: m\n"
)


@pytest.mark.parametrize("max_rules", PARITY_BUDGETS)
def test_successor_map_hit_charges_its_arguments(max_rules):
    budget = DEFAULT_BUDGET if max_rules is None else Budget(max_rules=max_rules)
    got = measure_bounded_values(_SHARED_WALK, sizes=range(1, 9), budget=budget)
    assert got == reference_value_rows(_SHARED_WALK, range(1, 9), budget)


def _expansion(expand, program, state, budget, store, paid, charged):
    """The edges of one expansion as (target, equation, occurrence), or the
    error it raised."""
    try:
        edges = expand(program, state, budget, store, paid, charged)
    except (BudgetExceeded, CycleDetected) as err:
        return type(err), str(err)
    return [(e.target, e.equation.index, e.occurrence) for e in edges]


@pytest.mark.parametrize("max_rules", [None, 8])
@pytest.mark.parametrize("name", [*CORPUS_PROGRAMS, "shared-walk"])
def test_successors_match_the_expansion_of_every_argument(corpus, name, max_rules):
    # Every state reachable from the inputs of sizes 1..6, walked as
    # measure_bounded_values walks them: one outcome store per program, one
    # paid set per input.  Both sides give the same edges in order, or the
    # same error, leave the same store and paid sets, and when they return,
    # charge the same arguments.
    prog = _SHARED_WALK if name == "shared-walk" else corpus[name]
    budget = DEFAULT_BUDGET if max_rules is None else Budget(max_rules=max_rules)
    store, ref_store = {}, {}
    for n in range(1, 7):
        for args in input_tuples(prog, prog.main, n, 32, 0):
            paid, ref_paid = set(), set()
            seen = {App(prog.main, tuple(args))}
            frontier = list(seen)
            while frontier:
                state = frontier.pop()
                charged, ref_charged = [], []
                got = _expansion(successors, prog, state, budget, store, paid, charged)
                ref = _expansion(
                    reference_successors, prog, state, budget, ref_store, ref_paid, ref_charged
                )
                assert got == ref, state_text(state)
                assert paid == ref_paid, state_text(state)
                if isinstance(got, list):  # what a raising expansion charged is dropped
                    assert charged == ref_charged, state_text(state)
                    for target, _, _ in got:
                        if target not in seen:
                            seen.add(target)
                            frontier.append(target)
    assert store == ref_store


# grid3 has nested calls as arguments; every call-site argument of reverse is
# a variable or a constructor term over variables, so it asks for none.
@pytest.mark.parametrize("name, asks", [("grid3.trs", True), ("reverse.trs", False)])
def test_measure_bounded_values_never_evaluates_a_value(corpus, monkeypatch, name, asks):
    prog = corpus[name]
    asked = []
    original = callgraph.derivable_value_set

    def recorded(program, term, *rest):
        asked.append(term)
        return original(program, term, *rest)

    monkeypatch.setattr(callgraph, "derivable_value_set", recorded)
    rows = measure_bounded_values(prog, sizes=range(1, 9))
    assert not any(r.truncated for r in rows)
    assert bool(asked) == asks
    assert not [a for a in asked if a.is_value]


def test_measure_bounded_values_expands_each_state_once(corpus, monkeypatch):
    prog = corpus["grid3.trs"]
    expanded = []
    original = callgraph.successors

    def counted(program, state, *rest):
        expanded.append(state)
        return original(program, state, *rest)

    monkeypatch.setattr(callgraph, "successors", counted)
    rows = measure_bounded_values(prog, sizes=range(1, 9))
    monkeypatch.undo()
    assert not any(r.truncated for r in rows)
    assert len(expanded) == len(set(expanded))
    reached = set()
    for n in range(1, 9):
        for args in input_tuples(prog, prog.main, n, 32, 0):
            reached |= reachable_states(prog, App(prog.main, tuple(args)))
    assert set(expanded) == reached
    assert len(expanded) < sum(r.states for r in rows)  # states are revisited


@pytest.mark.parametrize(
    "name, distinct", [("grid3.trs", 178), ("grid2.trs", 167), ("twoclass.trs", 209)]
)
def test_measure_bounded_values_derives_each_outcome_state_once(
    corpus, monkeypatch, name, distinct
):
    # One fresh outcome memo per walk derived 1,744, 1,390 and 1,390 states.
    prog = corpus[name]
    stores, derived = [], []
    walk, match = wordnorm.reachable_states, semantics.matching_equations

    def recorded_walk(program, initial, budget, successor_map, store):
        stores.append(store)
        return walk(program, initial, budget, successor_map, store)

    def recorded_match(program, call):
        derived.append(call)  # once per call state the outcome table derives
        return match(program, call)

    monkeypatch.setattr(wordnorm, "reachable_states", recorded_walk)
    monkeypatch.setattr(semantics, "matching_equations", recorded_match)
    rows = measure_bounded_values(prog)
    monkeypatch.undo()
    assert not any(r.truncated for r in rows)
    assert len({id(s) for s in stores}) == 1
    store = stores[0]
    assert len(store) == distinct
    assert len(derived) == len(set(derived))
    calls = {u for u in store if all(a.is_value for a in u.args)}  # not Constructor or Split
    assert set(derived) == calls


def extended(program, assignment=None, **kwargs):
    """certify_extended on the stages build_report hands it, and the
    extended overall verdict report.decide draws from them; the P-criterion
    facts play no part in it."""
    eppo = order_verdict(program, EPPO)
    qi = check_qi(program, assignment).overall if assignment is not None else None
    linear = eppo is not None and program_is_linear(program, eppo.precedence)
    orthogonal = is_orthogonal(program)
    verdict = certify_extended(program, eppo, qi, orthogonal, linear, **kwargs)
    eppo_pass = bool(eppo and eppo.overall)
    facts = (False, eppo_pass, qi, None, linear, orthogonal, verdict.bounded_values)
    return verdict, decide(*facts)[1]


def test_certify_bc_program_certified():
    from polytrs.bc import compile_bc, parse_bc

    comp = compile_bc(parse_bc((CORPUS / "add.bc").read_text()))
    verdict, overall = extended(comp.program, comp.qi, sizes=range(1, 6))
    assert verdict.bounded_values == "certified"
    assert overall == "certified-p"


def test_certify_running_empirical(corpus):
    prog = corpus["running.trs"]
    verdict, overall = extended(prog, sizes=range(1, 8))
    assert verdict.bounded_values == "empirical-poly"
    assert overall == "empirically-consistent"


def test_certify_blind_running_refuted(corpus):
    bl = blind_program(corpus["running.trs"]).program
    verdict, overall = extended(bl, sizes=range(2, 10))
    # no memo path: measured by call-by-value growth, not reachable states
    assert verdict.growth is not None and verdict.value_rows is None
    assert verdict.bounded_values == "empirical-exp"
    assert overall == "refuted"


def test_normalize_needs_a_passing_fair_order_verdict(corpus):
    prog = corpus["norm2rule.trs"]
    assert normalize(prog, order_verdict(prog, EPPO)).equations != prog.equations
    strict = order_verdict(corpus["append.trs"], PPO)
    assert strict.overall
    failing = order_verdict(corpus["running.trs"], EPPO, "f < append")
    assert not failing.overall
    for program, verdict in ((corpus["append.trs"], strict), (corpus["running.trs"], failing)):
        with pytest.raises(NormalizationError, match="fair path order"):
            normalize(program, verdict)
    with pytest.raises(NormalizationError, match="fair path order"):
        normalize(prog, None)
