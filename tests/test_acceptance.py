"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; any failure shows up as a regular pytest failure.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

import pytest

from polytrs.base import Budget
from polytrs.bc import compile_bc, random_bc
from polytrs.blind import (
    blind_program,
    classify_growth,
    measure_strong_poly,
    program_is_linear,
    transfer_uniform_qi,
    word_length,
)
from polytrs.callgraph import call_dag
from polytrs.ordering import EPPO, PPO, check_program, infer_precedence, order_verdict
from polytrs.parser import parse_program, parse_term
from polytrs.qi import (
    check_qi,
    eval_expr,
    is_uniform,
    parse_assignment,
    term_qi,
)
from polytrs.semantics import derivable_value_set, eval_cbv, FirstMatch
from polytrs.terms import is_value, subterms, term_size, variables
from polytrs.wordnorm import is_normal, normalize

from .conftest import CORPUS, CORPUS_PROGRAMS, checked_cbv, checked_memo, load, symbols_of, t
from .bounds import (
    call_site_labels,
    max_constructor_constant,
    same_class_descendant_bound,
    same_class_paths,
)
from .reference import shape, value_qi
from .test_blind import brute_force_outcomes
from .test_semantics import dedup_equations, expected_running_shape

MULTI_LABEL = {
    "fib.trs": "f({0})",
    "trip.trs": "f({0})",
    "grid2.trs": "g({0}, {1})",
    "grid3.trs": "g3({0}, {1}, {2})",
    "twoclass.trs": "u({0}, {1})",
}


def word(n):
    return "s " * n + "0"


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_golden_derivation(corpus):
    start = time.monotonic()
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("f(s0 s1 nil)", prog))
    assert shape(proof.root) == expected_running_shape(prog)
    assert str(proof.result) == "nil"
    assert proof.stats.active_count == 3
    judgements = Counter((j.rule, str(j.lhs)) for j in proof.root.walk())
    assert judgements == Counter(
        {
            ("Function", "f(s0(s1(nil)))"): 1,
            ("Split", "append(f(s1(nil)), f(s1(nil)))"): 1,
            ("Function", "f(s1(nil))"): 2,
            ("Function", "append(nil, nil)"): 1,
            ("Constructor", "nil"): 3,
        }
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"golden derivation shape, active_count 3, {elapsed:.3f}s")


def test_criterion_2_blind_exponentiality(corpus):
    start = time.monotonic()
    bl = blind_program(corpus["running.trs"]).program
    table = measure_strong_poly(bl, sizes=range(2, 10))
    sizes = [r.worst_result_size for r in table.rows]
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128]
    assert not any(r.truncated for r in table.rows)
    # Exact brute-force cross-check as far as enumeration is feasible: the
    # outcome relation is doubly exponential past size six.
    lean = dedup_equations(bl)
    for row in table.rows:
        if row.size > 6:
            continue
        outcomes = brute_force_outcomes(lean, t("bl_f(" + word(row.size) + ")", lean))
        assert row.worst_rules == max(c for _, c in outcomes)
        assert row.worst_result_size == max(word_length(v) for v, _ in outcomes)
    assert classify_growth(sizes) == "exponential-consistent"
    assert classify_growth([r.worst_rules for r in table.rows]) == "exponential-consistent"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, f"worst results 1..128 = 2^(n-2), exponential-consistent, {elapsed:.1f}s")


def test_criterion_3_ordering_equivalence(corpus):
    prog = corpus["running.trs"]
    strict = infer_precedence(prog, PPO)
    assert strict is None  # no strict precedence orders the program
    fair = infer_precedence(prog, EPPO)
    ppo = check_program(prog, fair, PPO)
    assert not ppo.overall
    failing = [v for v in ppo.per_equation if not v.decreasing]
    assert [v.equation.index for v in failing] == [0]
    assert "s1(x)" in failing[0].failing_subgoal
    assert check_program(prog, fair, EPPO).overall
    bl = blind_program(prog).program
    assert check_program(bl, infer_precedence(bl, PPO), PPO).overall

    assert len(CORPUS_PROGRAMS) >= 15
    mismatches = []
    for name in CORPUS_PROGRAMS:
        p = corpus[name]
        orig_eppo = infer_precedence(p, EPPO) is not None
        image = blind_program(p).program
        bl_eppo = infer_precedence(image, EPPO) is not None
        bl_ppo = infer_precedence(image, PPO) is not None
        if not (orig_eppo == bl_eppo == bl_ppo):
            mismatches.append((name, orig_eppo, bl_eppo, bl_ppo))
    assert mismatches == []
    report(3, f"three-way equivalence on {len(CORPUS_PROGRAMS)} programs, 0 discrepancies")


def test_criterion_4_qi_verification(corpus):
    ap = corpus["append.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), ap)
    verdict = check_qi(ap, asg)
    assert verdict.overall == "valid"
    assert all(v.status == "valid" for v in verdict.per_equation)  # no Unknown

    cases = [
        ("running.trs", "running.qi"),
        ("fib.trs", "fib.qi"),
        ("append.trs", "append.qi"),
        ("add.trs", "add.qi"),
        ("mult.trs", "mult.qi"),
    ]
    invalids = 0
    for prog_name, qi_name in cases:
        prog = corpus[prog_name]
        assignment = parse_assignment((CORPUS / qi_name).read_text(), prog)
        v = check_qi(prog, assignment)
        for ob in v.per_equation:
            if ob.status != "invalid":
                continue
            invalids += 1
            eq = prog.equations[ob.equation_index]
            order = variables(eq.lhs)
            lhs = term_qi(assignment, eq.lhs, order)
            rhs = term_qi(assignment, eq.rhs, order)
            assert eval_expr(lhs, ob.witness) < eval_expr(rhs, ob.witness)
    assert invalids > 0  # the corpus does exercise the refutation path
    report(4, f"append valid symbolically; {invalids} invalid obligations re-refuted")


def test_criterion_5_memo_speedup(corpus):
    prog = corpus["doublerec.trs"]
    cbv_counts = {}
    memo_counts = {}
    for n in range(6, 13):
        term = t("dup(" + word(n) + ")", prog)
        cbv_counts[n] = checked_cbv(prog, term).stats.rule_count
        memo = checked_memo(prog, term)
        memo_counts[n] = memo.stats.rule_count
        updates = len(memo.cache_trace)
        assert updates == len({call for call, _ in memo.cache_trace})
        dag = call_dag(memo)
        assert dag.node_count() == updates
    ratios = [cbv_counts[n + 1] / cbv_counts[n] for n in range(6, 12)]
    assert all(r >= 1.8 for r in ratios)
    diffs = [memo_counts[n + 1] - memo_counts[n] for n in range(6, 12)]
    mean = sum(diffs) / len(diffs)
    assert all(abs(d - mean) <= 0.1 * mean for d in diffs)
    report(
        5,
        f"cbv ratios >= 1.8 (min {min(ratios):.2f}), memo steps {diffs} linear +-10%",
    )


def test_criterion_6_bc_property_suite():
    start = time.monotonic()
    for seed in range(200):
        bc = random_bc(seed, 4)
        comp = compile_bc(bc)
        prec = infer_precedence(comp.program, PPO)
        assert prec is not None, seed
        assert check_program(comp.program, prec, PPO).overall, seed
        assert program_is_linear(comp.program, prec), seed
        assert is_uniform(comp.qi, comp.program), seed
        assert check_qi(comp.program, comp.qi).overall == "valid", seed
        image = blind_program(comp.program)
        bl_prec = infer_precedence(image.program, PPO)
        assert bl_prec is not None, seed
        moved = transfer_uniform_qi(comp.qi, comp.program, image)
        assert check_qi(image.program, moved).overall == "valid", seed
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"200/200 compiled terms pass the whole pipeline, {elapsed:.1f}s")


def test_criterion_7_normalization_golden(corpus):
    prog = corpus["norm2rule.trs"]
    fair = order_verdict(prog, EPPO)
    out = normalize(prog, fair)
    eqs = [repr(e) for e in out.equations]
    assert eqs == [
        "f(s1(s1(s1(x)))) -> f(s0(s0(x)))",
        "f(s0(s0(x'))) -> f(s0(x'))",
        "f(s0(s1(x'))) -> f(s1(x'))",
    ]
    assert is_normal(out, fair.precedence).normal

    variant = corpus["norm2rule_nil.trs"]
    fair_v = order_verdict(variant, EPPO)
    norm_v = normalize(variant, fair_v)
    assert is_normal(norm_v, fair_v.precedence).normal
    checked = 0
    for n in range(0, 9):
        for bits in itertools.product("01", repeat=n):
            text = " ".join(f"s{b}" for b in bits) + (" nil" if n else "nil")
            call = f"f({text})"
            old = derivable_value_set(variant, t(call, variant))
            new = derivable_value_set(norm_v, t(call, norm_v))
            assert old == new, call
            checked += 1
    report(7, f"exact 3-rule system; result sets agree on {checked} inputs")


def _collect_commutation_groups(prog, dag, prec, max_length=6):
    labels = call_site_labels(prog, prec)
    groups = {}
    for node in dag.nodes():
        for path, end in same_class_paths(dag, node, labels, prec, max_length):
            if not path:
                continue
            image = frozenset(Counter(l.index for l in path).items())
            key = (id(node), image, path[-1].index)
            groups.setdefault(key, set()).add(end.state)
    return groups


def _multilabel_dags(corpus):
    out = []
    for name, shape in MULTI_LABEL.items():
        prog = corpus[name]
        prec = infer_precedence(prog, EPPO)
        assert is_normal(prog, prec).normal, name
        assert len(call_site_labels(prog, prec)) >= 2, name
        sizes = {
            "fib.trs": [word(8)],
            "trip.trs": [word(9)],
            "grid2.trs": [word(4), word(3)],
            "grid3.trs": [word(3), word(2), word(2)],
            "twoclass.trs": [word(4), word(3)],
        }[name]
        call = shape.format(*sizes)
        dag = call_dag(checked_memo(prog, t(call, prog)))
        out.append((name, prog, prec, dag))
    return out


def test_criterion_8_commutation(corpus):
    cases = _multilabel_dags(corpus)
    assert len(cases) >= 5
    pairs = 0
    for name, prog, prec, dag in cases:
        groups = _collect_commutation_groups(prog, dag, prec)
        for key, states in groups.items():
            assert len(states) == 1, (name, key, states)
        pairs += sum(1 for states in groups.values())
    assert pairs > 0
    report(8, f"{len(cases)} normal programs, {pairs} path groups, 0 violations")


def test_criterion_9_descendant_bound(corpus):
    nodes_checked = 0
    for name, prog, prec, dag in _multilabel_dags(corpus):
        for node in dag.nodes():
            check = same_class_descendant_bound(dag, node, prec, prog)
            assert check.holds, (name, check)
            assert check.branch_holds, (name, check)
            nodes_checked += 1
    report(9, f"(I+1)^M and branch caps on {nodes_checked} dag nodes")


def test_criterion_10_accounting_invariants(corpus):
    # checked_cbv / checked_memo already revalidate every proof produced
    # throughout the suite; this sweep re-runs the invariants on fresh
    # proofs from the whole corpus and adds the value sandwich.
    sandwich = parse_assignment(
        "qi s0(X) = X + 2\nqi s1(X) = X + 1\nqi s(X) = X + 1\nqi nil = 1\n"
        "qi 0 = 1\nqi true = 1\nqi false = 2\n",
        _sandwich_signature(),
    )
    a = max_constructor_constant(sandwich, _sandwich_signature())
    assert a == 2  # a non-uniform assignment makes the sandwich two-sided
    inputs = {
        "running.trs": ["f(s0 s1 nil)", "f(s0 s0 s1 nil)", "append(s1 nil, s0 nil)"],
        "append.trs": ["append(s0 s1 nil, s1 nil)"],
        "fib.trs": ["f(" + word(7) + ")"],
        "doublerec.trs": ["dup(" + word(9) + ")"],
        "add.trs": ["add(" + word(3) + ", " + word(2) + ")"],
        "mult.trs": ["mult(" + word(3) + ", " + word(3) + ")"],
        "flip.trs": ["flip(s0 s1 s0 nil)"],
        "even_odd.trs": ["even(" + word(6) + ")"],
        "grid2.trs": ["g(" + word(3) + ", " + word(3) + ")"],
        "identity.trs": ["id(" + word(4) + ")"],
    }
    proofs = 0
    values = set()
    for name, calls in inputs.items():
        prog = corpus[name]
        for call in calls:
            term = t(call, prog)
            cbv = checked_cbv(prog, term)  # validator + dependence bounds
            proofs += 1
            values.update(u for j in cbv.root.walk() for u in subterms(j.result))
            from polytrs.semantics import is_orthogonal

            if is_orthogonal(prog):
                memo = checked_memo(prog, term)  # + Read/Update linkage
                proofs += 1
                values.update(
                    u for j in memo.root.walk() for u in subterms(j.result)
                )
    sig = _sandwich_signature()
    dyadic = [t("nil", sig)]
    for _ in range(7):
        dyadic = dyadic + [
            parse_term(f"{c}({w})", symbols_of(sig))
            for w in dyadic
            if term_size(w) < 12
            for c in ("s0", "s1")
        ]
    values.update(dyadic)
    values.update(t(word(n), sig) for n in range(0, 12))
    small = [v for v in values if is_value(v) and term_size(v) <= 12]
    assert len(small) > 200
    for v in small:
        w = value_qi(sandwich, v)
        assert term_size(v) <= w <= a * term_size(v)
    report(
        10,
        f"{proofs} proofs revalidated; sandwich held on {len(small)} values <= 12",
    )


def _sandwich_signature():
    return parse_program(
        "constructors: s0/1 s1/1 s/1 nil/0 0/0 true/0 false/0\n"
        "functions: sink/1\n"
        "sink(x) -> x\n"
        "main: sink\n"
    )
