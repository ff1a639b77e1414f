from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from polytrs import blind
from polytrs.base import (
    Budget,
    BudgetExceeded,
    CycleDetected,
    DEFAULT_BUDGET,
    NotWordProgram,
    QiError,
)
from polytrs.blind import (
    GrowthRow,
    blind_program,
    classify_growth,
    input_tuples,
    is_linear,
    measure_strong_poly,
    program_is_linear,
    transfer_uniform_qi,
    word_length,
    words_of_length,
)
from polytrs.ordering import EPPO, PPO, infer_precedence
from polytrs.parser import format_program, parse_program
from polytrs.qi import check_qi, eval_expr, parse_assignment
from polytrs.semantics import Exhaustive, eval_cbv, outcome_table, validate_proof
from polytrs.terms import App

from .conftest import CORPUS, CORPUS_PROGRAMS, PARITY_BUDGETS, checked_cbv, t
from .oracles import all_derivations
from .reference import blind_proof, filtered_compositions
from .test_semantics import COUNTDOWN, LOOP


def brute_force_outcomes(program, term):
    """Memoised exhaustive outcome sets (result length, rule count).

    Written directly against the semantics rules; independent of the
    production dynamic program it checks.
    """
    from polytrs.terms import apply_subst, is_value, matching_equations, term_size

    memo = {}

    def go(u):
        if is_value(u):
            return {(u, term_size(u))}
        if u in memo:
            return memo[u]
        out = set()
        if u.symbol.is_constructor or not all(is_value(a) for a in u.args):
            pools = [sorted(go(a), key=str) for a in u.args]
            import itertools

            for combo in itertools.product(*pools):
                vals = tuple(v for v, _ in combo)
                cost = 1 + sum(c for _, c in combo)
                if u.symbol.is_constructor:
                    from polytrs.terms import App

                    out.add((App(u.symbol, vals), cost))
                else:
                    from polytrs.terms import App

                    for v, c in go(App(u.symbol, vals)):
                        out.add((v, cost + c))
        else:
            for eq, sigma in matching_equations(program, u):
                for v, c in go(apply_subst(eq.rhs, sigma)):
                    out.add((v, 1 + c))
        memo[u] = out
        return out

    return go(term)


def test_blind_running_matches_paper_table(corpus):
    bl = blind_program(corpus["running.trs"])
    text = format_program(bl.program)
    assert "bl_f(s(s(x))) -> bl_append(bl_f(s(x)), bl_f(s(x)))" in text
    assert "bl_f(s(x)) -> x" in text
    assert "bl_f(0) -> 0" in text
    assert "bl_append(s(x), y) -> s(bl_append(x, y))" in text
    assert "bl_append(0, y) -> y" in text
    assert len(bl.program.equations) == 7  # equation count preserved
    assert bl.duplicate_groups == ((0, 1), (4, 5))


def test_blind_single_unary_isomorphic(corpus):
    prog = corpus["add.trs"]
    bl = blind_program(prog)
    assert len(bl.program.equations) == len(prog.equations)
    assert bl.duplicate_groups == ()


def test_blind_rejects_wide_constructors():
    prog = parse_program(
        "constructors: node/2 leaf/0\nfunctions: f/1\nf(x) -> x\nmain: f\n"
    )
    with pytest.raises(NotWordProgram):
        blind_program(prog)


def test_blind_proof_simulation(corpus):
    prog = corpus["running.trs"]
    bl = blind_program(prog)
    for text in ("f(s0 s1 nil)", "f(s1 s0 nil)", "append(s0 nil, s1 nil)"):
        proof = checked_cbv(prog, t(text, prog))
        image = blind_proof(bl, proof)
        validate_proof(bl.program, image)
        assert image.stats.rule_count == proof.stats.rule_count


def test_blind_value_lengths(corpus):
    prog = corpus["running.trs"]
    proof = checked_cbv(prog, t("s0 s1 s0 nil", prog))
    assert word_length(blind_proof(blind_program(prog), proof).result) == 3


def test_is_linear_running(corpus):
    prog = corpus["running.trs"]
    prec = infer_precedence(prog, EPPO)
    per = is_linear(prog, prec)
    assert per == {"f": False, "append": True}
    assert not program_is_linear(prog, prec)


def test_is_linear_append(corpus):
    prog = corpus["append.trs"]
    prec = infer_precedence(prog, PPO)
    assert program_is_linear(prog, prec)


def test_transfer_uniform_qi(corpus):
    prog = corpus["append.trs"]
    bl = blind_program(prog)
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    moved = transfer_uniform_qi(asg, prog, bl)
    assert eval_expr(moved.entries["s"], [Fraction(4)]) == 5
    assert check_qi(bl.program, moved).overall == "valid"


def test_transfer_rejects_nonuniform(corpus):
    prog = corpus["append.trs"]
    bl = blind_program(prog)
    skewed = parse_assignment(
        "qi s0(X) = X + 1\nqi s1(X) = X + 2\nqi nil = 1\nqi append(X, Y) = X + Y\n",
        prog,
    )
    with pytest.raises(QiError):
        transfer_uniform_qi(skewed, prog, bl)


def test_transfer_carries_over_only_the_entries_the_assignment_has(corpus):
    """s takes the first unary constructor's entry that exists; 0 has none,
    so the blind check reports the equations that need it as missing."""
    prog = corpus["append.trs"]
    bl = blind_program(prog)
    partial = parse_assignment("qi s1(X) = X + 1\nqi append(X, Y) = X + Y\n", prog)
    moved = transfer_uniform_qi(partial, prog, bl)
    assert moved.entries == {"s": partial.entries["s1"], "bl_append": partial.entries["append"]}
    verdict = check_qi(bl.program, moved)
    assert verdict.overall == "unknown"
    missing = [v.equation_index for v in verdict.per_equation if v.note]
    assert missing == [eq.index for eq in bl.program.equations if "0" in repr(eq)]
    assert {v.note for v in verdict.per_equation} == {None, "missing assignment entries"}


def test_measure_blind_running_doubles(corpus):
    bl = blind_program(corpus["running.trs"]).program
    table = measure_strong_poly(bl, sizes=range(2, 10))
    sizes = [r.worst_result_size for r in table.rows]
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128]
    assert not any(r.truncated for r in table.rows)
    assert classify_growth(sizes) == "exponential-consistent"
    assert classify_growth([r.worst_rules for r in table.rows]) == "exponential-consistent"


@pytest.mark.parametrize(
    "name, sizes",
    [
        # The full outcome relation of blind running is doubly exponential;
        # the oracle stays exact up to size 6, beyond which only the frozen
        # expected values in test_measure_blind_running_doubles remain
        # checkable.
        ("running.trs", range(2, 7)),
        ("append.trs", range(0, 5)),
        ("flip.trs", range(0, 6)),
        ("doublerec.trs", range(0, 6)),
    ],
    ids=["running", "append", "flip", "doublerec"],
)
def test_measure_matches_brute_force_oracle(corpus, name, sizes):
    from polytrs.blind import input_tuples
    from polytrs.terms import App
    from .test_semantics import dedup_equations

    bl = blind_program(corpus[name]).program
    table = measure_strong_poly(bl, sizes=sizes)
    lean = dedup_equations(bl)
    for row in table.rows:
        outcomes = set()
        for args in input_tuples(lean, lean.main, row.size):
            outcomes |= brute_force_outcomes(lean, App(lean.main, args))
        assert not row.truncated
        assert row.worst_rules == max(c for _, c in outcomes)
        assert row.worst_result_size == max(word_length(v) for v, _ in outcomes)


@pytest.mark.parametrize(
    "name, lean, terms",
    [
        # blind running keeps its duplicate equations out so that size 5
        # stays enumerable; the other images keep theirs, which multiplies
        # the derivation counts
        ("running.trs", True, ["bl_f(" + "s " * n + "0)" for n in (2, 3, 4, 5)]),
        ("append.trs", False, ["bl_append(0, 0)", "bl_append(s s 0, s 0)", "bl_append(s s s 0, 0)"]),
        ("flip.trs", False, ["bl_flip(" + "s " * n + "0)" for n in (0, 2, 4)]),
        ("doublerec.trs", False, ["bl_dup(" + "s " * n + "0)" for n in (0, 1, 3, 4)]),
    ],
    ids=["running", "append", "flip", "doublerec"],
)
def test_oracle_agrees_with_raw_enumeration(corpus, name, lean, terms):
    # Validate the oracle, the outcome table and the exhaustive policy's
    # derivation against straight derivation enumeration: per value, the
    # table holds the largest rule count and the number of derivations, and
    # the exhaustive proof is a valid derivation of the largest rule count.
    from .test_semantics import dedup_equations

    bl = blind_program(corpus[name]).program
    if lean:
        bl = dedup_equations(bl)
    for text in terms:
        term = t(text, bl)
        proofs, truncated = all_derivations(
            bl, term, Budget(max_rules=2000), max_derivations=50_000
        )
        assert not truncated
        raw = {(p.result, p.stats.rule_count) for p in proofs}
        assert raw == brute_force_outcomes(bl, term)
        per_value: dict = {}
        for p in proofs:
            per_value.setdefault(p.result, []).append(p.stats.rule_count)
        expected = {v: (max(costs), len(costs)) for v, costs in per_value.items()}
        assert outcome_table(bl, term) == expected
        worst = max(p.stats.rule_count for p in proofs)
        proof = next(iter(eval_cbv(bl, term, Exhaustive())))
        validate_proof(bl, proof)
        assert proof.stats.rule_count == worst
        assert max(per_value[proof.result]) == worst


def test_looping_program_rows_are_truncated():
    table = measure_strong_poly(LOOP, sizes=range(0, 3))
    assert [r.truncated for r in table.rows] == [True, True, True]
    assert [r.derivations for r in table.rows] == [0, 0, 0]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_rule_budget_truncates_at_the_state_count(k):
    # the one input of size k, down(s^k 0), enters the k + 1 states
    # down(s^k 0), ..., down(0); max_rules caps the states per input
    sizes = range(k, k + 1)
    fits = measure_strong_poly(COUNTDOWN, sizes=sizes, budget=Budget(max_rules=k + 1))
    short = measure_strong_poly(COUNTDOWN, sizes=sizes, budget=Budget(max_rules=k))
    assert len(input_tuples(COUNTDOWN, COUNTDOWN.main, k)) == 1
    assert fits.rows[0].as_dict() == {
        "n": k, "worst_rules": k + 2, "worst_result_size": 0, "derivations": 1, "truncated": False,
    }
    assert short.rows[0].truncated and short.rows[0].derivations == 0


def reference_growth_rows(program, sizes, budget):
    """measure_strong_poly rebuilt from one fresh outcome table per input."""
    rows = []
    for n in sizes:
        worst_rules = worst_result = derivations = 0
        truncated = False
        for args in input_tuples(program, program.main, n, 64, 0):
            try:
                outs = outcome_table(program, App(program.main, args), max_states=budget.max_rules)
            except (BudgetExceeded, CycleDetected):
                truncated = True
                continue
            for v, (cost, count) in outs.items():
                worst_rules = max(worst_rules, cost)
                worst_result = max(worst_result, word_length(v))
                derivations += count
        rows.append(GrowthRow(n, worst_rules, worst_result, derivations, truncated))
    return tuple(rows)


@pytest.mark.parametrize("max_rules", PARITY_BUDGETS)
@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_shared_outcome_store_keeps_growth_rows_under_tight_budgets(corpus, name, max_rules):
    # each input pays for every stored state it reads, so it truncates
    # where a fresh table would
    prog = corpus[name]
    budget = DEFAULT_BUDGET if max_rules is None else Budget(max_rules=max_rules)
    got = measure_strong_poly(prog, sizes=range(1, 9), budget=budget).rows
    assert got == reference_growth_rows(prog, range(1, 9), budget)


def reference_input_tuples(program, main, n, cap, seed):
    """input_tuples drawing every composition's pools afresh."""
    k = main.arity
    if k == 0:
        return [()]
    if k == 1:
        return [(w,) for w in words_of_length(program, n, cap, seed)]
    out = []
    comps = filtered_compositions(n, k)
    rng = random.Random(f"{seed}:{n}:comps")
    if len(comps) > cap:
        comps = rng.sample(comps, cap)
    per = max(2, int(cap ** (1 / k)) + 1)
    per_comp = max(1, (cap * 4) // len(comps))
    for comp in comps:
        pools = [words_of_length(program, c, per, seed) for c in comp]
        out.extend(itertools.islice(itertools.product(*pools), per_comp))
    return out


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_input_tuples_draw_each_pool_once(corpus, monkeypatch, name):
    prog = corpus[name]
    drawn = []

    def counted(program, n, cap, seed):
        drawn.append(n)
        return words_of_length(program, n, cap, seed)

    monkeypatch.setattr(blind, "words_of_length", counted)
    for n, cap, seed in itertools.product(range(9), (3, 32, 64), (0, 1)):
        drawn.clear()
        assert input_tuples(prog, prog.main, n, cap, seed) == reference_input_tuples(
            prog, prog.main, n, cap, seed
        )
        assert len(drawn) == len(set(drawn))
    # one pool dict shared by sizes 0..8, as a measurement shares it
    for cap, seed in itertools.product((3, 32, 64), (0, 1)):
        drawn.clear()
        pools: dict = {}
        for n in range(9):
            assert input_tuples(prog, prog.main, n, cap, seed, pools) == (
                reference_input_tuples(prog, prog.main, n, cap, seed)
            )
        assert len(drawn) == len(set(drawn))


@pytest.mark.parametrize("k", range(2, 7))
def test_compositions_are_the_filtered_tuples_in_order(k):
    for n in range(9):
        assert blind._compositions(n, k) == filtered_compositions(n, k), n


def test_input_tuples_on_a_twelve_argument_main():
    # C(19, 11) = 75,582 compositions of 8 into 12 parts, sampled to the
    # cap, where the filter would scan 9^12 tuples
    xs = ", ".join(f"x{i}" for i in range(12))
    prog = parse_program(
        f"constructors: s0/1 s1/1 nil/0\nfunctions: f/12\nf({xs}) -> nil\nmain: f\n"
    )
    tuples = input_tuples(prog, prog.main, 8)
    assert tuples and all(len(args) == 12 for args in tuples)
    assert all(sum(word_length(a) for a in args) == 8 for args in tuples)
    assert len({tuple(word_length(a) for a in args) for args in tuples}) == 64


def test_measure_append_linear(corpus):
    prog = corpus["append.trs"]
    table = measure_strong_poly(prog, sizes=range(1, 33), inputs_cap=80)
    rules = [r.worst_rules for r in table.rows]
    assert classify_growth(rules) == "polynomial-consistent"
    # every length composition is covered, so the column moves in fixed steps
    assert all(b - a == 2 for a, b in zip(rules, rules[1:]))


def test_measure_constant_program():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: k/0\nk -> s 0\nmain: k\n"
    )
    table = measure_strong_poly(prog, sizes=range(1, 6))
    assert len({r.worst_rules for r in table.rows}) == 1
    assert {r.worst_result_size for r in table.rows} == {1}


def test_growth_table_csv(corpus):
    bl = blind_program(corpus["running.trs"]).program
    table = measure_strong_poly(bl, sizes=range(2, 6))
    csv = table.as_csv()
    assert csv.splitlines()[0] == "n,worst_rules,worst_result_size,derivations,truncated"
    assert len(csv.splitlines()) == 5


def test_original_bounded_by_blind(corpus):
    prog = corpus["running.trs"]
    bl = blind_program(prog).program
    orig = measure_strong_poly(prog, sizes=range(2, 8), inputs_cap=70)
    image = measure_strong_poly(bl, sizes=range(2, 8))
    for a, b in zip(orig.rows, image.rows):
        assert a.worst_rules <= b.worst_rules


def test_words_of_length_enumeration(corpus):
    prog = corpus["running.trs"]
    assert len(words_of_length(prog, 3, cap=64)) == 8  # 2^3 over one terminator
    sampled = words_of_length(prog, 10, cap=16, seed=1)
    assert len(sampled) == 16
    assert words_of_length(prog, 10, cap=16, seed=1) == sampled  # seeded


def test_strong_poly_theorem_bound_on_corpus(corpus):
    """Strict order + valid QI + linear: rows stay under an assembled bound."""
    from .bounds import strong_poly_bound

    for name, qi_name in (("add.trs", "add.qi"), ("mult.trs", "mult.qi"), ("flip.trs", None)):
        prog = corpus[name]
        prec = infer_precedence(prog, PPO)
        assert prec is not None and program_is_linear(prog, prec), name
        if qi_name is None:
            asg = parse_assignment(
                "qi s0(X) = X + 1\nqi s1(X) = X + 1\nqi nil = 1\nqi flip(X) = X\n",
                prog,
            )
        else:
            asg = parse_assignment((CORPUS / qi_name).read_text(), prog)
        assert check_qi(prog, asg).overall == "valid", name
        table = measure_strong_poly(prog, sizes=range(1, 7), inputs_cap=16)
        for row in table.rows:
            assert row.worst_rules <= strong_poly_bound(prog, asg, prec, row.size), name
        # the blind image keeps the strict order, the transferred uniform
        # assignment and linearity, so its rows obey the same shape of bound
        image = blind_program(prog)
        bl_prec = infer_precedence(image.program, PPO)
        assert bl_prec is not None and program_is_linear(image.program, bl_prec), name
        moved = transfer_uniform_qi(asg, prog, image)
        assert check_qi(image.program, moved).overall == "valid", name
        bl_table = measure_strong_poly(image.program, sizes=range(1, 7), inputs_cap=16)
        for row in bl_table.rows:
            assert row.worst_rules <= strong_poly_bound(
                image.program, moved, bl_prec, row.size
            ), name
