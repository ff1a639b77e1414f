from __future__ import annotations

import itertools
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrs import qi
from polytrs import terms as terms_module
from polytrs.base import ParseError, QiError, postorder
from polytrs.parser import parse_program
from polytrs.qi import (
    EXPONENT_CAP,
    GRID_CAP,
    GRID_POINTS,
    RANDOM_POINTS,
    Arg,
    Const,
    Max,
    Min,
    Prod,
    QiAssignment,
    Sum,
    check_conditions,
    check_qi,
    dominates,
    eval_expr,
    format_assignment,
    format_expr,
    is_uniform,
    max_posy_form,
    parse_assignment,
    parse_expr,
    substitute,
    term_qi,
    _refute,
    _sample_points,
    _Scaled,
)
from polytrs.terms import App, term_size

from .conftest import CORPUS, checked_cbv, load, symbols_of, t
from .oracles import reference_eval_expr
from .bounds import max_constructor_constant
from .reference import (
    decode_form,
    decode_posy,
    meet,
    reference_substitute,
    reference_term_expr,
    simplify,
    value_qi,
)
from .strategies import terms, values


def qi_points(arity, count=60, seed=3):
    import random

    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(Fraction(rng.randint(0, 40), rng.randint(1, 5)) for _ in range(arity))


def test_eval_expr_basics():
    assert eval_expr(Sum((Arg(0), Const(Fraction(1)))), [Fraction(4)]) == 5
    assert eval_expr(Max((Arg(0), Arg(1), Arg(2))), [2, 7, 3]) == 7
    assert eval_expr(Min((Arg(0), Const(Fraction(2)))), [5]) == 2
    assert eval_expr(Prod((Const(Fraction(3)), Arg(0))), [Fraction(1, 3)]) == 1


def test_eval_expr_bc_recursion_shape():
    # A*(q0+q1) + qg with q0 = q1 = A+X and qg = X, at A=3, X=2
    a, x = Arg(0), Arg(1)
    q = Sum((Prod((a, Sum((Sum((a, x)), Sum((a, x)))))), x))
    assert eval_expr(q, [3, 2]) == 3 * ((3 + 2) + (3 + 2)) + 2


def test_term_qi_composition(corpus):
    prog = corpus["running.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    e = term_qi(asg, t("s0 s1 x", prog))
    assert eval_expr(e, [Fraction(5)]) == 7
    assert eval_expr(term_qi(asg, t("append(x, y)", prog)), [2, 3]) == 5
    from polytrs.terms import Var

    assert term_qi(asg, Var("x")) == Arg(0)


def test_check_conditions_append(corpus):
    prog = corpus["append.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    report = check_conditions(asg, prog)
    assert report.ok
    assert report.subterm["append"][0] == "valid"


def test_subterm_failure_witness():
    prog = parse_program(
        "constructors: s/1 0/0\nfunctions: g/2\ng(x, y) -> x\nmain: g\n"
    )
    asg = QiAssignment(
        {
            "s": Sum((Arg(0), Const(Fraction(1)))),
            "0": Const(Fraction(1)),
            "g": Max((Arg(0),)),  # ignores its second argument
        }
    )
    report = check_conditions(asg, prog)
    status, witness = report.subterm["g"]
    assert status == "invalid"
    assert eval_expr(asg.entries["g"], witness) < witness[1]


def test_additivity_shape_enforced(corpus):
    prog = corpus["append.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    bad = QiAssignment({**asg.entries, "s0": Arg(0)})  # constant 0 < 1
    report = check_conditions(bad, prog)
    assert not report.additivity["s0"]


def test_check_qi_append_valid_symbolically(corpus):
    prog = corpus["append.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    verdict = check_qi(prog, asg)
    assert verdict.overall == "valid"
    assert all(v.status == "valid" for v in verdict.per_equation)


def test_check_qi_running_doubling_invalid(corpus):
    prog = corpus["running.trs"]
    asg = parse_assignment((CORPUS / "running.qi").read_text(), prog)
    verdict = check_qi(prog, asg)
    assert verdict.overall == "invalid"
    for v in verdict.per_equation:
        if v.status == "invalid":
            lhs, rhs = _obligation_sides(prog, asg, v.equation_index)
            assert eval_expr(lhs, v.witness) < eval_expr(rhs, v.witness)


def _obligation_sides(prog, asg, index):
    from polytrs.terms import variables

    eq = prog.equations[index]
    order = variables(eq.lhs)
    return term_qi(asg, eq.lhs, order), term_qi(asg, eq.rhs, order)


def test_check_qi_missing_entries_unknown(corpus):
    prog = corpus["running.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)  # no f entry
    verdict = check_qi(prog, asg)
    assert verdict.overall == "unknown"
    notes = {v.note for v in verdict.per_equation if v.status == "unknown"}
    assert "missing assignment entries" in notes


def test_mult_qi_valid(corpus):
    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    assert check_qi(prog, asg).overall == "valid"


def test_fib_qi_invalid_with_witness(corpus):
    prog = corpus["fib.trs"]
    asg = parse_assignment((CORPUS / "fib.qi").read_text(), prog)
    verdict = check_qi(prog, asg)
    assert verdict.overall == "invalid"
    wit = [v for v in verdict.per_equation if v.status == "invalid"]
    assert wit and wit[0].witness is not None


def test_is_uniform(corpus):
    prog = corpus["running.trs"]
    uniform = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    assert is_uniform(uniform, prog)
    skewed = parse_assignment(
        "qi s0(X) = X + 1\nqi s1(X) = X + 2\nqi nil = 1\n", prog
    )
    assert not is_uniform(skewed, prog)
    single = load("add.trs")
    assert is_uniform(parse_assignment((CORPUS / "add.qi").read_text(), single), single)


def test_meet_pointwise_glb(corpus):
    prog = corpus["append.trs"]
    a1 = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    a2 = parse_assignment(
        "qi s0(X) = X + 1\nqi s1(X) = X + 1\nqi nil = 1\nqi append(X, Y) = 2*X + Y\n",
        prog,
    )
    m = meet(a1, a2, prog)
    for p in qi_points(2):
        got = eval_expr(m.entries["append"], p)
        assert got == min(
            eval_expr(a1.entries["append"], p), eval_expr(a2.entries["append"], p)
        )
        # the glb of the two is the first one here: X+Y <= 2X+Y on R+
        assert got == eval_expr(a1.entries["append"], p)


def test_meet_idempotent(corpus):
    prog = corpus["append.trs"]
    a = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    m = meet(a, a, prog)
    for p in qi_points(2, count=25):
        assert eval_expr(m.entries["append"], p) == eval_expr(a.entries["append"], p)


def test_meet_of_valid_is_not_invalid(corpus):
    prog = corpus["mult.trs"]
    a1 = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    a2 = parse_assignment(
        "qi s(X) = X + 1\nqi 0 = 1\nqi add(X, Y) = X + Y + 1\n"
        "qi mult(X, Y) = 2*X*Y + X + Y + 1\n",
        prog,
    )
    for a in (a1, a2):
        assert check_qi(prog, a).overall == "valid"
    m = meet(a1, a2, prog)
    verdict = check_qi(prog, m)
    assert verdict.overall != "invalid"
    # sampling confirms the obligations pointwise
    from polytrs.terms import variables

    for eq in prog.equations:
        order = variables(eq.lhs)
        lhs, rhs = term_qi(m, eq.lhs, order), term_qi(m, eq.rhs, order)
        for p in qi_points(len(order), count=40):
            assert eval_expr(lhs, p) >= eval_expr(rhs, p)


def test_meet_incompatible_rejected(corpus):
    prog = corpus["append.trs"]
    a1 = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    a2 = parse_assignment(
        "qi s0(X) = X + 2\nqi s1(X) = X + 1\nqi nil = 1\nqi append(X, Y) = X + Y\n",
        prog,
    )
    with pytest.raises(QiError):
        meet(a1, a2, prog)


def test_meet_lower_bound_on_terms(corpus):
    prog = corpus["mult.trs"]
    a1 = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    a2 = parse_assignment(
        "qi s(X) = X + 1\nqi 0 = 1\nqi add(X, Y) = X + Y + 1\n"
        "qi mult(X, Y) = 2*X*Y + X + Y + 1\n",
        prog,
    )
    m = meet(a1, a2, prog)
    u = t("mult(s x, add(x, y))", prog)
    from polytrs.terms import variables

    order = variables(u)
    for p in qi_points(len(order), count=30):
        lo = eval_expr(term_qi(m, u, order), p)
        assert lo <= eval_expr(term_qi(a1, u, order), p)
        assert lo <= eval_expr(term_qi(a2, u, order), p)


def test_size_sandwich_on_generated_values(corpus):
    prog = corpus["running.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    a = max_constructor_constant(asg, prog)

    def words(size):
        if size == 1:
            yield t("nil", prog)
            return
        for rest in words(size - 1):
            for c in ("s0", "s1"):
                yield t(f"{c}({rest})", prog)

    for size in range(1, 13):
        for v in words(size):
            w = value_qi(asg, v)
            assert term_size(v) <= w <= a * term_size(v)


@settings(max_examples=50, deadline=None)
@given(v=values(max_size=10))
def test_size_sandwich_hypothesis(corpus, v):
    prog = corpus["running.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    a = max_constructor_constant(asg, prog)
    w = value_qi(asg, v)
    assert term_size(v) <= w <= a * term_size(v)


def test_value_qi_weighs_a_deep_word(corpus):
    prog = corpus["append.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    sym = symbols_of(prog)
    s0, nil = sym["s0"], sym["nil"]
    word = App(nil)
    for _ in range(1500):
        word = App(s0, (word,))
    assert value_qi(asg, word) == 1501


WEIGHTS = QiAssignment(
    {
        "s0": Sum((Arg(0), Const(Fraction(1)))),
        "s1": Prod((Const(Fraction(3, 2)), Max((Arg(0), Const(Fraction(2)))))),
        "nil": Const(Fraction(1, 3)),
        "pair": Sum((Min((Arg(0), Arg(1))), Prod((Arg(0), Arg(1))), Const(Fraction(1)))),
    }
)


@settings(max_examples=60, deadline=None)
@given(v=values(max_size=10, with_pair=True))
def test_value_qi_matches_the_term_expression(v):
    assert value_qi(WEIGHTS, v) == eval_expr(term_qi(WEIGHTS, v), [])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_weak_monotonicity_sampled(data):
    e = Sum((Prod((Const(Fraction(2)), Arg(0))), Max((Arg(0), Arg(1))), Const(Fraction(1))))
    lo = data.draw(st.tuples(st.integers(0, 30), st.integers(0, 30)))
    bump = data.draw(st.tuples(st.integers(0, 10), st.integers(0, 10)))
    hi = tuple(a + b for a, b in zip(lo, bump))
    assert eval_expr(e, lo) <= eval_expr(e, hi)


def test_subterm_lemma_term_level(corpus):
    prog = corpus["running.trs"]
    asg = parse_assignment((CORPUS / "append.qi").read_text(), prog)
    u = t("append(s0 x, s1 y)", prog)
    from polytrs.terms import subterms, variables

    order = variables(u)
    whole = term_qi(asg, u, order)
    for sub in subterms(u):
        part = term_qi(asg, sub, order)
        for p in qi_points(len(order), count=20):
            assert eval_expr(whole, p) >= eval_expr(part, p)


def test_dominance_examples():
    x, y = Arg(0), Arg(1)
    assert dominates(Sum((x, y)), x, 2, {})
    assert dominates(Sum((x, y)), Max((x, y)), 2, {})
    assert not dominates(Max((x,)), y, 2, {})
    assert not dominates(Prod((x, x)), x, 1, {})  # fails on [0, 1)


def test_max_posy_form_shares_identical_maxes():
    m = Max((Arg(0), Arg(1)))
    e = Sum((m, m))
    form = decode_form(max_posy_form(e, 2, {}), 2)
    # one choice per distinct max: 2X or 2Y, never X+Y
    assert sorted(form, key=str) == sorted(
        [{(1, 0): Fraction(2)}, {(0, 1): Fraction(2)}], key=str
    )


def test_simplify_keeps_value():
    e = Sum((Max((Arg(0), Const(Fraction(1)))), Prod((Arg(0), Arg(0)))))
    s = simplify(e, 1)
    for p in qi_points(1, count=30):
        assert eval_expr(e, p) == eval_expr(s, p)


def test_active_size_bound_on_proofs(corpus):
    from .bounds import active_size_bound

    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    assert check_qi(prog, asg).overall == "valid"
    call = t("mult(s s s 0, s s 0)", prog)
    proof = checked_cbv(prog, call)
    assert proof.stats.max_active_size <= active_size_bound(asg, prog, call)


def test_valid_verdicts_have_no_sampled_counterexample(corpus):
    from polytrs.qi import _refute
    from polytrs.terms import variables

    for prog_name, qi_name in (("append.trs", "append.qi"), ("mult.trs", "mult.qi")):
        prog = corpus[prog_name]
        asg = parse_assignment((CORPUS / qi_name).read_text(), prog)
        verdict = check_qi(prog, asg)
        for ob in verdict.per_equation:
            assert ob.status == "valid"
            eq = prog.equations[ob.equation_index]
            order = variables(eq.lhs)
            lhs = term_qi(asg, eq.lhs, order)
            rhs = term_qi(asg, eq.rhs, order)
            assert _refute(lhs, rhs, len(order), tag=f"cross:{eq.index}") is None


def test_assignment_roundtrip(corpus):
    prog = corpus["mult.trs"]
    asg = parse_assignment((CORPUS / "mult.qi").read_text(), prog)
    text = format_assignment(asg, prog)
    again = parse_assignment(text, prog)
    assert again.entries == asg.entries  # an assignment compares by identity


def test_rational_coefficients(corpus):
    prog = corpus["add.trs"]
    asg = parse_assignment(
        "qi s(X) = X + 3/2\nqi 0 = 1\nqi add(X, Y) = X + Y\n", prog
    )
    assert eval_expr(asg.entries["s"], [Fraction(1, 2)]) == 2
    assert check_qi(prog, asg).overall == "valid"


# -- the normal-form memo --------------------------------------------------------
#
# An un-memoised reference: max_posy_form and dominates as they were before
# normal forms were shared within a check, with Fraction coefficients and a
# recursive min test.


def _ref_contains_min(e):
    if isinstance(e, Min):
        return True
    if isinstance(e, (Sum, Prod, Max)):
        return any(_ref_contains_min(i) for i in e.items)
    return False


def _ref_posy_dominates(a, b):
    return all(a.get(m, Fraction(0)) >= c for m, c in b.items())


def _ref_max_posy_form(e, arity):
    if _ref_contains_min(e):
        return None
    zero = tuple([0] * arity)
    maxes, seen = [], set()

    def collect(u):
        if isinstance(u, (Const, Arg)):
            return
        if isinstance(u, Max) and u not in seen:
            seen.add(u)
            maxes.append(u)
        for item in u.items:
            collect(item)

    collect(e)
    total = 1
    for m in maxes:
        total *= max(1, len(m.items))
        if total > 4096:
            return None

    def inst(u, choice):
        if isinstance(u, Const):
            return {zero: u.value} if u.value else {}
        if isinstance(u, Arg):
            return {tuple(1 if i == u.index else 0 for i in range(arity)): Fraction(1)}
        if isinstance(u, Max):
            picked = choice[u]
            return inst(picked, choice) if picked is not None else {}
        parts = [inst(item, choice) for item in u.items]
        if isinstance(u, Sum):
            acc = {}
            for p in parts:
                for m, c in p.items():
                    acc[m] = acc.get(m, Fraction(0)) + c
            return acc
        acc = {zero: Fraction(1)}
        for p in parts:
            out = {}
            for m1, c1 in acc.items():
                for m2, c2 in p.items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
            acc = out
        return acc

    kept = []
    pools = [list(m.items) if m.items else [None] for m in maxes]
    for combo in itertools.product(*pools):
        b = inst(e, dict(zip(maxes, combo)))
        if any(_ref_posy_dominates(k, b) for k in kept):
            continue
        kept = [k for k in kept if not _ref_posy_dominates(b, k)] + [b]
    return kept


def _ref_min_choices(e):
    if isinstance(e, (Const, Arg)):
        yield e
        return
    if isinstance(e, Min):
        for item in e.items:
            yield from _ref_min_choices(item)
        return
    pools = [list(itertools.islice(_ref_min_choices(i), 64)) for i in e.items]
    for combo in itertools.product(*pools):
        yield type(e)(tuple(combo))


def _ref_dominates(lhs, rhs, arity):
    if _ref_contains_min(lhs):
        choices = list(itertools.islice(_ref_min_choices(lhs), 65))
        if len(choices) > 64:
            return False
        lhs_forms = [_ref_max_posy_form(c, arity) for c in choices]
    else:
        lhs_forms = [_ref_max_posy_form(lhs, arity)]
    if any(f is None for f in lhs_forms):
        return False
    if _ref_contains_min(rhs):
        rhs_choices = list(itertools.islice(_ref_min_choices(rhs), 64))
    else:
        rhs_choices = [rhs]
    for lf in lhs_forms:
        rfs = [_ref_max_posy_form(rc, arity) for rc in rhs_choices]
        if not any(
            rf is not None and all(any(_ref_posy_dominates(lb, rb) for lb in lf) for rb in rf)
            for rf in rfs
        ):
            return False
    return True


ARITY = 3


def _exprs(shared, with_min):
    """Expressions over ARITY arguments whose leaves include shared nodes."""
    leaves = (
        st.builds(Arg, st.integers(0, ARITY - 1))
        | st.builds(Const, st.sampled_from([0, 1, 2, Fraction(1, 2)]))
        | st.sampled_from(shared)
    )
    kinds = [Sum, Prod, Max] + ([Min] if with_min else [])

    def extend(children):
        items = st.lists(children, min_size=0, max_size=3).map(tuple)
        return st.builds(lambda k, i: k(i), st.sampled_from(kinds), items)

    return st.recursive(leaves, extend, max_leaves=7)


def _shared_maxes():
    arg_or_const = st.builds(Arg, st.integers(0, ARITY - 1)) | st.builds(
        Const, st.sampled_from([1, 3])
    )
    return st.lists(
        st.lists(arg_or_const, min_size=1, max_size=3).map(lambda i: Max(tuple(i))),
        min_size=1,
        max_size=3,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memoised_max_posy_form_matches_reference(data):
    shared = data.draw(_shared_maxes())
    exprs = data.draw(st.lists(_exprs(shared, with_min=False), min_size=1, max_size=6))
    forms: dict = {}
    # Revisit every expression with a shared memo, in both orders.  The memo
    # serves the same nodes at two arities, so a max-free subtree's stored
    # posynomial must be told apart by the arity it was built for.
    # simplify enters its result's form, which must be the result's own.
    for e in exprs + exprs[::-1]:
        for arity in (ARITY, ARITY + 1):
            got = max_posy_form(e, arity, forms)
            assert decode_form(got, arity) == _ref_max_posy_form(e, arity)
            out = simplify(e, arity, forms)
            got = max_posy_form(out, arity, forms)
            assert decode_form(got, arity) == _ref_max_posy_form(out, arity)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memoised_dominates_matches_reference(data):
    # Decisions and normal forms share one memo: min-headed sides and
    # repeated questions must not change answers.
    shared = data.draw(_shared_maxes())
    exprs = data.draw(st.lists(_exprs(shared, with_min=True), min_size=2, max_size=5))
    memo: dict = {}
    pairs = [(lhs, rhs) for lhs in exprs for rhs in exprs]
    for lhs, rhs in pairs + pairs[::-1]:
        assert dominates(lhs, rhs, ARITY, memo) == _ref_dominates(lhs, rhs, ARITY)
        got = max_posy_form(rhs, ARITY, memo)
        assert decode_form(got, ARITY) == _ref_max_posy_form(rhs, ARITY)


def _maxima(k):
    # k distinct two-way maxima: 2**k branch combinations.
    return Sum(tuple(Max((Arg(0), Const(Fraction(i + 1)))) for i in range(k)))


def test_memo_applies_each_callers_cap_simplify_first():
    # 1024 branch combinations: above simplify's limit (512), within
    # BRANCH_CAP (4096).  simplify counts against its own limit whether
    # or not the memo already holds the form.
    e, forms = _maxima(10), {}
    assert simplify(e, 1, forms) is e
    assert dominates(e, Arg(0), 1, forms)
    assert not dominates(Arg(0), e, 1, forms)
    assert decode_form(forms[e, 1], 1) == _ref_max_posy_form(e, 1)
    assert simplify(e, 1, forms) is e


def test_memo_applies_each_callers_cap_dominates_first():
    # The same expression with the memo filled by dominates first.
    e, forms = _maxima(10), {}
    assert dominates(e, Arg(0), 1, forms)
    assert decode_form(forms[e, 1], 1) == _ref_max_posy_form(e, 1)
    assert simplify(e, 1, forms) is e
    assert not dominates(Arg(0), e, 1, forms)
    assert decode_form(forms[e, 1], 1) == _ref_max_posy_form(e, 1)


def test_memo_keeps_none_above_the_branch_cap(monkeypatch):
    # 8192 branch combinations, above BRANCH_CAP: no form, and the memo
    # remembers that, so a second call neither counts nor expands.
    e, forms = _maxima(13), {}
    assert _ref_max_posy_form(e, 1) is None
    calls = []
    for name in ("_distinct_maxes", "_expand"):
        original = getattr(qi, name)
        monkeypatch.setattr(
            qi, name, lambda *a, name=name, f=original: calls.append(name) or f(*a)
        )
    assert max_posy_form(e, 1, forms) is None
    assert (e, 1) in forms and forms[e, 1] is None
    assert calls == ["_distinct_maxes"]
    assert max_posy_form(e, 1, forms) is None
    assert calls == ["_distinct_maxes"]
    assert not dominates(e, Arg(0), 1, forms)


def test_check_qi_memo_does_not_leak_between_checks(corpus):
    cases = []
    for stem in ("mult", "fib", "running"):
        prog = corpus[f"{stem}.trs"]
        cases.append((prog, parse_assignment((CORPUS / f"{stem}.qi").read_text(), prog)))
    alone = [check_qi(p, a).as_dict() for p, a in cases]
    for i, (prog, asg) in enumerate(cases):
        for other_prog, other_asg in cases:
            check_qi(other_prog, other_asg)
            assert check_qi(prog, asg).as_dict() == alone[i]


# -- refutation sampling ---------------------------------------------------------


def _listed_sample_points(arity, tag, seed=0):
    """The sampling stream as it was first written: list the grid, sample it."""
    grid = list(itertools.product(GRID_POINTS, repeat=arity))
    if len(grid) > GRID_CAP:
        grid = random.Random(f"{seed}:{tag}:grid").sample(grid, GRID_CAP)
    for p in grid:
        yield tuple(Fraction(x) for x in p)
    rng = random.Random(f"{seed}:{tag}:rand")
    for _ in range(RANDOM_POINTS):
        yield tuple(Fraction(rng.randint(0, 64), rng.randint(1, 8)) for _ in range(arity))


@pytest.mark.parametrize("arity", [5, 7, 8])
def test_sample_points_match_the_listed_grid(arity):
    tag = f"eq:{arity}"
    assert list(_sample_points(arity, tag, 2)) == list(_listed_sample_points(arity, tag, 2))


def _random_expr(rng, arity, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Arg(rng.randrange(arity))
        return Const(Fraction(rng.randint(0, 12), rng.choice([1, 1, 2, 3, 4, 7])))
    kind = rng.choice([Sum, Prod, Max, Min])
    size = rng.randint(1 if kind is Min else 0, 3)
    return kind(tuple(_random_expr(rng, arity, depth - 1) for _ in range(size)))


def _arguments_below(e):
    """The bitmask of the Arg indices found by walking e."""
    return sum({1 << u.index for u in postorder([e], "items") if type(u) is Arg})


def test_substitute_agrees_with_the_rebuilding_reference():
    # Identity, one argument moved, every argument moved, and compound
    # arguments, over random expressions that share subtrees.
    rng = random.Random(5)
    for _ in range(1500):
        arity = rng.randint(1, 4)
        e = _random_expr(rng, arity, rng.randint(0, 4))
        if rng.random() < 0.3:
            e = rng.choice([Sum, Prod, Max])((e, _random_expr(rng, arity, 2), e))
        identity = [Arg(i) for i in range(arity)]
        one = list(identity)
        one[rng.randrange(arity)] = _random_expr(rng, arity, rng.randint(0, 2))
        every = [_random_expr(rng, rng.randint(1, 3), rng.randint(0, 3)) for _ in identity]
        renamed = rng.sample(identity, arity) + [Arg(arity)]
        for args in (identity, one, every, renamed):
            got = substitute(e, args)
            assert got is reference_substitute(e, args)
            for u in postorder([e, got, *args], "items"):
                assert u.arg_mask == _arguments_below(u)
        assert substitute(e, identity) is e


def test_substitute_names_an_argument_past_the_list():
    e = Sum((Arg(0), Prod((Arg(2), Const(3)))))
    with pytest.raises(IndexError):
        reference_substitute(e, [Arg(0), Arg(1)])
    with pytest.raises(QiError, match="argument 3 past a list of 2"):
        substitute(e, [Arg(0), Arg(1)])
    with pytest.raises(QiError, match="argument 4 past a list of 1"):
        substitute(Sum((Arg(0), Arg(3))), [Arg(0)])
    assert substitute(e, [Arg(0), Arg(1), Arg(2), Arg(3)]) is e


# -- packed monomials and the exponent cap ----------------------------------------


def test_max_posy_form_names_an_argument_past_the_arity():
    with pytest.raises(QiError, match="argument 3 past arity 1"):
        max_posy_form(Arg(2), 1, {})


def _packed(exponents: tuple) -> int:
    """The monomial with these exponents, as a sum of the package's units."""
    return sum(e * qi._unit(i, len(exponents)) for i, e in enumerate(exponents))


_EXPONENTS = st.integers(0, EXPONENT_CAP) | st.integers(EXPONENT_CAP // 2 - 2, EXPONENT_CAP)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_monomials_order_multiply_and_decode_as_tuples(data):
    arity = data.draw(st.integers(1, 4))
    a, b = (data.draw(st.tuples(*[_EXPONENTS] * arity)) for _ in range(2))
    ma, mb = _packed(a), _packed(b)
    assert decode_posy({ma: 1}, arity) == {a: 1}
    assert qi._exponents(ma, arity) == list(a)
    assert (ma < mb) == (a < b) and (ma == mb) == (a == b)
    product = tuple(map(operator.add, a, b))
    if max(product) <= EXPONENT_CAP:
        assert decode_posy(qi.posy_mul({ma: 2}, {mb: 3}, arity), arity) == {product: 6}
    else:
        with pytest.raises(QiError, match="EXPONENT_CAP"):
            qi.posy_mul({ma: 2}, {mb: 3}, arity)


def test_an_exponent_past_the_cap_leaves_no_form():
    # f(X) = X*X substituted into itself k times is X^(2^k): within
    # EXPONENT_CAP at k = 15, past it at k = 16.
    assert 2**15 <= EXPONENT_CAP < 2**16
    prog = parse_program(
        "constructors: nil/0\nfunctions: f/1 g/1 h/1\n"
        f"g(x) -> {'f(' * 15}x{')' * 15}\n"
        f"h(x) -> {'f(' * 16}x{')' * 16}\nmain: g\n"
    )
    asg = parse_assignment("qi f(X) = X*X\nqi g(X) = X\nqi h(X) = X\n", prog)
    verdict = check_qi(prog, asg)
    below, past = verdict.per_equation
    assert decode_form(max_posy_form(below.sides[1], 1, {}), 1) == [{(2**15,): 1}]
    assert max_posy_form(past.sides[1], 1, {}) is None
    assert asg.memo[past.sides[1], 1] is None
    assert past.status != "valid" and verdict.overall != "valid"


def test_posy_compose_past_the_cap_is_a_qi_error():
    # compile_bc composes q parts with posy_compose, so a compiled exponent
    # past EXPONENT_CAP is this QiError, not a wrong form.
    x = qi._unit(0, 1)
    square = {2 * x: 1}
    assert decode_posy(qi.posy_compose(square, [{2**14 * x: 3}], 1), 1) == {(2**15,): 9}
    with pytest.raises(QiError, match="EXPONENT_CAP"):
        qi.posy_compose(square, [{2**15 * x: 1}], 1)


# -- term_qi's fold ---------------------------------------------------------------

_FOLD_ENTRIES = {
    "s0": Sum((Arg(0), Const(1))),
    "nil": Const(1),
    "f": Max((Arg(0), Const(2))),
    "g": Sum((Arg(0), Prod((Arg(1), Arg(1))))),
}


@settings(max_examples=300, deadline=None)
@given(
    term=terms(max_size=12),
    names=st.sets(st.sampled_from(sorted(_FOLD_ENTRIES))),
    order=st.lists(st.sampled_from("xyz"), unique=True),
)
def test_term_fold_agrees_with_the_postorder_reference(term, names, order):
    # The same expression node, or the same first missing entry or variable.
    entries = {name: _FOLD_ENTRIES[name] for name in names}
    args = {v: Arg(i) for i, v in enumerate(order)}
    outcomes = []
    for fold in (qi._term_expr, reference_term_expr):
        try:
            outcomes.append(fold(QiAssignment(dict(entries)), args, term))
        except QiError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] is outcomes[1] or outcomes[0] == outcomes[1]


def _random_point(rng, arity):
    if rng.random() < 0.3:
        return tuple(Fraction(rng.choice(GRID_POINTS)) for _ in range(arity))
    return tuple(Fraction(rng.randint(0, 64), rng.randint(1, 8)) for _ in range(arity))


def test_scaled_evaluation_agrees_with_eval_expr():
    # Every node's N / d**k, and eval_expr of every node, at about 3,000
    # random expressions and points.
    rng = random.Random(11)
    for _ in range(3000):
        arity = rng.randint(1, 3)
        e = _random_expr(rng, arity, rng.randint(0, 5))
        point = _random_point(rng, arity)
        order = postorder([e], "items")
        scaled = _Scaled(order)
        d, value = scaled.numerators(point)
        for u in order:
            i = scaled.index[id(u)]
            expected = reference_eval_expr(u, point)
            assert Fraction(value[i], d ** scaled.degree[i]) == expected
            assert eval_expr(u, point) == expected


def test_eval_expr_fails_where_the_fraction_reference_fails():
    # a point too short, or negative at an argument read, fails at the same
    # node: the first such argument in post-order
    rng = random.Random(13)
    failures = 0
    for _ in range(500):
        arity = rng.randint(1, 3)
        e = _random_expr(rng, arity, rng.randint(0, 4))
        point = list(_random_point(rng, arity))[: rng.randint(0, arity)]
        point = [-x if rng.random() < 0.3 else x for x in point]
        try:
            expected = reference_eval_expr(e, point)
        except QiError as exc:
            with pytest.raises(QiError, match=f"^{re.escape(str(exc))}$"):
                eval_expr(e, point)
            failures += 1
        else:
            assert eval_expr(e, point) == expected
    assert 100 < failures < 400  # both outcomes are exercised


def test_refute_finds_the_first_point_eval_expr_refutes():
    rng = random.Random(12)
    found = 0
    for n in range(100):
        arity = rng.randint(1, 3)
        lhs = _random_expr(rng, arity, 3)
        rhs = _random_expr(rng, arity, 3)
        tag = f"eq:{n}"
        expected = next(
            (
                p
                for p in _sample_points(arity, tag)
                if reference_eval_expr(lhs, p) < reference_eval_expr(rhs, p)
            ),
            None,
        )
        assert _refute(lhs, rhs, arity, tag) == expected
        found += expected is not None
    assert 20 < found < 80  # both verdicts are exercised


def test_sample_points_stream_in_bounded_memory():
    # 5^20 grid points: listing them is out of reach, sampling them is not.
    tracemalloc.start()
    try:
        points = list(itertools.islice(_sample_points(20, "eq:wide"), 100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(points)) == 100
    assert all(len(p) == 20 and set(p) <= set(GRID_POINTS) for p in points)
    assert peak < 2_000_000


CLI_RUNS = """
from polytrs.cli import main
for argv in {argvs!r}:
    code = main(argv)
    print("exit", code)
"""


def test_check_qi_and_bc_compile_print_the_same_bytes_under_every_hash_seed():
    # Nodes hash by address, which differs from process to process; no
    # output may follow it, whatever the string hash seed.
    qis = sorted(CORPUS.glob("*.qi"))
    argvs = [["--qi", str(q), "check-qi", str(q.with_suffix(".trs"))] for q in qis]
    argvs += [["bc-compile", str(b)] for b in sorted(CORPUS.glob("*.bc"))]
    code = CLI_RUNS.format(argvs=argvs)
    outputs = []
    for seed in ("1", "7"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"exit ") == len(argvs)


def test_second_qi_line_for_a_symbol_is_a_parse_error(corpus):
    prog = corpus["append.trs"]
    text = (CORPUS / "append.qi").read_text() + "qi append(X, Y) = X * Y\n"
    with pytest.raises(ParseError, match="second qi line for append") as err:
        parse_assignment(text, prog)
    assert err.value.line == 5


@pytest.mark.parametrize(
    "line, message",
    [
        ("qi append(X, X) = X + X", "parameter 'X' is repeated"),
        ("qi s0(1) = 1 + 1", "parameter '1' is not a name"),
        ("qi append(X, max) = X", "parameter 'max' is not a name"),
        ("qi append(min, Y) = Y", "parameter 'min' is not a name"),
        ("qi append(X,,Y) = X + Y", "2:13: parameter ',' is not a name"),
        ("qi append(X, Y,) = X + Y", "2:16: parameter ')' is not a name"),
    ],
)
def test_bad_qi_parameters_are_parse_errors(corpus, line, message):
    text = "qi nil = 1\n" + line + "\n"
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_assignment(text, corpus["append.trs"])
    assert err.value.line == 2


def test_parse_expr_is_the_line_parser(corpus):
    assert parse_expr("max(n, 2) + 1/2", ["n"]) == Sum(
        (Max((Arg(0), Const(2))), Const(Fraction(1, 2)))
    )
    with pytest.raises(ParseError, match="is repeated"):
        parse_expr("n", ["n", "n"])


@pytest.mark.parametrize("constant", ["1/0", "0/0", "3/000"])
def test_a_zero_denominator_is_a_parse_error(corpus, constant):
    with pytest.raises(ParseError, match=f"^7:1: constant {constant} has a zero denominator$"):
        parse_expr(f"n + {constant}", ["n"], 7)
    text = f"qi nil = 1\nqi append(X, Y) = X + {constant}\n"
    with pytest.raises(ParseError, match=f"constant {constant} has") as err:
        parse_assignment(text, corpus["append.trs"])
    assert err.value.line == 2


# -- expression nodes -------------------------------------------------------------


def _rebuilt(e):
    """e built again node by node from its leaves, as a parser would."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Arg):
        return Arg(e.index)
    return type(e)(tuple(_rebuilt(i) for i in e.items))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nodes_built_twice_are_equal(data):
    shared = data.draw(_shared_maxes())
    e = data.draw(_exprs(shared, with_min=True))
    assert _rebuilt(e) is e  # hash-consed: one node per distinct expression
    assert eval(repr(e)) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert hash(e) == object.__hash__(e)  # the address, as for terms
    if isinstance(e, (Sum, Prod, Max, Min)):
        assert e.has_min == (isinstance(e, Min) or any(i.has_min for i in e.items))
        assert e.has_max == (isinstance(e, Max) or any(i.has_max for i in e.items))


def test_node_kinds_are_told_apart():
    x = Arg(0)
    assert Sum((x,)) != Max((x,)) and Prod((x,)) != Min((x,))
    assert Arg(1) != Const(1) and Sum((x,)) != (x,)
    assert Const(2) is Const(Fraction(4, 2)) is Const("2")
    assert type(Const(2).value) is Fraction
    with pytest.raises(QiError, match="negative constant"):
        Const(-1)
    assert (Const, -1, 1) not in terms_module._INTERNED  # keyed by numerator, denominator
    half = Const("3/2")
    assert terms_module._INTERNED[Const, 3, 2]() is half and half.value == Fraction(3, 2)


@pytest.mark.parametrize(
    "node", [Const(2), Arg(0), Sum((Arg(0), Const(1))), Min((Arg(0), Arg(1)))]
)
@pytest.mark.parametrize(
    "attr", ["value", "index", "items", "has_min", "has_max", "arg_mask", "_hash", "other"]
)
def test_nodes_are_immutable(node, attr):
    with pytest.raises(AttributeError):
        setattr(node, attr, Const(0))
    with pytest.raises(AttributeError):
        delattr(node, attr)
