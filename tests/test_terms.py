from __future__ import annotations

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrs import terms as terms_module
from polytrs.base import NoMatchingEquation, ParseError, SignatureError, postorder
from polytrs.bc import compile_bc, random_bc
from polytrs.blind import blind_program, input_tuples, transfer_uniform_qi
from polytrs.ordering import PPO, check_program, infer_precedence
from polytrs.parser import format_program, parse_program, parse_term
from polytrs.qi import Arg, Const, Sum, check_qi
from polytrs.terms import (
    CONSTRUCTOR,
    FUNCTION,
    App,
    Equation,
    Program,
    Symbol,
    Var,
    apply_subst,
    format_term,
    is_value,
    match,
    match_tuple,
    matching_equations,
    subterms,
    term_depth,
    term_size,
    variables,
)

from .conftest import CORPUS_PROGRAMS, load, symbols_of, t
from .strategies import F, G, NIL, PAIR, S0, S1, patterns, terms, values


def test_parse_running_example(corpus):
    prog = corpus["running.trs"]
    assert len(prog.functions) == 2
    assert len(prog.constructors) == 3
    # The two dyadic instances of the duplicating rule and of the append
    # step rule are spelled out, so the program text has seven equations.
    assert len(prog.equations) == 7
    assert prog.main.name == "f"


def test_parse_identity(corpus):
    prog = corpus["identity.trs"]
    assert len(prog.equations) == 1
    assert isinstance(prog.equations[0].rhs, Var)


def test_rhs_variable_must_occur_in_lhs():
    with pytest.raises(ParseError, match="rhs variable y") as err:
        parse_program("functions: f/1 g/1\nf(x) -> g(y)\nmain: f\n")
    assert err.value.line == 2


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="applied to"):
        parse_program("constructors: s/1 0/0\nfunctions: f/1\nf(x) -> s(x, x)\nmain: f\n")


def test_undeclared_symbol_with_args_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("constructors: s/1\nfunctions: f/1\nf(x) -> g(x)\nmain: f\n")


X, Y, Z = Var("x"), Var("y"), Var("z")


def test_a_function_in_a_pattern_is_reported_before_a_missing_rhs_variable():
    with pytest.raises(
        SignatureError, match=r"^equation 0: lhs argument s0\(f\(x\)\) contains a function symbol$"
    ):
        Equation(G, (X, App(S0, (App(F, (X,)),))), Y, 0)


def test_a_missing_rhs_variable_is_reported_before_a_wrong_lhs_arity():
    with pytest.raises(SignatureError, match="^equation 3: rhs variable y does not occur in the lhs$"):
        Equation(F, (X, Z), App(PAIR, (X, Y)), 3)
    with pytest.raises(SignatureError, match="applied to 2 arguments"):
        Equation(F, (X, Z), X, 3)


def test_the_first_missing_rhs_variable_in_pre_order_is_named():
    # z comes first in pre-order; y is the shallower and the rightmost.
    rhs = App(PAIR, (App(F, (App(S0, (Z,)),)), App(PAIR, (X, Y))))
    with pytest.raises(SignatureError, match="^equation 1: rhs variable z does not occur"):
        Equation(F, (X,), rhs, 1)


def test_the_first_undeclared_symbol_in_pre_order_is_named():
    # u1 comes first in pre-order; u2 is deeper, and the second pair
    # argument holds the same u2 node again.
    u1, u2 = Symbol("u1", FUNCTION, 1), Symbol("u2", FUNCTION, 1)
    inner = App(u2, (X,))
    eq = Equation(F, (X,), App(PAIR, (App(u1, (inner,)), inner)), 0)
    with pytest.raises(SignatureError, match="^equation 0: undeclared symbol u1$"):
        Program((F, PAIR), (eq,), F)


TWO_FUNCTIONS = "constructors: 0/0\nfunctions: f/1 g/1\nf(x) -> x\ng(x) -> f(x)\n"


@pytest.mark.parametrize("key, first, second", [("main", "f", "g"), ("order", "f < g", "g < f")])
def test_a_second_main_or_order_line_is_a_parse_error(key, first, second):
    once = parse_program(TWO_FUNCTIONS + f"{key}: {second}\n")
    assert (once.main.name if key == "main" else once.declared_order) == second
    with pytest.raises(ParseError, match=f"^7:1: second {key}: line$"):
        parse_program(TWO_FUNCTIONS + f"{key}: {first}\n# comment\n{key}: {second}\n")


@pytest.mark.parametrize("name", ["h", "0"])
def test_an_undeclared_main_is_reported_at_its_line(name):
    with pytest.raises(ParseError, match=f"^6:1: main symbol {name} is not a declared function$"):
        parse_program(TWO_FUNCTIONS + f"order: f < g\nmain: {name}\n")


def test_unary_chain_sugar(corpus):
    prog = corpus["running.trs"]
    chained = t("s0 s1 nil", prog)
    explicit = t("s0(s1(nil))", prog)
    assert chained == explicit


def test_roundtrip_whole_corpus(corpus):
    for name, prog in corpus.items():
        assert parse_program(format_program(prog)) == prog, name


def test_match_simple(corpus):
    prog = corpus["running.trs"]
    sigma = match(t("s0 s1 x", prog), t("s0 s1 nil", prog))
    assert sigma == {"x": t("nil", prog)}


def test_match_head_clash(corpus):
    prog = corpus["running.trs"]
    assert match(t("s1 x", prog), t("s0 nil", prog)) is None


def test_match_repeated_variable_requires_equal_subvalues():
    prog = parse_program(
        "constructors: s0/1 s1/1 nil/0 c/2\nfunctions: f/1\nf(x) -> x\nmain: f\n"
    )
    p = t("c(x, x)", prog)
    assert match(p, t("c(nil, nil)", prog)) == {"x": t("nil", prog)}
    assert match(p, t("c(nil, s0 nil)", prog)) is None


def test_apply_subst_running_activation(corpus):
    prog = corpus["running.trs"]
    rule = prog.equations[1]  # f(s0 s1 x) -> append(f(s1 x), f(s1 x))
    sigma = {"x": t("nil", prog)}
    assert apply_subst(rule.rhs, sigma) == t("append(f(s1 nil), f(s1 nil))", prog)


def test_apply_subst_variable(corpus):
    prog = corpus["running.trs"]
    assert apply_subst(Var("x"), {"x": t("nil", prog)}) == t("nil", prog)
    assert apply_subst(t("s0 x", prog), {"x": t("s1 nil", prog)}) == t("s0 s1 nil", prog)


def test_sizes(corpus):
    prog = corpus["running.trs"]
    assert term_size(t("nil", prog)) == 1
    assert term_size(t("s0 s1 nil", prog)) == 3
    assert term_depth(t("append(nil, nil)", prog)) == 2
    assert term_depth(t("nil", prog)) == 1


def test_matching_equations_unique_and_empty(corpus):
    prog = corpus["running.trs"]
    once = matching_equations(prog, t("f(s1 nil)", prog))
    assert [eq.index for eq, _ in once] == [2]
    none = matching_equations(prog, t("f(s0 nil)", prog))
    assert none == []


def test_matching_equations_overlap_in_blind_image(corpus):
    from polytrs.blind import blind_program

    bl = blind_program(corpus["running.trs"])
    call = parse_term("bl_f(s s 0)", symbols_of(bl.program))
    # Both blind images of the duplicating rule overlap, and the erasing
    # rule matches as well.
    assert [eq.index for eq, _ in matching_equations(bl.program, call)] == [0, 1, 2]


def test_matching_equations_requires_function_call(corpus):
    prog = corpus["running.trs"]
    with pytest.raises(NoMatchingEquation):
        matching_equations(prog, t("s0 nil", prog))
    with pytest.raises(NoMatchingEquation):
        matching_equations(prog, t("f(f(nil))", prog))


@given(p=patterns(), v=values())
def test_match_roundtrip(p, v):
    sigma = match(p, v)
    if sigma is not None:
        assert apply_subst(p, sigma) == v


@given(v=values(max_size=10))
def test_values_are_values(v):
    assert is_value(v)


@given(p=patterns(), v=values())
def test_subst_size_does_not_shrink(p, v):
    sigma = match(p, v)
    if sigma is not None:
        assert term_size(apply_subst(p, sigma)) >= term_size(p)


def ref_apply_subst(u, sigma):
    if isinstance(u, Var):
        return sigma[u.name]
    return App(u.symbol, tuple(ref_apply_subst(a, sigma) for a in u.args))


@given(
    u=terms(max_size=16),
    bound=st.lists(values(max_size=4, with_pair=True), min_size=3, max_size=3),
    unbound=st.sampled_from([None, "x", "y", "z"]),
)
def test_apply_subst_agrees_with_a_recursive_reference(u, bound, unbound):
    sigma = dict(zip("xyz", bound))
    sigma.pop(unbound, None)
    try:
        want = ref_apply_subst(u, sigma)
    except KeyError:
        with pytest.raises(SignatureError, match="unbound variable"):
            apply_subst(u, sigma)
    else:
        assert apply_subst(u, sigma) is want


# -- match plans --------------------------------------------------------------


def scan_matches(program, call):
    """The reference: every equation of the call's function, in program
    order, matched by the generic matcher."""
    out = []
    for eq in program.equations_for(call.symbol):
        sigma = match_tuple(eq.lhs_patterns, call.args)
        if sigma is not None:
            out.append((eq, sigma))
    return out


def assert_plan_agrees(program, call):
    got = matching_equations(program, call)
    want = scan_matches(program, call)
    assert [(eq.index, list(s.items())) for eq, s in got] == [
        (eq.index, list(s.items())) for eq, s in want
    ]
    assert all(g is w for (g, _), (w, _) in zip(got, want))


# A small value pool, so repeated lhs variables meet equal values often.
SMALL_VALUES = (App(NIL), App(S0, (App(NIL),)), App(PAIR, (App(NIL), App(NIL))))


def instance(p, pick):
    """p with each variable occurrence replaced by its own drawn value."""
    if isinstance(p, Var):
        return pick()
    return App(p.symbol, tuple(instance(a, pick) for a in p.args))


@st.composite
def programs_and_calls(draw):
    """A one-function program over s0/s1/nil/pair, whose lhs patterns mix
    variable-first and constructor-first arguments, repeat variables and
    overlap, with calls that instantiate its lhs or are random values (a
    pair head starts no pattern unless one is drawn)."""
    arity = draw(st.integers(0, 2))
    h = Symbol("h", FUNCTION, arity)
    equations = []
    for i in range(draw(st.integers(1, 6))):
        lhs = tuple(draw(patterns(max_size=5, with_pair=True)) for _ in range(arity))
        names = sorted({v for p in lhs for v in variables(p)})
        rhs = draw(st.sampled_from([App(NIL), *map(Var, names)]))
        equations.append(Equation(h, lhs, rhs, i))
    program = Program((S0, S1, NIL, PAIR, h), tuple(equations), h)
    pick = lambda: draw(st.sampled_from(SMALL_VALUES))  # noqa: E731
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            eq = draw(st.sampled_from(equations))
            calls.append(App(h, tuple(instance(p, pick) for p in eq.lhs_patterns)))
        else:
            args = draw(st.lists(values(max_size=4, with_pair=True), min_size=arity, max_size=arity))
            calls.append(App(h, tuple(args)))
    return program, calls


@settings(max_examples=300, deadline=None)
@given(case=programs_and_calls())
def test_match_plan_agrees_with_a_scan_on_random_programs(case):
    program, calls = case
    for call in calls:
        assert_plan_agrees(program, call)


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_match_plan_agrees_with_a_scan_on_corpus_calls(name):
    program = load(name)
    for prog in (program, blind_program(program).program):
        for f in prog.functions:
            for n in range(6):
                for args in input_tuples(prog, f, n):
                    assert_plan_agrees(prog, App(f, args))


def test_match_plan_buckets_keep_variable_first_equations():
    prog = parse_program(
        "constructors: s0/1 s1/1 nil/0 c/2\nfunctions: h/2\n"
        "h(x, nil) -> x\nh(s0 x, y) -> y\nh(c(x, x), y) -> x\nh(y, s1 x) -> x\n"
        "main: h\n"
    )
    syms = symbols_of(prog)

    def hits(text):
        return [eq.index for eq, _ in matching_equations(prog, parse_term(text, syms))]

    assert hits("h(s0 nil, nil)") == [0, 1]
    assert hits("h(s1 nil, s1 nil)") == [3]  # s1 heads no first pattern
    assert hits("h(c(nil, nil), nil)") == [0, 2]
    assert hits("h(c(nil, s0 nil), s1 nil)") == [3]  # repeated x differs
    buckets, rest = prog._plans[syms["h"]]
    assert [eq.index for eq, _ in rest] == [0, 3]
    assert {s.name: [eq.index for eq, _ in b] for s, b in buckets.items()} == {
        "s0": [0, 1, 3],
        "c": [0, 2, 3],
    }


def test_match_plans_are_built_lazily_once_per_function(monkeypatch):
    built = []
    real = terms_module.match_plan

    def counted(equations):
        built.append(equations[0].lhs_function)
        return real(equations)

    monkeypatch.setattr(terms_module, "match_plan", counted)
    for seed in range(6):
        comp = compile_bc(random_bc(seed, 4))
        prec = infer_precedence(comp.program, PPO)
        check_program(comp.program, prec, PPO)
        check_qi(comp.program, comp.qi)
        image = blind_program(comp.program)
        check_qi(image.program, transfer_uniform_qi(comp.qi, comp.program, image))
        assert built == []
        for _ in range(2):  # the second round builds nothing
            for f in comp.program.functions:
                for n in range(4):
                    for args in input_tuples(comp.program, f, n, cap=8):
                        matching_equations(comp.program, App(f, args))
            assert built == comp.program.functions
        built.clear()


# -- hash-consing -------------------------------------------------------------


def ref_is_value(t):
    return isinstance(t, App) and t.symbol.is_constructor and all(ref_is_value(a) for a in t.args)


def ref_size(t):
    return 1 if isinstance(t, Var) else 1 + sum(ref_size(a) for a in t.args)


def ref_depth(t):
    return 1 if isinstance(t, Var) else 1 + max((ref_depth(a) for a in t.args), default=0)


def test_parser_and_constructor_share_one_node(corpus):
    prog = corpus["running.trs"]
    sym = symbols_of(prog)
    s0, s1, nil = sym["s0"], sym["s1"], sym["nil"]
    built = App(s0, (App(s1, (App(nil),)),))
    assert t("s0 s1 nil", prog) is built
    assert t("s0(s1(nil))", prog) is built
    call = App(sym["append"], (built, App(nil)))
    assert t("append(s0 s1 nil, nil)", prog) is call
    # Symbols and variables are interned too, however they are built.
    assert s0 is Symbol("s0", CONSTRUCTOR, 1) is Symbol(name="s0", kind=CONSTRUCTOR, arity=1)
    assert s0 is not Symbol("s0", FUNCTION, 1) and s0 is not Symbol("s0", CONSTRUCTOR, 2)
    assert prog.equations[2].rhs is Var("x") is Var(name="x")
    assert App(symbol=s0, args=(App(s1, (App(nil),)),)) is built
    for node in (s0, Var("x"), built):
        assert hash(node) == object.__hash__(node)  # the address


def test_symbol_flags_agree_with_kind(corpus):
    symbols = [Symbol("k", CONSTRUCTOR, 1), Symbol("k", FUNCTION, 1)]
    symbols += [s for prog in corpus.values() for s in prog.signature]
    for s in symbols:
        assert s.is_constructor == (s.kind == CONSTRUCTOR)
        assert s.is_function == (s.kind == FUNCTION)


def test_wrong_arity_raises_and_is_not_interned():
    args = (App(NIL), App(NIL))
    with pytest.raises(SignatureError, match="applied to 2 arguments"):
        App(S0, args)
    assert terms_module._INTERNED.get((S0, args)) is None


@pytest.mark.parametrize(
    "node, attr",
    [(App(S0, (App(NIL),)), "args"), (S0, "name"), (F, "is_function"), (Var("x"), "name")],
    ids=["app", "symbol", "symbol-flag", "var"],
)
def test_nodes_are_immutable(node, attr):
    before = getattr(node, attr)
    with pytest.raises(AttributeError):
        setattr(node, attr, ())
    with pytest.raises(AttributeError):
        delattr(node, attr)
    assert getattr(node, attr) is before


@pytest.mark.parametrize("kind", ["app", "symbol", "var"])
def test_copy_and_pickle_return_the_interned_node(corpus, kind):
    prog = corpus["running.trs"]
    call = t("append(s0 s1 nil, s1 nil)", prog)
    node = {"app": call, "symbol": call.symbol, "var": prog.equations[2].rhs}[kind]
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node
    pair = (node, [node])
    assert copy.deepcopy(pair)[1][0] is node


def test_intern_table_releases_dropped_terms():
    # Terms, symbols, variables and QI expression nodes share the one table.
    gc.collect()
    before = len(terms_module._INTERNED)
    words = []
    for n in range(10_000):
        w = App(NIL)
        for bit in bin(n + 1)[2:] + "0" * 6:  # distinct for distinct n
            w = App(S1 if bit == "1" else S0, (w,))
        words.append(w)
    assert len(set(words)) == 10_000
    assert len(terms_module._INTERNED) >= before + 10_000
    with_words = len(terms_module._INTERNED)
    exprs = [Sum((Arg(n), Const(n + 10_000))) for n in range(10_000)]
    assert len(set(exprs)) == 10_000
    assert len(terms_module._INTERNED) >= with_words + 20_000  # each Sum and Const
    with_exprs = len(terms_module._INTERNED)
    atoms = [Symbol(f"fresh{n}", FUNCTION, 1) for n in range(10_000)]
    atoms += [Var(f"fresh{n}") for n in range(10_000)]
    assert len(set(atoms)) == 20_000
    assert len(terms_module._INTERNED) >= with_exprs + 20_000
    del words, w, exprs, atoms
    gc.collect()
    assert len(terms_module._INTERNED) <= before


@given(u=terms(max_size=12))
def test_stored_fields_agree_with_recursive_definitions(u):
    assert is_value(u) == ref_is_value(u)
    assert term_size(u) == ref_size(u)
    assert term_depth(u) == ref_depth(u)
    assert sum(1 for _ in subterms(u)) == ref_size(u)


@given(v=values(max_size=12, with_pair=True))
def test_stored_fields_agree_on_values(v):
    assert is_value(v) and ref_is_value(v)
    assert term_size(v) == ref_size(v)
    assert term_depth(v) == ref_depth(v)


# -- post-order walk ----------------------------------------------------------


def test_postorder_lists_a_shared_node_once_after_everything_below_it():
    shared = App(PAIR, (App(S0, (App(NIL),)), Var("x")))
    root = App(PAIR, (shared, App(S1, (shared,))))
    order = postorder([root], "args")
    assert [u for u in order if u is shared] == [shared]
    below = order.index(shared)
    assert order[:below] == [App(NIL), shared.args[0], Var("x")]
    assert order[below + 1 :] == [root.args[1], root]


def test_postorder_lists_a_leaf_at_each_occurrence_leftmost_first():
    nil = App(NIL)
    root = App(PAIR, (App(PAIR, (Var("x"), nil)), App(PAIR, (nil, Var("x")))))
    order = postorder([root], "args")
    assert order == [Var("x"), nil, root.args[0], nil, Var("x"), root.args[1], root]
    assert postorder([Var("x"), nil, Var("x")], "args") == [Var("x"), nil, Var("x")]
    assert postorder([Sum((Arg(0), Arg(0)))], "items") == [Arg(0), Arg(0), Sum((Arg(0), Arg(0)))]


def test_postorder_lists_a_node_that_several_roots_reach_once():
    word = App(S0, (App(NIL),))
    roots = [App(S1, (word,)), word, App(PAIR, (word, word))]
    order = postorder(roots, "args")
    assert order == [App(NIL), word, roots[0], roots[2]]


def test_postorder_walks_a_deep_chain_without_recursion():
    chain = App(NIL)
    for _ in range(100_000):
        chain = App(S0, (chain,))
    order = postorder([chain], "args")
    assert len(order) == 100_001
    assert order[0] == App(NIL) and order[-1] is chain
    assert all(u.args == (v,) for v, u in zip(order, order[1:]))


# -- deep terms ---------------------------------------------------------------


def test_deep_word_roundtrip():
    prog = load("append.trs")
    syms = symbols_of(prog)
    letters = ["s0", "s1"] * 1250
    word = parse_term(" ".join(letters) + " nil", syms)
    text = format_term(word)
    assert text.startswith("s0(s1(s0(") and text.endswith("nil" + ")" * 2500)
    assert parse_term(text, syms) is word
    assert term_size(word) == 2501
    assert term_depth(word) == 2501
    assert sum(1 for _ in subterms(word)) == 2501
    nil = App(syms["nil"])
    open_word = parse_term(" ".join(letters) + " x", syms)
    assert apply_subst(open_word, {"x": nil}) is word
    open_call = App(syms["append"], (open_word, Var("y")))
    call = parse_term(f"append({text}, nil)", syms)
    assert apply_subst(open_call, {"x": nil, "y": nil}) is call
