from __future__ import annotations

import gc
import hashlib
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrs import ordering
from polytrs.base import ParseError, PrecedenceError
from polytrs.bc import compile_bc, random_bc
from polytrs.blind import blind_program
from polytrs.ordering import (
    EPPO,
    PPO,
    PathOrder,
    _reach_sets,
    check_program,
    infer_precedence,
    make_precedence,
    parse_precedence,
    static_call_graph,
)
from polytrs.parser import parse_program
from polytrs.terms import subterms

from .conftest import symbols_of, t
from .bounds import is_compatible
from .strategies import terms


@pytest.fixture(scope="module")
def running(corpus):
    return corpus["running.trs"]


@pytest.fixture(scope="module")
def prec(running):
    return make_precedence(running, [], [("append", "f")])


def test_strict_subterm_rule(running, prec):
    order = PathOrder(prec, PPO)
    assert order.less(t("s1 x", running), t("s0 s1 x", running))
    assert not order.less(t("s1 x", running), t("s0 s0 x", running))


def test_fair_equivalent_heads(running, prec):
    assert PathOrder(prec, EPPO).less(t("s1 x", running), t("s0 s0 x", running))


def test_irreflexive(running, prec):
    for text in ("nil", "s0 x", "f(s1 x)", "append(x, y)"):
        u = t(text, running)
        assert not PathOrder(prec, EPPO).less(u, u)
        assert not PathOrder(prec, PPO).less(u, u)


def test_running_fails_ppo_passes_eppo(running, prec):
    ppo = check_program(running, prec, PPO)
    assert not ppo.overall
    failing = [v for v in ppo.per_equation if not v.decreasing]
    assert [v.equation.index for v in failing] == [0]  # the i=0 instance
    assert "s1(x)" in failing[0].failing_subgoal
    assert "s0(s0(x))" in failing[0].failing_subgoal
    eppo = check_program(running, prec, EPPO)
    assert eppo.overall


def test_append_alone_passes_ppo(corpus):
    prog = corpus["append.trs"]
    prec = infer_precedence(prog, PPO)
    assert prec is not None
    assert check_program(prog, prec, PPO).overall


def test_blind_running_passes_ppo(running):
    bl = blind_program(running).program
    prec = infer_precedence(bl, PPO)
    assert prec is not None
    assert check_program(bl, prec, PPO).overall


def test_reverse_not_orderable(corpus):
    prog = corpus["reverse.trs"]
    assert infer_precedence(prog, PPO) is None
    assert infer_precedence(prog, EPPO) is None


def test_infer_precedence_classes(running):
    prec = infer_precedence(running, EPPO)
    assert prec is not None
    assert set(prec.class_ids) == {"append", "f"}
    assert prec.class_of("append") != prec.class_of("f")
    sym = symbols_of(running)
    assert prec.compare_symbols(sym["append"], sym["f"]) == "less"
    assert is_compatible(prec, running)
    s0, s1, nil = sym["s0"], sym["s1"], sym["nil"]
    assert PathOrder(prec, EPPO).compare_heads(s0, s1) == "equiv"  # fair
    assert PathOrder(prec, PPO).compare_heads(s0, s1) == "incomparable"  # strict
    for mode in (PPO, EPPO):
        order = PathOrder(prec, mode)
        assert order.compare_heads(s0, nil) == "incomparable"  # different arity
        for c in running.constructors:
            for f in running.functions:
                assert order.compare_heads(c, f) == "less"
                assert order.compare_heads(f, c) == "greater"


@pytest.mark.parametrize("mode", [PPO, EPPO])
def test_inferred_precedence_is_built_once(corpus, monkeypatch, mode):
    prog = corpus["append.trs"]
    built = []
    real = ordering.Precedence

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(ordering, "Precedence", counted)
    prec = infer_precedence(prog, mode)
    verdict = check_program(prog, prec, mode)
    assert verdict.overall and verdict.precedence is prec
    assert len(built) == 1


def _counting_less(monkeypatch):
    calls = []
    real = PathOrder._less

    def counted(self, s, t):
        calls.append((s, t))
        return real(self, s, t)

    monkeypatch.setattr(PathOrder, "_less", counted)
    return calls


@pytest.mark.parametrize("mode", [PPO, EPPO])
def test_second_check_on_a_precedence_decides_nothing(running, monkeypatch, mode):
    # running fails PPO, so the failing-subgoal search is replayed too.
    prec = make_precedence(running, [], [("append", "f")])
    first = check_program(running, prec, mode).as_dict()
    calls = _counting_less(monkeypatch)
    assert check_program(running, prec, mode).as_dict() == first
    assert calls == []
    other = EPPO if mode == PPO else PPO
    check_program(running, prec, other)
    assert calls  # each mode keeps its own decisions


@pytest.mark.parametrize("seed", [5, 17, 42])
def test_check_after_inference_decides_nothing(monkeypatch, seed):
    prog = compile_bc(random_bc(seed, 4)).program
    prec = infer_precedence(prog, PPO)
    calls = _counting_less(monkeypatch)
    assert check_program(prog, prec, PPO).overall
    assert calls == []


@pytest.mark.parametrize("seed", [5, 17, 42])
def test_precedence_dies_by_reference_counting(seed):
    # The decided pairs hang off the precedence, and no PathOrder is kept
    # there, so precedence and pairs go as soon as the last verdict does.
    prog = compile_bc(random_bc(seed, 4)).program
    gc.collect()
    gc.disable()
    try:
        verdict = check_program(prog, infer_precedence(prog, PPO), PPO)
        assert verdict.precedence.decided[PPO]
        prec = weakref.ref(verdict.precedence)
        del verdict
        assert prec() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_infer_precedence_flat_program(corpus):
    prog = corpus["identity.trs"]
    prec = infer_precedence(prog, PPO)
    assert prec is not None
    assert check_program(prog, prec, PPO).overall


def test_infer_precedence_mutual_recursion(corpus):
    prog = corpus["even_odd.trs"]
    prec = infer_precedence(prog, EPPO)
    assert prec is not None
    assert prec.class_of("even") == prec.class_of("odd")


def test_static_call_graph(running):
    graph = static_call_graph(running)
    assert graph == {"f": {"f", "append"}, "append": {"append"}}


def test_parse_precedence(running):
    prec = parse_precedence("append < f ; s0 ~ s1", running, EPPO)
    assert set(prec.class_ids) == {"append", "f"}
    sym = symbols_of(running)
    assert prec.compare_symbols(sym["append"], sym["f"]) == "less"
    s0, s1 = sym["s0"], sym["s1"]
    assert PathOrder(prec, EPPO).compare_heads(s0, s1) == "equiv"
    with pytest.raises(PrecedenceError):
        parse_precedence("s0 ~ s1", running, PPO)
    with pytest.raises(PrecedenceError):
        parse_precedence("s0 ~ f", running, EPPO)


@pytest.mark.parametrize("text", ["f ~ zzz", "zzz ~ append", "append < f ; s0 ~ zzz"])
def test_equivalence_with_an_unknown_symbol_is_rejected(running, text):
    with pytest.raises(PrecedenceError, match="^unknown symbol zzz in precedence$"):
        parse_precedence(text, running, EPPO)


@pytest.mark.parametrize("text", ["append < f ~ f", "f ~ append < f", "append < f ; f ~ s0 < s1"])
def test_clause_mixing_order_and_equivalence_is_a_parse_error(running, text):
    clause = text.split(";")[-1].strip()
    message = f"precedence clause {clause!r} mixes < and ~"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_precedence(text, running, EPPO)


def test_order_line_in_program_file(tmp_path):
    text = (
        "constructors: s/1 0/0\n"
        "functions: add/2\n"
        "add(s x, y) -> s add(x, y)\n"
        "add(0, y) -> y\n"
        "order: add < add\n"
        "main: add\n"
    )
    prog = parse_program(text.replace("order: add < add\n", ""))
    assert prog.declared_order is None
    withorder = parse_program(
        text.replace("order: add < add\n", "order: 0 ~ 0\n")
    )
    assert withorder.declared_order == "0 ~ 0"
    # a usable declaration drives check_program through parse_precedence
    prog2 = parse_program(
        "constructors: s0/1 s1/1 nil/0\nfunctions: f/1 append/2\n"
        "f(s1 x) -> append(x, x)\nappend(s0 x, y) -> s0 append(x, y)\n"
        "append(nil, y) -> y\norder: append < f ; s0 ~ s1\nmain: f\n"
    )
    prec = parse_precedence(prog2.declared_order, prog2, EPPO)
    assert check_program(prog2, prec, EPPO).overall


def test_mixed_classes_rejected(running):
    with pytest.raises(PrecedenceError):
        make_precedence(running, [("f", "s0")], [])


def test_cyclic_order_rejected(running):
    with pytest.raises(PrecedenceError):
        make_precedence(running, [], [("append", "f"), ("f", "append")])


def test_self_order_pair_rejected(running):
    with pytest.raises(PrecedenceError, match="^cyclic precedence declaration$"):
        make_precedence(running, [], [("f", "f")])


_SAMPLED = parse_program(
    "constructors: s0/1 s1/1 nil/0\n"
    "functions: f/1 g/2\n"
    "f(x) -> x\n"
    "g(x, y) -> x\n"
    "main: f\n"
)
_SAMPLED_PREC = make_precedence(_SAMPLED, [], [("g", "f")])


@settings(max_examples=60, deadline=None)
@given(u=terms(max_size=6))
def test_subterm_implies_less(u):
    for mode in (PPO, EPPO):
        order = PathOrder(_SAMPLED_PREC, mode)
        for sub in subterms(u):
            if sub != u:
                assert order.less(sub, u)


@settings(max_examples=60, deadline=None)
@given(s=terms(max_size=5), u=terms(max_size=5), w=terms(max_size=5))
def test_transitivity_sampled(s, u, w):
    order = PathOrder(_SAMPLED_PREC, EPPO)
    if order.less(s, u) and order.less(u, w):
        assert order.less(s, w)


@settings(max_examples=80, deadline=None)
@given(s=terms(max_size=5), u=terms(max_size=5))
def test_eppo_extends_ppo(s, u):
    if PathOrder(_SAMPLED_PREC, PPO).less(s, u):
        assert PathOrder(_SAMPLED_PREC, EPPO).less(s, u)


def test_ppo_transfer_to_blind_whole_corpus(corpus):
    for name, prog in corpus.items():
        prec = infer_precedence(prog, PPO)
        if prec is None:
            continue
        bl = blind_program(prog).program
        bl_prec = infer_precedence(bl, PPO)
        assert bl_prec is not None, name
        assert check_program(bl, bl_prec, PPO).overall, name


def test_eppo_three_way_equivalence_corpus(corpus):
    mismatches = []
    for name, prog in corpus.items():
        orig = infer_precedence(prog, EPPO) is not None
        bl = blind_program(prog).program
        bl_eppo = infer_precedence(bl, EPPO) is not None
        bl_ppo = infer_precedence(bl, PPO) is not None
        if not (orig == bl_eppo == bl_ppo):
            mismatches.append((name, orig, bl_eppo, bl_ppo))
    assert mismatches == []


def _warshall(nodes, edges):
    reach = {(a, b) for a, b in edges}
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    return reach


_NODES = range(7)
_relations = st.lists(st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)), max_size=14)


@settings(max_examples=300, deadline=None)
@given(edges=_relations)
def test_transitive_closure_matches_warshall(edges):
    succ = {n: [] for n in _NODES}
    for a, b in edges:
        succ[a].append(b)
    reach = _reach_sets(succ)
    assert {(a, b) for a in _NODES for b in reach[a]} == _warshall(_NODES, edges)


_SEVEN_FUNCTIONS = parse_program(
    "constructors: s/1 0/0\nfunctions: "
    + " ".join(f"f{i}/1" for i in _NODES)
    + "\n"
    + "".join(f"f{i}(x) -> x\n" for i in _NODES)
    + "main: f0\n"
)


@settings(max_examples=150, deadline=None)
@given(edges=_relations)
def test_precedence_below_is_the_closure_of_the_declared_pairs(edges):
    pairs = [(f"f{a}", f"f{b}") for a, b in edges if a != b]
    closure = _warshall(_NODES, [(a, b) for a, b in edges if a != b])
    if any(a == b for a, b in closure):
        with pytest.raises(PrecedenceError):
            make_precedence(_SEVEN_FUNCTIONS, [], pairs)
        return
    prec = make_precedence(_SEVEN_FUNCTIONS, [], pairs)
    ids = {prec.class_of(f"f{i}"): i for i in _NODES}
    functions_below = {(ids[a], ids[b]) for a, b in prec.below if a in ids and b in ids}
    assert functions_below == closure


def _least_quasi_order(nodes, at_most, below):
    """Classes, strict pairs between classes and cycle flag of the least
    quasi-order with a <= b for each ``at_most`` pair and a < b for each
    ``below`` pair, from a Warshall closure."""
    reach = _warshall(nodes, [*at_most, *below])
    classes = {
        a: frozenset([a, *(b for b in nodes if (a, b) in reach and (b, a) in reach)])
        for a in nodes
    }
    strict = {(classes[a], classes[b]) for a, b in reach if classes[a] != classes[b]}
    cyclic = any(classes[a] == classes[b] for a, b in below)
    return classes, strict, cyclic


def _name_classes(prec, names):
    members: dict = {}
    for n in names:
        members.setdefault(prec.class_of(n), set()).add(n)
    classes = {n: frozenset(members[prec.class_of(n)]) for n in names}
    by_id = {prec.class_of(n): classes[n] for n in names}
    return classes, {(by_id[a], by_id[b]) for a, b in prec.below}


def test_make_precedence_is_the_least_quasi_order():
    rng = random.Random(0)
    names = [f"f{i}" for i in _NODES]

    def pairs(most):
        return [tuple(rng.sample(names, 2)) for _ in range(rng.randrange(most))]

    for _ in range(400):
        at_most, below = pairs(9), pairs(4)
        if rng.random() < 0.1:
            below.append((rng.choice(names),) * 2)
        classes, strict, cyclic = _least_quasi_order(names, at_most, below)
        if cyclic:
            with pytest.raises(PrecedenceError, match="^cyclic precedence declaration$"):
                make_precedence(_SEVEN_FUNCTIONS, at_most, below)
            continue
        prec = make_precedence(_SEVEN_FUNCTIONS, at_most, below)
        assert _name_classes(prec, names) == (classes, strict), (at_most, below)


def _corpus_and_images(corpus):
    for name, prog in sorted(corpus.items()):
        yield name, prog
        yield "blind " + name, blind_program(prog).program


def test_inferred_classes_are_the_call_graph_cycles(corpus, monkeypatch):
    built = []
    real = ordering.check_program

    def recording(program, prec, mode):
        built.append(prec)
        return real(program, prec, mode)

    monkeypatch.setattr(ordering, "check_program", recording)
    for name, prog in _corpus_and_images(corpus):
        graph = static_call_graph(prog)
        calls = [(g, f) for f, callees in graph.items() for g in callees]
        classes, strict, _ = _least_quasi_order(sorted(graph), calls, [])
        infer_precedence(prog, EPPO)
        assert _name_classes(built[-1], sorted(graph)) == (classes, strict), name


# SHA-256 of the PPO ``describe`` strings of the inferred precedences of
# compile_bc(random_bc(s, 4)) and its blind image, s in 0..199, one per line.
BC_PRECEDENCES_GOLDEN = "9d63300fb20cc34433c48538e3b357d585d374ca8361326589131e559c33e267"


def test_compiled_bc_precedences_golden():
    digest = hashlib.sha256()
    for seed in range(200):
        prog = compile_bc(random_bc(seed, 4)).program
        for p in (prog, blind_program(prog).program):
            digest.update(infer_precedence(p, PPO).describe(PPO).encode() + b"\n")
    assert digest.hexdigest() == BC_PRECEDENCES_GOLDEN
