from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from polytrs.base import ParseError, SignatureError
from polytrs.bc import (
    BcCond,
    BcPred,
    BcProj,
    BcSafeComp,
    BcSafeRec,
    BcSucc,
    BcZero,
    bc_arity,
    compile_bc,
    parse_bc,
    random_bc,
)
from polytrs.blind import blind_program, program_is_linear, transfer_uniform_qi
from polytrs.ordering import PPO, infer_precedence
from polytrs.parser import format_program, parse_program
from polytrs import qi
from polytrs.qi import (
    check_conditions,
    check_qi,
    eval_expr,
    format_assignment,
    is_uniform,
    parse_assignment,
)
from polytrs.terms import App

from .conftest import CORPUS, checked_cbv
from .reference import (
    bc_eval,
    bits_to_word,
    format_bc,
    reference_compile_entries,
    word_to_bits,
)


def run_compiled(comp, normals, safes):
    args = tuple(bits_to_word(b) for b in normals + safes)
    proof = checked_cbv(comp.program, App(comp.main, args))
    return word_to_bits(proof.result)


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((0, 1), repeat=n)


def test_arities():
    assert bc_arity(BcZero()) == (0, 0)
    assert bc_arity(BcSucc(1)) == (0, 1)
    assert bc_arity(BcPred()) == (0, 1)
    assert bc_arity(BcCond()) == (0, 3)
    assert bc_arity(BcProj(2, 1, 3)) == (2, 1)
    rec = BcSafeRec(
        BcProj(0, 1, 1),
        BcSafeComp(1, 2, BcSucc(0), (), (BcProj(1, 2, 3),)),
        BcSafeComp(1, 2, BcSucc(1), (), (BcProj(1, 2, 3),)),
    )
    assert bc_arity(rec) == (1, 1)


def test_arity_inconsistency_rejected():
    with pytest.raises(SignatureError):
        bc_arity(BcSafeRec(BcProj(0, 1, 1), BcPred(), BcPred()))
    with pytest.raises(SignatureError):
        bc_arity(BcSafeComp(1, 1, BcZero(), (BcPred(),), ()))
    with pytest.raises(SignatureError):
        BcProj(1, 1, 3)


def test_arity_clash_is_reported_in_the_algebras_notation():
    text = "(rec (zero) (proj 0 1 1) (proj 0 1 1))"
    message = r"recursion step has arity \(0; 1\), needs \(1; 1\)$"
    with pytest.raises(SignatureError, match=message):
        bc_arity(BcSafeRec(BcZero(), BcProj(0, 1, 1), BcProj(0, 1, 1)))
    with pytest.raises(ParseError, match=r"^1:39: " + message):
        parse_bc(text)


def test_compile_pred_rules():
    comp = compile_bc(BcPred())
    text = format_program(comp.program)
    assert "bc_pred_0(0) -> 0" in text
    assert "bc_pred_0(s0(y1)) -> y1" in text
    assert "bc_pred_0(s1(y1)) -> y1" in text


def test_compile_cond_rules():
    comp = compile_bc(BcCond())
    text = format_program(comp.program)
    assert "bc_cond_0(0, y1, y2) -> y1" in text
    assert "bc_cond_0(s0(w), y1, y2) -> y1" in text
    assert "bc_cond_0(s1(w), y1, y2) -> y2" in text


def test_initial_functions_agree_with_reference():
    cases = [
        (BcPred(), 0, 1),
        (BcCond(), 0, 3),
        (BcProj(1, 1, 1), 1, 1),
        (BcProj(1, 1, 2), 1, 1),
        (BcProj(0, 2, 2), 0, 2),
    ]
    for bc, n, m in cases:
        comp = compile_bc(bc)
        pools = [w for w in all_words(2)]
        for args in itertools.product(pools, repeat=n + m):
            normals, safes = args[:n], args[n:]
            assert run_compiled(comp, normals, safes) == bc_eval(bc, normals, safes)


def test_pred_exhaustive_words():
    comp = compile_bc(BcPred())
    for w in all_words(6):
        assert run_compiled(comp, (), (w,)) == w[1:]


def test_addition_example():
    add = parse_bc((CORPUS / "add.bc").read_text())
    comp = compile_bc(add)
    for a in all_words(3):
        for b in all_words(3):
            got = run_compiled(comp, (a,), (b,))
            assert len(got) == len(a) + len(b)
            assert got == bc_eval(add, (a,), (b,))


def test_auto_qi_pinned_entries():
    comp = compile_bc(BcPred())
    pred = next(n for n in comp.qi.entries if n.startswith("bc_pred"))
    for x in (0, 1, 5):
        assert eval_expr(comp.qi.entries[pred], [x]) == x  # floor(p)(X) = X
    comp = compile_bc(BcCond())
    cond = next(n for n in comp.qi.entries if n.startswith("bc_cond"))
    for p in ((0, 1, 2), (5, 3, 1), (2, 2, 7)):
        assert eval_expr(comp.qi.entries[cond], list(p)) == max(p)
    assert eval_expr(comp.qi.entries["s0"], [4]) == 5
    assert eval_expr(comp.qi.entries["0"], []) == 1


def test_auto_qi_recursion_recurrence():
    add = parse_bc((CORPUS / "add.bc").read_text())
    comp = compile_bc(add)
    # q_f(A) = A*(q_h0 + q_h1)(A) + q_g, padded with the normal argument;
    # each step q_h = 1 + 2A (successor constant, projection sum, padding)
    # and q_g = 0.
    q_h = lambda a: 1 + 2 * a
    q_f = lambda a: a * (q_h(a) + q_h(a)) + 0 + a
    entry = comp.qi.entries[comp.main.name]
    for a, y in ((3, 2), (0, 0), (2, 5)):
        assert eval_expr(entry, [a, y]) == q_f(a) + y


def test_compiled_pipeline_addition():
    add = parse_bc((CORPUS / "add.bc").read_text())
    comp = compile_bc(add)
    prec = infer_precedence(comp.program, PPO)
    assert prec is not None
    assert program_is_linear(comp.program, prec)
    assert is_uniform(comp.qi, comp.program)
    assert check_conditions(comp.qi, comp.program).ok
    assert check_qi(comp.program, comp.qi).overall == "valid"


def test_recursion_symbol_above_components():
    add = parse_bc((CORPUS / "add.bc").read_text())
    comp = compile_bc(add)
    prec = infer_precedence(comp.program, PPO)
    rec = comp.main
    for f in comp.program.functions:
        if f != rec:
            assert prec.compare_symbols(f, rec) == "less"


def test_random_bc_reproducible():
    assert random_bc(7, 3) == random_bc(7, 3)
    assert bc_arity(random_bc(7, 3))  # arity-consistent
    shallow = random_bc(1, 0)
    assert isinstance(
        shallow, (BcZero, BcSucc, BcPred, BcCond, BcProj)
    )


def test_sexpr_roundtrip():
    for seed in range(25):
        bc = random_bc(seed, 3)
        assert parse_bc(format_bc(bc)) == bc


def test_sexpr_errors():
    with pytest.raises(ParseError):
        parse_bc("(rec (proj 1 0 1))")
    with pytest.raises(ParseError):
        parse_bc("(frobnicate)")
    with pytest.raises(ParseError, match=r"^1:12: projection index out of range$"):
        parse_bc("(proj 0 0 1)")
    with pytest.raises(ParseError, match=r"^1:21: unexpected end of input$"):
        parse_bc("(comp (0 0) (zero) (")
    with pytest.raises(ParseError, match=r"^2:3: unknown algebra constructor 'frob'$"):
        parse_bc("; a comment (\n (frob)")


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)])
def test_compiled_text_checks_as_the_compilation(seeds):
    # The bc-compile -> check-qi route: the program and assignment read back
    # from their text, with a fresh memo, get the compilation's verdict.
    for seed in seeds:
        comp = compile_bc(random_bc(seed, 4))
        program = parse_program(format_program(comp.program))
        assignment = parse_assignment(format_assignment(comp.qi, comp.program), program)
        assert not assignment.memo
        assert check_qi(program, assignment).as_dict() == check_qi(comp.program, comp.qi).as_dict()


def test_bc_property_suite_sample():
    # The full 200-seed sweep lives in the acceptance suite.
    for seed in range(40):
        bc = random_bc(seed, 4)
        comp = compile_bc(bc)
        prec = infer_precedence(comp.program, PPO)
        assert prec is not None, seed
        assert program_is_linear(comp.program, prec), seed
        assert is_uniform(comp.qi, comp.program), seed
        assert check_qi(comp.program, comp.qi).overall == "valid", seed
        image = blind_program(comp.program)
        assert infer_precedence(image.program, PPO) is not None, seed
        moved = transfer_uniform_qi(comp.qi, comp.program, image)
        assert check_qi(image.program, moved).overall == "valid", seed


def test_compiled_semantics_matches_reference_randomly():
    import random as rnd

    rng = rnd.Random(5)
    for seed in range(12):
        bc = random_bc(seed, 3)
        n, m = bc_arity(bc)
        comp = compile_bc(bc)
        for _ in range(4):
            normals = tuple(
                tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
                for _ in range(n)
            )
            safes = tuple(
                tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
                for _ in range(m)
            )
            assert run_compiled(comp, normals, safes) == bc_eval(bc, normals, safes)


def test_blind_image_growth_within_assembled_bound():
    from polytrs.blind import measure_strong_poly
    from .bounds import strong_poly_bound

    add = parse_bc((CORPUS / "add.bc").read_text())
    comp = compile_bc(add)
    image = blind_program(comp.program)
    prec = infer_precedence(image.program, PPO)
    moved = transfer_uniform_qi(comp.qi, comp.program, image)
    assert check_qi(image.program, moved).overall == "valid"
    table = measure_strong_poly(image.program, sizes=range(1, 6))
    for row in table.rows:
        assert row.worst_rules <= strong_poly_bound(image.program, moved, prec, row.size)


# -- the compiled entries ---------------------------------------------------------


def _assert_entries_are_the_reference(comp):
    """Each entry is the node the substitute-and-simplify route builds, and
    each form compile_bc enters in the memo is its key's own normal form."""
    expected = reference_compile_entries(comp)
    assert expected.keys() == {f.name for f in comp.program.functions}
    for name, entry in expected.items():
        assert comp.qi.entries[name] is entry, name
    for (e, arity), known in comp.qi.memo.items():
        fresh: dict = {}
        qi.max_posy_form(e, arity, fresh)
        assert known == fresh[e, arity], qi.format_expr(e)


@pytest.mark.parametrize("depth, seeds", [(4, range(200)), (6, range(40))])
def test_compiled_entries_match_the_substitute_route(depth, seeds):
    for seed in seeds:
        _assert_entries_are_the_reference(compile_bc(random_bc(seed, depth)))


def test_entry_keeps_its_max_above_the_branch_cap():
    # BRANCH_CAP + 1 safe arguments keep q + max(safe arguments), which has
    # no normal form within the cap; BRANCH_CAP give a max of as many
    # branches, entered with its form.
    cap = qi.BRANCH_CAP
    comp = compile_bc(BcSafeComp(1, cap + 1, BcZero(), (), ()))
    _assert_entries_are_the_reference(comp)
    entry = comp.qi.entries[comp.main.name]
    assert isinstance(entry, qi.Sum) and len(entry.items[1].items) == cap + 1
    assert (entry, cap + 2) not in comp.qi.memo
    below = compile_bc(BcSafeComp(1, cap, BcZero(), (), ()))
    entry = below.qi.entries[below.main.name]
    assert isinstance(entry, qi.Max) and len(entry.items) == cap
    assert len(below.qi.memo[entry, cap + 1]) == cap


# -- the assignment's QI memo ----------------------------------------------------

CHAIN_SEEDS = (5, 17, 42, 123, 199)


def _qi_chain(term):
    """compile_bc, check_qi, transfer_uniform_qi, then check_qi on the image."""
    comp = compile_bc(term)
    verdict = check_qi(comp.program, comp.qi)
    image = blind_program(comp.program)
    moved = transfer_uniform_qi(comp.qi, comp.program, image)
    return comp, verdict, moved, check_qi(image.program, moved)


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_chain_expands_each_normal_form_once(seed, monkeypatch):
    expanded = []
    original = qi._expand

    def counting(e, arity, *rest):
        expanded.append((e, arity))
        return original(e, arity, *rest)

    monkeypatch.setattr(qi, "_expand", counting)
    comp, verdict, moved, moved_verdict = _qi_chain(random_bc(seed, 4))
    assert verdict.overall == moved_verdict.overall == "valid"
    assert expanded and len(expanded) == len(set(expanded))
    assert moved.memo is comp.qi.memo


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_chain_computes_each_max_free_posynomial_once(seed, monkeypatch):
    # A max-free node's posynomial is the same under every branch choice and
    # in every expression that contains it, so the assignment's memo keeps it.
    computed = []
    original = qi._posy_of

    def counting(u, posy, arity):
        if not u.has_max:
            computed.append((u, arity))
        return original(u, posy, arity)

    monkeypatch.setattr(qi, "_posy_of", counting)
    comp, verdict, moved, moved_verdict = _qi_chain(random_bc(seed, 4))
    assert verdict.overall == moved_verdict.overall == "valid"
    assert computed and len(computed) == len(set(computed))


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_chain_memo_holds_each_expressions_own_form(seed):
    # Every normal form in the memo, whether compile_bc entered it, an
    # expansion entered it for a max-free node, or the image's check read
    # it, is the one a fresh memo gives.
    comp, verdict, moved, moved_verdict = _qi_chain(random_bc(seed, 4))
    keys = [k for k in comp.qi.memo if len(k) == 2 and type(k[1]) is int]
    assert any(not e.has_max for e, _ in keys) and any(e.has_max for e, _ in keys)
    for e, arity in keys:
        assert comp.qi.memo[e, arity] == qi.max_posy_form(e, arity, {}), qi.format_expr(e)


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_image_check_reuses_every_expression(seed, monkeypatch):
    # The image's obligations are the program's (entry, arguments)
    # substitutions, so its check builds and expands nothing.
    comp = compile_bc(random_bc(seed, 4))
    check_qi(comp.program, comp.qi)
    image = blind_program(comp.program)
    moved = transfer_uniform_qi(comp.qi, comp.program, image)
    calls = []
    for name in ("substitute", "_expand"):
        original = getattr(qi, name)
        monkeypatch.setattr(
            qi, name, lambda *a, name=name, f=original: calls.append(name) or f(*a)
        )
    assert check_qi(image.program, moved).overall == "valid"
    assert calls == []


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_assignments_die_by_reference_counting(seed):
    # The memo is held by the two assignments alone, so it goes with them.
    gc.collect()
    gc.disable()
    try:
        comp, verdict, moved, moved_verdict = _qi_chain(random_bc(seed, 4))
        verdict.as_dict(), moved_verdict.as_dict()  # format the obligations
        asg, moved_ref = weakref.ref(comp.qi), weakref.ref(moved)
        assert asg() is not None
        del comp, verdict, moved, moved_verdict
        assert asg() is None and moved_ref() is None
    finally:
        gc.enable()
