"""The theorem checkers reject tampered proofs.

Each test takes a proof that passes ``validate_proof``, changes one thing in
it and expects ``ValueError``.  A checker that accepted every proof would
pass the positive tests elsewhere in the suite; these would catch it.  A
proof may hold one judgement object at several places; such a proof must
fail with the message of its unshared copy.
"""

from __future__ import annotations

import pytest

from polytrs.parser import parse_term
from polytrs.semantics import (
    R_FUNCTION,
    R_READ,
    R_UPDATE,
    DerivationProof,
    Judgement,
    check_dependence_bounds,
    check_read_linkage,
    validate_proof,
)
from polytrs.terms import CONSTRUCTOR, App, Symbol

from .conftest import checked_cbv, checked_memo, replace, symbols_of, unshare


def replace_at(j: Judgement, path: tuple, fn) -> Judgement:
    """j with the judgement at the child-index path replaced by fn(it)."""
    if not path:
        return fn(j)
    kids = list(j.children)
    kids[path[0]] = replace_at(kids[path[0]], path[1:], fn)
    return replace(j, children=tuple(kids))


def at(j: Judgement, path: tuple) -> Judgement:
    for i in path:
        j = j.children[i]
    return j


def with_root(proof: DerivationProof, root: Judgement) -> DerivationProof:
    return replace(proof, root=root)


def message(check, *args) -> str:
    with pytest.raises(ValueError) as caught:
        check(*args)
    return str(caught.value)


def same_failure(check, proof, *args) -> str:
    """The message ``check(*args, proof)`` raises, which the proof's
    unshared copy must raise too."""
    out = message(check, *args, proof)
    assert message(check, *args, with_root(proof, unshare(proof.root))) == out
    return out


@pytest.fixture
def running(corpus):
    return corpus["running.trs"]


@pytest.fixture
def cbv(running):
    return checked_cbv(running, parse_term("f(s0 s1 nil)", symbols_of(running)))


@pytest.fixture
def memo(running):
    # root Update f(s0 s1 nil) -> Split append(f(s1 nil), f(s1 nil)) with
    # premises Update f(s1 nil), Read f(s1 nil), Update append(nil, nil)
    proof = checked_memo(running, parse_term("f(s0 s1 nil)", symbols_of(running)))
    split = at(proof.root, (0,))
    assert [c.rule for c in split.children] == [R_UPDATE, R_READ, R_UPDATE]
    return proof


def test_wrong_result_is_rejected(running, cbv):
    other = parse_term("s0 nil", symbols_of(running))
    bad = with_root(cbv, replace(cbv.root, result=other))
    with pytest.raises(ValueError, match="activation value"):
        validate_proof(running, bad)


def test_wrong_equation_is_rejected(running, cbv):
    root = cbv.root
    assert root.rule == R_FUNCTION
    other = next(eq for eq in running.equations if eq != root.equation)
    bad = with_root(cbv, replace(root, equation=other))
    with pytest.raises(ValueError):
        validate_proof(running, bad)


def test_swapped_premise_lhs_is_rejected(running, cbv):
    # the Split's last premise evaluates append(nil, nil); give it the lhs
    # of another judgement
    split = at(cbv.root, (0,))
    wrong = split.children[0].lhs
    root = replace_at(cbv.root, (0, 2), lambda j: replace(j, lhs=wrong))
    with pytest.raises(ValueError, match="Split call lhs"):
        validate_proof(running, with_root(cbv, root))


def test_read_before_update_is_rejected(running, memo):
    def swap(split):
        u, r, rest = split.children
        return replace(split, children=(r, u, rest))

    bad = with_root(memo, replace_at(memo.root, (0,), swap))
    with pytest.raises(ValueError, match="Read entry not in cache"):
        validate_proof(running, bad)
    with pytest.raises(ValueError, match="before the matching Update"):
        check_read_linkage(bad)


def test_update_of_a_cached_call_is_rejected(running, memo):
    update = at(memo.root, (0, 0))
    bad = with_root(memo, replace_at(memo.root, (0, 1), lambda j: update))
    with pytest.raises(ValueError, match="Update on a cached call"):
        validate_proof(running, bad)


def test_cache_trace_missing_an_entry_is_rejected(running, memo):
    read = at(memo.root, (0, 1))
    key = (read.lhs, read.result)
    trace = tuple(e for e in memo.cache_trace if e != key)
    assert len(trace) == len(memo.cache_trace) - 1
    bad = replace(memo, cache_trace=trace)
    with pytest.raises(ValueError, match="cache trace does not agree"):
        validate_proof(running, bad)
    with pytest.raises(ValueError, match="missing from the cache trace"):
        check_read_linkage(bad)


def test_read_of_a_call_on_a_same_named_constructor_is_rejected(corpus):
    # a memo entry is its call term: a Read whose call is built with a
    # constructor named like the function matches no Update
    doublerec = corpus["doublerec.trs"]
    memo = checked_memo(doublerec, parse_term("dup(s s s 0)", symbols_of(doublerec)))
    path = first_read_path(memo.root)
    read = at(memo.root, path)
    f = read.lhs.symbol
    forged = App(Symbol(f.name, CONSTRUCTOR, f.arity), read.lhs.args)
    bad = with_root(memo, replace_at(memo.root, path, lambda j: replace(j, lhs=forged)))
    with pytest.raises(ValueError, match="before the matching Update"):
        check_read_linkage(bad)
    with pytest.raises(ValueError, match="Split premise lhs"):
        validate_proof(doublerec, bad)


def first_read_path(j: Judgement, path: tuple = ()) -> tuple | None:
    """The child-index path of the first Read of j in pre-order, or None."""
    if j.rule == R_READ:
        return path
    for i, c in enumerate(j.children):
        found = first_read_path(c, (*path, i))
        if found is not None:
            return found
    return None


def test_dependence_member_outside_the_root_term_is_rejected(running):
    # a Constructor derivation of the value s0 s1 nil whose premise claims
    # the lhs s0 nil, which is no subterm of the dependence root
    proof = checked_cbv(running, parse_term("s0 s1 nil", symbols_of(running)))
    foreign = parse_term("s0 nil", symbols_of(running))
    root = replace_at(proof.root, (0,), lambda j: replace(j, lhs=foreign))
    with pytest.raises(ValueError, match="is not a subterm"):
        check_dependence_bounds(with_root(proof, root))


def test_one_update_object_at_two_places_is_rejected(running, memo):
    update = at(memo.root, (0, 0))
    bad = with_root(memo, replace_at(memo.root, (0, 1), lambda j: update))
    assert at(bad.root, (0, 0)) is at(bad.root, (0, 1))
    assert same_failure(validate_proof, bad, running) == (
        "invalid Update judgement at f(s1(nil)): Update on a cached call"
    )


def test_shared_function_with_a_wrong_value_is_rejected(running, cbv):
    # the Split's two f(s1 nil) premises are one Function judgement
    split = at(cbv.root, (0,))
    assert split.children[0] is split.children[1]
    wrong = parse_term("s0 nil", symbols_of(running))
    bad_call = replace(split.children[0], result=wrong)
    bad_split = replace(split, children=(bad_call, bad_call, split.children[2]))
    bad = with_root(cbv, replace_at(cbv.root, (0,), lambda j: bad_split))
    assert same_failure(validate_proof, bad, running) == (
        "invalid Function judgement at f(s1(nil)): activation value"
    )


def test_shared_function_holding_an_update_is_checked_again(running):
    # the run shares the two append(s1 nil, s1 nil) premises; an Update
    # inside the shared judgement installs its entry at the first place, so
    # the second place must fail as an unshared copy does
    term = parse_term("append(append(s1 nil, s1 nil), append(s1 nil, s1 nil))", symbols_of(running))
    proof = checked_cbv(running, term)
    call = at(proof.root, (0,))
    assert call is at(proof.root, (1,))
    inner = (0, 0)  # append(nil, s1 nil) under the Constructor s1(...)
    assert at(call, inner).lhs.symbol.name == "append"
    held = replace_at(call, inner, lambda j: replace(j, rule=R_UPDATE))
    root = replace(proof.root, children=(held, held, proof.root.children[2]))
    assert same_failure(validate_proof, with_root(proof, root), running) == (
        "invalid Update judgement at append(nil, s1(nil)): Update on a cached call"
    )


def test_shared_passive_judgement_breaking_a_bound_is_rejected(running):
    # both f(s1 s0 nil) premises are one Function judgement, so its
    # activation, the Constructor derivation of s0 nil, stands at two places
    term = parse_term("append(f(s1 s0 nil), f(s1 s0 nil))", symbols_of(running))
    proof = checked_cbv(running, term)
    call = at(proof.root, (0,))
    assert call is at(proof.root, (1,))
    foreign = parse_term("s1 nil", symbols_of(running))
    held = replace_at(call, (0, 0), lambda j: replace(j, lhs=foreign))
    root = replace(proof.root, children=(held, held, proof.root.children[2]))
    assert same_failure(check_dependence_bounds, with_root(proof, root)) == (
        "dependence member s1(nil) is not a subterm of s0(nil)"
    )
