"""The theorem checkers reject tampered proofs.

Each test takes a proof that passes ``validate_proof``, changes one thing in
it and expects ``ValueError``.  A checker that accepted every proof would
pass the positive tests elsewhere in the suite; these would catch it.
"""

from __future__ import annotations

import dataclasses

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
from polytrs.terms import App

from .conftest import checked_cbv, checked_memo, symbols_of


def replace_at(j: Judgement, path: tuple, fn) -> Judgement:
    """j with the judgement at the child-index path replaced by fn(it)."""
    if not path:
        return fn(j)
    kids = list(j.children)
    kids[path[0]] = replace_at(kids[path[0]], path[1:], fn)
    return dataclasses.replace(j, children=tuple(kids))


def at(j: Judgement, path: tuple) -> Judgement:
    for i in path:
        j = j.children[i]
    return j


def with_root(proof: DerivationProof, root: Judgement) -> DerivationProof:
    return dataclasses.replace(proof, root=root)


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
    other = App(running.symbol("s0"), (App(running.symbol("nil")),))
    bad = with_root(cbv, dataclasses.replace(cbv.root, result=other))
    with pytest.raises(ValueError, match="activation value"):
        validate_proof(running, bad)


def test_wrong_equation_is_rejected(running, cbv):
    root = cbv.root
    assert root.rule == R_FUNCTION
    other = next(eq for eq in running.equations if eq != root.equation)
    bad = with_root(cbv, dataclasses.replace(root, equation=other))
    with pytest.raises(ValueError):
        validate_proof(running, bad)


def test_swapped_premise_lhs_is_rejected(running, cbv):
    # the Split's last premise evaluates append(nil, nil); give it the lhs
    # of another judgement
    split = at(cbv.root, (0,))
    wrong = split.children[0].lhs
    root = replace_at(cbv.root, (0, 2), lambda j: dataclasses.replace(j, lhs=wrong))
    with pytest.raises(ValueError, match="Split call lhs"):
        validate_proof(running, with_root(cbv, root))


def test_read_before_update_is_rejected(running, memo):
    def swap(split):
        u, r, rest = split.children
        return dataclasses.replace(split, children=(r, u, rest))

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
    key = (read.lhs.symbol.name, read.lhs.args, read.result)
    trace = tuple(e for e in memo.cache_trace if e != key)
    assert len(trace) == len(memo.cache_trace) - 1
    bad = dataclasses.replace(memo, cache_trace=trace)
    with pytest.raises(ValueError, match="cache trace does not agree"):
        validate_proof(running, bad)
    with pytest.raises(ValueError, match="missing from the cache trace"):
        check_read_linkage(bad)


def test_dependence_member_outside_the_root_term_is_rejected(running):
    # a Constructor derivation of the value s0 s1 nil whose premise claims
    # the lhs s0 nil, which is no subterm of the dependence root
    proof = checked_cbv(running, parse_term("s0 s1 nil", symbols_of(running)))
    foreign = parse_term("s0 nil", symbols_of(running))
    root = replace_at(proof.root, (0,), lambda j: dataclasses.replace(j, lhs=foreign))
    with pytest.raises(ValueError, match="is not a subterm"):
        check_dependence_bounds(with_root(proof, root))
