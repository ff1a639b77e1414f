from __future__ import annotations

import pathlib

import pytest

from polytrs.parser import parse_program, parse_term
from polytrs.semantics import (
    check_dependence_bounds,
    check_read_linkage,
    eval_cbv,
    eval_memo,
    validate_proof,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CORPUS_PROGRAMS = sorted(p.name for p in CORPUS.glob("*.trs"))

# max_rules values at which the measure functions are compared with one
# unshared walk per input; None is the default budget
PARITY_BUDGETS = [*range(1, 25), 50, 200, None]


def load(name: str):
    return parse_program((CORPUS / name).read_text())


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in CORPUS_PROGRAMS}


def checked_cbv(program, term, policy=None, budget=None):
    """Evaluate and run the structural validator plus accounting invariants."""
    from polytrs.semantics import FirstMatch
    from polytrs.base import DEFAULT_BUDGET

    proof = next(
        iter(eval_cbv(program, term, policy or FirstMatch(), budget or DEFAULT_BUDGET))
    )
    validate_proof(program, proof)
    check_dependence_bounds(proof)
    return proof


def checked_memo(program, term, budget=None, allow_nonconfluent=False):
    from polytrs.base import DEFAULT_BUDGET

    proof = eval_memo(
        program, term, budget or DEFAULT_BUDGET, allow_nonconfluent=allow_nonconfluent
    )
    validate_proof(program, proof)
    check_dependence_bounds(proof)
    check_read_linkage(proof)
    return proof


def symbols_of(program):
    return {s.name: s for s in program.signature}


def t(text, program):
    return parse_term(text, symbols_of(program))


def replace(obj, **changes):
    """A record (a NamedTuple or a class with ``_fields``) rebuilt with some
    of its fields changed; an unknown field name raises TypeError."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def unshare(j):
    """A copy of the judgement j in which no judgement object occurs twice."""
    return replace(j, children=tuple(unshare(c) for c in j.children))
