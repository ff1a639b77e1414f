"""Reference implementations that the program's faster code is checked
against.

Brute-force derivation enumeration is the oracle for ``outcome_table`` and
for the worst-cost derivation that ``--policy exhaustive`` rebuilds from it.

Every call-by-value derivation of a ground term is built, one rule choice
sequence at a time, so the number of derivations it may keep is capped.

``reference_successors`` is the transition expansion that sends every
call-site argument, values included, through ``derivable_value_set``: the
oracle for ``callgraph.successors``, which reads value arguments in place.

``reference_eval_expr`` evaluates a QI expression by ``Fraction``
arithmetic, node by node: the oracle for ``qi._Scaled`` and ``eval_expr``,
which compute in integers over one common denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from polytrs.base import DEFAULT_BUDGET, Budget, NoMatchingEquation, QiError, postorder, run_stack
from polytrs.callgraph import TransitionEdge
from polytrs.qi import Arg, Const, Max, Prod, QiExpr, Sum
from polytrs.semantics import (
    R_CONSTRUCTOR,
    R_FUNCTION,
    R_SPLIT,
    DerivationProof,
    Judgement,
    classify,
    derivable_value_set,
)
from polytrs.terms import App, Program, Term, Var, apply_subst, is_value, matching_equations


class _Enumeration:
    """One enumeration run; threads the budget through the recursion.  The
    methods are generator-coded for ``run_stack``."""

    def __init__(self, program: Program, budget: Budget, max_derivations: int):
        self.program = program
        self.budget = budget
        self.max_derivations = max_derivations
        self.truncated = False

    def enumerate(self, t: Term, depth: int, used: int):
        """All derivations of t whose size fits in the remaining budget."""
        if depth > self.budget.max_depth or used >= self.budget.max_rules:
            self.truncated = True
            return []
        if isinstance(t, Var):
            raise NoMatchingEquation(f"cannot evaluate open term {t.name}")
        # a step is a matching equation of a call on values, else a tuple of
        # argument derivations, for Constructor or Split
        call = t.symbol.is_function and all(is_value(a) for a in t.args)
        if call:
            steps = matching_equations(self.program, t)
        else:
            steps = yield from self._child_product(t.args, depth, used + 1)
        room = max(1, self.max_derivations)  # a cap of 0 lets one through
        out: list[Judgement] = []
        for step in steps:
            if call:
                eq, sigma = step
                bodies = yield self.enumerate(apply_subst(eq.rhs, sigma), depth + 1, used + 1)
                out += [
                    Judgement(R_FUNCTION, t, body.result, (body,), eq)
                    for body in bodies[: room - len(out)]
                ]
            else:
                value = App(t.symbol, tuple(k.result for k in step))
                if t.symbol.is_constructor:
                    out.append(Judgement(R_CONSTRUCTOR, t, value, step))
                else:
                    inner_used = used + 1 + sum(k.size for k in step)
                    finals = yield self.enumerate(value, depth + 1, inner_used)
                    out += [
                        Judgement(R_SPLIT, t, final.result, step + (final,))
                        for final in finals[: room - len(out)]
                    ]
            if len(out) >= room:
                self.truncated = True
                return out
        return out

    def _child_product(self, args: tuple, depth: int, used: int):
        """Lazy cartesian product of the argument derivations, budget-pruned."""
        lists = []
        for a in args:
            derivs = yield self.enumerate(a, depth + 1, used)
            if not derivs:
                return ()
            lists.append(derivs)
        return (kids for kids in itertools.product(*lists) if self._fits(kids, used))

    def _fits(self, kids: tuple, used: int) -> bool:
        if used + sum(k.size for k in kids) > self.budget.max_rules:
            self.truncated = True
            return False
        return True


def all_derivations(
    program: Program,
    term: Term,
    budget: Budget = DEFAULT_BUDGET,
    max_derivations: int = 5_000,
) -> tuple[list[DerivationProof], bool]:
    """Every derivation of term within the budget, at most max_derivations
    of them, in rule-choice order, plus a truncation flag."""
    run = _Enumeration(program, budget, max_derivations)
    derivs = run_stack(run.enumerate(term, 0, 0))
    return [DerivationProof(r, "cbv", classify(r)) for r in derivs], run.truncated


def reference_successors(
    program: Program,
    state: App,
    budget: Budget,
    store: dict,
    paid: set,
    charged: list,
) -> list[TransitionEdge]:
    """``successors`` as it was first written: every argument is
    instantiated, the non-value ones are listed in ``charged``, and then
    each argument's value set is read from its outcome table."""
    out = []
    for eq, sigma in matching_equations(program, state):
        for occ, sub in eq.calls.values():
            args = [apply_subst(a, sigma) for a in sub.args]
            charged.extend(a for a in args if not is_value(a))
            arg_sets = [
                derivable_value_set(program, a, store, paid, budget.max_rules)
                for a in args
            ]
            for combo in itertools.product(*arg_sets):
                out.append(TransitionEdge(App(sub.symbol, combo), eq, occ))
    return out


def reference_eval_expr(e: QiExpr, point) -> Fraction:
    """Exact rational evaluation at a point of non-negative rationals."""
    value: dict = {}
    for u in postorder([e], "items"):
        kind = type(u)
        if kind is Const:
            v = u.value
        elif kind is Arg:
            try:
                v = Fraction(point[u.index])
            except IndexError:
                raise QiError(f"point of length {len(point)} for argument {u.index + 1}")
            if v < 0:
                raise QiError("assignment expressions are evaluated on R+")
        else:
            items = [value[id(i)] for i in u.items]
            if kind is Sum:
                v = sum(items, Fraction(0))
            elif kind is Prod:
                v = Fraction(1)
                for i in items:
                    v *= i
            elif kind is Max:
                v = max(items, default=Fraction(0))
            else:
                v = min(items)
        value[id(u)] = v
    return v
