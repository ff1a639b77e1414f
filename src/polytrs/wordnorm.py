"""Word-program analysis: production sizes, normality, normalization,
bounded-values measurement and the facts the extended criterion adds.

Everything here assumes unary words: all constructors have arity at most
one, so patterns are either ground words or a constructor prefix applied to
a variable.  Programs mixing in wider constructors are rejected outright.
``normalize`` takes the caller's fair-order verdict, and
``certify_extended`` returns only the facts it adds to the caller's.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .base import Budget, DEFAULT_BUDGET, NormalizationError, NotWordProgram
from .callgraph import reachable_states
from .blind import classify_growth, measure_strong_poly, walk_inputs, word_alphabet
from .ordering import EPPO, OrderingVerdict, Precedence
from .qi import QiExpr, VALID, eval_expr
from .terms import (
    App,
    apply_subst,
    Equation,
    Program,
    Symbol,
    Term,
    Var,
    format_term,
    variables,
)

MAX_EQUATIONS = 10_000  # normalization gives up past this many equations


class WordPattern(NamedTuple):
    prefix: tuple  # unary constructor symbols, outermost first
    tail: Optional[str]  # variable name, or None for a ground word

    @property
    def length(self) -> int:
        """Pattern length: |prefix| for open patterns, the full constructor
        count (prefix plus terminator) for ground ones."""
        return len(self.prefix) + (1 if self.tail is None else 0)


def word_pattern(p: Term) -> WordPattern:
    prefix = []
    while isinstance(p, App) and p.symbol.arity == 1:
        if not p.symbol.is_constructor:
            raise NotWordProgram(f"{p.symbol.name} is not a constructor")
        prefix.append(p.symbol)
        p = p.args[0]
    if isinstance(p, Var):
        return WordPattern(tuple(prefix), p.name)
    if isinstance(p, App) and p.symbol.is_constructor and p.symbol.arity == 0:
        return WordPattern(tuple(prefix), None)
    raise NotWordProgram(f"{format_term(p)} is not a word pattern")


class SameClassCall(NamedTuple):
    equation: Equation
    occurrence: int
    callee: Symbol
    arg_patterns: tuple  # WordPattern per argument

    @property
    def production_size(self) -> int:
        return max((w.length for w in self.arg_patterns), default=0)


class ProductionProfile(NamedTuple):
    per_equation: dict  # equation index -> K_e
    per_class: dict  # class id -> K_h
    calls: tuple  # SameClassCall in label order


def same_class_calls(program: Program, precedence: Precedence) -> list[SameClassCall]:
    """The labelled enumeration g^1..g^n of same-class rhs call sites."""
    word_alphabet(program)
    out = []
    for eq in program.equations:
        cls = precedence.class_of(eq.lhs_function.name)
        for occ, sub in eq.calls.values():
            if precedence.class_of(sub.symbol.name) != cls:
                continue
            args = []
            for a in sub.args:
                try:
                    args.append(word_pattern(a))
                except NotWordProgram:
                    raise NotWordProgram(
                        f"equation {eq.index}: same-class call argument "
                        f"{format_term(a)} is not a word pattern"
                    )
            out.append(SameClassCall(eq, occ, sub.symbol, tuple(args)))
    return out


def production_profile(program: Program, precedence: Precedence) -> ProductionProfile:
    """Exact production sizes K_e per equation and K per precedence class."""
    calls = same_class_calls(program, precedence)
    per_equation: dict = {eq.index: 0 for eq in program.equations}
    for call in calls:
        per_equation[call.equation.index] = max(
            per_equation[call.equation.index], call.production_size
        )
    per_class: dict = {}
    for eq in program.equations:
        cls = precedence.class_of(eq.lhs_function.name)
        per_class[cls] = max(per_class.get(cls, 0), per_equation[eq.index])
    return ProductionProfile(per_equation, per_class, tuple(calls))


class NormalityReport(NamedTuple):
    normal: bool
    witnesses: tuple  # (equation index, argument position, length, required)


def is_normal(program: Program, precedence: Precedence) -> NormalityReport:
    """Every pattern of every same-class equation is at least K long.

    Ground patterns count their terminator (full length); open patterns
    count the constructor prefix.
    """
    profile = production_profile(program, precedence)
    witnesses = []
    for eq in program.equations:
        k = profile.per_class.get(precedence.class_of(eq.lhs_function.name), 0)
        for i, p in enumerate(eq.lhs_patterns):
            w = word_pattern(p)
            if w.length < k:
                witnesses.append((eq.index, i, w.length, k))
    return NormalityReport(not witnesses, tuple(witnesses))


def _fresh_var(eq: Equation, base: str) -> str:
    used = set()
    for t in (eq.lhs,) + (eq.rhs,):
        used.update(variables(t))
    cand = base + "'"
    while cand in used:
        cand += "'"
    return cand


def _instantiate(eq: Equation, var: str, replacement: Term) -> Equation:
    subst = {var: replacement}
    for v in variables(eq.lhs):
        subst.setdefault(v, Var(v))
    return Equation(
        eq.lhs_function,
        tuple(apply_subst(p, subst) for p in eq.lhs_patterns),
        apply_subst(eq.rhs, subst),
        eq.index,
    )


def normalize(program: Program, verdict: Optional[OrderingVerdict]) -> Program:
    """Extend under-sized patterns until every class reaches its production size.

    ``verdict`` is the caller's fair-order verdict, which must pass; its
    precedence gives the classes.  An equation whose pattern is shorter
    than the class K is replaced by its instances under tail |-> c(tail')
    for every unary constructor and tail |-> z for every nullary one; K is
    recomputed every round.  Ground patterns cannot be extended, so a
    ground pattern below K is an error.
    """
    unary, nullary = word_alphabet(program)
    if verdict is None or verdict.mode != EPPO or not verdict.overall:
        raise NormalizationError(
            "normalization needs a program ordered by the fair path order"
        )
    precedence = verdict.precedence
    equations = list(program.equations)
    while True:
        prog = Program(program.signature, tuple(
            Equation(e.lhs_function, e.lhs_patterns, e.rhs, i)
            for i, e in enumerate(equations)
        ), program.main)
        witnesses = is_normal(prog, precedence).witnesses
        if not witnesses:
            return prog
        index, position, length, k = witnesses[0]
        eq = prog.equations[index]  # prog was re-indexed by list position
        tail = word_pattern(eq.lhs_patterns[position]).tail
        if tail is None:
            raise NormalizationError(
                f"equation {eq.index}: ground pattern of length "
                f"{length} cannot reach the production size {k}"
            )
        instances = []
        for c in unary:
            fresh = _fresh_var(eq, tail)
            instances.append(_instantiate(eq, tail, App(c, (Var(fresh),))))
        for z in nullary:
            instances.append(_instantiate(eq, tail, App(z)))
        equations = equations[:index] + instances + equations[index + 1 :]
        if len(equations) > MAX_EQUATIONS:
            raise NormalizationError(
                f"normalization exceeded the {MAX_EQUATIONS}-equation cap"
            )


def normalization_diff(original: Program, normalized: Program) -> dict:
    old = {repr(e) for e in original.equations}
    new = {repr(e) for e in normalized.equations}
    return {
        "added": sorted(new - old),
        "removed": sorted(old - new),
        "equations_before": len(original.equations),
        "equations_after": len(normalized.equations),
    }


# -- bounded values measurement --------------------------------------------------


class BoundedValuesRow(NamedTuple):
    size: int
    max_state_size: int
    states: int
    truncated: bool
    poly_ok: Optional[bool] = None

    def as_dict(self) -> dict:
        return {
            "n": self.size,
            "max_state_size": self.max_state_size,
            "states": self.states,
            "truncated": self.truncated,
            "poly_ok": self.poly_ok,
        }


def measure_bounded_values(
    program: Program,
    sizes: range = range(1, 9),
    budget: Budget = DEFAULT_BUDGET,
    user_poly: Optional[QiExpr] = None,
    inputs_cap: int = 32,
    seed: int = 0,
) -> list[BoundedValuesRow]:
    """Per input size, the largest state in any call tree of any input.

    States are enumerated through the transition relation, which agrees
    with call-tree membership; a user polynomial in the input size is
    checked against each untruncated row when supplied.  All walks share
    one successor map beside the outcome store of ``walk_inputs``, so each
    state is expanded, and each outcome state derived, once across every
    walk.  Each walk is still charged the budget it would be charged on its
    own: a state it reads from the map charges the outcome states of that
    expansion's arguments again.
    """
    successor_map: dict = {}

    def walk(term: App, store: dict) -> set:
        return reachable_states(program, term, budget, successor_map, store)

    def fold(acc: tuple, states: set) -> tuple:
        worst, count = acc
        return max(worst, max(st.size for st in states)), count + len(states)

    rows = []
    for n, (worst, count), truncated in walk_inputs(
        program, sizes, inputs_cap, seed, walk, fold, (0, 0)
    ):
        poly_ok = None
        if user_poly is not None and not truncated:
            poly_ok = eval_expr(user_poly, [n]) >= worst
        rows.append(BoundedValuesRow(n, worst, count, truncated, poly_ok))
    return rows


# -- extended certification ------------------------------------------------------


class ExtendedVerdict(NamedTuple):
    word: bool
    normalized: bool
    normal_equations: Optional[int]
    bounded_values: str  # certified | empirical-poly | empirical-exp | unknown
    growth: Optional[dict]
    value_rows: Optional[tuple]

    def as_dict(self) -> dict:
        return {
            "word_program": self.word,
            "normalized": self.normalized,
            "normal_equations": self.normal_equations,
            "bounded_values": self.bounded_values,
            "growth": self.growth,
            "value_rows": [r.as_dict() for r in self.value_rows] if self.value_rows else None,
        }


_EMPIRICAL = {"exponential-consistent": "empirical-exp", "polynomial-consistent": "empirical-poly"}


def certify_extended(
    program: Program,
    eppo: Optional[OrderingVerdict],
    qi_overall: Optional[str],
    orthogonal: bool,
    linear: Optional[bool],
    sizes: range = range(1, 9),
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
) -> ExtendedVerdict:
    """The facts the extended criterion adds to the caller's.

    Takes the fair-order verdict, the QI verdict, orthogonality and
    linearity as computed by the caller, and returns only normalization and
    the bounded-values class: certified by a valid quasi-interpretation, or
    else measured on a word program.  ``report.decide`` draws the verdict.
    """
    word = True
    try:
        word_alphabet(program)
    except NotWordProgram:
        word = False
    normalized = False
    normal_equations = None
    try:
        working = normalize(program, eppo)
        normalized = working.equations != program.equations
        normal_equations = len(working.equations)
    except (NormalizationError, NotWordProgram):
        pass

    growth = None
    value_rows = None
    bounded = "unknown"
    if qi_overall == VALID:
        bounded = "certified"
    elif word:
        # With a memoisation (or linear cbv) path the relevant empirical
        # quantity is the size of reachable states; without one, plain
        # call-by-value growth is all there is to measure.
        if orthogonal or linear:
            value_rows = tuple(
                measure_bounded_values(program, sizes=sizes, budget=budget, seed=seed)
            )
            cls = classify_growth([r.max_state_size for r in value_rows if not r.truncated])
            # two or more constant, untruncated rows are polynomial, also
            # below the four rows classify_growth needs; one row shows no trend
            constant = len(value_rows) > 1 and len({r.max_state_size for r in value_rows}) == 1
            if constant and not any(r.truncated for r in value_rows):
                cls = "polynomial-consistent"
        else:
            growth = measure_strong_poly(program, sizes=sizes, budget=budget, seed=seed).as_dict()
            cls = growth["classification"]["worst_rules"]
        bounded = _EMPIRICAL.get(cls, bounded)

    return ExtendedVerdict(word, normalized, normal_equations, bounded, growth, value_rows)
