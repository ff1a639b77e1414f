"""First-order constructor terms, pattern matching and substitution.

The term language has three layers: values (constructor terms), patterns
(constructors plus variables) and general terms (which may also contain
function applications).  Programs are ordered lists of rewrite equations
``f(p1..pn) -> rhs`` over a fixed signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .base import NoMatchingEquation, SignatureError

CONSTRUCTOR = "constructor"
FUNCTION = "function"


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str
    kind: str  # CONSTRUCTOR or FUNCTION
    arity: int

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"

    @property
    def is_constructor(self) -> bool:
        return self.kind == CONSTRUCTOR

    @property
    def is_function(self) -> bool:
        return self.kind == FUNCTION


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class App:
    symbol: Symbol
    args: tuple = ()

    def __post_init__(self):
        if len(self.args) != self.symbol.arity:
            raise SignatureError(
                f"symbol {self.symbol.name}/{self.symbol.arity} applied to "
                f"{len(self.args)} arguments"
            )

    def __repr__(self) -> str:
        return format_term(self)


Term = Var | App
Substitution = dict[str, "Term"]


def format_term(t: Term) -> str:
    """Canonical fully-parenthesised printing; inverse of the parser."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol.name
    return f"{t.symbol.name}({', '.join(format_term(a) for a in t.args)})"


@lru_cache(maxsize=None)
def is_value(t: Term) -> bool:
    """A value is a ground term built only from constructors."""
    return (
        isinstance(t, App)
        and t.symbol.is_constructor
        and all(is_value(a) for a in t.args)
    )


def is_pattern(t: Term) -> bool:
    if isinstance(t, Var):
        return True
    return t.symbol.is_constructor and all(is_pattern(a) for a in t.args)


def term_size(t: Term) -> int:
    """Number of symbol and variable occurrences."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_depth(t: Term) -> int:
    """Longest root-to-leaf path; a single node has depth 1."""
    if isinstance(t, Var):
        return 1
    if not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def subterms(t: Term) -> Iterator[Term]:
    """All subterm occurrences in pre-order, including t itself."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def is_subterm(s: Term, t: Term) -> bool:
    return any(s == u for u in subterms(t))


def variables(t: Term) -> list[str]:
    """Variable names in order of first occurrence."""
    seen: list[str] = []
    for u in subterms(t):
        if isinstance(u, Var) and u.name not in seen:
            seen.append(u.name)
    return seen


def match(pattern: Term, value: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Match a pattern against a value; repeated variables must agree.

    Returns the substitution sigma with ``pattern sigma == value`` or None.
    """
    if subst is None:
        subst = {}
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = value
            return subst
        return subst if bound == value else None
    if not isinstance(value, App) or value.symbol != pattern.symbol:
        return None
    for p, v in zip(pattern.args, value.args):
        if match(p, v, subst) is None:
            return None
    return subst


def match_tuple(patterns: tuple, values: tuple) -> Optional[Substitution]:
    subst: Substitution = {}
    for p, v in zip(patterns, values):
        if match(p, v, subst) is None:
            return None
    return subst


def apply_subst(t: Term, subst: Substitution) -> Term:
    """Homomorphic replacement of variables; every variable must be bound."""
    if isinstance(t, Var):
        try:
            return subst[t.name]
        except KeyError:
            raise SignatureError(f"unbound variable {t.name}") from None
    if not t.args:
        return t
    return App(t.symbol, tuple(apply_subst(a, subst) for a in t.args))


@dataclass(frozen=True, slots=True)
class Equation:
    lhs_function: Symbol
    lhs_patterns: tuple
    rhs: Term
    index: int

    @property
    def lhs(self) -> App:
        return App(self.lhs_function, self.lhs_patterns)

    def is_left_linear(self) -> bool:
        names: list[str] = []
        for p in self.lhs_patterns:
            for u in subterms(p):
                if isinstance(u, Var):
                    names.append(u.name)
        return len(names) == len(set(names))

    def __repr__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


@dataclass(frozen=True)
class Program:
    signature: tuple
    equations: tuple
    main: Symbol
    declared_order: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        names = [s.name for s in self.signature]
        if len(names) != len(set(names)):
            raise SignatureError("duplicate symbol names in signature")
        by_name = {s.name: s for s in self.signature}
        if by_name.get(self.main.name) != self.main:
            raise SignatureError(f"main symbol {self.main.name} not declared")
        for eq in self.equations:
            for t in (eq.lhs, eq.rhs):
                for u in subterms(t):
                    if isinstance(u, App) and by_name.get(u.symbol.name) != u.symbol:
                        raise SignatureError(
                            f"equation {eq.index}: undeclared symbol {u.symbol.name}"
                        )
            for p in eq.lhs_patterns:
                if not is_pattern(p):
                    raise SignatureError(
                        f"equation {eq.index}: lhs argument {format_term(p)} "
                        "contains a function symbol"
                    )
            lhs_vars = set()
            for p in eq.lhs_patterns:
                lhs_vars.update(variables(p))
            missing = [v for v in variables(eq.rhs) if v not in lhs_vars]
            if missing:
                raise SignatureError(
                    f"equation {eq.index}: rhs variable {missing[0]} does not "
                    "occur in the lhs"
                )

    @property
    def constructors(self) -> list[Symbol]:
        return [s for s in self.signature if s.is_constructor]

    @property
    def functions(self) -> list[Symbol]:
        return [s for s in self.signature if s.is_function]

    def symbol(self, name: str) -> Symbol:
        for s in self.signature:
            if s.name == name:
                return s
        raise SignatureError(f"unknown symbol {name}")

    def equations_for(self, f: Symbol) -> list[Equation]:
        return [e for e in self.equations if e.lhs_function == f]

    def max_arity(self) -> int:
        return max((s.arity for s in self.signature), default=0)

    def has_repeated_lhs_variables(self) -> bool:
        return any(not e.is_left_linear() for e in self.equations)


def matching_equations(program: Program, call: Term) -> list[tuple[Equation, Substitution]]:
    """All equations whose patterns match a call f(v1..vn), in program order.

    Several matches are possible: the semantics is non-deterministic by
    design and equation order never acts as a priority.
    """
    if not isinstance(call, App) or not call.symbol.is_function:
        raise NoMatchingEquation(f"{format_term(call)} is not a function call")
    for a in call.args:
        if not is_value(a):
            raise NoMatchingEquation(
                f"argument {format_term(a)} of {format_term(call)} is not a value"
            )
    out = []
    for eq in program.equations:
        if eq.lhs_function != call.symbol:
            continue
        sigma = match_tuple(eq.lhs_patterns, call.args)
        if sigma is not None:
            out.append((eq, sigma))
    return out
