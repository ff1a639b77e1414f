"""Precedences and the product path ordering termination checkers.

A precedence partitions the function symbols into equivalence classes and
orders the classes.  The path ordering places every constructor below every
function: with strict (pairwise incomparable) constructors it is PPO, with
fair constructors (same arity implies equivalent) it is EPPO.  Tuples of
arguments are compared by the product extension: every component weakly
below, some component strictly below.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .base import ParseError, PrecedenceError, run_stack
from .terms import (
    App,
    Equation,
    Program,
    Symbol,
    Term,
    _Frozen,
    _set,
    format_term,
)

PPO = "ppo"
EPPO = "eppo"

LESS = "less"
EQUIV = "equiv"
GREATER = "greater"
INCOMPARABLE = "incomparable"


class Precedence(_Frozen):
    """Partition of function names into classes plus a strict order on classes.

    ``class_ids`` maps each function name to its class id; ``below`` holds
    the transitively closed pairs (a, b) with class a strictly below class b.
    Constructors are placed by the path ordering's mode, not here.
    ``decided`` keeps, per mode, the ``(s, t) -> s < t`` decisions of every
    PathOrder built on this precedence, so no pair is decided twice.
    """

    _fields = ("class_ids", "below", "signature")
    __slots__ = _fields + ("decided", "__weakref__")

    def __init__(self, class_ids: dict, below: frozenset, signature: tuple):
        _set(self, "class_ids", class_ids)
        _set(self, "below", below)
        _set(self, "signature", signature)
        _set(self, "decided", {})

    def class_of(self, name: str) -> int:
        try:
            return self.class_ids[name]
        except KeyError:
            raise PrecedenceError(f"symbol {name} not covered by the precedence")

    def compare_symbols(self, a: Symbol, b: Symbol) -> str:
        ca, cb = self.class_of(a.name), self.class_of(b.name)
        if ca == cb:
            return EQUIV
        if (ca, cb) in self.below:
            return LESS
        if (cb, ca) in self.below:
            return GREATER
        return INCOMPARABLE

    def describe(self, mode: str) -> str:
        """Classes, then the < pairs between their least names, with the
        constructors placed as ``mode`` places them."""
        fn_groups: dict[int, list[str]] = {}
        ctor_groups: dict = {}
        for s in self.signature:
            if s.is_function:
                fn_groups.setdefault(self.class_ids[s.name], []).append(s.name)
            else:
                key = s.arity if mode == EPPO else s.name
                ctor_groups.setdefault(key, []).append(s.name)
        rep = {cid: min(names) for cid, names in fn_groups.items()}
        rels = [f"{rep[a]} < {rep[b]}" for a, b in self.below]
        rels += [f"{min(c)} < {f}" for c in ctor_groups.values() for f in rep.values()]
        groups = sorted(sorted(g) for g in [*fn_groups.values(), *ctor_groups.values()])
        parts = " ".join("{" + " ".join(g) + "}" for g in groups)
        return "; ".join([parts] + sorted(rels))


def _reach_sets(succ: dict) -> dict:
    """Each node's set of nodes reached in one or more steps: one loop-based
    walk per node."""
    reach = {}
    for start, nodes in succ.items():
        reached: set = set()
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if node not in reached:
                reached.add(node)
                stack.extend(succ[node])
        reach[start] = reached
    return reach


def make_precedence(
    program: Program,
    at_most: list[tuple[str, str]],
    below: list[tuple[str, str]],
) -> Precedence:
    """The least quasi-order on the functions with a <= b for each pair in
    ``at_most`` and a < b for each pair in ``below``.

    A class is a function with every function it reaches through the pairs
    that also reaches it back; a < pair inside one class is a cycle.  A pair
    that names a constructor or an unknown symbol is rejected outright.
    """
    succ: dict = {s.name: [] for s in program.functions}
    for op, pairs in (("<=", at_most), ("<", below)):
        for a, b in pairs:
            if a not in succ or b not in succ:
                raise PrecedenceError(f"order pair {a} {op} {b} mentions a non-function")
            succ[a].append(b)
    reach = _reach_sets(succ)
    class_ids: dict = {}
    roots = []
    for a, reached in reach.items():
        if a not in class_ids:
            class_ids[a] = len(roots)
            roots.append(a)
            for b in reached:
                if a in reach[b]:
                    class_ids[b] = class_ids[a]
    if any(class_ids[a] == class_ids[b] for a, b in below):
        raise PrecedenceError("cyclic precedence declaration")
    # Every member of a class reaches what its root reaches.
    strict = frozenset(
        (cid, class_ids[b])
        for cid, a in enumerate(roots)
        for b in reach[a]
        if class_ids[b] != cid
    )
    return Precedence(class_ids, strict, tuple(program.signature))


def parse_precedence(text: str, program: Program, mode: str = EPPO) -> Precedence:
    """Parse ``append < f ; s0 ~ s1`` into a precedence.

    ``~`` between constructors of one arity restates EPPO's fair
    constructors and is rejected under PPO; ``~`` between functions puts
    them in one class.
    """
    merges: list[tuple[str, str]] = []
    pairs: list[tuple[str, str]] = []
    fn_names = {s.name for s in program.functions}
    ctor_names = {s.name for s in program.constructors}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        op, out = ("<", pairs) if "<" in clause else ("~", merges)
        if op not in clause:
            raise ParseError(f"cannot read precedence clause {clause!r}")
        if "<" in clause and "~" in clause:
            raise ParseError(f"precedence clause {clause!r} mixes < and ~")
        parts = [p.strip() for p in clause.split(op)]
        if not all(parts):
            raise ParseError(f"precedence clause {clause!r} has an empty side")
        out.extend(zip(parts, parts[1:]))
    for pair in merges + pairs:
        for name in pair:
            if name not in fn_names and name not in ctor_names:
                raise PrecedenceError(f"unknown symbol {name} in precedence")
    for a, b in merges:
        if a in ctor_names and b in ctor_names:
            ca = next(s for s in program.constructors if s.name == a)
            cb = next(s for s in program.constructors if s.name == b)
            if mode == PPO:
                raise PrecedenceError(
                    f"{a} ~ {b} declares equivalent constructors; use EPPO"
                )
            if ca.arity != cb.arity:
                raise PrecedenceError(f"{a} ~ {b}: arities differ")
        elif a in ctor_names or b in ctor_names:
            raise PrecedenceError(f"{a} ~ {b} mixes constructor and function")
    at_most = [pair for a, b in merges if a in fn_names for pair in ((a, b), (b, a))]
    return make_precedence(program, at_most, pairs)


# -- the path ordering -------------------------------------------------------


class PathOrder:
    """Memoised decision procedure for s < t.

    The precedence orders the functions; every constructor is below every
    function, and a constructor is equivalent only to itself under PPO and
    to every constructor of its arity under EPPO.  Its memo is the
    precedence's dict of decided pairs for the mode.
    """

    def __init__(self, precedence: Precedence, mode: str):
        self.precedence = precedence
        self.mode = mode
        self._memo: dict = precedence.decided.setdefault(mode, {})

    def compare_heads(self, a: Symbol, b: Symbol) -> str:
        if a.is_function and b.is_function:
            return self.precedence.compare_symbols(a, b)
        if a.is_function:
            return GREATER
        if b.is_function:
            return LESS
        if a == b or (self.mode == EPPO and a.arity == b.arity):
            return EQUIV
        return INCOMPARABLE

    def less(self, s: Term, t: Term) -> bool:
        # Every sub-question is on a smaller pair, so none can meet a
        # question still open below it; only finished decisions are stored,
        # so a PrecedenceError leaves nothing half-decided in the shared memo.
        key = (s, t)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = run_stack(self._less(s, t))
        return hit

    def _less(self, s: Term, t: Term):
        """Decide s < t on run_stack.  A sub-question is read from the memo;
        one not there is decided by yielding its own generator, then stored."""
        memo = self._memo
        if isinstance(t, App):
            # Rule 1: s is, or is below, an immediate argument of t.
            for ti in t.args:
                if s == ti:
                    return True
                if not isinstance(ti, App):  # nothing is below a variable
                    continue
                hit = memo.get((s, ti))
                if hit is None:
                    hit = memo[s, ti] = yield self._less(s, ti)
                if hit:
                    return True
        if not (isinstance(s, App) and isinstance(t, App)):
            return False
        rel = self.compare_heads(s.symbol, t.symbol)
        if rel == LESS:
            # Rule 2: smaller head symbol, all arguments below t.
            questions = []
        elif rel == EQUIV and len(s.args) == len(t.args):
            # Rule 3: equivalent heads, product-wise smaller arguments (each
            # equal to its counterpart or below it, some below), and all
            # arguments below t.
            questions = [(a, b) for a, b in zip(s.args, t.args) if a != b]
            if not questions:
                return False
        else:
            return False
        questions += [(si, t) for si in s.args]
        for a, b in questions:
            hit = memo.get((a, b))
            if hit is None:
                hit = memo[a, b] = yield self._less(a, b)
            if not hit:
                return False
        return True


class EquationVerdict(NamedTuple):
    equation: Equation
    decreasing: bool
    failing_subgoal: Optional[str] = None


class OrderingVerdict(NamedTuple):
    mode: str
    precedence: Precedence
    per_equation: tuple

    @property
    def overall(self) -> bool:
        return all(v.decreasing for v in self.per_equation)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "precedence": self.precedence.describe(self.mode),
            "overall": self.overall,
            "per_equation": [
                {
                    "equation": v.equation.index,
                    "text": repr(v.equation),
                    "decreasing": v.decreasing,
                    "failing_subgoal": v.failing_subgoal,
                }
                for v in self.per_equation
            ],
        }


def _failing_subgoal(order: PathOrder, s: Term, t: Term) -> str:
    """A concrete unsatisfied proof obligation for s < t (which must fail)."""
    while isinstance(s, App) and isinstance(t, App):
        rel = order.compare_heads(s.symbol, t.symbol)
        if rel == LESS:
            below = next((si for si in s.args if not order.less(si, t)), None)
            if below is not None:
                s = below
                continue
        if rel == EQUIV and len(s.args) == len(t.args):
            for a, b in zip(s.args, t.args):
                if a != b and not order.less(a, b):
                    return (
                        f"{format_term(a)} is not below {format_term(b)} "
                        "in the product comparison"
                    )
            if all(a == b for a, b in zip(s.args, t.args)):
                return "no strictly decreasing argument in the product comparison"
        break
    return f"{format_term(s)} is not below {format_term(t)}"


def check_program(program: Program, precedence: Precedence, mode: str) -> OrderingVerdict:
    """Per-equation decrease check r < l; the verdict carries witnesses."""
    order = PathOrder(precedence, mode)
    verdicts = []
    for eq in program.equations:
        lhs = eq.lhs
        if order.less(eq.rhs, lhs):
            verdicts.append(EquationVerdict(eq, True))
        else:
            verdicts.append(
                EquationVerdict(eq, False, _failing_subgoal(order, eq.rhs, lhs))
            )
    return OrderingVerdict(mode, precedence, tuple(verdicts))


def static_call_graph(program: Program) -> dict:
    """f -> set of functions occurring in the rhs of f's equations."""
    out: dict[str, set] = {f.name: set() for f in program.functions}
    for eq in program.equations:
        out[eq.lhs_function.name].update(u.symbol.name for _, u in eq.calls.values())
    return out


def order_verdict(
    program: Program, mode: str, order_text: Optional[str] = None
) -> Optional[OrderingVerdict]:
    """The ordering verdict every stage shares; its ``.precedence`` is the
    precedence.

    Checks the given precedence, else the program's declared ``order:``,
    else the inferred candidate.  None when the inferred candidate fails.
    """
    text = order_text or program.declared_order
    if text:
        return check_program(program, parse_precedence(text, program, mode), mode)
    return _inferred_verdict(program, mode)


def infer_precedence(program: Program, mode: str = EPPO) -> Optional[Precedence]:
    """The inferred candidate when the program passes under it, else None.

    Ignores a declared ``order:``; ``order_verdict`` honours it.
    """
    verdict = _inferred_verdict(program, mode)
    return verdict.precedence if verdict else None


def _inferred_verdict(program: Program, mode: str) -> Optional[OrderingVerdict]:
    """Canonical candidate: each callee at most its caller, so the classes
    are the call graph's cycles and the order is the calls between them.

    Only this finest compatible candidate is tried.
    """
    calls = [(g, f) for f, callees in static_call_graph(program).items() for g in callees]
    verdict = check_program(program, make_precedence(program, calls, []), mode)
    return verdict if verdict.overall else None
