"""First-order constructor terms, pattern matching and substitution.

The term language has three layers: values (constructor terms), patterns
(constructors plus variables) and general terms (which may also contain
function applications).  Programs are ordered lists of rewrite equations
``f(p1..pn) -> rhs`` over a fixed signature.

Symbols, variables, terms, equations and programs are hash-consed: each is
built through one weak-value intern table, so there is one object per
distinct value, ``==`` is identity and the hash is the address.  As an
address differs from process to process, even under one ``PYTHONHASHSEED``,
no output may follow the iteration order of a set of them.  ``_Frozen`` is
the immutable base of these and of the package's other identity-equal
records.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional

from .base import NoMatchingEquation, SignatureError

CONSTRUCTOR = "constructor"
FUNCTION = "function"


# The intern table of every hash-consed object: a symbol, variable, equation,
# program, QI node or algebra term under (class, fields), a term under
# (symbol, args), which no such key equals, as its first item is a Symbol.
# Each entry is a weak reference to the one object, so ``==`` can be
# identity and the hash the address, both object's own, in C.
_INTERNED: dict = {}


class _Ref(weakref.ref):
    """An intern-table reference that knows its key, for ``_forget``.

    Built by ``weakref.ref``'s own constructor in C; the key is set after.
    """

    __slots__ = ("key",)


def _intern(key: tuple, node):
    """Enter a new node as the one node for key, until it is freed."""
    ref = _Ref(node, _forget)
    ref.key = key
    _INTERNED[key] = ref
    return node


def _forget(ref: _Ref, table: dict = _INTERNED) -> None:
    """Drop a dead node's entry, unless a newer node already took the key."""
    if table.get(ref.key) is ref:
        del table[ref.key]


_set = object.__setattr__


class _Frozen:
    """An object whose slots are stored once, by ``_set``, as it is built."""

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name}")

    __delattr__ = __setattr__


class _Interned(_Frozen):
    """An immutable object, one per (class, fields), built through the
    intern table.  A subclass names its fields in ``_fields``; ``_fill``
    checks them, then stores them, and whatever is derived from them, on a
    new object, so no rejected object is interned."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *values):
        key = (cls, *values)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node._fill(*values)
        return _intern(key, node)

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __reduce__(self):
        # Unpickling and copies rebuild through the intern table.
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Symbol(_Interned):
    """A constructor or function symbol, interned by name, kind and arity;
    its kind flags are stored when it is built."""

    __slots__ = ("name", "kind", "arity", "is_constructor", "is_function")
    _fields = ("name", "kind", "arity")

    def __new__(cls, name: str, kind: str, arity: int):
        return _Interned.__new__(cls, name, kind, arity)

    def _fill(self, name: str, kind: str, arity: int) -> None:
        _Interned._fill(self, name, kind, arity)
        _set(self, "is_constructor", kind == CONSTRUCTOR)
        _set(self, "is_function", kind == FUNCTION)

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


class Var(_Interned):
    """A variable, interned by name."""

    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        return _Interned.__new__(cls, name)

    def __repr__(self) -> str:
        return self.name


class App(_Interned):
    """An application ``symbol(args)``, hash-consed.

    Every node is built through the intern table under the key
    ``(symbol, args)``, so there is one object per distinct term: ``==`` is
    identity and the hash is the address.  Its own ``__new__`` checks the
    arity, and computes size, depth and the value flag once, from the
    children's stored fields.  Nodes are immutable.
    """

    __slots__ = ("symbol", "args", "size", "depth", "is_value")
    _fields = ("symbol", "args")

    def __new__(cls, symbol: Symbol, args: tuple = ()):
        key = (symbol, args)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != symbol.arity:
            raise SignatureError(
                f"symbol {symbol.name}/{symbol.arity} applied to "
                f"{len(args)} arguments"
            )
        size, depth, value = 1, 0, symbol.is_constructor
        for a in args:
            if isinstance(a, App):
                size += a.size
                depth = max(depth, a.depth)
                value = value and a.is_value
            else:
                size += 1
                depth = max(depth, 1)
                value = False
        node = object.__new__(cls)
        _set(node, "symbol", symbol)
        _set(node, "args", args)
        _set(node, "size", size)
        _set(node, "depth", depth + 1)
        _set(node, "is_value", value)
        return _intern(key, node)

    def __repr__(self) -> str:
        return format_term(self)


Term = Var | App
Substitution = dict[str, "Term"]


def format_term(t: Term) -> str:
    """Canonical fully-parenthesised printing; inverse of the parser."""
    out: list[str] = []
    todo: list = [t]  # terms still to print, and literal separators
    while todo:
        u = todo.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Var):
            out.append(u.name)
        elif not u.args:
            out.append(u.symbol.name)
        else:
            out.append(u.symbol.name)
            out.append("(")
            todo.append(")")
            todo.append(u.args[-1])
            for a in reversed(u.args[:-1]):
                todo.append(", ")
                todo.append(a)
    return "".join(out)


def is_value(t: Term) -> bool:
    """A value is a ground term built only from constructors."""
    return isinstance(t, App) and t.is_value


def term_size(t: Term) -> int:
    """Number of symbol and variable occurrences."""
    return t.size if isinstance(t, App) else 1


def term_depth(t: Term) -> int:
    """Longest root-to-leaf path; a single node has depth 1."""
    return t.depth if isinstance(t, App) else 1


def subterms(t: Term) -> Iterator[Term]:
    """All subterm occurrences in pre-order, including t itself."""
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        if isinstance(u, App):
            todo.extend(reversed(u.args))


def variables(t: Term) -> list[str]:
    """Variable names in order of first occurrence."""
    seen: dict = {}  # each name at its first occurrence's place
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) is Var:
            seen.setdefault(u.name)
        elif not u.is_value:  # a value holds no variable
            todo.extend(reversed(u.args))
    return list(seen)


def match(pattern: Term, value: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Match a pattern against a value; repeated variables must agree.

    Returns the substitution sigma with ``pattern sigma == value`` or None.
    A loop over pairs of subterms, leftmost first, so no recursion limit
    bounds the depth of the pattern.
    """
    if subst is None:
        subst = {}
    todo = [(pattern, value)]
    while todo:
        p, v = todo.pop()
        if isinstance(p, Var):
            bound = subst.get(p.name)
            if bound is None:
                subst[p.name] = v
            elif bound != v:
                return None
        elif not isinstance(v, App) or v.symbol is not p.symbol:
            return None
        else:
            todo.extend(zip(p.args[::-1], v.args[::-1]))
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
    if t.is_value:
        return t
    # An explicit stack of frames, one per non-value App node on the path
    # from t: the node and its arguments rebuilt so far.  Variables and
    # value arguments are read in place; a non-value argument gets a frame.
    stack: list = [(t, [])]
    while True:
        u, args = stack[-1]
        for a in u.args[len(args) :]:
            if a.__class__ is not App:
                try:
                    args.append(subst[a.name])
                except KeyError:
                    raise SignatureError(f"unbound variable {a.name}") from None
            elif a.is_value:
                args.append(a)
            else:
                stack.append((a, []))
                break
        else:
            node = App(u.symbol, tuple(args))
            stack.pop()
            if not stack:
                return node
            stack[-1][1].append(node)


class Equation(_Interned):
    """A rewrite equation ``f(p1..pn) -> rhs``, interned by its four fields.

    It stores its lhs node, so the interned lhs lives as long as the
    equation, and its rhs call sites in ``calls``: position -> (occurrence,
    subterm) for each function-headed rhs subterm, in pre-order, so
    occurrence counts up."""

    __slots__ = ("lhs_function", "lhs_patterns", "rhs", "index", "lhs", "calls")
    _fields = ("lhs_function", "lhs_patterns", "rhs", "index")

    def _fill(self, lhs_function: Symbol, lhs_patterns: tuple, rhs: Term, index: int) -> None:
        # One walk over each pattern and one over the rhs; a value holds no
        # variable, no function symbol and no call, so neither walk enters one.
        lhs_vars = set()
        for p in lhs_patterns:
            todo = [p]
            while todo:
                u = todo.pop()
                if isinstance(u, Var):
                    lhs_vars.add(u.name)
                elif not u.is_value:
                    if u.symbol.is_function:
                        raise SignatureError(
                            f"equation {index}: lhs argument {format_term(p)} "
                            "contains a function symbol"
                        )
                    todo.extend(u.args)
        calls: dict = {}
        todo: list = [((), rhs)]
        while todo:  # in pre-order, so the first missing variable is named
            pos, t = todo.pop()
            if isinstance(t, Var):
                if t.name not in lhs_vars:
                    raise SignatureError(
                        f"equation {index}: rhs variable {t.name} does not "
                        "occur in the lhs"
                    )
            elif not t.is_value:
                if t.symbol.is_function:
                    calls[pos] = (len(calls), t)
                for i in range(len(t.args) - 1, -1, -1):
                    todo.append((pos + (i,), t.args[i]))
        _set(self, "lhs", App(lhs_function, lhs_patterns))
        _Interned._fill(self, lhs_function, lhs_patterns, rhs, index)
        _set(self, "calls", calls)

    def is_left_linear(self) -> bool:
        names: list[str] = []
        for p in self.lhs_patterns:
            for u in subterms(p):
                if isinstance(u, Var):
                    names.append(u.name)
        return len(names) == len(set(names))

    def __repr__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


class Program(_Interned):
    """A signature, its equations in program order and the main symbol,
    interned with the text of the program's ``order:`` line."""

    __slots__ = ("signature", "equations", "main", "declared_order", "_by_function", "_plans")
    _fields = ("signature", "equations", "main", "declared_order")

    def __new__(cls, signature: tuple, equations: tuple, main: Symbol, declared_order=None):
        return _Interned.__new__(cls, signature, equations, main, declared_order)

    def _fill(self, signature, equations, main, declared_order) -> None:
        names = [s.name for s in signature]
        if len(names) != len(set(names)):
            raise SignatureError("duplicate symbol names in signature")
        by_name = {s.name: s for s in signature}
        if by_name.get(main.name) is not main:
            raise SignatureError(f"main symbol {main.name} not declared")
        declared: set = set()  # the symbols already checked
        checked: set = set()  # App nodes met before: all below them is checked
        by_function: dict = {}  # equations by function symbol, in program order
        for eq in equations:
            by_function.setdefault(eq.lhs_function, []).append(eq)
            todo = [eq.rhs, eq.lhs]  # pre-order, lhs first
            while todo:
                u = todo.pop()
                if not isinstance(u, App) or u in checked:
                    continue
                checked.add(u)
                if u.symbol not in declared:
                    if by_name.get(u.symbol.name) is not u.symbol:
                        raise SignatureError(
                            f"equation {eq.index}: undeclared symbol {u.symbol.name}"
                        )
                    declared.add(u.symbol)
                todo.extend(reversed(u.args))
        _Interned._fill(self, signature, equations, main, declared_order)
        _set(self, "_by_function", by_function)
        # Match plans by function symbol, each built by the first
        # ``matching_equations`` call on that symbol.
        _set(self, "_plans", {})

    @property
    def constructors(self) -> list[Symbol]:
        return [s for s in self.signature if s.is_constructor]

    @property
    def functions(self) -> list[Symbol]:
        return [s for s in self.signature if s.is_function]

    def equations_for(self, f: Symbol) -> list[Equation]:
        return list(self._by_function.get(f, ()))

    def has_repeated_lhs_variables(self) -> bool:
        return any(not e.is_left_linear() for e in self.equations)


def matching_equations(program: Program, call: Term) -> list[tuple[Equation, Substitution]]:
    """All equations whose patterns match a call f(v1..vn), in program order.

    Several matches are possible: the semantics is non-deterministic by
    design and equation order never acts as a priority.  The candidates and
    their matchers come from the program's match plan for f.
    """
    if not isinstance(call, App) or not call.symbol.is_function:
        raise NoMatchingEquation(f"{format_term(call)} is not a function call")
    args = call.args
    for a in args:
        if not is_value(a):
            raise NoMatchingEquation(
                f"argument {format_term(a)} of {format_term(call)} is not a value"
            )
    plan = program._plans.get(call.symbol)
    if plan is None:
        plan = program._plans[call.symbol] = match_plan(program.equations_for(call.symbol))
    buckets, rest = plan
    out = []
    for eq, matcher in buckets.get(args[0].symbol, rest) if args else rest:
        sigma = matcher(args)
        if sigma is not None:
            out.append((eq, sigma))
    return out


def match_plan(equations: list[Equation]) -> tuple[dict, tuple]:
    """One function's equations indexed by the head of their first argument.

    Returns ``(buckets, rest)``.  Each case is an ``(equation, matcher)``
    pair, where the matcher is the equation's lhs compiled by
    ``compile_lhs``.  ``buckets`` maps each constructor that heads some first
    pattern to the cases a call with that first-argument head can match: the
    equations headed by it and those whose first pattern is a variable, in
    program order.  ``rest`` holds the variable-first cases alone, for a
    call whose first-argument head starts no pattern and for a function of
    arity 0.
    """
    cases = [(eq, compile_lhs(eq.lhs_patterns)) for eq in equations]
    firsts = [eq.lhs_patterns[0] if eq.lhs_patterns else None for eq in equations]
    heads = [p.symbol if isinstance(p, App) else None for p in firsts]
    buckets = {
        h: tuple(c for c, g in zip(cases, heads) if g is None or g == h)
        for h in dict.fromkeys(heads)
        if h is not None
    }
    return buckets, tuple(c for c, g in zip(cases, heads) if g is None)


def compile_lhs(patterns: tuple):
    """Compile an lhs pattern tuple once into a matcher: a function from a
    call's argument tuple (values) to the substitution ``match_tuple`` would
    return, or None.

    A matcher works on a list of registers that starts as the arguments.
    Each constructor node of the patterns is a check that its register's
    head is the node's symbol, after which the value's arguments are
    appended as new registers; checks run in register order, so every
    pattern node has a register fixed here.  A repeated variable compares
    its registers with ``==``, and the substitution maps each variable, in
    order of first occurrence, to its register.
    """
    checks, repeats, register = [], [], {}
    nodes = list(patterns)  # the pattern node of each register
    for r, p in enumerate(nodes):  # nodes grows as the checks would append
        if isinstance(p, Var):
            if p.name in register:
                repeats.append((register[p.name], r))
            else:
                register[p.name] = r
        else:
            checks.append((r, p.symbol))
            nodes.extend(p.args)
    order = dict.fromkeys(name for p in patterns for name in variables(p))
    binds = tuple((name, register[name]) for name in order)

    def matcher(args: tuple) -> Optional[Substitution]:
        regs = list(args)
        for r, symbol in checks:
            v = regs[r]
            if v.symbol is not symbol:
                return None
            regs += v.args
        for a, b in repeats:
            if regs[a] != regs[b]:
                return None
        return {name: regs[r] for name, r in binds}

    return matcher
