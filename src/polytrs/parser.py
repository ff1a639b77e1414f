"""Text format for programs.

::

    # dyadic words
    constructors: s0/1 s1/1 nil/0
    functions: f/1 append/2
    f(s0 s1 x) -> append(f(s1 x), f(s1 x))
    ...
    main: f

Unary chains may be written without parentheses (``s0 s1 x``).  Undeclared
identifiers are variables.  ``order:`` lines carry an optional precedence
declaration such as ``append < f ; s0 ~ s1`` which is kept as text on the
program and interpreted by the ordering module.
"""

from __future__ import annotations

import re

from .base import ParseError, SignatureError
from .terms import (
    CONSTRUCTOR,
    FUNCTION,
    App,
    Equation,
    Program,
    Symbol,
    Term,
    Var,
    format_term,
)

_TOKEN = re.compile(r"[A-Za-z0-9_']+|->|[(),/<>~;]|\S")
_NAME = re.compile(r"[A-Za-z0-9_']+\Z")


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.items: list[tuple[str, int]] = []
        for m in _TOKEN.finditer(text):
            self.items.append((m.group(), m.start() + 1))
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, self.col())
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line, self.col())

    def col(self) -> int:
        if self.pos < len(self.items):
            return self.items[self.pos][1]
        return self.items[-1][1] if self.items else 1

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def _parse_decls(toks: _Tokens, kind: str, symbols: dict[str, Symbol]) -> None:
    while not toks.done():
        name = toks.next()
        if not _NAME.match(name):
            raise ParseError(f"bad symbol name {name!r}", toks.line, toks.col())
        toks.expect("/")
        arity_tok = toks.next()
        if not arity_tok.isdigit():
            raise ParseError(f"bad arity {arity_tok!r}", toks.line, toks.col())
        if name in symbols:
            raise ParseError(f"symbol {name} declared twice", toks.line, toks.col())
        symbols[name] = Symbol(name, kind, int(arity_tok))


class _Open:
    """A term still being read: its chain of atoms so far, and what closes it.

    ``closer`` is None for the outermost term, ``")"`` for a parenthesised
    group, and ``","`` for an argument of the call ``name(...)``, whose
    symbol and arguments read so far the frame also holds.
    """

    __slots__ = ("closer", "chain", "name", "sym", "args")

    def __init__(self, closer=None, name="", sym=None):
        self.closer = closer
        self.chain: list = []
        self.name = name
        self.sym = sym
        self.args: list[Term] = []


def _parse_term(toks: _Tokens, symbols: dict[str, Symbol]) -> Term:
    """A term is a juxtaposed chain of atoms folding to the right.

    Nested groups and calls are read on an explicit stack of open terms, so
    the nesting depth is not bounded by Python's recursion limit.
    """
    stack = [_Open()]
    while True:
        tok = toks.next()
        if tok == "(":
            stack.append(_Open(")"))
            continue
        if not _NAME.match(tok):
            raise ParseError(f"unexpected token {tok!r}", toks.line, toks.col())
        sym = symbols.get(tok)
        if toks.peek() == "(":
            toks.next()
            if toks.peek() != ")":
                stack.append(_Open(",", tok, sym))
                continue
            toks.next()
            atom: Term | Symbol = _call(toks, tok, sym, [])
        elif sym is not None:
            atom = App(sym, ()) if sym.arity == 0 else sym
        elif tok.isdigit():
            raise ParseError(f"undeclared symbol {tok}", toks.line, toks.col())
        else:
            atom = Var(tok)
        # Add the atom to the innermost open term, and close every term that
        # the atom completes.
        while True:
            top = stack[-1]
            top.chain.append(atom)
            nxt = toks.peek()
            if nxt is not None and (_NAME.match(nxt) or nxt == "("):
                break
            term = _fold_chain(toks, top.chain)
            if top.closer is None:
                return term
            if top.closer == ")":
                toks.expect(")")
                stack.pop()
                atom = term
                continue
            top.args.append(term)
            if nxt == ",":
                toks.next()
                top.chain = []
                break
            toks.expect(")")
            stack.pop()
            atom = _call(toks, top.name, top.sym, top.args)


def _fold_chain(toks: _Tokens, chain: list) -> Term:
    last = chain[-1]
    if isinstance(last, Symbol):
        raise ParseError(
            f"{last.name}/{last.arity} needs {last.arity} arguments",
            toks.line,
            toks.col(),
        )
    out: Term = last
    for link in reversed(chain[:-1]):
        if not isinstance(link, Symbol) or link.arity != 1:
            raise ParseError(
                "only bare arity-1 symbols may prefix a chain",
                toks.line,
                toks.col(),
            )
        out = App(link, (out,))
    return out


def _call(toks: _Tokens, name: str, sym: Symbol | None, args: list) -> App:
    if sym is None:
        raise ParseError(f"undeclared symbol {name}", toks.line, toks.col())
    if sym.arity != len(args):
        raise ParseError(
            f"{name}/{sym.arity} applied to {len(args)} arguments",
            toks.line,
            toks.col(),
        )
    return App(sym, tuple(args))


def parse_term(text: str, symbols: dict[str, Symbol], line: int = 1) -> Term:
    toks = _Tokens(text, line)
    t = _parse_term(toks, symbols)
    if not toks.done():
        raise ParseError(f"trailing input {toks.peek()!r}", line, toks.col())
    return t


def parse_program(text: str) -> Program:
    """Parse the concrete program format; enforces all structural invariants."""
    symbols: dict[str, Symbol] = {}
    equations: list[Equation] = []
    headers: dict[str, tuple[str, int]] = {}  # "main"/"order" -> (text, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if sep and key in ("constructors", "functions"):
            toks = _Tokens(rest, lineno)
            _parse_decls(toks, CONSTRUCTOR if key == "constructors" else FUNCTION, symbols)
            continue
        if sep and key in ("main", "order"):
            if key in headers:
                raise ParseError(f"second {key}: line", lineno, 1)
            headers[key] = (rest.strip(), lineno)
            continue
        if "->" not in line:
            raise ParseError("expected an equation or a declaration", lineno, 1)
        lhs_text, _, rhs_text = line.partition("->")
        toks = _Tokens(lhs_text, lineno)
        lhs = _parse_term(toks, symbols)
        if not toks.done():
            raise ParseError(f"trailing input {toks.peek()!r}", lineno, toks.col())
        if isinstance(lhs, Var) or not lhs.symbol.is_function:
            raise ParseError("equation lhs must be a function application", lineno, 1)
        rhs = parse_term(rhs_text.strip(), symbols, lineno)
        try:
            equations.append(
                Equation(lhs.symbol, tuple(lhs.args), rhs, len(equations))
            )
        except SignatureError as exc:
            raise ParseError(str(exc), lineno, 1) from exc

    if not symbols:
        raise ParseError("empty program", 1, 1)
    if "main" in headers:
        main_name, lineno = headers["main"]
        main = symbols.get(main_name)
        if main is None or not main.is_function:
            raise ParseError(f"main symbol {main_name} is not a declared function", lineno, 1)
    else:
        main = next((s for s in symbols.values() if s.is_function), None)
        if main is None:
            raise ParseError("no function symbols declared", 1, 1)
    order_text = headers["order"][0] if "order" in headers else None
    try:
        return Program(
            tuple(symbols.values()), tuple(equations), main, declared_order=order_text
        )
    except SignatureError as exc:
        raise ParseError(str(exc)) from exc


def format_program(program: Program) -> str:
    """Canonical printing; parse(format(p)) == p."""
    ctors = " ".join(f"{s.name}/{s.arity}" for s in program.constructors)
    fns = " ".join(f"{s.name}/{s.arity}" for s in program.functions)
    lines = [f"constructors: {ctors}", f"functions: {fns}"]
    for eq in program.equations:
        lines.append(f"{format_term(eq.lhs)} -> {format_term(eq.rhs)}")
    if program.declared_order:
        lines.append(f"order: {program.declared_order}")
    lines.append(f"main: {program.main.name}")
    return "\n".join(lines) + "\n"
