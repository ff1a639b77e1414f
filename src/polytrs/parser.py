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

from .base import ParseError, SignatureError, Tokens, run_stack
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


def _parse_decls(toks: Tokens, kind: str, symbols: dict[str, Symbol]) -> None:
    while not toks.done():
        name = toks.peek()
        if not _NAME.match(name):
            raise toks.error(f"bad symbol name {name!r}")
        if name in symbols:
            raise toks.error(f"symbol {name} declared twice")
        toks.next()
        toks.expect("/")
        arity = toks.peek()
        if not arity.isdigit():
            raise toks.error(f"bad arity {arity!r}")
        toks.next()
        symbols[name] = Symbol(name, kind, int(arity))


def _term(toks: Tokens, symbols: dict[str, Symbol]):
    """A term is a juxtaposed chain of atoms folding to the right.

    Run by ``run_stack``: a parenthesised group or a call argument is read
    by yielding a nested reader, so nesting depth is not bounded by
    Python's recursion limit.
    """
    chain: list = []
    tok = toks.peek()
    while True:
        if tok == "(":
            toks.next()
            atom = yield _term(toks, symbols)
            toks.expect(")")
        elif not _NAME.match(tok):
            raise toks.error(f"unexpected token {tok!r}")
        else:
            toks.next()
            sym = symbols.get(tok)
            if not toks.done() and toks.peek() == "(":
                toks.next()
                args = []
                if toks.peek() != ")":
                    args.append((yield _term(toks, symbols)))
                    while toks.peek() == ",":
                        toks.next()
                        args.append((yield _term(toks, symbols)))
                toks.expect(")")
                atom = _call(toks, tok, sym, args)
            elif sym is not None:
                atom = App(sym, ()) if sym.arity == 0 else sym
            elif tok.isdigit():
                raise toks.error(f"undeclared symbol {tok}")
            else:
                atom = Var(tok)
        chain.append(atom)
        if toks.done():
            return _fold_chain(toks, chain)
        tok = toks.peek()
        if tok != "(" and not _NAME.match(tok):
            return _fold_chain(toks, chain)


def _fold_chain(toks: Tokens, chain: list) -> Term:
    last = chain[-1]
    if isinstance(last, Symbol):
        raise toks.error(f"{last.name}/{last.arity} needs {last.arity} arguments")
    out: Term = last
    for link in reversed(chain[:-1]):
        if not isinstance(link, Symbol) or link.arity != 1:
            raise toks.error("only bare arity-1 symbols may prefix a chain")
        out = App(link, (out,))
    return out


def _call(toks: Tokens, name: str, sym: Symbol | None, args: list) -> App:
    if sym is None:
        raise toks.error(f"undeclared symbol {name}")
    if sym.arity != len(args):
        raise toks.error(f"{name}/{sym.arity} applied to {len(args)} arguments")
    return App(sym, tuple(args))


def _end(toks: Tokens) -> None:
    if not toks.done():
        raise toks.error(f"trailing input {toks.peek()!r}")


def parse_term(text: str, symbols: dict[str, Symbol]) -> Term:
    toks = Tokens(_TOKEN, text)
    t = run_stack(_term(toks, symbols))
    _end(toks)
    return t


def parse_program(text: str) -> Program:
    """Parse the concrete program format; enforces all structural invariants."""
    symbols: dict[str, Symbol] = {}
    equations: list[Equation] = []
    headers: dict[str, tuple[str, int]] = {}  # "main"/"order" -> (text, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        key, sep, rest = line.partition(":")
        key = key.strip()
        if sep and key in ("main", "order"):
            if key in headers:
                raise ParseError(f"second {key}: line", lineno, 1)
            headers[key] = (rest.strip(), lineno)
            continue
        toks = Tokens(_TOKEN, line, lineno)
        if toks.done():
            continue
        if sep and key in ("constructors", "functions"):
            toks.expect(key)
            toks.expect(":")
            _parse_decls(toks, CONSTRUCTOR if key == "constructors" else FUNCTION, symbols)
            continue
        if "->" not in line:
            raise ParseError("expected an equation or a declaration", lineno, 1)
        lhs = run_stack(_term(toks, symbols))
        if isinstance(lhs, Var) or not lhs.symbol.is_function:
            raise ParseError("equation lhs must be a function application", lineno, 1)
        toks.expect("->")
        rhs = run_stack(_term(toks, symbols))
        _end(toks)
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
    return Program(tuple(symbols.values()), tuple(equations), main, declared_order=order_text)


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
