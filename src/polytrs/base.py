"""Shared error taxonomy, evaluation budgets, ``run_stack`` for deep
recursion, the post-order walk that every fold over shared structure reads,
and the token cursor ``Tokens`` that every text reader (programs, terms,
``qi`` lines, ``--poly`` and ``.bc`` terms) reads through."""

from __future__ import annotations

import re
from typing import Generator, NamedTuple


class TrsError(Exception):
    """Base class for all toolkit errors; `code` is machine-readable."""

    code = "error"


class ParseError(TrsError):
    code = "parse-error"

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class SignatureError(TrsError):
    code = "signature-error"


class NoMatchingEquation(TrsError):
    code = "no-matching-equation"


class BudgetExceeded(TrsError):
    code = "budget-exceeded"


class NonConfluentProgram(TrsError):
    code = "non-confluent-program"


class CycleDetected(TrsError):
    code = "cycle-detected"


class NotWordProgram(TrsError):
    code = "not-word-program"


class NormalizationError(TrsError):
    code = "normalization-error"


class PrecedenceError(TrsError):
    code = "precedence-error"


class QiError(TrsError):
    code = "qi-error"


class Budget(NamedTuple):
    """Caps on evaluation effort.

    max_rules bounds the judgement count of a single derivation, max_depth
    the nesting of judgements (every premise sits one level below its
    conclusion, so an n-letter append word needs depth 2n + 1).
    """

    max_rules: int = 200_000
    max_depth: int = 2_000


DEFAULT_BUDGET = Budget()


def run_stack(root: Generator):
    """Run generator-coded recursion on a heap list; return root's value.

    A generator makes a recursive call by yielding the callee's generator
    and receives the callee's return value back, so depth is bounded by
    memory, not by the interpreter's limit.  A raise unwinds the whole
    stack: no generator may catch an exception across a yield.
    """
    callers: list = []  # suspended generators below the running one
    gen, value = root, None
    while True:
        try:
            callee = gen.send(value)
        except StopIteration as done:
            if not callers:
                return done.value
            gen, value = callers.pop(), done.value
        else:
            callers.append(gen)
            gen, value = callee, None


def postorder(roots, field: str) -> list:
    """The nodes reached from the roots through the tuple in each node's
    ``field`` attribute (``args`` of a term, ``items`` of a QI expression,
    ``children`` of a judgement), each after everything below it, leftmost
    first, root after root.

    A node whose tuple is non-empty is listed once, told apart by identity,
    even when several roots reach it, so a fold over the list visits each
    distinct node of a hash-consed or shared structure once.  Any other
    node, a leaf, is listed at each of its occurrences.  The walk is a
    loop, so depth is bounded by memory alone.
    """
    order: list = []
    seen: set = set()
    todo = list(roots)[::-1]
    while todo:
        u = todo.pop()
        if u is None:  # everything below the node under this marker is listed
            order.append(todo.pop())
            continue
        below = getattr(u, field, ())
        if not below:
            order.append(u)
        elif id(u) not in seen:
            seen.add(id(u))
            todo += (u, None)
            todo.extend(below[::-1])
    return order


class Tokens:
    """A cursor over the tokens of a text, each kept with its line and column.

    ``pattern`` matches one token; whitespace between tokens is skipped, and
    so is the rest of a line from ``comment`` on.  Readers look at the
    current token with ``peek`` before they take it with ``next``, so
    ``error`` reports the token that is wrong.  Past the last token, the
    position is just after it, and ``peek`` is an error.
    """

    def __init__(self, pattern: re.Pattern, text: str, line: int = 1, comment: str = ""):
        self.items: list[tuple[str, int, int]] = []
        for lineno, chunk in enumerate(text.splitlines(), start=line):
            if comment:
                chunk = chunk.partition(comment)[0]
            self.items += [(m.group(), lineno, m.start() + 1) for m in pattern.finditer(chunk)]
        self.line = line
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def peek(self) -> str:
        try:
            return self.items[self.pos][0]
        except IndexError:
            raise self.error("unexpected end of input") from None

    def next(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise self.error(f"expected {tok!r}, got {self.peek()!r}")
        self.pos += 1

    def error(self, message: str) -> ParseError:
        """A ParseError at the current token."""
        if self.pos < len(self.items):
            _, line, col = self.items[self.pos]
        elif self.items:
            tok, line, col = self.items[-1]
            col += len(tok)
        else:
            line, col = self.line, 1
        return ParseError(message, line, col)
