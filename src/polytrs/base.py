"""Shared error taxonomy, evaluation budgets and the recursion driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator


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


@dataclass(frozen=True)
class Budget:
    """Caps on evaluation effort.

    max_rules bounds the judgement count of a single derivation, max_depth
    the nesting of judgements (every premise sits one level below its
    conclusion, so an n-letter append word needs depth 2n + 1), and
    max_derivations the number of derivations an exhaustive enumeration may
    emit.
    """

    max_rules: int = 200_000
    max_depth: int = 2_000
    max_derivations: int = 5_000


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
