"""Blind abstraction: collapse word constructors and measure growth.

Blinding maps every arity-1 constructor to ``s`` and every arity-0
constructor to ``0``, keeping one function symbol per original.  The image
of a deterministic program is in general non-deterministic, so worst-case
measurement quantifies over all derivations; it reads the exact outcome
table of semantics.outcome_table rather than enumerating derivations.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Optional

from .base import (
    Budget,
    BudgetExceeded,
    CycleDetected,
    DEFAULT_BUDGET,
    NotWordProgram,
    QiError,
    postorder,
)
from .ordering import Precedence
from .parser import format_program
from .qi import QiAssignment, is_uniform
from .semantics import outcome_table
from .terms import App, CONSTRUCTOR, Equation, FUNCTION, Program, Symbol, Term, Var

BLIND_S = Symbol("s", CONSTRUCTOR, 1)
BLIND_0 = Symbol("0", CONSTRUCTOR, 0)


class BlindProgram(NamedTuple):
    program: Program
    provenance: dict  # original symbol name -> blinded symbol name
    duplicate_groups: tuple  # tuples of equation indices that became equal

    def as_dict(self) -> dict:
        return {
            "program": format_program(self.program),
            "provenance": self.provenance,
            "duplicate_equations": [list(g) for g in self.duplicate_groups],
        }


def _blind_images(terms: list, names: dict) -> dict:
    """The blind image of every subterm of the terms, in one walk that maps
    each symbol once."""
    image: dict = {}
    symbols: dict = {}  # symbol -> its blind symbol
    for u in postorder(terms, "args"):
        if type(u) is Var:
            image[u] = u
            continue
        f = u.symbol
        if f not in symbols:
            symbols[f] = Symbol(names[f.name], FUNCTION, f.arity) if f.is_function else (
                BLIND_S if f.arity == 1 else BLIND_0
            )
        image[u] = App(symbols[f], tuple([image[a] for a in u.args]))
    return image


def blind_program(program: Program) -> BlindProgram:
    """The blind image of a word program.

    Equations are mapped one for one, so the provenance is positional;
    duplicates created by the collapse are kept and reported.
    """
    word_alphabet(program)
    fn_names = {f.name: f"bl_{f.name}" for f in program.functions}
    signature = [BLIND_S, BLIND_0] + [
        Symbol(fn_names[f.name], FUNCTION, f.arity) for f in program.functions
    ]
    image = _blind_images([t for eq in program.equations for t in (eq.lhs, eq.rhs)], fn_names)
    equations = []
    for eq in program.equations:
        lhs = image[eq.lhs]
        equations.append(Equation(lhs.symbol, lhs.args, image[eq.rhs], eq.index))
    groups: dict[tuple, list[int]] = {}
    for eq in equations:
        key = (eq.lhs_function.name, eq.lhs_patterns, eq.rhs)
        groups.setdefault(key, []).append(eq.index)
    dupes = tuple(tuple(v) for v in groups.values() if len(v) > 1)
    provenance = {c.name: ("s" if c.arity == 1 else "0") for c in program.constructors}
    provenance.update(fn_names)
    main = next(s for s in signature if s.name == fn_names[program.main.name])
    blinded = Program(tuple(signature), tuple(equations), main)
    return BlindProgram(blinded, provenance, dupes)


def is_linear(program: Program, precedence: Precedence) -> dict:
    """Per-function linearity: at most one same-class call in each rhs."""
    out: dict[str, bool] = {}
    for f in program.functions:
        cls = precedence.class_of(f.name)
        out[f.name] = all(
            sum(precedence.class_of(u.symbol.name) == cls for _, u in eq.calls.values()) <= 1
            for eq in program.equations_for(f)
        )
    return out


def program_is_linear(program: Program, precedence: Precedence) -> bool:
    return all(is_linear(program, precedence).values())


def transfer_uniform_qi(
    assignment: QiAssignment, program: Program, blind: BlindProgram
) -> QiAssignment:
    """Carry a uniform assignment over to the blind image.

    ``s`` and ``0`` take the entry of the first constructor of their arity
    that has one, if any.  The image's entries are the program's
    expressions, so it shares the assignment's memo of normal forms and
    dominance decisions.
    """
    if not is_uniform(assignment, program):
        raise QiError("only uniform assignments can be blinded")
    entries: dict = {}
    for sym in program.signature:
        if sym.name in assignment.entries:
            entries.setdefault(blind.provenance[sym.name], assignment.entries[sym.name])
    return QiAssignment(entries, assignment.memo)


# -- growth measurement --------------------------------------------------------


class GrowthRow(NamedTuple):
    size: int
    worst_rules: int
    worst_result_size: int
    derivations: int
    truncated: bool

    def as_dict(self) -> dict:
        return {
            "n": self.size,
            "worst_rules": self.worst_rules,
            "worst_result_size": self.worst_result_size,
            "derivations": self.derivations,
            "truncated": self.truncated,
        }


class GrowthTable(NamedTuple):
    rows: tuple

    def as_csv(self) -> str:
        lines = ["n,worst_rules,worst_result_size,derivations,truncated"]
        for r in self.rows:
            lines.append(
                f"{r.size},{r.worst_rules},{r.worst_result_size},"
                f"{r.derivations},{str(r.truncated).lower()}"
            )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "rows": [r.as_dict() for r in self.rows],
            "classification": {
                "worst_rules": classify_growth([r.worst_rules for r in self.rows if not r.truncated]),
                "worst_result_size": classify_growth(
                    [r.worst_result_size for r in self.rows if not r.truncated]
                ),
                "note": "empirical, not a proof",
            },
        }


def classify_growth(values: list) -> str:
    """Successive-ratio heuristic over untruncated rows; empirical only.

    Exponential growth keeps its ratio up; polynomial growth has ratios
    sinking toward one.  Neither pattern is a proof of anything.
    """
    vals = [v for v in values if v > 0]
    if len(vals) < 4:
        return "inconclusive"
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    tail = ratios[-3:]
    geo = (tail[0] * tail[1] * tail[2]) ** (1.0 / 3.0)
    if geo >= 1.4 and tail[-1] >= 1.3:
        return "exponential-consistent"
    sinking = all(b <= a + 0.02 for a, b in zip(tail, tail[1:]))
    if tail[-1] <= 1.35 and (sinking or geo <= 1.25):
        return "polynomial-consistent"
    return "inconclusive"


def word_alphabet(program: Program) -> tuple[list, list]:
    """The unary and the nullary constructors of a word program, one whose
    constructors all have arity <= 1; raises NotWordProgram otherwise."""
    for c in program.constructors:
        if c.arity > 1:
            raise NotWordProgram(
                f"constructor {c.name}/{c.arity} cannot be blinded (arity >= 2)"
            )
    unary = [c for c in program.constructors if c.arity == 1]
    return unary, [c for c in program.constructors if c.arity == 0]


def make_word(letters: list, terminator: Symbol) -> Term:
    out: Term = App(terminator)
    for sym in reversed(letters):
        out = App(sym, (out,))
    return out


def word_length(v: Term) -> int:
    """Number of unary constructors (letters); the terminator is free."""
    n = 0
    while isinstance(v, App) and v.symbol.arity == 1:
        n += 1
        v = v.args[0]
    return n


def words_of_length(
    program: Program, n: int, cap: int = 64, seed: int = 0
) -> list[Term]:
    unary, nullary = word_alphabet(program)
    if not nullary:
        return []
    total = len(unary) ** n * len(nullary) if unary else len(nullary)
    if n > 0 and not unary:
        return []
    if total <= cap:
        words = []
        for letters in itertools.product(unary, repeat=n):
            for z in nullary:
                words.append(make_word(list(letters), z))
        return words
    rng = random.Random(f"{seed}:{n}")
    words = []
    for _ in range(cap):
        letters = [unary[rng.randrange(len(unary))] for _ in range(n)]
        z = nullary[rng.randrange(len(nullary))]
        words.append(make_word(letters, z))
    return words


def _compositions(n: int, k: int) -> list[tuple]:
    """The compositions of n into k parts >= 0, in lexicographic order: by
    stars and bars, each part is the gap between two of k - 1 bars placed
    among n + k - 1 slots."""
    return [
        tuple([b - a - 1 for a, b in zip((-1, *bars), (*bars, n + k - 1))])
        for bars in itertools.combinations(range(n + k - 1), k - 1)
    ]


def input_tuples(
    program: Program,
    main: Symbol,
    n: int,
    cap: int = 64,
    seed: int = 0,
    pools: Optional[dict] = None,
) -> list[tuple]:
    """Argument tuples of total word length n for the main function.

    ``cap`` bounds the inputs of a one-argument main: all words of length
    n, or a seeded sample of ``cap``.  For k >= 2 arguments it bounds the
    compositions of n into k lengths, and each composition takes up to
    ``4 * cap // compositions`` tuples, so a size may have up to ``4 * cap``
    inputs: append at n = 8 has 194 at cap 64.

    A word pool depends on its length alone, so each is drawn once.
    ``pools`` maps each length to its pool drawn so far; a measurement that
    passes one dict to all its sizes, under one main, cap and seed, draws
    each pool once across them.  Without it the call uses a fresh one."""
    k = main.arity
    if k == 0:
        return [()]
    if k == 1:
        return [(w,) for w in words_of_length(program, n, cap, seed)]
    out = []
    comps = _compositions(n, k)
    rng = random.Random(f"{seed}:{n}:comps")
    if len(comps) > cap:
        comps = rng.sample(comps, cap)
    per = max(2, int(cap ** (1 / k)) + 1)
    per_comp = max(1, (cap * 4) // len(comps))
    pools = {} if pools is None else pools
    for c in {c for comp in comps for c in comp}:
        if c not in pools:
            pools[c] = words_of_length(program, c, per, seed)
    for comp in comps:
        out.extend(itertools.islice(itertools.product(*(pools[c] for c in comp)), per_comp))
    return out


def walk_inputs(program: Program, sizes: range, inputs_cap: int, seed: int, walk, fold, start):
    """Per size n, yield (n, acc, truncated): acc folds ``fold(acc,
    walk(term, store))`` from ``start`` over the inputs of size n, the main
    function applied to each of ``input_tuples``' tuples in order.  A walk
    that raises BudgetExceeded or CycleDetected adds nothing and marks its
    row truncated rather than silently clipped.  All sizes draw from one
    pool dict, so each word pool is drawn once, and all walks read one
    outcome store, so each state is derived once.
    """
    main = program.main
    store: dict = {}
    pools: dict = {}
    for n in sizes:
        acc = start
        truncated = False
        for args in input_tuples(program, main, n, inputs_cap, seed, pools):
            try:
                result = walk(App(main, args), store)
            except (BudgetExceeded, CycleDetected):
                truncated = True
                continue
            acc = fold(acc, result)
        yield n, acc, truncated


def measure_strong_poly(
    program: Program,
    sizes: range = range(1, 9),
    budget: Budget = DEFAULT_BUDGET,
    inputs_cap: int = 64,
    seed: int = 0,
) -> GrowthTable:
    """Worst rule count and result size per input size, over all derivations.

    Inputs are the words of each size ``input_tuples`` draws: at most
    ``inputs_cap`` for a one-argument main, up to four times as many for a
    main of k >= 2 arguments.  The result size column measures word length.
    Each input reads the shared outcome store of ``walk_inputs`` with its
    own paid set, so it is charged the state budget a fresh table would
    charge.
    """

    def walk(term: Term, store: dict) -> dict:
        return outcome_table(program, term, store, set(), budget.max_rules)

    def fold(acc: tuple, outs: dict) -> tuple:
        worst_rules, worst_result, derivs = acc
        for v, (cost, count) in outs.items():
            worst_rules = max(worst_rules, cost)
            worst_result = max(worst_result, word_length(v))
            derivs += count
        return worst_rules, worst_result, derivs

    rows = walk_inputs(program, sizes, inputs_cap, seed, walk, fold, (0, 0, 0))
    return GrowthTable(tuple(GrowthRow(n, *acc, truncated) for n, acc, truncated in rows))
