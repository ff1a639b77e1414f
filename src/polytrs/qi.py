"""Quasi-interpretation expressions and their verification.

Assignment expressions are max-plus polynomials over non-negative rationals:
sums, products, max and min of constants and arguments.
Every expression is weakly monotone and polynomially bounded by construction;
the additivity, subterm and per-equation inequality conditions are verified.

The per-equation check ``floor(l) >= floor(r)`` is decided by a sound but
incomplete normalization to maxima of posynomials with coefficient-wise
dominance, refuted by deterministic grid plus seeded rational sampling, and
reported Unknown otherwise.

Expression nodes are hash-consed, as terms, symbols and variables are: one
immutable node per distinct expression, so equality is identity and the
hash is the address, and each node stores its min and max flags and the set
of argument indices below it when it is built, so a substitution keeps every
subtree that holds no argument it moves.  An assignment's memo keeps every
normal form, dominance decision and ``term_qi`` substitution, so checks that
share it share the very nodes, and a repeated question costs one lookup.  It
maps each ``(expression, arity)`` to the expression's pruned normal form, or
to None when the expression has more than ``BRANCH_CAP`` branch combinations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .base import ParseError, QiError, Tokens, postorder, run_stack
from .terms import Equation, Program, Term, Var, _Frozen, _Interned, _set, variables

GRID_POINTS = (0, 1, 2, 5, 10)
RANDOM_POINTS = 256
GRID_CAP = 20_000  # full grid up to this many points, seeded subsample beyond
MIN_CHOICES = 64  # branch choices of a min tried on each side of a dominance check
BRANCH_CAP = 4096  # branch combinations of an expression's maxima expanded to normal form
EXPONENT_CAP = 2**16 - 1  # exponent of one argument in a normal form's monomial

VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"


# -- expressions --------------------------------------------------------------


# Every node is built through the intern table of ``terms``, as terms,
# symbols and variables are, under the key (node class, field), so there is
# one object per distinct expression, equality is identity and the hash is
# the address.  A compound node's min and max flags and its argument set
# ``arg_mask``, the bitmask of the Arg indices below it, are computed once,
# when it is built, from its children's: expressions share subtrees heavily,
# and a recursion per lookup would cost more than the work it serves.  An
# address differs from process to process, so no output may follow the
# iteration order of a set of nodes; every one is only probed.

_HAS_MIN = operator.attrgetter("has_min")
_HAS_MAX = operator.attrgetter("has_max")
_ARG_MASK = operator.attrgetter("arg_mask")


class _Node(_Interned):
    __slots__ = ()
    has_min = has_max = False
    arg_mask = 0

    def __repr__(self):
        return f"{type(self).__name__}({getattr(self, self._fields[0])!r})"


class Const(_Node):
    __slots__ = ("value",)
    _fields = ("value",)

    def __new__(cls, value):
        # Keyed by the reduced fraction's two ints, which hash and compare
        # in C, as a Fraction does not; an int is read as itself over 1, and
        # no rejected node is interned.
        v = value if type(value) is int else Fraction(value)
        if v < 0:
            raise QiError("negative constant in an assignment expression")
        return _Interned.__new__(cls, v.numerator, v.denominator)

    def _fill(self, numerator: int, denominator: int) -> None:
        _set(self, "value", Fraction(numerator, denominator))


class Arg(_Node):
    __slots__ = ("index", "arg_mask")
    _fields = ("index",)

    def _fill(self, index: int) -> None:
        _set(self, "index", index)
        _set(self, "arg_mask", 1 << index)


class _Compound(_Node):
    __slots__ = ("items", "has_min", "has_max", "arg_mask")
    _fields = ("items",)

    def _fill(self, items: tuple) -> None:
        _set(self, "items", items)
        _set(self, "has_min", type(self) is Min or any(map(_HAS_MIN, items)))
        _set(self, "has_max", type(self) is Max or any(map(_HAS_MAX, items)))
        _set(self, "arg_mask", functools.reduce(operator.or_, map(_ARG_MASK, items), 0))


class Sum(_Compound):
    __slots__ = ()


class Prod(_Compound):
    __slots__ = ()


class Max(_Compound):
    __slots__ = ()


class Min(_Compound):
    __slots__ = ()


QiExpr = Const | Arg | Sum | Prod | Max | Min


# The walks over expressions below are loops: an expression read from a
# ``qi`` line or a deep term has no nesting limit.  Each folds over
# ``postorder([e], "items")``, which lists every distinct compound node once,
# but for substitution, whose walk enters only nodes above a moved argument,
# and the expansion to normal form, whose walk stops at memoised nodes.


class _Scaled:
    """Exact evaluation of every node of a ``postorder`` in integers.

    At a point, let d be the lcm of the denominators of its coordinates and
    of the constants.  Each node's value is then N / d**k for an integer N,
    and the degree k depends on the node alone: 1 for a constant or an
    argument, the items' total for a product, and the items' largest (0
    for none) for a sum, a max or a min.  A node's N is computed from its
    items' N, each scaled by d up to the node's degree, by integer sums,
    products and comparisons, so no gcd is ever taken.
    """

    def __init__(self, order: list):
        self.index: dict = {}  # id of a node -> its step
        self.degree: list = []
        # (kind, constant | argument index | item steps, shifts or None)
        self.steps: list = []
        self.den = 1  # lcm of the constants' denominators
        shifts = set()
        for u in order:
            if id(u) in self.index:  # a leaf met again
                continue
            kind = type(u)
            scale = None
            if kind is Const:
                self.den = math.lcm(self.den, u.value.denominator)
                step, k = u.value, 1
            elif kind is Arg:
                step, k = u.index, 1
            else:
                step = [self.index[id(i)] for i in u.items]
                degrees = [self.degree[i] for i in step]
                if kind is Prod:
                    k = sum(degrees)
                else:
                    k = max(degrees, default=0)
                    if any(j != k for j in degrees):
                        scale = [k - j for j in degrees]
                        shifts.update(scale)
            self.index[id(u)] = len(self.steps)
            self.steps.append((kind, step, scale))
            self.degree.append(k)
        self.shifts = shifts

    def numerators(self, point) -> tuple[int, list]:
        """d and each step's N at a point of non-negative rationals."""
        d = math.lcm(self.den, *(x.denominator for x in point))
        power = {s: d**s for s in self.shifts}
        value: list = []
        for kind, step, scale in self.steps:
            if kind is Const:
                v = step.numerator * (d // step.denominator)
            elif kind is Arg:
                x = point[step]
                v = x.numerator * (d // x.denominator)
            elif kind is Prod:
                v = 1
                for i in step:
                    v *= value[i]
            else:
                if scale is None:
                    items = [value[i] for i in step]
                else:
                    items = [value[i] * power[s] for i, s in zip(step, scale)]
                if kind is Max:
                    v = max(items, default=0)
                elif kind is Sum:
                    v = sum(items)
                else:
                    v = min(items)
            value.append(v)
        return d, value


def eval_expr(e: QiExpr, point) -> Fraction:
    """Exact rational evaluation at a point of non-negative rationals, in
    integers through ``_Scaled``."""
    scaled = _Scaled(postorder([e], "items"))
    for kind, i, _ in scaled.steps:
        if kind is Arg:
            if i >= len(point):
                raise QiError(f"point of length {len(point)} for argument {i + 1}")
            if point[i] < 0:
                raise QiError("assignment expressions are evaluated on R+")
    d, value = scaled.numerators([Fraction(x) for x in point])
    root = scaled.index[id(e)]
    return Fraction(value[root], d ** scaled.degree[root])


def format_expr(e: QiExpr, names: Optional[list] = None) -> str:
    text: dict = {}
    for u in postorder([e], "items"):
        if isinstance(u, Const):
            out = str(u.value)
        elif isinstance(u, Arg):
            out = names[u.index] if names and u.index < len(names) else f"X{u.index + 1}"
        elif isinstance(u, Sum):
            out = " + ".join(text[id(i)] for i in u.items) or "0"
        elif isinstance(u, Prod):
            out = "*".join(
                f"({text[id(i)]})" if isinstance(i, Sum) else text[id(i)] for i in u.items
            ) or "1"
        else:
            inner = ", ".join(text[id(i)] for i in u.items)
            out = f"{'max' if isinstance(u, Max) else 'min'}({inner})"
        text[id(u)] = out
    return out


def substitute(e: QiExpr, args: list) -> QiExpr:
    """Replace Arg i by args[i].  Argument i moves unless args[i] is Arg(i);
    a node whose argument set holds no moved argument is its own image, so
    the walk builds the image of each node above a moved argument once."""
    if e.arg_mask >> len(args):
        raise QiError(f"argument {e.arg_mask.bit_length()} past a list of {len(args)}")
    moved = 0
    for i, a in enumerate(args):
        if type(a) is not Arg or a.index != i:
            moved |= 1 << i
    if not e.arg_mask & moved:
        return e
    new: dict = {}  # id of an entered node -> its image, None while pending
    todo = [e]
    while todo:
        u = todo.pop()
        if u is None:  # every moved item of the node under this marker is done
            u = todo.pop()
            items = [new[id(i)] if i.arg_mask & moved else i for i in u.items]
            new[id(u)] = type(u)(tuple(items))
        elif type(u) is Arg:
            new[id(u)] = args[u.index]
        elif id(u) not in new:
            new[id(u)] = None
            todo += (u, None)
            todo.extend([i for i in u.items if i.arg_mask & moved])
    return new[id(e)]


# -- posynomial normal form ---------------------------------------------------
#
# A posynomial is a map from monomials to positive coefficients; an
# expression normalizes to a max of posynomials (min handled by branch
# selection at the obligation level).
#
# A monomial over n arguments is one int: argument i's exponent fills field
# n - 1 - i of _WIDTH bits, so ints order as exponent tuples do and a product
# of monomials is their sum.  Each field's top bit is a guard that no monomial
# sets: a sum sets one, and carries no further, when an exponent passes
# EXPONENT_CAP, and posy_mul then raises QiError.

_WIDTH = EXPONENT_CAP.bit_length() + 1
_FIELD = (1 << _WIDTH) - 1

Posy = dict  # monomial -> int or Fraction
# Integral coefficients are kept as ints, which Python adds, multiplies and
# compares exactly with Fractions, at a fraction of the cost.


def _unit(i: int, arity: int) -> int:
    """The monomial of argument i alone, over ``arity`` arguments."""
    return 1 << _WIDTH * (arity - 1 - i)


def _widen(p: Posy, after: int) -> Posy:
    """p over its own arguments and ``after`` more after them, each with
    exponent 0; arguments added before its own leave every monomial as is."""
    return {mono << _WIDTH * after: c for mono, c in p.items()}


def _exponents(mono: int, arity: int) -> list:
    """The exponent of each argument in a monomial over ``arity`` arguments."""
    return [mono >> _WIDTH * (arity - 1 - i) & _FIELD for i in range(arity)]


def posy_sum(parts: list) -> Posy:
    out: Posy = {}
    for p in parts:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return out


def posy_mul(a: Posy, b: Posy, arity: int) -> Posy:
    """a * b over ``arity`` arguments; QiError when an exponent passes EXPONENT_CAP."""
    out: Posy = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    guards = ((1 << _WIDTH * arity) - 1) // _FIELD << (_WIDTH - 1)
    if functools.reduce(operator.or_, out, 0) & guards:
        raise QiError(f"an exponent above EXPONENT_CAP ({EXPONENT_CAP})")
    return out


def posy_compose(p: Posy, args: list, arity: int) -> Posy:
    """p with its argument i replaced by the posynomial args[i], each over
    ``arity`` arguments, expanded into one posynomial."""
    parts = []
    for mono, c in p.items():
        out = {0: c}
        for a, e in zip(args, _exponents(mono, len(args))):
            for _ in range(e):
                out = posy_mul(out, a, arity)
        parts.append(out)
    return posy_sum(parts)


def posy_dominates(a: Posy, b: Posy) -> bool:
    """Coefficient-wise a >= b after monomial alignment (sound, incomplete)."""
    return all(a.get(m, 0) >= c for m, c in b.items())


def _prune(branches: list) -> list:
    out: list[Posy] = []
    for b in branches:
        for kept in out:
            if posy_dominates(kept, b):
                break
        else:
            out = [kept for kept in out if not posy_dominates(b, kept)]
            out.append(b)
    return out


def max_posy_form(e: QiExpr, arity: int, memo: dict) -> Optional[list]:
    """Max-of-posynomials normal form; None when min occurs or the form blows
    up, and QiError for an argument at or past ``arity``.

    Identical max subexpressions always take equal values, so one branch
    choice is made per distinct max node rather than per occurrence; the
    expression is monotone in each such choice, which makes the expansion
    exact instead of merely an upper envelope.

    ``memo`` is the memo of an assignment (QiAssignment.memo): it maps
    ``(e, arity)`` to e's pruned form, or to None when e has more than
    BRANCH_CAP branch combinations or an exponent past EXPONENT_CAP, so each
    expression is expanded once however often it is asked for.  An expansion
    also enters the one-branch form of every max-free node it meets.  A form
    taken from the memo is shared with later callers and must not be mutated.
    """
    if e.arg_mask >> arity:
        raise QiError(f"argument {e.arg_mask.bit_length()} past arity {arity}")
    if e.has_min:
        return None
    key = (e, arity)
    if key not in memo:
        maxes = _distinct_maxes(e)
        within = math.prod(max(1, len(m.items)) for m in maxes) <= BRANCH_CAP
        try:
            memo[key] = _expand(e, arity, maxes, memo) if within else None
        except QiError:  # an exponent past EXPONENT_CAP
            memo[key] = None
    return memo[key]


# The walks below are loops or module-level functions, never recursive
# closures: a closure that calls itself is a reference cycle, which keeps
# what it captured alive until the cyclic collector runs.


def _distinct_maxes(e: QiExpr) -> list:
    """The distinct max nodes of e, in pre-order of first occurrence.  The
    walk stops at a max-free node and at a node met before, whose maxes were
    all listed at its first occurrence."""
    maxes: list[Max] = []
    seen: set = set()
    todo = [e]
    while todo:
        u = todo.pop()
        if not u.has_max or id(u) in seen:
            continue
        seen.add(id(u))
        if type(u) is Max:
            maxes.append(u)
        todo.extend(reversed(u.items))
    return maxes


def _expand(e: QiExpr, arity: int, maxes: list, memo: dict) -> list:
    """The pruned branches of e, one per choice of an item for every max.

    A node with no max at or below it has the same posynomial under every
    choice.  Its one-branch form is kept in ``memo`` under ``(node, arity)``,
    so it is computed once per assignment and arity, and the walk below
    stops at it.  The other nodes are listed in post-order and recomputed
    per choice, each max taking its chosen item's posynomial, which it reads
    from the choice at its own position in ``maxes``."""
    position = {id(m): k for k, m in enumerate(maxes)}
    posy: dict = {}  # id -> posynomial of the node under the current choice
    varying = []  # (node, its position in maxes, or None for a non-max)
    seen: set = set()
    todo: list = [e]
    while todo:
        u = todo.pop()
        if u is None:  # everything below the node under this marker is done
            u = todo.pop()
            if u.has_max:
                varying.append((u, position.get(id(u))))
            else:
                p = posy[id(u)] = _posy_of(u, posy, arity)
                memo[u, arity] = [p]
        elif id(u) not in seen:
            seen.add(id(u))
            known = None if u.has_max else memo.get((u, arity))
            if known is not None:
                posy[id(u)] = known[0]
            else:
                todo += (u, None)
                todo.extend(reversed(getattr(u, "items", ())))
    branches = []
    pools = [list(m.items) if m.items else [None] for m in maxes]
    for combo in itertools.product(*pools):
        for u, k in varying:
            if k is None:
                posy[id(u)] = _posy_of(u, posy, arity)
            else:
                picked = combo[k]
                posy[id(u)] = posy[id(picked)] if picked is not None else {}
        branches.append(posy[id(e)])
    return _prune(branches)


def _posy_of(u: QiExpr, posy: dict, arity: int) -> Posy:
    """The posynomial of a node other than max, from its items' posynomials
    in ``posy``."""
    kind = type(u)
    if kind is Const:
        v = u.value
        return {0: v.numerator if v.denominator == 1 else v} if v else {}
    if kind is Arg:
        return {_unit(u.index, arity): 1}
    if kind is Sum:
        return posy_sum([posy[id(i)] for i in u.items])
    if not u.items:
        return {0: 1}
    out = posy[id(u.items[0])]  # the product starts at its first factor, not at 1
    for i in u.items[1:]:
        out = posy_mul(out, posy[id(i)], arity)
    return out


def expr_from_posy(p: Posy, arity: int) -> QiExpr:
    """Rebuild a sum-of-monomials expression from a posynomial over ``arity`` arguments."""
    if not p:
        return Const(0)
    terms = [monomial_expr(mono, coeff, arity) for mono, coeff in sorted(p.items())]
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def monomial_expr(mono: int, coeff, arity: int) -> QiExpr:
    """The expression of a monomial over ``arity`` arguments: its coefficient,
    unless it is 1 on a non-constant monomial, times each argument as often as its exponent."""
    factors: list[QiExpr] = []
    if coeff != 1 or not mono:
        factors.append(Const(coeff))
    for i, e in enumerate(_exponents(mono, arity)):
        factors.extend([Arg(i)] * e)
    return factors[0] if len(factors) == 1 else Prod(tuple(factors))


def enter_form(form: list, exprs: list, arity: int, memo: dict) -> QiExpr:
    """The max of ``exprs``, the expressions of the branches of ``form``, or
    the one expression; the form is its own, and is entered in ``memo``.
    ``form`` is a pruned form whose branches are in ascending order of
    their sorted (monomial, coefficient) lists."""
    out = exprs[0] if len(form) == 1 else Max(tuple(exprs))
    memo.setdefault((out, arity), form)
    return out


def _min_choices(e: QiExpr) -> list:
    """The first MIN_CHOICES + 1 expressions obtained by committing every
    min node to one branch, in the order of committing left to right: a min
    node lists its items' choices in turn, any other node the product of its
    items' first MIN_CHOICES choices."""
    choices: dict = {}
    for u in postorder([e], "items"):
        if not u.has_min:
            out = [u]
        elif isinstance(u, Min):
            out = [c for i in u.items for c in choices[id(i)]][: MIN_CHOICES + 1]
        else:
            pools = [choices[id(i)][:MIN_CHOICES] for i in u.items]
            combos = itertools.islice(itertools.product(*pools), MIN_CHOICES + 1)
            out = [type(u)(combo) for combo in combos]
        choices[id(u)] = out
    return out


def dominates(lhs: QiExpr, rhs: QiExpr, arity: int, memo: dict) -> bool:
    """Sound sufficient check for lhs >= rhs pointwise on R+^arity.

    Both sides are brought to max-of-posynomials; each rhs branch must be
    coefficient-dominated by some lhs branch.  A min on the lhs must
    dominate through every branch, a min on the rhs through some branch.
    ``memo`` is the memo of max_posy_form; it also keeps each decision under
    ``(lhs, rhs, arity)``, a key that never equals a normal form's
    ``(e, arity)`` or term_qi's ``(entry, argument tuple)``.
    """
    key = (lhs, rhs, arity)
    known = memo.get(key)
    if known is None:
        known = memo[key] = _dominates(lhs, rhs, arity, memo)
    return known


def _dominates(lhs: QiExpr, rhs: QiExpr, arity: int, memo: dict) -> bool:
    if lhs.has_min:
        # Every min branch of the lhs must dominate; never drop any.
        choices = _min_choices(lhs)
        if len(choices) > MIN_CHOICES:
            return False
        lhs_forms = [max_posy_form(c, arity, memo) for c in choices]
    else:
        lhs_forms = [max_posy_form(lhs, arity, memo)]
    if any(f is None for f in lhs_forms):
        return False
    rhs_choices = (
        [rhs] if not rhs.has_min else _min_choices(rhs)[:MIN_CHOICES]
    )
    for lf in lhs_forms:
        for rc in rhs_choices:
            rf = max_posy_form(rc, arity, memo)
            if rf is None:
                continue
            for rb in rf:
                for lb in lf:
                    if posy_dominates(lb, rb):
                        break
                else:
                    break  # no lhs branch dominates rb
            else:
                break  # every rhs branch is dominated: lf dominates rc
        else:
            return False  # lf dominates no rhs choice
    return True


# -- assignments --------------------------------------------------------------


class QiAssignment(_Frozen):
    _fields = ("entries", "memo")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, entries: dict, memo: Optional[dict] = None):
        _set(self, "entries", entries)  # symbol name -> QiExpr
        # Normal forms, dominance decisions and substitutions (max_posy_form,
        # dominates, term_qi) keyed by expressions alone, so an assignment
        # built from the same expressions may share it.  It lives exactly as
        # long as the assignments that hold it.
        _set(self, "memo", {} if memo is None else memo)

    def entry(self, name: str) -> QiExpr:
        try:
            return self.entries[name]
        except KeyError:
            raise QiError(f"no assignment entry for symbol {name}")


def term_qi(assignment: QiAssignment, term: Term, var_order: list | dict | None = None) -> QiExpr:
    """Canonical extension of the assignment to a term.

    Variables become Arg indices in ``var_order`` (default: left-to-right
    first occurrence in the term itself): a list of names, or a dict from
    each name to its Arg, built once for every term over the order.  Each
    ``(entry, argument expressions)`` is substituted once per assignment,
    kept in its memo, so equal subterms, and every check that shares the
    memo, get the same node.
    """
    if var_order is None:
        var_order = variables(term)
    if not isinstance(var_order, dict):
        var_order = {v: Arg(i) for i, v in enumerate(var_order)}
    return _term_expr(assignment, var_order, term)


def _term_expr(assignment: QiAssignment, args: dict, t: Term) -> QiExpr:
    """term_qi folded on a stack of frames, as terms.apply_subst folds, so no
    recursion limit bounds the depth of the term.  A frame is an application
    and its arguments' items so far; a variable is read when its frame is
    done, so the first error raised is the one a post-order fold meets first."""
    if type(t) is Var:
        return _variable(args, t)
    entries, memo = assignment.entries, assignment.memo
    done: dict = {}  # id of an application -> its expression
    stack: list = [(t, [])]
    while True:
        u, items = stack[-1]
        for a in u.args[len(items) :]:
            got = a if type(a) is Var else done.get(id(a))
            if got is None:
                stack.append((a, []))
                break
            items.append(got)
        else:
            entry = entries.get(u.symbol.name)
            if entry is None:
                raise QiError(f"no assignment entry for symbol {u.symbol.name}")
            key = (entry, tuple([_variable(args, a) if type(a) is Var else a for a in items]))
            out = memo.get(key)
            if out is None:
                out = memo[key] = substitute(*key)
            stack.pop()
            if not stack:
                return out
            done[id(u)] = out
            stack[-1][1].append(out)


def _variable(args: dict, v: Var) -> QiExpr:
    try:
        return args[v.name]
    except KeyError:
        raise QiError(f"variable {v.name} not in the variable order")


def additive_shape(e: QiExpr, arity: int) -> Optional[Fraction]:
    """If e is exactly Sum(all Args once, Const a >= 1), return a, else None."""
    items = e.items if isinstance(e, Sum) else (e,)
    args = sorted(i.index for i in items if isinstance(i, Arg))
    consts = [i.value for i in items if isinstance(i, Const)]
    others = [i for i in items if not isinstance(i, (Arg, Const))]
    if others or args != list(range(arity)) or len(consts) > 1:
        return None
    a = consts[0] if consts else Fraction(0)
    return a if a >= 1 else None


def _sample_points(arity: int, tag: str, seed: int = 0) -> Iterator[tuple]:
    """Grid then seeded random rationals; the tag pins the stream per
    obligation so parallel or reordered checking cannot change verdicts."""
    if arity == 0:
        yield ()
        return
    size = len(GRID_POINTS) ** arity
    if size <= GRID_CAP:
        for p in itertools.product(GRID_POINTS, repeat=arity):
            yield tuple(Fraction(x) for x in p)
    else:
        # Sample grid indices, never the grid itself (5^arity points).  This
        # is the draw-and-reject loop random.sample runs on a population this
        # large, so index j, the j-th point in itertools.product order, comes
        # out where sampling the listed grid put that point.
        rng = random.Random(f"{seed}:{tag}:grid")
        taken: set = set()
        while len(taken) < GRID_CAP:
            j = rng.randrange(size)
            if j not in taken:
                taken.add(j)
                yield tuple(Fraction(x) for x in _grid_point(j, arity))
    rng = random.Random(f"{seed}:{tag}:rand")
    for _ in range(RANDOM_POINTS):
        yield tuple(
            Fraction(rng.randint(0, 64), rng.randint(1, 8)) for _ in range(arity)
        )


def _grid_point(index: int, arity: int) -> tuple:
    """The grid point whose base-5 digits, most significant first, are index's."""
    digits = []
    for _ in range(arity):
        index, d = divmod(index, len(GRID_POINTS))
        digits.append(GRID_POINTS[d])
    return tuple(reversed(digits))


class ConditionReport(NamedTuple):
    subterm: dict  # name -> (status, witness point or None)
    additivity: dict  # constructor name -> bool

    @property
    def ok(self) -> bool:
        return (
            all(s == VALID for s, _ in self.subterm.values())
            and all(self.additivity.values())
        )

    def as_dict(self) -> dict:
        return {
            "monotone": True,  # by construction
            "polynomial": True,  # by construction
            "subterm": {
                k: {"status": s, "witness": [str(x) for x in w] if w else None}
                for k, (s, w) in self.subterm.items()
            },
            "additivity": self.additivity,
            "ok": self.ok,
        }


def check_conditions(assignment: QiAssignment, program: Program) -> ConditionReport:
    """The four assignment conditions.

    Weak monotonicity and polynomial boundedness hold by construction of the
    expression language; additivity is syntactic on constructors; the
    subterm condition is checked by dominance, in the assignment's memo, with
    sampling refutation.
    """
    args: list = []  # Arg(0), Arg(1), .., each built once
    subterm: dict = {}
    additivity: dict = {}
    for sym in program.signature:
        if sym.name not in assignment.entries:
            continue
        e = assignment.entry(sym.name)
        if sym.is_constructor:
            additivity[sym.name] = additive_shape(e, sym.arity) is not None
        status = VALID
        witness = None
        args.extend(map(Arg, range(len(args), sym.arity)))
        for i in range(sym.arity):
            if dominates(e, args[i], sym.arity, assignment.memo):
                continue
            status = UNKNOWN
            refuted = _refute(e, args[i], sym.arity, tag=f"subterm:{sym.name}:{i}")
            if refuted is not None:
                status, witness = INVALID, refuted
                break
        subterm[sym.name] = (status, witness)
    return ConditionReport(subterm, additivity)


def _refute(lhs: QiExpr, rhs: QiExpr, arity: int, tag: str, seed: int = 0):
    """The first sample point where lhs < rhs, or None.  Both sides are
    evaluated in integers over one common denominator per point."""
    scaled = _Scaled(postorder([lhs, rhs], "items"))
    left, right = scaled.index[id(lhs)], scaled.index[id(rhs)]
    k_left, k_right = scaled.degree[left], scaled.degree[right]
    for p in _sample_points(arity, tag, seed):
        d, value = scaled.numerators(p)
        if value[left] * d**k_right < value[right] * d**k_left:
            return p
    return None


class ObligationVerdict(NamedTuple):
    equation_index: int
    # (lhs, rhs, variable names) of the obligation lhs >= rhs, or the
    # equation itself when it has none; formatted only when read.
    sides: tuple | Equation
    status: str
    witness: Optional[tuple] = None
    note: Optional[str] = None

    @property
    def obligation(self) -> str:
        if isinstance(self.sides, Equation):
            return repr(self.sides)
        lhs, rhs, names = self.sides
        return f"{format_expr(lhs, names)} >= {format_expr(rhs, names)}"


class QiVerdict(NamedTuple):
    per_equation: tuple
    conditions: ConditionReport
    overall: str

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "conditions": self.conditions.as_dict(),
            "per_equation": [
                {
                    "equation": v.equation_index,
                    "obligation": v.obligation,
                    "status": v.status,
                    "witness": [str(x) for x in v.witness] if v.witness else None,
                    "note": v.note,
                }
                for v in self.per_equation
            ],
        }


def check_qi(program: Program, assignment: QiAssignment, seed: int = 0) -> QiVerdict:
    """Verify floor(l) >= floor(r) for every equation.

    The variable order of each obligation is the left-to-right first
    occurrence in the lhs, so obligations are deterministic.  Normal forms
    and dominance decisions come from the assignment's memo, so each is
    computed once per assignment, whatever checks share it.
    """
    conditions = check_conditions(assignment, program)
    verdicts = []
    nodes: list = []  # Arg(0), Arg(1), .., each built once
    for eq in program.equations:
        var_order = variables(eq.lhs)
        nodes.extend(map(Arg, range(len(nodes), len(var_order))))
        args = dict(zip(var_order, nodes))
        try:
            lhs = term_qi(assignment, eq.lhs, args)
            rhs = term_qi(assignment, eq.rhs, args)
        except QiError:
            # every rhs variable occurs in the lhs, so a symbol has no entry
            verdicts.append(
                ObligationVerdict(eq.index, eq, UNKNOWN, note="missing assignment entries")
            )
            continue
        arity = len(var_order)
        sides = (lhs, rhs, var_order)
        if dominates(lhs, rhs, arity, assignment.memo):
            verdicts.append(ObligationVerdict(eq.index, sides, VALID))
            continue
        witness = _refute(lhs, rhs, arity, tag=f"eq:{eq.index}", seed=seed)
        status = UNKNOWN if witness is None else INVALID
        verdicts.append(ObligationVerdict(eq.index, sides, status, witness))
    if any(v.status == INVALID for v in verdicts) or not conditions.ok:
        overall = INVALID
    elif all(v.status == VALID for v in verdicts):
        overall = VALID
    else:
        overall = UNKNOWN
    return QiVerdict(tuple(verdicts), conditions, overall)


def is_uniform(assignment: QiAssignment, program: Program) -> bool:
    """Same-arity constructors carry structurally identical expressions."""
    by_arity: dict[int, list] = {}
    for c in program.constructors:
        if c.name in assignment.entries:
            by_arity.setdefault(c.arity, []).append(assignment.entry(c.name))
    return all(all(e == es[0] for e in es) for es in by_arity.values())


# -- assignment file format ----------------------------------------------------

_TOKEN = re.compile(r"\d+/\d+|[A-Za-z0-9_']+|[(),+*]|\S")
_NAME = re.compile(r"[A-Za-z0-9_']+")
_PARAM = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NUMBER = re.compile(r"\d+(?:/\d+)?")
_ZERO_DENOMINATOR = re.compile(r"\d+/0+")


def parse_assignment(text: str, program: Program) -> QiAssignment:
    """Parse lines like ``qi append(X,Y) = X + Y``; rationals as p/q."""
    entries: dict = {}
    symbols = {s.name: s for s in program.signature}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = Tokens(_TOKEN, raw, lineno, comment="#")
        if toks.done():
            continue
        if toks.next() != "qi" or not _NAME.fullmatch(toks.peek()):
            raise ParseError("expected 'qi name(X, ..) = expression'", lineno, 1)
        if toks.peek() not in symbols:
            raise toks.error(f"unknown symbol {toks.peek()}")
        sym = symbols[toks.next()]
        params: list = []
        if toks.peek() == "(":
            toks.next()
            while toks.peek() != ")":
                if params:
                    toks.expect(",")
                _check_param(toks.peek(), params, toks.error)
                params.append(toks.next())
            toks.next()
        if len(params) != sym.arity:
            raise ParseError(
                f"{sym.name}/{sym.arity} declared with {len(params)} parameters", lineno, 1
            )
        if sym.name in entries:
            raise ParseError(f"second qi line for {sym.name}", lineno, 1)
        toks.expect("=")
        entries[sym.name] = _expression(toks, params)
    return QiAssignment(entries)


def _check_param(p: str, seen: list, error) -> None:
    """A parameter is a distinct name other than max and min."""
    if not _PARAM.fullmatch(p) or p in ("max", "min"):
        raise error(f"parameter {p!r} is not a name")
    if p in seen:
        raise error(f"parameter {p!r} is repeated")


def parse_expr(text: str, params: list, lineno: int = 1) -> QiExpr:
    """Parse one expression over the parameter names ``params`` (Arg i for
    ``params[i]``)."""
    for i, p in enumerate(params):
        _check_param(p, params[:i], lambda message: ParseError(message, lineno, 1))
    return _expression(Tokens(_TOKEN, text, lineno), params)


def _expression(toks: Tokens, params: list) -> QiExpr:
    e = run_stack(_sum(toks, params))
    if not toks.done():
        raise toks.error(f"trailing input {toks.peek()!r} in expression")
    return e


def _sum(toks: Tokens, params: list):
    """A sum of products of atoms, read on ``run_stack``: an atom that is a
    group, a max or a min yields the reader of each sum inside it."""
    terms: list = []
    factors: list = []
    while True:
        tok = toks.peek()
        if tok in ("max", "min"):
            toks.next()
            toks.expect("(")
            items = [(yield _sum(toks, params))]
            while toks.peek() == ",":
                toks.next()
                items.append((yield _sum(toks, params)))
            toks.expect(")")
            factors.append((Max if tok == "max" else Min)(tuple(items)))
        elif tok == "(":
            toks.next()
            factors.append((yield _sum(toks, params)))
            toks.expect(")")
        elif _NUMBER.fullmatch(tok):
            if _ZERO_DENOMINATOR.fullmatch(tok):
                raise ParseError(f"constant {tok} has a zero denominator", toks.line, 1)
            toks.next()
            factors.append(Const(tok))  # Fraction reads p/q
        elif tok in params:
            toks.next()
            factors.append(Arg(params.index(tok)))
        else:
            raise toks.error(f"unknown name {tok!r} in expression")
        op = None if toks.done() else toks.peek()
        if op == "*":
            toks.next()
            continue
        terms.append(factors[0] if len(factors) == 1 else Prod(tuple(factors)))
        if op != "+":
            return terms[0] if len(terms) == 1 else Sum(tuple(terms))
        toks.next()
        factors = []


def format_assignment(assignment: QiAssignment, program: Program) -> str:
    lines = []
    for sym in program.signature:
        if sym.name not in assignment.entries:
            continue
        names = [f"X{i+1}" for i in range(sym.arity)]
        head = f"{sym.name}({', '.join(names)})" if names else sym.name
        lines.append(f"qi {head} = {format_expr(assignment.entry(sym.name), names)}")
    return "\n".join(lines) + "\n"
