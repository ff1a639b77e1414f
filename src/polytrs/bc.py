"""Safe-recursion function algebra: compilation to rewrite programs and
automatic uniform quasi-interpretations.

Terms of the algebra separate normal from safe argument positions;
recursion runs over a normal argument and its result may only be used
safely.  Compilation flattens the two zones into one argument list, keeping
the boundary as metadata for the quasi-interpretation construction.

Algebra terms are hash-consed through the intern table of ``terms``: one
object per distinct term, so equality is identity and the hash is the
address, both in C at any depth.  A term is its own structural key, so the
arity check and compilation each visit every distinct node once.
"""

from __future__ import annotations

import bisect
import random
import re
from typing import NamedTuple

from .base import SignatureError, Tokens, run_stack
from .qi import BRANCH_CAP, Arg, Const, Max, Posy, QiAssignment, QiExpr, Sum, enter_form
from .qi import _unit, _widen, expr_from_posy, monomial_expr, posy_compose, posy_mul, posy_sum
from .terms import (
    App,
    CONSTRUCTOR,
    Equation,
    FUNCTION,
    Program,
    Symbol,
    Term,
    Var,
    _Interned,
)

S0 = Symbol("s0", CONSTRUCTOR, 1)
S1 = Symbol("s1", CONSTRUCTOR, 1)
ZERO = Symbol("0", CONSTRUCTOR, 0)


class _BcNode(_Interned):
    """An algebra term, hash-consed: its repr shows its own numbers only,
    so no dunder walks a deep term."""

    __slots__ = ()

    def __repr__(self) -> str:
        values = map(self.__getattribute__, self._fields)
        shown = ", ".join(repr(v) if type(v) is int else "..." for v in values)
        return f"{type(self).__name__}({shown})"


class BcZero(_BcNode):
    __slots__ = ()


class BcSucc(_BcNode):
    __slots__ = _fields = ("bit",)

    def _fill(self, bit: int) -> None:
        if bit not in (0, 1):
            raise SignatureError("successor bit must be 0 or 1")
        _Interned._fill(self, bit)


class BcProj(_BcNode):
    __slots__ = _fields = ("normals", "safes", "index")  # index: 1-based over all arguments

    def _fill(self, normals: int, safes: int, index: int) -> None:
        if not 1 <= index <= normals + safes:
            raise SignatureError("projection index out of range")
        _Interned._fill(self, normals, safes, index)


class BcPred(_BcNode):
    __slots__ = ()


class BcCond(_BcNode):
    __slots__ = ()


class BcSafeRec(_BcNode):
    __slots__ = _fields = ("base", "step0", "step1")


class BcSafeComp(_BcNode):
    # each normal inner function of arity (normals; 0), each safe one (normals; safes)
    __slots__ = _fields = ("normals", "safes", "outer", "normal_inner", "safe_inner")


BcTerm = BcZero | BcSucc | BcProj | BcPred | BcCond | BcSafeRec | BcSafeComp


def bc_arity(b: BcTerm) -> tuple[int, int]:
    """(normal, safe) arity; validates consistency of compound terms."""
    return run_stack(_arity_walk(b, {}))


def _arity_walk(b: BcTerm, out: dict):
    """bc_arity on run_stack, in one pass that records the arity of every
    distinct node in ``out`` and walks no node twice: a subterm already in
    ``out`` is read there."""
    if isinstance(b, BcZero):
        arity = (0, 0)
    elif isinstance(b, (BcSucc, BcPred)):
        arity = (0, 1)
    elif isinstance(b, BcCond):
        arity = (0, 3)
    elif isinstance(b, BcProj):
        arity = (b.normals, b.safes)
    elif isinstance(b, BcSafeRec):
        n, m = out.get(b.base) or (yield _arity_walk(b.base, out))
        for step in (b.step0, b.step1):
            got = out.get(step) or (yield _arity_walk(step, out))
            _expect_arity("recursion step", got, (n + 1, m + 1))
        arity = (n + 1, m)
    elif isinstance(b, BcSafeComp):
        p, q = out.get(b.outer) or (yield _arity_walk(b.outer, out))
        if len(b.normal_inner) != p or len(b.safe_inner) != q:
            raise SignatureError(
                f"composition needs {p} normal and {q} safe inner functions"
            )
        for h in b.normal_inner:
            got = out.get(h) or (yield _arity_walk(h, out))
            _expect_arity("normal inner function", got, (b.normals, 0))
        for l in b.safe_inner:
            got = out.get(l) or (yield _arity_walk(l, out))
            _expect_arity("safe inner function", got, (b.normals, b.safes))
        arity = (b.normals, b.safes)
    else:
        raise SignatureError(f"unknown algebra term {b!r}")
    out[b] = arity
    return arity


def _expect_arity(what: str, got: tuple, needs: tuple) -> None:
    if got != needs:
        raise SignatureError("%s has arity (%d; %d), needs (%d; %d)" % (what, *got, *needs))


class BcCompilation(NamedTuple):
    program: Program
    qi: QiAssignment
    provenance: dict  # symbol name -> description
    boundaries: dict  # symbol name -> (normal, safe)
    main: Symbol


class _Compiler:
    def __init__(self, arities: dict):
        self.arities = arities  # node -> (normal, safe)
        self.symbols: dict = {}  # node -> compiled symbol
        self.equations: list[Equation] = []
        self.q_parts: dict[str, Posy] = {}  # posynomials over normal indices
        self.entries: dict[str, QiExpr] = {}
        self.provenance: dict[str, str] = {}
        self.boundaries: dict[str, tuple] = {}
        self.counters: dict[str, int] = {}
        self.memo: dict = {}  # becomes the compiled assignment's memo
        # x1, x2, .. and y1, y2, .., as many as the widest node needs
        self.xs = tuple(Var(f"x{i + 1}") for i in range(max(n for n, _ in arities.values())))
        self.ys = tuple(Var(f"y{i + 1}") for i in range(max(m for _, m in arities.values())))

    def fresh(self, kind: str, arity: int) -> Symbol:
        i = self.counters.get(kind, 0)
        self.counters[kind] = i + 1
        return Symbol(f"bc_{kind}_{i}", FUNCTION, arity)

    def add_equation(self, f: Symbol, patterns: tuple, rhs: Term) -> None:
        self.equations.append(Equation(f, patterns, rhs, len(self.equations)))

    def compile(self, b: BcTerm):
        """b's symbol, on run_stack; b has passed ``_arity_walk``, whose
        arities it reads.  A hash-consed node is its own structural key, so
        each distinct node is compiled once, after its subterms."""
        if isinstance(b, BcSafeRec):
            subterms = (b.base, b.step0, b.step1)
        elif isinstance(b, BcSafeComp):
            subterms = (b.outer, *b.normal_inner, *b.safe_inner)
        else:
            subterms = ()
        syms = []
        for c in subterms:
            syms.append(self.symbols.get(c) or (yield self.compile(c)))
        n, m = self.arities[b]
        xs, ys = self.xs[:n], self.ys[:m]
        units = [{_unit(i, n): 1} for i in range(n)]  # the normal arguments
        parts = self.q_parts

        def finish(sym: Symbol, q: Posy, desc: str, entry=None) -> Symbol:
            self.symbols[b] = sym
            self.q_parts[sym.name] = q
            self.entries[sym.name] = entry or _entry(q, n, m, self.memo)
            self.provenance[sym.name] = desc
            self.boundaries[sym.name] = (n, m)
            return sym

        if isinstance(b, BcZero):
            sym = self.fresh("zero", 0)
            self.add_equation(sym, (), App(ZERO))
            return finish(sym, {0: 1}, "constant 0")
        if isinstance(b, BcSucc):
            sym = self.fresh("succ", 1)
            ctor = S0 if b.bit == 0 else S1
            self.add_equation(sym, ys, App(ctor, (ys[0],)))
            return finish(sym, {0: 1}, f"successor s{b.bit}")
        if isinstance(b, BcProj):
            sym = self.fresh("proj", n + m)
            args = xs + ys
            self.add_equation(sym, args, args[b.index - 1])
            # floor(proj) is the max over all arguments; its q part is the
            # posynomial over-approximation sum of normals, which keeps the
            # compiled recurrences free of nested maxima.
            entry = Max(tuple(Arg(i) for i in range(n + m)))
            desc = f"projection {b.index} of ({n}; {m})"
            return finish(sym, posy_sum(units), desc, entry)
        if isinstance(b, BcPred):
            sym = self.fresh("pred", 1)
            y = Var("y1")
            self.add_equation(sym, (App(ZERO),), App(ZERO))
            self.add_equation(sym, (App(S0, (y,)),), y)
            self.add_equation(sym, (App(S1, (y,)),), y)
            return finish(sym, {}, "predecessor")
        if isinstance(b, BcCond):
            sym = self.fresh("cond", 3)
            w, y, z = Var("w"), Var("y1"), Var("y2")
            self.add_equation(sym, (App(ZERO), y, z), y)
            self.add_equation(sym, (App(S0, (w,)), y, z), y)
            self.add_equation(sym, (App(S1, (w,)), y, z), z)
            # floor(cond) = max of the three safe arguments, q part 0.
            return finish(sym, {}, "conditional")
        if isinstance(b, BcSafeRec):
            g, h0, h1 = syms
            sym = self.fresh("rec", n + m)
            z = Var("z")
            rest = xs[1:]
            self.add_equation(sym, (App(ZERO),) + rest + ys, App(g, rest + ys))
            for bit, h in ((0, h0), (1, h1)):
                ctor = S0 if bit == 0 else S1
                call = App(sym, (z,) + rest + ys)
                self.add_equation(
                    sym,
                    (App(ctor, (z,)),) + rest + ys,
                    App(h, (z,) + rest + ys + (call,)),
                )
            # q(A, X..) = A * (q_h0 + q_h1)(A, X..) + q_g(X..), padded with
            # the sum of the normal arguments so the subterm condition holds
            # on all of R+ even when inner functions drop arguments.  q_g is
            # over X.., and widening it by A before them changes no monomial.
            q_h = posy_sum([parts[h0.name], parts[h1.name]])
            q = posy_sum([posy_mul(units[0], q_h, n), parts[g.name]] + units)
            return finish(sym, q, "safe recursion")
        if isinstance(b, BcSafeComp):
            outer = syms[0]
            hs = syms[1 : 1 + len(b.normal_inner)]
            ls = syms[1 + len(b.normal_inner) :]
            sym = self.fresh("comp", n + m)
            rhs = App(
                outer,
                tuple(App(h, xs) for h in hs) + tuple(App(l, xs + ys) for l in ls),
            )
            self.add_equation(sym, xs + ys, rhs)
            q_g = posy_compose(parts[outer.name], [parts[h.name] for h in hs], n)
            q = posy_sum([q_g] + [parts[l.name] for l in ls] + units)
            return finish(sym, q, "safe composition")


def _entry(q: Posy, n: int, m: int, memo: dict) -> QiExpr:
    """The entry q + max(X_{n+1}, .., X_{n+m}) of a symbol with n normal and
    m safe arguments as the max of the posynomials q + X_{n+j}, which is its
    normal form, entered in ``memo``: q has no monomial in a safe argument,
    so no branch dominates another.  The branches are in ascending order of
    their sorted (monomial, coefficient) lists, which puts X_{n+m} first and
    X_{n+1} last.  Above BRANCH_CAP safe arguments the entry is left as
    q + max(safe arguments)."""
    if m > BRANCH_CAP:
        return Sum((expr_from_posy(q, n), Max(tuple(Arg(n + j) for j in range(m)))))
    if not m:
        return enter_form([q], [expr_from_posy(q, n)], n, memo)
    # q's monomial nodes are built once, and each branch places X_{n+j} among
    # them at its sorted place.  The branches are listed from the last safe
    # argument to the first, as X_{n+j}'s unit monomial sorts below X_{n+i}'s
    # for i < j.
    monos = sorted(q)
    nodes = [monomial_expr(mono, q[mono], n) for mono in monos]
    q = _widen(q, m)
    monos = sorted(q)
    form, exprs = [], []
    for j in reversed(range(m)):
        unit = _unit(n + j, n + m)
        at = bisect.bisect(monos, unit)
        terms = nodes[:at] + [Arg(n + j)] + nodes[at:]
        form.append({**q, unit: 1})
        exprs.append(terms[0] if len(terms) == 1 else Sum(tuple(terms)))
    return enter_form(form, exprs, n + m, memo)


def compile_bc(b: BcTerm) -> BcCompilation:
    """Compile to a rewrite program over {s0, s1, 0} with a generated QI.

    Structurally identical subterms share one compiled symbol; naming is
    deterministic, so compilation is reproducible.
    """
    arities: dict = {}
    run_stack(_arity_walk(b, arities))  # validate before emitting anything
    comp = _Compiler(arities)
    main = run_stack(comp.compile(b))
    functions = dict.fromkeys(eq.lhs_function for eq in comp.equations)
    signature = [S0, S1, ZERO] + list(functions)
    program = Program(tuple(signature), tuple(comp.equations), main)
    entries = dict(comp.entries)
    entries["s0"] = entries["s1"] = Sum((Arg(0), Const(1)))
    entries["0"] = Const(1)
    return BcCompilation(
        program, QiAssignment(entries, comp.memo), comp.provenance, comp.boundaries, main
    )


# -- random generation -----------------------------------------------------------


def random_bc(seed: int, depth_cap: int = 4) -> BcTerm:
    """Arity-consistent random algebra term, reproducible by seed."""
    rng = random.Random(seed)
    n = rng.randint(0, 2)
    m = rng.randint(0 if n else 1, 2)
    return _gen(rng, n, m, depth_cap)


# The leaves other than projections, as (class, fields), by the arity they fit.
_LEAVES = {
    (0, 0): ((BcZero, ()),),
    (0, 1): ((BcSucc, (0,)), (BcSucc, (1,)), (BcPred, ())),
    (0, 3): ((BcCond, ()),),
}


def _initial(rng: random.Random, n: int, m: int) -> BcTerm:
    """A leaf of arity (n; m), drawn evenly from the fitting ``_LEAVES`` and
    the projections BcProj(n, m, j), in that order; only it is built."""
    fixed = _LEAVES.get((n, m), ())
    k = rng.randrange(len(fixed) + n + m)
    if k < len(fixed):
        cls, fields = fixed[k]
        return cls(*fields)
    return BcProj(n, m, k - len(fixed) + 1)


def _gen(rng: random.Random, n: int, m: int, depth: int) -> BcTerm:
    if depth <= 0:
        return _initial(rng, n, m)
    roll = rng.random()
    if roll < 0.25 and n >= 1:
        base = _gen(rng, n - 1, m, depth - 1)
        step0 = _gen(rng, n, m + 1, depth - 1)
        step1 = _gen(rng, n, m + 1, depth - 1)
        return BcSafeRec(base, step0, step1)
    if roll < 0.60:
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        outer = _gen(rng, p, q, depth - 1)
        hs = tuple(_gen(rng, n, 0, depth - 1) for _ in range(p))
        ls = tuple(_gen(rng, n, m, depth - 1) for _ in range(q))
        return BcSafeComp(n, m, outer, hs, ls)
    return _initial(rng, n, m)


# -- s-expression format -----------------------------------------------------------

_SEXPR_TOKEN = re.compile(r"[()]|[^\s()]+")
# each spelling of an algebra constructor, by the name it stands for
_HEADS = {
    "zero": "zero", "0": "zero",
    "succ": "succ", "s": "succ",
    "proj": "proj", "pi": "proj",
    "pred": "pred", "p": "pred",
    "cond": "cond", "c": "cond",
    "rec": "rec", "saferec": "rec",
    "comp": "comp", "safecomp": "comp",
}


def parse_bc(text: str) -> BcTerm:
    """Read terms like ``(rec (proj 1 1 2) (comp (2 2) ...) ...)``; a ``;``
    starts a comment that runs to the end of its line."""
    toks = Tokens(_SEXPR_TOKEN, text, comment=";")
    try:
        out = run_stack(_sexpr(toks))
        if not toks.done():
            raise toks.error(f"trailing input {toks.peek()!r}")
        bc_arity(out)
    except SignatureError as exc:
        # a bad bit or index is reported where it is read, an arity clash at the end
        raise toks.error(str(exc)) from exc
    return out


def _sexpr(toks: Tokens):
    """One algebra term, read on ``run_stack``: each subterm is read by
    yielding a nested reader."""
    toks.expect("(")
    head = _HEADS.get(toks.peek())
    if head is None:
        raise toks.error(f"unknown algebra constructor {toks.peek()!r}")
    toks.next()
    if head == "zero":
        out = BcZero()
    elif head == "succ":
        out = BcSucc(_number(toks))
    elif head == "proj":
        out = BcProj(_number(toks), _number(toks), _number(toks))
    elif head == "pred":
        out = BcPred()
    elif head == "cond":
        out = BcCond()
    elif head == "rec":
        out = BcSafeRec((yield _sexpr(toks)), (yield _sexpr(toks)), (yield _sexpr(toks)))
    else:
        toks.expect("(")
        n, m = _number(toks), _number(toks)
        toks.expect(")")
        g = yield _sexpr(toks)
        inner: tuple = ([], [])
        for group in inner:
            toks.expect("(")
            while toks.peek() != ")":
                group.append((yield _sexpr(toks)))
            toks.next()
        out = BcSafeComp(n, m, g, tuple(inner[0]), tuple(inner[1]))
    toks.expect(")")
    return out


def _number(toks: Tokens) -> int:
    tok = toks.peek()
    if not tok.isdigit():
        raise toks.error(f"expected a number, got {tok!r}")
    toks.next()
    return int(tok)
