"""Reference constructions that only the tests use.

The denotation of the safe-recursion algebra on bit tuples, independent of
the rewrite machinery, and its word encoding; the algebra's s-expression
printer; the blind image of a proof; a reader of the proof table that the
CLI writes, and the occurrence-numbered unfolding of a call-tree table;
the compositions of an input size; the structure of a judgement, for
golden-tree comparisons; the rational weight of a value; ``term_qi`` folded
over a ``postorder``; the paper's meet of two assignments; a substitution
that rebuilds every node; the reading of a packed monomial as its exponent
tuple; and the route by which ``compile_bc`` once built its assignment, as
``substitute`` trees normalised by ``simplify``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from polytrs.base import QiError, SignatureError, postorder
from polytrs.bc import (
    S0,
    S1,
    ZERO,
    BcCond,
    BcPred,
    BcProj,
    BcSafeComp,
    BcSafeRec,
    BcSucc,
    BcTerm,
    BcCompilation,
    BcZero,
)
from polytrs.blind import BlindProgram, _blind_images
from polytrs.qi import (
    BRANCH_CAP,
    EXPONENT_CAP,
    _WIDTH,
    Arg,
    Const,
    Max,
    Min,
    Posy,
    Prod,
    QiAssignment,
    QiExpr,
    Sum,
    _distinct_maxes,
    enter_form,
    eval_expr,
    max_posy_form,
    substitute,
)
from polytrs.parser import parse_term
from polytrs.semantics import DerivationProof, Judgement, classify
from polytrs.terms import App, Program, Term, Var, format_term

# -- the safe-recursion algebra ----------------------------------------------------


def bc_eval(b: BcTerm, normals: tuple, safes: tuple) -> tuple:
    """Direct denotation on bit tuples; leftmost bit is outermost."""
    if isinstance(b, BcZero):
        return ()
    if isinstance(b, BcSucc):
        return (b.bit,) + safes[0]
    if isinstance(b, BcProj):
        args = normals + safes
        return args[b.index - 1]
    if isinstance(b, BcPred):
        return safes[0][1:]
    if isinstance(b, BcCond):
        w, y, z = safes
        if not w or w[0] == 0:
            return y
        return z
    if isinstance(b, BcSafeRec):
        z, rest = normals[0], normals[1:]
        if not z:
            return bc_eval(b.base, rest, safes)
        step = b.step0 if z[0] == 0 else b.step1
        prev = bc_eval(b, (z[1:],) + rest, safes)
        return bc_eval(step, (z[1:],) + rest, safes + (prev,))
    if isinstance(b, BcSafeComp):
        hs = tuple(bc_eval(h, normals, ()) for h in b.normal_inner)
        ls = tuple(bc_eval(l, normals, safes) for l in b.safe_inner)
        return bc_eval(b.outer, hs, ls)
    raise SignatureError(f"unknown algebra term {b!r}")


def word_to_bits(v: Term) -> tuple:
    bits = []
    while isinstance(v, App) and v.symbol.arity == 1:
        bits.append(0 if v.symbol.name == "s0" else 1)
        v = v.args[0]
    return tuple(bits)


def bits_to_word(bits: tuple) -> Term:
    out: Term = App(ZERO)
    for b in reversed(bits):
        out = App(S0 if b == 0 else S1, (out,))
    return out


def format_bc(b: BcTerm) -> str:
    if isinstance(b, BcZero):
        return "(zero)"
    if isinstance(b, BcSucc):
        return f"(succ {b.bit})"
    if isinstance(b, BcProj):
        return f"(proj {b.normals} {b.safes} {b.index})"
    if isinstance(b, BcPred):
        return "(pred)"
    if isinstance(b, BcCond):
        return "(cond)"
    if isinstance(b, BcSafeRec):
        return f"(rec {format_bc(b.base)} {format_bc(b.step0)} {format_bc(b.step1)})"
    if isinstance(b, BcSafeComp):
        hs = " ".join(format_bc(h) for h in b.normal_inner)
        ls = " ".join(format_bc(l) for l in b.safe_inner)
        return f"(comp ({b.normals} {b.safes}) {format_bc(b.outer)} ({hs}) ({ls}))"
    raise SignatureError(f"unknown algebra term {b!r}")


# -- proofs ------------------------------------------------------------------------


def blind_proof(blind: BlindProgram, proof: DerivationProof) -> DerivationProof:
    """Map a cbv proof through the blinding; rule counts are preserved, and
    a judgement with premises that the proof shares maps to one shared
    image."""
    eq_by_index = {eq.index: eq for eq in blind.program.equations}
    order = postorder([proof.root], "children")
    image = _blind_images([t for j in order for t in (j.lhs, j.result)], blind.provenance)
    mapped: dict = {}  # judgement -> its image
    for j in order:
        mapped[j] = Judgement(
            j.rule,
            image[j.lhs],
            image[j.result],
            tuple([mapped[c] for c in j.children]),
            eq_by_index[j.equation.index] if j.equation is not None else None,
        )
    root = mapped[proof.root]
    return DerivationProof(root, proof.mode, classify(root), ())


def proof_from_json(program: Program, data: dict) -> DerivationProof:
    """The proof that ``proof_to_json`` wrote, rebuilt in one bottom-up loop
    over its node table: premises are listed first, so each judgement is
    built from built ones, and a judgement listed once is one object.  A
    Read is a plain leaf."""
    symbols = {s.name: s for s in program.signature}
    terms: dict = {}  # text -> term

    def term(text: str) -> Term:
        if text not in terms:
            terms[text] = parse_term(text, symbols)
        return terms[text]

    built: list = []
    for node in data["nodes"]:
        eq = node.get("equation")
        built.append(
            Judgement(
                node["rule"],
                term(node["lhs"]),
                term(node["result"]),
                tuple([built[i] for i in node["children"]]),
                None if eq is None else program.equations[eq],
            )
        )
    trace = tuple(
        (App(symbols[e["function"]], tuple([term(a) for a in e["args"]])), term(e["value"]))
        for e in data["cache_trace"]
    )
    root = built[data["root"]]
    return DerivationProof(root, data["mode"], classify(root), trace)


def unfold_call_tree(data: dict, roots: list) -> dict:
    """The JSON of the unfolding of a call tree's node table, one node per
    occurrence, numbered in pre-order: a child's number is its parent's
    + 1 + the occurrences under its earlier siblings.  ``roots`` are the
    table numbers of the roots, in order; the table does not list them,
    and a repeated root-level call is one node in it."""
    out: list = [[] for _ in data["nodes"]]
    for e in data["edges"]:
        out[e["from"]].append(e)
    sizes: dict = {}  # table number -> occurrences in its unfolded subtree
    todo = list(range(len(out)))
    while todo:
        i = todo[-1]
        pending = [e["to"] for e in out[i] if e["to"] not in sizes]
        if pending:
            todo += pending
        else:
            todo.pop()
            sizes[i] = 1 + sum(sizes[e["to"]] for e in out[i])
    todo = []
    number = 0
    for r in roots:
        todo.append((r, number))
        number += sizes[r]
    todo.reverse()
    nodes, edges = [], []
    while todo:
        i, k = todo.pop()
        nodes.append(data["nodes"][i])
        number = k + 1
        kids = []
        for e in out[i]:
            edges.append({**e, "from": k, "to": number})
            kids.append((e["to"], number))
            number += sizes[e["to"]]
        todo.extend(reversed(kids))
    return {"kind": data["kind"], "nodes": nodes, "edges": edges}


def filtered_compositions(n: int, k: int) -> list[tuple]:
    """The compositions of n into k parts >= 0, in lexicographic order: the
    k-tuples over 0..n that sum to n, filtered from all (n + 1)^k."""
    return [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]


def shape(judgement: Judgement) -> tuple:
    """Structure used for golden-tree comparisons."""
    shapes: dict = {}
    for j in postorder([judgement], "children"):
        shapes[j] = out = (
            j.rule,
            format_term(j.lhs),
            format_term(j.result),
            tuple([shapes[c] for c in j.children]),
        )
    return out


# -- quasi-interpretations ---------------------------------------------------------


def value_qi(assignment: QiAssignment, value: Term) -> Fraction:
    """Rational weight of a ground constructor term, the value of its
    ``term_qi``, folded over its ``postorder``, so no recursion limit bounds
    the depth of the value."""
    weight: dict = {}
    for t in postorder([value], "args"):
        if type(t) is Var:
            raise QiError(f"value_qi needs a ground term, not variable {t.name}")
        entry = assignment.entry(t.symbol.name)
        weight[id(t)] = out = eval_expr(entry, [weight[id(a)] for a in t.args])
    return out


def reference_term_expr(assignment: QiAssignment, args: dict, t: Term) -> QiExpr:
    """``term_qi`` of t over the variable order ``args`` (name -> Arg),
    folded over the ``postorder`` of t: each application after everything
    below it, its entry looked up before its variable arguments are read."""
    exprs: dict = {}  # id of an application -> its expression
    for u in postorder([t], "args"):
        if type(u) is Var:
            continue
        entry = assignment.entries.get(u.symbol.name)
        if entry is None:
            raise QiError(f"no assignment entry for symbol {u.symbol.name}")
        items = []
        for a in u.args:
            if type(a) is not Var:
                items.append(exprs[id(a)])
            elif a.name in args:
                items.append(args[a.name])
            else:
                raise QiError(f"variable {a.name} not in the variable order")
        exprs[id(u)] = substitute(entry, items)
    if type(t) is not Var:
        return exprs[id(t)]
    if t.name not in args:
        raise QiError(f"variable {t.name} not in the variable order")
    return args[t.name]


def reference_substitute(e: QiExpr, args: list) -> QiExpr:
    """Replace Arg i by args[i], rebuilding every distinct compound node of
    e once, whether or not an argument below it moves."""
    new: dict = {}
    for u in postorder([e], "items"):
        kind = type(u)
        if kind is Arg:
            out = args[u.index]
        elif kind is Const:
            out = u
        else:
            out = kind(tuple([new[id(i)] for i in u.items]))
        new[id(u)] = out
    return out


def meet(a1: QiAssignment, a2: QiAssignment, program: Program) -> QiAssignment:
    """Pointwise greatest lower bound of two compatible assignments."""
    for c in program.constructors:
        if a1.entries.get(c.name) != a2.entries.get(c.name):
            raise QiError(
                f"incompatible assignments: constructor {c.name} entries differ"
            )
    entries = {}
    for name, e1 in a1.entries.items():
        sym = next(s for s in program.signature if s.name == name)
        if sym.is_constructor:
            entries[name] = e1
        elif name in a2.entries:
            e2 = a2.entries[name]
            entries[name] = e1 if e1 == e2 else Min((e1, e2))
    return QiAssignment(entries)


def decode_posy(p: Posy, arity: int) -> dict:
    """A posynomial of the package with each monomial, one int, read as its
    tuple of exponents, argument 0 first: field by field from the lowest,
    each below EXPONENT_CAP and nothing past the last argument."""
    out = {}
    for mono, c in p.items():
        exponents = []
        for _ in range(arity):
            mono, e = divmod(mono, 1 << _WIDTH)
            assert e <= EXPONENT_CAP
            exponents.append(e)
        assert mono == 0, "a monomial wider than its arity"
        out[tuple(reversed(exponents))] = c
    assert len(out) == len(p)
    return out


def decode_form(form: Optional[list], arity: int) -> Optional[list]:
    """A normal form, or None, with each branch read by ``decode_posy``."""
    return None if form is None else [decode_posy(p, arity) for p in form]


def _posy_key(p: dict) -> list:
    """The branch order of an entered form: ascending sorted items."""
    return sorted(p.items())


def _expr_of(p: dict) -> QiExpr:
    """The sum of the monomials of a tuple-keyed posynomial in ascending
    order, each its coefficient, unless that is 1 on a non-constant
    monomial, times each argument as often as its exponent."""
    terms = []
    for mono, coeff in sorted(p.items()):
        factors: list = [Const(coeff)] if coeff != 1 or not any(mono) else []
        for i, e in enumerate(mono):
            factors.extend([Arg(i)] * e)
        terms.append(factors[0] if len(factors) == 1 else Prod(tuple(factors)))
    return Const(0) if not terms else terms[0] if len(terms) == 1 else Sum(tuple(terms))


def simplify(e: QiExpr, arity: int, memo: Optional[dict] = None, limit: int = 512) -> QiExpr:
    """Canonical pruned max-of-posynomials form when one exists within
    ``limit`` branch combinations.

    Substitution-heavy constructions (compiled recurrences in particular)
    produce towers of shared subterms; renormalizing keeps them flat.
    ``memo`` is the normal-form memo of max_posy_form; the result's own form
    is e's in the result's branch order, and it is entered there too.
    """
    if e.has_min or math.prod(max(1, len(m.items)) for m in _distinct_maxes(e)) > limit:
        return e
    if memo is None:
        memo = {}
    branches = [(decode_posy(p, arity), p) for p in max_posy_form(e, arity, memo)]
    branches.sort(key=lambda branch: _posy_key(branch[0]))
    return enter_form([p for _, p in branches], [_expr_of(d) for d, _ in branches], arity, memo)


def reference_compile_entries(comp: BcCompilation) -> dict:
    """The entry of each compiled function symbol, built as ``compile_bc``
    once built it: each q part a ``substitute`` tree over the q parts of
    the symbols its equations call, normalised by ``simplify``, and the
    entry ``simplify(q + max(safe arguments))``.  Which symbols a symbol
    calls is read off its equations, in the order ``compile_bc`` emits
    them."""
    memo: dict = {}
    q_parts: dict = {}
    entries: dict = {}
    for f in comp.program.functions:
        n, m = comp.boundaries[f.name]
        kind = comp.provenance[f.name]
        eqs = [eq for eq in comp.program.equations if eq.lhs_function == f]
        normals = [Arg(i) for i in range(n)]
        if kind.startswith("projection"):
            q_parts[f.name] = Sum(tuple(normals)) if n else Const(0)
            entries[f.name] = Max(tuple(Arg(i) for i in range(n + m)))
            continue
        if kind == "constant 0" or kind.startswith("successor"):
            q = Const(1)
        elif kind in ("predecessor", "conditional"):
            q = Const(0)
        elif kind == "safe recursion":
            g, h0, h1 = (eq.rhs.symbol.name for eq in eqs)
            q_g = substitute(q_parts[g], normals[1:])
            q_h0 = substitute(q_parts[h0], normals)
            q_h1 = substitute(q_parts[h1], normals)
            base_q = Sum((Prod((normals[0], Sum((q_h0, q_h1)))), q_g))
            q = Sum(tuple([base_q] + normals))
        else:
            rhs = eqs[0].rhs
            p = comp.boundaries[rhs.symbol.name][0]
            hs = [a.symbol.name for a in rhs.args[:p]]
            ls = [a.symbol.name for a in rhs.args[p:]]
            q_hs = [substitute(q_parts[h], normals) for h in hs]
            q_g = substitute(q_parts[rhs.symbol.name], q_hs)
            q_ls = [substitute(q_parts[l], normals) for l in ls]
            q = Sum(tuple([q_g] + q_ls + normals))
        q = q_parts[f.name] = simplify(q, n, memo, BRANCH_CAP)
        entry = q if m == 0 else Sum((q, Max(tuple(Arg(n + i) for i in range(m)))))
        entries[f.name] = simplify(entry, n + m, memo, BRANCH_CAP)
    return entries
