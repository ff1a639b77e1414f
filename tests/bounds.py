"""The paper's lemma bounds, each as a concrete number to check against.

The polynomial bound is built from lemmas: the rank recurrence over
precedence classes, same-class descendant counts, path commutation,
maximal dependences, and the active-size and derivation-size bounds that a
quasi-interpretation gives under the P-criterion.  Each function here
instantiates one of them on a program, a proof or a call structure.  They
state what the paper proves rather than decide a verdict, so they live
beside the tests that check them, with the small readers of programs,
precedences and call structures that only they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from polytrs.base import PrecedenceError, QiError, run_stack
from polytrs.callgraph import (
    DAG,
    FOREST,
    CallNode,
    CallStructure,
    TransitionEdge,
    state_text,
)
from polytrs.ordering import EQUIV, LESS, Precedence
from polytrs.qi import QiAssignment, additive_shape, eval_expr
from polytrs.semantics import DerivationProof, Judgement, _dependence_walk
from polytrs.terms import App, Program, Symbol, Term, term_size
from polytrs.wordnorm import same_class_calls

# -- readers of programs, precedences and call structures ----------------------


def max_arity(program: Program) -> int:
    return max((s.arity for s in program.signature), default=0)


def is_compatible(precedence: Precedence, program: Program) -> bool:
    """Every call in an rhs is weakly below the function it defines."""
    return all(
        precedence.compare_symbols(u.symbol, eq.lhs_function) in (LESS, EQUIV)
        for eq in program.equations
        for _, u in eq.calls.values()
    )


def successors_of(node: CallNode) -> list[tuple[TransitionEdge, CallNode]]:
    """A node's callees: its child edges, then its read links."""
    return list(node.children) + list(node.read_links)


def max_children(structure: CallStructure) -> int:
    return max((len(n.children) for n in structure.nodes()), default=0)


def subtree_sizes(structure: CallStructure) -> dict[CallNode, int]:
    """Each distinct node, with the node occurrences of its unfolded
    subtree over child edges, itself included; one bottom-up pass, which
    enters each node after all its children."""
    sizes: dict[CallNode, int] = {}
    todo = list(structure.roots)
    while todo:
        n = todo[-1]
        if n in sizes:
            todo.pop()
            continue
        pending = [c for _, c in n.children if c not in sizes]
        if pending:
            todo.extend(pending)
        else:
            todo.pop()
            sizes[n] = 1 + sum(sizes[c] for _, c in n.children)
    return sizes


def occurrence_counts(structure: CallStructure) -> dict[CallNode, int]:
    """Each distinct node, with its occurrences in the unfolding over child
    edges: once per time it is a root, plus its parents' occurrences once
    per edge.  ``subtree_sizes`` enters a node after its children, so its
    reverse meets a node after all its parents.  In a dag every node
    occurs once: an Update is one judgement, and read links are no child
    edges."""
    counts = dict.fromkeys(reversed(subtree_sizes(structure)), 0)
    for r in structure.roots:
        counts[r] += 1
    for n, m in counts.items():
        for _, c in n.children:
            counts[c] += m
    return counts


# -- maximal dependences ----------------------------------------------------------


@dataclass(frozen=True)
class Dependence:
    root: Judgement
    judgements: tuple

    @property
    def size(self) -> int:
        return len(self.judgements)

    @property
    def depth(self) -> int:
        return run_stack(_dependence_walk(self.root, []))


def max_dependence(proof: DerivationProof, judgement: Judgement) -> Dependence:
    """Largest passive-only subderivation rooted at a passive judgement."""
    if not judgement.is_passive:
        raise ValueError("dependences are rooted at passive judgements")
    if not any(j is judgement for j in proof.root.distinct()):
        raise ValueError("judgement does not occur in the proof")
    collected: list[Judgement] = []
    run_stack(_dependence_walk(judgement, collected))
    return Dependence(judgement, tuple(collected))


# -- rank statistics ----------------------------------------------------------


def call_tree_arity(program: Program) -> int:
    """Bound on the number of children of any call-structure node.

    Every function-headed occurrence of an rhs spawns exactly one call
    judgement under the activation, nested calls included, so the constant
    counts occurrences rather than maximal subterms.
    """
    return max((len(eq.calls) for eq in program.equations), default=0)


@dataclass(frozen=True)
class ClassRankStats:
    class_symbols: tuple
    node_count: int
    max_same_class_descendants: int


@dataclass(frozen=True)
class RankReport:
    per_class: tuple
    bound: int
    holds: bool


def function_ranks(program: Program, precedence: Precedence) -> dict:
    """rank(f) = 1 + max rank of strictly smaller function classes."""
    classes: dict[int, list[Symbol]] = {}
    for f in program.functions:
        classes.setdefault(precedence.class_of(f.name), []).append(f)
    memo: dict[int, int] = {}

    def rank(cid: int) -> int:
        if cid in memo:
            return memo[cid]
        smaller = [o for o in classes if o != cid and (o, cid) in precedence.below]
        memo[cid] = 1 + max((rank(o) for o in smaller), default=0)
        return memo[cid]

    return {cid: rank(cid) for cid in classes}


def same_class_descendant_counts(structure: CallStructure, precedence: Precedence) -> dict:
    """Per distinct node: number of descendant node occurrences in the same
    class.

    A forest counts occurrences in its unfolding, one bottom-up sum per
    (node, class), so a shared node is counted wherever it occurs.  In a
    dag, distinct nodes are distinct states, so occurrence counting and
    state counting coincide.
    """
    counts: dict[CallNode, int] = {}
    if structure.kind == FOREST:
        below: dict = {}  # (node, class) -> same-class occurrences under node
        for node in structure.nodes():
            cls = precedence.class_of(node.state.symbol.name)
            counts[node] = run_stack(_forest_count(node, cls, precedence, below))
        return counts

    def descend(node: CallNode, cls: int, seen: set):
        total = 0
        for _, c in successors_of(node):
            if c in seen:
                continue
            seen.add(c)
            here = 1 if precedence.class_of(c.state.symbol.name) == cls else 0
            total += here + (yield descend(c, cls, seen))
        return total

    for node in structure.nodes():
        cls = precedence.class_of(node.state.symbol.name)
        counts[node] = run_stack(descend(node, cls, set()))
    return counts


def _forest_count(node: CallNode, cls: int, precedence: Precedence, below: dict):
    key = (node, cls)
    if key not in below:
        total = 0
        for _, c in node.children:
            here = precedence.class_of(c.state.symbol.name) == cls
            total += here + (yield _forest_count(c, cls, precedence, below))
        below[key] = total
    return below[key]


def rank_recurrence_bound(program: Program, k: int, a: int, min_d: int = 0) -> int:
    """Sum over 1 <= i <= k of B_i = sum_{i<=j<=k} d^(k-j) * (a+1)^(k-j+1).

    d is the call-tree arity (the most function occurrences in any rhs),
    raised to at least ``min_d``.
    """
    d = max(min_d, call_tree_arity(program))
    return sum(
        d ** (k - j) * (a + 1) ** (k - j + 1)
        for i in range(1, k + 1)
        for j in range(i, k + 1)
    )


def rank_stats(structure: CallStructure, precedence: Precedence, program: Program) -> RankReport:
    """Per-class counting and the rank-recurrence size bound.

    The bound instantiates ``rank_recurrence_bound`` with A the largest
    same-class descendant count, d at least 1 and k the maximum rank; the +1
    absorbs the node itself alongside its descendants.  Node counts are
    occurrences: each distinct node is weighted by ``occurrence_counts``.
    """
    if not is_compatible(precedence, program):
        raise PrecedenceError("rank statistics need a compatible precedence")
    ranks = function_ranks(program, precedence)
    counts = same_class_descendant_counts(structure, precedence)
    weights = occurrence_counts(structure)
    a_max = max(counts.values(), default=0)
    k = max(ranks.values(), default=0)

    per_class = []
    for cid in sorted(ranks):
        members = tuple(sorted(s.name for s in program.functions if precedence.class_of(s.name) == cid))
        cls_nodes = [n for n in weights if precedence.class_of(n.state.symbol.name) == cid]
        per_class.append(
            ClassRankStats(
                members,
                sum(weights[n] for n in cls_nodes),
                max((counts[n] for n in cls_nodes), default=0),
            )
        )
    bound = rank_recurrence_bound(program, k, a_max, min_d=1)
    bound *= max(1, len(structure.roots))
    return RankReport(tuple(per_class), bound, sum(weights.values()) <= bound)


def check_edge_class_descent(structure: CallStructure, precedence: Precedence) -> None:
    """Along every edge the child's class is weakly below the parent's."""
    for n in structure.nodes():
        for e, c in successors_of(n):
            rel = precedence.compare_symbols(c.state.symbol, n.state.symbol)
            if rel not in (LESS, EQUIV):
                raise ValueError(
                    f"edge {state_text(n.state)} -> {state_text(c.state)} "
                    "climbs the precedence"
                )


def ppo_descendant_bound(structure: CallStructure, precedence: Precedence) -> list[dict]:
    """Per-node check of the PPO same-class dag bound c * prod(|v_i| + 1),
    one row per distinct node, with the node's occurrences."""
    counts = same_class_descendant_counts(structure, precedence)
    weights = occurrence_counts(structure)
    out = []
    for n in structure.nodes():
        cid = precedence.class_of(n.state.symbol.name)
        bound = max(1, sum(
            s.is_function and precedence.class_ids[s.name] == cid for s in precedence.signature
        ))
        for v in n.state.args:
            bound *= term_size(v) + 1
        out.append(
            {
                "state": state_text(n.state),
                "descendants": counts[n],
                "bound": bound,
                "holds": counts[n] <= bound,
                "occurrences": weights[n],
            }
        )
    return out


# -- path words over the call dag ----------------------------------------------


@dataclass(frozen=True)
class PathLabel:
    """One occurrence in the global enumeration of same-class call sites."""

    index: int
    equation_index: int
    occurrence: int
    callee: str

    def __repr__(self) -> str:
        return f"{self.callee}^{self.index}"


def call_site_labels(program: Program, precedence: Precedence) -> dict:
    """(equation index, rhs occurrence) -> PathLabel for same-class sites."""
    labels = {}
    for i, call in enumerate(same_class_calls(program, precedence)):
        labels[(call.equation.index, call.occurrence)] = PathLabel(
            i + 1, call.equation.index, call.occurrence, call.callee.name
        )
    return labels


def same_class_paths(
    dag: CallStructure,
    start: CallNode,
    labels: dict,
    precedence: Precedence,
    max_length: int = 6,
) -> list[tuple[tuple, CallNode]]:
    """All same-class label paths from a node, up to a length cap."""
    cls = precedence.class_of(start.state.symbol.name)
    out: list[tuple[tuple, CallNode]] = []

    def go(node: CallNode, word: tuple) -> None:
        if len(word) >= max_length:
            return
        for edge, child in successors_of(node):
            if precedence.class_of(child.state.symbol.name) != cls:
                continue
            lab = labels.get((edge.equation.index, edge.occurrence))
            if lab is None:
                continue
            out.append((word + (lab,), child))
            go(child, word + (lab,))

    go(start, ())
    return out


def path_word(
    dag: CallStructure,
    ancestor: App,
    descendant: App,
    program: Program,
    precedence: Precedence,
) -> list[PathLabel]:
    """The label sequence of a same-class path between two dag states."""
    labels = call_site_labels(program, precedence)
    start = next((n for n in dag.nodes() if n.state == ancestor), None)
    if start is None:
        raise ValueError(f"{state_text(ancestor)} does not occur in the dag")
    for word, node in same_class_paths(dag, start, labels, precedence, max_length=12):
        if node.state == descendant:
            return list(word)
    raise ValueError(
        f"no same-class path from {state_text(ancestor)} to {state_text(descendant)}"
    )


@dataclass(frozen=True)
class DescendantBound:
    state: App
    count: int
    bound: int
    holds: bool
    branch_holds: bool


def same_class_descendant_bound(
    dag: CallStructure, node: CallNode, precedence: Precedence, program: Program
) -> DescendantBound:
    """Distinct same-class descendants against (I+1)^M, branches against I.

    M is the size of the path-label alphabet of the node's class: the number
    of enumerated same-class call sites.  Counting class members instead is
    too small; a two-site single-function descent already beats it.
    """
    if dag.kind != DAG:
        raise ValueError("the descendant bound is a call-dag statement")
    cls = precedence.class_of(node.state.symbol.name)
    calls = same_class_calls(program, precedence)
    m = max(1, sum(precedence.class_of(c.equation.lhs_function.name) == cls for c in calls))
    n = node.state.symbol.arity
    i_cap = n * max((term_size(v) for v in node.state.args), default=0)
    seen: set = set()

    def go(cur: CallNode, depth: int):
        """The greatest depth at which the walk from cur first meets a node."""
        longest = depth
        for _, child in successors_of(cur):
            if precedence.class_of(child.state.symbol.name) != cls:
                continue
            if child.state in seen:
                continue
            seen.add(child.state)
            longest = max(longest, (yield go(child, depth + 1)))
        return longest

    longest = run_stack(go(node, 0))
    bound = (i_cap + 1) ** m
    return DescendantBound(
        node.state, len(seen), bound, len(seen) <= bound, longest <= i_cap
    )


# -- active sizes and derivation sizes ------------------------------------------


def max_constructor_constant(assignment: QiAssignment, program: Program) -> Fraction:
    """The constant a with |v| <= floor(v) <= a * |v| on values."""
    out = Fraction(1)
    for c in program.constructors:
        if c.name in assignment.entries:
            a = additive_shape(assignment.entry(c.name), c.arity)
            if a is None:
                raise QiError(f"constructor {c.name} is not additively assigned")
            out = max(out, a)
    return out


def _active_size_cap(
    assignment: QiAssignment, program: Program, name: str, sizes: list
) -> Fraction:
    """1 + k * floor(name)(a * sizes), where k is the largest arity."""
    a = max_constructor_constant(assignment, program)
    point = [a * size for size in sizes]
    k = max(1, max_arity(program))
    return 1 + k * eval_expr(assignment.entry(name), point)


def active_size_bound(
    assignment: QiAssignment, program: Program, call: Term
) -> Fraction:
    """Bound on the size of any active term in derivations of a call f(v..).

    Instantiates |s| <= 1 + k * floor(call) with floor(v_i) <= a|v_i|.
    """
    sizes = [term_size(v) for v in call.args]
    return _active_size_cap(assignment, program, call.symbol.name, sizes)


def activation_growth(program: Program) -> int:
    """Max rhs size over all equations: the linear-growth constant c such
    that any activation of an active term t has size <= c * |t|."""
    return max((term_size(eq.rhs) for eq in program.equations), default=1)


def _derivation_size(activations: int, growth: int, active_size: int) -> int:
    """Q(A, S) = (A + 1) * (G * (S + 1) + 1): each of A activations, and the
    root term, roots a dependence of at most G * (S + 1) + 1 judgements."""
    return (activations + 1) * (growth * (active_size + 1) + 1)


def assembled_rule_bound(program: Program, proof: DerivationProof) -> int:
    """Concrete instance of the derivation-size polynomial Q(A, S).

    Every passive judgement sits in the dependence of some activation (or of
    the root term), each bounded by the activation size G*(S+1); Read leaves
    add at most an arity factor.
    """
    stats = proof.stats
    g = activation_growth(program)
    s = max(stats.max_active_size, 1)
    a = stats.active_occurrences
    k = max(max_arity(program), 1)
    base = _derivation_size(a, g, s) + term_size(proof.root.lhs)
    if proof.mode == "memo":
        return (k + 1) * base
    return base


def strong_poly_bound(
    program: Program, assignment: QiAssignment, precedence: Precedence, n: int
) -> int:
    """Concrete per-size derivation bound for strict-order, valid-QI,
    linear programs: rank recurrence x per-rank descendant cap x activation
    growth, with the QI bounding active sizes."""
    main = program.main
    arity = max(1, main.arity)
    s_cap = _active_size_cap(assignment, program, main.name, [n + 1] * main.arity)
    s_cap = int(math.ceil(s_cap))
    a_cap = n + arity  # same-class descendants per node: linearity + descent
    ranks = function_ranks(program, precedence)
    k = max(ranks.values(), default=1)
    total_nodes = rank_recurrence_bound(program, k, a_cap)
    g = activation_growth(program)
    return _derivation_size(total_nodes, g, s_cap) + n + arity + 1
