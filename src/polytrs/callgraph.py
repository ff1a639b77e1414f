"""States, transitions, call trees and call dags.

A state is a function symbol applied to values: the interned call term
``f(v1..vn)``, written ``<f, v1, .., vn>`` in reports.  The call tree of a
cbv proof keeps only the active judgements, one node per judgement object,
so a repeated call shares its subtree; the call dag of a memo proof
keeps the Update judgements and turns every Read leaf into a link to the
unique Update node with the same call.  Edges are labelled with the activated
equation and the rhs call-site occurrence they realise.  Both are written
as a table of their distinct nodes, each once, with edges by node number,
so a tree whose calls all differ is written as its unfolding is.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from .base import Budget, BudgetExceeded, DEFAULT_BUDGET, run_stack
from .semantics import (
    DerivationProof,
    Judgement,
    R_READ,
    derivable_value_set,
    pay,
)
from .terms import (
    App,
    Equation,
    Program,
    Var,
    apply_subst,
    format_term,
    matching_equations,
)

FOREST = "forest"
DAG = "dag"


def state_text(state: App) -> str:
    """A call state ``f(v1..vn)`` written ``<f, v1, .., vn>``."""
    args = ", ".join(format_term(a) for a in state.args)
    return f"<{state.symbol.name}, {args}>" if args else f"<{state.symbol.name}>"


class TransitionEdge(NamedTuple):
    target: App
    equation: Equation
    occurrence: int  # index among the function-headed subterm occurrences of the rhs


class CallNode:
    """A call node: identity equality, and a repr that names the state only."""

    __slots__ = _fields = ("state", "children", "read_links")

    def __init__(self, state: App):
        self.state = state
        self.children: list = []  # (TransitionEdge, CallNode)
        self.read_links: list = []  # (TransitionEdge, CallNode)

    def __repr__(self) -> str:
        return f"CallNode({state_text(self.state)})"


class CallStructure:
    """The call tree of a cbv proof (a FOREST) or the call dag of a memo
    proof (a DAG), with one node per distinct call: a repeated call of a
    tree shares its node, and a dag's Read is a link to its Update's node.
    Every count and output is over distinct nodes, each numbered once in
    ``nodes()`` order, with its callees by number; ``kind`` only labels
    the JSON."""

    __slots__ = _fields = ("kind", "roots")

    def __init__(self, kind: str, roots: list):
        self.kind = kind  # FOREST or DAG
        self.roots = roots

    def nodes(self) -> list[CallNode]:
        """Each distinct node once, in the pre-order of its first
        occurrence, child edges before read links."""
        seen: dict[CallNode, None] = {}
        todo = self.roots[::-1]
        while todo:
            n = todo.pop()
            if n not in seen:
                seen[n] = None
                todo.extend([c for _, c in reversed(n.read_links)])
                todo.extend([c for _, c in reversed(n.children)])
        return list(seen)

    def node_count(self) -> int:
        return len(self.nodes())

    def _numbered(self) -> Iterator[tuple[int, CallNode, list]]:
        """(number, node, [(edge, callee number, is read link)]) of each entry
        of ``nodes()``, numbered in that order."""
        node_list = self.nodes()
        ids = {n: i for i, n in enumerate(node_list)}
        for i, n in enumerate(node_list):
            yield i, n, [
                (e, ids[c], linked)
                for linked, group in ((False, n.children), (True, n.read_links))
                for e, c in group
            ]

    def to_dot(self) -> str:
        lines = ["digraph calls {"]
        edges = []
        for i, n, out in self._numbered():
            lines.append(f'  n{i} [label="{state_text(n.state)}"];')
            for e, j, linked in out:
                style = ", style=dashed" if linked else ""
                edges.append(
                    f'  n{i} -> n{j} [label="e{e.equation.index}.{e.occurrence}"{style}];'
                )
        lines.extend(edges)
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        nodes, edges = [], []
        for i, n, out in self._numbered():
            nodes.append(state_text(n.state))
            edges.extend(
                {
                    "from": i,
                    "to": j,
                    "equation": e.equation.index,
                    "occurrence": e.occurrence,
                    "read_link": linked,
                }
                for e, j, linked in out
            )
        return {"kind": self.kind, "nodes": nodes, "edges": edges}


def _topmost_calls(j: Judgement) -> list[tuple[tuple, Judgement]]:
    """(position in j.lhs, judgement) of each call judgement reached from j
    through passive ones, in evaluation order.  A Constructor's or Split's
    premises sit at its argument positions, a Split's last one at its own."""
    out: list = []

    def go(u: Judgement, pos: tuple):
        if not u.is_passive:
            out.append((pos, u))
        elif not u.lhs.is_value:  # a value's Constructor premises hold no call
            for i, c in enumerate(u.children):
                yield go(c, pos + (i,) if i < len(u.lhs.args) else pos)

    run_stack(go(j, ()))
    return out


def _call_structure(proof: DerivationProof, kind: str) -> CallStructure:
    """One node per call judgement object but Read; a Read becomes a link to
    the node of the Update that installed its entry.  A judgement that
    occurs more than once, the repeated call of a cbv proof, keeps its one
    node, so its edges are found once and its subtree is shared."""
    built: dict[Judgement, CallNode] = {}
    by_lhs: dict[App, CallNode] = {}

    def build(j: Judgement):
        node = built[j] = by_lhs[j.lhs] = CallNode(j.lhs)
        calls = j.equation.calls
        for pos, call in _topmost_calls(j.activation):
            edge = TransitionEdge(call.lhs, j.equation, calls[pos][0])
            if call.rule == R_READ:
                node.read_links.append((edge, by_lhs[call.lhs]))
            else:
                child = built.get(call)
                if child is None:
                    child = yield build(call)
                node.children.append((edge, child))
        return node

    # a repeated root-level call resolves inside the dag
    roots = [
        built.get(j) or run_stack(build(j))
        for _, j in _topmost_calls(proof.root)
        if j.rule != R_READ
    ]
    return CallStructure(kind, roots)


def call_tree(proof: DerivationProof) -> CallStructure:
    """Forest of the active judgements of a cbv proof, one node each."""
    if proof.mode != "cbv":
        raise ValueError("call trees are built from cbv proofs")
    return _call_structure(proof, FOREST)


def call_dag(proof: DerivationProof) -> CallStructure:
    """Dag of Update judgements of a memo proof; Read leaves become links."""
    if proof.mode != "memo":
        raise ValueError("call dags are built from memo proofs")
    return _call_structure(proof, DAG)


def successors(
    program: Program,
    state: App,
    budget: Budget = DEFAULT_BUDGET,
    store: Optional[dict] = None,
    paid: Optional[set] = None,
    charged: Optional[list] = None,
) -> list[TransitionEdge]:
    """All transitions realizable from a state.

    For every matching equation and every function-headed subterm of its
    rhs, the subterm's arguments are evaluated exhaustively (set semantics);
    each derivable argument tuple yields one edge, argument values in the
    order the outcome table derives them.  An argument that instantiates to
    a value, a variable bound by the matcher included, is its own value
    set: its outcome table ``{v: (size, 1)}`` is never stored, entered or
    charged, so it is read in place.  Each non-value argument is read
    through the program's outcome ``store`` and charged to the walk's
    ``paid`` set (see ``outcome_table``); without them the call uses fresh
    ones.  When ``charged`` is given, each non-value argument is appended
    to it in the order its outcome call is charged.
    """
    out = []
    store = {} if store is None else store
    paid = set() if paid is None else paid
    for eq, sigma in matching_equations(program, state):
        for occ, sub in eq.calls.values():
            arg_sets = []
            for a in sub.args:
                if a.__class__ is Var:
                    arg_sets.append((sigma[a.name],))
                    continue
                a = apply_subst(a, sigma)
                if a.is_value:
                    arg_sets.append((a,))
                    continue
                if charged is not None:
                    charged.append(a)
                arg_sets.append(
                    derivable_value_set(program, a, store, paid, budget.max_rules)
                )
            for combo in itertools.product(*arg_sets):
                out.append(TransitionEdge(App(sub.symbol, combo), eq, occ))
    return out


def reachable_states(
    program: Program,
    initial: App,
    budget: Budget = DEFAULT_BUDGET,
    successor_map: Optional[dict] = None,
    store: Optional[dict] = None,
) -> set[App]:
    """States reachable through transitions; equals the states appearing in
    call trees rooted at the initial state.

    ``successor_map`` maps each state expanded so far on this program to
    its edges and the non-value arguments its expansion charged, so walks
    that share it expand each state once between them.  A state found there
    is not expanded again, and each expansion made here is added to it.
    Only expansions that returned are stored: one that raised
    ``BudgetExceeded`` or ``CycleDetected`` is tried again by the next walk
    that reaches the state.  ``store`` is the program's outcome store,
    which walks that share the map share too.  The ``max_rules`` state cap
    and the set of outcome states paid for belong to this walk alone: a
    state found in the map charges its arguments' outcome states again, in
    order, each argument under the ``max_rules`` cap of one outcome call.
    So each walk is charged what it would be charged on its own.
    """
    shared: dict = {} if successor_map is None else successor_map
    store = {} if store is None else store
    paid: set = set()
    seen = {initial}
    frontier = [initial]
    while frontier:
        if len(seen) > budget.max_rules:
            raise BudgetExceeded("state space exceeds the budget")
        eta = frontier.pop()
        entry = shared.get(eta)
        if entry is None:
            charged: list = []
            edges = successors(program, eta, budget, store, paid, charged)
            entry = shared[eta] = (edges, charged)
        else:
            for a in entry[1]:
                if pay(store, paid, a) > budget.max_rules:
                    raise BudgetExceeded("state budget exceeded in outcome evaluation")
        for edge in entry[0]:
            if edge.target not in seen:
                seen.add(edge.target)
                frontier.append(edge.target)
    return seen

