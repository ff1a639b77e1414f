"""States, transitions, call trees and call dags.

A state is a function symbol applied to values: the interned call term
``f(v1..vn)``, written ``<f, v1, .., vn>`` in reports.  The call tree of a
cbv proof keeps only the active judgements; the call dag of a memo proof
keeps the Update judgements and turns every Read leaf into a link to the
unique Update node with the same call.  Edges are labelled with the activated
equation and the rhs call-site occurrence they realise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

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
    apply_subst,
    format_term,
    is_value,
    matching_equations,
)

FOREST = "forest"
DAG = "dag"


def state_text(state: App) -> str:
    """A call state ``f(v1..vn)`` written ``<f, v1, .., vn>``."""
    args = ", ".join(format_term(a) for a in state.args)
    return f"<{state.symbol.name}, {args}>" if args else f"<{state.symbol.name}>"


@dataclass(frozen=True)
class TransitionEdge:
    source: App
    target: App
    equation: Equation
    occurrence: int  # index among the function-headed subterm occurrences of the rhs


@dataclass(eq=False)  # identity equality; the repr names the state only
class CallNode:
    state: App
    children: list = field(default_factory=list)  # (TransitionEdge, CallNode)
    read_links: list = field(default_factory=list)  # (TransitionEdge, CallNode)

    def walk(self) -> Iterator["CallNode"]:
        """This node and its tree descendants, in pre-order."""
        todo = [self]
        while todo:
            n = todo.pop()
            yield n
            todo.extend(c for _, c in reversed(n.children))

    def __repr__(self) -> str:
        return f"CallNode({state_text(self.state)})"


@dataclass
class CallStructure:
    kind: str  # FOREST or DAG
    roots: list

    def nodes(self) -> list[CallNode]:
        if self.kind == FOREST:
            out = []
            for r in self.roots:
                out.extend(r.walk())
            return out
        seen: dict[CallNode, None] = {}
        stack = list(self.roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen[n] = None
            for _, c in n.children:
                stack.append(c)
            for _, c in n.read_links:
                stack.append(c)
        return list(seen)

    def node_count(self) -> int:
        return len(self.nodes())

    def successors_of(self, node: CallNode) -> list[tuple[TransitionEdge, CallNode]]:
        return list(node.children) + list(node.read_links)

    def max_children(self) -> int:
        return max((len(n.children) for n in self.nodes()), default=0)

    def to_dot(self) -> str:
        lines = ["digraph calls {"]
        node_list = self.nodes()
        ids = {n: f"n{i}" for i, n in enumerate(node_list)}
        for n in node_list:
            lines.append(f'  {ids[n]} [label="{state_text(n.state)}"];')
        for n in node_list:
            for e, c in n.children:
                lines.append(
                    f"  {ids[n]} -> {ids[c]} "
                    f'[label="e{e.equation.index}.{e.occurrence}"];'
                )
            for e, c in n.read_links:
                lines.append(
                    f"  {ids[n]} -> {ids[c]} "
                    f'[label="e{e.equation.index}.{e.occurrence}", style=dashed];'
                )
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        node_list = self.nodes()
        ids = {n: i for i, n in enumerate(node_list)}
        return {
            "kind": self.kind,
            "nodes": [state_text(n.state) for n in node_list],
            "edges": [
                {
                    "from": ids[n],
                    "to": ids[c],
                    "equation": e.equation.index,
                    "occurrence": e.occurrence,
                    "read_link": linked,
                }
                for n in node_list
                for linked, group in ((False, n.children), (True, n.read_links))
                for e, c in group
            ],
        }


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
    """One node per call judgement occurrence but Read; a Read becomes a
    link to the node of the Update that installed its entry.  The edges out
    of a judgement that occurs more than once are found once."""
    by_lhs: dict[App, CallNode] = {}
    links: dict[Judgement, list] = {}  # call judgement -> [(edge, callee)]

    def build(j: Judgement):
        node = by_lhs[j.lhs] = CallNode(j.lhs)
        out = links.get(j)
        if out is None:
            calls = j.equation.calls
            out = links[j] = [
                (TransitionEdge(j.lhs, call.lhs, j.equation, calls[pos][0]), call)
                for pos, call in _topmost_calls(j.activation)
            ]
        for edge, call in out:
            if call.rule == R_READ:
                node.read_links.append((edge, by_lhs[call.lhs]))
            else:
                node.children.append((edge, (yield build(call))))
        return node

    # a repeated root-level call resolves inside the dag
    roots = [run_stack(build(j)) for _, j in _topmost_calls(proof.root) if j.rule != R_READ]
    return CallStructure(kind, roots)


def call_tree(proof: DerivationProof) -> CallStructure:
    """Forest of active judgement occurrences of a cbv proof."""
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
    order the outcome table derives them.  The arguments are read through
    the program's outcome ``store`` and charged to the walk's ``paid`` set
    (see ``outcome_table``); without them the call uses fresh ones.  When
    ``charged`` is given, each non-value argument is appended to it in the
    order its outcome call is charged.
    """
    out = []
    store = {} if store is None else store
    paid = set() if paid is None else paid
    for eq, sigma in matching_equations(program, state):
        for occ, sub in eq.calls.values():
            args = [apply_subst(a, sigma) for a in sub.args]
            if charged is not None:
                charged.extend(a for a in args if not is_value(a))
            arg_sets = [
                derivable_value_set(program, a, store, paid, budget.max_rules)
                for a in args
            ]
            for combo in itertools.product(*arg_sets):
                out.append(TransitionEdge(state, App(sub.symbol, combo), eq, occ))
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

