"""Call-by-value evaluation, with and without memoisation.

Both interpreters build full derivation proofs.  Judgements are tagged with
the rule that produced them; Function and Update conclusions are *active*,
Constructor and Split conclusions *passive*, Read conclusions *semi-active*.
The rule-count accounting on proofs is the toolkit's primary cost metric.
A first-match call-by-value proof holds the judgement of a repeated call
once, at every place the call occurs: it is a dag whose unfolding is the
derivation tree, and every count is taken over that tree.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterator, KeysView, NamedTuple, Optional

from .base import (
    Budget,
    BudgetExceeded,
    CycleDetected,
    DEFAULT_BUDGET,
    NoMatchingEquation,
    NonConfluentProgram,
    postorder,
    run_stack,
)
from .terms import (
    App,
    Equation,
    Program,
    Substitution,
    Term,
    Var,
    _Frozen,
    _set,
    apply_subst,
    format_term,
    is_value,
    match_tuple,
    matching_equations,
    subterms,
    term_depth,
    term_size,
)

R_CONSTRUCTOR = "Constructor"
R_SPLIT = "Split"
R_FUNCTION = "Function"
R_READ = "Read"
R_UPDATE = "Update"

ACTIVE_RULES = frozenset({R_FUNCTION, R_UPDATE})
PASSIVE_RULES = frozenset({R_CONSTRUCTOR, R_SPLIT})
SEMI_ACTIVE_RULES = frozenset({R_READ})


class Judgement(_Frozen):
    """A derivation node: identity equality and a shallow repr, so no dunder
    walks a deep proof.  ``size`` counts the judgement occurrences of the
    derivation, and ``height`` its levels: a leaf has height 1."""

    _fields = ("rule", "lhs", "result", "children", "equation")
    __slots__ = _fields + ("size", "height")

    def __init__(
        self,
        rule: str,
        lhs: Term,
        result: Term,
        children: tuple = (),
        equation: Optional[Equation] = None,
    ):
        size, height = 1, 0
        for c in children:
            size += c.size
            if c.height > height:
                height = c.height
        _set(self, "rule", rule)
        _set(self, "lhs", lhs)
        _set(self, "result", result)
        _set(self, "children", children)
        _set(self, "equation", equation)
        _set(self, "size", size)
        _set(self, "height", height + 1)

    def __repr__(self) -> str:
        return f"Judgement({self.rule}, {format_term(self.lhs)} => {format_term(self.result)})"

    @property
    def is_active(self) -> bool:
        return self.rule in ACTIVE_RULES

    @property
    def is_passive(self) -> bool:
        return self.rule in PASSIVE_RULES

    @property
    def is_semi_active(self) -> bool:
        return self.rule in SEMI_ACTIVE_RULES

    @property
    def activation(self) -> Optional["Judgement"]:
        """For Function/Update judgements: the derivation of rhs*sigma."""
        if self.rule in ACTIVE_RULES and self.children:
            return self.children[-1]
        return None

    def walk(self) -> Iterator["Judgement"]:
        """Every judgement occurrence of the derivation, in pre-order."""
        todo = [self]
        while todo:
            j = todo.pop()
            yield j
            todo.extend(reversed(j.children))

    def distinct(self) -> Iterator["Judgement"]:
        """Every judgement object of the derivation once, in the pre-order
        of its first occurrence; on a proof that shares no judgement this
        is ``walk()``."""
        seen: set = set()
        todo = [self]
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                yield j
                todo.extend(reversed(j.children))


class DerivationStats(NamedTuple):
    rule_count: int
    active_count: int  # distinct active judgements (lhs, result)
    active_occurrences: int
    passive_count: int
    semi_active_count: int
    max_active_size: int
    per_symbol_active: dict
    charged_cost: int


class DerivationProof(NamedTuple):
    root: Judgement
    mode: str  # "cbv" or "memo"
    stats: DerivationStats
    cache_trace: tuple = ()  # (call term, value) in Update order

    @property
    def result(self) -> Term:
        return self.root.result


class FirstMatch(_Frozen):
    __slots__ = ()


class Seeded(_Frozen):
    __slots__ = _fields = ("seed",)

    def __init__(self, seed: int = 0):
        _set(self, "seed", seed)


class Exhaustive(_Frozen):
    __slots__ = ()


ChoicePolicy = FirstMatch | Seeded | Exhaustive


def classify(root: Judgement) -> DerivationStats:
    """Count judgement occurrences by class; active_count is over distinct
    (lhs, result) pairs.  A judgement object shared by several places of
    the proof counts once per occurrence in the unfolded derivation tree."""
    order = list(root.distinct())
    weights = itertools.repeat(1)
    if len(order) != root.size:
        if any(j.rule in (R_UPDATE, R_READ) for j in order):
            # the charged cost depends on each occurrence's pre-order place
            order = root.walk()
        else:
            weights = map(_occurrences(order).__getitem__, order)
    rule_count = 0
    active_occ = 0
    passive = 0
    semi = 0
    max_active = 0
    distinct_active: set = set()
    per_symbol: Counter = Counter()
    charged = 0
    cache_size = 0
    for j, m in zip(order, weights):
        rule_count += m
        if j.is_active:
            active_occ += m
            distinct_active.add((j.lhs, j.result))
            per_symbol[j.lhs.symbol.name] += m
            max_active = max(max_active, term_size(j.lhs))
            if j.rule == R_UPDATE:
                charged += cache_size * term_size(j.lhs)
                cache_size += 1
        elif j.is_semi_active:
            semi += m
            charged += cache_size * term_size(j.lhs)
        else:
            passive += m
    return DerivationStats(
        rule_count=rule_count,
        active_count=len(distinct_active),
        active_occurrences=active_occ,
        passive_count=passive,
        semi_active_count=semi,
        max_active_size=max_active,
        per_symbol_active=dict(per_symbol),
        charged_cost=rule_count + charged,
    )


def _occurrences(order: list) -> Counter:
    """Occurrence count of each judgement in the unfolded derivation, given
    the distinct judgements of a proof with its root first: each judgement
    adds its count to its premises once all its own parents have."""
    waiting = Counter(c for j in order for c in j.children)
    counts = Counter({order[0]: 1})
    ready = [order[0]]
    while ready:
        j = ready.pop()
        for c in j.children:
            counts[c] += counts[j]
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    return counts


def _make_proof(root: Judgement, mode: str, cache_trace: tuple = ()) -> DerivationProof:
    return DerivationProof(root, mode, classify(root), cache_trace)


class _Run:
    """One evaluation run; threads the budget through the recursion.

    ``finished`` maps each call term to its finished judgement, stored once
    when its derivation is done, in that order.  A memo run stores Updates
    and answers a repeated call with a Read of the stored value; a
    first-match cbv run stores Function judgements and puts the stored one
    at each place the call occurs again.  A seeded run may choose another
    equation at each call, so it keeps no table.  The methods are
    generator-coded for ``run_stack``, so only the budget bounds depth.
    """

    def __init__(self, program: Program, policy: ChoicePolicy, budget: Budget, memo: bool = False):
        self.program = program
        self.max_rules, self.max_depth = budget
        self.memo = memo
        self.steps = 0
        self.rng = random.Random(policy.seed) if isinstance(policy, Seeded) else None
        self.finished: Optional[dict] = None if self.rng is not None else {}

    def derive(self, t: Term, depth: int):
        self.steps += 1
        if self.steps > self.max_rules or depth > self.max_depth:
            raise BudgetExceeded(
                f"budget exceeded while evaluating {format_term(t)[:80]}"
            )
        if isinstance(t, Var):
            raise NoMatchingEquation(f"cannot evaluate open term {t.name}")
        if t.symbol.is_function and all(is_value(a) for a in t.args):
            j = None if self.finished is None else self.finished.get(t)
            if j is not None:
                if self.memo:
                    return Judgement(R_READ, t, j.result)
                # a stored subproof stands for a derivation again only when
                # that derivation would fit: else derive it, so the budget
                # fails at the same judgement as without sharing
                if (
                    self.steps - 1 + j.size <= self.max_rules
                    and depth - 1 + j.height <= self.max_depth
                ):
                    self.steps += j.size - 1
                    return j
            matches = matching_equations(self.program, t)
            if not matches:
                raise NoMatchingEquation(f"no equation matches {format_term(t)}")
            if self.rng is not None and len(matches) > 1:
                eq, sigma = matches[self.rng.randrange(len(matches))]
            else:
                eq, sigma = matches[0]
            body = yield self.derive(apply_subst(eq.rhs, sigma), depth + 1)
            j = Judgement(R_UPDATE if self.memo else R_FUNCTION, t, body.result, (body,), eq)
            if self.finished is not None:
                self.finished[t] = j
            return j
        kids = []
        for a in t.args:
            kids.append((yield self.derive(a, depth + 1)))
        value = App(t.symbol, tuple(k.result for k in kids))
        if t.symbol.is_constructor:
            return Judgement(R_CONSTRUCTOR, t, value, tuple(kids))
        final = yield self.derive(value, depth + 1)
        return Judgement(R_SPLIT, t, final.result, (*kids, final))


def eval_cbv(
    program: Program,
    term: Term,
    policy: ChoicePolicy = FirstMatch(),
    budget: Budget = DEFAULT_BUDGET,
) -> Iterator[DerivationProof]:
    """Stream of one call-by-value derivation proof of a ground term.

    FirstMatch / Seeded take one equation at each call; Exhaustive gives a
    derivation of largest rule count over every choice, read off the
    outcome tables (``_worst_derivation``).
    """
    if isinstance(policy, Exhaustive):
        root = _worst_derivation(program, term, budget)
        # the same caps as a derivation built step by step: rule count, and
        # the depth of the deepest judgement with the root at depth 0
        if root.size > budget.max_rules or root.height - 1 > budget.max_depth:
            raise BudgetExceeded(f"the worst derivation of {format_term(term)} exceeds the budget")
    else:
        root = run_stack(_Run(program, policy, budget).derive(term, 0))
    yield _make_proof(root, "cbv")


def _worst_derivation(program: Program, term: Term, budget: Budget) -> Judgement:
    """The first derivation of largest rule count, rebuilt top-down from
    the outcome tables: the table's first value of largest cost, then at a
    call the first matching equation, and at a Constructor or Split the
    first argument values, whose tables reach the cost.  One judgement per
    (state, value), so a repeated call shares its subproof."""
    store: dict = {}
    top = outcome_table(program, term, store, max_states=budget.max_rules)
    if not top:
        raise NoMatchingEquation(f"no derivation of {format_term(term)} exists")
    worst = max(cost for cost, _ in top.values())
    built: dict = {}

    def table(u: Term) -> dict:
        return {u: (u.size, 1)} if is_value(u) else store[u][0]

    def build(u: Term, v: Term):
        j = built.get((u, v))
        if j is not None:
            return j
        rest = table(u)[v][0] - 1  # the rule count of the premises
        if u.symbol.is_function and all(is_value(a) for a in u.args):
            for eq, sigma in matching_equations(program, u):
                rhs = apply_subst(eq.rhs, sigma)
                if table(rhs).get(v, (None,))[0] == rest:
                    break
            j = Judgement(R_FUNCTION, u, v, ((yield build(rhs, v)),), eq)
        else:
            constructor = u.symbol.is_constructor
            for combo in itertools.product(*[table(a).items() for a in u.args]):
                left = rest - sum([c for _, (c, _) in combo])  # for the Split call
                call = App(u.symbol, tuple([w for w, _ in combo]))
                if call == v if constructor else table(call).get(v, (None,))[0] == left:
                    break
            kids = []
            for a, (w, _) in zip(u.args, combo):
                kids.append((yield build(a, w)))
            if constructor:
                j = Judgement(R_CONSTRUCTOR, u, v, tuple(kids))
            else:
                j = Judgement(R_SPLIT, u, v, (*kids, (yield build(call, v))))
        built[(u, v)] = j
        return j

    return run_stack(build(term, next(v for v, (c, _) in top.items() if c == worst)))


def pay(store: dict, paid: set, u: Term) -> int:
    """Marks the stored non-value term u and its dependency closure paid,
    stopping at states already paid; returns how many were new."""
    new = 0
    todo = [u]
    while todo:
        w = todo.pop()
        if w not in paid:
            new += 1
            paid.add(w)
            todo.extend(store[w][1])
    return new


def outcome_table(
    program: Program,
    term: Term,
    store: Optional[dict] = None,
    paid: Optional[set] = None,
    max_states: int = 100_000,
) -> dict:
    """Every value derivable from a ground term, with (max rule count,
    derivation count) over the call-by-value derivations ending in it.

    One memoised dynamic program over states, in the style of semiring
    parsing: costs combine by max over alternatives and + across premises,
    counts by + and x.  A value costs its size in Constructor rules.  The
    value set is the table's key set, so transitions and growth tables read
    the same table.  Raises CycleDetected when a state still in progress is
    entered again (possible nontermination).

    ``store`` is one program's answer table, shared by every walk on it: it
    maps each completed non-value state to its table and to the non-value
    terms its step consulted (rhs instances, non-value arguments and Split
    calls).  ``paid`` is the set of states the current walk has paid for.
    Each state new to the walk is charged to this call, whether derived
    here or reached through a stored table's dependencies, and the call
    raises BudgetExceeded past max_states of them: the count a fresh memo
    per walk would enter, whatever earlier walks stored.  Only completed
    tables are stored, so every walk that reaches a state on a cycle
    raises CycleDetected.  Without a store or a paid set the call uses
    fresh ones.
    """
    store = {} if store is None else store
    paid = set() if paid is None else paid
    stack: set = set()
    entered = 0

    def enter(states: int = 1) -> None:
        nonlocal entered
        entered += states
        if entered > max_states:
            raise BudgetExceeded("state budget exceeded in outcome evaluation")

    def add(out: dict, v: Term, cost: int, count: int) -> None:
        old = out.get(v)
        out[v] = (cost, count) if old is None else (max(old[0], cost), old[1] + count)

    def known(u: Term, deps: list) -> Optional[dict]:
        """u's table when it needs no derivation: u is a value or stored.
        Records u in deps unless it is a value, and pays for the unpaid
        dependency closure of a stored table."""
        if is_value(u):
            return {u: (u.size, 1)}
        deps.append(u)
        entry = store.get(u)
        if entry is None:
            return None
        enter(pay(store, paid, u))
        return entry[0]

    def go(u: Term):  # for a u that is no value; its callers try known(u) first
        if isinstance(u, Var):
            raise NoMatchingEquation(f"cannot evaluate open term {u.name}")
        entry = store.get(u)  # a stored empty table is falsy: known(u) or ... lands here
        if entry is not None:
            return entry[0]
        if u in stack:
            raise CycleDetected(f"recursive state {format_term(u)}")
        enter()
        stack.add(u)
        out: dict = {}
        deps: list = []
        if u.symbol.is_function and all(is_value(a) for a in u.args):
            for eq, sigma in matching_equations(program, u):
                rhs = apply_subst(eq.rhs, sigma)
                for v, (cost, count) in (known(rhs, deps) or (yield go(rhs))).items():
                    add(out, v, 1 + cost, count)
        else:  # Constructor or Split: one premise per argument
            tables = []
            for a in u.args:
                tables.append((known(a, deps) or (yield go(a))).items())
            constructor = u.symbol.is_constructor
            for combo in itertools.product(*tables):
                cost, count, values = 1, 1, []
                for v, (c, n) in combo:
                    cost += c
                    count *= n
                    values.append(v)
                call = App(u.symbol, tuple(values))
                if constructor:
                    add(out, call, cost, count)
                    continue
                for v, (c, n) in (known(call, deps) or (yield go(call))).items():
                    add(out, v, cost + c, count * n)
        stack.discard(u)
        store[u] = (out, deps)
        paid.add(u)
        return out

    return known(term, []) or run_stack(go(term))


def derivable_value_set(
    program: Program,
    term: Term,
    store: Optional[dict] = None,
    paid: Optional[set] = None,
    max_states: int = 100_000,
) -> KeysView:
    """Set of values derivable from a ground term: the key view of its
    outcome_table, read through the store and charged to the walk's paid
    set when given.  The view compares equal to a set and iterates in
    derivation order, which program order fixes."""
    return outcome_table(program, term, store, paid, max_states).keys()


# -- memoisation ------------------------------------------------------------


def unify_patterns(p: Term, q: Term, subst: Substitution) -> Optional[Substitution]:
    """Syntactic unification of two constructor patterns (shared var space),
    one pair of subterms at a time, leftmost first."""

    def resolve(t: Term) -> Term:
        while isinstance(t, Var) and t.name in subst:
            t = subst[t.name]
        return t

    todo = [(p, q)]
    while todo:
        p, q = todo.pop()
        p, q = resolve(p), resolve(q)
        if p == q:
            continue
        if isinstance(p, Var):
            subst[p.name] = q
        elif isinstance(q, Var):
            subst[q.name] = p
        elif p.symbol != q.symbol:
            return None
        else:
            todo.extend(zip(p.args[::-1], q.args[::-1]))
    return subst


def overlapping_pairs(program: Program) -> list[tuple[Equation, Equation]]:
    """Pairs of distinct equations for one function whose lhs tuples unify."""
    out = []
    eqs = program.equations
    for i, e1 in enumerate(eqs):
        for e2 in eqs[i + 1 :]:
            if e1.lhs_function != e2.lhs_function:
                continue
            subst: Substitution = {}
            ok = True
            for p, q in zip(e1.lhs_patterns, _rename(e2.lhs_patterns)):
                if unify_patterns(p, q, subst) is None:
                    ok = False
                    break
            if ok:
                out.append((e1, e2))
    return out


def _rename(patterns: tuple) -> tuple:
    """The patterns with every variable primed apart."""
    renamed: dict = {}
    for u in postorder(patterns, "args"):
        renamed[id(u)] = (
            Var(u.name + "'r")
            if type(u) is Var
            else App(u.symbol, tuple([renamed[id(a)] for a in u.args]))
        )
    return tuple([renamed[id(p)] for p in patterns])


def is_orthogonal(program: Program) -> bool:
    """Left-linear and non-overlapping: sufficient for confluence.

    Patterns contain no function symbols, so rules can only overlap at the
    root; root overlap plus left-linearity is the whole check.
    """
    if program.has_repeated_lhs_variables():
        return False
    return not overlapping_pairs(program)


def eval_memo(
    program: Program,
    term: Term,
    budget: Budget = DEFAULT_BUDGET,
    allow_nonconfluent: bool = False,
) -> DerivationProof:
    """Call-by-value evaluation with a cache; Read has priority over Update.

    Requires an orthogonal program (the sufficient confluence check) unless
    the caller explicitly overrides; the first matching equation is taken at
    genuine choice points under the override.
    """
    if not allow_nonconfluent and not is_orthogonal(program):
        raise NonConfluentProgram(
            "program is not orthogonal (left-linear + non-overlapping); "
            "memoisation refused without an explicit override"
        )
    run = _Run(program, FirstMatch(), budget, memo=True)
    root = run_stack(run.derive(term, 0))
    # the table's insertion order is the order of the Updates
    trace = tuple([(t, j.result) for t, j in run.finished.items()])
    return _make_proof(root, "memo", trace)


# -- proof validation and accounting ----------------------------------------


def validate_proof(program: Program, proof: DerivationProof) -> None:
    """Check every judgement against the inference rules; raises ValueError.

    For memo proofs the cache, call term -> value, is re-threaded through
    the traversal, so Read entries must have been installed by a previous
    Update.  A Function judgement that occurs again is checked once, when
    its subderivation installed no entry: the cache only grows, so its
    Reads would pass again.
    """
    cache: dict = {}
    checked: set = set()  # Function judgements whose subderivation holds no Update

    def check(j: Judgement):
        t, v = j.lhs, j.result
        if j.rule == R_CONSTRUCTOR:
            if not isinstance(t, App) or not t.symbol.is_constructor:
                raise ValueError(f"Constructor rule on {format_term(t)}")
            _expect(len(j.children) == len(t.args), j, "arity of premises")
            for a, c in zip(t.args, j.children):
                _expect(c.lhs == a, j, "premise lhs mismatch")
                yield check(c)
            _expect(
                v == App(t.symbol, tuple(c.result for c in j.children)),
                j,
                "conclusion value",
            )
        elif j.rule == R_SPLIT:
            _expect(
                isinstance(t, App) and t.symbol.is_function, j, "Split head"
            )
            _expect(
                any(not is_value(a) for a in t.args), j, "Split needs a non-value"
            )
            _expect(len(j.children) == len(t.args) + 1, j, "Split premise count")
            for a, c in zip(t.args, j.children[:-1]):
                _expect(c.lhs == a, j, "Split premise lhs")
                yield check(c)
            final = j.children[-1]
            _expect(
                final.lhs
                == App(t.symbol, tuple(c.result for c in j.children[:-1])),
                j,
                "Split call lhs",
            )
            yield check(final)
            _expect(final.result == v, j, "Split conclusion value")
        elif j.rule in (R_FUNCTION, R_UPDATE):
            if j in checked:
                return
            entries = len(cache)
            _expect(
                isinstance(t, App)
                and t.symbol.is_function
                and all(is_value(a) for a in t.args),
                j,
                "active lhs must be a function on values",
            )
            eq = j.equation
            _expect(eq is not None and eq in program.equations, j, "activated equation")
            _expect(eq.lhs_function == t.symbol, j, "equation head")
            sigma = match_tuple(eq.lhs_patterns, t.args)
            _expect(sigma is not None, j, "patterns do not match")
            _expect(len(j.children) == 1, j, "activation premise count")
            act = j.children[0]
            _expect(act.lhs == apply_subst(eq.rhs, sigma), j, "activation lhs")
            if j.rule == R_UPDATE:
                _expect(t not in cache, j, "Update on a cached call")
            yield check(act)
            _expect(act.result == v, j, "activation value")
            if j.rule == R_UPDATE:
                cache[t] = v
            elif len(cache) == entries:
                checked.add(j)
        elif j.rule == R_READ:
            _expect(cache.get(t) == v, j, "Read entry not in cache")
            _expect(not j.children, j, "Read is a leaf")
        else:
            raise ValueError(f"unknown rule {j.rule}")

    run_stack(check(proof.root))
    if proof.mode == "memo" and dict(proof.cache_trace) != cache:
        raise ValueError("cache trace does not agree with Update judgements")


def _expect(cond: bool, j: Judgement, what: str) -> None:
    if not cond:
        raise ValueError(f"invalid {j.rule} judgement at {format_term(j.lhs)}: {what}")


def _dependence_walk(j: Judgement, out: list):
    """Append the passive-only subderivation rooted at j to ``out`` in
    pre-order; return its depth.  Generator-coded for run_stack."""
    out.append(j)
    depth = 0
    for c in j.children:
        if c.is_passive:
            depth = max(depth, (yield _dependence_walk(c, out)))
    return 1 + depth


def check_dependence_bounds(proof: DerivationProof) -> None:
    """Assert the three dependence bounds on every passive judgement."""
    for j in proof.root.distinct():
        if not j.is_passive:
            continue
        nodes: list[Judgement] = []
        depth = run_stack(_dependence_walk(j, nodes))
        below = set(subterms(j.lhs)) if len(nodes) > 1 else {j.lhs}
        for node in nodes:
            if node.lhs not in below:
                raise ValueError(
                    f"dependence member {format_term(node.lhs)} is not a "
                    f"subterm of {format_term(j.lhs)}"
                )
        if depth > term_depth(j.lhs):
            raise ValueError("dependence deeper than its root term")
        if len(nodes) > term_size(j.lhs):
            raise ValueError("dependence larger than its root term size")


def check_read_linkage(proof: DerivationProof) -> None:
    """Every Read judgement must resolve to an earlier Update entry.

    An entry is its (call term, value) pair: a Read matches the Updates
    finished before it and the proof's cache trace by that pair, so a call
    built from another symbol of the same name matches neither."""
    seen: set = set()
    traced = set(proof.cache_trace)

    def go(j: Judgement):
        if j.rule == R_READ:
            key = (j.lhs, j.result)
            if key not in seen:
                raise ValueError(
                    f"Read of {format_term(j.lhs)} before the matching Update"
                )
            if key not in traced:
                raise ValueError("Read entry missing from the cache trace")
        for c in j.children:
            yield go(c)
        if j.rule == R_UPDATE:
            seen.add((j.lhs, j.result))

    run_stack(go(proof.root))


def proof_to_json(proof: DerivationProof) -> dict:
    """The proof as a node table: each distinct judgement once, in
    ``postorder`` (premises first, the root last), with its premises by
    index into ``nodes``; ``root`` is the root's index."""
    order = postorder([proof.root], "children")
    terms = [t for j in order for t in (j.lhs, j.result)]
    for call, v in proof.cache_trace:
        terms += (*call.args, v)
    text: dict = {}  # format_term(t) per subterm, built from its arguments' texts
    for u in postorder(terms, "args"):
        text[u] = (
            f"{u.symbol.name}({', '.join([text[a] for a in u.args])})"
            if type(u) is App and u.args
            else format_term(u)
        )
    ids: dict = {}  # judgement -> its index; postorder lists a leaf at each place
    nodes = []
    for j in order:
        if j in ids:
            continue
        ids[j] = len(nodes)
        out = {
            "rule": j.rule,
            "lhs": text[j.lhs],
            "result": text[j.result],
            "children": [ids[c] for c in j.children],
        }
        if j.equation is not None:
            out["equation"] = j.equation.index
        nodes.append(out)
    return {
        "mode": proof.mode,
        "nodes": nodes,
        "root": ids[proof.root],
        "cache_trace": [
            {
                "function": call.symbol.name,
                "args": [text[a] for a in call.args],
                "value": text[v],
            }
            for call, v in proof.cache_trace
        ],
    }
