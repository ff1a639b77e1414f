"""Boundary tracing for the per-layer metrics.

Each layer is a ``polytrs`` module.  The public functions listed in SPANS are
wrapped from outside the program: every wrapper is rebound in each
``polytrs`` module that holds the original, so calls made through
``from .x import f`` (including function-local imports, which read the module
attribute at call time) go through the wrapper.  A recursive function opens
a span only at its outermost call.  Self time is a span's duration minus the
durations of the spans it directly encloses.

Spans are aggregated in memory per name and written out once, when the pass
ends (``Tracer.as_dict``).  The benchmark's own output checks run under
``Tracer.paused()``, so spans and counters hold only the program's work.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

SPANS = {
    "terms": ("matching_equations", "apply_subst", "format_term"),
    "parser": ("parse_program", "parse_term"),
    "semantics": (
        "eval_cbv",
        "eval_memo",
        "validate_proof",
        "check_dependence_bounds",
        "check_read_linkage",
        "derivable_value_set",
        "is_orthogonal",
    ),
    "callgraph": ("call_tree", "call_dag", "reachable_states", "successors"),
    "ordering": ("infer_precedence", "check_program", "PathOrder.less"),
    "qi": ("parse_assignment", "check_qi", "dominates", "max_posy_form"),
    "blind": (
        "blind_program",
        "program_is_linear",
        "transfer_uniform_qi",
        "measure_strong_poly",
        "input_tuples",
    ),
    "wordnorm": ("normalize", "measure_bounded_values", "certify_extended"),
    "bc": ("random_bc", "compile_bc"),
    "report": ("build_report",),
    "cli": ("main",),
}

# Work counters read from return values of outermost calls, or counted by
# the class-level wrappers on App.__hash__ / App.__eq__.
COUNTS = (
    "terms.App.hash.calls",
    "terms.App.eq.calls",
    "semantics.rules",
    "semantics.memo_updates",
    "callgraph.states",
    "qi.obligations",
    "qi.symbolic_valid",
    "blind.inputs",
    "blind.truncated_rows",
    "wordnorm.value_states",
    "wordnorm.truncated_rows",
    "bc.equations",
)


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: dict = defaultdict(lambda: [0, 0.0])  # calls, self time
        self.counts: dict = dict.fromkeys(COUNTS, 0)
        self._stack: list = []  # [start, time of directly enclosed spans]
        self._active: dict = defaultdict(int)
        self.on = True

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block; no span may be open at entry."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def _open(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([time.perf_counter(), 0.0])

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        start, enclosed = self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        span = self.spans[name]
        span[0] += 1
        span[1] += duration - enclosed
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            # The body of a generator runs on each resume, not at the call.
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    on = self.on
                    if on:
                        self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if on:
                            self._close(name)
                    if on and on_result is not None:
                        on_result(item)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            if not self.on or self._active[name]:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def as_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "self_s": s} for name, (c, s) in sorted(self.spans.items())
            },
            "counts": dict(self.counts),
        }


def _result_hooks(counts: dict) -> dict:
    def add(key, value):
        counts[key] += value

    def proof(p):
        add("semantics.rules", p.stats.rule_count)
        add("semantics.memo_updates", len(p.cache_trace))

    def qi_verdict(v):
        add("qi.obligations", len(v.per_equation))
        add("qi.symbolic_valid", sum(o.status == "valid" for o in v.per_equation))

    def growth(table):
        add("blind.truncated_rows", sum(r.truncated for r in table.rows))

    def value_rows(rows):
        add("wordnorm.value_states", sum(r.states for r in rows))
        add("wordnorm.truncated_rows", sum(r.truncated for r in rows))

    return {
        "semantics.eval_cbv": proof,
        "semantics.eval_memo": proof,
        "callgraph.reachable_states": lambda s: add("callgraph.states", len(s)),
        "qi.check_qi": qi_verdict,
        "blind.input_tuples": lambda t: add("blind.inputs", len(t)),
        "blind.measure_strong_poly": growth,
        "wordnorm.measure_bounded_values": value_rows,
        "bc.compile_bc": lambda c: add("bc.equations", len(c.program.equations)),
    }


def _count_calls(cls, attr: str, tracer: Tracer, key: str) -> None:
    original = getattr(cls, attr)

    def counted(*args):
        if tracer.on:
            tracer.counts[key] += 1
        return original(*args)

    setattr(cls, attr, counted)


def install() -> Tracer:
    """Import every layer, wrap its spans and counters; return the store."""
    modules = {layer: importlib.import_module(f"polytrs.{layer}") for layer in SPANS}
    tracer = Tracer()
    hooks = _result_hooks(tracer.counts)
    for layer, fns in SPANS.items():
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(modules[layer], cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hooks.get(name)))
                continue
            original = getattr(modules[layer], fn_name)
            wrapper = tracer.wrap(name, original, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "polytrs" and not mod_name.startswith("polytrs."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    app = modules["terms"].App
    _count_calls(app, "__hash__", tracer, "terms.App.hash.calls")
    _count_calls(app, "__eq__", tracer, "terms.App.eq.calls")
    return tracer
