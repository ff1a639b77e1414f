"""The four workloads: inputs from a seed, one verdict-bearing item at a time,
and a check of every output against a reference that does not come from the
code under test (closed forms, recorded tables, theorems).

``setup(name, root, seed, scratch)`` returns the pass's fixed item list.
Each item's ``run`` is the timed call into ``polytrs``; its ``check`` runs
outside the timed region and raises CheckFailed on a wrong output.
Functions are called through their modules (``blind.measure_strong_poly``)
so that a traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from polytrs import bc, blind, callgraph, cli, ordering, parser, qi, semantics
from polytrs.terms import format_term


class CheckFailed(Exception):
    pass


@dataclass
class Item:
    label: str
    params: dict  # what identifies the input: program, size or term seed
    run: Callable[[], Any]
    check: Callable[[Any], dict]  # returns a summary compared across passes


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


# -- certify-corpus -------------------------------------------------------------

# (p_criterion, blind_p, extended_p, exit code) of `polytrs certify` at the
# default sizes.  Agrees with the acceptance and CLI tests where they state an
# answer: append, add and mult pass all three; running fails the P-criterion.
CERTIFY_VERDICTS = {
    "add": ("pass", "pass", "pass", 0),
    "append": ("pass", "pass", "pass", 0),
    "doublerec": ("unknown", "fail", "unknown", 2),
    "even_odd": ("unknown", "unknown", "unknown", 2),
    "fib": ("fail", "fail", "fail", 1),
    "flip": ("unknown", "unknown", "unknown", 2),
    "grid2": ("unknown", "fail", "fail", 2),
    "grid3": ("unknown", "fail", "unknown", 2),
    "grow": ("unknown", "unknown", "fail", 2),
    "identity": ("unknown", "unknown", "unknown", 2),
    "maxw": ("unknown", "unknown", "unknown", 2),
    "mult": ("pass", "pass", "pass", 0),
    "norm2rule": ("fail", "fail", "unknown", 2),
    "norm2rule_nil": ("fail", "fail", "unknown", 2),
    "reverse": ("fail", "fail", "fail", 1),
    "running": ("fail", "fail", "unknown", 2),
    "trip": ("unknown", "fail", "fail", 2),
    "twoclass": ("unknown", "fail", "fail", 2),
}


def _certify_items(root: Path, seed: int, scratch: Path) -> list[Item]:
    items = []
    for prog in sorted((root / "corpus").glob("*.trs")):
        out = scratch / f"certify-{prog.stem}.json"
        argv = ["--seed", str(seed), "--out", str(out)]
        if prog.with_suffix(".qi").exists():
            argv += ["--qi", str(prog.with_suffix(".qi"))]
        argv += ["certify", str(prog)]

        def check(code, name=prog.stem, out=out):
            data = out.read_bytes()
            v = json.loads(data)["verdicts"]
            got = (v["p_criterion"], v["blind_p"], v["extended_p"], code)
            expect(f"{name} verdicts and exit code", got, CERTIFY_VERDICTS[name])
            return {"digest": hashlib.sha256(data).hexdigest()}

        items.append(
            Item(prog.stem, {"program": prog.name}, lambda argv=argv: cli.main(argv), check)
        )
    return items


# -- growth-tables ------------------------------------------------------------

# append runs at the default --sizes of `polytrs measure` (1..8).  The blind
# image of running.trs runs the exponential-gap experiment of
# scripts/growth_experiment.py, which starts at 2 where the closed form
# 2^(n-2) begins, up to the same 8: its n = 9 row alone takes about 6 s,
# four times a whole pass (2-vCPU x86-64, Python 3.11).
APPEND_SIZES = range(1, 9)
RUNNING_SIZES = range(2, 9)

# Blind image of running.trs: n -> (worst_rules, derivations).  Rows up to
# n = 6 agree with the brute-force outcome enumeration of acceptance
# criterion 2; the worst result size is the closed form 2^(n-2).
RUNNING_BLIND_ROWS = {
    2: (8, 3),
    3: (20, 25),
    4: (44, 2601),
    5: (93, 73618705),
    6: (205, 480885506209233441),
    7: (460, 1820394850817732622345184781590167210049),
    8: (
        1020,
        327313966305228479403849337734270036932885778164180324501161335073520890664621191864449,
    ),
}


def _row(table):
    expect("rows", len(table.rows), 1)
    return table.rows[0]


def append_expected(n: int) -> tuple:
    """(worst_rules, worst_result_size, truncated): one rule per letter of
    the first word, one for the final nil, one for the call itself."""
    return (2 * n + 2, n, False)


def _growth_items(root: Path, seed: int) -> list[Item]:
    append = parser.parse_program((root / "corpus" / "append.trs").read_text())
    running = parser.parse_program((root / "corpus" / "running.trs").read_text())
    image = blind.blind_program(running).program
    items = []
    for n in APPEND_SIZES:

        def check(table, n=n):
            r = _row(table)
            got = (r.worst_rules, r.worst_result_size, r.truncated)
            expect(f"append n={n}", got, append_expected(n))
            return {}

        def run(n=n):
            return blind.measure_strong_poly(
                append, sizes=range(n, n + 1), inputs_cap=80, seed=seed
            )

        items.append(Item(f"append:{n}", {"program": "append.trs", "size": n}, run, check))
    for n in RUNNING_SIZES:

        def check(table, n=n):
            r = _row(table)
            expect(f"blind running n={n} worst result", r.worst_result_size, 2 ** (n - 2))
            expect(f"blind running n={n} truncated", r.truncated, False)
            got = (r.worst_rules, r.derivations)
            expect(f"blind running n={n} (rules, derivations)", got, RUNNING_BLIND_ROWS[n])
            return {}

        def run(n=n):
            return blind.measure_strong_poly(image, sizes=range(n, n + 1), seed=seed)

        items.append(
            Item(f"running-blind:{n}", {"program": "blind(running.trs)", "size": n}, run, check)
        )
    return items


# -- bc-pipeline ----------------------------------------------------------------

# Term seeds come from the population of acceptance criterion 6, random_bc(s,
# 4) for s in 0..199, ordered by pipeline cost (bc_strata.json).  Cost is
# heavy-tailed: the heaviest tenth, BC_CENSUS terms, takes about half of the
# population's time (bc_strata.json records each term's cost), so those are
# all taken and plain sampling cannot let a few terms decide a pass's time.
# The rest are taken one from each adjacent pair, chosen by the workload
# seed, which keeps the cost mix the same from seed to seed while the terms
# themselves change.
BC_CENSUS = 20


def bc_term_seeds(root: Path, seed: int) -> list[int]:
    order = json.loads((root / "perfbench" / "bc_strata.json").read_text())["order"]
    census, rest = order[-BC_CENSUS:], order[:-BC_CENSUS]
    rng = random.Random(seed)
    chosen = census + [rng.choice(rest[i : i + 2]) for i in range(0, len(rest), 2)]
    rng.shuffle(chosen)
    return chosen


def bc_chain(term):
    """Acceptance criterion 6: compile, order, linearity, uniformity, QI,
    blind, transferred QI."""
    comp = bc.compile_bc(term)
    prec = ordering.infer_precedence(comp.program, ordering.PPO)
    if prec is None:
        raise CheckFailed("no strict precedence for the compiled program")
    out = {
        "ordered": ordering.check_program(comp.program, prec, ordering.PPO).overall,
        "linear": blind.program_is_linear(comp.program, prec),
        "uniform": qi.is_uniform(comp.qi, comp.program),
        "qi": qi.check_qi(comp.program, comp.qi).overall,
    }
    image = blind.blind_program(comp.program)
    moved = blind.transfer_uniform_qi(comp.qi, comp.program, image)
    out["blind_ordered"] = ordering.infer_precedence(image.program, ordering.PPO) is not None
    out["transferred_qi"] = qi.check_qi(image.program, moved).overall
    return out


# What the safe-recursion compilation theorem guarantees for every term.
BC_EXPECTED = {
    "ordered": True,
    "linear": True,
    "uniform": True,
    "qi": "valid",
    "blind_ordered": True,
    "transferred_qi": "valid",
}


def _bc_items(root: Path, seed: int) -> list[Item]:
    items = []
    for s in bc_term_seeds(root, seed):
        term = bc.random_bc(s, 4)

        def check(got, s=s):
            expect(f"random_bc({s}, 4) pipeline", got, BC_EXPECTED)
            return {}

        items.append(Item(f"bc:{s}", {"term_seed": s}, lambda term=term: bc_chain(term), check))
    return items


# -- interp-memo ------------------------------------------------------------------

# The sweep of scripts/memo_experiment.py, n in 3..14.  cbv time doubles per
# step (about 0.8 s at n = 11, 1.7 s at 12 and 8.6 s at 14), so cbv stops at
# 11, which keeps a pass near 1.5 s (2-vCPU x86-64, Python 3.11); memo is
# linear and runs the whole sweep.
CBV_SIZES = range(3, 12)
MEMO_SIZES = range(3, 15)


def cbv_rules(n: int) -> int:
    """Rules of the cbv proof of dup(s^n 0): both recursive calls are
    derived again at every level."""
    return 7 * 2**n - 4


def memo_rules(n: int) -> int:
    """Rules of the memo proof of dup(s^n 0), n >= 2: the second call at
    each level is one Read."""
    return 4 * n + 5


def dup_value(n: int) -> str:
    """dup(s^n 0): dup(0) = s 0, dup(s 0) = xorb(s 0, s 0) = 0, and
    xorb(0, 0) = 0 from then on."""
    return "s(0)" if n == 0 else "0"


def _interp_items(root: Path, seed: int) -> list[Item]:
    program = parser.parse_program((root / "corpus" / "doublerec.trs").read_text())
    symbols = {s.name: s for s in program.signature}
    items = []
    for n in CBV_SIZES:
        term = parser.parse_term("dup(" + "s " * n + "0)", symbols)

        def run(term=term):
            proof = next(iter(semantics.eval_cbv(program, term)))
            semantics.validate_proof(program, proof)
            semantics.check_dependence_bounds(proof)
            return proof, callgraph.call_tree(proof)

        def check(out, n=n):
            proof, _ = out
            expect(f"cbv n={n} rules", proof.stats.rule_count, cbv_rules(n))
            expect(f"cbv n={n} value", format_term(proof.result), dup_value(n))
            return {"value": format_term(proof.result)}

        items.append(Item(f"cbv:{n}", {"semantics": "cbv", "size": n}, run, check))
    for n in MEMO_SIZES:
        term = parser.parse_term("dup(" + "s " * n + "0)", symbols)

        def run(term=term):
            proof = semantics.eval_memo(program, term)
            semantics.validate_proof(program, proof)
            semantics.check_dependence_bounds(proof)
            semantics.check_read_linkage(proof)
            return proof, callgraph.call_dag(proof)

        def check(out, n=n):
            proof, dag = out
            expect(f"memo n={n} rules", proof.stats.rule_count, memo_rules(n))
            expect(f"memo n={n} dag nodes", dag.node_count(), len(proof.cache_trace))
            expect(f"memo n={n} value", format_term(proof.result), dup_value(n))
            return {"value": format_term(proof.result)}

        items.append(Item(f"memo:{n}", {"semantics": "memo", "size": n}, run, check))
    return items


def check_pass(name: str, rows: list[dict]) -> dict:
    """Checks across the items of one pass: label -> reason for each failure.

    interp-memo: cbv and memo must reach the same value for each n."""
    if name != "interp-memo":
        return {}
    values = {r["label"]: r["summary"]["value"] for r in rows if r["summary"]}
    failures = {}
    for n in CBV_SIZES:
        cbv, memo = values.get(f"cbv:{n}"), values.get(f"memo:{n}")
        if cbv is not None and memo is not None and cbv != memo:
            reason = f"cbv value {cbv} differs from memo value {memo}"
            failures[f"cbv:{n}"] = failures[f"memo:{n}"] = reason
    return failures


def setup(name: str, root: Path, seed: int, scratch: Path) -> list[Item]:
    """The pass's item list, in an order permuted by the seed."""
    if name == "certify-corpus":
        items = _certify_items(root, seed, scratch)
    elif name == "growth-tables":
        items = _growth_items(root, seed)
    elif name == "bc-pipeline":
        return _bc_items(root, seed)  # already in seeded order
    elif name == "interp-memo":
        items = _interp_items(root, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(items)
    return items
