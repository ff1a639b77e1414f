"""Command-line front end.

Exit codes: ``certify`` exits 0 when any of its three verdicts passes, 1
when all three fail, and 2 otherwise; ``check-order`` exits 0 on a pass and
1 on a fail; ``check-qi`` exits 0, 1 or 2 on a valid, invalid or unknown
QI; ``linearity`` exits 0 or 1, and 2 when no precedence exists; the other
commands exit 0.  Every error (usage, input or internal) exits 3.
``eval`` and ``memo`` write ``schema_version`` 1: the result, the proof's
statistics, and the proof as a node table of its distinct judgements
(``semantics.proof_to_json``); ``tree`` and ``dag`` number each distinct
call node once (``callgraph.CallStructure``).

``_COMMANDS`` declares each command once: its help, its positional
arguments, the shared options it reads and the formats it writes besides
JSON, on stdout or to ``--out``.  A shared option that the command does
not list, set to a value other than its default, is a usage error, as is
a ``--format`` it does not write.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from typing import NamedTuple, Optional

from .base import Budget, TrsError
from .bc import compile_bc, parse_bc
from .blind import blind_program, measure_strong_poly
from .callgraph import call_dag, call_tree
from .ordering import EPPO, PPO, order_verdict
from .parser import format_program, parse_program, parse_term
from .qi import format_assignment, parse_assignment, parse_expr
from .report import build_report, linearity_stage, program_digest, qi_stage
from .semantics import (
    Exhaustive,
    FirstMatch,
    Seeded,
    eval_cbv,
    eval_memo,
    is_orthogonal,
    proof_to_json,
)
from .terms import format_term
from .wordnorm import (
    is_normal,
    measure_bounded_values,
    normalization_diff,
    normalize,
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _budget(args) -> Budget:
    return Budget(max_rules=args.budget_rules, max_depth=args.budget_depth)


def _sizes(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not of the form a..b or a") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"sizes {text} need 0 <= low <= high")
    return range(lo, hi + 1)


# The shared options besides --out and --format, with their add_argument
# keywords.  Each default is spelled out: _check_flags compares with it.
_OPTIONS = {
    "--seed": {"type": int, "default": 0},
    "--budget-rules": {"type": int, "default": 200_000},
    "--budget-depth": {"type": int, "default": 2_000},
    "--sizes": {"type": _sizes, "default": range(1, 9)},
    "--qi": {"metavar": "FILE", "default": None, "help": "assignment file"},
    "--order": {"metavar": "STRING", "default": None, "help": "precedence, e.g. 'append < f'"},
    "--mode": {"choices": [PPO, EPPO], "default": EPPO},
    "--allow-nonconfluent-memo": {"action": "store_true", "default": False},
    "--policy": {"choices": ["first", "seeded", "exhaustive"], "default": "first"},
}
_BUDGET = "--budget-rules --budget-depth"
_CBV = f"{_BUDGET} --policy --seed"
_MEMO = f"{_BUDGET} --allow-nonconfluent-memo"
_MEASURE = f"{_BUDGET} --sizes --seed"


class _Command(NamedTuple):
    help: str
    arguments: str  # the positional ones
    options: str = ""  # the shared options it reads
    formats: str = ""  # what it writes besides json


# Every command and all that it accepts.  parse and bc-compile print the
# program text for csv and dot; measure writes csv under --kind growth only.
_COMMANDS = {
    "parse": _Command("parse and reprint a program", "program", "", "csv dot"),
    "eval": _Command("call-by-value evaluation", "program term", _CBV),
    "memo": _Command("evaluation with cache", "program term", _MEMO),
    "tree": _Command("call tree of a cbv proof", "program term", _CBV, "dot"),
    "dag": _Command("call dag of a memo proof", "program term", _MEMO, "dot"),
    "check-order": _Command("path-ordering termination check", "program", "--order --mode"),
    "check-qi": _Command("verify a quasi-interpretation", "program", "--qi --seed"),
    "blind": _Command("blind image of a program", "program"),
    "linearity": _Command("per-function linearity report", "program", "--order --mode"),
    "normalize": _Command("word-program normalization", "program", "--order"),
    "bc-compile": _Command("compile a safe-recursion term", "bcfile", "", "csv dot"),
    "measure": _Command("worst-case growth measurement", "program", _MEASURE, "csv"),
    "certify": _Command("full criteria pipeline and report", "program", f"--qi --order {_MEASURE}"),
}


def _output(args: Optional[argparse.Namespace]):
    """The ``--out`` file, or stdout, as a context manager."""
    if args is not None and args.out:
        return open(args.out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit(args: Optional[argparse.Namespace], text: str) -> None:
    with _output(args) as fh:
        fh.write(text)


def _emit_json(args, data) -> None:
    """Stream a computed payload as JSON, chunk by chunk, then a newline."""
    with _output(args) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _policy(args):
    if args.policy == "exhaustive":
        return Exhaustive()
    if args.policy == "seeded":
        return Seeded(args.seed)
    return FirstMatch()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytrs",
        description="Rewrite-program complexity certification toolkit",
    )
    for flag, keywords in _OPTIONS.items():
        parser.add_argument(flag, **keywords)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--format", choices=["json", "csv", "dot"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for argument in command.arguments.split():
            sp.add_argument(argument)
    measure = sub.choices["measure"]
    measure.add_argument("--poly", help="polynomial in n to check against the rows")
    measure.add_argument(
        "--kind", choices=["growth", "values"], default="growth",
        help="growth: derivation size table; values: reachable state sizes",
    )
    for p in (parser, *sub.choices.values()):
        p.error = _usage_error
    return parser


# Built on the first call to main and kept: parsing does not change it, and
# building it costs milliseconds per call.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone.  As the Python docs' note on SIGPIPE
        # shows, point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


def _main(argv: Optional[list]) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
        _check_flags(args)
    except argparse.ArgumentError as exc:
        _emit_json(None, {"error": "usage", "message": str(exc)})
        return 3
    try:
        return _dispatch(args)
    except BrokenPipeError:
        raise  # no error report can reach a closed stdout
    except TrsError as exc:
        error = {"error": exc.code, "message": str(exc)}
    except OSError as exc:
        error = {"error": "io-error", "message": str(exc)}
    except Exception as exc:
        traceback.print_exc()
        error = {"error": "internal-error", "message": f"{type(exc).__name__}: {exc}"}
    try:
        _emit_json(args, error)
    except OSError:  # --out itself is unwritable
        _emit_json(None, error)
    return 3


def _check_flags(args) -> None:
    """Usage errors beyond argparse's: a negative budget, check-qi without
    --qi, --poly under --kind growth, and a shared option or --format that
    the command's ``_COMMANDS`` entry does not list.  An option at its
    default is never an error."""
    command = _COMMANDS[args.command]
    for flag, keywords in _OPTIONS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag in _BUDGET.split() and value < 0:
            _usage_error(f"{flag} {value} is negative")
        if flag not in command.options.split() and value != keywords["default"]:
            if isinstance(value, range):  # as --sizes reads it
                value = f"{value.start}..{value[-1]}"
            shown = "" if value is True else f" {value}"
            _usage_error(f"{args.command} does not take {flag}{shown}")
    if args.command == "check-qi" and not args.qi:
        _usage_error("--qi FILE is required")
    name = args.command + (f" --kind {args.kind}" if args.command == "measure" else "")
    if name == "measure --kind growth" and args.poly:
        _usage_error("--poly needs --kind values")
    formats = "" if name == "measure --kind values" else command.formats
    if args.format != "json" and args.format not in formats.split():
        _usage_error(f"{name} does not write --format {args.format}")


def _usage_error(message: str):
    """Replaces argparse's exit(2), which would read as the verdict unknown."""
    raise argparse.ArgumentError(None, message)


def _dispatch(args) -> int:
    if args.command == "bc-compile":
        comp = compile_bc(parse_bc(_read(args.bcfile)))
        if args.format != "json":
            _emit(args, format_program(comp.program))
            return 0
        split = {k: {"normal": n, "safe": s} for k, (n, s) in comp.boundaries.items()}
        _emit_json(args, {
            "program": format_program(comp.program),
            "qi": format_assignment(comp.qi, comp.program),
            "provenance": comp.provenance,
            "argument_split": split,
        })
        return 0

    program = parse_program(_read(args.program))

    if args.command == "parse":
        if args.format != "json":
            _emit(args, format_program(program))
            return 0
        _emit_json(args, {
            "digest": program_digest(program),
            "program": format_program(program),
            "repeated_lhs_variables": program.has_repeated_lhs_variables(),
        })
        return 0

    if args.command in ("eval", "memo", "tree", "dag"):
        term = parse_term(args.term, {s.name: s for s in program.signature})
        budget = _budget(args)
        if args.command in ("memo", "dag"):
            allow = args.allow_nonconfluent_memo
            proof = eval_memo(program, term, budget, allow_nonconfluent=allow)
        else:
            proof = next(iter(eval_cbv(program, term, _policy(args), budget)))
        if args.command in ("eval", "memo"):
            payload = {
                "schema_version": 1,
                "result": format_term(proof.result),
                "stats": proof.stats._asdict(),
                "proof": proof_to_json(proof),
            }
            if args.command == "memo" and allow:
                payload["nonconfluent_override"] = not is_orthogonal(program)
            _emit_json(args, payload)
        else:
            structure = call_tree(proof) if args.command == "tree" else call_dag(proof)
            if args.format == "dot":
                _emit(args, structure.to_dot() + "\n")
            else:
                _emit_json(args, structure.to_json())
        return 0

    if args.command == "check-order":
        verdict = order_verdict(program, args.mode, args.order)
        if verdict is None:
            _emit_json(args, {"mode": args.mode, "overall": False, "note": "no precedence found"})
            return 1
        _emit_json(args, verdict.as_dict())
        return 0 if verdict.overall else 1

    if args.command == "check-qi":
        stage = qi_stage(program, parse_assignment(_read(args.qi), program), args.seed)
        _emit_json(args, stage)
        return {"valid": 0, "invalid": 1, "unknown": 2}[stage["overall"]]

    if args.command == "blind":
        _emit_json(args, blind_program(program).as_dict())
        return 0

    if args.command == "linearity":
        verdict = order_verdict(program, args.mode, args.order)
        if verdict is None:
            _emit_json(args, {"overall": None, "note": "no precedence found"})
            return 2
        stage = linearity_stage(program, verdict.precedence)
        _emit_json(args, stage)
        return 0 if stage["overall"] else 1

    if args.command == "normalize":
        verdict = order_verdict(program, EPPO, args.order)
        normalized = normalize(program, verdict)  # raises unless the verdict passes
        _emit_json(args, {
            "program": format_program(normalized),
            "diff": normalization_diff(program, normalized),
            "normal": is_normal(normalized, verdict.precedence).normal,
        })
        return 0

    if args.command == "measure":
        budget = _budget(args)
        if args.kind == "growth":
            table = measure_strong_poly(program, sizes=args.sizes, budget=budget, seed=args.seed)
            if args.format == "csv":
                _emit(args, table.as_csv())
            else:
                _emit_json(args, table.as_dict())
        else:
            poly = parse_expr(args.poly, ["n"]) if args.poly else None
            rows = measure_bounded_values(
                program, sizes=args.sizes, budget=budget, user_poly=poly, seed=args.seed
            )
            _emit_json(args, {"rows": [r.as_dict() for r in rows]})
        return 0

    if args.command == "certify":
        assignment = parse_assignment(_read(args.qi), program) if args.qi else None
        report = build_report(
            program, assignment, order_text=args.order, seed=args.seed,
            budget=_budget(args), sizes=args.sizes,
        )
        _emit_json(args, report.data)
        return report.exit_code()

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
