"""Command-line front end.

Exit codes: ``certify`` exits 0 when any of its three verdicts passes, 1
when all three fail, and 2 otherwise; ``check-order`` exits 0 on a pass and
1 on a fail; ``check-qi`` exits 0, 1 or 2 on a valid, invalid or unknown
QI; ``linearity`` exits 0 or 1, and 2 when no precedence exists; the other
commands exit 0.  Every error (usage, input or internal) exits 3.  All
commands emit JSON (CSV/DOT where noted) on stdout or to ``--out``.
``eval`` and ``memo`` write ``schema_version`` 1: the result, the proof's
statistics, and the proof as a node table of its distinct judgements
(``semantics.proof_to_json``); ``tree`` and ``dag`` number each distinct
call node once (``callgraph.CallStructure``).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import traceback
from typing import Optional

from .base import Budget, TrsError
from .bc import compile_bc, parse_bc
from .blind import blind_program, measure_strong_poly
from .callgraph import call_dag, call_tree
from .ordering import EPPO, PPO, order_verdict
from .parser import format_program, parse_program, parse_term
from .qi import format_assignment, parse_assignment, parse_expr
from .report import build_report, linearity_stage, program_digest, qi_stage, write_json
from .semantics import (
    Exhaustive,
    FirstMatch,
    Seeded,
    eval_cbv,
    eval_memo,
    is_orthogonal,
    proof_to_json,
)
from .terms import Program, format_term
from .wordnorm import (
    is_normal,
    measure_bounded_values,
    normalization_diff,
    normalize,
)


def _load_program(path: str) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())


def _budget(args) -> Budget:
    return Budget(max_rules=args.budget_rules, max_depth=args.budget_depth)


def _sizes(text: str) -> range:
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"sizes {text} need 0 <= low <= high")
    return range(lo, hi + 1)


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
        write_json(data, fh.write)
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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-rules", type=int, default=200_000)
    parser.add_argument("--budget-depth", type=int, default=2_000)
    parser.add_argument("--sizes", type=_sizes, default=range(1, 9))
    parser.add_argument("--qi", metavar="FILE", help="assignment file")
    parser.add_argument("--order", metavar="STRING", help="precedence, e.g. 'append < f'")
    parser.add_argument("--mode", choices=[PPO, EPPO], default=EPPO)
    parser.add_argument("--allow-nonconfluent-memo", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--format", choices=["json", "csv", "dot"], default="json")
    parser.add_argument(
        "--policy", choices=["first", "seeded", "exhaustive"], default="first"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and reprint a program")
    sp.add_argument("program")
    sp = sub.add_parser("eval", help="call-by-value evaluation")
    sp.add_argument("program")
    sp.add_argument("term")
    sp = sub.add_parser("memo", help="evaluation with cache")
    sp.add_argument("program")
    sp.add_argument("term")
    sp = sub.add_parser("tree", help="call tree of a cbv proof")
    sp.add_argument("program")
    sp.add_argument("term")
    sp = sub.add_parser("dag", help="call dag of a memo proof")
    sp.add_argument("program")
    sp.add_argument("term")
    sp = sub.add_parser("check-order", help="path-ordering termination check")
    sp.add_argument("program")
    sp = sub.add_parser("check-qi", help="verify a quasi-interpretation")
    sp.add_argument("program")
    sp = sub.add_parser("blind", help="blind image of a program")
    sp.add_argument("program")
    sp = sub.add_parser("linearity", help="per-function linearity report")
    sp.add_argument("program")
    sp = sub.add_parser("normalize", help="word-program normalization")
    sp.add_argument("program")
    sp = sub.add_parser("bc-compile", help="compile a safe-recursion term")
    sp.add_argument("bcfile")
    sp = sub.add_parser("measure", help="worst-case growth measurement")
    sp.add_argument("program")
    sp.add_argument("--poly", help="polynomial in n to check against the rows")
    sp.add_argument(
        "--kind", choices=["growth", "values"], default="growth",
        help="growth: derivation size table; values: reachable state sizes",
    )
    sp = sub.add_parser("certify", help="full criteria pipeline and report")
    sp.add_argument("program")

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


# The formats besides JSON that a command writes; parse and bc-compile write
# the program text for either.
_TEXT_FORMATS = {
    "parse": "csv dot", "bc-compile": "csv dot", "tree": "dot", "dag": "dot",
    "measure --kind growth": "csv",
}


def _check_flags(args) -> None:
    """A usage error for a flag the command needs, or would silently ignore."""
    command = args.command + (f" --kind {args.kind}" if args.command == "measure" else "")
    for flag in ("budget_rules", "budget_depth"):
        if getattr(args, flag) < 0:
            _usage_error(f"--{flag.replace('_', '-')} {getattr(args, flag)} is negative")
    if args.policy != "first" and args.command not in ("eval", "tree"):
        _usage_error(f"{args.command} does not take --policy {args.policy}")
    if args.command == "check-qi" and not args.qi:
        _usage_error("--qi FILE is required")
    if command == "measure --kind growth" and args.poly:
        _usage_error("--poly needs --kind values")
    if args.format != "json" and args.format not in _TEXT_FORMATS.get(command, ""):
        _usage_error(f"{command} does not write --format {args.format}")


def _usage_error(message: str):
    """Replaces argparse's exit(2), which would read as the verdict unknown."""
    raise argparse.ArgumentError(None, message)


def _dispatch(args) -> int:
    budget = _budget(args)

    if args.command == "parse":
        program = _load_program(args.program)
        if args.format == "json":
            _emit_json(
                args,
                {
                    "digest": program_digest(program),
                    "program": format_program(program),
                    "repeated_lhs_variables": program.has_repeated_lhs_variables(),
                },
            )
        else:
            _emit(args, format_program(program))
        return 0

    if args.command in ("eval", "memo", "tree", "dag"):
        program = _load_program(args.program)
        symbols = {s.name: s for s in program.signature}
        term = parse_term(args.term, symbols)
        if args.command in ("memo", "dag"):
            proof = eval_memo(
                program, term, budget, allow_nonconfluent=args.allow_nonconfluent_memo
            )
        else:
            proof = next(iter(eval_cbv(program, term, _policy(args), budget)))
        if args.command in ("eval", "memo"):
            payload = {
                "schema_version": 1,
                "result": format_term(proof.result),
                "stats": proof.stats._asdict(),
                "proof": proof_to_json(proof),
            }
            if args.command == "memo" and args.allow_nonconfluent_memo:
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
        program = _load_program(args.program)
        verdict = order_verdict(program, args.mode, args.order)
        if verdict is None:
            _emit_json(args, {"mode": args.mode, "overall": False, "note": "no precedence found"})
            return 1
        _emit_json(args, verdict.as_dict())
        return 0 if verdict.overall else 1

    if args.command == "check-qi":
        program = _load_program(args.program)
        with open(args.qi, encoding="utf-8") as fh:
            assignment = parse_assignment(fh.read(), program)
        stage = qi_stage(program, assignment, args.seed)
        _emit_json(args, stage)
        return {"valid": 0, "invalid": 1, "unknown": 2}[stage["overall"]]

    if args.command == "blind":
        _emit_json(args, blind_program(_load_program(args.program)).as_dict())
        return 0

    if args.command == "linearity":
        program = _load_program(args.program)
        verdict = order_verdict(program, args.mode, args.order)
        if verdict is None:
            _emit_json(args, {"overall": None, "note": "no precedence found"})
            return 2
        stage = linearity_stage(program, verdict.precedence)
        _emit_json(args, stage)
        return 0 if stage["overall"] else 1

    if args.command == "normalize":
        program = _load_program(args.program)
        verdict = order_verdict(program, EPPO, args.order)
        normalized = normalize(program, verdict)  # raises unless the verdict passes
        result = {
            "program": format_program(normalized),
            "diff": normalization_diff(program, normalized),
            "normal": is_normal(normalized, verdict.precedence).normal,
        }
        _emit_json(args, result)
        return 0

    if args.command == "bc-compile":
        with open(args.bcfile, encoding="utf-8") as fh:
            bc = parse_bc(fh.read())
        comp = compile_bc(bc)
        if args.format == "json":
            _emit_json(
                args,
                {
                    "program": format_program(comp.program),
                    "qi": format_assignment(comp.qi, comp.program),
                    "provenance": comp.provenance,
                    "argument_split": {
                        k: {"normal": v[0], "safe": v[1]}
                        for k, v in comp.boundaries.items()
                    },
                },
            )
        else:
            _emit(args, format_program(comp.program))
        return 0

    if args.command == "measure":
        program = _load_program(args.program)
        if args.kind == "growth":
            table = measure_strong_poly(
                program, sizes=args.sizes, budget=budget, seed=args.seed
            )
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
        program = _load_program(args.program)
        assignment = None
        if args.qi:
            with open(args.qi, encoding="utf-8") as fh:
                assignment = parse_assignment(fh.read(), program)
        report = build_report(
            program,
            assignment,
            order_text=args.order,
            seed=args.seed,
            budget=budget,
            sizes=args.sizes,
        )
        _emit_json(args, report.data)
        return report.exit_code()

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
