"""Certification report assembly.

One report gathers every analysis stage over a program and derives the
three overall verdicts:

* P-criterion: strict path order pass plus a valid quasi-interpretation.
* Blind-P: P-criterion plus uniformity and linearity (so the bound
  survives blinding).
* Extended-P: fair path order pass plus certified bounded values, with a
  memo path (orthogonality or linearity).

Reports are deterministic given inputs, seed and budget, and ``decide``
recomputes every overall verdict from the per-stage fields.  Each stage
fact is worked out once, in ``build_report``, and a command that prints
one stage builds its payload with the report's code.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

from . import __version__
from .base import Budget, DEFAULT_BUDGET, NotWordProgram
from .blind import blind_program, is_linear, transfer_uniform_qi
from .ordering import EPPO, PPO, Precedence, order_verdict
from .parser import format_program
from .qi import INVALID, QiAssignment, UNKNOWN, VALID, check_qi, is_uniform
from .semantics import is_orthogonal
from .terms import Program
from .wordnorm import certify_extended

SCHEMA_VERSION = 2

PASS = "pass"
FAIL = "fail"


def program_digest(program: Program) -> str:
    return hashlib.sha256(format_program(program).encode()).hexdigest()[:16]


class Report(NamedTuple):
    data: dict

    @property
    def verdicts(self) -> dict:
        return self.data["verdicts"]

    def exit_code(self) -> int:
        values = [self.verdicts[k] for k in ("p_criterion", "blind_p", "extended_p")]
        if PASS in values:
            return 0
        if all(v == FAIL for v in values):
            return 1
        return 2


def decide(
    ppo_pass: bool,
    eppo_pass: bool,
    qi: Optional[str],
    uniform: Optional[bool],
    linear: Optional[bool],
    orthogonal: bool,
    bounded_values: str,
) -> tuple[dict, str]:
    """The three verdicts, and the extended criterion's overall verdict,
    from the stage facts; the one home of the verdict rules.

    ``qi`` and ``uniform`` are None without an assignment, and ``linear``
    is None when no path order gives a precedence: that is no memo path,
    but it does not fail blind-P.
    """
    if ppo_pass and qi == VALID:
        p_criterion = PASS
    elif not ppo_pass or qi == INVALID:
        p_criterion = FAIL
    else:
        p_criterion = UNKNOWN
    if p_criterion == PASS and uniform and linear:
        blind_p = PASS
    elif p_criterion == FAIL or uniform is False or linear is False:
        blind_p = FAIL
    else:
        blind_p = UNKNOWN
    if eppo_pass and qi == VALID and (orthogonal or linear):
        overall = "certified-p"
    elif bounded_values == "empirical-exp":
        overall = "refuted"
    elif eppo_pass and bounded_values == "empirical-poly":
        overall = "empirically-consistent"
    else:
        overall = UNKNOWN
    if overall == "certified-p":
        extended_p = PASS
    elif overall == "refuted" or not eppo_pass:
        extended_p = FAIL
    else:
        extended_p = UNKNOWN
    verdicts = {"p_criterion": p_criterion, "blind_p": blind_p, "extended_p": extended_p}
    return verdicts, overall


def qi_stage(program: Program, assignment: QiAssignment, seed: int) -> dict:
    """The QI verdict and whether the assignment is uniform, as ``check-qi``
    and the report's ``qi`` stage write them."""
    stage = check_qi(program, assignment, seed=seed).as_dict()
    stage["uniform"] = is_uniform(assignment, program)
    return stage


def linearity_stage(program: Program, precedence: Precedence) -> dict:
    """Per-function and overall linearity, as ``linearity`` and the report's
    ``linearity`` stage write them."""
    per_function = is_linear(program, precedence)
    return {"per_function": per_function, "overall": all(per_function.values())}


def build_report(
    program: Program,
    assignment: Optional[QiAssignment] = None,
    order_text: Optional[str] = None,
    seed: int = 0,
    budget: Budget = DEFAULT_BUDGET,
    sizes: range = range(1, 9),
) -> Report:
    """Run the full pipeline and assemble the machine-readable report.

    Each stage runs once.  The extended stage repeats the fair-order, QI,
    orthogonality and linearity facts worked out here beside the facts
    ``certify_extended`` adds from them.
    """
    stages: dict = {}
    ppo = order_verdict(program, PPO, order_text)
    eppo = order_verdict(program, EPPO, order_text)
    stages["ordering"] = {
        "ppo": ppo.as_dict() if ppo else {"overall": False, "note": "no precedence found"},
        "eppo": eppo.as_dict() if eppo else {"overall": False, "note": "no precedence found"},
    }
    ppo_pass = bool(ppo and ppo.overall)
    eppo_pass = bool(eppo and eppo.overall)

    qi_overall = None
    uniform = None
    stages["qi"] = None
    if assignment is not None:
        stages["qi"] = qi_stage(program, assignment, seed)
        qi_overall = stages["qi"]["overall"]
        uniform = stages["qi"]["uniform"]

    linear = None
    stages["linearity"] = None
    chosen = eppo or ppo
    if chosen is not None:
        stages["linearity"] = linearity_stage(program, chosen.precedence)
        linear = stages["linearity"]["overall"]
    orthogonal = is_orthogonal(program)
    stages["memo_gate"] = {"orthogonal": orthogonal}
    stages["repeated_lhs_variables"] = program.has_repeated_lhs_variables()

    try:
        blind = blind_program(program)
        bl_ppo = order_verdict(blind.program, PPO)
        stages["blind"] = blind.as_dict()
        stages["blind"]["ppo"] = {"overall": bool(bl_ppo and bl_ppo.overall)}
        if assignment is not None and uniform:
            transferred = transfer_uniform_qi(assignment, program, blind)
            stages["blind"]["transferred_qi"] = check_qi(
                blind.program, transferred, seed=seed
            ).overall
    except NotWordProgram as exc:
        stages["blind"] = {"error": str(exc)}

    extended = certify_extended(
        program, eppo, qi_overall, orthogonal, linear,
        sizes=sizes, budget=budget, seed=seed,
    )
    verdicts, overall = decide(
        ppo_pass, eppo_pass, qi_overall, uniform, linear, orthogonal, extended.bounded_values
    )
    stages["extended"] = extended.as_dict()
    stages["extended"].update(
        eppo=stages["ordering"]["eppo"] if eppo else None,
        eppo_pass=eppo_pass,
        qi=qi_overall,
        orthogonal=orthogonal,
        linear=linear,
        overall=overall,
    )

    data = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "program": {
            "digest": program_digest(program),
            "main": program.main.name,
            "functions": sorted(f.name for f in program.functions),
            "constructors": sorted(c.name for c in program.constructors),
            "equations": len(program.equations),
        },
        "parameters": {
            "seed": seed,
            "budget": {"max_rules": budget.max_rules, "max_depth": budget.max_depth},
            "sizes": [sizes.start, sizes.stop - 1] if isinstance(sizes, range) else None,
            # fixed evaluation conventions that shape which derivations are
            # explored under truncation
            "split_order": "left-to-right",
            "rank_counting": "per-precedence-class",
        },
        "stages": stages,
        "verdicts": verdicts,
    }
    return Report(data)
