"""The four consequence relations over the Strong-Kleene scheme.

A logic standard is a pair of designated-value sets: one for premises,
one for conclusions.  K3 and LP use the same set on both sides; ST and TS
mix strict and tolerant designation.

Validity and antivalidity return the lexicographically first countermodel
(sorted variables, 0 < 1/2 < 1).  Where neither side of a countermodel may
be 1/2 (ST-validity, TS-antivalidity), countermodels are closed under
sharpening, so the first is classical and only {0,1}^n is walked.  Where
both sides may be 1/2 (TS-validity, ST-antivalidity), they are closed under
moving values to 1/2: all-1/2 decides, and the first countermodel sets each
variable to 0 if that stays a countermodel, else 1/2, in at most n + 1
evaluations.  K3 and LP search all 3^n valuations.  The 3^n and 2^n walks
evaluate each side formula once per block of up to 3^8 valuations, as bit
masks (`semantics.rail_blocks`); the lowest countermodel bit is the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .formula import Formula, Inference, print_sequent
from .semantics import (
    HALF,
    ONE,
    VALUE_ORDER,
    ZERO,
    TruthValue,
    Valuation,
    eval_formula,
    rail_blocks,
    valuation_record,
)


@dataclass(frozen=True)
class LogicStandard:
    name: str
    premise_designated: frozenset[TruthValue]
    conclusion_designated: frozenset[TruthValue]


_STRICT = frozenset({TruthValue.ONE})
_TOLERANT = frozenset({TruthValue.HALF, TruthValue.ONE})

K3 = LogicStandard("K3", _STRICT, _STRICT)
LP = LogicStandard("LP", _TOLERANT, _TOLERANT)
ST = LogicStandard("ST", _STRICT, _TOLERANT)
TS = LogicStandard("TS", _TOLERANT, _STRICT)

STANDARDS = {"K3": K3, "LP": LP, "ST": ST, "TS": TS}


@dataclass
class Verdict:
    valid: bool
    countermodel: Optional[Valuation] = None


def satisfies(logic: LogicStandard, v: Valuation, inf: Inference) -> bool:
    """Designated premises (all) imply a designated conclusion (some)."""
    if all(eval_formula(g, v) in logic.premise_designated for g in inf.premises):
        return any(eval_formula(d, v) in logic.conclusion_designated for d in inf.conclusions)
    return True


def antisatisfies(logic: LogicStandard, v: Valuation, inf: Inference) -> bool:
    """Non-designated premises (all) imply a non-designated conclusion (some)."""
    if all(eval_formula(g, v) not in logic.premise_designated for g in inf.premises):
        return any(eval_formula(d, v) not in logic.conclusion_designated for d in inf.conclusions)
    return True


def _block_walk(logic: LogicStandard, inf: Inference, anti: bool, values: tuple[TruthValue, ...]) -> Verdict:
    """First countermodel into `values`: every premise and no conclusion
    designated (for antivalidity: no premise and every conclusion)."""
    # Rail 0 (>= 1/2) is tolerant designation, rail 1 (= 1) strict designation.
    premise_rail = 0 if HALF in logic.premise_designated else 1
    conclusion_rail = 0 if HALF in logic.conclusion_designated else 1
    sides = [(g, premise_rail, anti) for g in inf.premises]
    sides += [(d, conclusion_rail, not anti) for d in inf.conclusions]
    for block in rail_blocks(inf.atoms(), values):
        full, hits = block.full, block.mask
        for f, rail, undesignated in sides:
            designated = block.rails(f)[rail]
            hits &= full ^ designated if undesignated else designated
            if not hits:
                break
        if hits:
            return Verdict(False, block.valuation((hits & -hits).bit_length() - 1))
    return Verdict(True)


def _first_countermodel(logic: LogicStandard, inf: Inference, anti: bool) -> Verdict:
    """The search the module docstring describes, for validity or antivalidity."""
    half_in_premises = (HALF in logic.premise_designated) != anti
    half_in_conclusions = (HALF in logic.conclusion_designated) == anti
    if half_in_premises and half_in_conclusions:
        holds = antisatisfies if anti else satisfies
        values = dict.fromkeys(sorted(inf.variables()), HALF)
        if holds(logic, Valuation(values), inf):
            return Verdict(True)
        for name in values:
            values[name] = ZERO
            if holds(logic, Valuation(values), inf):
                values[name] = HALF
        return Verdict(False, Valuation(values))
    space = VALUE_ORDER if half_in_premises or half_in_conclusions else (ZERO, ONE)
    return _block_walk(logic, inf, anti, space)


def valid(logic: LogicStandard, inf: Inference) -> Verdict:
    return _first_countermodel(logic, inf, anti=False)


def antivalid(logic: LogicStandard, inf: Inference) -> Verdict:
    return _first_countermodel(logic, inf, anti=True)


def is_antitheorem(logic: LogicStandard, gamma: Iterable[Formula]) -> bool:
    return valid(logic, Inference(gamma, ())).valid


def is_theorem(logic: LogicStandard, delta: Iterable[Formula]) -> bool:
    return valid(logic, Inference((), delta)).valid


def classically_valid(inf: Inference) -> bool:
    """Two-valued validity, enumerating only the values 0 and 1.

    Meaningful on the lambda-free fragment, where it coincides with
    ST-validity.
    """
    return _block_walk(K3, inf, False, (ZERO, ONE)).valid


def verdict_record(logic: LogicStandard, inf: Inference, verdict: Verdict, anti: bool = False) -> dict:
    """Machine-readable verdict: {logic, sequent, valid|antivalid, countermodel}."""
    key = "antivalid" if anti else "valid"
    return {
        "logic": logic.name,
        "sequent": print_sequent(inf),
        key: verdict.valid,
        "countermodel": valuation_record(verdict.countermodel),
    }
