"""The four consequence relations over the Strong-Kleene scheme.

A logic standard is a pair of designated-value sets, each strict ({1}) or
tolerant ({1/2, 1}): one for premises, one for conclusions.  K3 and LP use
the same set on both sides; ST and TS mix the two.

Validity and antivalidity return the lexicographically first countermodel
(sorted variables, 0 < 1/2 < 1): the lowest bit, one per valuation walked,
of a block where the side formulas' rails (`semantics.rail_blocks`) make
every premise and no conclusion designated (for antivalidity: no premise
and every conclusion).  K3 and LP walk all 3^n valuations.  Countermodels
of ST-validity and TS-antivalidity are closed under sharpening, so only
{0,1}^n is walked.  Those of TS-validity and ST-antivalidity are closed
under moving values to 1/2: each chunk of up to 16 sorted variables (the
most whose 2^k valuations fit in a block of 2^BLOCK bits) is one {0,1/2}
block, with earlier chunks fixed and later ones 1/2, and its lowest hit
fixes it; none in the first chunk means valid.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import semantics
from .formula import Formula, HashableRecord, Inference, Record, _set, print_sequent
from .semantics import (
    HALF,
    ONE,
    VALUE_ORDER,
    ZERO,
    TruthValue,
    Valuation,
    _rail_block,
    rail_blocks,
    valuation_record,
)


class LogicStandard(HashableRecord):
    __slots__ = __match_args__ = ("name", "premise_designated", "conclusion_designated")

    def __init__(self, name: str, premise_designated: frozenset[TruthValue],
                 conclusion_designated: frozenset[TruthValue]):
        for designated in (premise_designated, conclusion_designated):
            if designated not in (_STRICT, _TOLERANT):
                shown = ", ".join(map(str, sorted(designated)))
                raise ValueError(f"{name}: designated set {{{shown}}} is neither {{1}} nor {{1/2, 1}}")
        _set(self, "name", name)
        _set(self, "premise_designated", premise_designated)
        _set(self, "conclusion_designated", conclusion_designated)


_STRICT = frozenset({TruthValue.ONE})
_TOLERANT = frozenset({TruthValue.HALF, TruthValue.ONE})

K3 = LogicStandard("K3", _STRICT, _STRICT)
LP = LogicStandard("LP", _TOLERANT, _TOLERANT)
ST = LogicStandard("ST", _STRICT, _TOLERANT)
TS = LogicStandard("TS", _TOLERANT, _STRICT)

STANDARDS = {"K3": K3, "LP": LP, "ST": ST, "TS": TS}


class Verdict(Record):
    __slots__ = __match_args__ = ("valid", "countermodel")

    def __init__(self, valid: bool, countermodel: Optional[Valuation] = None):
        _set(self, "valid", valid)
        _set(self, "countermodel", countermodel)


def _hits(block, sides) -> int:
    """The positions of `block` where every premise and no conclusion is
    designated (for antivalidity: no premise and every conclusion)."""
    full = hits = block.full
    for f, rail, undesignated in sides:
        designated = block.rails(f)[rail]
        hits &= full ^ designated if undesignated else designated
        if not hits:
            break
    return hits


def _block_walk(sides, inf: Inference, values: tuple[TruthValue, ...]) -> Verdict:
    """First countermodel into `values`, a block of valuations at a time."""
    for block in rail_blocks(inf.atoms(), values):
        hits = _hits(block, sides)
        if hits:
            return Verdict(False, block.valuation((hits & -hits).bit_length() - 1))
    return Verdict(True)


def _chunk_walk(sides, inf: Inference) -> Verdict:
    """First countermodel, one {0,1/2} block per chunk (module docstring)."""
    names = sorted(inf.variables())
    countermodel = Valuation(dict.fromkeys(names, HALF))
    # read per call, so that a patched BLOCK is seen; a chunk holds at least one variable
    chunk = max(1, semantics.block_width(2, semantics.BLOCK))
    for start in range(0, len(names) or 1, chunk):
        block = _rail_block(countermodel, tuple(names[start:start + chunk]), (ZERO, HALF))
        hits = _hits(block, sides)
        if not hits:  # first chunk only: later ones hit where they are all 1/2
            return Verdict(True)
        countermodel = block.valuation((hits & -hits).bit_length() - 1)
    return Verdict(False, countermodel)


def _sides(logic: LogicStandard, inf: Inference, anti: bool) -> list:
    """(formula, rail, undesignated) per side formula; rail 0 (>= 1/2) is
    tolerant designation, rail 1 (= 1) strict designation."""
    premise_rail = 0 if HALF in logic.premise_designated else 1
    conclusion_rail = 0 if HALF in logic.conclusion_designated else 1
    sides = [(g, premise_rail, anti) for g in inf.premises]
    return sides + [(d, conclusion_rail, not anti) for d in inf.conclusions]


def _first_countermodel(logic: LogicStandard, inf: Inference, anti: bool) -> Verdict:
    """The search the module docstring describes, for validity or antivalidity."""
    half_in_premises = (HALF in logic.premise_designated) != anti
    half_in_conclusions = (HALF in logic.conclusion_designated) == anti
    sides = _sides(logic, inf, anti)
    if half_in_premises and half_in_conclusions:
        return _chunk_walk(sides, inf)
    space = VALUE_ORDER if half_in_premises or half_in_conclusions else (ZERO, ONE)
    return _block_walk(sides, inf, space)


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
    return _block_walk(_sides(K3, inf, False), inf, (ZERO, ONE)).valid


def verdict_record(logic: LogicStandard, inf: Inference, verdict: Verdict, anti: bool = False) -> dict:
    """Machine-readable verdict: {logic, sequent, valid|antivalid, countermodel}."""
    key = "antivalid" if anti else "valid"
    return {
        "logic": logic.name,
        "sequent": print_sequent(inf),
        key: verdict.valid,
        "countermodel": valuation_record(verdict.countermodel),
    }
