"""The four consequence relations over the Strong-Kleene scheme.

A logic standard is a pair of designated-value sets, each strict ({1}) or
tolerant ({1/2, 1}): one for premises, one for conclusions.  K3 and LP use
the same set on both sides; ST and TS mix the two.

Validity and antivalidity return the lexicographically first countermodel
(sorted variables, 0 < 1/2 < 1): the lowest bit, one per valuation walked,
of a block where every premise and no conclusion is designated (for
antivalidity: no premise and every conclusion).  Each side formula is
evaluated once per block (`semantics.rail_blocks`), for one rail: that of
its designated set, or for "not designated" the other rail of its negation
(f < 1/2 is ~f = 1, f < 1 is ~f >= 1/2).  K3 and LP walk all 3^n
valuations.  Countermodels of ST-validity and TS-antivalidity are closed
under sharpening, so only {0,1}^n is walked.  Those of TS-validity and
ST-antivalidity are closed under moving values to 1/2: each chunk of up to
16 sorted variables (the most whose 2^k valuations fit in a block of
2^BLOCK bits) is one {0,1/2} block, with earlier chunks fixed and later
ones 1/2, and its lowest hit fixes it; none in the first chunk means valid.

The one search is the private `_decide(logic, premises, conclusions, domain,
anti)` over formula tuples and a domain of atoms (the constants in it are
ignored).  `valid` and `antivalid` pass an inference's sides and atoms;
callers that hold plain formula tuples (theoremhood, the product checks,
the duality routes) pass the tuples and `atoms_of_set` of them, and build
no `Inference`.  It stays private, so that perfbench's tracer, which wraps
public functions, counts only `valid`/`antivalid` as decisions.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import semantics
from .formula import CONSTANT_ATOMS, Atom, Formula, HashableRecord, Inference, Record, _set, atoms_of_set, print_sequent
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
    hits = block.full
    for f, rail in sides:
        hits &= block.rail(f, rail)
        if not hits:
            break
    return hits


def _block_walk(sides, domain: Iterable[Atom], values: tuple[TruthValue, ...]) -> Verdict:
    """First countermodel into `values`, a block of valuations at a time."""
    for block in rail_blocks(domain, values):
        hits = _hits(block, sides)
        if hits:
            return Verdict(False, block.valuation((hits & -hits).bit_length() - 1))
    return Verdict(True)


def _chunk_walk(sides, domain: Iterable[Atom]) -> Verdict:
    """First countermodel, one {0,1/2} block per chunk (module docstring)."""
    names = sorted(set(domain) - CONSTANT_ATOMS)
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


def _sides(logic: LogicStandard, premises: tuple[Formula, ...], conclusions: tuple[Formula, ...],
           anti: bool) -> list:
    """(formula, rail) per side formula: where it must be designated, rail 0
    (>= 1/2) if tolerant and rail 1 (= 1) if strict; where it must not be,
    that rail ^ 3, the other rail of its negation (f < 1/2 is ~f = 1, rail 3;
    f < 1 is ~f >= 1/2, rail 2)."""
    premise_rail = 0 if HALF in logic.premise_designated else 1
    conclusion_rail = 0 if HALF in logic.conclusion_designated else 1
    sides = [(g, premise_rail ^ 3 if anti else premise_rail) for g in premises]
    return sides + [(d, conclusion_rail if anti else conclusion_rail ^ 3) for d in conclusions]


def _decide(logic: LogicStandard, premises: tuple[Formula, ...], conclusions: tuple[Formula, ...],
            domain: Iterable[Atom], anti: bool) -> Verdict:
    """The search the module docstring describes, for validity or antivalidity
    of premises => conclusions, over the variables of `domain`."""
    half_in_premises = (HALF in logic.premise_designated) != anti
    half_in_conclusions = (HALF in logic.conclusion_designated) == anti
    sides = _sides(logic, premises, conclusions, anti)
    if half_in_premises and half_in_conclusions:
        return _chunk_walk(sides, domain)
    space = VALUE_ORDER if half_in_premises or half_in_conclusions else (ZERO, ONE)
    return _block_walk(sides, domain, space)


def valid(logic: LogicStandard, inf: Inference) -> Verdict:
    return _decide(logic, inf.premises, inf.conclusions, inf.atoms(), False)


def antivalid(logic: LogicStandard, inf: Inference) -> Verdict:
    return _decide(logic, inf.premises, inf.conclusions, inf.atoms(), True)


def is_antitheorem(logic: LogicStandard, gamma: Iterable[Formula]) -> bool:
    gamma = tuple(gamma)
    return _decide(logic, gamma, (), atoms_of_set(gamma), False).valid


def is_theorem(logic: LogicStandard, delta: Iterable[Formula]) -> bool:
    delta = tuple(delta)
    return _decide(logic, (), delta, atoms_of_set(delta), False).valid


def classically_valid(inf: Inference) -> bool:
    """Two-valued validity, enumerating only the values 0 and 1.

    Meaningful on the lambda-free fragment, where it coincides with
    ST-validity.
    """
    return _block_walk(_sides(K3, inf.premises, inf.conclusions, False), inf.atoms(), (ZERO, ONE)).valid


def verdict_record(logic: LogicStandard, inf: Inference, verdict: Verdict, anti: bool = False) -> dict:
    """Machine-readable verdict: {logic, sequent, valid|antivalid, countermodel}."""
    key = "antivalid" if anti else "valid"
    return {
        "logic": logic.name,
        "sequent": print_sequent(inf),
        key: verdict.valid,
        "countermodel": valuation_record(verdict.countermodel),
    }
