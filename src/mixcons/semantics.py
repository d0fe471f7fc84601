"""Strong-Kleene truth values, valuations and formula evaluation.

Truth values form the chain 0 < 1/2 < 1.  Disjunction is max, conjunction
is min, negation is the complement v -> 1 - v.  The three values are an
exact enum (internally doubled to 0, 1, 2), never floats, so the
min/max/complement identities hold on the nose.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .formula import (
    And,
    Atom,
    Bot,
    Formula,
    Not,
    Or,
    Top,
    Var,
    BOT_ATOM,
    LAM_ATOM,
    TOP_ATOM,
    is_variable_atom,
)


class TruthValue(enum.IntEnum):
    ZERO = 0
    HALF = 1
    ONE = 2

    def complement(self) -> "TruthValue":
        return _NEGATION[self]

    def __str__(self) -> str:
        return {0: "0", 1: "1/2", 2: "1"}[self.value]


ZERO = TruthValue.ZERO
HALF = TruthValue.HALF
ONE = TruthValue.ONE

VALUE_ORDER = (ZERO, HALF, ONE)
# Complements indexed by value: a tuple lookup, not an enum construction.
_NEGATION = (ONE, HALF, ZERO)


class UnmappedVariableError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not mapped and no default is set")


@dataclass
class Valuation:
    """Finite assignment of truth values to variables.

    `default`, when present, applies to every unmapped variable, turning
    the finite map into a total valuation.  Constants are never stored;
    they evaluate fixedly.  Treat instances as immutable once built.
    """

    assignments: dict[str, TruthValue] = field(default_factory=dict)
    default: Optional[TruthValue] = None

    def value_of(self, atom: Atom) -> TruthValue:
        value = self.assignments.get(atom)
        if value is not None:
            return value
        if atom == TOP_ATOM:
            return ONE
        if atom == BOT_ATOM:
            return ZERO
        if atom == LAM_ATOM:
            return HALF
        value = self.assignments.get(atom, self.default)
        if value is None:
            raise UnmappedVariableError(atom)
        return value

    def with_assignment(self, name: str, value: TruthValue) -> "Valuation":
        updated = dict(self.assignments)
        updated[name] = value
        return Valuation(updated, self.default)


def eval_formula(f: Formula, v: Valuation) -> TruthValue:
    # Most frequent node kinds first; min and max written out, because the
    # builtins compare enum members several times slower.
    if isinstance(f, Var):
        return v.value_of(f.name)
    if isinstance(f, Not):
        return _NEGATION[eval_formula(f.sub, v)]
    if isinstance(f, And):
        x, y = eval_formula(f.left, v), eval_formula(f.right, v)
        return x if x <= y else y
    if isinstance(f, Or):
        x, y = eval_formula(f.left, v), eval_formula(f.right, v)
        return x if x >= y else y
    if isinstance(f, Top):
        return ONE
    if isinstance(f, Bot):
        return ZERO
    return HALF  # Lambda


def enumerate_valuations(domain: Iterable[Atom],
                         values: tuple[TruthValue, ...] = VALUE_ORDER) -> Iterator[Valuation]:
    """All |values|^n valuations over the variables of `domain`.

    Constants in the domain are ignored.  Order is lexicographic by sorted
    variable name, with `values` in the order given (by default all three,
    0 < 1/2 < 1), so countermodel choice is deterministic.
    """
    names = sorted(a for a in set(domain) if is_variable_atom(a))
    for combo in itertools.product(values, repeat=len(names)):
        yield Valuation(dict(zip(names, combo)))


def is_partial_sharpening(v_star: Valuation, v: Valuation, sigma: Iterable[Atom]) -> bool:
    """True iff v_star agrees with v on every classically-valued atom of sigma."""
    for atom in sigma:
        value = v.value_of(atom)
        if value != HALF and v_star.value_of(atom) != value:
            return False
    return True


def all_half_valuation() -> Valuation:
    return Valuation({}, default=HALF)


def valuation_record(v: Optional[Valuation]) -> Optional[dict[str, str]]:
    if v is None:
        return None
    return {name: str(v.assignments[name]) for name in sorted(v.assignments)}
