"""Strong-Kleene truth values, valuations and formula evaluation.

Truth values form the chain 0 < 1/2 < 1.  Disjunction is max, conjunction
is min, negation is the complement v -> 1 - v.  The three values are an
exact enum (internally doubled to 0, 1, 2), never floats, so the
min/max/complement identities hold on the nose.

Formulas are evaluated one way, as rails, with an explicit stack: over a
block of valuations, two big-int masks with bit p set where the p-th
valuation makes the formula >= 1/2 and where it makes it 1 (the dual-rail
encoding of Bryant & Seger, CAV 1990).  `rail_blocks` walks 3^n or 2^n
valuations in blocks spanning the last k <= BLOCK variables;
`eval_formula` reads one-bit rails at a single valuation.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

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
    CONSTANT_ATOMS,
    LAM_ATOM,
    TOP_ATOM,
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
_CONSTANT_VALUES = {TOP_ATOM: ONE, BOT_ATOM: ZERO, LAM_ATOM: HALF}


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
        if value is None:
            value = _CONSTANT_VALUES.get(atom, self.default)
            if value is None:
                raise UnmappedVariableError(atom)
        return value

    def with_assignment(self, name: str, value: TruthValue) -> "Valuation":
        updated = dict(self.assignments)
        updated[name] = value
        return Valuation(updated, self.default)


def enumerate_valuations(domain: Iterable[Atom],
                         values: tuple[TruthValue, ...] = VALUE_ORDER) -> Iterator[Valuation]:
    """All |values|^n valuations over the variables of `domain`.

    Constants in the domain are ignored.  Order is lexicographic by sorted
    variable name, with `values` in the order given (by default all three,
    0 < 1/2 < 1), so countermodel choice is deterministic.
    """
    names = sorted(set(domain) - CONSTANT_ATOMS)
    for combo in itertools.product(values, repeat=len(names)):
        yield Valuation(dict(zip(names, combo)))


BLOCK = 8

Rails = tuple[int, int]  # (value >= 1/2, value = 1), bit p for the p-th valuation of a block


@functools.cache
def _block_rails(k: int, values: tuple[TruthValue, ...]) -> tuple[int, int, tuple[Rails, ...]]:
    """All positions, the positions whose valuation lies in `values`, and each
    variable's rails, for k variables laid out in `enumerate_valuations` order."""
    full, mask, rails = 1, 1, ()
    for j in range(k):
        # A new first variable is 0, 1/2 and 1 on three thirds; the others repeat.
        size = 3 ** j
        first = ((1 << 2 * size) - 1) << size, ((1 << size) - 1) << 2 * size
        rails = (first, *((h | h << size | h << 2 * size, o | o << size | o << 2 * size) for h, o in rails))
        mask = sum(mask << value * size for value in values)
        full = (1 << 3 * size) - 1
    return full, mask, rails


def _rails(f: Formula, env: dict[Atom, Rails], full: int) -> Rails:
    """Rails of f given each variable's: AND, OR, and swap-and-complement for ~.

    No recursion: `todo` holds formulas and, as markers, the connective
    classes whose operands are already on `out`."""
    out: list[Rails] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is Var:
            out.append(env[g.name])
        elif kind is type:
            if g is Not:
                h, o = out.pop()
                out.append((full ^ o, full ^ h))
            else:
                h2, o2 = out.pop()
                h1, o1 = out.pop()
                out.append((h1 & h2, o1 & o2) if g is And else (h1 | h2, o1 | o2))
        elif kind is Not:
            todo += (Not, g.sub)
        elif kind is And or kind is Or:
            todo += (kind, g.right, g.left)
        elif kind is Top:
            out.append((full, full))
        elif kind is Bot:
            out.append((0, 0))
        else:  # Lambda
            out.append((full, 0))
    return out[0]


class _PointRails(dict):
    """Each variable's rails at the one valuation `v` (full = 1), looked up on first use."""

    def __init__(self, v: Valuation):
        self.v = v

    def __missing__(self, name: Atom) -> Rails:
        rails = self[name] = ((0, 0), (1, 0), (1, 1))[self.v.value_of(name)]
        return rails


def eval_formula(f: Formula, v: Valuation) -> TruthValue:
    """The value of f under v: its rails at the one valuation v, summed."""
    h, o = _rails(f, _PointRails(v), 1)
    return VALUE_ORDER[h + o]


class RailBlock(NamedTuple):
    """The valuations extending `prefix` by every value of the variables `names`."""

    prefix: Valuation
    names: tuple[Atom, ...]
    env: dict[Atom, Rails]
    full: int
    mask: int  # the positions whose valuation lies in the walked value space

    def rails(self, f: Formula) -> Rails:
        return _rails(f, self.env, self.full)

    def valuation(self, position: int) -> Valuation:
        """The valuation at bit `position`: its base-3 digits, first variable most significant."""
        digits = [VALUE_ORDER[position // 3 ** i % 3] for i in reversed(range(len(self.names)))]
        return Valuation({**self.prefix.assignments, **dict(zip(self.names, digits))})


def _rail_block(prefix: Valuation, names: tuple[Atom, ...],
                values: tuple[TruthValue, ...] = VALUE_ORDER) -> RailBlock:
    """The block over `names` into `values`, other variables fixed by `prefix`
    (a name in both takes the block's rails and keeps its prefix key order)."""
    full, mask, rails = _block_rails(len(names), values)
    constant = ((0, 0), (full, 0), (full, full))  # indexed by value
    env = {n: constant[v] for n, v in prefix.assignments.items()}
    env.update(zip(names, rails))
    return RailBlock(prefix, names, env, full, mask)


def rail_blocks(domain: Iterable[Atom],
                values: tuple[TruthValue, ...] = VALUE_ORDER) -> Iterator[RailBlock]:
    """The walk of `enumerate_valuations(domain, values)`, one block at a time.

    `enumerate_valuations` yields the prefixes lazily, in the caller's loop,
    where perfbench's tracer counts them as the caller's valuations.  Ascending
    bits are enumeration order; `mask` drops the positions holding a value
    outside `values`, so the walk keeps that order.
    """
    names = sorted(set(domain) - CONSTANT_ATOMS)
    split = max(0, len(names) - BLOCK)
    tail = tuple(names[split:])
    return (_rail_block(p, tail, values) for p in enumerate_valuations(names[:split], values))


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
