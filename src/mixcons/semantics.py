"""Strong-Kleene truth values, valuations and formula evaluation.

Truth values form the chain 0 < 1/2 < 1.  Disjunction is max, conjunction
is min, negation is the complement v -> 1 - v.  The three values are an
exact enum (internally doubled to 0, 1, 2), never floats, so the
min/max/complement identities hold on the nose.

Formulas are evaluated one way, as rails, with an explicit stack: over a
block of valuations, two big-int masks with bit p set where the p-th
valuation makes the formula >= 1/2 and where it makes it 1 (the dual-rail
encoding of Bryant & Seger, CAV 1990).  `rail_blocks` walks the |values|^n
valuations into `values` in blocks of |values|^k <= 2^BLOCK bits, one per
assignment to all but the last k variables; `eval_formula` reads rails at one
valuation.
"""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Optional

from .formula import (
    And,
    Atom,
    Bot,
    Formula,
    Not,
    Or,
    Record,
    Top,
    Var,
    _set,
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
        return _TEXT[self]


ZERO = TruthValue.ZERO
HALF = TruthValue.HALF
ONE = TruthValue.ONE

VALUE_ORDER = (ZERO, HALF, ONE)
# Complements and printed texts indexed by value: tuple lookups.
_NEGATION = (ONE, HALF, ZERO)
_TEXT = ("0", "1/2", "1")
_CONSTANT_VALUES = {TOP_ATOM: ONE, BOT_ATOM: ZERO, LAM_ATOM: HALF}


class UnmappedVariableError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not mapped and no default is set")


class Valuation(Record):
    """Finite assignment of truth values to variables.

    `default`, when present, applies to every unmapped variable, turning
    the finite map into a total valuation.  Constants are never stored;
    they evaluate fixedly.  Read-only; leave the `assignments` dict as built.
    """

    __slots__ = __match_args__ = ("assignments", "default")

    def __init__(self, assignments: Optional[dict[str, TruthValue]] = None,
                 default: Optional[TruthValue] = None):
        _set(self, "assignments", {} if assignments is None else assignments)
        _set(self, "default", default)

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


BLOCK = 16  # a block holds at most 2^BLOCK valuations: 16 variables into two values, 10 into three

Rails = tuple[int, int]  # (value >= 1/2, value = 1), bit p for the p-th valuation of a block


@functools.cache
def block_width(base: int, bits: int) -> int:
    """The most variables k with base^k <= 2^bits: a block's width into `base` values."""
    k = 0
    while k < bits and base ** (k + 1) <= 1 << bits:
        k += 1
    return k


@functools.cache
def _block_rails(k: int, values: tuple[TruthValue, ...]) -> tuple[int, tuple[Rails, ...]]:
    """All positions and each variable's rails for k variables: base-|values| digit d means `values[d]`."""
    full, rails = 1, ()
    for _ in range(k):
        # A new first variable takes values[d] on the d-th of |values| equal parts; the others repeat.
        shifts = [d * full.bit_length() for d in range(len(values))]
        first = tuple(sum(full << s for s, v in zip(shifts, values) if v >= least) for least in (HALF, ONE))
        rails = (first, *((sum(h << s for s in shifts), sum(o << s for s in shifts)) for h, o in rails))
        full = sum(full << s for s in shifts)
    return full, rails


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
    values: tuple[TruthValue, ...]
    env: dict[Atom, Rails]
    full: int  # every position: one bit per valuation of the block

    def rails(self, f: Formula) -> Rails:
        return _rails(f, self.env, self.full)

    def valuation(self, position: int) -> Valuation:
        """The valuation at bit `position`: its base-|values| digits, first variable most significant."""
        values, base = self.values, len(self.values)
        digits = []
        for _ in self.names:  # least significant digit first
            position, digit = divmod(position, base)
            digits.append(values[digit])
        assignments = self.prefix.assignments.copy()
        assignments.update(zip(self.names, reversed(digits)))
        return Valuation(assignments)


def _rail_block(prefix: Valuation, names: tuple[Atom, ...],
                values: tuple[TruthValue, ...] = VALUE_ORDER) -> RailBlock:
    """The block over `names` into `values`, other variables fixed by `prefix`
    (a name in both takes the block's rails and keeps its prefix key order)."""
    full, rails = _block_rails(len(names), values)
    env = dict(zip(names, rails))
    if prefix.assignments:
        constant = ((0, 0), (full, 0), (full, full))  # indexed by value
        env = {**{n: constant[v] for n, v in prefix.assignments.items()}, **env}
    return RailBlock(prefix, names, values, env, full)


def rail_blocks(domain: Iterable[Atom],
                values: tuple[TruthValue, ...] = VALUE_ORDER) -> Iterator[RailBlock]:
    """The walk of `enumerate_valuations(domain, values)`, one block at a time.

    A block takes the last k sorted variables, the most with |values|^k <=
    2^BLOCK (`block_width`).  `enumerate_valuations` yields the prefixes
    lazily, in the caller's loop, where perfbench's tracer counts them as the
    caller's valuations.  Each block's ascending bits are enumeration order,
    so the walk keeps that order.
    """
    names = sorted(set(domain) - CONSTANT_ATOMS)
    split = max(0, len(names) - block_width(len(values), BLOCK))
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
