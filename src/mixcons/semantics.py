"""Strong-Kleene truth values, valuations and formula evaluation.

Truth values form the chain 0 < 1/2 < 1.  Disjunction is max, conjunction
is min, negation is the complement v -> 1 - v.  The three values are an
exact enum (internally doubled to 0, 1, 2), never floats, so the
min/max/complement identities hold on the nose.

Formulas are evaluated one way, as rails, with an explicit stack: over a
block of valuations, a big-int mask with bit p set where the p-th valuation
makes the formula >= 1/2 (rail 0) or makes it 1 (rail 1), the dual-rail
encoding of Bryant & Seger, CAV 1990.  A decision tests each formula against
one designated set, so each evaluation computes one rail.  Negations are
pushed to the leaves: under an odd number of them & and | swap (De Morgan)
and a variable's negated rails are read, rails 2 and 3 (<= 1/2 and = 0).
`rail_blocks` walks the |values|^n valuations into `values` in blocks of
|values|^k <= 2^BLOCK bits, one per assignment to all but the last k
variables; `eval_formula` reads both rails at one valuation.
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
    Lambda,
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

# A variable's rails, bit p for the p-th valuation of a block: value >= 1/2 and
# value = 1, then the same two of its negation (value <= 1/2 and value = 0).
Rails = tuple[int, int, int, int]


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
    return full, tuple((h, o, full ^ o, full ^ h) for h, o in rails)


def _constant_rails(full: int) -> tuple[Rails, ...]:
    """The rails of a variable fixed at each value, indexed by value."""
    return (0, 0, full, full), (full, 0, full, 0), (full, full, 0, 0)


def _rail(f: Formula, env: dict[Atom, Rails], full: int, rail: int) -> int:
    """One rail of f given each variable's: 0 (>= 1/2) or 1 (= 1); 2 and 3
    are those rails of ~f.

    No recursion: `todo` holds formulas, each above the rail it is asked
    for, and, as markers, the connectives whose operands are already on
    `out`.  Negations are pushed to the leaves: ~ asks its operand for the
    rail of the negation (rail ^ 2), so an odd number of enclosing ~ ask
    for rail 2 or 3, which swaps & and | (De Morgan) and reads a variable's
    negated rails and a constant's complement."""
    out: list[int] = []
    todo: list = [rail, f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is Var:
            out.append(env[g.name][todo.pop()])
        elif kind is type:  # both operands' rails are on `out`
            right = out.pop()
            out.append(out.pop() & right if g is And else out.pop() | right)
        elif kind is Not:
            todo[-1] ^= 2
            todo.append(g.sub)
        elif kind is And or kind is Or:
            rail = todo.pop()
            todo += (kind if rail < 2 else _DE_MORGAN[kind], rail, g.right, rail, g.left)
        else:  # a constant
            out.append(_CONSTANT_RAILS[kind][todo.pop()] & full)
    return out[0]


_DE_MORGAN = {And: Or, Or: And}
# A constant's rails are a fixed variable's at every position: -1, all ones, cut to `full`.
_CONSTANT_RAILS = dict(zip((Bot, Lambda, Top), _constant_rails(-1)))


class _PointRails(dict):
    """Each variable's rails at the one valuation `v` (full = 1), looked up on first use."""

    def __init__(self, v: Valuation):
        self.v = v

    def __missing__(self, name: Atom) -> Rails:
        rails = self[name] = _constant_rails(1)[self.v.value_of(name)]
        return rails


def eval_formula(f: Formula, v: Valuation) -> TruthValue:
    """The value of f under v: its two rails at the one valuation v, summed."""
    env = _PointRails(v)
    return VALUE_ORDER[_rail(f, env, 1, 0) + _rail(f, env, 1, 1)]


class RailBlock(NamedTuple):
    """The valuations extending `prefix` by every value of the variables `names`."""

    prefix: Valuation
    names: tuple[Atom, ...]
    values: tuple[TruthValue, ...]
    env: dict[Atom, Rails]
    full: int  # every position: one bit per valuation of the block

    def rail(self, f: Formula, rail: int) -> int:
        return _rail(f, self.env, self.full, rail)

    def rails(self, f: Formula) -> tuple[int, int]:
        """(value >= 1/2, value = 1), one rail at a time."""
        return self.rail(f, 0), self.rail(f, 1)

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
        constant = _constant_rails(full)
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
