"""Constructive decompositions of ST and TS validity.

ST-validity is witnessed by a single connecting formula: the K3
disjunctive normal form of the conjoined premises, which the premises
K3-entail and which LP-entails the conclusions.  Its two rails are a
closure of the premises' strict set (`_dnf_rails`), so both component
checks of the ST product are bit tests and a membership bit builds no
formula.  Each construction decides and builds from one walk of its side
rails: the ST product reads its connector's disjuncts off the strict masks
of the walk that checks it; the lambda-free LP-then-K3 product reads its
connector's rails off the premises' in the walk that decides ST-validity;
Milne's interpolant takes its three classical reasons from one {0,1}^n
walk; `product_witness` decides the two component checks of any other
connector, each over the atoms of its own two sides.  TS-validity holds exactly when some premise is constantly
false or some conclusion constantly true; when it fails, a fresh pivot
variable refutes membership in the relative sum.  On the lambda-free
fragment the product also works with LP on the left and K3 on the right;
with lambda available, that product is universal.

The TS- product follows by inversion: Gamma => Delta is TS-antivalid
exactly when Delta => Gamma is ST-valid, so `ts_minus_product_decision` is
the ST product of the inverted inference, connector included.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .formula import (
    CONSTANT_ATOMS,
    And,
    Formula,
    Inference,
    Not,
    HashableRecord,
    Or,
    Record,
    Var,
    _set,
    atom_to_formula,
    atoms,
    atoms_of_set,
    conjoin,
    disjoin,
    fresh_variable,
    invert,
    print_formula,
    print_sequent,
    BOT,
    TOP,
    LAM,
    LAM_ATOM,
)
from .semantics import (
    HALF,
    ONE,
    ZERO,
    RailBlock,
    Valuation,
    _rail_block,
    rail_blocks,
)
from .consequence import (
    K3,
    LP,
    ST,
    TS,
    LogicStandard,
    Verdict,
    _decide,
    _hits,
    antivalid,
    is_antitheorem,
    is_theorem,
    valid,
)


class PreconditionError(ValueError):
    pass


class LambdaNotAllowedError(ValueError):
    pass


class ProductWitness(Record):
    """Connecting formula plus the two component validity checks."""

    __slots__ = __match_args__ = ("connector", "left_check", "right_check")

    def __init__(self, connector: Formula, left_check: Verdict, right_check: Verdict):
        _set(self, "connector", connector)
        _set(self, "left_check", left_check)
        _set(self, "right_check", right_check)


class DecompositionFailure(Record):
    """Non-membership, carrying the refuting valuation."""

    __slots__ = __match_args__ = ("countermodel",)

    def __init__(self, countermodel: Valuation):
        _set(self, "countermodel", countermodel)


class SumRefutation(Record):
    """Fresh pivot refuting relative-sum membership on both sides."""

    __slots__ = __match_args__ = ("pivot", "left_fail", "right_fail")

    def __init__(self, pivot: Formula, left_fail: Valuation, right_fail: Valuation):
        _set(self, "pivot", pivot)
        _set(self, "left_fail", left_fail)
        _set(self, "right_fail", right_fail)


class AlwaysZeroPremise(HashableRecord):
    __slots__ = __match_args__ = ("formula",)

    def __init__(self, formula: Formula):
        _set(self, "formula", formula)


class AlwaysOneConclusion(HashableRecord):
    __slots__ = __match_args__ = ("formula",)

    def __init__(self, formula: Formula):
        _set(self, "formula", formula)


TsSumReason = Union[AlwaysZeroPremise, AlwaysOneConclusion, SumRefutation]


class TsSumDecision(Record):
    __slots__ = __match_args__ = ("member", "reason")

    def __init__(self, member: bool, reason: TsSumReason):
        _set(self, "member", member)
        _set(self, "reason", reason)


def _strict_dnf(strict_blocks: Iterable[tuple[RailBlock, int]], literal_atoms: Iterable[str]) -> list[Formula]:
    """One conjunction of classical literals over `literal_atoms` per strict
    position of `strict_blocks`, the (block, strict mask) pairs of a
    `rail_blocks` walk into the three values, in walk order, duplicates
    removed.

    In sorted order, an atom the valuation makes 1 is a literal `p`, one it
    makes 0 is `~p`, and one at 1/2 is left out.  Each strict position is
    keyed by its literal atoms' values, read off the block position's base-3
    digits; the conjunctions are built once per distinct key."""
    literal_atoms = sorted(literal_atoms)
    literals = [(Not(f), None, f) for f in map(atom_to_formula, literal_atoms)]  # indexed by value
    keys: dict[tuple[int, ...], None] = {}
    for block, strict in strict_blocks:
        if not strict:
            continue
        base = len(block.values)
        weight = {name: base ** e for e, name in enumerate(reversed(block.names))}
        # The block's variables sort after the constants and the prefix, so their digits end each key.
        fixed = tuple(int(block.prefix.value_of(atom)) for atom in literal_atoms if atom not in weight)
        weights = [weight[atom] for atom in literal_atoms if atom in weight]
        while strict:
            lowest = strict & -strict
            position = lowest.bit_length() - 1
            keys.setdefault(fixed + tuple(position // w % base for w in weights))
            strict ^= lowest
    return [conjoin(literal[value] for literal, value in zip(literals, key) if value != HALF) for key in keys]


def k3_dnf(gamma: Iterable[Formula]) -> Formula:
    """K3 disjunctive normal form of the conjoined premises.

    One disjunct per strictly-satisfying valuation, in enumeration order,
    duplicates removed; F when no valuation strictly satisfies.
    """
    gamma = tuple(gamma)
    if not gamma:
        raise PreconditionError("gamma must be nonempty")
    domain = atoms_of_set(gamma)
    sides = [(g, 1) for g in gamma]  # the "= 1" rail
    return disjoin(_strict_dnf(((block, _hits(block, sides)) for block in rail_blocks(domain)), domain))


def _dnf_rails(gamma: tuple[Formula, ...], blocks: list[RailBlock], strict: list[int]) -> list[list[int]]:
    """Rail 0 (>= 1/2) and rail 1 (= 1) of `k3_dnf(gamma)` (T for no gamma)
    on each of `blocks`, the walk of `rail_blocks` over a domain, from
    gamma's strict set on each: the positions where every member is 1.

    A disjunct holds the literals of one strict valuation w, so the connector
    is 1 at v exactly when some w agrees with v wherever w is classical, and
    >= 1/2 when v may also be 1/2 there.  So no formula is built: each rail
    is the strict set moved once along each atom p of gamma, where w(p) = 1/2
    to any value of v(p), and on rail 0 also from a classical w(p) to 1/2.  A
    block variable of stride s moves bits by s, its 1/2, 0 and 1 masks
    selecting them; a prefix variable of stride t moves whole blocks by t,
    since `rail_blocks` walks the prefixes in base 3, first most significant."""
    first = blocks[0]
    tail = {name: 3 ** e for e, name in enumerate(reversed(first.names))}
    prefix = {name: 3 ** e for e, name in enumerate(reversed(first.prefix.assignments))}
    names = atoms_of_set(gamma)
    rails = []
    for tolerant in (True, False):
        masks = strict
        for name in names:
            if name in tail:
                s, (h, o, le, z) = tail[name], first.env[name]
                half = h & le
                masks = [m | (m & half) >> s | (m & half) << s | ((m & z) << s | (m & o) >> s if tolerant else 0)
                         for m in masks]
            elif name in prefix:
                t, moved = prefix[name], list(masks)
                for b, m in enumerate(masks):
                    digit = b // t % 3
                    if digit == 1:
                        moved[b - t] |= m
                        moved[b + t] |= m
                    elif tolerant:
                        moved[b + t if digit == 0 else b - t] |= m
                masks = moved
        rails.append(masks)
    return rails


def _k3_lp_product(premises: tuple[Formula, ...], conclusions: tuple[Formula, ...],
                   domain: Iterable[str]) -> Optional[tuple[list[RailBlock], list[int]]]:
    """Whether premises => conclusions is in K3+ | LP+ through the K3-DNF
    connector C of the premises, on C's rails (`_dnf_rails`): no position
    where every premise is 1 and C is not (K3+ of premises => C), and none
    where C >= 1/2 and every conclusion is 0 (LP+ of C => conclusions).
    When it is, the walk's blocks and the premises' strict mask on each, the
    positions where every premise is 1; None when it is not.

    A strict position is its own disjunct, so C is 1 there: one where every
    conclusion is 0 fails the LP check at once, before any block is closed."""
    premise_sides, conclusion_sides = [(g, 1) for g in premises], [(d, 3) for d in conclusions]  # = 1, = 0
    blocks, strict, falsified = [], [], []
    for block in rail_blocks(domain):
        positions, zero = _hits(block, premise_sides), _hits(block, conclusion_sides)
        if positions & zero:
            return None
        blocks.append(block)
        strict.append(positions)
        falsified.append(zero)
    tolerant, exact = _dnf_rails(premises, blocks, strict)
    if any(s & ~e or t & z for s, t, e, z in zip(strict, tolerant, exact, falsified)):
        return None
    return blocks, strict


def _check_failed(connector: Formula, inf: Inference) -> RuntimeError:
    return RuntimeError(f"connector {print_formula(connector)} fails a component check of {print_sequent(inf)}")


def product_witness(
    inf: Inference, connector: Formula, left: LogicStandard, right: LogicStandard
) -> ProductWitness:
    """`connector` with the checks `valid(left, premises => connector)` and
    `valid(right, connector => conclusions)`, both of which must hold.  Each
    is decided on the formula tuples over the atoms of its own two sides, so
    a connector on the shared atoms costs two walks of 3^|sides| rather than
    one of their product, and it is never printed unless a check fails.
    This serves the universal lambda witness and `interpolate`'s Milne
    check; the K3-DNF connector is checked on its closure rails
    (`_k3_lp_product`), the lambda-free LP-then-K3 connectors on rails read
    off the premises'."""
    connector_atoms = atoms_of_set((connector,))
    premises, conclusions = inf.premises, inf.conclusions
    left_check = _decide(left, premises, (connector,), atoms_of_set(premises) | connector_atoms, False)
    right_check = _decide(right, (connector,), conclusions, connector_atoms | atoms_of_set(conclusions), False)
    if not (left_check.valid and right_check.valid):
        raise _check_failed(connector, inf)
    return ProductWitness(connector, left_check, right_check)


def st_connecting_formula(inf: Inference) -> Union[ProductWitness, DecompositionFailure]:
    """Product witness for ST-validity: K3 to the connector, LP onward.

    The connector is T for an empty premise side, otherwise the K3-DNF of
    the premises.  One walk (`_k3_lp_product`) decides the product and runs
    both checks on the connector's rails, so they hold without a
    countermodel; the connector's disjuncts are read off the strict masks
    that walk holds, where the atoms the premises do not mention are 0,
    since the strict set does not depend on them.  When the product fails,
    `valid(ST)` gives the failure's countermodel.
    """
    premises = inf.premises
    walked = _k3_lp_product(premises, inf.conclusions, inf.atoms())
    if walked is None:
        verdict = valid(ST, inf)
        if not verdict.valid:
            return DecompositionFailure(verdict.countermodel)
        raise _check_failed(k3_dnf(premises) if premises else TOP, inf)
    if not premises:
        return ProductWitness(TOP, Verdict(True), Verdict(True))
    literal_atoms = atoms_of_set(premises)
    unmentioned = inf.atoms() - literal_atoms - CONSTANT_ATOMS
    strict_blocks = []
    for block, strict in zip(*walked):
        for name in unmentioned:
            strict &= block.env[name][3]  # = 0
        strict_blocks.append((block, strict))
    return ProductWitness(disjoin(_strict_dnf(strict_blocks, literal_atoms)), Verdict(True), Verdict(True))


def _constant_witness(inf: Inference) -> Optional[Union[AlwaysZeroPremise, AlwaysOneConclusion]]:
    """The first premise that is 0, else the first conclusion that is 1, at all-1/2.

    The all-1/2 valuation lies below every other, so a classical value there
    is constant; TS-validity holds exactly when there is such a formula.
    """
    half = _rail_block(Valuation(dict.fromkeys(inf.variables(), HALF)), ())  # all-1/2 only
    for g in inf.premises:
        if half.rail(g, 0) == 0:  # not >= 1/2
            return AlwaysZeroPremise(g)
    for d in inf.conclusions:
        if half.rail(d, 1) == 1:  # = 1
            return AlwaysOneConclusion(d)
    return None


def ts_sum_decision(inf: Inference) -> TsSumDecision:
    """Membership in the relative sum characterizing TS-validity.

    A member owes its validity to a constantly-false premise or a
    constantly-true conclusion; a non-member is refuted by a fresh pivot
    variable set to 0 and to 1 atop a TS-falsifying valuation.
    """
    witness = _constant_witness(inf)
    if witness is not None:
        return TsSumDecision(True, witness)
    base = valid(TS, inf).countermodel
    pivot_name = fresh_variable(inf.atoms())
    refutation = SumRefutation(
        pivot=Var(pivot_name),
        left_fail=base.with_assignment(pivot_name, ZERO),
        right_fail=base.with_assignment(pivot_name, ONE),
    )
    return TsSumDecision(False, refutation)


def lp_k3_product_universal_witness(inf: Inference) -> ProductWitness:
    """The constant lambda connects any inference in the LP-then-K3 product."""
    return product_witness(inf, LAM, LP, K3)


def lp_k3_connector_lambda_free(inf: Inference) -> Union[ProductWitness, DecompositionFailure]:
    """LP-then-K3 product witness on the lambda-free fragment.

    The connector is F when the premises are jointly LP-unsatisfiable, T
    when every valuation makes some conclusion strictly true, otherwise
    the conjoined premises together with excluded middle over every atom
    of the conclusions.

    One walk of the three values decides it: the checks LP+ of premises
    => C and K3+ of C => conclusions run on C's rails.  Those of F and T
    are constant; the conjunction is >= 1/2 where every premise is, and 1
    where every premise is 1 and every variable of the conclusions is
    classical.  The product implies ST-validity, so an inference that is
    not ST-valid fails a check, and `valid(ST)` then gives the failure's
    countermodel.
    """
    if LAM_ATOM in inf.atoms():
        raise LambdaNotAllowedError(
            "lambda-free construction; the full language is handled by the "
            "universal lambda witness"
        )
    premises, conclusions = inf.premises, inf.conclusions
    conclusion_atoms = atoms_of_set(conclusions)
    witness = _constant_witness(inf)
    if isinstance(witness, AlwaysZeroPremise):
        connector: Formula = BOT
    elif isinstance(witness, AlwaysOneConclusion):
        connector = TOP
    else:
        tautologies = [Or(atom_to_formula(a), Not(atom_to_formula(a))) for a in sorted(conclusion_atoms)]
        connector = And(conjoin(premises), conjoin(tautologies))
    classical = conclusion_atoms - CONSTANT_ATOMS  # a constant's excluded middle is 1
    tolerant_sides, strict_sides = [(g, 0) for g in premises], [(g, 1) for g in premises]  # >= 1/2, = 1
    below_one_sides = [(d, 2) for d in conclusions]  # <= 1/2
    for block in rail_blocks(inf.atoms()):
        tolerant = _hits(block, tolerant_sides)
        if witness is None:
            at_least_half, one = tolerant, _hits(block, strict_sides)
            for name in classical:
                _, is_one, _, is_zero = block.env[name]
                one &= is_one | is_zero
        else:
            at_least_half, one = block.rail(connector, 0), block.rail(connector, 1)
        if tolerant & ~at_least_half or one and one & _hits(block, below_one_sides):
            break
    else:
        return ProductWitness(connector, Verdict(True), Verdict(True))
    verdict = valid(ST, inf)
    if not verdict.valid:
        return DecompositionFailure(verdict.countermodel)
    raise _check_failed(connector, inf)


class MilneFailure(Record):
    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: str):  # one of: lambda-present, invalid-inference, contradiction, tautology
        _set(self, "reason", reason)


def milne_interpolant(phi: Formula, psi: Formula) -> Union[Formula, MilneFailure]:
    """Interpolant for a classically valid single-premise inference.

    Same construction as the K3-DNF connector, with each disjunct's
    literals restricted to the atoms shared by both sides; a disjunct with
    no remaining literals becomes T.  The result is K3-entailed by `phi`
    and LP-entails `psi`.  One walk of {0,1}^n over the atoms of both
    sides gives the classical reasons to refuse, in this order: an invalid
    inference, a contradictory `phi`, a tautologous `psi`; a walk of the
    three values over the atoms of `phi` then gives its strict masks.
    """
    phi_atoms, psi_atoms = atoms(phi), atoms(psi)
    if LAM_ATOM in phi_atoms | psi_atoms:
        return MilneFailure("lambda-present")
    # Without lambda, classical validity is ST-validity, which walks only {0,1}^n.
    satisfiable = falsifiable = False
    for block in rail_blocks(phi_atoms | psi_atoms, (ZERO, ONE)):
        phi_one, psi_one = block.rail(phi, 1), block.rail(psi, 1)
        if phi_one & ~psi_one:
            return MilneFailure("invalid-inference")
        satisfiable = satisfiable or phi_one != 0
        falsifiable = falsifiable or psi_one != block.full
    if not satisfiable:
        return MilneFailure("contradiction")
    if not falsifiable:
        return MilneFailure("tautology")

    strict_blocks = ((block, block.rail(phi, 1)) for block in rail_blocks(phi_atoms))
    disjuncts = _strict_dnf(strict_blocks, phi_atoms & psi_atoms)
    if not disjuncts:
        raise RuntimeError(f"classically satisfiable premise {print_formula(phi)} has no strict valuation")
    return disjoin(disjuncts)


def st_minus_sum_decision(inf: Inference) -> bool:
    """Membership in the sum of K3- and LP-antivalidities (= ST-antivalidity)."""
    return antivalid(ST, inf).valid


def ts_minus_product_decision(inf: Inference) -> Union[ProductWitness, DecompositionFailure]:
    """Membership in the product of LP- and K3-antivalidities (= TS-antivalidity).

    Gamma => Delta is in TS- = LP- | K3- exactly when Delta => Gamma is in
    ST+ = K3+ | LP+, through the same connector, so this is the ST product of
    the inverted inference.  A witness's connector is T for no conclusions,
    else the K3-DNF of the conclusions; its `left_check` is K3+ of
    Delta => C and its `right_check` LP+ of C => Gamma.  A failure carries
    the TS-antivalidity countermodel.
    """
    return st_connecting_formula(invert(inf))


def sum_equals_antitheorems_plus_theorems(logic_left, logic_right, inf: Inference) -> bool:
    """Decision procedure for membership in the relative sum of two logics.

    The sum extracts the antitheorems of the first operand and the
    theorems of the second.
    """
    return is_antitheorem(logic_left, inf.premises) or is_theorem(logic_right, inf.conclusions)
