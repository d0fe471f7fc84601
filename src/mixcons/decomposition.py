"""Constructive decompositions of ST and TS validity.

ST-validity is witnessed by a single connecting formula: the K3
disjunctive normal form of the conjoined premises, which the premises
K3-entail and which LP-entails the conclusions.  `product_witness` runs
and checks the two component decisions of every product.  TS-validity holds
exactly when some premise is constantly false or some conclusion
constantly true; when it fails, a fresh pivot variable refutes membership
in the relative sum.  On the lambda-free fragment the product also works
with LP on the left and K3 on the right; with lambda available, that
product is universal.

The TS- product follows by inversion: Gamma => Delta is TS-antivalid
exactly when Delta => Gamma is ST-valid, so `ts_minus_product_decision` is
the ST product of the inverted inference, connector included.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .formula import (
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


def _strict_dnf(gamma: tuple[Formula, ...], domain: Iterable[str], literal_atoms: Iterable[str]) -> list[Formula]:
    """One conjunction of classical literals over `literal_atoms` per valuation
    of `domain`, the atoms of gamma, making every member of gamma 1, in
    enumeration order, duplicates removed.

    In sorted order, an atom the valuation makes 1 is a literal `p`, one it
    makes 0 is `~p`, and one at 1/2 is left out.  Each strict position is
    keyed by its literal atoms' values, read off the block position's base-3
    digits; the conjunctions are built once per distinct key."""
    literal_atoms = sorted(literal_atoms)
    literals = [(Not(f), None, f) for f in map(atom_to_formula, literal_atoms)]  # indexed by value
    keys: dict[tuple[int, ...], None] = {}
    for block in rail_blocks(domain):
        strict = block.full
        for g in gamma:
            strict &= block.rail(g, 1)  # the "= 1" rail
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
    return disjoin(_strict_dnf(gamma, domain, domain))


def product_witness(
    inf: Inference, connector: Formula, left: LogicStandard, right: LogicStandard
) -> ProductWitness:
    """`connector` with the checks `valid(left, premises => connector)` and
    `valid(right, connector => conclusions)`, both of which must hold.  Each
    is decided on the formula tuples over the atoms of its two sides, so the
    connector is walked once and never printed unless a check fails."""
    connector_atoms = atoms_of_set((connector,))
    premises, conclusions = inf.premises, inf.conclusions
    left_check = _decide(left, premises, (connector,), atoms_of_set(premises) | connector_atoms, False)
    right_check = _decide(right, (connector,), conclusions, connector_atoms | atoms_of_set(conclusions), False)
    if not (left_check.valid and right_check.valid):
        raise RuntimeError(
            f"connector {print_formula(connector)} fails a component check of {print_sequent(inf)}"
        )
    return ProductWitness(connector, left_check, right_check)


def st_connecting_formula(inf: Inference) -> Union[ProductWitness, DecompositionFailure]:
    """Product witness for ST-validity: K3 to the connector, LP onward.

    The connector is T for an empty premise side, otherwise the K3-DNF of
    the premises.  Returns a failure with the ST countermodel when the
    inference is not ST-valid.
    """
    verdict = valid(ST, inf)
    if not verdict.valid:
        return DecompositionFailure(verdict.countermodel)
    connector = TOP if not inf.premises else k3_dnf(inf.premises)
    return product_witness(inf, connector, K3, LP)


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
    """
    if LAM_ATOM in inf.atoms():
        raise LambdaNotAllowedError(
            "lambda-free construction; the full language is handled by the "
            "universal lambda witness"
        )
    verdict = valid(ST, inf)
    if not verdict.valid:
        return DecompositionFailure(verdict.countermodel)

    witness = _constant_witness(inf)
    if isinstance(witness, AlwaysZeroPremise):
        connector: Formula = BOT
    elif isinstance(witness, AlwaysOneConclusion):
        connector = TOP
    else:
        tautologies = [
            Or(atom_to_formula(a), Not(atom_to_formula(a)))
            for a in sorted(atoms_of_set(inf.conclusions))
        ]
        connector = And(conjoin(inf.premises), conjoin(tautologies))
    return product_witness(inf, connector, LP, K3)


class MilneFailure(Record):
    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: str):  # one of: lambda-present, invalid-inference, contradiction, tautology
        _set(self, "reason", reason)


def milne_interpolant(phi: Formula, psi: Formula) -> Union[Formula, MilneFailure]:
    """Interpolant for a classically valid single-premise inference.

    Same construction as the K3-DNF connector, with each disjunct's
    literals restricted to the atoms shared by both sides; a disjunct with
    no remaining literals becomes T.  The result is K3-entailed by `phi`
    and LP-entails `psi`.
    """
    phi_atoms, psi_atoms = atoms(phi), atoms(psi)
    if LAM_ATOM in phi_atoms | psi_atoms:
        return MilneFailure("lambda-present")
    # Without lambda, classical validity is ST-validity, which walks only {0,1}^n.
    if not _decide(ST, (phi,), (psi,), phi_atoms | psi_atoms, False).valid:
        return MilneFailure("invalid-inference")
    if _decide(ST, (), (Not(phi),), phi_atoms, False).valid:
        return MilneFailure("contradiction")
    if _decide(ST, (), (psi,), psi_atoms, False).valid:
        return MilneFailure("tautology")

    disjuncts = _strict_dnf((phi,), phi_atoms, phi_atoms & psi_atoms)
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
