import itertools
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from mixcons import consequence, decomposition, semantics
from mixcons.formula import (
    CONSTANT_ATOMS,
    And,
    Inference,
    Not,
    Or,
    Var,
    atom_to_formula,
    atoms,
    atoms_of_set,
    conjoin,
    disjoin,
    parse_formula,
    parse_sequent,
    print_formula,
    BOT,
    LAM,
    TOP,
)
from mixcons.semantics import HALF, ONE, ZERO, Valuation
from mixcons.consequence import K3, LP, ST, TS, Verdict, antivalid, classically_valid, valid
from mixcons.decomposition import (
    AlwaysOneConclusion,
    AlwaysZeroPremise,
    DecompositionFailure,
    LambdaNotAllowedError,
    MilneFailure,
    PreconditionError,
    ProductWitness,
    SumRefutation,
    k3_dnf,
    lp_k3_connector_lambda_free,
    lp_k3_product_universal_witness,
    milne_interpolant,
    product_witness,
    st_connecting_formula,
    st_minus_sum_decision,
    sum_equals_antitheorems_plus_theorems,
    ts_minus_product_decision,
    ts_sum_decision,
)
from mixcons.duality import invert
from mixcons.oracle import PropertyResult

from conftest import (
    inferences,
    lambda_free_formulas,
    lambda_free_inferences,
    satisfies,
    wide_formulas,
    wide_inferences,
)
import oracles
from oracles import brute_equivalent

MIXED_EXAMPLE = parse_sequent("p | (q & ~q) => p & (q | ~q)")
PRINTED_CONNECTOR = parse_formula("(p & q) | (p & ~q) | p")


def _brute_constant(f, value) -> bool:
    """`f` takes `value` under every environment of its variables."""
    names = sorted(oracles.formula_vars(f))
    return all(
        oracles.brute_eval(f, dict(zip(names, combo))) == value
        for combo in itertools.product(oracles.VALUES, repeat=len(names))
    )


def _last_error_without_asserts(code: str) -> str:
    """The last stderr line of `code` run in a `python -O` child, which must exit 1."""
    src = os.path.dirname(os.path.dirname(decomposition.__file__))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1
    return done.stderr.splitlines()[-1]


class TestK3Dnf:
    def test_known_connector_up_to_equivalence(self):
        dnf = k3_dnf((parse_formula("p | (q & ~q)"),))
        assert brute_equivalent(dnf, PRINTED_CONNECTOR)

    def test_unsatisfiable_premises(self):
        assert k3_dnf((parse_formula("p & ~p"),)) == BOT

    def test_single_atom(self):
        assert k3_dnf((Var("p"),)) == Var("p")

    def test_empty_premises_rejected(self):
        with pytest.raises(PreconditionError):
            k3_dnf(())

    @given(st.lists(lambda_free_formulas, min_size=1, max_size=2))
    def test_equivalence_lemma(self, gamma):
        gamma = tuple(gamma)
        dnf = k3_dnf(gamma)
        assert valid(K3, Inference(gamma, (dnf,))).valid
        from mixcons.formula import conjoin

        assert valid(K3, Inference((dnf,), (conjoin(gamma),))).valid


class TestProductWitness:
    def test_failed_check_names_the_connector(self):
        with pytest.raises(RuntimeError, match="connector q fails a component check of p => p"):
            product_witness(parse_sequent("p => p"), Var("q"), K3, LP)
        with pytest.raises(RuntimeError, match="connector p fails a component check of p => q"):
            product_witness(parse_sequent("p => q"), Var("p"), K3, LP)  # only the right check fails

    @given(inferences)
    def test_checks_equal_validity(self, inf):
        """Each check is `valid` of the inference it stands for, countermodel
        field included: the ST product's K3 then LP, the lambda witness's LP then K3."""
        for outcome, left, right in ((st_connecting_formula(inf), K3, LP),
                                     (lp_k3_product_universal_witness(inf), LP, K3)):
            if isinstance(outcome, ProductWitness):
                connector = outcome.connector
                assert outcome.left_check == valid(left, Inference(inf.premises, (connector,)))
                assert outcome.right_check == valid(right, Inference((connector,), inf.conclusions))

    @given(lambda_free_inferences)
    @example(parse_sequent("F & p => q"))  # connector F
    @example(parse_sequent("p => q | T"))  # connector T
    @example(MIXED_EXAMPLE)  # a conjunction
    def test_lambda_free_checks_equal_validity(self, inf):
        outcome = lp_k3_connector_lambda_free(inf)
        if isinstance(outcome, ProductWitness):
            connector = outcome.connector
            assert outcome.left_check == valid(LP, Inference(inf.premises, (connector,)))
            assert outcome.right_check == valid(K3, Inference((connector,), inf.conclusions))


class TestStProduct:
    def test_worked_example(self):
        witness = st_connecting_formula(MIXED_EXAMPLE)
        assert isinstance(witness, ProductWitness)
        assert brute_equivalent(witness.connector, PRINTED_CONNECTOR)
        assert witness.left_check.valid and witness.right_check.valid

    def test_empty_premises_use_top(self):
        witness = st_connecting_formula(parse_sequent("=> p | ~p"))
        assert isinstance(witness, ProductWitness)
        assert witness.connector == TOP

    def test_failure_case(self):
        inf = parse_sequent("p | ~p => p & ~p")
        outcome = st_connecting_formula(inf)
        assert isinstance(outcome, DecompositionFailure)
        # first failing valuation in enumeration order
        assert outcome.countermodel.assignments == {"p": ZERO}
        assert not satisfies(ST, outcome.countermodel, inf)

    def test_connector_failing_its_rails_raises(self, monkeypatch):
        """An empty rail 1 fails the K3 check at every strict position."""
        closure = decomposition._dnf_rails
        monkeypatch.setattr(decomposition, "_dnf_rails",
                            lambda gamma, blocks, strict: [closure(gamma, blocks, strict)[0], [0] * len(blocks)])
        with pytest.raises(RuntimeError, match="connector p fails a component check of p => p"):
            st_connecting_formula(parse_sequent("p => p"))

    def test_connector_failing_its_rails_raises_without_asserts(self):
        code = (
            "from mixcons import decomposition as d, formula\n"
            "closure = d._dnf_rails\n"
            "d._dnf_rails = lambda gamma, blocks, strict: [closure(gamma, blocks, strict)[0], [0] * len(blocks)]\n"
            "d.st_connecting_formula(formula.parse_sequent('p => p'))\n"
        )
        assert _last_error_without_asserts(code) == "RuntimeError: connector p fails a component check of p => p"

    @given(inferences)
    def test_theorem(self, inf):
        outcome = st_connecting_formula(inf)
        if valid(ST, inf).valid:
            assert isinstance(outcome, ProductWitness)
            connector = outcome.connector
            assert valid(K3, Inference(inf.premises, (connector,))).valid
            assert valid(LP, Inference((connector,), inf.conclusions)).valid
        else:
            assert isinstance(outcome, DecompositionFailure)
            assert not satisfies(ST, outcome.countermodel, inf)


class TestTsSum:
    def test_constant_false_premise(self):
        decision = ts_sum_decision(parse_sequent("p & F => q"))
        assert decision.member
        assert isinstance(decision.reason, AlwaysZeroPremise)
        assert print_formula(decision.reason.formula) == "p & F"

    def test_constant_true_conclusion(self):
        decision = ts_sum_decision(parse_sequent("=> q | T"))
        assert decision.member
        assert isinstance(decision.reason, AlwaysOneConclusion)

    def test_disguised_constant_false_premise(self):
        decision = ts_sum_decision(parse_sequent("(p | F) & ~(p | T), q => r"))
        assert decision.member
        assert isinstance(decision.reason, AlwaysZeroPremise)
        assert print_formula(decision.reason.formula) == "(p | F) & ~(p | T)"

    def test_refutation_for_reflexivity(self):
        decision = ts_sum_decision(parse_sequent("p => p"))
        assert not decision.member
        refutation = decision.reason
        assert isinstance(refutation, SumRefutation)
        assert refutation.pivot == Var("p0")
        assert refutation.left_fail.assignments == {"p": HALF, "p0": ZERO}
        assert refutation.right_fail.assignments == {"p": HALF, "p0": ONE}

    @given(inferences)
    def test_theorem(self, inf):
        decision = ts_sum_decision(inf)
        assert decision.member == valid(TS, inf).valid
        if decision.member:
            # The witness is the first constant formula in side order:
            # premises checked for 0, then conclusions checked for 1.
            zero_premises = [g for g in inf.premises if _brute_constant(g, oracles.ZERO)]
            one_conclusions = [d for d in inf.conclusions if _brute_constant(d, oracles.ONE)]
            if zero_premises:
                assert decision.reason == AlwaysZeroPremise(zero_premises[0])
            else:
                assert decision.reason == AlwaysOneConclusion(one_conclusions[0])
        else:
            refutation = decision.reason
            left = Inference(inf.premises, (refutation.pivot,))
            right = Inference((refutation.pivot,), inf.conclusions)
            assert not satisfies(LP, refutation.left_fail, left)
            assert not satisfies(K3, refutation.right_fail, right)


class TestLpK3Product:
    def test_universal_lambda_witness(self):
        for text in ("T => F", "p => q", "=>"):
            witness = lp_k3_product_universal_witness(parse_sequent(text))
            assert witness.connector == LAM
            assert witness.left_check.valid and witness.right_check.valid

    def test_lambda_free_main_case(self):
        witness = lp_k3_connector_lambda_free(MIXED_EXAMPLE)
        assert isinstance(witness, ProductWitness)
        expected = parse_formula("(p | (q & ~q)) & (p | ~p) & (q | ~q)")
        assert brute_equivalent(witness.connector, expected)

    def test_lambda_free_bot_case(self):
        witness = lp_k3_connector_lambda_free(parse_sequent("F & p => q"))
        assert isinstance(witness, ProductWitness)
        assert witness.connector == BOT

    def test_lambda_free_disguised_bot_case(self):
        witness = lp_k3_connector_lambda_free(parse_sequent("(p | F) & ~(p | T) => q"))
        assert isinstance(witness, ProductWitness)
        assert witness.connector == BOT

    def test_lambda_free_disguised_top_case(self):
        witness = lp_k3_connector_lambda_free(parse_sequent("p => ~(q & F) & (r | T)"))
        assert isinstance(witness, ProductWitness)
        assert witness.connector == TOP

    def test_lambda_free_top_case(self):
        witness = lp_k3_connector_lambda_free(parse_sequent("p => q | T"))
        assert isinstance(witness, ProductWitness)
        assert witness.connector == TOP

    def test_lambda_rejected(self):
        with pytest.raises(LambdaNotAllowedError):
            lp_k3_connector_lambda_free(parse_sequent("T => L"))

    # A wrong constant witness picks F, which fails the LP check of p => F,
    # or T, which fails the K3 check of T => p.
    FORCED = [("AlwaysZeroPremise", "premises", "F"), ("AlwaysOneConclusion", "conclusions", "T")]

    @pytest.mark.parametrize("witness, side, connector", FORCED)
    def test_connector_failing_its_rails_raises(self, monkeypatch, witness, side, connector):
        monkeypatch.setattr(decomposition, "_constant_witness",
                            lambda inf: getattr(decomposition, witness)(getattr(inf, side)[0]))
        with pytest.raises(RuntimeError, match=f"connector {connector} fails a component check of p => p"):
            lp_k3_connector_lambda_free(parse_sequent("p => p"))

    @pytest.mark.parametrize("witness, side, connector", FORCED)
    def test_connector_failing_its_rails_raises_without_asserts(self, witness, side, connector):
        code = (
            "from mixcons import decomposition as d, formula\n"
            f"d._constant_witness = lambda inf: d.{witness}(inf.{side}[0])\n"
            "d.lp_k3_connector_lambda_free(formula.parse_sequent('p => p'))\n"
        )
        assert _last_error_without_asserts(code) == (
            f"RuntimeError: connector {connector} fails a component check of p => p")

    def test_product_witness_check_raises_without_asserts(self):
        code = (
            "from mixcons import consequence as c, decomposition as d, formula\n"
            "d.product_witness(formula.parse_sequent('p => q'), formula.BOT, c.LP, c.K3)\n"
        )
        assert _last_error_without_asserts(code) == "RuntimeError: connector F fails a component check of p => q"

    @given(lambda_free_inferences)
    def test_succeeds_exactly_on_st_validity(self, inf):
        outcome = lp_k3_connector_lambda_free(inf)
        if valid(ST, inf).valid:
            assert isinstance(outcome, ProductWitness)
            connector = outcome.connector
            assert valid(LP, Inference(inf.premises, (connector,))).valid
            assert valid(K3, Inference((connector,), inf.conclusions)).valid
        else:
            assert isinstance(outcome, DecompositionFailure)


class TestMilne:
    def test_worked_example(self):
        phi = parse_formula("p | (q & ~q)")
        psi = parse_formula("p & (r | ~r)")
        assert milne_interpolant(phi, psi) == Var("p")

    def test_shared_atom_collapse(self):
        assert milne_interpolant(parse_formula("p & q"), Var("p")) == Var("p")

    def test_tautology_rejected(self):
        outcome = milne_interpolant(Var("p"), parse_formula("q | ~q"))
        assert isinstance(outcome, MilneFailure)
        assert outcome.reason == "tautology"

    def test_contradiction_rejected(self):
        outcome = milne_interpolant(parse_formula("p & ~p"), Var("q"))
        assert isinstance(outcome, MilneFailure)
        assert outcome.reason == "contradiction"

    def test_invalid_inference_rejected(self):
        outcome = milne_interpolant(Var("p"), Var("q"))
        assert isinstance(outcome, MilneFailure)
        assert outcome.reason == "invalid-inference"

    def test_lambda_rejected(self):
        outcome = milne_interpolant(LAM, Var("p"))
        assert isinstance(outcome, MilneFailure)
        assert outcome.reason == "lambda-present"

    def test_missing_strict_valuation_names_the_premise(self, monkeypatch):
        monkeypatch.setattr(decomposition, "_strict_dnf", lambda strict_blocks, literal_atoms: [])
        with pytest.raises(RuntimeError, match=r"premise p & q has no strict valuation"):
            milne_interpolant(parse_formula("p & q"), Var("p"))

    @given(lambda_free_formulas, lambda_free_formulas)
    def test_interpolant_properties(self, phi, psi):
        outcome = milne_interpolant(phi, psi)
        if isinstance(outcome, MilneFailure):
            return
        assert atoms(outcome) <= (atoms(phi) & atoms(psi)) | {"T", "F"}
        assert valid(K3, Inference((phi,), (outcome,))).valid
        assert valid(LP, Inference((outcome,), (psi,))).valid


def _brute_strict_dnf(gamma, literal_atoms):
    """The K3-DNF construction over `oracles` environments: one conjunction of
    classical literals per environment making all of gamma 1, first-seen order."""
    names = sorted(set().union(*map(oracles.formula_vars, gamma)))
    constants = {"T": oracles.ONE, "F": oracles.ZERO, "L": oracles.HALF}
    disjuncts = {}
    for combo in itertools.product(oracles.VALUES, repeat=len(names)):
        env = dict(zip(names, combo))
        if all(oracles.brute_eval(g, env) == oracles.ONE for g in gamma):
            values = {a: env.get(a, constants.get(a)) for a in sorted(literal_atoms)}
            literals = [atom_to_formula(a) if x == oracles.ONE else Not(atom_to_formula(a))
                        for a, x in values.items() if x != oracles.HALF]
            disjuncts.setdefault(conjoin(literals))
    return disjoin(disjuncts)


def _brute_classically_valid(inf):
    names = sorted(set().union(*map(oracles.formula_vars, inf.premises + inf.conclusions)))
    for combo in itertools.product((oracles.ZERO, oracles.ONE), repeat=len(names)):
        env = dict(zip(names, combo))
        premises = [oracles.brute_eval(g, env) for g in inf.premises]
        conclusions = [oracles.brute_eval(d, env) for d in inf.conclusions]
        if all(x == oracles.ONE for x in premises) and oracles.ONE not in conclusions:
            return False
    return True


def _brute_milne(phi, psi):
    if "L" in atoms(phi) | atoms(psi):
        return MilneFailure("lambda-present")
    if not _brute_classically_valid(Inference((phi,), (psi,))):
        return MilneFailure("invalid-inference")
    if _brute_classically_valid(Inference((), (Not(phi),))):
        return MilneFailure("contradiction")
    if _brute_classically_valid(Inference((), (psi,))):
        return MilneFailure("tautology")
    return _brute_strict_dnf((phi,), atoms(phi) & atoms(psi))


def _disjuncts(f) -> int:
    """How many disjuncts a left-nested disjunction of conjunctions has."""
    count = 1
    while type(f) is Or:
        f, count = f.left, count + 1
    return count


class TestDeepConnectors:
    """Connectors with about a thousand disjuncts nest far past Python's
    recursion limit.  They are built, both component checks hold, and they
    print; the inputs are built without the parser."""

    def test_seven_variable_interpolant(self):
        x = [Var(f"x{i}") for i in range(7)]
        phi = Not(And(And(x[2], Not(Or(x[0], x[1]))), And(And(x[5], x[6]), Or(x[4], x[3]))))
        psi = Or(phi, x[4])
        interpolant = milne_interpolant(phi, psi)
        assert _disjuncts(interpolant) == 1931
        witness = product_witness(Inference((phi,), (psi,)), interpolant, K3, LP)
        assert witness.left_check.valid and witness.right_check.valid
        text = print_formula(interpolant)
        assert print_formula(parse_formula(text)) == text

    def test_ten_variable_st_product(self):
        x = [Var(f"x{i}") for i in range(10)]
        excluded_middle = [Or(v, Not(v)) for v in x]
        witness = st_connecting_formula(Inference((conjoin(excluded_middle),), (excluded_middle[0],)))
        assert isinstance(witness, ProductWitness)
        assert witness.left_check.valid and witness.right_check.valid
        assert _disjuncts(witness.connector) == 2 ** 10
        first = " & ".join(f"~x{i}" for i in range(10))
        assert print_formula(witness.connector).startswith(first + " | ")


class TestBlockBoundary:
    """The strict-valuation scans and the classical walk, with blocks smaller
    than the formulas, against brute force."""

    @pytest.mark.parametrize("block", [1, 2])
    @given(gamma=st.lists(wide_formulas, min_size=1, max_size=3))
    def test_k3_dnf(self, block, gamma):
        with mock.patch.object(semantics, "BLOCK", block):
            assert k3_dnf(gamma) == _brute_strict_dnf(gamma, atoms_of_set(gamma))

    @pytest.mark.parametrize("block", [1, 2, semantics.BLOCK])
    @settings(deadline=None)  # the Fraction walk of a connector with up to 3^5 disjuncts
    @given(gamma=st.lists(wide_formulas, max_size=3), extra=wide_formulas)
    def test_closure_rails(self, block, gamma, extra):
        """The rails `_dnf_rails` closes from the strict set are those of the
        built connector at every valuation, over a domain that may hold
        variables of `extra` the connector does not mention."""
        gamma = tuple(gamma)
        connector = k3_dnf(gamma) if gamma else TOP
        domain = atoms_of_set(gamma + (extra,))
        with mock.patch.object(semantics, "BLOCK", block):
            blocks = list(semantics.rail_blocks(domain))
            strict = [b.rail(conjoin(gamma), 1) for b in blocks]
            tolerant, exact = decomposition._dnf_rails(gamma, blocks, strict)
        seen = 0
        for b, rail0, rail1 in zip(blocks, tolerant, exact):
            for p in range(b.full.bit_length()):
                env = {name: Fraction(int(value), 2) for name, value in b.valuation(p).assignments.items()}
                value = oracles.brute_eval(connector, env)
                assert (rail0 >> p & 1, rail1 >> p & 1) == (value >= oracles.HALF, value == oracles.ONE)
                seen += 1
        assert seen == 3 ** len(domain - CONSTANT_ATOMS)

    @pytest.mark.parametrize("block", [1, 2])
    @given(phi=lambda_free_formulas, psi=lambda_free_formulas)
    def test_milne_interpolant(self, block, phi, psi):
        with mock.patch.object(semantics, "BLOCK", block):
            for conclusion in (psi, Or(phi, psi)):
                assert milne_interpolant(phi, conclusion) == _brute_milne(phi, conclusion)

    @pytest.mark.parametrize("block", [1, 2])
    @given(inf=wide_inferences)
    def test_classically_valid(self, block, inf):
        with mock.patch.object(semantics, "BLOCK", block):
            assert classically_valid(inf) == _brute_classically_valid(inf)


def _oracle_milne_reason(phi, psi):
    """The first reason Milne's construction refuses a lambda-free pair, by
    the `Fraction` ST checks (classical validity without lambda); None if none."""
    if not oracles.brute_valid("ST", Inference((phi,), (psi,))):
        return "invalid-inference"
    if oracles.brute_valid("ST", Inference((), (Not(phi),))):
        return "contradiction"
    if oracles.brute_valid("ST", Inference((), (psi,))):
        return "tautology"
    return None


class TestSharedWalks:
    """Each construction decides and builds from one walk of its side rails,
    at block sizes that split the walk into many prefix blocks and at the default."""

    @pytest.mark.parametrize("block", [1, 2, semantics.BLOCK])
    @given(gamma=st.lists(wide_formulas, min_size=1, max_size=3), extra=wide_formulas)
    def test_st_connector_is_the_k3_dnf(self, block, gamma, extra):
        """The conclusions may mention atoms the premises lack, sorting before,
        between or after theirs; the inference is ST-valid by its first conclusion."""
        inf = Inference(tuple(gamma), (Or(conjoin(gamma), extra), extra))
        expected = k3_dnf(inf.premises)
        with mock.patch.object(semantics, "BLOCK", block):
            witness = st_connecting_formula(inf)
        assert witness == ProductWitness(expected, Verdict(True), Verdict(True))

    @pytest.mark.parametrize("block", [1, 2, semantics.BLOCK])
    @given(inf=lambda_free_inferences)
    @example(inf=MIXED_EXAMPLE)
    @example(inf=parse_sequent("p, ~p => q"))
    def test_lp_k3_witness_exactly_when_its_component_checks_hold(self, block, inf):
        """The component checks are decided by `valid` on the two inferences."""

        def checks_hold(connector):
            return (valid(LP, Inference(inf.premises, (connector,))).valid
                    and valid(K3, Inference((connector,), inf.conclusions)).valid)

        with mock.patch.object(semantics, "BLOCK", block):
            outcome = lp_k3_connector_lambda_free(inf)
        if isinstance(outcome, ProductWitness):
            assert outcome == ProductWitness(outcome.connector, Verdict(True), Verdict(True))
            assert checks_hold(outcome.connector)
            return
        excluded_middle = conjoin(Or(atom_to_formula(a), Not(atom_to_formula(a)))
                                  for a in sorted(atoms_of_set(inf.conclusions)))
        assert not any(checks_hold(c) for c in (BOT, TOP, And(conjoin(inf.premises), excluded_middle)))
        expected = valid(ST, inf).countermodel
        assert list(outcome.countermodel.assignments.items()) == list(expected.assignments.items())

    @pytest.mark.parametrize("block", [1, 2, semantics.BLOCK])
    @given(phi=lambda_free_formulas, psi=lambda_free_formulas)
    @example(phi=parse_formula("p & ~p"), psi=parse_formula("q | ~q"))  # contradiction, not tautology
    def test_milne_reasons_match_the_fraction_checks(self, block, phi, psi):
        with mock.patch.object(semantics, "BLOCK", block):
            outcome = milne_interpolant(phi, psi)
        reason = _oracle_milne_reason(phi, psi)
        if reason is None:
            assert not isinstance(outcome, MilneFailure)
        else:
            assert outcome == MilneFailure(reason)

    def _count_walks(self, monkeypatch) -> list:
        walks = []
        walk = semantics.rail_blocks

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(decomposition, "rail_blocks", counted)
        return walks

    @staticmethod
    def _refuse(*args):
        raise AssertionError("a second walk")

    def test_st_member_walks_once(self, monkeypatch):
        walks = self._count_walks(monkeypatch)
        monkeypatch.setattr(decomposition, "valid", self._refuse)
        monkeypatch.setattr(decomposition, "k3_dnf", self._refuse)
        witness = st_connecting_formula(parse_sequent("p | (q & ~q) => p & (r | ~r)"))
        assert isinstance(witness, ProductWitness) and len(walks) == 1

    def test_lp_k3_member_walks_once(self, monkeypatch):
        walks = self._count_walks(monkeypatch)
        monkeypatch.setattr(decomposition, "valid", self._refuse)
        monkeypatch.setattr(decomposition, "product_witness", self._refuse)
        assert isinstance(lp_k3_connector_lambda_free(MIXED_EXAMPLE), ProductWitness) and len(walks) == 1

    def test_milne_makes_no_decision(self, monkeypatch):
        walks = self._count_walks(monkeypatch)
        monkeypatch.setattr(consequence, "_decide", self._refuse)
        assert milne_interpolant(parse_formula("p | (q & ~q)"), parse_formula("p & (r | ~r)")) == Var("p")
        assert len(walks) == 2  # the classical reasons, then the strict masks


class TestAntivalidityDecompositions:
    def test_st_minus_examples(self):
        assert st_minus_sum_decision(parse_sequent("q => p & F"))
        assert not st_minus_sum_decision(parse_sequent("p => p"))
        assert not st_minus_sum_decision(parse_sequent("F => T"))

    def test_ts_minus_member_with_connector(self):
        inf = parse_sequent("p & (q | ~q) => p | (q & ~q)")
        result = ts_minus_product_decision(inf)
        assert isinstance(result, ProductWitness)
        assert brute_equivalent(result.connector, PRINTED_CONNECTOR)
        # The ST witness of the inverse: K3+ of Delta => C, then LP+ of C => Gamma.
        assert result.left_check == valid(K3, Inference(inf.conclusions, (result.connector,)))
        assert result.right_check == valid(LP, Inference((result.connector,), inf.premises))
        assert result.left_check.valid and result.right_check.valid

    def test_ts_minus_non_members(self):
        for text in ("p & ~p => p | ~p", "F => T", "r, q => p"):
            inf = parse_sequent(text)
            result = ts_minus_product_decision(inf)
            assert isinstance(result, DecompositionFailure)
            expected = antivalid(TS, inf).countermodel
            assert result.countermodel == expected
            assert list(result.countermodel.assignments) == list(expected.assignments)

    @given(inferences)
    def test_ts_minus_matches_antivalidity(self, inf):
        result = ts_minus_product_decision(inf)
        verdict = antivalid(TS, inf)
        assert isinstance(result, ProductWitness) == verdict.valid
        if isinstance(result, ProductWitness):
            connector = result.connector
            assert antivalid(LP, Inference(inf.premises, (connector,))).valid
            assert antivalid(K3, Inference((connector,), inf.conclusions)).valid
        else:
            assert result.countermodel == verdict.countermodel
            assert list(result.countermodel.assignments) == list(verdict.countermodel.assignments)

    @given(inferences)
    def test_st_minus_matches_antivalidity(self, inf):
        assert st_minus_sum_decision(inf) == antivalid(ST, inf).valid


class TestSumExtraction:
    def test_examples(self):
        assert sum_equals_antitheorems_plus_theorems(K3, LP, parse_sequent("p & ~p => q"))
        assert sum_equals_antitheorems_plus_theorems(K3, LP, parse_sequent("=> p | ~p"))
        assert not sum_equals_antitheorems_plus_theorems(LP, K3, parse_sequent("p => p"))

    @given(inferences)
    def test_k3_lp_sum_equals_st_facts(self, inf):
        from mixcons.consequence import is_antitheorem, is_theorem

        by_sum = sum_equals_antitheorems_plus_theorems(K3, LP, inf)
        by_st = is_antitheorem(ST, inf.premises) or is_theorem(ST, inf.conclusions)
        assert by_sum == by_st


def _relations(universe):
    pairs = list(itertools.product(universe, repeat=2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        yield frozenset(pair for pair, bit in zip(pairs, bits) if bit)


def _rel_product(r, s, universe, middles):
    return frozenset(
        (x, z)
        for x in universe
        for z in universe
        if any((x, y) in r and (y, z) in s for y in middles)
    )


def _rel_sum(r, s, universe, middles):
    return frozenset(
        (x, z)
        for x in universe
        for z in universe
        if all((x, y) in r or (y, z) in s for y in middles)
    )


class TestAbstractProductSumDuality:
    """De Morgan duality of relative product and sum, checked exhaustively
    on all relations over a two-element universe."""

    def test_duality_and_inverse_laws(self):
        universe = (0, 1)
        full = frozenset(itertools.product(universe, repeat=2))
        middle_sets = [(0,), (1,), (0, 1)]
        rels = list(_relations(universe))
        for r in rels:
            for s in rels:
                for middles in middle_sets:
                    product = _rel_product(r, s, universe, middles)
                    sum_ = _rel_sum(r, s, universe, middles)
                    assert product == full - _rel_sum(full - r, full - s, universe, middles)
                    assert sum_ == full - _rel_product(full - r, full - s, universe, middles)
                    inv = lambda rel: frozenset((y, x) for x, y in rel)
                    assert inv(product) == _rel_product(inv(s), inv(r), universe, middles)
                    assert inv(sum_) == _rel_sum(inv(s), inv(r), universe, middles)


class TestRecords:
    """Result records keep the constructors, equality and repr of the dataclasses they replace."""

    def test_keyword_construction(self):
        v = Valuation({}, default=HALF)
        assert (v.assignments, v.default) == ({}, HALF)
        assert Valuation().assignments == {} and Valuation().default is None
        verdict = Verdict(valid=False, countermodel=v)
        assert (verdict.valid, verdict.countermodel) == (False, v)
        assert Verdict(True).countermodel is None

    def test_equality_over_fields(self):
        p = Var("p")
        v = Valuation({"p": ONE})
        assert Verdict(False, v) == Verdict(False, Valuation({"p": ONE}))
        assert Verdict(False, v) != Verdict(False, Valuation({"p": ZERO}))
        assert Verdict(True) != Verdict(False)
        assert AlwaysOneConclusion(p) == AlwaysOneConclusion(Var("p"))
        assert AlwaysOneConclusion(p) != AlwaysZeroPremise(p)
        assert hash(AlwaysOneConclusion(p)) == hash((p,))
        assert PropertyResult("a", 3, False, "x") == PropertyResult("a", 3, False, counterexample="x")
        assert PropertyResult("a", 3, True) != PropertyResult("a", 3, True, "x")

    def test_repr(self):
        assert repr(Verdict(True)) == "Verdict(valid=True, countermodel=None)"
        assert repr(PropertyResult("a", 3, True)) == (
            "PropertyResult(name='a', samples=3, passed=True, counterexample=None)")

    def test_valuation_and_verdict_are_read_only(self):
        v = Valuation({"p": ONE})
        verdict = Verdict(False, v)
        for obj, field in ((v, "assignments"), (v, "default"), (verdict, "valid"), (verdict, "countermodel")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
        with pytest.raises(TypeError):
            hash(v)  # it holds a dict
        with pytest.raises(TypeError):
            hash(Verdict(True))
