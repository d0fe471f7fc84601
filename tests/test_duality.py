from unittest import mock

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import mixcons
from mixcons import decomposition, formula, semantics
from mixcons.formula import (
    And,
    Inference,
    Not,
    Or,
    Var,
    conjoin,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)
from mixcons.consequence import K3, LP, ST, TS, STANDARDS, LogicStandard, antivalid, valid
from mixcons.decomposition import ProductWitness, st_connecting_formula, ts_minus_product_decision
from mixcons.duality import (
    ROUTES,
    UnknownRouteError,
    direct_membership,
    dual_set_membership,
    invert,
    neg_dual_inference,
    op_dual,
    op_dual_inference,
    op_dual_sides,
)

from conftest import formulas, inferences, variable_names, wide_inferences
import oracles


class TestOperationalDual:
    def test_worked_example(self):
        assert op_dual(parse_formula("p & (q | ~q)")) == parse_formula("p | (q & ~q)")

    def test_constants(self):
        assert op_dual(parse_formula("T")) == parse_formula("F")
        assert op_dual(parse_formula("F")) == parse_formula("T")
        assert op_dual(parse_formula("L")) == parse_formula("L")

    @given(formulas)
    def test_involutive(self, f):
        assert op_dual(op_dual(f)) == f

    def test_deep_formulas_without_recursion(self):
        left = right = Var("p0")
        for i in range(1, 20000):
            left, right = And(left, Not(Var(f"p{i}"))), Or(Var(f"p{i}"), Not(right))
        for f in (left, right):
            assert print_formula(op_dual(f)) == print_formula(f).translate(str.maketrans("&|", "|&"))

    def test_inference_map_swaps_sides(self):
        assert op_dual_inference(parse_sequent("p & q => r")) == parse_sequent("r => p | q")
        assert op_dual_inference(parse_sequent("=> T")) == parse_sequent("F =>")

    @given(inferences)
    def test_inference_map_involutive(self, inf):
        assert op_dual_inference(op_dual_inference(inf)) == inf

    @given(inferences)
    def test_map_and_swap_commute(self, inf):
        assert op_dual_inference(inf) == invert(op_dual_sides(inf))
        assert op_dual_inference(inf) == op_dual_sides(invert(inf))


class TestNegationDual:
    def test_definition_instance(self):
        assert neg_dual_inference(parse_sequent("p => q")) == parse_sequent("~q => ~p")

    def test_empty_side(self):
        assert neg_dual_inference(parse_sequent("=> p")) == parse_sequent("~p =>")

    def test_no_double_negation_elimination(self):
        twice = neg_dual_inference(neg_dual_inference(parse_sequent("p => q")))
        assert twice == parse_sequent("~~p => ~~q")

    @given(inferences)
    def test_agrees_with_operational_dual(self, inf):
        neg = neg_dual_inference(inf)
        dual = op_dual_inference(inf)
        for logic in STANDARDS.values():
            assert valid(logic, neg).valid == valid(logic, dual).valid

    @given(inferences)
    def test_st_ts_negation_self_dual(self, inf):
        neg = neg_dual_inference(inf)
        assert valid(ST, inf).valid == valid(ST, neg).valid
        assert valid(TS, inf).valid == valid(TS, neg).valid


class TestInvert:
    def test_swap(self):
        assert invert(parse_sequent("p => q")) == parse_sequent("q => p")
        assert invert(parse_sequent("=> p, q")) == parse_sequent("p, q =>")

    @given(inferences)
    def test_involutive(self, inf):
        assert invert(invert(inf)) == inf

    @given(inferences)
    def test_agrees_with_the_normalising_constructor(self, inf):
        inverse, built = invert(inf), Inference(inf.conclusions, inf.premises)
        assert inverse == built
        assert hash(inverse) == hash(built)
        assert repr(inverse) == repr(built)
        assert print_sequent(inverse) == print_sequent(built)
        assert inverse.atoms() == built.atoms()
        assert inverse.variables() == built.variables()

    def test_home_and_reexports(self):
        assert mixcons.invert is invert is formula.invert


class TestOperationalDualityPropositions:
    @given(inferences)
    def test_k3_lp_duality(self, inf):
        dual = op_dual_inference(inf)
        assert valid(K3, inf).valid == valid(LP, dual).valid
        assert valid(LP, inf).valid == valid(K3, dual).valid

    @given(inferences)
    def test_st_ts_self_duality(self, inf):
        dual = op_dual_inference(inf)
        assert valid(ST, inf).valid == valid(ST, dual).valid
        assert valid(TS, inf).valid == valid(TS, dual).valid


# The oracle's corrupted ST (TS's sets under ST's name) is not one of the four
# standards: its inverse swaps its own sets, not ST's.
CORRUPTED_ST = LogicStandard("ST", TS.premise_designated, TS.conclusion_designated)
INVERSES = (
    (K3, K3), (LP, LP), (ST, TS), (TS, ST),
    (CORRUPTED_ST, LogicStandard("ST", CORRUPTED_ST.conclusion_designated, CORRUPTED_ST.premise_designated)),
)


class TestStructuralDuality:
    @given(wide_inferences)
    def test_valid_iff_inverse_antivalid(self, inf):
        """Gamma => Delta is X-antivalid exactly when Delta => Gamma is valid
        in X with its two sets swapped, with the same countermodel in the same
        key order (`Valuation` equality ignores the order).  A `BLOCK` of 2
        makes the walks cross blocks and chunks."""
        inverse = invert(inf)
        for block in (2, semantics.BLOCK):
            with mock.patch.object(semantics, "BLOCK", block):
                for logic, dual in INVERSES:
                    anti, direct = antivalid(logic, inf), valid(dual, inverse)
                    assert anti == direct
                    if anti.countermodel is not None:
                        assert list(anti.countermodel.assignments) == list(direct.countermodel.assignments)


class TestRoutes:
    def test_route_inventory(self):
        assert len(ROUTES) == 16
        assert "K3+=~LP-" in ROUTES and "TS-=LP-|~LP+" in ROUTES

    def test_fixed_examples(self):
        assert dual_set_membership("K3+", parse_sequent("p & q => p"), "K3+=~LP-")
        assert dual_set_membership(
            "ST+", parse_sequent("p | (q & ~q) => p & (q | ~q)"), "ST+=~TS-"
        )
        for route in ("TS+=~ST-", "TS+=~K3-+K3+", "TS+=LP++~LP-"):
            assert not dual_set_membership("TS+", parse_sequent("p => p"), route)

    def test_unknown_route_rejected(self):
        with pytest.raises(UnknownRouteError):
            dual_set_membership("K3+", parse_sequent("p => p"), "K3+=nonsense")
        with pytest.raises(UnknownRouteError):
            dual_set_membership("LP+", parse_sequent("p => p"), "K3+=~LP-")

    @given(inferences)
    def test_all_sixteen_routes_agree_with_direct_computation(self, inf):
        for route in ROUTES:
            target = route.split("=", 1)[0]
            assert dual_set_membership(target, inf, route) == direct_membership(target, inf)

    @pytest.mark.parametrize("block", [1, 2])
    @given(inf=wide_inferences)
    def test_all_sixteen_routes_agree_across_blocks(self, block, inf):
        """Up to 5 variables in blocks of at most 1 and 3 valuations, so every
        walk, and each product route's closure, crosses blocks."""
        with mock.patch.object(semantics, "BLOCK", block):
            for route in ROUTES:
                target = route.split("=", 1)[0]
                assert dual_set_membership(target, inf, route) == direct_membership(target, inf)
            assert isinstance(st_connecting_formula(inf), ProductWitness) == valid(ST, inf).valid
            assert isinstance(ts_minus_product_decision(inf), ProductWitness) == antivalid(TS, inf).valid


class TestProductAndSumRoutes:
    """The product routes decide on the K3-DNF connector's rails and the TS+
    sum routes by the constant test, so no route builds a formula."""

    PRODUCT_ROUTES = ("ST+=K3+|~K3-", "ST+=~LP-|LP+", "TS-=~K3+|K3-", "TS-=LP-|~LP+")
    SUM_ROUTES = ("TS+=~K3-+K3+", "TS+=LP++~LP-")

    def test_no_formula_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a route built a connector")

        monkeypatch.setattr(decomposition, "k3_dnf", refuse)
        monkeypatch.setattr(decomposition, "product_witness", refuse)
        texts = ("p | (q & ~q) => p & (q | ~q)", "p & (q | ~q) => p | (q & ~q)", "p => q", "F, p => q",
                 "q => T", "=> p | ~p", "p & ~p =>", "p => p", "L => p")
        for inf in map(parse_sequent, texts):
            for route in self.PRODUCT_ROUTES + self.SUM_ROUTES:
                target = route.split("=", 1)[0]
                assert dual_set_membership(target, inf, route) == direct_membership(target, inf)

    def test_eleven_variables_cross_a_block(self):
        """x0 sorts first, so at the default block size it is the one prefix
        variable: the closure moves x0 = 1 to x0 = 1/2 across blocks and no
        further, where the conclusion x0 is not 0."""
        x = [Var(f"x{i}") for i in range(11)]
        excluded_middle = conjoin(Or(v, Not(v)) for v in x)
        member = Inference((x[0], excluded_middle), (x[0],))
        non_member = Inference((excluded_middle,), (x[0],))
        for inf, expected in ((member, True), (non_member, False)):
            assert valid(ST, inf).valid is expected
            for route in self.PRODUCT_ROUTES:
                target = route.split("=", 1)[0]
                sequent = inf if target == "ST+" else formula.invert(inf)
                assert dual_set_membership(target, sequent, route) is expected


class TestNegatedSidesRoutes:
    """An X=~Y route decides Y on ~Gamma => ~Delta instead of building the
    pointwise dual: op_dual(f) at v is ~f at v with each value x made 1 - x."""

    DUAL_ROUTES = [route for route in ROUTES if len(route.split("=")[1]) == 4]

    def test_eight_routes(self):
        assert len(self.DUAL_ROUTES) == 8

    @given(inferences)
    @example(parse_sequent("T, p => F | L"))
    @example(parse_sequent("L => T & ~F"))
    @example(parse_sequent("F => L"))
    def test_equal_their_definition(self, inf):
        for route in self.DUAL_ROUTES:
            target, rhs = route.split("=")
            assert dual_set_membership(target, inf, route) == direct_membership(rhs[1:], op_dual_sides(inf))

    @given(formulas, st.dictionaries(variable_names, st.sampled_from(oracles.VALUES), min_size=3))
    def test_op_dual_is_negation_at_the_complement(self, f, env):
        complement = {name: 1 - value for name, value in env.items()}
        assert oracles.brute_eval(op_dual(f), env) == 1 - oracles.brute_eval(f, complement)


class TestNImageGap:
    def test_k3_validity_not_all_in_negation_image(self):
        # p & q => p is K3-valid but not of the form ~Delta => ~Gamma.
        inf = parse_sequent("p & q => p")
        assert valid(K3, inf).valid
        assert not any(isinstance(f, Not) for f in inf.premises + inf.conclusions)
