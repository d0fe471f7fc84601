import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import mixcons
from mixcons import formula
from mixcons.formula import (
    And,
    Inference,
    Not,
    Or,
    Var,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)
from mixcons.consequence import K3, LP, ST, TS, STANDARDS, antivalid, valid
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

from conftest import formulas, inferences, variable_names
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


class TestStructuralDuality:
    @given(inferences)
    def test_valid_iff_inverse_antivalid(self, inf):
        inverse = invert(inf)
        assert valid(ST, inf).valid == antivalid(TS, inverse).valid
        assert valid(TS, inf).valid == antivalid(ST, inverse).valid
        assert valid(K3, inf).valid == antivalid(K3, inverse).valid
        assert valid(LP, inf).valid == antivalid(LP, inverse).valid


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
