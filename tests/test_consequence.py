from fractions import Fraction
from typing import Iterable
from unittest import mock

import pytest
from hypothesis import given, settings

from mixcons.formula import (
    BOT,
    LAM,
    TOP,
    Formula,
    Inference,
    Not,
    Var,
    atom_to_formula,
    atoms,
    atoms_of_set,
    fresh_variable,
    parse_formula,
    parse_sequent,
)
from mixcons import semantics
from mixcons.semantics import HALF, ONE, ZERO, Valuation, enumerate_valuations, eval_formula
from mixcons.consequence import (
    K3,
    LP,
    ST,
    STANDARDS,
    TS,
    LogicStandard,
    antisatisfies,
    antivalid,
    classically_valid,
    is_antitheorem,
    is_theorem,
    satisfies,
    valid,
    verdict_record,
)

from conftest import formulas, inferences, lambda_free_inferences, wide_inferences
from oracles import brute_antivalid, brute_first_countermodel, brute_valid

MIXED_EXAMPLE = parse_sequent("p | (q & ~q) => p & (q | ~q)")


def is_trivial_theorem_or_antitheorem(formulas: Iterable[Formula]) -> bool:
    """True iff some member takes the same value under every valuation."""
    for f in formulas:
        values = {eval_formula(f, v) for v in enumerate_valuations(atoms(f))}
        if len(values) == 1:
            return True
    return False


def _sample_pool(formulas: Iterable[Formula]) -> tuple[list[Formula], Formula]:
    """Bounded formula sample over the atoms of `formulas`, plus a fresh variable."""
    ats = sorted(atoms_of_set(formulas))
    fresh = Var(fresh_variable(ats))
    pool: list[Formula] = [TOP, BOT, LAM, fresh]
    for a in ats:
        f = atom_to_formula(a)
        pool.append(f)
        pool.append(Not(f))
    return pool, fresh


def antitheorem_equivalences_hold(logic: LogicStandard, gamma: Iterable[Formula]) -> bool:
    """Oracle: the four standard characterizations of antitheoremhood agree.

    The universally quantified clauses (all conclusion sets, all single
    conclusions) are checked on a bounded sample that includes a fresh
    variable; for designated-value logics the fresh-variable clause is
    equivalent to the universal ones, so the sample decides correctly.
    """
    gamma = tuple(gamma)
    c_antitheorem = is_antitheorem(logic, gamma)
    pool, fresh = _sample_pool(gamma)
    delta_samples: list[tuple[Formula, ...]] = [(), (fresh,), tuple(pool)]
    delta_samples += [(phi,) for phi in pool]
    c_all_sets = all(valid(logic, Inference(gamma, d)).valid for d in delta_samples)
    c_all_formulas = all(valid(logic, Inference(gamma, (phi,))).valid for phi in pool)
    c_fresh = valid(logic, Inference(gamma, (fresh,))).valid
    return len({c_antitheorem, c_all_sets, c_all_formulas, c_fresh}) == 1


def theorem_equivalences_hold(logic: LogicStandard, delta: Iterable[Formula]) -> bool:
    """Symmetric oracle for the theorem characterizations."""
    delta = tuple(delta)
    c_theorem = is_theorem(logic, delta)
    pool, fresh = _sample_pool(delta)
    gamma_samples: list[tuple[Formula, ...]] = [(), (fresh,), tuple(pool)]
    gamma_samples += [(phi,) for phi in pool]
    c_all_sets = all(valid(logic, Inference(g, delta)).valid for g in gamma_samples)
    c_all_formulas = all(valid(logic, Inference((phi,), delta)).valid for phi in pool)
    c_fresh = valid(logic, Inference((fresh,), delta)).valid
    return len({c_theorem, c_all_sets, c_all_formulas, c_fresh}) == 1


class TestSatisfaction:
    def test_k3_failure_point(self):
        v = Valuation({"p": ONE, "q": HALF})
        assert not satisfies(K3, v, MIXED_EXAMPLE)

    def test_lp_failure_point(self):
        v = Valuation({"p": ZERO, "q": HALF})
        assert not satisfies(LP, v, MIXED_EXAMPLE)

    def test_empty_inference_never_satisfied(self):
        empty = Inference((), ())
        v = Valuation({})
        for logic in STANDARDS.values():
            assert not satisfies(logic, v, empty)
            assert not antisatisfies(logic, v, empty)


class TestValidity:
    def test_mixed_example_st_valid(self):
        assert valid(ST, MIXED_EXAMPLE).valid

    def test_mixed_example_k3_invalid_with_countermodel(self):
        verdict = valid(K3, MIXED_EXAMPLE)
        assert not verdict.valid
        assert verdict.countermodel.assignments == {"p": ONE, "q": HALF}

    def test_mixed_example_lp_invalid_with_countermodel(self):
        verdict = valid(LP, MIXED_EXAMPLE)
        assert not verdict.valid
        assert verdict.countermodel.assignments == {"p": ZERO, "q": HALF}

    def test_ts_irreflexivity(self):
        verdict = valid(TS, parse_sequent("p => p"))
        assert not verdict.valid
        assert verdict.countermodel.assignments == {"p": HALF}

    def test_excluded_middle_by_logic(self):
        lem = parse_sequent("=> p | ~p")
        assert not valid(K3, lem).valid
        assert valid(LP, lem).valid
        assert valid(ST, lem).valid
        assert not valid(TS, lem).valid

    def test_st_non_transitivity(self):
        assert valid(ST, parse_sequent("T => L")).valid
        assert valid(ST, parse_sequent("L => F")).valid
        assert not valid(ST, parse_sequent("T => F")).valid

    @given(inferences)
    def test_agrees_with_independent_evaluator(self, inf):
        for name, logic in STANDARDS.items():
            assert valid(logic, inf).valid == brute_valid(name, inf)

    @given(inferences)
    def test_countermodels_reverify(self, inf):
        for logic in STANDARDS.values():
            verdict = valid(logic, inf)
            if not verdict.valid:
                assert not satisfies(logic, verdict.countermodel, inf)

    @given(lambda_free_inferences)
    def test_st_is_classical_without_lambda(self, inf):
        assert valid(ST, inf).valid == classically_valid(inf)


class TestAntivalidity:
    def test_lp_antivalid_example(self):
        assert antivalid(LP, parse_sequent("p => p & q")).valid

    def test_st_antivalidity_fails_at_all_half(self):
        verdict = antivalid(ST, parse_sequent("p => p & q"))
        assert not verdict.valid
        assert verdict.countermodel.assignments == {"p": HALF, "q": HALF}

    def test_ts_antivalid_reflexive(self):
        assert antivalid(TS, parse_sequent("p => p")).valid

    @given(inferences)
    def test_agrees_with_independent_evaluator(self, inf):
        for name, logic in STANDARDS.items():
            assert antivalid(logic, inf).valid == brute_antivalid(name, inf)

    @given(inferences)
    def test_countermodels_reverify(self, inf):
        for logic in STANDARDS.values():
            verdict = antivalid(logic, inf)
            if not verdict.valid:
                assert not antisatisfies(logic, verdict.countermodel, inf)


def _decide_like_brute(name, inf, anti):
    """(verdict, countermodel as name -> Fraction) from the library."""
    verdict = (antivalid if anti else valid)(STANDARDS[name], inf)
    if verdict.countermodel is None:
        return verdict.valid, None
    return verdict.valid, {k: Fraction(int(v), 2) for k, v in verdict.countermodel.assignments.items()}


def _assert_brute_force_walk(inf, modes):
    for name, anti in modes:
        expected = brute_first_countermodel(name, inf, anti)
        assert _decide_like_brute(name, inf, anti) == (expected is None, expected)


MODES = [(name, anti) for name in ("K3", "LP", "ST", "TS") for anti in (False, True)]
MISSING_VARIABLE_SEQUENTS = [
    "p, q => r", "T, p => q & F | r", "~(q & r) | L, p => s", "p & q, q & r => r | s, p",
    "s, ~p => (q | ~r) & p", "p => T, q", "F | p, ~q | r => q & ~s", "r & ~r, p => p",
]


class TestFirstCountermodel:
    """ST/TS search only 2^n or n + 1 valuations; the answer must be the 3^n walk's."""

    @settings(max_examples=200)
    @given(wide_inferences)
    def test_matches_brute_force_walk(self, inf):
        _assert_brute_force_walk(inf, MODES)

    @pytest.mark.parametrize("text", ["=>", "T => F", "L => L", "L =>", "=> L", "T, L => F", "F => L", "L => T"])
    @pytest.mark.parametrize("name,anti", MODES)
    def test_no_variables(self, text, name, anti):
        inf = parse_sequent(text)
        expected = brute_first_countermodel(name, inf, anti)
        assert _decide_like_brute(name, inf, anti) == (expected is None, expected)
        if expected is not None:
            assert expected == {}

    @pytest.mark.parametrize("text", ["p => q & L", "p | L => q", "p, q | L => ~q", "q, r => L & p, ~r"])
    def test_st_with_lambda_first_countermodel_is_classical(self, text):
        inf = parse_sequent(text)
        verdict = valid(ST, inf)
        assert not verdict.valid
        assert HALF not in verdict.countermodel.assignments.values()
        expected = brute_first_countermodel("ST", inf)
        assert _decide_like_brute("ST", inf, False) == (False, expected)

    def test_st_lambda_example(self):
        verdict = valid(ST, parse_sequent("p => q & L"))
        assert verdict.countermodel.assignments == {"p": ONE, "q": ZERO}

    @pytest.mark.parametrize("text", ["p & F =>", "=> q | T", "p & ~(q | T) =>", "=> ~(p & F)"])
    def test_ts_valid_with_an_empty_side(self, text):
        inf = parse_sequent(text)
        assert valid(TS, inf).valid
        assert brute_valid("TS", inf)

    def test_ts_invalid_with_an_empty_side(self):
        assert valid(TS, parse_sequent("p, q =>")).countermodel.assignments == {"p": HALF, "q": HALF}
        assert valid(TS, parse_sequent("=> p | ~q")).countermodel.assignments == {"p": ZERO, "q": HALF}

    @pytest.mark.parametrize("text", MISSING_VARIABLE_SEQUENTS)
    @pytest.mark.parametrize("name,anti", MODES)
    def test_formulas_missing_some_variables(self, text, name, anti):
        inf = parse_sequent(text)
        expected = brute_first_countermodel(name, inf, anti)
        assert _decide_like_brute(name, inf, anti) == (expected is None, expected)

    def test_disguised_constantly_false_premise(self):
        inf = parse_sequent("(p | F) & ~(p | T), q => r")
        assert valid(TS, inf).valid
        assert brute_valid("TS", inf)
        assert antivalid(ST, Inference(inf.conclusions, inf.premises)).valid


class TestBlockBoundary:
    """The walks go a block of valuations at a time.  With blocks of one or
    two variables, the sequents above also walk prefixes and decode a
    prefix plus a block position into the countermodel."""

    @pytest.mark.parametrize("block", [1, 2])
    @settings(max_examples=200)
    @given(inf=wide_inferences)
    def test_matches_brute_force_walk(self, block, inf):
        with mock.patch.object(semantics, "BLOCK", block):
            _assert_brute_force_walk(inf, MODES)

    @pytest.mark.parametrize("text", MISSING_VARIABLE_SEQUENTS)
    @pytest.mark.parametrize("block", [1, 2])
    def test_formulas_missing_some_variables(self, block, text, monkeypatch):
        monkeypatch.setattr(semantics, "BLOCK", block)
        _assert_brute_force_walk(parse_sequent(text), MODES)

    @pytest.mark.parametrize("name", ["K3", "LP"])
    def test_first_countermodel_past_the_first_block(self, name):
        inf = parse_sequent(" | ".join(f"x{i}" for i in range(1, 9)) + " => ~x0")
        assert len(inf.variables()) > semantics.BLOCK
        expected = brute_first_countermodel(name, inf)
        assert expected["x0"] != 0
        assert _decide_like_brute(name, inf, False) == (False, expected)


class TestTheorems:
    def test_antitheorem_examples(self):
        contradiction = (parse_formula("p & ~p"),)
        assert is_antitheorem(K3, contradiction)
        assert not is_antitheorem(LP, contradiction)
        assert is_antitheorem(LP, (parse_formula("p & F"),))

    def test_theorem_examples(self):
        lem = (parse_formula("p | ~p"),)
        assert is_theorem(LP, lem)
        assert not is_theorem(K3, lem)
        assert is_theorem(K3, (parse_formula("q | T"),))

    def test_trivial_constancy(self):
        assert is_trivial_theorem_or_antitheorem((parse_formula("p & F"),))
        assert not is_trivial_theorem_or_antitheorem((parse_formula("p | ~p"),))
        assert is_trivial_theorem_or_antitheorem((parse_formula("L"),))

    def test_equivalence_oracles_on_fixed_cases(self):
        assert antitheorem_equivalences_hold(K3, (parse_formula("p & ~p"),))
        assert antitheorem_equivalences_hold(LP, (Var("p"),))
        assert antitheorem_equivalences_hold(ST, (parse_formula("F"),))
        assert theorem_equivalences_hold(LP, (parse_formula("p | ~p"),))
        assert theorem_equivalences_hold(K3, (parse_formula("q | T"),))

    @given(inferences)
    def test_equivalence_oracles_at_random(self, inf):
        for logic in STANDARDS.values():
            assert antitheorem_equivalences_hold(logic, inf.premises)
            assert theorem_equivalences_hold(logic, inf.conclusions)


class TestLattice:
    @given(inferences)
    def test_inclusions(self, inf):
        ts, k3, lp, st = (valid(logic, inf).valid for logic in (TS, K3, LP, ST))
        if ts:
            assert k3 and lp
        if k3 or lp:
            assert st

    def test_inclusions_are_proper(self):
        reflexive = parse_sequent("p => p")
        assert valid(K3, reflexive).valid and not valid(TS, reflexive).valid
        assert valid(LP, reflexive).valid and not valid(TS, reflexive).valid
        lem = parse_sequent("=> p | ~p")
        assert valid(ST, lem).valid and not valid(K3, lem).valid
        explosion = parse_sequent("p & ~p =>")
        assert valid(ST, explosion).valid and not valid(LP, explosion).valid


class TestRecords:
    def test_verdict_record_shape(self):
        inf = parse_sequent("p => p")
        record = verdict_record(TS, inf, valid(TS, inf))
        assert record == {
            "logic": "TS",
            "sequent": "p => p",
            "valid": False,
            "countermodel": {"p": "1/2"},
        }

    def test_antivalidity_record_key(self):
        inf = parse_sequent("p => p & q")
        record = verdict_record(LP, inf, antivalid(LP, inf), anti=True)
        assert record["antivalid"] is True
        assert record["countermodel"] is None
