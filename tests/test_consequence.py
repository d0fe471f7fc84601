import random
from fractions import Fraction
from typing import Iterable
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixcons.formula import (
    BOT,
    LAM,
    TOP,
    Formula,
    And,
    Inference,
    Not,
    Or,
    Var,
    atom_to_formula,
    atoms,
    atoms_of_set,
    fresh_variable,
    parse_formula,
    parse_sequent,
)
from mixcons import semantics
from mixcons.randgen import random_formula
from mixcons.semantics import HALF, ONE, ZERO, Valuation, enumerate_valuations, eval_formula
from mixcons.consequence import (
    K3,
    LP,
    ST,
    STANDARDS,
    TS,
    LogicStandard,
    antivalid,
    classically_valid,
    is_antitheorem,
    is_theorem,
    valid,
    verdict_record,
)

from conftest import (
    antisatisfies,
    formulas,
    inferences,
    lambda_free_inferences,
    satisfies,
    wide_formulas,
    wide_inferences,
)
import oracles
from oracles import (
    brute_antivalid,
    brute_eval,
    brute_first_countermodel,
    brute_first_countermodels,
    brute_valid,
    formula_vars,
)

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


class TestLogicStandard:
    STRICT, TOLERANT = frozenset({ONE}), frozenset({HALF, ONE})

    def test_strict_and_tolerant_sets_build(self):
        for premises in (self.STRICT, self.TOLERANT):
            for conclusions in (self.STRICT, self.TOLERANT):
                logic = LogicStandard("X", premises, conclusions)
                assert (logic.premise_designated, logic.conclusion_designated) == (premises, conclusions)

    @pytest.mark.parametrize("designated,shown", [
        (frozenset({ZERO}), "{0}"),
        (frozenset(), "{}"),
        (frozenset({HALF}), "{1/2}"),
        (frozenset({ZERO, ONE}), "{0, 1}"),
        (frozenset({ZERO, HALF, ONE}), "{0, 1/2, 1}"),
    ], ids=["zero", "empty", "half", "classical", "all"])
    def test_other_sets_rejected(self, designated, shown):
        message = f"X: designated set {shown} is neither {{1}} nor {{1/2, 1}}"
        for sides in ((designated, self.STRICT), (self.TOLERANT, designated)):
            with pytest.raises(ValueError) as exc:
                LogicStandard("X", *sides)
            assert str(exc.value) == message


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
    for (name, anti), expected in brute_first_countermodels(inf, modes).items():
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


def _one_sided(formulas):
    return st.tuples(st.lists(formulas, min_size=1, max_size=3), st.booleans()).map(
        lambda t: Inference(t[0], ()) if t[1] else Inference((), t[0]))


class TestOneSided:
    """Sequents with one side empty get the brute-force verdict and first
    countermodel in all eight (logic, mode) pairs, also past the first block."""

    @settings(max_examples=300)
    @given(_one_sided(wide_formulas))
    def test_matches_brute_force_walk(self, inf):
        _assert_brute_force_walk(inf, MODES)

    @pytest.mark.parametrize("text", [
        " & ".join(f"x{i}" for i in range(9)) + " =>",
        "=> ~x0 & (" + " | ".join(f"x{i}" for i in range(1, 9)) + ")",
    ])
    def test_past_the_first_block(self, text, monkeypatch):
        monkeypatch.setattr(semantics, "BLOCK", 8)  # blocks of 8 variables into two values, 5 into three
        inf = parse_sequent(text)
        assert len(inf.variables()) > semantics.block_width(2, semantics.BLOCK)
        _assert_brute_force_walk(inf, MODES)


class TestBlockBoundary:
    """The walks go a block of valuations at a time.  With blocks of 2^1 or
    2^2 bits (one or two variables into two values, none or one into
    three), the sequents above also walk prefixes and decode a prefix plus
    a block position into the countermodel."""

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
    def test_first_countermodel_past_the_first_block(self, name, monkeypatch):
        monkeypatch.setattr(semantics, "BLOCK", 8)  # blocks of 5 variables into three values
        inf = parse_sequent(" | ".join(f"x{i}" for i in range(1, 9)) + " => ~x0")
        assert len(inf.variables()) > semantics.block_width(3, semantics.BLOCK)
        expected = brute_first_countermodel(name, inf)
        assert expected["x0"] != 0
        assert _decide_like_brute(name, inf, False) == (False, expected)

    @pytest.mark.parametrize("block", [None, 8])
    @pytest.mark.parametrize("name,n,x0,last", [
        ("K3", 11, oracles.HALF, 1), ("LP", 11, 1, oracles.HALF), ("ST", 17, 1, 1)])
    def test_first_countermodel_past_a_default_block(self, name, n, x0, last, block, monkeypatch):
        # 3^10 and 2^16 bits are the default blocks, so x00 is the prefix:
        # ~x00 must be undesignated and x01..x(n-1) designate the premise.
        if block is not None:
            monkeypatch.setattr(semantics, "BLOCK", block)
        names = [f"x{i:02d}" for i in range(n)]
        inf = parse_sequent(" | ".join(names[1:]) + " => ~x00")
        expected = {names[0]: x0, **dict.fromkeys(names[1:-1], 0), names[-1]: last}
        assert _decide_like_brute(name, inf, False) == (False, expected)


HALF_MODES = [("TS", False), ("ST", True)]


def _greedy_first_countermodel(name, inf, anti):
    """The n + 1 check reference for TS-validity and ST-antivalidity, whose
    countermodels are closed under moving values to 1/2: None unless all-1/2
    is a countermodel, else each sorted variable 0 where that stays one, else 1/2."""
    d1, d2 = oracles.DESIGNATED[name]

    def countermodel(env):
        premises = [brute_eval(g, env) in d1 for g in inf.premises]
        conclusions = [brute_eval(d, env) in d2 for d in inf.conclusions]
        return not any(premises) and all(conclusions) if anti else all(premises) and not any(conclusions)

    names = sorted(set().union(*(formula_vars(f) for f in inf.premises + inf.conclusions)))
    env = dict.fromkeys(names, oracles.HALF)
    if not countermodel(env):
        return None
    for var in names:
        env[var] = oracles.ZERO
        if not countermodel(env):
            env[var] = oracles.HALF
    return env


def _wide_inference(rng, n):
    """A two-sided sequent in which each of n variables occurs, as a literal
    folded into a random side formula."""
    names = [f"x{i:02d}" for i in range(n)]
    formulas = [random_formula(rng, names, 3) for _ in range(rng.randint(2, 4))]
    for name in rng.sample(names, n):
        i = rng.randrange(len(formulas))
        literal = Var(name) if rng.random() < 0.5 else Not(Var(name))
        formulas[i] = (And if rng.random() < 0.5 else Or)(formulas[i], literal)
    split = rng.randint(1, len(formulas) - 1)
    return Inference(formulas[:split], formulas[split:])


class TestChunkWalk:
    """TS-validity and ST-antivalidity decide one {0,1/2} block per chunk of
    `block_width(2, BLOCK)` sorted variables; across chunks the countermodel must stay the
    n + 1 check greedy's, keys in sorted order."""

    @pytest.mark.parametrize("block", [0, 1, 2, 8, 16])  # 0 still walks chunks of one variable
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_linear_greedy(self, block, seed, monkeypatch):
        monkeypatch.setattr(semantics, "BLOCK", block)
        rng = random.Random(seed)
        for n in [0, 40] + [rng.randint(1, 40) for _ in range(18)]:
            inf = _wide_inference(rng, n)
            assert len(inf.variables()) == n
            for name, anti in HALF_MODES:
                expected = _greedy_first_countermodel(name, inf, anti)
                verdict, countermodel = _decide_like_brute(name, inf, anti)
                assert (verdict, countermodel) == (expected is None, expected)
                if expected is not None:
                    assert list(countermodel) == sorted(expected)

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("name,anti", HALF_MODES)
    def test_zeros_on_both_sides_of_a_chunk_boundary(self, n, name, anti, monkeypatch):
        monkeypatch.setattr(semantics, "BLOCK", 8)  # chunks of 8 variables
        inf = _chunk_boundary_sequent(n, anti)
        expected = brute_first_countermodel(name, inf, anti)
        assert expected["x07"] == expected["x08"] == 0
        assert set(expected.values()) == {0, oracles.HALF}
        assert _decide_like_brute(name, inf, anti) == (False, expected)

    @pytest.mark.parametrize("n", [17, 18])
    @pytest.mark.parametrize("name,anti", HALF_MODES)
    def test_zeros_on_both_sides_of_a_default_chunk_boundary(self, n, name, anti):
        inf = _chunk_boundary_sequent(n, anti)  # chunks of 16 variables
        expected = _greedy_first_countermodel(name, inf, anti)
        assert expected["x15"] == expected["x16"] == 0
        assert set(expected.values()) == {0, oracles.HALF}
        assert _decide_like_brute(name, inf, anti) == (False, expected)


def _chunk_boundary_sequent(n, anti):
    """A sequent over x00..x(n-1) whose first TS-validity/ST-antivalidity
    countermodel sets to 0 the last variable of the first chunk and the first
    of the second; the other variables are side formulas, which keeps them 1/2."""
    width = semantics.block_width(2, semantics.BLOCK)
    assert width < n
    names = [f"x{i:02d}" for i in range(n)]
    kept = ", ".join(names[:width - 1] + [f"~{names[width - 1]} | {names[width]}"] + names[width + 1:])
    zeroed = " | ".join(names[width - 1:])
    return parse_sequent(f"{zeroed} => {kept}" if anti else f"{kept} => {zeroed}")


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
