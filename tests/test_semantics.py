import itertools
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from mixcons import semantics
from mixcons.formula import And, Not, Var, atoms, parse_formula
from mixcons.semantics import (
    HALF,
    ONE,
    ZERO,
    TruthValue,
    UnmappedVariableError,
    VALUE_ORDER,
    Valuation,
    all_half_valuation,
    block_width,
    enumerate_valuations,
    eval_formula,
    is_partial_sharpening,
    rail_blocks,
    valuation_record,
)
from mixcons.duality import op_dual

from conftest import formulas
from oracles import brute_eval, formula_vars

_FRAC = {ZERO: Fraction(0), HALF: Fraction(1, 2), ONE: Fraction(1)}


def _rail_bits(value: Fraction) -> list[bool]:
    """Rails 0-3 at the value: >= 1/2 and = 1, then the same two of its negation."""
    return [value >= _FRAC[HALF], value == 1, 1 - value >= _FRAC[HALF], 1 - value == 1]


def dual_valuation(v: Valuation) -> Valuation:
    flipped = {name: value.complement() for name, value in v.assignments.items()}
    default = v.default.complement() if v.default is not None else None
    return Valuation(flipped, default)


def _val(**kwargs):
    return Valuation({k: v for k, v in kwargs.items()})


class TestTruthValue:
    def test_order(self):
        assert TruthValue.ZERO < TruthValue.HALF < TruthValue.ONE

    def test_complement(self):
        assert ZERO.complement() == ONE
        assert HALF.complement() == HALF
        assert ONE.complement() == ZERO

    def test_rendering(self):
        assert [str(v) for v in VALUE_ORDER] == ["0", "1/2", "1"]


class TestEval:
    def test_disjunction_with_gap(self):
        f = parse_formula("p | (q & ~q)")
        assert eval_formula(f, _val(p=ONE, q=HALF)) == ONE

    def test_conjunction_with_gap(self):
        f = parse_formula("p & (q | ~q)")
        assert eval_formula(f, _val(p=ONE, q=HALF)) == HALF

    def test_lambda_constant(self):
        assert eval_formula(parse_formula("L"), Valuation({})) == HALF

    def test_value_of_constants_mapped_variables_and_default(self):
        from mixcons.formula import BOT_ATOM, LAM_ATOM, TOP_ATOM

        for v in (Valuation({"p": ZERO}), Valuation({"p": ZERO}, default=HALF), all_half_valuation()):
            assert [v.value_of(a) for a in (TOP_ATOM, BOT_ATOM, LAM_ATOM)] == [ONE, ZERO, HALF]
        assert Valuation({"p": ZERO}, default=ONE).value_of("p") == ZERO
        assert Valuation({"p": ZERO}, default=ONE).value_of("q") == ONE

    def test_unmapped_variable_is_named(self):
        with pytest.raises(UnmappedVariableError, match="q"):
            eval_formula(parse_formula("p & q"), _val(p=ONE))

    @given(formulas, st.data())
    def test_agrees_with_independent_evaluator(self, f, data):
        names = sorted(formula_vars(f))
        values = data.draw(st.tuples(*[st.sampled_from(VALUE_ORDER)] * len(names)))
        v = Valuation(dict(zip(names, values)))
        env = {name: _FRAC[value] for name, value in zip(names, values)}
        assert _FRAC[eval_formula(f, v)] == brute_eval(f, env)

    @given(formulas)
    def test_locality(self, f):
        for v in enumerate_valuations(atoms(f)):
            extended = Valuation({**v.assignments, "zz_unused": ZERO})
            assert eval_formula(f, extended) == eval_formula(f, v)


class TestDeepEvaluation:
    """Evaluation keeps its own stack: formulas far deeper than the recursion
    limit, built directly."""

    DEPTH = 20_000

    def test_deep_negation(self):
        f = Var("p")
        for _ in range(self.DEPTH):
            f = Not(f)
        for value in VALUE_ORDER:
            assert eval_formula(f, _val(p=value)) == value
            assert eval_formula(Not(f), _val(p=value)) == value.complement()

    def test_long_left_nested_conjunction(self):
        f = Var("p")
        for _ in range(self.DEPTH - 1):
            f = And(f, Var("p"))
        for value in VALUE_ORDER:
            assert eval_formula(f, _val(p=value)) == value
        assert eval_formula(And(f, parse_formula("F")), _val(p=ONE)) == ZERO


class TestEnumeration:
    def test_single_variable_order(self):
        vals = list(enumerate_valuations({"p"}))
        assert [v.assignments for v in vals] == [{"p": ZERO}, {"p": HALF}, {"p": ONE}]

    def test_empty_domain(self):
        vals = list(enumerate_valuations(set()))
        assert len(vals) == 1 and vals[0].assignments == {}

    def test_two_variables_count_and_order(self):
        vals = list(enumerate_valuations({"q", "p"}))
        assert len(vals) == 9
        assert vals[0].assignments == {"p": ZERO, "q": ZERO}
        assert vals[1].assignments == {"p": ZERO, "q": HALF}
        assert vals[-1].assignments == {"p": ONE, "q": ONE}

    def test_constants_ignored(self):
        assert len(list(enumerate_valuations({"p", "T", "L"}))) == 3


class TestRailBlocks:
    @pytest.mark.parametrize("values", [VALUE_ORDER, (ZERO, ONE), (ZERO, HALF)])
    @pytest.mark.parametrize("k", range(5))
    def test_bit_p_is_the_pth_valuation(self, k, values):
        names = [f"x{i}" for i in range(k)]
        [block] = rail_blocks(names, values)
        assert block.full.bit_length() == len(values) ** k  # dense: every bit is a valuation
        expected = list(enumerate_valuations(names, values))
        walked = [block.valuation(p).assignments for p in range(block.full.bit_length())]
        assert walked == [v.assignments for v in expected]
        for p, v in enumerate(expected):
            for name in names:
                half, one = block.rails(Var(name))
                assert (half >> p & 1, one >> p & 1) == (v.value_of(name) >= HALF, v.value_of(name) == ONE)

    @pytest.mark.parametrize("values", [VALUE_ORDER, (ZERO, ONE), (ZERO, HALF)])
    @pytest.mark.parametrize("block_size", [0, 1, 2])
    def test_blocks_concatenate_to_the_walk(self, block_size, values, monkeypatch):
        monkeypatch.setattr(semantics, "BLOCK", block_size)
        names = ["p", "q", "r", "T"]
        blocks = list(rail_blocks(names, values))
        assert all(b.full.bit_length() == len(values) ** len(b.names) for b in blocks)
        walked = [b.valuation(p).assignments for b in blocks for p in range(b.full.bit_length())]
        assert walked == [v.assignments for v in enumerate_valuations(names, values)]

    @pytest.mark.parametrize("bits,two,three", [(None, 16, 10), (0, 0, 0), (1, 1, 0), (2, 2, 1), (8, 8, 5)])
    def test_block_width(self, bits, two, three, monkeypatch):
        # A block takes the most variables whose valuations fit in 2^BLOCK bits.
        if bits is not None:
            monkeypatch.setattr(semantics, "BLOCK", bits)
        for values, k in [(VALUE_ORDER, three), ((ZERO, ONE), two), ((ZERO, HALF), two)]:
            assert block_width(len(values), semantics.BLOCK) == k
            assert len(values) ** k <= 2 ** semantics.BLOCK < len(values) ** (k + 1)
            blocks = list(rail_blocks([f"x{i:02d}" for i in range(k + 1)], values))
            assert [len(b.names) for b in blocks] == [k] * len(values)

    @pytest.mark.parametrize("values", [VALUE_ORDER, (ZERO, ONE), (ZERO, HALF)])
    @pytest.mark.parametrize("block_size", [None, 1, 2])
    @given(f=formulas)
    def test_each_rail_agrees_with_brute_eval(self, block_size, values, f):
        # The Fraction evaluator at each valuation of the walk, in its own order; at
        # BLOCK 1 and 2 some or all variables are prefix constants, negated ones too.
        with pytest.MonkeyPatch.context() as patch:
            if block_size is not None:
                patch.setattr(semantics, "BLOCK", block_size)
            blocks = list(rail_blocks(atoms(f), values))
        names = sorted(formula_vars(f))
        envs = itertools.product([_FRAC[v] for v in values], repeat=len(names))
        for block in blocks:
            rails = [block.rail(f, rail) for rail in range(4)]
            assert block.rails(f) == tuple(rails[:2])
            for p in range(block.full.bit_length()):
                value = brute_eval(f, dict(zip(names, next(envs))))
                assert [r >> p & 1 for r in rails] == _rail_bits(value)
        assert next(envs, None) is None

    @pytest.mark.parametrize("text", ["~L", "~T", "~F", "~~L", "~(L & ~T)", "~(p | ~L)"])
    def test_constants_under_negation(self, text):
        f = parse_formula(text)
        [block] = rail_blocks({"p"})  # p at 0, 1/2, 1: bits 0, 1, 2
        for p, value in enumerate(VALUE_ORDER):
            expected = _rail_bits(brute_eval(f, {"p": _FRAC[value]}))
            assert [block.rail(f, rail) >> p & 1 for rail in range(4)] == expected

    def test_deep_formula_without_recursion(self):
        f = Var("p")
        for _ in range(20000):
            f = Not(f)
        [block] = rail_blocks({"p"})
        assert block.env["p"] == (0b110, 0b100, 0b011, 0b001)  # p at 0, 1/2, 1: bits 0, 1, 2
        for rail in range(4):
            assert block.rail(f, rail) == block.env["p"][rail]  # an even number of ~
            assert block.rail(Not(f), rail) == block.env["p"][rail ^ 2]


class TestSharpening:
    def test_only_classical_entries_constrain(self):
        v = _val(p=ONE, q=HALF)
        v_star = _val(p=ONE, q=ZERO)
        assert is_partial_sharpening(v_star, v, {"p", "q"})

    def test_classical_change_rejected(self):
        assert not is_partial_sharpening(_val(p=ZERO), _val(p=ONE), {"p"})

    def test_empty_scope_vacuous(self):
        assert is_partial_sharpening(_val(p=ZERO), _val(p=ONE), set())

    @given(formulas, st.data())
    def test_classical_values_preserved(self, f, data):
        names = sorted(formula_vars(f))
        v = Valuation({n: data.draw(st.sampled_from(VALUE_ORDER), label=n) for n in names})
        v_star = Valuation({
            n: v.assignments[n]
            if v.assignments[n] != HALF
            else data.draw(st.sampled_from(VALUE_ORDER), label=f"{n}*")
            for n in names
        })
        assert is_partial_sharpening(v_star, v, atoms(f))
        value = eval_formula(f, v)
        if value != HALF:
            assert eval_formula(f, v_star) == value

    @given(st.data())
    def test_subset_and_union_closure(self, data):
        names = ("p", "q", "r")
        draw_val = lambda label: Valuation(
            {n: data.draw(st.sampled_from(VALUE_ORDER), label=f"{label}{n}") for n in names}
        )
        v, v_star = draw_val("v"), draw_val("v*")
        sigma = set(data.draw(st.sets(st.sampled_from(names)), label="sigma"))
        theta = set(data.draw(st.sets(st.sampled_from(names)), label="theta"))
        if is_partial_sharpening(v_star, v, sigma):
            for sub in (sigma & theta, set(), sigma):
                assert is_partial_sharpening(v_star, v, sub)
        if is_partial_sharpening(v_star, v, sigma) and is_partial_sharpening(v_star, v, theta):
            assert is_partial_sharpening(v_star, v, sigma | theta)


class TestAllHalf:
    def test_examples(self):
        half = all_half_valuation()
        assert eval_formula(parse_formula("p | ~p"), half) == HALF
        assert eval_formula(parse_formula("T & p"), half) == HALF
        assert eval_formula(parse_formula("F"), half) == ZERO

    @given(formulas)
    def test_half_maximality(self, f):
        half = all_half_valuation()
        values = {eval_formula(f, v) for v in enumerate_valuations(atoms(f))}
        if values != {ZERO}:
            assert eval_formula(f, half) != ZERO
        if values != {ONE}:
            assert eval_formula(f, half) != ONE


class TestDualValuation:
    def test_pointwise_complement(self):
        v = dual_valuation(_val(p=ONE, q=HALF))
        assert v.assignments == {"p": ZERO, "q": HALF}

    def test_involution(self):
        v = _val(p=ONE, q=ZERO, r=HALF)
        assert dual_valuation(dual_valuation(v)).assignments == v.assignments

    def test_all_half_fixed(self):
        half = all_half_valuation()
        assert dual_valuation(half).default == HALF

    @given(formulas)
    def test_dual_valuation_lemma(self, f):
        dual = op_dual(f)
        for v in enumerate_valuations(atoms(f)):
            dv = dual_valuation(v)
            assert (eval_formula(f, v) == ZERO) == (eval_formula(dual, dv) == ONE)
            assert (eval_formula(f, v) == ONE) == (eval_formula(dual, dv) == ZERO)


class TestRendering:
    def test_record(self):
        assert valuation_record(_val(p=ZERO)) == {"p": "0"}
        assert valuation_record(None) is None
