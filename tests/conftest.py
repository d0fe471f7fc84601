from fractions import Fraction

import hypothesis.strategies as st

from mixcons.formula import And, Inference, Not, Or, Var, BOT, LAM, TOP
from oracles import DESIGNATED, brute_eval

variable_names = st.sampled_from(("p", "q", "r"))
wide_variable_names = st.sampled_from(("p", "q", "r", "s", "t"))


def _formulas(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
        ),
        max_leaves=8,
    )


formulas = _formulas(st.one_of(st.sampled_from((TOP, BOT, LAM)), variable_names.map(Var)))
wide_formulas = _formulas(st.one_of(st.sampled_from((TOP, BOT, LAM)), wide_variable_names.map(Var)))
lambda_free_formulas = _formulas(st.one_of(st.sampled_from((TOP, BOT)), variable_names.map(Var)))


def _to_inference(t):
    return Inference(tuple(t[0]), tuple(t[1]))


inferences = st.tuples(
    st.lists(formulas, max_size=2), st.lists(formulas, max_size=2)
).map(_to_inference)

lambda_free_inferences = st.tuples(
    st.lists(lambda_free_formulas, max_size=2), st.lists(lambda_free_formulas, max_size=2)
).map(_to_inference)

wide_inferences = st.tuples(
    st.lists(wide_formulas, max_size=3), st.lists(wide_formulas, max_size=3)
).map(_to_inference)


def _values(v, inf):
    """(premise values, conclusion values) under a library valuation, as Fractions."""
    env = {name: Fraction(int(value), 2) for name, value in v.assignments.items()}
    return [brute_eval(g, env) for g in inf.premises], [brute_eval(d, env) for d in inf.conclusions]


def satisfies(logic, v, inf):
    """Designated premises (all) imply a designated conclusion (some), by the
    independent Fraction evaluator."""
    d1, d2 = DESIGNATED[logic.name]
    premises, conclusions = _values(v, inf)
    return not all(x in d1 for x in premises) or any(x in d2 for x in conclusions)


def antisatisfies(logic, v, inf):
    """Non-designated premises (all) imply a non-designated conclusion (some)."""
    d1, d2 = DESIGNATED[logic.name]
    premises, conclusions = _values(v, inf)
    return any(x in d1 for x in premises) or any(x not in d2 for x in conclusions)
