import hypothesis.strategies as st

from mixcons.formula import And, Inference, Not, Or, Var, BOT, LAM, TOP

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
