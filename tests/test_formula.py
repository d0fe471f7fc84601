import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from mixcons.formula import (
    And,
    Bot,
    Inference,
    Lambda,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    BOT,
    CONSTANT_ATOMS,
    LAM,
    TOP,
    atoms,
    atoms_of_set,
    conjoin,
    fresh_variable,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)

from conftest import formulas, inferences

P, Q, R = Var("p"), Var("q"), Var("r")


class TestParsing:
    def test_precedence_not_over_and(self):
        assert parse_formula("~p & q") == And(Not(P), Q)

    def test_precedence_and_over_or(self):
        assert parse_formula("p & q | r") == Or(And(P, Q), R)

    def test_parentheses(self):
        assert parse_formula("p | (q & ~q)") == Or(P, And(Q, Not(Q)))

    def test_left_associativity(self):
        assert parse_formula("p & q & r") == And(And(P, Q), R)
        assert parse_formula("p | q | r") == Or(Or(P, Q), R)

    def test_constants(self):
        assert parse_formula("T") == TOP
        assert parse_formula("F") == BOT
        assert parse_formula("L") == LAM

    def test_identifier_charset(self):
        assert parse_formula("aVar_2") == Var("aVar_2")

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p & ")
        assert exc.value.position == 4

    def test_error_on_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_sequent_both_sides(self):
        inf = parse_sequent("p, q => r")
        assert inf == Inference((P, Q), (R,))

    def test_sequent_empty_premises(self):
        inf = parse_sequent("=> p | ~p")
        assert inf.premises == ()
        assert inf.conclusions == (Or(P, Not(P)),)

    def test_sequent_empty_conclusions(self):
        inf = parse_sequent("p & ~p =>")
        assert inf.premises == (And(P, Not(P)),)
        assert inf.conclusions == ()

    def test_sequent_needs_exactly_one_arrow(self):
        with pytest.raises(ParseError):
            parse_sequent("p")
        with pytest.raises(ParseError):
            parse_sequent("p => q => r")

    def test_end_is_a_variable(self):
        end = Var("end")
        assert parse_formula("end") == end
        assert parse_formula("~end | (end & p)") == Or(Not(end), And(end, P))
        assert parse_sequent("end => end & p") == Inference((end,), (And(end, P),))
        assert parse_sequent("end, p =>") == Inference((end, P), ())

    def test_no_nesting_limit(self):
        depth = 20_000
        assert parse_formula("(" * depth + "p" + ")" * depth) == P
        f = parse_formula("~" * depth + "p")
        for _ in range(depth):
            f = f.sub
        assert f == P
        f = parse_formula(" & ".join(["p"] * depth))
        for _ in range(depth - 1):
            assert f.right == P
            f = f.left
        assert f == P


    def test_stray_character_after_a_long_identifier(self):
        # The check is one scan of the text: 200,000 characters take well under
        # a second, where a scan that backtracked over the identifier would not.
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_formula("a" * 200_000 + "$")
        assert time.perf_counter() - start < 1.0
        assert (str(exc.value), exc.value.position) == ("unexpected character '$' at position 200000", 200_000)


class TestDeepFormulas:
    """Formulas nested far past Python's recursion limit, built without the
    parser, go through `Inference` and print."""

    def test_negations(self):
        f = P
        for _ in range(5000):
            f = Not(f)
        text = "~" * 5000 + "p"
        assert print_formula(f) == text
        inf = Inference((f,), (P,))
        assert (print_sequent(inf), inf.atoms()) == (text + " => p", {"p"})

    def test_flat_conjunction(self):
        f = conjoin([P] * 20_000)
        text = " & ".join(["p"] * 20_000)
        assert print_formula(f) == text
        inf = Inference((f, Q), (f,))
        assert (print_sequent(inf), inf.atoms()) == (f"{text}, q => {text}", {"p", "q"})
        assert print_formula(Not(And(Or(P, R), f))) == f"~((p | r) & ({text}))"


_OPERAND = ("~", "(", "constant", "variable")
_NO_OPERAND = "(expected ~ or ( or constant or variable)"

# (text, parse_formula's error, parse_sequent's error); an error is
# (str(e), e.position, e.expected), None where the text parses.
PARSE_ERRORS = [
    ("", ("unexpected 'end of input' at position 0 " + _NO_OPERAND, 0, _OPERAND),
     ("missing '=>' separator, got 'end of input' at position 0 (expected =>)", 0, ("=>",))),
    ("   ", ("unexpected 'end of input' at position 3 " + _NO_OPERAND, 3, _OPERAND),
     ("missing '=>' separator, got 'end of input' at position 3 (expected =>)", 3, ("=>",))),
    ("p $ q", ("unexpected character '$' at position 2", 2, ()),
     ("unexpected character '$' at position 2", 2, ())),
    ("$", ("unexpected character '$' at position 0", 0, ()),
     ("unexpected character '$' at position 0", 0, ())),
    ("p &", ("unexpected 'end of input' at position 3 " + _NO_OPERAND, 3, _OPERAND),
     ("unexpected 'end of input' at position 3 " + _NO_OPERAND, 3, _OPERAND)),
    ("(p", ("unexpected 'end of input' at position 2 (expected ))", 2, (")",)),
     ("unexpected 'end of input' at position 2 (expected ))", 2, (")",))),
    ("p)", ("unexpected ')' at position 1 (expected end)", 1, ("end",)),
     ("missing '=>' separator, got ')' at position 1 (expected =>)", 1, ("=>",))),
    ("p q", ("unexpected 'q' at position 2 (expected end)", 2, ("end",)),
     ("missing '=>' separator, got 'q' at position 2 (expected =>)", 2, ("=>",))),
    ("~", ("unexpected 'end of input' at position 1 " + _NO_OPERAND, 1, _OPERAND),
     ("unexpected 'end of input' at position 1 " + _NO_OPERAND, 1, _OPERAND)),
    ("p, => q", ("unexpected ',' at position 1 (expected end)", 1, ("end",)),
     ("unexpected '=>' at position 3 " + _NO_OPERAND, 3, _OPERAND)),
    ("p => q => r", ("unexpected '=>' at position 2 (expected end)", 2, ("end",)),
     ("unexpected '=>' at position 7 (expected end)", 7, ("end",))),
    ("(p | => q", ("unexpected '=>' at position 5 " + _NO_OPERAND, 5, _OPERAND),
     ("unexpected '=>' at position 5 " + _NO_OPERAND, 5, _OPERAND)),
    ("p =>\n", ("unexpected '=>' at position 2 (expected end)", 2, ("end",)), None),
    ("p,\tq\t=>\tr", ("unexpected ',' at position 1 (expected end)", 1, ("end",)), None),
    ("p\t=>\tq\t$", ("unexpected character '$' at position 7", 7, ()),
     ("unexpected character '$' at position 7", 7, ())),
    # `end` is a variable name, not the end of the input
    ("p end", ("unexpected 'end' at position 2 (expected end)", 2, ("end",)),
     ("missing '=>' separator, got 'end' at position 2 (expected =>)", 2, ("=>",))),
    ("p => q end", ("unexpected '=>' at position 2 (expected end)", 2, ("end",)),
     ("unexpected 'end' at position 7 (expected end)", 7, ("end",))),
]


class TestParseErrors:
    """Message, position and expected tokens of every error kind, pinned."""

    @pytest.mark.parametrize("text,formula_error,sequent_error", PARSE_ERRORS)
    def test_table(self, text, formula_error, sequent_error):
        for parse, error in ((parse_formula, formula_error), (parse_sequent, sequent_error)):
            if error is None:
                parse(text)
                continue
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert (str(exc.value), exc.value.position, exc.value.expected) == error


class TestPrinting:
    def test_minimal_parentheses(self):
        assert print_formula(Or(P, And(Q, Not(Q)))) == "p | q & ~q"

    def test_parens_under_negation(self):
        assert print_formula(Not(Or(P, Q))) == "~(p | q)"

    def test_parens_for_or_under_and(self):
        assert print_formula(And(Or(P, Q), R)) == "(p | q) & r"

    def test_constant_spelling(self):
        assert print_formula(LAM) == "L"

    def test_sequent_rendering(self):
        assert print_sequent(Inference((P, Q), ())) == "p, q =>"
        assert print_sequent(Inference((), (P,))) == "=> p"

    @given(formulas)
    def test_roundtrip(self, f):
        assert parse_formula(print_formula(f)) == f

    @given(inferences)
    def test_sequent_roundtrip(self, inf):
        assert parse_sequent(print_sequent(inf)) == inf


class TestAtoms:
    def test_variables_only(self):
        assert atoms(parse_formula("p & (q | ~q)")) == {"p", "q"}

    def test_constants_are_atoms(self):
        assert atoms(TOP) == {"T"}
        assert atoms(parse_formula("~~L")) == {"L"}

    def test_atoms_of_set(self):
        assert atoms_of_set((P, And(Q, R))) == {"p", "q", "r"}
        assert atoms_of_set(()) == frozenset()
        assert atoms_of_set((Or(P, BOT),)) == {"p", "F"}

    @given(formulas)
    def test_negation_invariance(self, f):
        assert atoms(Not(f)) == atoms(f)

    @given(st.lists(formulas, max_size=4))
    def test_atoms_of_set_equals_the_printers_atoms(self, fs):
        assert atoms_of_set(fs) == Inference(fs, ()).atoms()

    def test_atoms_of_set_on_a_deep_chain(self):
        f = LAM
        for i in range(20_000):
            f = (Not(f), And(f, Var(f"p{i % 7}")), Or(BOT, f), And(TOP, f))[i % 4]
        assert atoms_of_set((f,)) == Inference((f,), ()).atoms() == {"L", "F", "T", *(f"p{i}" for i in range(7))}


class TestFreshVariable:
    def test_first_unused(self):
        assert fresh_variable({"p", "q"}) == "p0"

    def test_skips_used(self):
        assert fresh_variable({"p0"}) == "p1"

    def test_empty_avoid(self):
        assert fresh_variable(set()) == "p0"

    @given(formulas)
    def test_never_collides(self, f):
        assert fresh_variable(atoms(f)) not in atoms(f)


class TestInferenceNormalization:
    def test_duplicates_removed(self):
        inf = Inference((P, P), (Q,))
        assert inf.premises == (P,)

    def test_order_insensitive(self):
        assert Inference((Q, P), (R,)) == Inference((P, Q), (R,))

    def test_atoms(self):
        assert Inference((P,), (And(Q, TOP),)).atoms() == {"p", "q", "T"}
        assert Inference((P,), (And(Q, TOP),)).variables() == {"p", "q"}


class TestInferenceKeptValues:
    """The texts and atoms kept at construction match a fresh walk."""

    @given(st.lists(formulas, max_size=4), st.lists(formulas, max_size=4), st.randoms())
    def test_match_a_fresh_walk(self, premises, conclusions, rnd):
        inf = Inference(premises, conclusions)
        left = ", ".join(print_formula(f) for f in inf.premises)
        right = ", ".join(print_formula(f) for f in inf.conclusions)
        assert print_sequent(inf) == " ".join(part for part in (left, "=>", right) if part)
        walked = atoms_of_set(premises) | atoms_of_set(conclusions)
        assert inf.atoms() == walked
        assert inf.variables() == walked - CONSTANT_ATOMS

        shuffled = Inference(rnd.sample(premises * 2, 2 * len(premises)), reversed(conclusions))
        assert shuffled == inf and hash(shuffled) == hash(inf)
        assert print_sequent(shuffled) == print_sequent(inf)
        assert repr(inf) == f"Inference(premises={inf.premises!r}, conclusions={inf.conclusions!r})"


class TestNodeContract:
    """Formula nodes and Inference keep what frozen dataclasses gave them."""

    def test_repr_of_every_kind(self):
        assert repr(P) == "Var(name='p')"
        assert [repr(c) for c in (Top(), Bot(), Lambda())] == ["Top()", "Bot()", "Lambda()"]
        assert repr(Not(P)) == "Not(sub=Var(name='p'))"
        assert repr(And(P, Q)) == "And(left=Var(name='p'), right=Var(name='q'))"
        assert repr(Or(P, TOP)) == "Or(left=Var(name='p'), right=Top())"

    def test_equality_is_type_sensitive(self):
        assert And(P, Q) == And(Var("p"), Var("q"))
        assert And(P, Q) != Or(P, Q)
        assert Top() == TOP and Top() != Bot() and Bot() != Lambda()
        assert Not(P) != Var("p") and P != "p"

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(P) == hash(("p",))
        assert hash(Not(P)) == hash((P,))
        assert hash(And(P, Q)) == hash((P, Q)) == hash(Or(P, Q))
        assert hash(Top()) == hash(()) == hash(Lambda())
        inf = Inference((P,), (Q,))
        assert hash(inf) == hash(((P,), (Q,)))

    @pytest.mark.parametrize("obj, field", [
        (P, "name"), (Not(P), "sub"), (And(P, Q), "left"), (Or(P, Q), "right"), (TOP, "name"),
        (Inference((P,), (Q,)), "premises"), (Inference((P,), (Q,)), "_atoms"),
    ])
    def test_read_only(self, obj, field):
        with pytest.raises(AttributeError):
            setattr(obj, field, Q)
        with pytest.raises(AttributeError):
            delattr(obj, field)
