"""Object language: formula AST, atoms, parsing, printing, fresh variables.

Concrete syntax: ``T``, ``F``, ``L`` for the three constants, ``~`` for
negation, ``&`` for conjunction, ``|`` for disjunction.  Variables match
``[a-z][a-zA-Z0-9_]*``, so they never collide with the constant tokens.
Precedence is ``~`` > ``&`` > ``|``; both binary operators associate left.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Lambda:
    pass


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Top, Bot, Lambda, Not, And, Or]

TOP = Top()
BOT = Bot()
LAM = Lambda()

# An atom is a plain string: a variable name, or one of the constant
# tokens below.  Variables start with a lowercase letter, so the two
# kinds never clash.
Atom = str
TOP_ATOM: Atom = "T"
BOT_ATOM: Atom = "F"
LAM_ATOM: Atom = "L"
CONSTANT_ATOMS = frozenset({TOP_ATOM, BOT_ATOM, LAM_ATOM})


def atom_to_formula(atom: Atom) -> Formula:
    if atom == TOP_ATOM:
        return TOP
    if atom == BOT_ATOM:
        return BOT
    if atom == LAM_ATOM:
        return LAM
    return Var(atom)


def atoms(f: Formula) -> frozenset[Atom]:
    """All atoms of a formula; the constants count as their own atoms."""
    if isinstance(f, Var):
        return frozenset({f.name})
    if isinstance(f, Top):
        return frozenset({TOP_ATOM})
    if isinstance(f, Bot):
        return frozenset({BOT_ATOM})
    if isinstance(f, Lambda):
        return frozenset({LAM_ATOM})
    if isinstance(f, Not):
        return atoms(f.sub)
    return atoms(f.left) | atoms(f.right)


def atoms_of_set(formulas: Iterable[Formula]) -> frozenset[Atom]:
    result: frozenset[Atom] = frozenset()
    for f in formulas:
        result |= atoms(f)
    return result


def variables_of_set(formulas: Iterable[Formula]) -> frozenset[Atom]:
    return atoms_of_set(formulas) - CONSTANT_ATOMS


def fresh_variable(avoid: Iterable[Atom]) -> Atom:
    """Smallest name in the sequence p0, p1, ... not contained in `avoid`."""
    taken = set(avoid)
    i = 0
    while f"p{i}" in taken:
        i += 1
    return f"p{i}"


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is T."""
    result: Formula | None = None
    for f in formulas:
        result = f if result is None else And(result, f)
    return TOP if result is None else result


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; the empty disjunction is F."""
    result: Formula | None = None
    for f in formulas:
        result = f if result is None else Or(result, f)
    return BOT if result is None else result


# --------------------------------------------------------------------------
# printing

_PREC = {Or: 1, And: 2, Not: 3}  # anything else binds tightest: 4
_CONSTANT_TEXT = {Top: TOP_ATOM, Bot: BOT_ATOM, Lambda: LAM_ATOM}


def _text(f: Formula, found: set[Atom]) -> str:
    """`print_formula(f)`, adding the atoms of f to `found` on the way."""
    kind = type(f)
    if kind is Var:
        found.add(f.name)
        return f.name
    if kind is Not:
        sub = _text(f.sub, found)
        return "~" + sub if _PREC.get(type(f.sub), 4) > 2 else f"~({sub})"
    prec = _PREC.get(kind)
    if prec is None:
        atom = _CONSTANT_TEXT[kind]
        found.add(atom)
        return atom
    left = _text(f.left, found)
    if _PREC.get(type(f.left), 4) < prec:
        left = f"({left})"
    right = _text(f.right, found)
    if _PREC.get(type(f.right), 4) <= prec:
        right = f"({right})"
    return f"{left} & {right}" if kind is And else f"{left} | {right}"


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; inverse of parse_formula."""
    return _text(f, set())


# --------------------------------------------------------------------------
# inferences

def _normalize_side(formulas: Iterable[Formula], found: set[Atom]) -> tuple[tuple[str, ...], tuple[Formula, ...]]:
    """Sorted distinct texts and their formulas; the atoms go into `found`."""
    unique = {_text(f, found): f for f in formulas}
    texts = tuple(sorted(unique))
    return texts, tuple(unique[text] for text in texts)


@dataclass(frozen=True)
class Inference:
    """An ordered pair of finite formula sets, premises => conclusions.

    Both sides are stored duplicate-free and sorted by canonical printing,
    so iteration order is deterministic.  The printed texts and the atoms
    are kept from that one walk; they are not fields, so equality, hashing
    and repr see the two sides only.
    """

    premises: tuple[Formula, ...]
    conclusions: tuple[Formula, ...]

    def __init__(self, premises: Iterable[Formula], conclusions: Iterable[Formula]):
        found: set[Atom] = set()
        premise_texts, premises = _normalize_side(premises, found)
        conclusion_texts, conclusions = _normalize_side(conclusions, found)
        # Frozen: the attributes go straight into the instance dict.
        self.__dict__.update(premises=premises, conclusions=conclusions,
                             _texts=(premise_texts, conclusion_texts), _atoms=frozenset(found))

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

    def variables(self) -> frozenset[Atom]:
        return self._atoms - CONSTANT_ATOMS


def print_sequent(inf: Inference) -> str:
    left, right = (", ".join(texts) for texts in inf._texts)
    if left:
        return f"{left} => {right}" if right else f"{left} =>"
    return f"=> {right}" if right else "=>"


# --------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<const>[TFL])"
    r"|(?P<ident>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<arrow>=>)"
    r"|(?P<punct>[~&|(),])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.current
        if text != value and not (value == "end" and kind == "end"):
            shown = text if kind != "end" else "end of input"
            raise ParseError(f"unexpected {shown!r}", pos, expected=(value,))
        self.advance()

    def formula(self) -> Formula:
        return self.disjunction()

    def disjunction(self) -> Formula:
        result = self.conjunction()
        while self.current[1] == "|":
            self.advance()
            result = Or(result, self.conjunction())
        return result

    def conjunction(self) -> Formula:
        result = self.unary()
        while self.current[1] == "&":
            self.advance()
            result = And(result, self.unary())
        return result

    def unary(self) -> Formula:
        kind, text, pos = self.current
        if text == "~":
            self.advance()
            return Not(self.unary())
        if text == "(":
            self.advance()
            inner = self.disjunction()
            self.expect(")")
            return inner
        if kind == "const":
            self.advance()
            return {"T": TOP, "F": BOT, "L": LAM}[text]
        if kind == "ident":
            self.advance()
            return Var(text)
        shown = text if kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {shown!r}", pos,
            expected=("~", "(", "constant", "variable"),
        )

    def formula_list(self) -> list[Formula]:
        if self.current[0] in ("end",) or self.current[1] == "=>":
            return []
        result = [self.formula()]
        while self.current[1] == ",":
            self.advance()
            result.append(self.formula())
        return result


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    result = parser.formula()
    parser.expect("end")
    return result


def parse_sequent(text: str) -> Inference:
    parser = _Parser(text)
    premises = parser.formula_list()
    kind, tok, pos = parser.current
    if tok != "=>":
        shown = tok if kind != "end" else "end of input"
        raise ParseError(f"missing '=>' separator, got {shown!r}", pos, expected=("=>",))
    parser.advance()
    conclusions = parser.formula_list()
    parser.expect("end")
    return Inference(premises, conclusions)
