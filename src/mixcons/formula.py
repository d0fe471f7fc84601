"""Object language: formula AST, atoms, parsing, printing, fresh variables,
and `Record`, the read-only base of the AST and of every result class.

Concrete syntax: ``T``, ``F``, ``L`` for the three constants, ``~`` for
negation, ``&`` for conjunction, ``|`` for disjunction.  Variables match
``[a-z][a-zA-Z0-9_]*``, so they never collide with the constant tokens.
Precedence is ``~`` > ``&`` > ``|``; both binary operators associate left.

The tokenizer is one `findall`; the parser is one loop with its own stack,
and a parse error is placed in the text only once it has happened.  The
printer `_text` is one loop with its own stack too, and reads an
inference's atoms off its walk; `atoms_of_set` walks without printing.
None of them has a nesting limit.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

_set = object.__setattr__  # how `__init__` sets a read-only field


class Record:
    """Read-only fields, named in order by `__match_args__`, with the repr and
    the equality (between instances of one class) over them that a dataclass
    has.  Unhashable; `HashableRecord` hashes the field tuple."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class HashableRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())


# Formula nodes.  Var, Not and the binary nodes spell out their field tuple
# and `__init__`: both run once per node built or hashed.

class Var(HashableRecord):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def _fields(self) -> tuple:
        return (self.name,)


class Top(HashableRecord):
    __slots__ = __match_args__ = ()


class Bot(HashableRecord):
    __slots__ = __match_args__ = ()


class Lambda(HashableRecord):
    __slots__ = __match_args__ = ()


class Not(HashableRecord):
    __slots__ = __match_args__ = ("sub",)

    def __init__(self, sub: "Formula"):
        _set(self, "sub", sub)

    def _fields(self) -> tuple:
        return (self.sub,)


class _Binary(HashableRecord):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)

    def _fields(self) -> tuple:
        return self.left, self.right


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


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
_CONSTANTS: dict[Atom, Formula] = {TOP_ATOM: TOP, BOT_ATOM: BOT, LAM_ATOM: LAM}
CONSTANT_ATOMS = frozenset(_CONSTANTS)
_CONSTANT_TEXT = {type(f): atom for atom, f in _CONSTANTS.items()}


def atom_to_formula(atom: Atom) -> Formula:
    return _CONSTANTS[atom] if atom in _CONSTANTS else Var(atom)


def atoms(f: Formula) -> frozenset[Atom]:
    """All atoms of a formula; the constants count as their own atoms."""
    return atoms_of_set((f,))


def atoms_of_set(formulas: Iterable[Formula]) -> frozenset[Atom]:
    """The atoms of every formula, from one walk with its own stack that
    prints nothing.  A variable right operand, the leaf of a left-associated
    chain, is read at once rather than pushed."""
    found: set[Atom] = set()
    todo = list(formulas)
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is Var:
            found.add(g.name)
        elif kind is Not:
            todo.append(g.sub)
        elif kind is And or kind is Or:
            right = g.right
            if type(right) is Var:
                found.add(right.name)
            else:
                todo.append(right)
            todo.append(g.left)
        else:
            found.add(_CONSTANT_TEXT[kind])
    return frozenset(found)


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


def _text(f: Formula, found: set[Atom]) -> str:
    """`print_formula(f)`, adding the atoms of f to `found` on the way.

    No recursion: `todo` holds the nodes still to print and, between them,
    the literal text that follows a node's operands.  A variable operand is
    printed at once rather than pushed, which saves a step per leaf."""
    out: list[str] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind is Var:
            found.add(g.name)
            out.append(g.name)
        elif kind is Not:
            sub = g.sub
            sub_kind = type(sub)
            if sub_kind is Var:
                found.add(sub.name)
                out.append("~" + sub.name)
            elif _PREC.get(sub_kind, 4) > 2:
                out.append("~")
                todo.append(sub)
            else:
                out.append("~(")
                todo += (")", sub)
        elif kind is And or kind is Or:
            prec = _PREC[kind]
            operator = " & " if kind is And else " | "
            left, right = g.left, g.right
            # The right operand and the text before it go on `todo` first.
            right_kind = type(right)
            if right_kind is Var:
                found.add(right.name)
                todo.append(operator + right.name)
            elif _PREC.get(right_kind, 4) <= prec:
                todo += (")", right, operator + "(")
            else:
                todo += (right, operator)
            left_kind = type(left)
            if left_kind is Var:
                found.add(left.name)
                out.append(left.name)
            elif _PREC.get(left_kind, 4) < prec:
                out.append("(")
                todo += (")", left)
            else:
                todo.append(left)
        else:
            atom = _CONSTANT_TEXT[kind]
            found.add(atom)
            out.append(atom)
    return "".join(out)


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


class Inference(HashableRecord):
    """An ordered pair of finite formula sets, premises => conclusions.

    Both sides are stored duplicate-free and sorted by canonical printing,
    so iteration order is deterministic.  The printed texts and the atoms
    are kept from that one walk; they are not in `__match_args__`, so
    equality, hashing and repr see the two sides only.
    """

    __match_args__ = ("premises", "conclusions")
    premises: tuple[Formula, ...]
    conclusions: tuple[Formula, ...]

    def __init__(self, premises: Iterable[Formula], conclusions: Iterable[Formula]):
        found: set[Atom] = set()
        premise_texts, premises = _normalize_side(premises, found)
        conclusion_texts, conclusions = _normalize_side(conclusions, found)
        # Read-only: the attributes go straight into the instance dict.
        self.__dict__.update(premises=premises, conclusions=conclusions,
                             _texts=(premise_texts, conclusion_texts), _atoms=frozenset(found))

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

    def variables(self) -> frozenset[Atom]:
        return self._atoms - CONSTANT_ATOMS


def invert(inf: Inference) -> Inference:
    """Delta => Gamma from Gamma => Delta.  Each side is already sorted and
    duplicate-free, so the sides, their texts and the atoms are swapped, not
    normalised again; the result equals `Inference(inf.conclusions, inf.premises)`."""
    premise_texts, conclusion_texts = inf._texts
    inverse = Inference.__new__(Inference)
    inverse.__dict__.update(premises=inf.conclusions, conclusions=inf.premises,
                            _texts=(conclusion_texts, premise_texts), _atoms=inf._atoms)
    return inverse


def print_sequent(inf: Inference) -> str:
    left, right = (", ".join(texts) for texts in inf._texts)
    return " ".join(filter(None, (left, "=>", right)))


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


# The tokens: constants, punctuation, "=>" and identifiers.  Whitespace
# separates tokens and is dropped; every other character is an error.
_TOKEN_RE = re.compile(r"[TFL~&|(),]|=>|[a-z][a-zA-Z0-9_]*")


def _tokenize(text: str) -> list[str]:
    """The tokens of `text` as plain strings, then "" for the end of the input."""
    tokens = _TOKEN_RE.findall(text)
    # Tokens hold no whitespace and never overlap, so they spell the text
    # without its whitespace exactly when no character falls outside them.
    if "".join(tokens) != "".join(text.split()):
        position = _first_stray(text)
        raise ParseError(f"unexpected character {text[position]!r}", position)
    tokens.append("")
    return tokens


def _first_stray(text: str) -> int:
    """Position of the first character that is neither whitespace nor in a token."""
    end = 0
    for m in _TOKEN_RE.finditer(text):
        gap = text[end:m.start()].lstrip()
        if gap:
            return m.start() - len(gap)
        end = m.end()
    return len(text) - len(text[end:].lstrip())


class _Unexpected(Exception):
    """A parse error at token `index`.  Token positions are only worked out,
    by `located`, once a parse has failed."""

    def __init__(self, index: int, expected: tuple[str, ...], what: str = "unexpected"):
        super().__init__(index, expected, what)

    def located(self, text: str) -> ParseError:
        index, expected, what = self.args
        matches = list(_TOKEN_RE.finditer(text))
        if index < len(matches):
            return ParseError(f"{what} {matches[index].group()!r}", matches[index].start(), expected)
        return ParseError(f"{what} 'end of input'", len(text), expected)


# The parse loop's `pending` stack holds (precedence, node class, left operand)
# entries.  An open "(" is never reduced; a "~" is reduced by any token.
_PREFIX = {"~": (3, Not, None), "(": (-1, None, None)}
_BINARY = {"|": (1, Or), "&": (2, And)}
_OPERAND = ("~", "(", "constant", "variable")
_NOT_OPERAND = frozenset(("&", "|", ")", ",", "=>", ""))  # every other token is "~", "(" or an atom


def _formula(tokens: list[str], i: int) -> tuple[Formula, int]:
    """The formula that starts at tokens[i], and the index of the token after it.

    After each operand, every pending "~" and binary operator that binds at
    least as tightly as the next token takes it as its right operand, so
    both binary operators associate left.
    """
    pending = []
    while True:
        text = tokens[i]
        if text in _PREFIX:
            pending.append(_PREFIX[text])
            i += 1
            continue
        result = _CONSTANTS.get(text)
        if result is None:
            if text in _NOT_OPERAND:
                raise _Unexpected(i, _OPERAND)
            result = Var(text)
        i += 1
        while True:
            text = tokens[i]
            precedence, node = _BINARY.get(text, (0, None))
            while pending and pending[-1][0] >= precedence:
                _, reduce, left = pending.pop()
                result = reduce(result) if left is None else reduce(left, result)
            if node is not None:
                pending.append((precedence, node, result))
                i += 1
                break
            if not pending:
                return result, i
            if text != ")":  # the top of `pending` is an open "("
                raise _Unexpected(i, (")",))
            pending.pop()
            i += 1


def _side(tokens: list[str], i: int) -> tuple[list[Formula], int]:
    """The comma-separated formulas from tokens[i] on: none before '=>' or the end."""
    if not tokens[i] or tokens[i] == "=>":
        return [], i
    formula, i = _formula(tokens, i)
    formulas = [formula]
    while tokens[i] == ",":
        formula, i = _formula(tokens, i + 1)
        formulas.append(formula)
    return formulas, i


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    try:
        result, i = _formula(tokens, 0)
        if tokens[i]:
            raise _Unexpected(i, ("end",))
    except _Unexpected as err:
        raise err.located(text) from None
    return result


def parse_sequent(text: str) -> Inference:
    tokens = _tokenize(text)
    try:
        premises, i = _side(tokens, 0)
        if tokens[i] != "=>":
            raise _Unexpected(i, ("=>",), "missing '=>' separator, got")
        conclusions, i = _side(tokens, i + 1)
        if tokens[i]:
            raise _Unexpected(i, ("end",))
    except _Unexpected as err:
        raise err.located(text) from None
    return Inference(premises, conclusions)
