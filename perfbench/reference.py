"""Independent reference for the benchmark: a numpy Strong-Kleene evaluator.

Formulas are plain tuples, parsed from text by this module's own parser:
``("v", name)``, ``("T",)``, ``("F",)``, ``("L",)``, ``("~", f)``,
``("&", f, g)``, ``("|", f, g)``.  Truth values are int8 codes 0, 1, 2 for
0, 1/2, 1.  Valuations over n sorted variable names are enumerated as one
array of length 3^n in lexicographic order (first name most significant,
0 < 1/2 < 1), so the first countermodel is the first set index.  Nothing
here imports mixcons.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

import numpy as np

VALUE_CODES = {"0": 0, "1/2": 1, "1": 2}

_STRICT = lambda a: a == 2  # noqa: E731
_TOLERANT = lambda a: a >= 1  # noqa: E731
DESIGNATION = {
    "K3": (_STRICT, _STRICT),
    "LP": (_TOLERANT, _TOLERANT),
    "ST": (_STRICT, _TOLERANT),
    "TS": (_TOLERANT, _STRICT),
}

_TOKEN = re.compile(r"\s*(?:(=>)|([TFL])(?![a-zA-Z0-9_])|([a-z][a-zA-Z0-9_]*)|([~&|(),]))")


class ReferenceParseError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ReferenceParseError(f"bad character at {pos}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ReferenceParseError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def disj(self):
        f = self.conj()
        while self.peek() == "|":
            self.take()
            f = ("|", f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = ("&", f, self.unary())
        return f

    def unary(self):
        tok = self.take()
        if tok == "~":
            return ("~", self.unary())
        if tok == "(":
            f = self.disj()
            self.take(")")
            return f
        if tok in ("T", "F", "L"):
            return (tok,)
        if tok[0].isalpha() and tok[0].islower():
            return ("v", tok)
        raise ReferenceParseError(f"unexpected {tok!r}")

    def side(self):
        if self.peek() in (None, "=>"):
            return []
        out = [self.disj()]
        while self.peek() == ",":
            self.take()
            out.append(self.disj())
        return out


def parse_formula(text: str):
    p = _Parser(text)
    f = p.disj()
    if p.peek() is not None:
        raise ReferenceParseError("trailing input")
    return f


def parse_sequent(text: str):
    """(premises, conclusions) as lists, duplicates kept, order as written."""
    p = _Parser(text)
    prem = p.side()
    p.take("=>")
    concl = p.side()
    if p.peek() is not None:
        raise ReferenceParseError("trailing input")
    return prem, concl


def variables(*formulas) -> set[str]:
    out, stack = set(), list(formulas)
    while stack:
        f = stack.pop()
        if f[0] == "v":
            out.add(f[1])
        else:
            stack.extend(f[1:])
    return out


def contains_lambda(f) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "L":
            return True
        if g[0] in ("~", "&", "|"):
            stack.extend(g[1:])
    return False


def text(f) -> str:
    """Fully parenthesised text of a tuple formula (a canonical key)."""
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag in ("T", "F", "L"):
        return tag
    if tag == "~":
        return "~" + text(f[1])
    return f"({text(f[1])} {tag} {text(f[2])})"


@lru_cache(maxsize=16)
def _columns(n: int) -> np.ndarray:
    idx = np.arange(3 ** n, dtype=np.int64)
    cols = np.empty((n, 3 ** n), dtype=np.int8)
    for i in range(n):
        cols[i] = (idx // 3 ** (n - 1 - i)) % 3
    return cols


class Space:
    """All valuations over `names` (sorted), or one fixed valuation."""

    def __init__(self, names, fixed: dict | None = None):
        self.names = sorted(names)
        if fixed is None:
            cols = _columns(len(self.names))
            self.size = cols.shape[1] if self.names else 1
            self.cols = {name: cols[i] for i, name in enumerate(self.names)}
        else:
            self.size = 1
            self.cols = {name: np.array([fixed[name]], dtype=np.int8) for name in self.names}

    def eval(self, f) -> np.ndarray:
        tag = f[0]
        if tag == "v":
            return self.cols[f[1]]
        if tag == "T":
            return np.full(self.size, 2, np.int8)
        if tag == "F":
            return np.zeros(self.size, np.int8)
        if tag == "L":
            return np.ones(self.size, np.int8)
        if tag == "~":
            return 2 - self.eval(f[1])
        left, right = self.eval(f[1]), self.eval(f[2])
        return np.minimum(left, right) if tag == "&" else np.maximum(left, right)

    def decode(self, index: int) -> dict[str, int]:
        out = {}
        for name in reversed(self.names):
            out[name] = index % 3
            index //= 3
        return {name: out[name] for name in self.names}


def failures(space: Space, logic: str, anti: bool, prem, concl) -> np.ndarray:
    """Boolean array: which valuations refute (anti)validity."""
    dp, dc = DESIGNATION[logic]
    premises_hold = np.ones(space.size, bool)
    for g in prem:
        value = dp(space.eval(g))
        premises_hold &= ~value if anti else value
    conclusion_holds = np.zeros(space.size, bool)
    for d in concl:
        value = dc(space.eval(d))
        conclusion_holds |= ~value if anti else value
    return premises_hold & ~conclusion_holds


def first_countermodel(logic: str, anti: bool, prem, concl):
    """None when (anti)valid, else the lexicographically first refuting valuation."""
    space = Space(variables(*prem, *concl))
    fail = failures(space, logic, anti, prem, concl)
    if not fail.any():
        return None
    return space.decode(int(np.argmax(fail)))


def holds(logic: str, anti: bool, prem, concl) -> bool:
    return first_countermodel(logic, anti, prem, concl) is None


def classically_valid(prem, concl) -> bool:
    space = Space(variables(*prem, *concl))
    classical = np.ones(space.size, bool)
    for col in space.cols.values():
        classical &= col != 1
    return not (failures(space, "K3", False, prem, concl) & classical).any()


def constant(f, value: int) -> bool:
    space = Space(variables(f))
    return bool((space.eval(f) == value).all())


def satisfied_at(valuation: dict, logic: str, prem, concl) -> bool:
    """Does one fixed valuation satisfy the sequent under `logic`?"""
    space = Space(valuation, fixed=valuation)
    return not failures(space, logic, False, prem, concl)[0]


def render(model: dict | None) -> str:
    return ",".join(f"{name}={code}" for name, code in sorted(model.items()))


def parse_model(textual: str) -> dict:
    if not textual:
        return {}
    return {k: int(v) for k, v in (item.split("=") for item in textual.split(","))}


def same_set(formulas_a, formulas_b) -> bool:
    return {text(f) for f in formulas_a} == {text(f) for f in formulas_b}


# --------------------------------------------------------------------------
# duality maps, restated over tuples


def op_dual(f):
    tag = f[0]
    if tag == "T":
        return ("F",)
    if tag == "F":
        return ("T",)
    if tag in ("v", "L"):
        return f
    if tag == "~":
        return ("~", op_dual(f[1]))
    return ("|" if tag == "&" else "&", op_dual(f[1]), op_dual(f[2]))


def dual_sequent(kind: str, prem, concl):
    if kind == "op":
        return [op_dual(f) for f in concl], [op_dual(f) for f in prem]
    if kind == "neg":
        return [("~", f) for f in concl], [("~", f) for f in prem]
    return list(concl), list(prem)


# --------------------------------------------------------------------------
# checks of the canonical outputs the worker reports


def membership(target: str, prem, concl) -> bool:
    return holds(target[:-1], target.endswith("-"), prem, concl)


def _check_connector(connector_text, prem, concl, left, right, allowed) -> bool:
    c = parse_formula(connector_text)
    return (
        variables(c) <= allowed
        and holds(left, False, prem, [c])
        and holds(right, False, [c], concl)
    )


def check_verdict(out: str, logic: str, anti: bool, prem, concl) -> bool:
    model = first_countermodel(logic, anti, prem, concl)
    expected = "1" if model is None else "0:" + render(model)
    return out == expected


def check_product(out: str, prem, concl, kind: str) -> bool:
    """`st` (K3 then LP) or `lpk3` (LP then K3) product witness or failure."""
    model = first_countermodel("ST", False, prem, concl)
    if model is not None:
        return out == "N:" + render(model)
    if not out.startswith("M:") or not out.endswith(":1:1"):
        return False
    connector = out[2:-4]
    if kind == "st":
        return _check_connector(connector, prem, concl, "K3", "LP", variables(*prem))
    return _check_connector(connector, prem, concl, "LP", "K3", variables(*prem, *concl))


def check_ts_sum(out: str, prem, concl) -> bool:
    member = holds("TS", False, prem, concl)
    if member:
        if out.startswith("M:Z:"):
            f = parse_formula(out[4:])
            return text(f) in {text(g) for g in prem} and constant(f, 0)
        if out.startswith("M:O:"):
            f = parse_formula(out[4:])
            return text(f) in {text(d) for d in concl} and constant(f, 2)
        return False
    parts = out.split(":")
    if len(parts) != 4 or parts[0] != "N":
        return False
    pivot, left, right = parts[1], parse_model(parts[2]), parse_model(parts[3])
    names = variables(*prem, *concl)
    p = ("v", pivot)
    return (
        re.fullmatch(r"[a-z][a-zA-Z0-9_]*", pivot) is not None
        and pivot not in names
        and set(left) == set(right) == names | {pivot}
        and left[pivot] == 0
        and right[pivot] == 2
        and not satisfied_at(left, "LP", prem, [p])
        and not satisfied_at(right, "K3", [p], concl)
    )


def check_milne(out: str, phi, psi) -> bool:
    if not classically_valid([phi], [psi]):
        return out == "F:invalid-inference"
    if classically_valid([], [("~", phi)]):
        return out == "F:contradiction"
    if classically_valid([], [psi]):
        return out == "F:tautology"
    if not out.startswith("I:"):
        return False
    interpolant = parse_formula(out[2:])
    return (
        variables(interpolant) <= variables(phi) & variables(psi)
        and holds("K3", False, [phi], [interpolant])
        and holds("LP", False, [interpolant], [psi])
    )


def check_route(out: str, target: str, prem, concl) -> bool:
    return out == ("1" if membership(target, prem, concl) else "0")


def check_record(record: dict, logic: str, anti: bool, prem, concl) -> bool:
    """A `verdict_record` JSON object (also the CLI `check --json` line)."""
    key = "antivalid" if anti else "valid"
    if set(record) != {"logic", "sequent", key, "countermodel"} or record["logic"] != logic:
        return False
    shown_prem, shown_concl = parse_sequent(record["sequent"])
    if not (same_set(shown_prem, prem) and same_set(shown_concl, concl)):
        return False
    model = first_countermodel(logic, anti, prem, concl)
    if model is None:
        return record[key] is True and record["countermodel"] is None
    codes = record["countermodel"]
    return (
        record[key] is False
        and isinstance(codes, dict)
        and {k: VALUE_CODES.get(v) for k, v in codes.items()} == model
    )


def check_stream(out: str, op: dict) -> bool:
    prem, concl = parse_sequent(op["text"])
    lines = out.split("\n")
    if not check_record(json.loads(lines[0]), op["logic"], op["anti"], prem, concl):
        return False
    if op["map"] is None:
        return len(lines) == 1
    want_prem, want_concl = dual_sequent(op["map"], prem, concl)
    got_prem, got_concl = parse_sequent(lines[1])
    return len(lines) == 2 and same_set(got_prem, want_prem) and same_set(got_concl, want_concl)


# --------------------------------------------------------------------------
# command line: exit codes, JSON fields and text labels

_SHOWN = {0: "0", 1: "1/2", 2: "1"}


def _record_model(record) -> dict | None:
    if not isinstance(record, dict):
        return None
    return {k: VALUE_CODES.get(v) for k, v in record.items()}


def _shown_model(model: dict) -> str:
    return " ".join(f"{name}={_SHOWN[code]}" for name, code in sorted(model.items()))


def _check_decompose(mode, prem, concl, code, stdout, as_json) -> bool:
    if mode == "lpk3-product" and any(contains_lambda(f) for f in prem + concl):
        return code == 2 and stdout == ""
    logic = "TS" if mode == "ts-sum" else "ST"
    model = first_countermodel(logic, False, prem, concl)
    member = model is None
    if code != (0 if member else 1):
        return False
    if not as_json:
        return stdout.split("\n")[0].split(" ")[0] == ("MEMBER" if member else "NOT-MEMBER")
    result = json.loads(stdout)["result"]
    if result["member"] is not member:
        return False
    if mode == "ts-sum":
        if member:
            f = parse_formula(result["formula"])
            side, value = (prem, 0) if result["reason"] == "always-false-premise" else (concl, 2)
            return text(f) in {text(g) for g in side} and constant(f, value)
        left, right = _record_model(result["left_fail"]), _record_model(result["right_fail"])
        out = f"N:{result['pivot']}:{render(left)}:{render(right)}"
        return check_ts_sum(out, prem, concl)
    if not member:
        return _record_model(result["countermodel"]) == model
    left, right = ("K3", "LP") if mode == "st-product" else ("LP", "K3")
    allowed = variables(*prem) if mode == "st-product" else variables(*prem, *concl)
    return _check_connector(result["connector"], prem, concl, left, right, allowed)


def check_cli(argv: list[str], output: str) -> bool:
    """Exit code, then JSON fields or the first text line, of one CLI call."""
    code_text, stderr_flag, stdout = output.split("\n", 2)
    code, verb, as_json = int(code_text), argv[0], "--json" in argv
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    if verb == "oracle":
        if as_json:
            return code == 0 and all(json.loads(line)["passed"] is True for line in lines)
        return code == 0 and all(line.startswith("PASS ") for line in lines)
    source = argv[-1]
    is_formula = verb == "truthtable" or (verb == "dualize" and "=>" not in source)
    try:
        parsed = parse_formula(source) if is_formula else parse_sequent(source)
    except ReferenceParseError:
        return code == 2 and stdout == "" and stderr_flag == "E"
    if verb == "check":
        prem, concl = parsed
        logic, anti = argv[argv.index("--logic") + 1].upper(), "--anti" in argv
        model = first_countermodel(logic, anti, prem, concl)
        if code != (0 if model is None else 1):
            return False
        if as_json:
            return check_record(json.loads(stdout), logic, anti, prem, concl)
        labels = ("ANTIVALID", "NOT-ANTIVALID") if anti else ("VALID", "INVALID")
        want = [labels[0]] if model is None else [labels[1], "countermodel: " + _shown_model(model)]
        return lines == want
    if verb == "decompose":
        return _check_decompose(argv[argv.index("--mode") + 1], *parsed, code, stdout, as_json)
    if verb == "dualize":
        kind = argv[argv.index("--map") + 1]
        shown = json.loads(stdout)["output"] if as_json else stdout.rstrip("\n")
        if is_formula:
            return code == 0 and text(parse_formula(shown)) == text(op_dual(parsed))
        want_prem, want_concl = dual_sequent(kind, *parsed)
        got_prem, got_concl = parse_sequent(shown)
        return code == 0 and same_set(got_prem, want_prem) and same_set(got_concl, want_concl)
    if verb == "interpolate":
        prem, concl = parsed
        if len(prem) != 1 or len(concl) != 1:
            return code == 2
        if as_json:
            result = json.loads(stdout)["result"]
            out = f"I:{result['interpolant']}" if result["member"] else f"F:{result['reason']}"
        else:
            first = lines[0]
            out = "I:" + first[len("interpolant: "):] if first.startswith("interpolant: ") \
                else "F:" + first[len("FAILURE: "):]
        return code == (0 if out.startswith("I:") else 1) and check_milne(out, prem[0], concl[0])
    if verb == "truthtable":
        space = Space(variables(parsed))
        values = space.eval(parsed)
        if code != 0 or len(lines) != space.size:
            return False
        for index, line in enumerate(lines):
            model = space.decode(index)
            if as_json:
                row = json.loads(line)
                if _record_model(row["valuation"]) != model or VALUE_CODES.get(row["value"]) != values[index]:
                    return False
            else:
                prefix = _shown_model(model)
                want = f"{prefix} | {_SHOWN[int(values[index])]}" if prefix else _SHOWN[int(values[index])]
                if line != want:
                    return False
        return True
    return False
