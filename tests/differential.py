"""Decision differential: one digest over mixcons's answers to random sequents.

Run it on two commits with the same arguments and compare the last line:

    PYTHONPATH=src python tests/differential.py --seed 1 --count 2000

Each sequent text is drawn from this script's own `random.Random(seed)`, so
the inputs do not depend on the code under test.  A sequent has n = 0..12
variables (about 30% with n > 8), and some use the constant L.  For each
it records:

- all eight (logic, mode) verdicts, with each countermodel's values in the
  valuation's own key order;
- for each logic, `is_antitheorem` of the premises and `is_theorem` of the
  conclusions, and `classically_valid` of the sequent;
- the st-product, lpk3-product, universal lambda lpk3-product, ts-minus
  product and ts-sum results;
- the answer of each of the 16 `dual_set_membership` routes, one kind per
  route (kinds `route K3+=~LP-` ...);
- the Milne interpolant, for sequents with one premise and one conclusion;
- the `--json` truthtable rows of each side formula, for n <= 4.

`--wide COUNT` then draws COUNT more sequents from the same generator, with
n = 13..20 variables, and records only their ST and TS verdicts (kinds
`wide ST valid` ...): these walks cross a 2^16-bit {0,1} block or a
16-variable {0,1/2} chunk, which the draws above never reach.  Without it
the output is that of the plain run.

An exception is recorded as its type name.  The script prints how many
answers of each kind it recorded and the SHA-256 of all of them.  With
`--entries` it first prints one line per answer, the SHA-256 of that answer's
record and its kind, so that `diff` of two runs names the answers that
changed.  Its file name does not start with `test_`, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import random

from mixcons import cli
from mixcons.consequence import STANDARDS, antivalid, classically_valid, is_antitheorem, is_theorem, valid
from mixcons.decomposition import (
    DecompositionFailure,
    MilneFailure,
    lp_k3_connector_lambda_free,
    lp_k3_product_universal_witness,
    milne_interpolant,
    st_connecting_formula,
    ts_minus_product_decision,
    ts_sum_decision,
)
from mixcons.duality import ROUTES, dual_set_membership
from mixcons.formula import Formula, parse_sequent, print_formula

MAX_VARS = 12
WIDE_VARS = (13, 20)


def _formula_text(rng: random.Random, leaves: list[str]) -> str:
    """A random formula over `leaves`, each used once, in a random shape."""
    parts = list(leaves)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [f"({parts[i]} {rng.choice('&|')} {parts[i + 1]})"]
        if rng.random() < 0.3:
            parts[i] = "~" + parts[i]
    return ("~" if rng.random() < 0.2 else "") + parts[0]


def sequent_text(rng: random.Random) -> str:
    """A sequent over exactly n variables x0..x(n-1), n <= MAX_VARS."""
    n = rng.randint(9, MAX_VARS) if rng.random() < 0.3 else rng.randint(0, 8)
    leaves = [f"x{i}" for i in range(n)] or [rng.choice("TFL")]
    leaves += rng.choices(leaves, k=rng.randint(0, 3))
    if rng.random() < 0.2:
        leaves.append(rng.choice("TF"))
    if rng.random() < 0.15:
        leaves.append("L")
    rng.shuffle(leaves)
    # A => A | B or A & B => B is valid, so products and interpolants get built;
    # up to 10 leaves keeps their connectors to seconds.
    if 1 < len(leaves) <= 10 and rng.random() < 0.3:
        cut = rng.randint(1, len(leaves) - 1)
        a, b = _formula_text(rng, leaves[:cut]), _formula_text(rng, leaves[cut:])
        return f"{a} => {a} | {b}" if rng.random() < 0.5 else f"{a} & {b} => {b}"
    sides = rng.randint(1, min(4, len(leaves)))
    cuts = sorted(rng.sample(range(1, len(leaves)), sides - 1))
    groups = [leaves[i:j] for i, j in zip([0, *cuts], [*cuts, len(leaves)])]
    split = rng.randint(0, sides)
    premises, conclusions = (", ".join(_formula_text(rng, g) for g in side)
                             for side in (groups[:split], groups[split:]))
    return f"{premises} => {conclusions}".strip()


def wide_sequent_text(rng: random.Random) -> str:
    """A sequent over exactly n variables x0..x(n-1), n in WIDE_VARS.

    A third are valid in ST (full walks); a third conjoin x0, the first
    variable in sorted order, to the premises, which moves ST and TS
    countermodels past every valuation with x0 = 0."""
    n = rng.randint(*WIDE_VARS)
    leaves = [f"x{i}" for i in range(n)]
    leaves += rng.choices(leaves, k=rng.randint(0, 3))
    if rng.random() < 0.15:
        leaves.append("L")
    rng.shuffle(leaves)
    cut = rng.randint(1, len(leaves) - 1)
    a, b = _formula_text(rng, leaves[:cut]), _formula_text(rng, leaves[cut:])
    return rng.choice([f"{a} => {a} | {b}", f"x0 & {a} => {b}", f"{a} => {b}"])


def _valuation(v) -> list:
    return None if v is None else [[name, str(value)] for name, value in v.assignments.items()]


def _verdict(v) -> list:
    return [v.valid, _valuation(v.countermodel)]


def _product(outcome) -> dict:
    if isinstance(outcome, DecompositionFailure):
        return {"member": False, "countermodel": _valuation(outcome.countermodel)}
    return {"connector": print_formula(outcome.connector),
            "checks": [_verdict(outcome.left_check), _verdict(outcome.right_check)]}


def _ts_sum(decision) -> dict:
    reason = decision.reason
    if decision.member:
        return {"member": True, "reason": type(reason).__name__, "formula": print_formula(reason.formula)}
    return {"member": False, "pivot": print_formula(reason.pivot),
            "fails": [_valuation(reason.left_fail), _valuation(reason.right_fail)]}


def _milne(outcome) -> str:
    return outcome.reason if isinstance(outcome, MilneFailure) else print_formula(outcome)


def _truthtable(f: Formula) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["truthtable", "--json", print_formula(f)])
    return [code, out.getvalue()]


def answers(text: str):
    """(kind, answer) for every answer recorded for the sequent `text`."""
    inf = parse_sequent(text)
    calls = [
        (f"{name} {mode.__name__}", lambda mode=mode, logic=logic: _verdict(mode(logic, inf)))
        for name, logic in sorted(STANDARDS.items())
        for mode in (valid, antivalid)
    ]
    calls += [
        (f"{name} {kind}", lambda decide=decide, logic=logic, side=side: decide(logic, side))
        for name, logic in sorted(STANDARDS.items())
        for kind, decide, side in (("is_antitheorem", is_antitheorem, inf.premises),
                                   ("is_theorem", is_theorem, inf.conclusions))
    ]
    calls += [
        ("classically-valid", lambda: classically_valid(inf)),
        ("st-product", lambda: _product(st_connecting_formula(inf))),
        ("lpk3-product", lambda: _product(lp_k3_connector_lambda_free(inf))),
        ("lpk3-universal", lambda: _product(lp_k3_product_universal_witness(inf))),
        ("ts-minus-product", lambda: _product(ts_minus_product_decision(inf))),
        ("ts-sum", lambda: _ts_sum(ts_sum_decision(inf))),
    ]
    calls += [
        (f"route {route}", lambda route=route: dual_set_membership(route.split("=", 1)[0], inf, route))
        for route in ROUTES
    ]
    if len(inf.premises) == len(inf.conclusions) == 1:
        calls.append(("milne", lambda: _milne(milne_interpolant(inf.premises[0], inf.conclusions[0]))))
    if len(inf.variables()) <= 4:
        calls += [("truthtable", lambda f=f: _truthtable(f)) for f in inf.premises + inf.conclusions]
    for kind, call in calls:
        try:
            yield kind, call()
        except Exception as err:  # recorded, so that both commits must raise the same
            yield kind, {"raised": type(err).__name__}


def wide_answers(text: str):
    """(kind, answer) for the ST and TS verdicts of the sequent `text`."""
    inf = parse_sequent(text)
    for name in ("ST", "TS"):
        for mode in (valid, antivalid):
            yield f"wide {name} {mode.__name__}", _verdict(mode(STANDARDS[name], inf))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000, help="number of sequents")
    parser.add_argument("--entries", action="store_true", help="also print each answer's hash and kind")
    parser.add_argument("--wide", type=int, default=0, metavar="COUNT",
                        help="then COUNT sequents with 13..20 variables, ST and TS verdicts only")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    digest, counts, raised = hashlib.sha256(), collections.Counter(), collections.Counter()
    draws = [(sequent_text, answers)] * args.count + [(wide_sequent_text, wide_answers)] * args.wide
    for draw, record_answers in draws:
        text = draw(rng)
        for kind, answer in record_answers(text):
            counts[kind] += 1
            if isinstance(answer, dict) and "raised" in answer:
                raised[kind, answer["raised"]] += 1
            record = json.dumps([text, kind, answer]).encode() + b"\n"
            digest.update(record)
            if args.entries:
                print(hashlib.sha256(record).hexdigest(), kind)
    for kind in sorted(counts):
        print(f"{kind:18} {counts[kind]}")
    for (kind, name), count in sorted(raised.items()):
        print(f"raised {kind} {name} {count}")
    print(f"total {sum(counts.values())} answers, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
