"""Decision differential: one digest over mixcons's answers to random sequents.

Run it on two commits with the same arguments and compare the last line:

    PYTHONPATH=src python tests/differential.py --seed 1 --count 2000

Each sequent text is drawn from this script's own `random.Random(seed)`, so
the inputs do not depend on the code under test.  A sequent has n = 0..12
variables (about 30% with n > 8), and some use the constant L.  For each
it records:

- all eight (logic, mode) verdicts, with each countermodel's values in the
  valuation's own key order;
- the st-product, lpk3-product and ts-sum results;
- the Milne interpolant, for sequents with one premise and one conclusion;
- the `--json` truthtable rows of each side formula, for n <= 4.

An exception is recorded as its type name.  The script prints how many
answers of each kind it recorded and the SHA-256 of all of them.  Its file
name does not start with `test_`, so pytest does not collect it.
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
from mixcons.consequence import STANDARDS, antivalid, valid
from mixcons.decomposition import (
    DecompositionFailure,
    MilneFailure,
    lp_k3_connector_lambda_free,
    milne_interpolant,
    st_connecting_formula,
    ts_sum_decision,
)
from mixcons.formula import Formula, parse_sequent, print_formula

MAX_VARS = 12


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
        ("st-product", lambda: _product(st_connecting_formula(inf))),
        ("lpk3-product", lambda: _product(lp_k3_connector_lambda_free(inf))),
        ("ts-sum", lambda: _ts_sum(ts_sum_decision(inf))),
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000, help="number of sequents")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    digest, counts, raised = hashlib.sha256(), collections.Counter(), collections.Counter()
    for _ in range(args.count):
        text = sequent_text(rng)
        for kind, answer in answers(text):
            counts[kind] += 1
            if isinstance(answer, dict) and "raised" in answer:
                raised[kind, answer["raised"]] += 1
            digest.update(json.dumps([text, kind, answer]).encode() + b"\n")
    for kind in sorted(counts):
        print(f"{kind:16} {counts[kind]}")
    for (kind, name), count in sorted(raised.items()):
        print(f"raised {kind} {name} {count}")
    print(f"total {sum(counts.values())} answers, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
