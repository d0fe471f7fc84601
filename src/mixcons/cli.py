"""Command-line front end.

Verbs: check, decompose, dualize, interpolate, truthtable, oracle.
Each verb builds one record per answer: the object that --json prints,
one per line.  Text mode prints a rendering of the same record, so the
two outputs carry the same fields.  Exit codes are stable across verbs:
0 for success/valid, 1 for a semantic negative (invalid, non-member,
failed interpolation), 2 for usage or parse errors or input too deep for
what still recurses: formula equality and hashing, and the oracle's random
formulas (parsing, evaluation, printing and the operational dual keep their
own stacks).

A verb imports `decomposition`, `duality` or `oracle` when it runs, so a
process that only checks sequents never loads them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .formula import (
    CONSTANT_ATOMS,
    Formula,
    Inference,
    ParseError,
    atoms,
    invert,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)
from .semantics import VALUE_ORDER, rail_blocks, valuation_record
from .consequence import K3, LP, STANDARDS, antivalid, valid, verdict_record

if TYPE_CHECKING:
    from .decomposition import ProductWitness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

DEFAULT_TABLE_CAP = 6

# What a verb returns: exit code, its records, and the text rendering of one record.
Answer = tuple[int, Iterable[dict], Callable[[dict], str]]


class UsageError(Exception):
    """Input the argument parser accepts but the verb cannot answer (exit 2)."""


def _valuation_text(record: dict[str, str]) -> str:
    """`p=1 q=1/2`: a valuation record, already sorted by variable name."""
    return " ".join(f"{name}={value}" for name, value in record.items())


def _verdict_text(r: dict) -> str:
    if "antivalid" in r:
        label = "ANTIVALID" if r["antivalid"] else "NOT-ANTIVALID"
    else:
        label = "VALID" if r["valid"] else "INVALID"
    if r["countermodel"] is None:
        return label
    return f"{label}\ncountermodel: {_valuation_text(r['countermodel'])}"


def _result_text(r: dict) -> str:
    """Rendering of a decompose or interpolate record: head line(s), then one line per check."""
    result = r["result"]
    if "connector" in result:
        lines = [f"MEMBER connector: {result['connector']}"]
    elif "formula" in result:
        lines = [f"MEMBER {result['reason']}: {result['formula']}"]
    elif "countermodel" in result:
        lines = ["NOT-MEMBER", f"countermodel: {_valuation_text(result['countermodel'])}"]
    elif "pivot" in result:
        lines = [
            f"NOT-MEMBER pivot: {result['pivot']}",
            f"left check fails under: {_valuation_text(result['left_fail'])}",
            f"right check fails under: {_valuation_text(result['right_fail'])}",
        ]
    elif "interpolant" in result:
        lines = [f"interpolant: {result['interpolant']}"]
    else:
        lines = [f"FAILURE: {result['reason']}"]
    for c in r["checks"]:
        lines.append(f"check {c['logic']}: {c['sequent']} -> {'valid' if c['valid'] else 'invalid'}")
    return "\n".join(lines)


def _row_text(r: dict) -> str:
    prefix = _valuation_text(r["valuation"])
    return f"{prefix} | {r['value']}" if prefix else r["value"]


def _oracle_text(r: dict) -> str:
    if r["passed"]:
        return f"PASS {r['property']} ({r['samples']} samples)"
    return f"FAIL {r['property']}: {r['counterexample']}"


def _record(inf: Inference, mode: str, result: dict, checks: Sequence[dict] = ()) -> dict:
    return {"sequent": print_sequent(inf), "mode": mode, "result": result, "checks": list(checks)}


def _witness_checks(inf: Inference, witness: ProductWitness, left_logic: str, right_logic: str) -> list[dict]:
    halves = (
        (left_logic, Inference(inf.premises, (witness.connector,)), witness.left_check),
        (right_logic, Inference((witness.connector,), inf.conclusions), witness.right_check),
    )
    return [{"logic": logic, "sequent": print_sequent(half), "valid": v.valid} for logic, half, v in halves]


def cmd_check(args: argparse.Namespace) -> Answer:
    inf = parse_sequent(args.sequent)
    logic = STANDARDS[args.logic.upper()]
    verdict = antivalid(logic, inf) if args.anti else valid(logic, inf)
    record = verdict_record(logic, inf, verdict, anti=args.anti)
    return EXIT_OK if verdict.valid else EXIT_NEGATIVE, [record], _verdict_text


def cmd_decompose(args: argparse.Namespace) -> Answer:
    from .decomposition import (
        AlwaysZeroPremise,
        DecompositionFailure,
        LambdaNotAllowedError,
        lp_k3_connector_lambda_free,
        st_connecting_formula,
        ts_sum_decision,
    )

    inf = parse_sequent(args.sequent)
    if args.mode == "ts-sum":
        decision = ts_sum_decision(inf)
        reason = decision.reason
        if decision.member:
            kind = "always-false-premise" if isinstance(reason, AlwaysZeroPremise) else "always-true-conclusion"
            result = {"member": True, "reason": kind, "formula": print_formula(reason.formula)}
        else:
            result = {
                "member": False,
                "pivot": print_formula(reason.pivot),
                "left_fail": valuation_record(reason.left_fail),
                "right_fail": valuation_record(reason.right_fail),
            }
        return EXIT_OK if decision.member else EXIT_NEGATIVE, [_record(inf, args.mode, result)], _result_text

    products = {
        "st-product": (st_connecting_formula, "K3", "LP"),
        "lpk3-product": (lp_k3_connector_lambda_free, "LP", "K3"),
    }
    decide, left_logic, right_logic = products[args.mode]
    try:
        outcome = decide(inf)
    except LambdaNotAllowedError:
        raise UsageError(
            "lambda is not allowed in this mode; on the full language the "
            "constant L connects any inference in the LP-then-K3 product"
        )
    if isinstance(outcome, DecompositionFailure):
        result = {"member": False, "countermodel": valuation_record(outcome.countermodel)}
        return EXIT_NEGATIVE, [_record(inf, args.mode, result)], _result_text
    result = {"member": True, "connector": print_formula(outcome.connector)}
    checks = _witness_checks(inf, outcome, left_logic, right_logic)
    return EXIT_OK, [_record(inf, args.mode, result, checks)], _result_text


def cmd_dualize(args: argparse.Namespace) -> Answer:
    from .duality import neg_dual_inference, op_dual, op_dual_inference

    text = args.input
    if "=>" in text:
        transform = {"op": op_dual_inference, "neg": neg_dual_inference, "invert": invert}[args.map]
        output = print_sequent(transform(parse_sequent(text)))
    else:
        formula = parse_formula(text)
        if args.map != "op":
            raise UsageError(f"--map {args.map} requires a sequent")
        output = print_formula(op_dual(formula))
    return EXIT_OK, [{"input": text, "map": args.map, "output": output}], lambda r: r["output"]


def cmd_interpolate(args: argparse.Namespace) -> Answer:
    from .decomposition import MilneFailure, milne_interpolant, product_witness

    inf = parse_sequent(args.sequent)
    if len(inf.premises) != 1 or len(inf.conclusions) != 1:
        raise UsageError("interpolation needs exactly one premise and one conclusion")
    phi, psi = inf.premises[0], inf.conclusions[0]
    outcome = milne_interpolant(phi, psi)
    if isinstance(outcome, MilneFailure):
        if outcome.reason == "lambda-present":
            raise UsageError("lambda is not allowed in interpolation inputs")
        return EXIT_NEGATIVE, [_record(inf, "milne", {"member": False, "reason": outcome.reason})], _result_text
    witness = product_witness(inf, outcome, K3, LP)
    result = {"member": True, "interpolant": print_formula(outcome)}
    return EXIT_OK, [_record(inf, "milne", result, _witness_checks(inf, witness, "K3", "LP"))], _result_text


def cmd_truthtable(args: argparse.Namespace) -> Answer:
    f = parse_formula(args.formula)
    domain = atoms(f)
    count = len(domain - CONSTANT_ATOMS)
    if count > args.max_vars:
        raise UsageError(f"too many variables ({count}); the cap is {args.max_vars} (raise it with --max-vars)")
    return EXIT_OK, _table_rows(f, domain), _row_text


def _table_rows(f: Formula, domain: Iterable[str]) -> Iterator[dict]:
    """One row per valuation of `domain`, in enumeration order: f's rails over each block, read at each bit."""
    for block in rail_blocks(domain):
        h, o = block.rails(f)
        for p in range(block.full.bit_length()):
            value = VALUE_ORDER[(h >> p & 1) + (o >> p & 1)]
            yield {"valuation": valuation_record(block.valuation(p)), "value": str(value)}


def run_oracle(*bounds):
    """`oracle.run_oracle`, importing the oracle on first use."""
    from .oracle import run_oracle

    return run_oracle(*bounds)


def cmd_oracle(args: argparse.Namespace) -> Answer:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("MIXCONS_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"MIXCONS_SEED must be an integer, got {raw!r}")
    try:
        report = run_oracle(args.max_vars, args.max_depth, args.samples, seed)
    except ValueError as err:
        raise UsageError(str(err))
    records = [
        {"property": r.name, "samples": r.samples, "passed": r.passed, "counterexample": r.counterexample}
        for r in report.results
    ]
    return EXIT_OK if report.ok else EXIT_NEGATIVE, records, _oracle_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcons",
        description="Three-valued consequence toolkit for K3, LP, ST and TS.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="decide validity or antivalidity of a sequent")
    p.add_argument("--logic", required=True, choices=("k3", "lp", "st", "ts"))
    p.add_argument("--anti", action="store_true", help="decide antivalidity instead")
    p.add_argument("--json", action="store_true")
    p.add_argument("sequent")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="product/sum decomposition of a sequent")
    p.add_argument("--mode", required=True, choices=("st-product", "ts-sum", "lpk3-product"))
    p.add_argument("--json", action="store_true")
    p.add_argument("sequent")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dualize", help="apply a duality map to a formula or sequent")
    p.add_argument("--map", required=True, choices=("op", "neg", "invert"))
    p.add_argument("--json", action="store_true")
    p.add_argument("input")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("interpolate", help="interpolant for a one-premise, one-conclusion sequent")
    p.add_argument("--json", action="store_true")
    p.add_argument("sequent")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("truthtable", help="print the three-valued table of a formula")
    p.add_argument("--max-vars", type=int, default=DEFAULT_TABLE_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("formula")
    p.set_defaults(func=cmd_truthtable)

    p = sub.add_parser("oracle", help="run the randomized property suites")
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None, help="defaults to MIXCONS_SEED or 0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, records, text = args.func(args)
        for record in records:
            print(json.dumps(record) if args.json else text(record))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): the answer stands.  Point stdout
        # at devnull so that the interpreter's final flush does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
