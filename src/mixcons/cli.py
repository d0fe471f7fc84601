"""Command-line front end.

Verbs: check, decompose, dualize, interpolate, truthtable, oracle.
Exit codes are stable across verbs: 0 for success/valid, 1 for a semantic
negative (invalid, non-member, failed interpolation), 2 for usage or
parse errors or input nested too deeply.  Every verb accepts --json for
machine-readable output, one object per line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .formula import (
    Formula,
    Inference,
    ParseError,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)
from .semantics import enumerate_valuations, eval_formula, render_valuation, valuation_record
from .consequence import STANDARDS, Verdict, antivalid, valid, verdict_record
from .decomposition import (
    AlwaysZeroPremise,
    DecompositionFailure,
    LambdaNotAllowedError,
    MilneFailure,
    ProductWitness,
    SumRefutation,
    lp_k3_connector_lambda_free,
    milne_interpolant,
    st_connecting_formula,
    ts_sum_decision,
)
from .duality import invert, neg_dual_inference, op_dual, op_dual_inference
from .oracle import run_oracle

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

DEFAULT_TABLE_CAP = 6


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _parse_error(err: ParseError) -> int:
    print(f"parse error: {err}", file=sys.stderr)
    return EXIT_USAGE


def _check_entry(logic_name: str, inf: Inference, verdict: Verdict) -> dict:
    return {"logic": logic_name, "sequent": print_sequent(inf), "valid": verdict.valid}


def cmd_check(args: argparse.Namespace) -> int:
    try:
        inf = parse_sequent(args.sequent)
    except ParseError as err:
        return _parse_error(err)
    logic = STANDARDS[args.logic.upper()]
    verdict = antivalid(logic, inf) if args.anti else valid(logic, inf)
    if args.json:
        _emit(verdict_record(logic, inf, verdict, anti=args.anti))
    else:
        if args.anti:
            label = "ANTIVALID" if verdict.valid else "NOT-ANTIVALID"
        else:
            label = "VALID" if verdict.valid else "INVALID"
        print(label)
        if verdict.countermodel is not None:
            print(f"countermodel: {render_valuation(verdict.countermodel)}")
    return EXIT_OK if verdict.valid else EXIT_NEGATIVE


def _witness_report(inf: Inference, mode: str, witness: ProductWitness, left_logic: str, right_logic: str) -> dict:
    connector = print_formula(witness.connector)
    return {
        "sequent": print_sequent(inf),
        "mode": mode,
        "result": {"member": True, "connector": connector},
        "checks": [
            _check_entry(left_logic, Inference(inf.premises, (witness.connector,)), witness.left_check),
            _check_entry(right_logic, Inference((witness.connector,), inf.conclusions), witness.right_check),
        ],
    }


def _print_witness(witness: ProductWitness, inf: Inference, left_logic: str, right_logic: str) -> None:
    print(f"MEMBER connector: {print_formula(witness.connector)}")
    left_inf = Inference(inf.premises, (witness.connector,))
    right_inf = Inference((witness.connector,), inf.conclusions)
    print(f"check {left_logic}: {print_sequent(left_inf)} -> {'valid' if witness.left_check.valid else 'invalid'}")
    print(f"check {right_logic}: {print_sequent(right_inf)} -> {'valid' if witness.right_check.valid else 'invalid'}")


def cmd_decompose(args: argparse.Namespace) -> int:
    try:
        inf = parse_sequent(args.sequent)
    except ParseError as err:
        return _parse_error(err)

    if args.mode == "st-product":
        outcome = st_connecting_formula(inf)
        if isinstance(outcome, ProductWitness):
            if args.json:
                _emit(_witness_report(inf, args.mode, outcome, "K3", "LP"))
            else:
                _print_witness(outcome, inf, "K3", "LP")
            return EXIT_OK
        if args.json:
            _emit({
                "sequent": print_sequent(inf),
                "mode": args.mode,
                "result": {"member": False, "countermodel": valuation_record(outcome.countermodel)},
                "checks": [],
            })
        else:
            print("NOT-MEMBER")
            print(f"countermodel: {render_valuation(outcome.countermodel)}")
        return EXIT_NEGATIVE

    if args.mode == "ts-sum":
        decision = ts_sum_decision(inf)
        if decision.member:
            reason = decision.reason
            kind = "always-false-premise" if isinstance(reason, AlwaysZeroPremise) else "always-true-conclusion"
            if args.json:
                _emit({
                    "sequent": print_sequent(inf),
                    "mode": args.mode,
                    "result": {"member": True, "reason": kind, "formula": print_formula(reason.formula)},
                    "checks": [],
                })
            else:
                print(f"MEMBER {kind}: {print_formula(reason.formula)}")
            return EXIT_OK
        refutation = decision.reason
        assert isinstance(refutation, SumRefutation)
        if args.json:
            _emit({
                "sequent": print_sequent(inf),
                "mode": args.mode,
                "result": {
                    "member": False,
                    "pivot": print_formula(refutation.pivot),
                    "left_fail": valuation_record(refutation.left_fail),
                    "right_fail": valuation_record(refutation.right_fail),
                },
                "checks": [],
            })
        else:
            print(f"NOT-MEMBER pivot: {print_formula(refutation.pivot)}")
            print(f"left check fails under: {render_valuation(refutation.left_fail)}")
            print(f"right check fails under: {render_valuation(refutation.right_fail)}")
        return EXIT_NEGATIVE

    # lpk3-product
    try:
        outcome = lp_k3_connector_lambda_free(inf)
    except LambdaNotAllowedError:
        print(
            "lambda is not allowed in this mode; on the full language the "
            "constant L connects any inference in the LP-then-K3 product",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if isinstance(outcome, ProductWitness):
        if args.json:
            _emit(_witness_report(inf, args.mode, outcome, "LP", "K3"))
        else:
            _print_witness(outcome, inf, "LP", "K3")
        return EXIT_OK
    if args.json:
        _emit({
            "sequent": print_sequent(inf),
            "mode": args.mode,
            "result": {"member": False, "countermodel": valuation_record(outcome.countermodel)},
            "checks": [],
        })
    else:
        print("NOT-MEMBER")
        print(f"countermodel: {render_valuation(outcome.countermodel)}")
    return EXIT_NEGATIVE


def cmd_dualize(args: argparse.Namespace) -> int:
    text = args.input
    is_sequent = "=>" in text
    try:
        parsed = parse_sequent(text) if is_sequent else parse_formula(text)
    except ParseError as err:
        return _parse_error(err)

    if isinstance(parsed, Formula):
        if args.map != "op":
            print(f"--map {args.map} requires a sequent", file=sys.stderr)
            return EXIT_USAGE
        output = print_formula(op_dual(parsed))
    else:
        transform = {"op": op_dual_inference, "neg": neg_dual_inference, "invert": invert}[args.map]
        output = print_sequent(transform(parsed))

    if args.json:
        _emit({"input": text, "map": args.map, "output": output})
    else:
        print(output)
    return EXIT_OK


def cmd_interpolate(args: argparse.Namespace) -> int:
    try:
        inf = parse_sequent(args.sequent)
    except ParseError as err:
        return _parse_error(err)
    if len(inf.premises) != 1 or len(inf.conclusions) != 1:
        print("interpolation needs exactly one premise and one conclusion", file=sys.stderr)
        return EXIT_USAGE
    phi, psi = inf.premises[0], inf.conclusions[0]
    outcome = milne_interpolant(phi, psi)
    if isinstance(outcome, MilneFailure):
        if outcome.reason == "lambda-present":
            print("lambda is not allowed in interpolation inputs", file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            _emit({
                "sequent": print_sequent(inf),
                "mode": "milne",
                "result": {"member": False, "reason": outcome.reason},
                "checks": [],
            })
        else:
            print(f"FAILURE: {outcome.reason}")
        return EXIT_NEGATIVE
    left = valid(STANDARDS["K3"], Inference((phi,), (outcome,)))
    right = valid(STANDARDS["LP"], Inference((outcome,), (psi,)))
    if args.json:
        _emit({
            "sequent": print_sequent(inf),
            "mode": "milne",
            "result": {"member": True, "interpolant": print_formula(outcome)},
            "checks": [
                _check_entry("K3", Inference((phi,), (outcome,)), left),
                _check_entry("LP", Inference((outcome,), (psi,)), right),
            ],
        })
    else:
        print(f"interpolant: {print_formula(outcome)}")
        print(f"check K3: {print_sequent(Inference((phi,), (outcome,)))} -> {'valid' if left.valid else 'invalid'}")
        print(f"check LP: {print_sequent(Inference((outcome,), (psi,)))} -> {'valid' if right.valid else 'invalid'}")
    return EXIT_OK


def cmd_truthtable(args: argparse.Namespace) -> int:
    try:
        f = parse_formula(args.formula)
    except ParseError as err:
        return _parse_error(err)
    from .formula import atoms, CONSTANT_ATOMS

    names = sorted(atoms(f) - CONSTANT_ATOMS)
    if len(names) > args.max_vars:
        print(
            f"too many variables ({len(names)}); the cap is {args.max_vars} "
            "(raise it with --max-vars)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    for v in enumerate_valuations(atoms(f)):
        value = eval_formula(f, v)
        if args.json:
            _emit({"valuation": valuation_record(v) or {}, "value": str(value)})
        else:
            prefix = render_valuation(v)
            print(f"{prefix} | {value}" if prefix else str(value))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("MIXCONS_SEED", "0"))
    try:
        report = run_oracle(args.max_vars, args.max_depth, args.samples, seed)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    for result in report.results:
        if args.json:
            _emit({
                "property": result.name,
                "samples": result.samples,
                "passed": result.passed,
                "counterexample": result.counterexample,
            })
        elif result.passed:
            print(f"PASS {result.name} ({result.samples} samples)")
        else:
            print(f"FAIL {result.name}: {result.counterexample}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())
