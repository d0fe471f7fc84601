"""Three-valued consequence toolkit for the Strong-Kleene logics K3, LP, ST, TS.

Decides validity and antivalidity, constructs connecting formulas for the
mixed logics, applies duality maps, and builds interpolants.

The public names below are imported from their module on first use (PEP
562), so a program loads only the layers it touches; each name is then
kept in this package's globals, and later lookups are plain ones.
"""

import importlib

_EXPORTS = {
    "formula": (
        "And", "Bot", "Formula", "Inference", "Lambda", "Not", "Or", "ParseError", "Top", "Var",
        "BOT", "LAM", "TOP", "atoms", "invert", "parse_formula", "parse_sequent", "print_formula",
        "print_sequent",
    ),
    "semantics": (
        "HALF", "ONE", "ZERO", "TruthValue", "Valuation", "all_half_valuation", "enumerate_valuations",
        "eval_formula",
    ),
    "consequence": (
        "K3", "LP", "ST", "STANDARDS", "TS", "LogicStandard", "Verdict", "antivalid", "classically_valid",
        "is_antitheorem", "is_theorem", "valid",
    ),
    "decomposition": (
        "DecompositionFailure", "LambdaNotAllowedError", "MilneFailure", "ProductWitness", "SumRefutation",
        "TsSumDecision", "k3_dnf", "lp_k3_connector_lambda_free", "lp_k3_product_universal_witness",
        "milne_interpolant", "st_connecting_formula", "ts_sum_decision",
    ),
    "duality": (
        "ROUTES", "direct_membership", "dual_set_membership", "neg_dual_inference", "op_dual", "op_dual_inference",
    ),
    "oracle": ("OracleReport", "PropertyResult", "run_oracle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
