"""Duality maps and the derived-set identities between the four logics.

The operational dual swaps conjunction with disjunction and verum with
falsum, fixing variables, negation and lambda; it is involutive.  The
negation dual prefixes negation to every formula and swaps the sides.
Combining the operational map with inference inversion interdefines all
eight validity/antivalidity sets; the identities are realized here as
per-inference membership tests (the sets themselves are infinite but
pointwise decidable).
"""

from __future__ import annotations

from typing import Callable

from .formula import And, Bot, Formula, Inference, Lambda, Not, Or, Top, Var, BOT, TOP
from .consequence import K3, LP, ST, STANDARDS, TS, antivalid, valid
from .decomposition import (
    ProductWitness,
    st_connecting_formula,
    st_minus_sum_decision,
    ts_minus_product_decision,
    ts_sum_decision,
)


class UnknownRouteError(ValueError):
    pass


def op_dual(f: Formula) -> Formula:
    if isinstance(f, Var):
        return f
    if isinstance(f, Top):
        return BOT
    if isinstance(f, Bot):
        return TOP
    if isinstance(f, Lambda):
        return f
    if isinstance(f, Not):
        return Not(op_dual(f.sub))
    if isinstance(f, And):
        return Or(op_dual(f.left), op_dual(f.right))
    return And(op_dual(f.left), op_dual(f.right))


def op_dual_sides(inf: Inference) -> Inference:
    """Pointwise operational dual of both sides, without swapping them."""
    return Inference(
        tuple(op_dual(f) for f in inf.premises),
        tuple(op_dual(f) for f in inf.conclusions),
    )


def op_dual_inference(inf: Inference) -> Inference:
    """The operational dual inference: map both sides pointwise, then swap."""
    return Inference(
        tuple(op_dual(f) for f in inf.conclusions),
        tuple(op_dual(f) for f in inf.premises),
    )


def neg_dual_inference(inf: Inference) -> Inference:
    """Prefix negation to every formula and swap the sides (no simplification)."""
    return Inference(
        tuple(Not(f) for f in inf.conclusions),
        tuple(Not(f) for f in inf.premises),
    )


def invert(inf: Inference) -> Inference:
    return Inference(inf.conclusions, inf.premises)


def direct_membership(target: str, inf: Inference) -> bool:
    """Membership in one of the eight validity/antivalidity sets, directly."""
    logic = STANDARDS[target[:-1]]
    if target.endswith("+"):
        return valid(logic, inf).valid
    return antivalid(logic, inf).valid


def _st_product(inf: Inference) -> bool:
    return isinstance(st_connecting_formula(inf), ProductWitness)


# A route is named by its identity; the set before the "=" is the one it
# defines.  Each route rewrites the query through the operational map
# and/or inversion, then delegates to the decision procedure for the
# identity's right-hand side.  The simple ~ routes use that inf is in ~X
# exactly when its pointwise dual is in X; the product/sum routes use that
# ~ turns each antivalidity set into the matching validity set, reducing to
# the canonical product/sum procedures.
_ROUTES: dict[str, Callable[[Inference], bool]] = {
    "K3+=~LP-": lambda inf: antivalid(LP, op_dual_sides(inf)).valid,
    "LP+=~K3-": lambda inf: antivalid(K3, op_dual_sides(inf)).valid,
    "ST+=~TS-": lambda inf: antivalid(TS, op_dual_sides(inf)).valid,
    "TS+=~ST-": lambda inf: antivalid(ST, op_dual_sides(inf)).valid,
    "K3-=~LP+": lambda inf: valid(LP, op_dual_sides(inf)).valid,
    "LP-=~K3+": lambda inf: valid(K3, op_dual_sides(inf)).valid,
    "ST-=~TS+": lambda inf: valid(TS, op_dual_sides(inf)).valid,
    "TS-=~ST+": lambda inf: valid(ST, op_dual_sides(inf)).valid,
    "ST+=K3+|~K3-": _st_product,
    "ST+=~LP-|LP+": _st_product,
    "TS+=~K3-+K3+": lambda inf: ts_sum_decision(inf).member,
    "TS+=LP++~LP-": lambda inf: ts_sum_decision(inf).member,
    "ST-=K3-+~K3+": st_minus_sum_decision,
    "ST-=~LP++LP-": st_minus_sum_decision,
    "TS-=~K3+|K3-": lambda inf: ts_minus_product_decision(inf).member,
    "TS-=LP-|~LP+": lambda inf: ts_minus_product_decision(inf).member,
}

ROUTES = tuple(_ROUTES)


def dual_set_membership(target: str, inf: Inference, route: str) -> bool:
    """Decide membership in `target` via the named duality identity."""
    if route not in _ROUTES:
        raise UnknownRouteError(f"unknown route {route!r}")
    if route.split("=", 1)[0] != target:
        raise UnknownRouteError(f"route {route!r} does not define {target!r}")
    return _ROUTES[route](inf)
