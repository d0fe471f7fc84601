"""Duality maps and the derived-set identities between the four logics.

The operational dual swaps conjunction with disjunction and verum with
falsum, fixing variables, negation and lambda; it is involutive.  The
negation dual prefixes negation to every formula and swaps the sides.
Combining the operational map with inference inversion interdefines all
eight validity/antivalidity sets; the identities are realized here as
per-inference membership tests (the sets themselves are infinite but
pointwise decidable).

A route is named by its identity, X=~Y or X=product/sum, and is read off
it: an X=~Y route decides Y on the pointwise operational dual; the others
call the one procedure for X.  By inversion, Gamma => Delta is in TS-
exactly when Delta => Gamma is in ST+, so the TS- product is the ST
product of the inverted inference.
"""

from __future__ import annotations

from typing import Callable

from .formula import And, Bot, Formula, Inference, Not, Or, Top, Var, BOT, TOP, invert
from .consequence import STANDARDS, antivalid, valid
from .decomposition import (
    ProductWitness,
    st_connecting_formula,
    st_minus_sum_decision,
    ts_minus_product_decision,
    ts_sum_decision,
)


class UnknownRouteError(ValueError):
    pass


_LEAF_DUAL = {Top: BOT, Bot: TOP}  # every other leaf is its own dual


def op_dual(f: Formula) -> Formula:
    """`f` with & and | swapped and T and F swapped, without recursion: above
    each node's operands `todo` holds its dual's class, which rebuilds it from
    the mapped operands on `done`.  A variable operand goes to `done` at once,
    which saves a step per leaf."""
    done: list[Formula] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is And or kind is Or:
            dual, left, right = Or if kind is And else And, g.left, g.right
            if type(left) is not Var:
                todo += (dual, right, left)
            elif type(right) is Var:
                done.append(dual(left, right))
            else:
                done.append(left)
                todo += (dual, right)
        elif kind is Var:
            done.append(g)
        elif kind is type:
            if g is Not:
                done.append(Not(done.pop()))
            else:
                right = done.pop()
                done.append(g(done.pop(), right))
        elif kind is Not:
            todo += (Not, g.sub)
        else:
            done.append(_LEAF_DUAL.get(kind, g))
    return done.pop()


def op_dual_sides(inf: Inference) -> Inference:
    """Pointwise operational dual of both sides, without swapping them."""
    return Inference(
        tuple(op_dual(f) for f in inf.premises),
        tuple(op_dual(f) for f in inf.conclusions),
    )


def op_dual_inference(inf: Inference) -> Inference:
    """The operational dual inference: map both sides pointwise, then swap."""
    return invert(op_dual_sides(inf))


def neg_dual_inference(inf: Inference) -> Inference:
    """Prefix negation to every formula and swap the sides (no simplification)."""
    return Inference(
        tuple(Not(f) for f in inf.conclusions),
        tuple(Not(f) for f in inf.premises),
    )


def direct_membership(target: str, inf: Inference) -> bool:
    """Membership in one of the eight validity/antivalidity sets, directly."""
    logic = STANDARDS[target[:-1]]
    if target.endswith("+"):
        return valid(logic, inf).valid
    return antivalid(logic, inf).valid


# The procedure for each set that a product or sum route defines.
_PRODUCT_OR_SUM: dict[str, Callable[[Inference], bool]] = {
    "ST+": lambda inf: isinstance(st_connecting_formula(inf), ProductWitness),
    "TS+": lambda inf: ts_sum_decision(inf).member,
    "ST-": st_minus_sum_decision,
    "TS-": lambda inf: isinstance(ts_minus_product_decision(inf), ProductWitness),
}

ROUTES = (
    "K3+=~LP-", "LP+=~K3-", "ST+=~TS-", "TS+=~ST-", "K3-=~LP+", "LP-=~K3+", "ST-=~TS+", "TS-=~ST+",
    "ST+=K3+|~K3-", "ST+=~LP-|LP+", "TS+=~K3-+K3+", "TS+=LP++~LP-",
    "ST-=K3-+~K3+", "ST-=~LP++LP-", "TS-=~K3+|K3-", "TS-=LP-|~LP+",
)


def _route(identity: str) -> Callable[[Inference], bool]:
    target, rhs = identity.split("=")
    if len(rhs) == 4:  # ~Y: inf is in X exactly when its pointwise dual is in Y
        dual_target = rhs[1:]
        return lambda inf: direct_membership(dual_target, op_dual_sides(inf))
    return _PRODUCT_OR_SUM[target]


_ROUTES = {identity: _route(identity) for identity in ROUTES}


def dual_set_membership(target: str, inf: Inference, route: str) -> bool:
    """Decide membership in `target` via the named duality identity."""
    if route not in _ROUTES:
        raise UnknownRouteError(f"unknown route {route!r}")
    if route.split("=", 1)[0] != target:
        raise UnknownRouteError(f"route {route!r} does not define {target!r}")
    return _ROUTES[route](inf)
