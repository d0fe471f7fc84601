"""Duality maps and the derived-set identities between the four logics.

The operational dual swaps conjunction with disjunction and verum with
falsum, fixing variables, negation and lambda; it is involutive.  The
negation dual prefixes negation to every formula and swaps the sides.
Combining the operational map with inference inversion interdefines all
eight validity/antivalidity sets; the identities are realized here as
per-inference membership tests (the sets themselves are infinite but
pointwise decidable).

A route is named by its identity, X=~Y or X=product/sum, and is read off
it, as validity in one standard: Gamma => Delta is X-antivalid exactly
when Delta => Gamma is valid in X's inverse (`consequence._inverse`).  An
X=~Y+ route decides Y on ~Gamma => ~Delta, an X=~Y- route Y's inverse on
the negation dual ~Delta => ~Gamma.  The others decide the product or sum
that defines X without building a witness.  An ST+ product route checks
the K3-DNF connector of the premises on its rails, a closure of their
strict set; a TS- product route is that check with the sides swapped.  A
TS+ sum route is the constant test, since the relative sum is the
antitheorems of one side plus the theorems of the other, which the
all-1/2 valuation decides; an ST- sum route is that test on the inverse.

The X=~Y routes build no dual.  Let v' be v with each variable's value
x replaced by 1 - x.  Then `op_dual(f)` at v is `~f` at v', since the
complement swaps min with max and 1 with 0 and fixes 1/2; and v -> v' is
a bijection of the valuations.  So Y holds of `op_dual_sides(inf)`
exactly when it holds of ~Gamma => ~Delta, each formula wrapped in `Not`
and the sides not swapped, over the same variables; the rails read a `~`
at no cost.  The countermodels of the two differ (one is the other's v'),
so a route returns only the membership bit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from .formula import And, Bot, Formula, Inference, Not, Or, Top, Var, BOT, TOP, invert
from .consequence import STANDARDS, _decide, _inverse, antivalid, valid
from .decomposition import _constant_witness, _k3_lp_product, st_minus_sum_decision


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


# The membership bit of the product or sum that defines each set (module docstring).
_PRODUCT_OR_SUM: dict[str, Callable[[Inference], bool]] = {
    "ST+": lambda inf: _k3_lp_product(inf.premises, inf.conclusions, inf.atoms()) is not None,
    "TS+": lambda inf: _constant_witness(inf) is not None,
    "ST-": st_minus_sum_decision,
    "TS-": lambda inf: _k3_lp_product(inf.conclusions, inf.premises, inf.atoms()) is not None,
}

ROUTES = (
    "K3+=~LP-", "LP+=~K3-", "ST+=~TS-", "TS+=~ST-", "K3-=~LP+", "LP-=~K3+", "ST-=~TS+", "TS-=~ST+",
    "ST+=K3+|~K3-", "ST+=~LP-|LP+", "TS+=~K3-+K3+", "TS+=LP++~LP-",
    "ST-=K3-+~K3+", "ST-=~LP++LP-", "TS-=~K3+|K3-", "TS-=LP-|~LP+",
)


def _route(identity: str) -> Callable[[Inference], bool]:
    target, rhs = identity.split("=")
    if len(rhs) == 4:  # ~Y+ is Y of ~Gamma => ~Delta, ~Y- Y's inverse of ~Delta => ~Gamma (module docstring)
        logic, sides = STANDARDS[rhs[1:3]], attrgetter("premises", "conclusions")
        if rhs[3] == "-":
            logic, sides = _inverse(logic), attrgetter("conclusions", "premises")
        return lambda inf: _decide(logic, *(tuple(map(Not, side)) for side in sides(inf)), inf.atoms()).valid
    return _PRODUCT_OR_SUM[target]


_ROUTES = {identity: _route(identity) for identity in ROUTES}


def dual_set_membership(target: str, inf: Inference, route: str) -> bool:
    """Decide membership in `target` via the named duality identity."""
    if route not in _ROUTES:
        raise UnknownRouteError(f"unknown route {route!r}")
    if route.split("=", 1)[0] != target:
        raise UnknownRouteError(f"route {route!r} does not define {target!r}")
    return _ROUTES[route](inf)
