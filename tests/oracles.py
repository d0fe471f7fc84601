"""Independent brute-force reference implementation used by the tests.

Deliberately avoids the library's Valuation/TruthValue machinery: values
are exact Fractions, designated sets are spelled out literally, and
variable collection is its own recursion.  Any agreement between this
module and the package is therefore informative.
"""

import itertools
from fractions import Fraction

from mixcons.formula import And, Bot, Inference, Lambda, Not, Or, Top, Var

HALF = Fraction(1, 2)
ZERO = Fraction(0)
ONE = Fraction(1)
VALUES = (ZERO, HALF, ONE)

_STRICT = frozenset({ONE})
_TOLERANT = frozenset({HALF, ONE})

DESIGNATED = {
    "K3": (_STRICT, _STRICT),
    "LP": (_TOLERANT, _TOLERANT),
    "ST": (_STRICT, _TOLERANT),
    "TS": (_TOLERANT, _STRICT),
}


def formula_vars(f):
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, (Top, Bot, Lambda)):
        return set()
    if isinstance(f, Not):
        return formula_vars(f.sub)
    return formula_vars(f.left) | formula_vars(f.right)


def brute_eval(f, env):
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Top):
        return ONE
    if isinstance(f, Bot):
        return ZERO
    if isinstance(f, Lambda):
        return HALF
    if isinstance(f, Not):
        return ONE - brute_eval(f.sub, env)
    if isinstance(f, And):
        return min(brute_eval(f.left, env), brute_eval(f.right, env))
    return max(brute_eval(f.left, env), brute_eval(f.right, env))


def _environments(inf: Inference):
    names = sorted(set().union(*(formula_vars(f) for f in inf.premises + inf.conclusions), set()))
    for combo in itertools.product(VALUES, repeat=len(names)):
        yield dict(zip(names, combo))


def brute_valid(logic_name: str, inf: Inference) -> bool:
    d1, d2 = DESIGNATED[logic_name]
    for env in _environments(inf):
        if all(brute_eval(g, env) in d1 for g in inf.premises):
            if not any(brute_eval(d, env) in d2 for d in inf.conclusions):
                return False
    return True


def brute_antivalid(logic_name: str, inf: Inference) -> bool:
    d1, d2 = DESIGNATED[logic_name]
    for env in _environments(inf):
        if all(brute_eval(g, env) not in d1 for g in inf.premises):
            if not any(brute_eval(d, env) not in d2 for d in inf.conclusions):
                return False
    return True


def brute_equivalent(f, g) -> bool:
    """Same Fraction value under every assignment to the union of variables."""
    names = sorted(formula_vars(f) | formula_vars(g))
    for combo in itertools.product(VALUES, repeat=len(names)):
        env = dict(zip(names, combo))
        if brute_eval(f, env) != brute_eval(g, env):
            return False
    return True


def brute_first_countermodel(logic_name: str, inf: Inference, anti: bool = False):
    """First countermodel over all 3^n environments, as a name -> Fraction dict.

    Environments are visited in lexicographic order of the sorted variable
    names with 0 < 1/2 < 1; None when there is no countermodel.
    """
    d1, d2 = DESIGNATED[logic_name]
    names = sorted(set().union(*(formula_vars(f) for f in inf.premises + inf.conclusions), set()))
    for combo in itertools.product(VALUES, repeat=len(names)):
        env = dict(zip(names, combo))
        premises = [brute_eval(g, env) in d1 for g in inf.premises]
        conclusions = [brute_eval(d, env) in d2 for d in inf.conclusions]
        if anti:
            if not any(premises) and all(conclusions):
                return env
        elif all(premises) and not any(conclusions):
            return env
    return None
