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


def brute_first_countermodels(inf: Inference, modes) -> dict:
    """First countermodel of each (logic name, anti) pair in `modes`, from one walk.

    Environments are visited in lexicographic order of the sorted variable
    names with 0 < 1/2 < 1, and each side formula is evaluated once per
    environment for all the pairs.  A countermodel is a name -> Fraction
    dict, None for a pair that has none.
    """
    first = dict.fromkeys(modes)
    pending = list(first)
    names = sorted(set().union(*(formula_vars(f) for f in inf.premises + inf.conclusions), set()))
    for combo in itertools.product(VALUES, repeat=len(names)):
        env = dict(zip(names, combo))
        premises = [brute_eval(g, env) for g in inf.premises]
        conclusions = [brute_eval(d, env) for d in inf.conclusions]
        for mode in list(pending):
            d1, d2 = DESIGNATED[mode[0]]
            if mode[1]:
                hit = not any(v in d1 for v in premises) and all(v in d2 for v in conclusions)
            else:
                hit = all(v in d1 for v in premises) and not any(v in d2 for v in conclusions)
            if hit:
                first[mode] = env
                pending.remove(mode)
        if not pending:
            break
    return first


def brute_first_countermodel(logic_name: str, inf: Inference, anti: bool = False):
    """`brute_first_countermodels` of the one pair (logic_name, anti)."""
    return brute_first_countermodels(inf, [(logic_name, anti)])[logic_name, anti]
