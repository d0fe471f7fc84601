"""Batch property runner behind the `oracle` CLI verb.

Runs the cross-module consistency properties on randomly generated
instances and reports pass/fail counts.  Deterministic for a given seed.
The `standards` parameter exists as a test hook: passing a corrupted
logic standard must make the suite fail.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterator, Optional

from .formula import (
    And,
    Formula,
    Inference,
    Not,
    Or,
    Record,
    _set,
    atoms,
    conjoin,
    parse_formula,
    print_formula,
    print_sequent,
)
from .semantics import (
    HALF,
    ZERO,
    ONE,
    Valuation,
    all_half_valuation,
    eval_formula,
    rail_blocks,
)
from .consequence import (
    STANDARDS,
    antivalid,
    is_antitheorem,
    is_theorem,
    valid,
)
from .decomposition import (
    ProductWitness,
    k3_dnf,
    st_connecting_formula,
    sum_equals_antitheorems_plus_theorems,
    ts_sum_decision,
)
from .duality import invert, op_dual_inference
from .randgen import (
    random_formula,
    random_formula_set,
    random_inference,
    random_valuation,
    variable_pool,
)


class PropertyResult(Record):
    __slots__ = __match_args__ = ("name", "samples", "passed", "counterexample")

    def __init__(self, name: str, samples: int, passed: bool, counterexample: Optional[str] = None):
        _set(self, "name", name)
        _set(self, "samples", samples)
        _set(self, "passed", passed)
        _set(self, "counterexample", counterexample)


class OracleReport(Record):
    __slots__ = __match_args__ = ("results",)

    def __init__(self, results: list[PropertyResult]):
        _set(self, "results", results)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _subformulas(f: Formula) -> Iterator[Formula]:
    if isinstance(f, Not):
        yield f.sub
    elif isinstance(f, (And, Or)):
        yield f.left
        yield f.right


def _reductions(inf: Inference) -> Iterator[Inference]:
    for i in range(len(inf.premises)):
        yield Inference(inf.premises[:i] + inf.premises[i + 1:], inf.conclusions)
    for i in range(len(inf.conclusions)):
        yield Inference(inf.premises, inf.conclusions[:i] + inf.conclusions[i + 1:])
    for i, f in enumerate(inf.premises):
        for sub in _subformulas(f):
            yield Inference(
                inf.premises[:i] + (sub,) + inf.premises[i + 1:], inf.conclusions
            )
    for i, f in enumerate(inf.conclusions):
        for sub in _subformulas(f):
            yield Inference(
                inf.premises, inf.conclusions[:i] + (sub,) + inf.conclusions[i + 1:]
            )


def _shrink(inf: Inference, fails: Callable[[Inference], bool]) -> Inference:
    """Greedy minimization: drop side formulas / descend into subformulas
    while the failure persists."""
    changed = True
    while changed:
        changed = False
        for candidate in _reductions(inf):
            try:
                still_failing = fails(candidate)
            except Exception:
                still_failing = False
            if still_failing:
                inf = candidate
                changed = True
                break
    return inf


# --------------------------------------------------------------------------
# individual properties; each returns None or a counterexample description


def _prop_roundtrip(rng, variables, max_depth, standards):
    f = random_formula(rng, variables, max_depth)
    if parse_formula(print_formula(f)) != f:
        return f"formula {f!r} does not round-trip"
    return None


def _prop_monotonicity(rng, variables, max_depth, standards):
    f = random_formula(rng, variables, max_depth)
    names = sorted(atoms(f) - {"T", "F", "L"})
    v = random_valuation(rng, names)
    sharpened = {
        name: v.assignments[name] if v.assignments[name] != HALF else rng.choice((ZERO, HALF, ONE))
        for name in names
    }
    v_star = Valuation(sharpened)
    value = eval_formula(f, v)
    if value != HALF and eval_formula(f, v_star) != value:
        return f"classical value of {print_formula(f)} not preserved under sharpening"
    return None


def _prop_all_half(rng, variables, max_depth, standards):
    f = random_formula(rng, variables, max_depth)
    rails = [(*block.rails(f), block.full) for block in rail_blocks(atoms(f))]
    value = eval_formula(f, all_half_valuation())
    if value == ZERO and any(tolerant for tolerant, _, _ in rails):
        return f"tolerant satisfiability of {print_formula(f)} lost at the all-1/2 valuation"
    if value == ONE and any(strict != full for _, strict, full in rails):
        return f"strict falsifiability of {print_formula(f)} lost at the all-1/2 valuation"
    return None


def _prop_dnf_equivalence(rng, variables, max_depth, standards):
    k3 = standards["K3"]
    gamma = random_formula_set(rng, variables, max_depth, max_size=2, min_size=1)
    dnf = k3_dnf(gamma)
    if not valid(k3, Inference(gamma, (dnf,))).valid:
        return f"premises do not K3-entail their DNF: {print_sequent(Inference(gamma, (dnf,)))}"
    if not valid(k3, Inference((dnf,), (conjoin(gamma),))).valid:
        return f"DNF does not K3-entail the conjoined premises: {print_formula(dnf)}"
    return None


def _inference_property(message: str, fails_for: Callable[[dict, Inference], bool]):
    """Property over one random inference: the shrunk inference, after
    `message`, when `fails_for(standards, inference)` holds."""

    def prop(rng, variables, max_depth, standards):
        inf = random_inference(rng, variables, max_depth)
        fails = functools.partial(fails_for, standards)
        if fails(inf):
            return f"{message}: {print_sequent(_shrink(inf, fails))}"
        return None

    return prop


def _st_product_fails(standards, inf):
    witness = st_connecting_formula(inf)
    return valid(standards["ST"], inf).valid != isinstance(witness, ProductWitness)


def _ts_sum_fails(standards, inf):
    return valid(standards["TS"], inf).valid != ts_sum_decision(inf).member


def _lattice_fails(standards, inf):
    inclusions = (("TS", "K3"), ("TS", "LP"), ("K3", "ST"), ("LP", "ST"))
    return any(
        valid(standards[small], inf).valid and not valid(standards[big], inf).valid
        for small, big in inclusions
    )


def _operational_duality_fails(standards, inf):
    dual = op_dual_inference(inf)
    pairs = (("K3", "LP"), ("LP", "K3"), ("ST", "ST"), ("TS", "TS"))
    return any(valid(standards[a], inf).valid != valid(standards[b], dual).valid for a, b in pairs)


def _structural_duality_fails(standards, inf):
    inverse = invert(inf)
    pairs = (("K3", "K3"), ("LP", "LP"), ("ST", "TS"), ("TS", "ST"))
    return any(valid(standards[a], inf).valid != antivalid(standards[b], inverse).valid for a, b in pairs)


def _sum_extraction_fails(standards, inf):
    st = standards["ST"]
    by_sum = sum_equals_antitheorems_plus_theorems(standards["K3"], standards["LP"], inf)
    return by_sum != (is_antitheorem(st, inf.premises) or is_theorem(st, inf.conclusions))


_PROPERTIES = (
    ("parse/print round-trip", _prop_roundtrip),
    ("classical values stable under sharpening", _prop_monotonicity),
    ("all-1/2 valuation maximality", _prop_all_half),
    ("K3-DNF equivalence", _prop_dnf_equivalence),
    ("ST product witness", _inference_property(
        "product witness disagrees with ST-validity", _st_product_fails)),
    ("TS sum membership", _inference_property(
        "sum membership disagrees with TS-validity", _ts_sum_fails)),
    ("validity inclusion lattice", _inference_property(
        "inclusion lattice violated", _lattice_fails)),
    ("operational duality", _inference_property(
        "operational duality violated", _operational_duality_fails)),
    ("structural duality", _inference_property(
        "structural duality violated", _structural_duality_fails)),
    ("relative sum extracts antitheorems/theorems", _inference_property(
        "sum extraction disagrees with ST theorems/antitheorems", _sum_extraction_fails)),
)


def run_oracle(
    max_vars: int,
    max_depth: int,
    samples: int,
    seed: int,
    standards: Optional[dict] = None,
) -> OracleReport:
    if max_vars < 1 or max_depth < 1 or samples < 1:
        raise ValueError("bounds must be positive and samples >= 1")
    if standards is None:
        standards = STANDARDS
    variables = variable_pool(max_vars)
    results = []
    for name, prop in _PROPERTIES:
        rng = random.Random(f"{seed}:{name}")
        counterexample = None
        ran = 0
        for _ in range(samples):
            ran += 1
            counterexample = prop(rng, variables, max_depth, standards)
            if counterexample is not None:
                break
        results.append(PropertyResult(name, ran, counterexample is None, counterexample))
    return OracleReport(results)
