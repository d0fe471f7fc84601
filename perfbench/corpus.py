"""Seeded inputs for the four workloads.

A workload's inputs are a few distinct *passes* (lists of operations),
all generated from the seed.  Every pass of a workload has the same
composition: the same operations per variable count and outcome class,
and, for check_wide and decompose_mixed, the same modelled cost per slot
(see COST_US).  A run's figures then depend on the program, not on which
inputs the seed drew.  When a run needs more passes than there are
distinct ones, it cycles through them with the variables renamed (see
naming.py), which keeps the work identical but the formulas new.
"""

from __future__ import annotations

import random

import numpy as np

import reference as ref
from naming import PREFIX


def names(n: int) -> list[str]:
    return [f"{PREFIX}{i:02d}" for i in range(n)]


# --------------------------------------------------------------------------
# formulas


def tree(rng: random.Random, leaves: list, p_not: float = 0.25):
    """Random formula whose leaves, in order, are `leaves` (names or constants)."""
    if len(leaves) == 1:
        leaf = leaves[0]
        f = (leaf,) if leaf in ("T", "F", "L") else ("v", leaf)
        return ("~", f) if rng.random() < p_not else f
    k = rng.randint(1, len(leaves) - 1)
    f = (rng.choice("&|"), tree(rng, leaves[:k], p_not), tree(rng, leaves[k:], p_not))
    return ("~", f) if rng.random() < p_not / 2 else f


_PREC = {"|": 1, "&": 2, "~": 3}


def show(f) -> str:
    """User-style text with the fewest parentheses (both operators left-associative)."""
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag in ("T", "F", "L"):
        return tag
    if tag == "~":
        sub = show(f[1])
        return "~" + (f"({sub})" if _PREC.get(f[1][0], 4) < 3 else sub)
    prec = _PREC[tag]
    left, right = show(f[1]), show(f[2])
    if _PREC.get(f[1][0], 4) < prec:
        left = f"({left})"
    if _PREC.get(f[2][0], 4) <= prec:
        right = f"({right})"
    return f"{left} {tag} {right}"


def sequent_text(prem, concl) -> str:
    return f"{', '.join(show(f) for f in prem)} => {', '.join(show(f) for f in concl)}".strip()


def chunks(rng: random.Random, items: list, count: int) -> list[list]:
    cuts = sorted(rng.sample(range(1, len(items)), count - 1))
    return [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]


def wide_sequent(rng: random.Random, n: int, lambda_ok: bool = True):
    """A sequent in which all n variables occur, in one of three shapes.

    `plain` sides are unrelated; `weaken` repeats a premise inside a
    conclusion disjunction (valid in K3, LP and ST); `strengthen` puts a
    premise inside a conclusion conjunction (antivalid in K3, LP and TS).
    An optional guard conclusion on the first variable moves the first
    countermodel towards the end of the enumeration.
    """
    leaves = names(n) + rng.choices(names(n), k=max(1, n // 3))
    if lambda_ok and rng.random() < 0.3:
        leaves.append("L")
    rng.shuffle(leaves)
    shape = rng.choice(("plain", "weaken", "strengthen"))
    parts = [tree(rng, part) for part in chunks(rng, leaves, rng.randint(2, min(4, len(leaves))))]
    if shape == "plain":
        k = rng.randint(1, len(parts) - 1)
        prem, concl = parts[:k], parts[k:]
    else:
        a, c, rest = parts[0], parts[1], parts[2:]
        op = "|" if shape == "weaken" else "&"
        prem = [a] + rest[:1]
        concl = [(op, a, c) if rng.random() < 0.5 else (op, c, a)] + rest[1:]
    if rng.random() < 0.4:
        first, second = ("v", names(n)[0]), ("v", names(n)[1])
        concl.append(rng.choice((("~", first), first, ("|", ("~", first), second), ("&", first, second))))
    return prem, concl


# --------------------------------------------------------------------------
# check_wide

LOGICS = ("K3", "LP", "ST", "TS")
DECISIONS = [(logic, anti) for logic in LOGICS for anti in (False, True)]

# Cost model used only to choose inputs, in microseconds, fitted on
# 150 random decisions (n = 6..8) against mixcons at the commit that added
# this benchmark: per valuation visited, per variable per valuation, and per
# evaluated leaf, negation and binary node.  It reproduces times above
# 10 ms within about 10%.  Inputs chosen with it keep every pass at the
# same predicted cost, so a pass's time does not swing with the seed; the
# inputs themselves never depend on the program.
COST_US = (2.86, 0.04, 0.73, 2.11, 0.48)
COST_TOLERANCE = 0.08


def _node_cost(f) -> float:
    cost, stack = 0.0, [f]
    while stack:
        g = stack.pop()
        if g[0] == "~":
            cost += COST_US[3]
            stack.append(g[1])
        elif g[0] in ("&", "|"):
            cost += COST_US[4]
            stack.extend(g[1:])
        else:
            cost += COST_US[2]
    return cost


def _in_order(side):
    """One side as mixcons stores it: duplicate-free, sorted by printed text."""
    return side if len(side) < 2 else sorted({show(f): f for f in side}.values(), key=show)


def predicted_cost(space, logic: str, anti: bool, prem, concl, full: bool = False) -> float:
    """Modelled time (us) of mixcons deciding the sequent by enumeration.

    Mirrors the enumeration's short-circuits: premises in sorted order until
    one is not designated, then conclusions until one is, up to and
    including the first countermodel (or over every valuation if `full`).
    """
    dp, dc = ref.DESIGNATION[logic]
    n = len(space.names)
    per_valuation = np.full(space.size, COST_US[0] + COST_US[1] * n)
    active = np.ones(space.size, bool)
    for g in _in_order(prem):
        per_valuation += active * _node_cost(g)
        held = dp(space.eval(g))
        active &= ~held if anti else held
    for d in _in_order(concl):
        per_valuation += active * _node_cost(d)
        held = dc(space.eval(d))
        active &= held if anti else ~held
    stop = int(np.argmax(active)) + 1 if active.any() and not full else space.size
    return float(per_valuation[:stop].sum())


def full_walk_us(n: int) -> float:
    """Target cost of a valid decision at n variables."""
    return 3 ** n * (4.0 + n)


# Slots per pass: (n, share of the full-walk cost or None for a valid
# decision, count).  Invalid slots put the first countermodel at varied
# positions.  The strata are ordered by target cost and sized so that the
# median and the 90th percentile of a run fall in the middle of a stratum
# of equal-cost operations (6-variable and 8-variable valid decisions).
WIDE_PLAN = (
    (11, None, 1), (10, None, 1), (10, 0.5, 1), (9, None, 2), (9, 0.5, 2),
    (8, None, 8), (8, 0.5, 3), (7, None, 10), (8, 0.15, 4), (7, 0.5, 6),
    (6, None, 24), (7, 0.15, 10), (6, 0.5, 12), (6, 0.15, 16),
)


def _wide_op(rng: random.Random, n: int, share):
    target = full_walk_us(n) * (1.0 if share is None else share)
    for _ in range(3000):
        prem, concl = wide_sequent(rng, n)
        space = ref.Space(ref.variables(*prem, *concl))
        for logic, anti in rng.sample(DECISIONS, len(DECISIONS)):
            valid = not ref.failures(space, logic, anti, prem, concl).any()
            if valid != (share is None):
                continue
            if abs(predicted_cost(space, logic, anti, prem, concl) / target - 1) <= COST_TOLERANCE:
                return {"k": "decide", "logic": logic, "anti": anti, "seq": sequent_text(prem, concl)}
    raise RuntimeError(f"no sequent found for n={n} share={share}")


def check_wide_pass(rng: random.Random) -> list[dict]:
    ops = [_wide_op(rng, n, share) for n, share, count in WIDE_PLAN for _ in range(count)]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# decompose_mixed


def _decide(logic, anti, prem, concl, full=False) -> float:
    return predicted_cost(ref.Space(ref.variables(*prem, *concl)), logic, anti, prem, concl, full)


def _conjoin(formulas):
    out = None
    for f in formulas:
        out = f if out is None else ("&", out, f)
    return ("T",) if out is None else out


def _disjoin(formulas):
    out = None
    for f in formulas:
        out = f if out is None else ("|", out, f)
    return ("F",) if out is None else out


MAX_DNF = 64


def dnf_connector(gamma):
    """The K3-DNF connector mixcons builds for `gamma` and its strict-valuation
    count; None for the connector when that count exceeds MAX_DNF."""
    space = ref.Space(ref.variables(*gamma))
    strict = np.ones(space.size, bool)
    for g in gamma:
        strict &= space.eval(g) == 2
    if strict.sum() > MAX_DNF:
        return None, int(strict.sum())
    disjuncts, seen = [], set()
    for index in np.flatnonzero(strict):
        model = space.decode(int(index))
        literals = [("v", a) if v == 2 else ("~", ("v", a)) for a, v in model.items() if v != 1]
        d = _conjoin(literals)
        if d not in seen:
            seen.add(d)
            disjuncts.append(d)
    return _disjoin(disjuncts), int(strict.sum())


def _st_cost(prem, concl) -> float:
    cost = _decide("ST", False, prem, concl)
    if not ref.holds("ST", False, prem, concl) or not prem:
        return cost
    connector, strict = dnf_connector(prem)
    if connector is None:
        return float("inf")
    walk = _decide("K3", False, prem, [], full=True) + strict * 2 * sum(map(_node_cost, prem))
    return cost + walk + _decide("K3", False, prem, [connector]) + _decide("LP", False, [connector], concl)


def _lpk3_cost(prem, concl) -> float:
    cost = _decide("ST", False, prem, concl)
    if not ref.holds("ST", False, prem, concl):
        return cost
    cost += _decide("LP", False, prem, [])
    if ref.holds("LP", False, prem, []):
        connector = ("F",)
    else:
        cost += _decide("K3", False, [], concl)
        if ref.holds("K3", False, [], concl):
            connector = ("T",)
        else:
            taut = [("|", ("v", a), ("~", ("v", a))) for a in sorted(ref.variables(*concl))]
            connector = ("&", _conjoin(prem), _conjoin(taut))
    return cost + _decide("LP", False, prem, [connector]) + _decide("K3", False, [connector], concl)


def _ts_minus_cost(prem, concl) -> float:
    cost = _decide("TS", True, prem, concl)
    if not ref.holds("TS", True, prem, concl):
        return cost
    connector = dnf_connector(concl)[0] if concl else ("T",)
    if connector is None:
        return float("inf")
    return (cost + _st_cost(concl, prem) + _decide("LP", True, prem, [connector])
            + _decide("K3", True, [connector], concl))


def op_cost(op: dict, prem, concl) -> float:
    """Modelled time (us) of one decompose_mixed operation (see COST_US)."""
    kind = op["k"]
    if kind == "st":
        return _st_cost(prem, concl)
    if kind == "lpk3":
        return _lpk3_cost(prem, concl)
    if kind == "ts":
        return _decide("TS", False, prem, concl)
    rhs = op["route"].split("=")[1]
    if len(rhs) == 4:  # ~Y+ or ~Y-: decide Y on the pointwise operational dual
        return _decide(rhs[1:3], rhs[3] == "-", [ref.op_dual(f) for f in prem], [ref.op_dual(f) for f in concl])
    target = op["target"]
    if target == "ST+":
        return _st_cost(prem, concl)
    if target == "TS+":
        return _decide("TS", False, prem, concl)
    if target == "ST-":
        return _decide("ST", True, prem, concl) + _decide("TS", False, concl, prem)
    return _ts_minus_cost(prem, concl)


# Slots per pass, for each n in DECOMPOSE_NS: (operation, positive answer
# wanted, share of full_walk_us(n) targeted).  Every operation kind and
# every route appears at every n; members build connectors and walk the
# whole space, non-members stop at varied first countermodels.  Members
# of ST- and TS+ are too rare in random inferences to ask for.  The shares
# put the 90th percentile among equal-cost operations (the 8-variable
# simple routes and the 7-variable ST products).
DECOMPOSE_NS = (4, 5, 6, 7, 8)
DECOMPOSE_SLOTS = (
    ("st", True, 3.0), ("lpk3", True, 6.0), ("ts", False, 0.1),
    ("K3+=~LP-", True, 0.9), ("LP-=~K3+", True, 0.9), ("ST+=~TS-", True, 0.9), ("TS-=~ST+", True, 0.9),
    ("LP+=~K3-", False, 0.3), ("K3-=~LP+", False, 0.3), ("TS+=~ST-", False, 0.1), ("ST-=~TS+", False, 0.1),
    ("ST+=K3+|~K3-", True, 3.0), ("ST+=~LP-|LP+", False, 0.3),
    ("TS+=~K3-+K3+", False, 0.1), ("TS+=LP++~LP-", False, 0.3),
    ("ST-=K3-+~K3+", False, 0.3), ("ST-=~LP++LP-", False, 0.1),
    ("TS-=~K3+|K3-", True, 8.0), ("TS-=LP-|~LP+", False, 0.3),
)
DECOMPOSE_TOLERANCE = 0.1
MILNE_PER_PASS = 8


def _positive(op: dict, prem, concl) -> bool:
    if op["k"] in ("st", "lpk3"):
        return ref.holds("ST", False, prem, concl)
    if op["k"] == "ts":
        return ref.holds("TS", False, prem, concl)
    return ref.membership(op["target"], prem, concl)


def _slot_op(name: str) -> dict:
    if name in ("st", "lpk3", "ts"):
        return {"k": name}
    return {"k": "route", "target": name.split("=")[0], "route": name}


def _decompose_ops(rng: random.Random, n: int) -> list[dict]:
    """Fill every slot at n; one drawn inference may fill several slots."""
    open_slots = list(DECOMPOSE_SLOTS)
    ops = []
    for _ in range(20000):
        if not open_slots:
            return ops
        prem, concl = wide_sequent(rng, n, lambda_ok=False)
        if not prem or not concl:
            continue
        seq = sequent_text(prem, concl)
        for slot in list(open_slots):
            name, positive, share = slot
            op = _slot_op(name)
            if _positive(op, prem, concl) != positive:
                continue
            cost = op_cost(op, prem, concl)
            if abs(cost / (share * full_walk_us(n)) - 1) <= DECOMPOSE_TOLERANCE:
                ops.append({**op, "seq": seq})
                open_slots.remove(slot)
    raise RuntimeError(f"slots left unfilled at n={n}: {open_slots}")


def _milne_op(rng: random.Random, n: int, want_success: bool):
    for _ in range(600):
        leaves = names(n) + rng.choices(names(n), k=max(1, n // 3))
        rng.shuffle(leaves)
        left, right = chunks(rng, leaves, 2)
        phi, psi = tree(rng, left), tree(rng, right)
        if rng.random() < 0.5:
            psi = ("|", phi, psi) if rng.random() < 0.5 else ("|", psi, phi)
        out_ok = (
            ref.classically_valid([phi], [psi])
            and not ref.classically_valid([], [("~", phi)])
            and not ref.classically_valid([], [psi])
        )
        if out_ok == want_success:
            return {"k": "milne", "phi": show(phi), "psi": show(psi)}
    raise RuntimeError("no interpolation input found")


def decompose_mixed_pass(rng: random.Random) -> list[dict]:
    ops = [op for n in DECOMPOSE_NS for op in _decompose_ops(rng, n)]
    for i in range(MILNE_PER_PASS):
        ops.append(_milne_op(rng, 4 + i % 4, want_success=i % 4 != 3))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# small_stream

STREAM_PER_PASS = 300  # a multiple of 60, so every pass holds each pattern equally often


def small_stream_pass(rng: random.Random) -> list[dict]:
    """Items whose variable count, formula count and size, logic, mode and
    duality map follow fixed cycles (periods 3, 4 and 10), so every pass has
    the same composition; the formulas themselves are drawn at random."""
    ops = []
    for i in range(STREAM_PER_PASS):
        pool = names(1 + i % 3)
        count = 1 + i // 3 % 3
        on_left = rng.randint(0, count)
        sides = [[], []]
        for j in range(count):
            leaves = [rng.choice(("T", "F", "L")) if rng.random() < 0.1 else rng.choice(pool)
                      for _ in range(1 + (i + j) % 4)]
            sides[0 if j < on_left else 1].append(tree(rng, leaves, p_not=0.3))
        ops.append({
            "k": "stream",
            "text": sequent_text(*sides),
            "logic": LOGICS[i % 4],
            "anti": i % 10 in (0, 3, 6),
            "map": ("op", "neg", "invert")[i // 10 % 3] if i % 10 == 9 else None,
        })
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# cli_verbs

README_CALLS = (
    ["check", "--logic", "st", "p | (q & ~q) => p & (q | ~q)"],
    ["check", "--logic", "ts", "p => p"],
    ["check", "--logic", "lp", "--anti", "p => p & q"],
    ["decompose", "--mode", "st-product", "p | (q & ~q) => p & (q | ~q)"],
    ["decompose", "--mode", "ts-sum", "p => p"],
    ["decompose", "--mode", "lpk3-product", "p => q | T"],
    ["dualize", "--map", "op", "p & (q | ~q)"],
    ["dualize", "--map", "neg", "p => q"],
    ["dualize", "--map", "invert", "p => q"],
    ["interpolate", "p | (q & ~q) => p & (r | ~r)"],
    ["truthtable", "p & q"],
    ["oracle", "--max-vars", "2", "--max-depth", "3", "--samples", "500", "--seed", "7"],
)


# Four identical oracle calls per pass: the 90th percentile of a run falls
# among them, so it does not hinge on which seeded calls are the slowest.
FIXED_ORACLE = ("oracle", "--max-vars", "2", "--max-depth", "3", "--samples", "100", "--seed", "7")


def _small_sequent(rng: random.Random, n: int, lambda_ok: bool = True) -> str:
    prem, concl = wide_sequent(rng, n, lambda_ok)
    return sequent_text(prem, concl)


def cli_verbs_pass(rng: random.Random) -> list[dict]:
    calls = [list(c) for c in README_CALLS] + [list(FIXED_ORACLE) for _ in range(4)]
    for logic in LOGICS:
        calls.append(["check", "--logic", logic.lower(), "--json", _small_sequent(rng, rng.randint(2, 4))])
    calls.append(["check", "--logic", rng.choice(LOGICS).lower(), "--anti", _small_sequent(rng, 3)])
    for mode in ("st-product", "ts-sum", "lpk3-product"):
        calls.append(["decompose", "--mode", mode, "--json", _small_sequent(rng, 3, lambda_ok=False)])
    phi = tree(rng, names(3))
    calls.append(["interpolate", "--json", f"{show(phi)} => {show(('|', phi, tree(rng, names(2))))}"])
    calls.append(["dualize", "--map", rng.choice(("op", "neg", "invert")), "--json", _small_sequent(rng, 3)])
    calls.append(["truthtable", "--json", show(tree(rng, names(3) + names(2)))])
    calls.append(["oracle", "--json", "--max-vars", "2", "--max-depth", "2", "--samples", "20",
                  "--seed", str(rng.randrange(10 ** 6))])
    calls.append(["check", "--logic", "k3", f"{names(2)[0]} & => {names(2)[1]}"])
    calls.append(["decompose", "--mode", "ts-sum", "--json", f"({names(1)[0]} | => {names(1)[0]}"])
    ops = [{"k": "cli", "argv": argv} for argv in calls]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------

WORKLOADS = {
    "check_wide": (check_wide_pass, 2),
    "decompose_mixed": (decompose_mixed_pass, 2),
    "small_stream": (small_stream_pass, 4),
    "cli_verbs": (cli_verbs_pass, 2),
}


def generate(workload: str, seed: int) -> list[list[dict]]:
    """The distinct passes of `workload` for `seed`."""
    make, count = WORKLOADS[workload]
    return [make(random.Random(f"{workload}:{seed}:{i}")) for i in range(count)]
