import pytest

from mixcons.consequence import STANDARDS, LogicStandard
from mixcons.semantics import TruthValue
from mixcons.oracle import run_oracle

_TOLERANT = frozenset({TruthValue.HALF, TruthValue.ONE})
_STRICT = frozenset({TruthValue.ONE})


def test_all_properties_pass_on_healthy_standards():
    report = run_oracle(max_vars=2, max_depth=3, samples=150, seed=7)
    assert report.ok
    assert len(report.results) == 10
    assert all(r.samples == 150 for r in report.results)


def test_deterministic_given_seed():
    a = run_oracle(max_vars=2, max_depth=2, samples=50, seed=11)
    b = run_oracle(max_vars=2, max_depth=2, samples=50, seed=11)
    assert [(r.name, r.passed, r.counterexample) for r in a.results] == [
        (r.name, r.passed, r.counterexample) for r in b.results
    ]


def test_corrupted_standard_detected():
    # TS with swapped designation sets masquerades as ST.
    corrupted = dict(STANDARDS)
    corrupted["ST"] = LogicStandard("ST", _TOLERANT, _STRICT)
    report = run_oracle(max_vars=2, max_depth=3, samples=200, seed=7, standards=corrupted)
    assert not report.ok
    assert [(r.name, r.samples, r.passed, r.counterexample) for r in report.results] == [
        ("parse/print round-trip", 200, True, None),
        ("classical values stable under sharpening", 200, True, None),
        ("all-1/2 valuation maximality", 200, True, None),
        ("K3-DNF equivalence", 200, True, None),
        ("ST product witness", 2, False, "product witness disagrees with ST-validity: p => p"),
        ("TS sum membership", 200, True, None),
        ("validity inclusion lattice", 3, False, "inclusion lattice violated: => ~q | q"),
        ("operational duality", 200, True, None),
        ("structural duality", 3, False, "structural duality violated: q => q"),
        (
            "relative sum extracts antitheorems/theorems",
            1,
            False,
            "sum extraction disagrees with ST theorems/antitheorems: => q, ~(q & p)",
        ),
    ]


def test_single_sample_bound():
    report = run_oracle(max_vars=1, max_depth=1, samples=1, seed=0)
    assert all(r.samples == 1 for r in report.results)


def test_bounds_validated():
    with pytest.raises(ValueError):
        run_oracle(max_vars=0, max_depth=3, samples=10, seed=0)
    with pytest.raises(ValueError):
        run_oracle(max_vars=2, max_depth=3, samples=0, seed=0)
