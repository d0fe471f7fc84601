import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import mixcons
from mixcons.cli import main
from mixcons.formula import atoms, parse_formula
from mixcons.oracle import OracleReport, PropertyResult
from mixcons.semantics import enumerate_valuations, eval_formula, valuation_record


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestCheck:
    def test_st_valid(self, capsys):
        code, out, _ = run(capsys, "check", "--logic", "st", "p | (q & ~q) => p & (q | ~q)")
        assert code == 0
        assert out.splitlines()[0] == "VALID"

    def test_ts_invalid_with_countermodel(self, capsys):
        code, out, _ = run(capsys, "check", "--logic", "ts", "p => p")
        assert code == 1
        assert out.splitlines() == ["INVALID", "countermodel: p=1/2"]

    def test_lp_antivalid(self, capsys):
        code, out, _ = run(capsys, "check", "--logic", "lp", "--anti", "p => p & q")
        assert code == 0
        assert out.strip() == "ANTIVALID"

    def test_not_antivalid(self, capsys):
        code, out, _ = run(capsys, "check", "--logic", "st", "--anti", "p => p & q")
        assert code == 1
        assert out.splitlines()[0] == "NOT-ANTIVALID"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "check", "--logic", "k3", "p & => q")
        assert code == 2
        assert "position" in err

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "check", "--logic", "ts", "--json", "p => p")
        assert code == 1
        (record,) = json_lines(out)
        assert record == {
            "logic": "TS",
            "sequent": "p => p",
            "valid": False,
            "countermodel": {"p": "1/2"},
        }


class TestDecompose:
    def test_st_product(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--mode", "st-product", "--json",
            "p | (q & ~q) => p & (q | ~q)",
        )
        assert code == 0
        (record,) = json_lines(out)
        assert record["mode"] == "st-product"
        assert record["result"]["member"] is True
        assert [c["logic"] for c in record["checks"]] == ["K3", "LP"]
        assert all(c["valid"] for c in record["checks"])

    def test_st_product_failure(self, capsys):
        code, out, _ = run(capsys, "decompose", "--mode", "st-product", "p | ~p => p & ~p")
        assert code == 1
        assert "NOT-MEMBER" in out and "countermodel: p=0" in out

    def test_ts_sum_refutation(self, capsys):
        code, out, _ = run(capsys, "decompose", "--mode", "ts-sum", "p => p")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "NOT-MEMBER pivot: p0"
        assert "p=1/2 p0=0" in lines[1]
        assert "p=1/2 p0=1" in lines[2]

    def test_ts_sum_member(self, capsys):
        code, out, _ = run(capsys, "decompose", "--mode", "ts-sum", "--json", "p & F => q")
        assert code == 0
        (record,) = json_lines(out)
        assert record["result"] == {
            "member": True,
            "reason": "always-false-premise",
            "formula": "p & F",
        }

    def test_lpk3_rejects_lambda(self, capsys):
        code, _, err = run(capsys, "decompose", "--mode", "lpk3-product", "T => L")
        assert code == 2
        assert "lambda" in err and "L" in err

    def test_lpk3_product(self, capsys):
        code, out, _ = run(capsys, "decompose", "--mode", "lpk3-product", "--json", "p => q | T")
        assert code == 0
        (record,) = json_lines(out)
        assert record["result"]["connector"] == "T"
        assert [c["logic"] for c in record["checks"]] == ["LP", "K3"]


class TestDualize:
    def test_op_formula(self, capsys):
        code, out, _ = run(capsys, "dualize", "--map", "op", "p & (q | ~q)")
        assert code == 0
        assert out.strip() == "p | q & ~q"

    def test_op_sequent(self, capsys):
        code, out, _ = run(capsys, "dualize", "--map", "op", "p, q => r")
        assert code == 0
        assert out.strip() == "r => p, q"

    def test_neg_sequent(self, capsys):
        code, out, _ = run(capsys, "dualize", "--map", "neg", "p => q")
        assert code == 0
        assert out.strip() == "~q => ~p"

    def test_invert_requires_sequent(self, capsys):
        code, _, err = run(capsys, "dualize", "--map", "invert", "p & q")
        assert code == 2
        assert "sequent" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dualize", "--map", "invert", "--json", "p => q")
        (record,) = json_lines(out)
        assert code == 0
        assert record == {"input": "p => q", "map": "invert", "output": "q => p"}


class TestInterpolate:
    def test_textbook_example(self, capsys):
        code, out, _ = run(capsys, "interpolate", "p | (q & ~q) => p & (r | ~r)")
        assert code == 0
        assert out.splitlines()[0] == "interpolant: p"

    def test_failure_reason(self, capsys):
        code, out, _ = run(capsys, "interpolate", "p => q | ~q")
        assert code == 1
        assert out.strip() == "FAILURE: tautology"

    def test_shape_enforced(self, capsys):
        code, _, err = run(capsys, "interpolate", "p, q => r")
        assert code == 2
        assert "one premise" in err

    def test_lambda_rejected(self, capsys):
        code, _, err = run(capsys, "interpolate", "L => p")
        assert code == 2
        assert "lambda" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--json", "p & q => p")
        (record,) = json_lines(out)
        assert code == 0
        assert record["mode"] == "milne"
        assert record["result"]["interpolant"] == "p"


class TestTruthtable:
    def test_single_variable(self, capsys):
        code, out, _ = run(capsys, "truthtable", "p | ~p")
        assert code == 0
        assert out.splitlines() == ["p=0 | 1", "p=1/2 | 1/2", "p=1 | 1"]

    def test_constant(self, capsys):
        code, out, _ = run(capsys, "truthtable", "L")
        assert code == 0
        assert out.strip() == "1/2"

    def test_two_variables_min(self, capsys):
        code, out, _ = run(capsys, "truthtable", "--json", "p & q")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 9
        assert records[0] == {"valuation": {"p": "0", "q": "0"}, "value": "0"}
        assert records[5] == {"valuation": {"p": "1/2", "q": "1"}, "value": "1/2"}

    def test_variable_cap(self, capsys):
        wide = " & ".join(f"x{i}" for i in range(7))
        code, _, err = run(capsys, "truthtable", wide)
        assert code == 2
        assert "cap is 6" in err
        code, out, _ = run(capsys, "truthtable", "--max-vars", "7", wide)
        assert code == 0
        assert len(out.splitlines()) == 3**7

    @pytest.mark.parametrize("n", [*range(8), 9])
    def test_rows_match_eval_formula(self, capsys, n):
        """Every row, in order, against the one-valuation evaluator; n = 9 spans two blocks."""
        clauses = [f"(x{i} & ~x{(i + 1) % n} | L & ~x{i})" for i in range(n)]
        text = " | ".join(["T & L | F", *clauses])
        f = parse_formula(text)
        code, out, _ = run(capsys, "truthtable", "--json", "--max-vars", str(n), text)
        assert code == 0
        assert json_lines(out) == [
            {"valuation": valuation_record(v), "value": str(eval_formula(f, v))}
            for v in enumerate_valuations(atoms(f))
        ]

    def test_reader_closes_stdout(self):
        """`| head -1`: the rows past the pipe's buffer meet a closed pipe."""
        env = dict(os.environ, PYTHONPATH=TestDeepInput.SRC)
        with subprocess.Popen(
            [sys.executable, "-c", "from mixcons.cli import entry_point; entry_point()",
             "truthtable", "--max-vars", "8", "a & b & c & d & e & f & g & h"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        ) as child:
            assert child.stdout.readline() == "a=0 b=0 c=0 d=0 e=0 f=0 g=0 h=0 | 0\n"
            child.stdout.close()
            stderr = child.stderr.read()
        assert child.returncode == 0
        assert stderr == ""  # no traceback


class TestOracleVerb:
    def test_all_pass(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--max-vars", "2", "--max-depth", "3",
            "--samples", "100", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS ") for line in lines)

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXCONS_SEED", "99")
        code, out, _ = run(capsys, "oracle", "--samples", "5", "--json")
        assert code == 0
        assert all(record["passed"] for record in json_lines(out))

    def test_single_sample(self, capsys):
        code, out, _ = run(capsys, "oracle", "--samples", "1", "--seed", "3")
        assert code == 0
        assert all("(1 samples)" in line for line in out.strip().splitlines())

    def test_bad_bounds(self, capsys):
        code, _, err = run(capsys, "oracle", "--samples", "0")
        assert code == 2
        assert err

    def test_non_integer_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXCONS_SEED", "abc")
        code, out, err = run(capsys, "oracle", "--samples", "1")
        assert (code, out) == (2, "")
        assert err == "MIXCONS_SEED must be an integer, got 'abc'\n"
        assert "Traceback" not in err


class TestUsage:
    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


STRING_VERBS = (
    [["check", "--logic", logic, *anti] for logic in ("k3", "lp", "st", "ts") for anti in ([], ["--anti"])]
    + [["decompose", "--mode", mode] for mode in ("st-product", "ts-sum", "lpk3-product")]
    + [["dualize", "--map", m] for m in ("op", "neg", "invert")]
    + [["interpolate"], ["truthtable"]]
)


class TestContract:
    """Any text over a two-variable alphabet exits 0, 1 or 2 without a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(
        verb=st.sampled_from(STRING_VERBS),
        as_json=st.booleans(),
        text=st.text(alphabet="pq~&|()TFL, =>", max_size=30),
    )
    def test_exit_code_and_output(self, verb, as_json, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*verb, *(["--json"] if as_json else []), text])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if as_json:
            for line in out.getvalue().splitlines():
                json.loads(line)


class TestDeepInput:
    """Deep input gets its answer with no traceback: the parser, the evaluator,
    the printer and the operational dual keep their own stacks, and
    parentheses alone leave no node.  The oracle's random formulas still
    recurse, so there a deep request is a usage error."""

    SRC = os.path.dirname(os.path.dirname(mixcons.__file__))

    @staticmethod
    def _run(*argv):
        env = dict(os.environ, PYTHONPATH=TestDeepInput.SRC)
        return subprocess.run(
            [sys.executable, "-c", "from mixcons.cli import entry_point; entry_point()", *argv],
            capture_output=True, text=True, env=env,
        )

    @pytest.mark.parametrize(
        "sequent,code,stdout,stderr",
        [
            ("~" * 5000 + "p => p", 0, "VALID", ""),
            ("(" * 3000 + "p" + ")" * 3000 + " => p", 0, "VALID", ""),
            (" & ".join(["p"] * 20000) + " => p", 0, "VALID", ""),
        ],
        ids=["negations", "parentheses", "flat-conjunction"],
    )
    def test_answer_without_traceback(self, sequent, code, stdout, stderr):
        done = self._run("check", "--logic", "st", sequent)
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        assert (done.stdout.strip(), done.stderr.strip()) == (stdout, stderr)

    def test_deep_dual_is_answered(self):
        done = self._run("dualize", "--map", "op", "~" * 5000 + "p")
        assert done.returncode == 0
        assert (done.stdout, done.stderr) == ("~" * 5000 + "p\n", "")

    def test_recursive_oracle_is_a_usage_error(self):
        done = self._run("oracle", "--max-depth", "3000", "--samples", "1")
        assert done.returncode == 2
        assert (done.stdout, done.stderr.strip()) == ("", "input nested too deeply")

    @pytest.mark.parametrize("argv,head", [
        (["interpolate", "~((x2 & ~(x0 | x1)) & ((x5 & x6) & (x4 | x3))) => "
                         "~((x2 & ~(x0 | x1)) & ((x5 & x6) & (x4 | x3))) | x4"], "interpolant: "),
        (["decompose", "--mode", "st-product",
          " & ".join(f"(x{i} | ~x{i})" for i in range(10)) + " => x0 | ~x0"], "MEMBER connector: "),
    ], ids=["interpolate", "st-product"])
    def test_deep_connector_prints(self, argv, head):
        done = self._run(*argv)
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert lines[0].startswith(head)
        assert [line.rsplit(" -> ", 1)[1] for line in lines[1:]] == ["valid", "valid"]


class TestModuleRun:
    def test_python_m_runs_the_verb(self):
        # `python -m mixcons.cli` answers as `entry_point` does: an invalid sequent exits 1.
        done = subprocess.run([sys.executable, "-m", "mixcons.cli", "check", "--logic", "st", "p => q"],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=TestDeepInput.SRC))
        assert (done.returncode, done.stdout, done.stderr) == (1, "INVALID\ncountermodel: p=1 q=0\n", "")


class TestColdStart:
    """`import mixcons.cli` loads only what `check` runs; the package loads names on first use."""

    LAZY = ("dataclasses", "inspect", "mixcons.decomposition", "mixcons.duality", "mixcons.oracle",
            "mixcons.randgen")
    EXPORTS = {
        "And", "Bot", "Formula", "Inference", "Lambda", "Not", "Or", "ParseError", "Top", "Var", "BOT", "LAM",
        "TOP", "atoms", "parse_formula", "parse_sequent", "print_formula", "print_sequent",
        "HALF", "ONE", "ZERO", "TruthValue", "Valuation", "all_half_valuation", "enumerate_valuations",
        "eval_formula", "K3", "LP", "ST", "STANDARDS", "TS", "LogicStandard", "Verdict", "antivalid",
        "classically_valid", "is_antitheorem", "is_theorem", "valid",
        "DecompositionFailure", "LambdaNotAllowedError", "MilneFailure", "ProductWitness", "SumRefutation",
        "TsSumDecision", "k3_dnf", "lp_k3_connector_lambda_free", "lp_k3_product_universal_witness",
        "milne_interpolant", "st_connecting_formula", "ts_sum_decision",
        "ROUTES", "direct_membership", "dual_set_membership", "invert", "neg_dual_inference", "op_dual",
        "op_dual_inference", "OracleReport", "PropertyResult", "run_oracle",
    }

    def test_cli_import_skips_other_layers(self):
        # -S: no site .pth hook imports anything first.
        code = "import sys, mixcons.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-S", "-c", code, *self.LAZY], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=TestDeepInput.SRC), check=True)
        assert done.stdout.split() == []

    def test_package_names(self):
        assert set(mixcons.__all__) == self.EXPORTS
        star = {}
        exec("from mixcons import *", star)
        for name in self.EXPORTS:
            value = getattr(mixcons, name)
            assert vars(mixcons)[name] is value  # kept: the next lookup skips __getattr__
            assert star[name] is value
            layers = (module for key, module in sys.modules.items() if key.startswith("mixcons."))
            assert any(vars(module).get(name) is value for module in layers)
        with pytest.raises(AttributeError):
            mixcons.no_such_name


def _json_out(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


README_SEQUENT = "p | (q & ~q) => p & (q | ~q)"
_TT_PQ = [
    ("0", "0", "0"), ("0", "1/2", "0"), ("0", "1", "0"),
    ("1/2", "0", "0"), ("1/2", "1/2", "1/2"), ("1/2", "1", "1/2"),
    ("1", "0", "0"), ("1", "1/2", "1/2"), ("1", "1", "1"),
]
_ORACLE_PROPERTIES = [
    "parse/print round-trip",
    "classical values stable under sharpening",
    "all-1/2 valuation maximality",
    "K3-DNF equivalence",
    "ST product witness",
    "TS sum membership",
    "validity inclusion lattice",
    "operational duality",
    "structural duality",
    "relative sum extracts antitheorems/theorems",
]


# (argv, exit code, exact text stdout, exact --json stdout)
GOLDEN = {
    "check-valid": (
        ["check", "--logic", "st", README_SEQUENT], 0,
        "VALID\n",
        _json_out({"logic": "ST", "sequent": "p | q & ~q => p & (q | ~q)", "valid": True,
                   "countermodel": None}),
    ),
    "check-invalid-two-vars": (
        ["check", "--logic", "k3", "p => q | ~q"], 1,
        "INVALID\ncountermodel: p=1 q=1/2\n",
        _json_out({"logic": "K3", "sequent": "p => q | ~q", "valid": False,
                   "countermodel": {"p": "1", "q": "1/2"}}),
    ),
    "check-antivalid": (
        ["check", "--logic", "lp", "--anti", "p => p & q"], 0,
        "ANTIVALID\n",
        _json_out({"logic": "LP", "sequent": "p => p & q", "antivalid": True, "countermodel": None}),
    ),
    "check-not-antivalid": (
        ["check", "--logic", "st", "--anti", "p => p & q"], 1,
        "NOT-ANTIVALID\ncountermodel: p=1/2 q=1/2\n",
        _json_out({"logic": "ST", "sequent": "p => p & q", "antivalid": False,
                   "countermodel": {"p": "1/2", "q": "1/2"}}),
    ),
    "check-empty-countermodel": (
        ["check", "--logic", "k3", "=>"], 1,
        "INVALID\ncountermodel: \n",
        _json_out({"logic": "K3", "sequent": "=>", "valid": False, "countermodel": {}}),
    ),
    "st-product-member": (
        ["decompose", "--mode", "st-product", README_SEQUENT], 0,
        "MEMBER connector: p & ~q | p | p & q\n"
        "check K3: p | q & ~q => p & ~q | p | p & q -> valid\n"
        "check LP: p & ~q | p | p & q => p & (q | ~q) -> valid\n",
        _json_out({"sequent": "p | q & ~q => p & (q | ~q)", "mode": "st-product",
                   "result": {"member": True, "connector": "p & ~q | p | p & q"},
                   "checks": [
                       {"logic": "K3", "sequent": "p | q & ~q => p & ~q | p | p & q", "valid": True},
                       {"logic": "LP", "sequent": "p & ~q | p | p & q => p & (q | ~q)", "valid": True},
                   ]}),
    ),
    "st-product-non-member": (
        ["decompose", "--mode", "st-product", "p | ~p => p & ~p"], 1,
        "NOT-MEMBER\ncountermodel: p=0\n",
        _json_out({"sequent": "p | ~p => p & ~p", "mode": "st-product",
                   "result": {"member": False, "countermodel": {"p": "0"}}, "checks": []}),
    ),
    "ts-sum-false-premise": (
        ["decompose", "--mode", "ts-sum", "p & F => q"], 0,
        "MEMBER always-false-premise: p & F\n",
        _json_out({"sequent": "p & F => q", "mode": "ts-sum",
                   "result": {"member": True, "reason": "always-false-premise", "formula": "p & F"},
                   "checks": []}),
    ),
    "ts-sum-true-conclusion": (
        ["decompose", "--mode", "ts-sum", "p => q | T"], 0,
        "MEMBER always-true-conclusion: q | T\n",
        _json_out({"sequent": "p => q | T", "mode": "ts-sum",
                   "result": {"member": True, "reason": "always-true-conclusion", "formula": "q | T"},
                   "checks": []}),
    ),
    "ts-sum-non-member": (
        ["decompose", "--mode", "ts-sum", "p => p"], 1,
        "NOT-MEMBER pivot: p0\n"
        "left check fails under: p=1/2 p0=0\n"
        "right check fails under: p=1/2 p0=1\n",
        _json_out({"sequent": "p => p", "mode": "ts-sum",
                   "result": {"member": False, "pivot": "p0",
                              "left_fail": {"p": "1/2", "p0": "0"},
                              "right_fail": {"p": "1/2", "p0": "1"}},
                   "checks": []}),
    ),
    "lpk3-product-member": (
        ["decompose", "--mode", "lpk3-product", "p => q | T"], 0,
        "MEMBER connector: T\ncheck LP: p => T -> valid\ncheck K3: T => q | T -> valid\n",
        _json_out({"sequent": "p => q | T", "mode": "lpk3-product",
                   "result": {"member": True, "connector": "T"},
                   "checks": [{"logic": "LP", "sequent": "p => T", "valid": True},
                              {"logic": "K3", "sequent": "T => q | T", "valid": True}]}),
    ),
    "lpk3-product-non-member": (
        ["decompose", "--mode", "lpk3-product", "p | ~p => p & ~p"], 1,
        "NOT-MEMBER\ncountermodel: p=0\n",
        _json_out({"sequent": "p | ~p => p & ~p", "mode": "lpk3-product",
                   "result": {"member": False, "countermodel": {"p": "0"}}, "checks": []}),
    ),
    "dualize-formula": (
        ["dualize", "--map", "op", "p & (q | ~q)"], 0,
        "p | q & ~q\n",
        _json_out({"input": "p & (q | ~q)", "map": "op", "output": "p | q & ~q"}),
    ),
    "dualize-sequent": (
        ["dualize", "--map", "invert", "p => q"], 0,
        "q => p\n",
        _json_out({"input": "p => q", "map": "invert", "output": "q => p"}),
    ),
    "interpolate-success": (
        ["interpolate", "p | (q & ~q) => p & (r | ~r)"], 0,
        "interpolant: p\ncheck K3: p | q & ~q => p -> valid\ncheck LP: p => p & (r | ~r) -> valid\n",
        _json_out({"sequent": "p | q & ~q => p & (r | ~r)", "mode": "milne",
                   "result": {"member": True, "interpolant": "p"},
                   "checks": [{"logic": "K3", "sequent": "p | q & ~q => p", "valid": True},
                              {"logic": "LP", "sequent": "p => p & (r | ~r)", "valid": True}]}),
    ),
    "interpolate-failure": (
        ["interpolate", "p => q | ~q"], 1,
        "FAILURE: tautology\n",
        _json_out({"sequent": "p => q | ~q", "mode": "milne",
                   "result": {"member": False, "reason": "tautology"}, "checks": []}),
    ),
    "truthtable-constant": (
        ["truthtable", "L"], 0,
        "1/2\n",
        _json_out({"valuation": {}, "value": "1/2"}),
    ),
    "truthtable-two-vars": (
        ["truthtable", "p & q"], 0,
        "".join(f"p={p} q={q} | {value}\n" for p, q, value in _TT_PQ),
        _json_out(*({"valuation": {"p": p, "q": q}, "value": value} for p, q, value in _TT_PQ)),
    ),
    "oracle-pass": (
        ["oracle", "--max-vars", "1", "--max-depth", "1", "--samples", "2", "--seed", "5"], 0,
        "".join(f"PASS {name} (2 samples)\n" for name in _ORACLE_PROPERTIES),
        _json_out(*({"property": name, "samples": 2, "passed": True, "counterexample": None}
                    for name in _ORACLE_PROPERTIES)),
    ),
}


class TestGolden:
    """Exact exit code and stdout of every record kind, in text and --json."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output(self, capsys, name, as_json):
        argv, expected_code, text_out, json_out = GOLDEN[name]
        if as_json:
            argv = argv + ["--json"] if argv[0] == "oracle" else argv[:-1] + ["--json", argv[-1]]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (expected_code, json_out if as_json else text_out, "")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_oracle_failure(self, capsys, monkeypatch, as_json):
        report = OracleReport([
            PropertyResult("ST product witness", 3, True),
            PropertyResult("TS sum membership", 3, False, "p => p"),
        ])
        monkeypatch.setattr("mixcons.cli.run_oracle", lambda *bounds: report)
        code, out, err = run(capsys, "oracle", *(["--json"] if as_json else []))
        expected = _json_out(
            {"property": "ST product witness", "samples": 3, "passed": True, "counterexample": None},
            {"property": "TS sum membership", "samples": 3, "passed": False, "counterexample": "p => p"},
        ) if as_json else "PASS ST product witness (3 samples)\nFAIL TS sum membership: p => p\n"
        assert (code, out, err) == (1, expected, "")
