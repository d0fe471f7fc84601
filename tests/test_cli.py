import json
import os
import subprocess
import sys

import pytest

import mixcons
from mixcons.cli import main


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


class TestUsage:
    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestDeepInput:
    """Input too deep for the recursive parser, printer or evaluator is a usage error."""

    SRC = os.path.dirname(os.path.dirname(mixcons.__file__))

    @pytest.mark.parametrize(
        "sequent",
        [
            "~" * 5000 + "p => p",
            "(" * 3000 + "p" + ")" * 3000 + " => p",
            " & ".join(["p"] * 20000) + " => p",
        ],
        ids=["negations", "parentheses", "flat-conjunction"],
    )
    def test_exit_usage_without_traceback(self, sequent):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        done = subprocess.run(
            [sys.executable, "-c", "from mixcons.cli import entry_point; entry_point()",
             "check", "--logic", "st", sequent],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.strip() == "input nested too deeply"
