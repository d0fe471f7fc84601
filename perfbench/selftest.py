"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that one seed yields the same corpus digest twice (and another seed
a different one), that two worker runs on the same inputs give the same
output digest with no failures, and that wrong answers injected into real
outputs (a flipped verdict, a wrong countermodel, a broken connector, a
wrong route answer, a wrong exit code) are counted as failures, so the
error rate is above zero.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import sys
import time

import corpus
import run

SEED = 11


def subset(workload: str) -> list[dict]:
    """A quick slice of the workload's first pass (small inputs only)."""
    ops = corpus.generate(workload, SEED)[0]
    if workload == "check_wide":
        return [op for op in ops if "xaa07" not in op.get("seq", "")][:30]
    if workload == "decompose_mixed":
        return [op for op in ops if "xaa06" not in json.dumps(op)][:40]
    if workload == "small_stream":
        return ops[:60]
    return [op for op in ops if op["argv"][0] != "oracle"]


def outputs_of(workload: str, ops: list[dict]) -> list[str]:
    request = {"workload": workload, "seconds": 0, "min_samples": 0, "passes": [ops],
               "trace": False, "spans_path": "", "python": sys.executable}
    reply = run.run_worker(request, time.monotonic())
    return reply["run"]["outputs"][0]


def failures(ops, outputs) -> int:
    return run.count_failures([ops], {"outputs": [outputs], "mismatches": 0}, [])


def corruptions(op: dict, out: str) -> list[str]:
    """Wrong answers for this operation: flipped verdicts, wrong countermodels,
    broken connectors, wrong exit codes."""
    kind = op["k"]
    if kind == "route":
        return ["0" if out == "1" else "1"]
    if kind == "decide":
        if out == "1":
            return ["0:"]
        model = re.sub(r"=(\d)", lambda m: "=" + str((int(m.group(1)) + 1) % 3), out, count=1)
        return ["1", model]
    if kind in ("st", "lpk3") and out.startswith("M:"):
        return ["M:F:1:1"]
    if kind == "stream":
        record = json.loads(out.split("\n")[0])
        key = "antivalid" if op["anti"] else "valid"
        wrong = [json.dumps({**record, key: not record[key]})]
        if record["countermodel"]:
            name = sorted(record["countermodel"])[0]
            shifted = {"0": "1/2", "1/2": "1", "1": "0"}[record["countermodel"][name]]
            wrong.append(json.dumps({**record, "countermodel": {**record["countermodel"], name: shifted}}))
        return wrong
    if kind == "cli":
        code, rest = out.split("\n", 1)
        return [f"{(int(code) + 1) % 3}\n{rest}"]
    return []


def main() -> int:
    ok = True

    def report(name: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")

    for workload in corpus.WORKLOADS:
        first = run.digest(corpus.generate(workload, SEED))
        report(f"{workload}: same seed, same corpus digest", first == run.digest(corpus.generate(workload, SEED)))
        report(f"{workload}: other seed, other corpus digest", first != run.digest(corpus.generate(workload, SEED + 1)))

        ops = subset(workload)
        outputs = outputs_of(workload, ops)
        report(f"{workload}: no failures on {len(ops)} operations", failures(ops, outputs) == 0)
        report(f"{workload}: same output digest twice", run.digest(outputs) == run.digest(outputs_of(workload, ops)))

        injected = 0
        for i, (op, out) in enumerate(zip(ops[:8], outputs)):
            for wrong in corruptions(op, out):
                injected += 1
                broken = outputs[:i] + [wrong] + outputs[i + 1:]
                report(f"{workload}: wrong answer {wrong[:40]!r} for op {i} counted", failures(ops, broken) == 1)
        report(f"{workload}: faults injected ({injected})", injected > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
