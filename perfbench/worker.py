"""The process that runs a workload against mixcons.

Reads one JSON request on stdin, runs the workload's passes closed-loop
with one client, and writes one JSON reply on stdout.  It imports mixcons
(from the checkout's `src/`) and nothing heavy besides, so the peak RSS it
reports is the program's.  Inputs are parsed before the clock starts; each
operation's latency covers only the call into mixcons (for `cli` ops, the
whole child process).  Outputs are turned into canonical strings after the
clock stops, by this module's own printer over the AST classes.

Request: {"workload", "seconds", "min_samples", "passes", "trace",
"spans_path", "python"}.  Reply: latencies, the canonical outputs of the
first run of each distinct pass, mismatches of later (renamed) runs
against those outputs, peak RSS and, when tracing, the trace aggregates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import calibration
from naming import PREFIX, prefix, rename

CLI_CODE = "from mixcons.cli import entry_point; entry_point()"
SWEEP_NS = range(2, 13)
SWEEP_LOGICS = ("K3", "ST")


# --------------------------------------------------------------------------
# canonical outputs (the benchmark's own printer)


def canon_formula(f) -> str:
    from mixcons.formula import And, Bot, Lambda, Not, Top, Var

    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, Var):
            out.append(g.name)
        elif isinstance(g, Top):
            out.append("T")
        elif isinstance(g, Bot):
            out.append("F")
        elif isinstance(g, Lambda):
            out.append("L")
        elif isinstance(g, Not):
            out.append("~")
            stack.append(g.sub)
        else:
            out.append("(")
            stack.extend((")", g.right, " & " if isinstance(g, And) else " | ", g.left))
    return "".join(out)


def canon_model(v) -> str:
    return ",".join(f"{name}={int(value)}" for name, value in sorted(v.assignments.items()))


def canon_verdict(verdict) -> str:
    return "1" if verdict.valid else "0:" + canon_model(verdict.countermodel)


def canon_product(outcome) -> str:
    if not hasattr(outcome, "connector"):
        return "N:" + canon_model(outcome.countermodel)
    flags = f"{int(outcome.left_check.valid)}:{int(outcome.right_check.valid)}"
    return f"M:{canon_formula(outcome.connector)}:{flags}"


def canon_ts_sum(decision) -> str:
    reason = decision.reason
    if decision.member:
        kind = "Z" if type(reason).__name__ == "AlwaysZeroPremise" else "O"
        return f"M:{kind}:{canon_formula(reason.formula)}"
    return f"N:{canon_formula(reason.pivot)}:{canon_model(reason.left_fail)}:{canon_model(reason.right_fail)}"


def canon_milne(outcome) -> str:
    reason = getattr(outcome, "reason", None)
    return f"F:{reason}" if reason is not None else "I:" + canon_formula(outcome)


# --------------------------------------------------------------------------
# operations: (call, canonicalise)


def prepare(op: dict, in_process_cli: bool, python: str):
    """Parse an operation's inputs; return (call, canon) for the timed loop.

    Every call looks its mixcons function up at call time, so a tracer
    installed later sees it.  mixcons is imported here rather than at the
    top, so that probe.py times its import alone.
    """
    import mixcons as mx
    from mixcons import cli, consequence

    kind = op["k"]
    if kind == "decide":
        inf, logic = mx.parse_sequent(op["seq"]), mx.STANDARDS[op["logic"]]
        if op["anti"]:
            return (lambda: mx.antivalid(logic, inf)), canon_verdict
        return (lambda: mx.valid(logic, inf)), canon_verdict
    if kind in ("st", "lpk3", "ts", "route"):
        inf = mx.parse_sequent(op["seq"])
        if kind == "st":
            return (lambda: mx.st_connecting_formula(inf)), canon_product
        if kind == "lpk3":
            return (lambda: mx.lp_k3_connector_lambda_free(inf)), canon_product
        if kind == "ts":
            return (lambda: mx.ts_sum_decision(inf)), canon_ts_sum
        target, route = op["target"], op["route"]
        return (lambda: mx.dual_set_membership(target, inf, route)), lambda r: "1" if r else "0"
    if kind == "milne":
        phi, psi = mx.parse_formula(op["phi"]), mx.parse_formula(op["psi"])
        return (lambda: mx.milne_interpolant(phi, psi)), canon_milne
    if kind == "stream":
        text, logic, anti, mapping = op["text"], mx.STANDARDS[op["logic"]], op["anti"], op["map"]

        def stream():
            inf = mx.parse_sequent(text)
            verdict = mx.antivalid(logic, inf) if anti else mx.valid(logic, inf)
            line = json.dumps(consequence.verdict_record(logic, inf, verdict, anti=anti))
            if mapping is None:
                return line
            transform = {"op": mx.op_dual_inference, "neg": mx.neg_dual_inference, "invert": mx.invert}[mapping]
            return line + "\n" + mx.print_sequent(transform(inf))
        return stream, str
    if kind == "cli":
        argv = op["argv"]
        if in_process_cli:
            def call():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                return code, out.getvalue(), err.getvalue()
        else:
            def call():
                done = subprocess.run([python, "-c", CLI_CODE, *argv], capture_output=True, text=True)
                return done.returncode, done.stdout, done.stderr
        return call, lambda r: f"{r[0]}\n{'E' if r[2] else '-'}\n{r[1]}"
    raise ValueError(f"unknown operation kind {kind!r}")


README_SEQUENT = "p | (q & ~q) => p & (q | ~q)"
WARM_UP = {
    "check_wide": {"k": "decide", "logic": "K3", "anti": False,
                   "seq": "p0 & p1 & p2 & p3 & p4 & p5 => p0 | p1 | p2 | p3 | p4 | p5"},
    "decompose_mixed": {"k": "st", "seq": README_SEQUENT},
    "small_stream": {"k": "stream", "text": README_SEQUENT, "logic": "ST", "anti": False, "map": "op"},
    "cli_verbs": {"k": "cli", "argv": ["check", "--logic", "st", "--json", README_SEQUENT]},
}


def warm_up(workload: str) -> None:
    """One fixed, seed-independent operation of the workload's kind (in-process)."""
    call, canon = prepare(WARM_UP[workload], in_process_cli=True, python=sys.executable)
    canon(call())


# --------------------------------------------------------------------------
# the timed loop


def run_passes(passes, seconds, min_samples, in_process_cli, python, tracer=None, calibrator=None):
    """Closed loop over whole passes until `seconds` of operation time and
    `min_samples` operations are reached and every distinct pass ran once.

    Latencies are calibrated (see calibration.py) when a calibrator is
    given, and plain wall times otherwise.
    """
    clock = time.perf_counter
    walls, firsts, lasts = array("d"), array("q"), array("q")
    busy = 0.0
    first_outputs, mismatches = [], 0
    mark = calibrator.mark if calibrator is not None else (lambda: 0)
    if calibrator is not None:
        calibrator.start()
    k = 0
    while k < len(passes) or busy < seconds or len(walls) < min_samples:
        ops = rename(passes[k % len(passes)], k)
        prepared = [prepare(op, in_process_cli, python) for op in ops]
        outputs = []
        for call, canon in prepared:
            if tracer is not None:
                tracer.begin_op(len(walls))
            first = mark()
            start = clock()
            try:
                result = call()
                failed = None
            except Exception as exc:  # an operation that raises is a counted failure
                failed = f"EXC:{type(exc).__name__}"
            elapsed = clock() - start
            if tracer is not None:
                tracer.end_op()
            lasts.append(mark())
            firsts.append(first)
            walls.append(elapsed)
            busy += elapsed
            output = failed if failed is not None else canon(result)
            outputs.append(output.replace(prefix(k), PREFIX) if k else output)
        if k < len(passes):
            first_outputs.append(outputs)
        else:
            reference = first_outputs[k % len(passes)]
            mismatches += sum(a != b for a, b in zip(outputs, reference))
        k += 1
    if calibrator is not None:
        time.sleep(calibration.INTERVAL_S * calibration.MIN_SAMPLES)  # samples after the last operation
        calibrator.stop()
        limit = calibrator.outlier_limit()
        latencies = [calibrator.calibrate(w, a, b, limit) for w, a, b in zip(walls, firsts, lasts)]
    else:
        latencies = list(walls)
    return {"latencies": latencies, "wall_latencies": list(walls), "busy_s": busy, "passes": k,
            "outputs": first_outputs, "mismatches": mismatches}


def sweep(tracer) -> dict:
    """Worst-case valid K3 and ST sequents, n = 2..12, under the tracer."""
    import mixcons as mx

    decide = tracer.names.index("consequence.valid")
    out = {}
    for logic in SWEEP_LOGICS:
        for n in SWEEP_NS:
            names = [f"xzz{i:02d}" for i in range(n)]
            inf = mx.parse_sequent(" & ".join(names) + " => " + " | ".join(names))
            reps = max(1, min(100, int(0.1 / (3 ** n * 12e-6))))
            per_valuation, self_ms, valid = [], [], True
            for _ in range(reps):
                before = (tracer.self_s[decide], tracer.total_s[decide], tracer.counters["decide.valuations"])
                tracer.begin_op(-2)
                valid &= mx.valid(mx.STANDARDS[logic], inf).valid
                tracer.end_op()
                visited = tracer.counters["decide.valuations"] - before[2]
                per_valuation.append((tracer.total_s[decide] - before[1]) / visited * 1e6)
                self_ms.append((tracer.self_s[decide] - before[0]) * 1e3)
            out[f"{logic}.n{n:02d}"] = {"us_per_valuation": statistics.median(per_valuation),
                                        "decide_self_ms": statistics.median(self_ms), "valid": valid}
    return out


def main() -> None:
    request = json.load(sys.stdin)
    workload, python = request["workload"], request["python"]
    passes, seconds, min_samples = request["passes"], request["seconds"], request["min_samples"]
    cli = workload == "cli_verbs"
    # One CPU for this process and its children, so that the calibration
    # kernel samples the CPU the measured code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_up(workload)
    reply = {}
    if not request["trace"]:
        reply["run"] = run_passes(passes, seconds, min_samples, not cli, python,
                                  calibrator=calibration.Calibrator())
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
        reply["peak_rss_kb"] = usage.ru_maxrss
    else:
        from tracer import Tracer

        if cli:
            reply["subprocess"] = run_passes(passes, 0, 0, False, python)
        reply["untraced"] = run_passes(passes, seconds, min_samples, True, python)
        tracer = Tracer()
        tracer.install()
        try:
            reply["traced"] = run_passes(passes, seconds, min_samples, True, python, tracer)
            reply["aggregates"] = tracer.aggregates()
            reply["counters"] = dict(tracer.counters)
            reply["full_space"] = tracer.full_space
            reply["recheck_s"] = tracer.recheck_s()
            reply["spans"] = sum(span is not None for span in tracer.spans)
            reply["sweep"] = sweep(tracer)
        finally:
            tracer.uninstall()
        os.makedirs(os.path.dirname(request["spans_path"]), exist_ok=True)
        tracer.write_spans(request["spans_path"])
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
