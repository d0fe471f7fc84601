"""mixcons benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload check_wide --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, measures set-up in fresh
interpreters, runs the workload closed-loop with one client in a worker
process, checks every output against the numpy reference, and prints one
JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, from
a traced run plus the scaling sweep.  The line before it holds the
details (digests, error rate, sample count, metadata), which are also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import calibration
import corpus
import reference as ref
from tracer import LAYERS
from worker import SWEEP_LOGICS, SWEEP_NS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_SAMPLES = 100  # so the 90th percentile has at least ten samples beyond it
SETUP_PROBES = 7
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "semantics.valuations": "count/op",
    "semantics.eval.calls": "count/op",
    "semantics.eval.nodes": "count/op",
    "consequence.decide.calls": "count/op",
    "consequence.decide.self_ms": "ms/op",
    "consequence.us_per_valuation": "us",
    "consequence.visited_ratio": "ratio",
    "decomposition.calls": "count/op",
    "decomposition.self_ms": "ms/op",
    "decomposition.k3_dnf.self_ms": "ms/op",
    "decomposition.connector_nodes": "count/op",
    "decomposition.recheck_ms": "ms/op",
    "formula.parse.calls": "count/op",
    "formula.parse.self_ms": "ms/op",
    "formula.inference.calls": "count/op",
    "formula.inference.self_ms": "ms/op",
    "formula.print.calls": "count/op",
    "formula.print.self_ms": "ms/op",
    "duality.route.calls": "count/op",
    "duality.route.self_ms": "ms/op",
    "oracle.samples": "count/op",
    "oracle.self_ms": "ms/op",
    "randgen.self_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.import_ms": "ms",
    "cli.process_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"sweep.{logic}.n{n:02d}.{kind}": unit
       for logic in SWEEP_LOGICS for n in SWEEP_NS
       for kind, unit in (("us_per_valuation", "us"), ("decide_self_ms", "ms"))},
}

# Function groups behind the named per-layer metrics.
GROUPS = {
    "consequence.decide": ("consequence.valid", "consequence.antivalid"),
    "decomposition.k3_dnf": ("decomposition.k3_dnf",),
    "formula.parse": ("formula.parse_formula", "formula.parse_sequent"),
    "formula.inference": ("formula.Inference",),
    "formula.print": ("formula.print_formula", "formula.print_sequent"),
    "duality.route": ("duality.dual_set_membership",),
}


def child_env() -> dict:
    # A fixed hash seed keeps dict and set layouts, and so timings, equal across runs.
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def remaining(started: float) -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - started))


def setup_probes(workload: str, started: float) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining(started), check=True,
        )
        probes.append(json.loads(done.stdout))
    return probes


def run_worker(request: dict, started: float) -> dict:
    """Run the worker in its own process group, so that a timeout also ends
    any CLI child it is waiting for."""
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT, env=child_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as worker:
        try:
            stdout, stderr = worker.communicate(json.dumps(request), timeout=remaining(started))
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise
    if worker.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker exited with {worker.returncode}")
    return json.loads(stdout)


def check(op: dict, out: str) -> bool:
    """Does one canonical output agree with the reference?"""
    kind = op["k"]
    if out.startswith("EXC:"):
        return False
    if kind == "stream":
        return ref.check_stream(out, op)
    if kind == "cli":
        return ref.check_cli(op["argv"], out)
    if kind == "milne":
        return ref.check_milne(out, ref.parse_formula(op["phi"]), ref.parse_formula(op["psi"]))
    prem, concl = ref.parse_sequent(op["seq"])
    if kind == "decide":
        return ref.check_verdict(out, op["logic"], op["anti"], prem, concl)
    if kind in ("st", "lpk3"):
        return ref.check_product(out, prem, concl, kind)
    if kind == "ts":
        return ref.check_ts_sum(out, prem, concl)
    return ref.check_route(out, op["target"], prem, concl)


def count_failures(passes, run: dict, failures: list) -> int:
    """Reference failures among the first run of each pass, plus later runs
    whose (renamed-back) output differs from the first run's."""
    failed = run["mismatches"]
    for t, outputs in enumerate(run["outputs"]):
        for i, (op, out) in enumerate(zip(passes[t], outputs)):
            try:
                ok = check(op, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
                ok, out = False, f"{out} ({type(exc).__name__})"
            if not ok:
                failed += 1
                if len(failures) < 5:
                    failures.append({"pass": t, "op": i, "input": op, "output": out[:300]})
    return failed


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def end_to_end(latencies, setup_s: float, peak_rss_kb: int) -> dict:
    lat = sorted(latencies)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def per_layer(reply: dict, probes: list[dict]) -> dict:
    agg, counters = reply["aggregates"], reply["counters"]
    traced, untraced = reply["traced"], reply["untraced"]
    ops = len(traced["latencies"])

    def calls(names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names) / ops

    def self_ms(names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names) * 1e3 / ops

    layer_self = {layer: sum(v[1] for n, v in agg.items() if n.startswith(layer + ".")) for layer in LAYERS}
    all_self = sum(layer_self.values()) or 1.0
    decide = GROUPS["consequence.decide"]
    decide_valuations = counters.get("decide.valuations", 0)
    decide_total = sum(agg.get(n, (0, 0.0, 0.0))[2] for n in decide)
    metrics = {
        "semantics.valuations": (decide_valuations + counters.get("other.valuations", 0)) / ops,
        "semantics.eval.calls": calls(("semantics.eval_formula",)),
        "semantics.eval.nodes": counters.get("eval.nodes", 0) / ops,
        "consequence.us_per_valuation": decide_total / decide_valuations * 1e6 if decide_valuations else 0.0,
        "consequence.visited_ratio": decide_valuations / reply["full_space"] if reply["full_space"] else 0.0,
        "decomposition.calls": calls([n for n in agg if n.startswith("decomposition.")]),
        "decomposition.self_ms": layer_self["decomposition"] * 1e3 / ops,
        "decomposition.connector_nodes": counters.get("connector.nodes", 0) / ops,
        "decomposition.recheck_ms": reply["recheck_s"] * 1e3 / ops,
        "oracle.samples": counters.get("oracle.samples", 0) / ops,
        "oracle.self_ms": layer_self["oracle"] * 1e3 / ops,
        "randgen.self_ms": layer_self["randgen"] * 1e3 / ops,
        "cli.main.self_ms": layer_self["cli"] * 1e3 / ops,
        "cli.import_ms": statistics.median(p["import_s"] for p in probes) * 1e3,
        "cli.process_ms": 0.0,
        "trace.overhead_ratio": (ops / traced["busy_s"]) / (len(untraced["latencies"]) / untraced["busy_s"]),
    }
    for group, names in GROUPS.items():
        metrics[f"{group}.calls"] = calls(names)
        metrics[f"{group}.self_ms"] = self_ms(names)
    if "subprocess" in reply:
        metrics["cli.process_ms"] = (statistics.median(reply["subprocess"]["latencies"])
                                     - statistics.median(untraced["latencies"])) * 1e3
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / all_self
    for key, point in reply["sweep"].items():
        metrics[f"sweep.{key}.us_per_valuation"] = point["us_per_valuation"]
        metrics[f"sweep.{key}.decide_self_ms"] = point["decide_self_ms"]
    return {name: metrics[name] for name in PER_LAYER}


def metadata(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as source:
                    src_lines += sum(1 for _ in source)
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "seed": seed, "src_lines": src_lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "mixcons", "__init__.py")):
        print(f"mixcons sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.setrecursionlimit(100_000)  # the reference recurses over deep connectors

    passes = corpus.generate(args.workload, args.seed)
    probes = setup_probes(args.workload, started)
    setup_s = statistics.median(
        (p["import_s"] + p["warmup_s"]) * calibration.NOMINAL_S / p["kernel_s"] for p in probes)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv.gz")
    request = {"workload": args.workload, "seconds": args.seconds, "min_samples": MIN_SAMPLES,
               "passes": passes, "trace": bool(args.trace), "spans_path": spans_path,
               "python": sys.executable}
    reply = run_worker(request, started)

    failures: list = []
    runs = [reply[key] for key in ("run", "subprocess", "untraced", "traced") if key in reply]
    failed = sum(count_failures(passes, run, failures) for run in runs)
    attempted = sum(len(run["latencies"]) for run in runs)
    if args.trace:
        failed += sum(not point["valid"] for point in reply["sweep"].values())
        metrics = per_layer(reply, probes)
        units = PER_LAYER
    else:
        metrics = end_to_end(reply["run"]["latencies"], setup_s, reply["peak_rss_kb"])
        wall_setup_s = statistics.median(p["import_s"] + p["warmup_s"] for p in probes)
        wall_metrics = end_to_end(reply["run"]["wall_latencies"], wall_setup_s, reply["peak_rss_kb"])
        units = END_TO_END
    main_run = runs[0]
    details = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "corpus_digest": digest(passes), "output_digest": digest(main_run["outputs"]),
        "samples": len(main_run["latencies"]), "passes": main_run["passes"],
        "error_rate": failed / attempted, "failures": failures,
        "setup": {"median_s": setup_s, "probes": probes},
        "metadata": metadata(args.seed), "metrics": metrics,
        "wall_metrics": None if args.trace else wall_metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-t{args.trace}.json"), "w") as out:
        json.dump(details, out, indent=1)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
