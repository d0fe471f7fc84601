"""Per-layer tracing of mixcons, applied from outside the package.

`Tracer.install()` wraps every public function of the eight layer modules
and rebinds each name under which any mixcons module (the package itself
included) holds that function.  A function that calls itself through its
module global (`eval_formula`, `print_formula`, `atoms`, ...) is not
rebound inside its own module, so one traced call covers its whole
recursion and counts as one call from outside.  `Inference.__init__` is
patched on the class, because callers construct the class directly.
Functions reached only through a data structure built at import time (the
route table in `duality`) are not seen; their time counts in the caller.
`uninstall()` restores every rebound name.

Only calls made between `begin_op` and `end_op` are traced.  Every such
wrapped call pushes a frame; its self time is its duration minus the
time of the wrapped calls made inside it.  Calls to functions in `HOT`
(run once per valuation or per atom) are only aggregated; all others also
keep a span (name, start, end, parent span, operation id) in memory, which
`write_spans` stores at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
import types
from collections import Counter

LAYERS = ("formula", "semantics", "consequence", "decomposition", "duality", "oracle", "randgen", "cli")

HOT = {
    "semantics.eval_formula", "semantics.enumerate_valuations", "semantics.is_partial_sharpening",
    "consequence.satisfies", "consequence.antisatisfies",
    "formula.atoms", "formula.atoms_of_set", "formula.variables_of_set", "formula.is_variable_atom",
    "formula.atom_to_formula", "formula.contains_lambda", "formula.conjoin", "formula.disjoin",
    "formula.fresh_variable", "formula.print_formula",
    "decomposition.gamma_v_conjunction", "duality.op_dual", "randgen.random_formula",
}
DECIDE = ("consequence.valid", "consequence.antivalid")
CONNECTOR_BUILDERS = ("decomposition.st_connecting_formula", "decomposition.lp_k3_connector_lambda_free",
                      "decomposition.milne_interpolant")


def node_count(f, cache: dict) -> int:
    """AST nodes of a mixcons formula, memoised by object identity."""
    hit = cache.get(id(f))
    if hit is not None:
        return hit[1]
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        count += 1
        for attr in ("sub", "left", "right"):
            child = getattr(g, attr, None)
            if child is not None:
                stack.append(child)
    cache[id(f)] = (f, count)  # the reference keeps the id from being reused
    return count


def variable_names(formulas) -> set:
    """Variable names in mixcons formulas, without calling into mixcons."""
    out, stack = set(), list(formulas)
    while stack:
        g = stack.pop()
        name = getattr(g, "name", None)
        if name is not None:
            out.add(name)
        for attr in ("sub", "left", "right"):
            child = getattr(g, attr, None)
            if child is not None:
                stack.append(child)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.full_space = 0  # sum of 3^n over decide calls
        self.stack: list[list] = []  # [start, child time, span id, name index]
        self.op = -1
        self.active = [False]  # wrapped calls outside operations are not traced
        self._patches: list = []
        self._nodes: dict = {}
        self._decide_ids: set = set()

    # -- frames -------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        idx = self._index(name)
        if name in DECIDE:
            self._decide_ids.add(idx)
        keep_span = name not in HOT
        stack, spans, calls, self_s, total_s = self.stack, self.spans, self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        post = self._post_hook(name)
        active = self.active

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            sid = parent
            if keep_span:
                sid = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, sid, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                total_s[idx] += duration
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans[sid] = (idx, frame[0], end, parent, self.op)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Times each step of a generator; the consumer's loop body is not its time."""
        idx = self._index(name)
        stack, calls, self_s, total_s, counters = self.stack, self.calls, self.self_s, self.total_s, self.counters
        decide_ids = self._decide_ids
        active = self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not active[0]:
                yield from fn(*args, **kwargs)
                return
            calls[idx] += 1
            key = "decide.valuations" if stack and stack[-1][3] in decide_ids else "other.valuations"
            it = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    item = it
                duration = clock() - start
                self_s[idx] += duration
                total_s[idx] += duration
                if stack:
                    stack[-1][1] += duration
                if item is it:
                    return
                counters[key] += 1
                yield item

        return wrapper

    def _post_hook(self, name: str):
        counters, nodes = self.counters, self._nodes
        if name == "semantics.eval_formula":
            def post(args, result):
                counters["eval.nodes"] += node_count(args[0], nodes)
            return post
        if name in DECIDE:
            spaces = {}

            def post(args, result):
                inf = args[1]
                hit = spaces.get(id(inf))
                if hit is None or hit[0] is not inf:
                    hit = spaces[id(inf)] = (inf, 3 ** len(variable_names(inf.premises + inf.conclusions)))
                self.full_space += hit[1]
            return post
        if name in CONNECTOR_BUILDERS:
            milne = name == "decomposition.milne_interpolant"

            def post(args, result):
                if milne:
                    connector = None if hasattr(result, "reason") else result
                else:
                    connector = getattr(result, "connector", None)
                if connector is not None:
                    counters["connector.nodes"] += node_count(connector, nodes)
            return post
        if name == "oracle.run_oracle":
            def post(args, result):
                counters["oracle.samples"] += sum(r.samples for r in result.results)
            return post
        return None

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("mixcons")
        modules = {layer: importlib.import_module(f"mixcons.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    make = self._wrap_generator if inspect.isgeneratorfunction(obj) else self._wrap
                    wrappers[id(obj)] = (module, obj, make(name, obj))
        for holder in (package, *modules.values()):
            for attr, obj in list(vars(holder).items()):
                entry = wrappers.get(id(obj))
                if entry is None or entry[1] is not obj:
                    continue
                home, fn, wrapper = entry
                if holder is home and fn.__name__ in fn.__code__.co_names:
                    continue  # self-recursive: trace only the outermost call
                self._patches.append((holder, attr, obj))
                setattr(holder, attr, wrapper)
        inference = modules["formula"].Inference
        original_init = inference.__init__
        self._patches.append((inference, "__init__", original_init))
        inference.__init__ = self._wrap("formula.Inference", original_init)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, obj = self._patches.pop()
            setattr(holder, attr, obj)

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active[0] = True

    def end_op(self) -> None:
        self.active[0] = False

    def aggregates(self) -> dict:
        return {
            name: [self.calls[i], self.self_s[i], self.total_s[i]]
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def recheck_s(self) -> float:
        """Time in consequence calls made directly by decomposition functions."""
        layer = [name.split(".")[0] for name in self.names]
        total = 0.0
        for span in self.spans:
            if span is None or span[3] < 0 or layer[span[0]] != "consequence":
                continue
            parent = self.spans[span[3]]
            if parent is not None and layer[parent[0]] == "decomposition":
                total += span[2] - span[1]
        return total

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for sid, span in enumerate(self.spans):
                if span is not None:
                    idx, start, end, parent, op = span
                    out.write(f"{sid}\t{self.names[idx]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
