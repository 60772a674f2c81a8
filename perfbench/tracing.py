"""Spans around sclkit's layers, recorded from outside the package.

Each traced name is replaced by a timing wrapper in the module that defines it
and in every sclkit module that imported it, so calls through either name are
seen; generators are timed per next().  Spans (id, parent, op, layer, start,
end) stay in memory until the run writes them out.  A layer's self time is its span
time minus the time of its child spans.  A name the package no longer has is
skipped and its metrics read 0.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter


def _count_triples(tr, result, args):
    tr.counters["rdf.triples_parsed"] += len(result)


def _count_tau(tr, result, args):
    tr.counters["translate.tau_calls"] += 1


def _count_validate(tr, result, args):
    tr.counters["semantics.validate_calls"] += 1


def _count_witness(tr, result, args):
    if getattr(result, "status", None) == "sat":
        tr.counters["decide.witnesses"] += 1


def _count_cnf(tr, result, args):
    cnf = result[0]
    tr.counters["decide.cnf_vars"] += getattr(cnf, "n_vars", 0)
    tr.counters["decide.cnf_clauses"] += len(getattr(cnf, "clauses", ()))


def _count_dpll(tr, result, args):
    tr.counters["decide.dpll_calls"] += 1
    if result is not None:
        tr.counters["decide.dpll_sat"] += 1


def _count_faithful(tr, item):
    tr.counters["semantics.faithful_yielded"] += 1


def _count_candidate(tr, item):
    tr.counters["decide.candidates"] += 1


# (layer, module, attribute, kind, hook); kind is "call", "gen" or "method"
LAYERS = (
    ("cli", "sclkit.cli", "main", "call", None),
    ("cli.build_parser", "sclkit.cli", "build_parser", "call", None),
    ("rdf.parse_turtle", "sclkit.rdf", "parse_turtle", "call", _count_triples),
    ("rdf.serialize_turtle", "sclkit.rdf", "serialize_turtle", "call", None),
    ("shacl.document_from_graph", "sclkit.shacl", "document_from_graph", "call", None),
    ("shacl.eliminate_xone", "sclkit.shacl", "eliminate_xone", "call", None),
    ("translate.tau", "sclkit.translate", "tau", "call", _count_tau),
    ("translate.tau_inverse", "sclkit.translate", "tau_inverse", "call", None),
    ("scl.pretty", "sclkit.scl", "pretty", "call", None),
    ("decide.classify", "sclkit.decide", "classify", "call", None),
    ("decide.emit", "sclkit.decide", "emit_smtlib", "call", None),
    ("decide.emit", "sclkit.decide", "emit_tptp", "call", None),
    ("semantics.validate", "sclkit.semantics", "validate", "call", _count_validate),
    ("semantics.compile_document", "sclkit.semantics", "compile_document", "call", None),
    ("semantics.stratified_assignment", "sclkit.semantics", "stratified_assignment", "call", None),
    ("semantics.iter_faithful", "sclkit.semantics", "iter_faithful", "gen", _count_faithful),
    ("semantics.assignment_to_json", "sclkit.semantics", "Assignment.to_json", "method", None),
    ("decide.graph_search", "sclkit.decide", "bounded_sat", "call", _count_witness),
    ("decide.graph_search", "sclkit.decide", "check_containment", "call", _count_witness),
    ("decide.candidate_graphs", "sclkit.decide", "candidate_graphs", "gen", _count_candidate),
    ("filters.combo_witnesses", "sclkit.filters", "combo_witnesses", "call", None),
    ("decide.model_search", "sclkit.decide", "template_sat", "call", None),
    ("decide.model_search", "sclkit.decide", "scl_bounded_sat", "call", None),
    ("decide.ground", "sclkit.decide", "_ground_problem", "call", _count_cnf),
    ("decide.dpll", "sclkit.decide", "_dpll", "call", _count_dpll),
    ("filters.axiomatisation", "sclkit.filters", "naive_axiomatisation", "call", None),
    ("filters.axiomatisation", "sclkit.filters", "bounded_axiomatisation", "call", None),
)

# layers reported with inclusive time (<layer>_s) as well as self time
TIMED = (
    "cli.build_parser", "rdf.parse_turtle", "rdf.serialize_turtle", "shacl.document_from_graph",
    "shacl.eliminate_xone", "translate.tau", "translate.tau_inverse", "scl.pretty",
    "decide.classify", "decide.emit", "semantics.stratified_assignment",
    "semantics.assignment_to_json", "semantics.iter_faithful", "semantics.validate",
    "semantics.compile_document", "decide.candidate_graphs", "filters.combo_witnesses",
    "decide.ground", "decide.dpll", "filters.axiomatisation",
)
SELF_ONLY = ("decide.graph_search", "decide.model_search")
COUNTS = (
    "rdf.triples_parsed", "translate.tau_calls", "semantics.faithful_yielded",
    "semantics.validate_calls", "decide.candidates", "decide.budget_exhausted",
    "decide.cnf_vars", "decide.cnf_clauses", "decide.dpll_calls",
)
RATIOS = ("semantics.compile_document_hit_ratio", "decide.candidate_hit_ratio",
          "decide.dpll_sat_ratio")
# which end-to-end metric, on which workload, each layer metric should move
_MOVES = (
    ("ops_per_s, latency_p50_ms on cli-mix",
     ("rdf.parse_turtle", "rdf.triples_parsed", "rdf.serialize_turtle")),
    ("latency_p50_ms on cli-mix",
     ("shacl.document_from_graph", "shacl.eliminate_xone", "translate.tau",
      "translate.tau_calls", "translate.tau_inverse", "scl.pretty", "decide.classify",
      "decide.emit", "cli.self_s")),
    ("latency_p50_ms on cli-mix and validate-recursive", ("cli.build_parser",)),
    ("latency_tail_ms on cli-mix",
     ("semantics.stratified_assignment", "semantics.assignment_to_json")),
    ("latency_tail_ms, ops_per_s on validate-recursive",
     ("semantics.iter_faithful", "semantics.faithful_yielded")),
    ("ops_per_s on sat-contains and cli-mix",
     ("semantics.validate", "semantics.validate_calls", "semantics.compile_document",
      "semantics.compile_document_hit_ratio")),
    ("decided_ratio, ops_per_s on sat-contains",
     ("decide.candidate_graphs", "decide.candidates", "decide.candidate_hit_ratio",
      "decide.budget_exhausted", "filters.combo_witnesses", "decide.graph_search")),
    ("ops_per_s, peak_rss_mb on template-count",
     ("decide.ground", "decide.cnf_vars", "decide.cnf_clauses", "decide.model_search")),
    ("latency_tail_ms, late_ratio on template-count",
     ("decide.dpll", "decide.dpll_calls", "decide.dpll_sat_ratio", "filters.axiomatisation")),
)
LAYER_MAP = {}
for _moves, _names in _MOVES:
    for _name in _names:
        for _metric in (_name, _name + "_s", _name + "_self_s"):
            LAYER_MAP[_metric] = "-> " + _moves
RUN = (("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
       ("trace.overhead_ratio", "ratio"), ("trace.spans_per_op", "count/op"))


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in TIMED:
        units[layer + "_s"] = "s/op"
    units["cli.self_s"] = "s/op"
    for layer in TIMED + SELF_ONLY:
        units[layer + "_self_s"] = "s/op"
    for name in COUNTS:
        units[name] = "count/op"
    for name in RATIOS:
        units[name] = "ratio"
    units.update(RUN)
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []       # open frames: [span id, layer, start, child time]
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.counters = defaultdict(float)
        self.missing: list = []
        self._patches: list = []
        self._originals: dict = {}
        self._next_id = 0
        self.op = None              # index of the op being traced, shared by its spans

    # --- spans -------------------------------------------------------------------
    def _enter(self, layer: str) -> list:
        self._next_id += 1
        frame = [self._next_id, layer, perf(), 0.0]
        self.stack.append(frame)
        self.depth[layer] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = perf()
        if not any(f is frame for f in self.stack):
            return                          # already closed by close_open()
        while self.stack[-1] is not frame:
            self._exit(self.stack[-1])     # unwound by an interrupt
        self.stack.pop()
        span_id, layer, start, child = frame
        duration = end - start
        self.self_time[layer] += duration - child
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.inclusive[layer] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.op, layer, start, end))

    def close_open(self) -> None:
        """Close frames left open by an op interrupted mid-call."""
        while self.stack:
            self._exit(self.stack[-1])

    # --- wrappers ----------------------------------------------------------------
    def _wrap_call(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(tracer, result, args)
            return result
        return traced

    def _wrap_gen(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame)
                if hook is not None:
                    hook(tracer, item)
                yield item
        return traced

    def install(self) -> None:
        packages = [m for n, m in sys.modules.items() if n == "sclkit" or n.startswith("sclkit.")]
        for layer, module_name, attr, kind, hook in LAYERS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            original = getattr(module, owner_name, None) if module else None
            if kind == "method":
                owner, original = original, getattr(original, method, None)
            if original is None:
                if attr not in self.missing:
                    self.missing.append(attr)
                continue
            self._originals[attr] = original
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            wrapper = wrap(layer, original, hook)
            if kind == "method":
                self._patch(owner, method, wrapper)
                continue
            for mod in packages:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def cache_info():
        """Hits and misses of the compiled-document cache, read while no
        wrapper is installed."""
        fn = getattr(sys.modules.get("sclkit.semantics"), "compile_document", None)
        return fn.cache_info() if hasattr(fn, "cache_info") else None

    # --- report ------------------------------------------------------------------
    def metrics(self, ops: int, cache_hits: int, cache_misses: int) -> dict:
        ops = max(ops, 1)
        c = self.counters
        out = {}
        for layer in TIMED:
            out[layer + "_s"] = self.inclusive[layer] / ops
        out["cli.self_s"] = self.self_time["cli"] / ops
        for layer in TIMED + SELF_ONLY:
            out[layer + "_self_s"] = self.self_time[layer] / ops
        for name in COUNTS:
            out[name] = c[name] / ops
        lookups = cache_hits + cache_misses
        out["semantics.compile_document_hit_ratio"] = cache_hits / lookups if lookups else 0.0
        out["decide.candidate_hit_ratio"] = (c["decide.witnesses"] / c["decide.candidates"]
                                             if c["decide.candidates"] else 0.0)
        out["decide.dpll_sat_ratio"] = (c["decide.dpll_sat"] / c["decide.dpll_calls"]
                                        if c["decide.dpll_calls"] else 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, op, layer, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "layer": layer,
                                     "start": start, "end": end}) + "\n")
