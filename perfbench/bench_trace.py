"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each traced function in every closurekb module
that holds it (so `codegen.validate`, `retrieval.closure` and
`model_dsl.parse_model` are caught where their callers look them up) and
spans nest the way the calls do. Spans stay in memory; `write()` saves them
as JSON with their self times, and `layer_metrics()` sums self time per
layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from time import perf_counter_ns

from closurekb import closure, codegen, model_dsl, retrieval
from closurekb import knowledge_graph as kg


def _len(_args, result):
    return len(result)


def _parse_size(args, _result):
    return len(args[0].encode("utf-8"))


# (module, function, size of the call's work, or None)
TRACED = (
    (model_dsl, "parse_model", _parse_size),
    (model_dsl, "extract_symbols", None),
    (model_dsl, "emit_set", None),
    (model_dsl, "emit_param", None),
    (model_dsl, "emit_var", None),
    (model_dsl, "emit_constraint", None),
    (model_dsl, "emit_objective", None),
    (kg, "ingest_model", None),
    (kg, "ingest_concept_cards", None),
    (kg, "align", None),
    (kg, "save", None),
    (kg, "load", None),
    (closure, "closure", None),
    (closure, "is_well_defined", None),
    (closure, "induced_subgraph", None),
    (retrieval, "understand_query", None),
    (retrieval, "select_seeds", _len),
    (retrieval, "structural_retrieve", _len),
    (retrieval, "semantic_search", None),
    (retrieval, "fuse", None),
    (retrieval, "index_snippets", None),
    (codegen, "repair_loop", lambda _args, result: result[2]),
    (codegen, "build_context", lambda _args, result: len(result.typed_entities)),
    (codegen, "build_context_from_members", None),
    (codegen, "dependency_order", None),
    (codegen, "generate", lambda _args, result: len(result.encode("utf-8"))),
    (codegen, "validate", None),
    (codegen, "resolve_missing_name", None),
)


class Tracer:
    """Records spans: [name, start_ns, end_ns, parent index, request, phase, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.phase = "setup"

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around one of its own steps."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if size is not None:
                span[6] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "closurekb" or n.startswith("closurekb.")]
        for module, attr, size in TRACED:
            original = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[-1]
            traced = self.wrap(f"{layer}.{attr}", original, size)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
        original = kg.KnowledgeGraph.find_by_name
        kg.KnowledgeGraph.find_by_name = self.wrap("knowledge_graph.find_by_name", original, None)

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path, header: dict) -> None:
        own = self.self_times()
        fields = ["name", "start_ns", "end_ns", "parent", "request", "phase", "size", "self_ns"]
        rows = [s + [t] for s, t in zip(self.spans, own)]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({**header, "fields": fields, "spans": rows}, out, separators=(",", ":"))
            out.write("\n")


def _by_name(tracer: Tracer, phase: str):
    own = tracer.self_times()
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    for span, t in zip(tracer.spans, own):
        if span[5] == phase:
            total[span[0]] = total.get(span[0], 0) + t
            calls[span[0]] = calls.get(span[0], 0) + 1
    return total, calls


def _request_sizes(tracer: Tracer, name: str, pick) -> float:
    """Per-request value of a recorded size (first or last call), averaged."""
    per_request: dict[int, int] = {}
    for span in tracer.spans:
        if span[0] == name and span[5] == "loop" and span[6] is not None:
            if pick == "last" or span[4] not in per_request:
                per_request[span[4]] = span[6]
    return statistics.fmean(per_request.values()) if per_request else 0.0


def layer_metrics(tracer: Tracer, requests: int, setups: int, graph, index) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit). Loop times are self time per
    request and set-up times self time per set-up; counts are per request,
    or of the final graph and index."""
    loop, loop_calls = _by_name(tracer, "loop")
    setup, _ = _by_name(tracer, "setup")

    def per_request(*names):
        return sum(loop.get(n, 0) for n in names) / requests / 1e6, "ms"

    def per_setup(*names):
        return sum(setup.get(n, 0) for n in names) / setups / 1e6, "ms"

    def calls(name):
        return loop_calls.get(name, 0) / requests, "count"

    def sizes(name, pick, scale=1.0, unit="count"):
        return _request_sizes(tracer, name, pick) / scale, unit

    emitters = [f"model_dsl.emit_{k}" for k in ("set", "param", "var", "constraint", "objective")]
    parsed_bytes = sum(s[6] for s in tracer.spans if s[0] == "model_dsl.parse_model" and s[5] == "loop")
    parse_s = loop.get("model_dsl.parse_model", 0) / 1e9
    return {
        "model_dsl.parse_ms": per_request("model_dsl.parse_model"),
        "model_dsl.parse_kb_per_s": (parsed_bytes / 1000 / parse_s if parse_s else 0.0, "KB/s"),
        "model_dsl.emit_ms": per_request(*emitters),
        "model_dsl.extract_symbols_ms": per_request("model_dsl.extract_symbols"),
        "knowledge_graph.find_by_name_ms": per_request("knowledge_graph.find_by_name"),
        "closure.closure_ms": per_request("closure.closure"),
        "closure.closure_calls": calls("closure.closure"),
        "closure.is_well_defined_ms": per_request("closure.is_well_defined"),
        "closure.induced_subgraph_ms": per_request("closure.induced_subgraph"),
        "retrieval.understand_query_ms": per_request("retrieval.understand_query"),
        "retrieval.select_seeds_ms": per_request("retrieval.select_seeds"),
        "retrieval.seeds_per_request": sizes("retrieval.select_seeds", "first"),
        "retrieval.structural_retrieve_ms": per_request("retrieval.structural_retrieve"),
        "retrieval.structural_entities_per_request": sizes("retrieval.structural_retrieve", "last"),
        "retrieval.semantic_search_ms": per_request("retrieval.semantic_search"),
        "retrieval.semantic_search_calls": calls("retrieval.semantic_search"),
        "retrieval.fuse_ms": per_request("retrieval.fuse"),
        "codegen.build_context_ms": per_request("codegen.build_context", "codegen.build_context_from_members"),
        "codegen.dependency_order_ms": per_request("codegen.dependency_order"),
        "codegen.context_entities_per_request": sizes("codegen.build_context", "last"),
        "codegen.generate_ms": per_request("codegen.generate"),
        "codegen.code_kb_per_request": sizes("codegen.generate", "last", 1000, "KB"),
        "codegen.validate_ms": per_request("codegen.validate"),
        "codegen.resolve_missing_name_ms": per_request("codegen.resolve_missing_name"),
        "codegen.rounds_per_request": sizes("codegen.repair_loop", "last"),
        "setup.corpus_ingest_ms": per_setup("corpus.ingest_corpus"),
        "setup.model_dsl_ms": per_setup(*[n for n in setup if n.startswith("model_dsl.")]),
        "knowledge_graph.ingest_ms": per_setup("knowledge_graph.ingest_model", "knowledge_graph.ingest_concept_cards"),
        "knowledge_graph.align_ms": per_setup("knowledge_graph.align"),
        "knowledge_graph.save_ms": per_setup("knowledge_graph.save"),
        "setup.json_io_ms": per_setup("setup.json_io"),
        "knowledge_graph.load_ms": per_setup("knowledge_graph.load"),
        "retrieval.index_snippets_ms": per_setup("retrieval.index_snippets"),
        "retrieval.index_docs": (float(len(index.doc_ids)), "count"),
        "retrieval.index_vocabulary": (float(len(index.embedder.vocabulary)), "count"),
        "knowledge_graph.entities": (float(len(graph)), "count"),
        "knowledge_graph.edges": (float(len(graph.edges)), "count"),
    }
