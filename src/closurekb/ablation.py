"""Ablation harness: knowledge-source and retrieval-mode contrasts.

Each run executes a single retrieve -> package -> generate -> validate pass
(no corrective re-retrieval, so the contrast between closure expansion and a
plain top-k window is visible in the reports). Closure mode is the full
pipeline (`codegen.run_pipeline`, one round); window mode feeds the k nearest
semantic hits to the generator with no closure expansion, which is the
non-type-aware baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import codegen, corpus, retrieval
from .errors import ClosureKbError, MissingExpression, SchemaViolation
from .knowledge_graph import json_field, read_json

CLOSURE_MODE = "closure"
WINDOW_MODE = "window"


@dataclass(frozen=True)
class AblationConfig:
    knowledge_sources: str = corpus.HETEROGENEOUS
    retrieval_mode: str = CLOSURE_MODE
    window_k: int = 3
    runs: int = 1
    generator: str = "template"  # "template" or a mock script path

    def __post_init__(self):
        if self.knowledge_sources not in corpus.SOURCE_MODES:
            raise ClosureKbError(f"unknown knowledge_sources {self.knowledge_sources!r}")
        if self.retrieval_mode not in (CLOSURE_MODE, WINDOW_MODE):
            raise ClosureKbError(f"unknown retrieval_mode {self.retrieval_mode!r}")
        if self.retrieval_mode == WINDOW_MODE and self.window_k < 1:
            raise ClosureKbError("window_k must be >= 1 in window mode")
        if self.runs < 1:
            raise ClosureKbError("runs must be >= 1")


def config_from_json(doc: dict) -> AblationConfig:
    """Config from a JSON object whose fields are all optional, each of its
    default's type; SchemaViolation on a field of the wrong type."""
    if not isinstance(doc, dict):
        raise SchemaViolation("ablation config must be an object")
    return AblationConfig(**{
        f.name: json_field(doc, f.name, type(f.default))
        for f in fields(AblationConfig)
        if doc.get(f.name) is not None
    })


@dataclass(frozen=True)
class RunRow:
    run: int
    status: str  # ok | failed | generation_failed | unresolved (the query named no entity)
    missing: tuple[str, ...]
    empty_snippets: bool
    detail: str = ""


@dataclass(frozen=True)
class AblationReport:
    config: AblationConfig
    rows: tuple[RunRow, ...]

    @property
    def ok_runs(self) -> int:
        return sum(1 for row in self.rows if row.status == "ok")

    def to_text(self) -> str:
        lines = [f"{key}={value}" for key, value in asdict(self.config).items()]
        lines.append(f"ok_runs={self.ok_runs}/{len(self.rows)}")
        for row in self.rows:
            shown = {
                **asdict(row),
                "missing": ",".join(row.missing) or "-",
                "empty_snippets": "yes" if row.empty_snippets else "no",
            }
            if not row.detail:
                del shown["detail"]
            lines.append(" ".join(f"{key}={value}" for key, value in shown.items()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "config": asdict(self.config),
            "ok_runs": self.ok_runs,
            "rows": [{**asdict(row), "missing": list(row.missing)} for row in self.rows],
        }


class ScriptedGenerator:
    """Mock generator fed from a JSON script: {"responses": [code, ...]}.

    Responses are consumed per call (cycling), which is how LLM run-to-run
    variability is reintroduced into an otherwise deterministic harness.
    """

    def __init__(self, responses):
        if not responses:
            raise ClosureKbError("mock script has no responses")
        self.responses = list(responses)
        self.calls = 0

    @classmethod
    def from_path(cls, path) -> "ScriptedGenerator":
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise SchemaViolation("mock script must be an object")
        return cls(json_field(doc, "responses", [str]))

    def __call__(self, package) -> str:
        response = self.responses[self.calls % len(self.responses)]
        self.calls += 1
        return response


def _make_generator(selector: str):
    if selector == "template":
        return codegen.TemplateGenerator()
    return ScriptedGenerator.from_path(selector)


def run_single(query: str, graph, index, generator, mode: str, window_k: int) -> RunRow:
    if mode == CLOSURE_MODE:
        run = codegen.run_pipeline(query, graph, index, generator, max_rounds=1)
        if run.report.status == "unresolved":
            return RunRow(run=0, status="unresolved", missing=(), empty_snippets=True,
                          detail="query resolved no entity")
        snippets, error, report = run.retrieval.snippets, run.generation_error, run.report
    else:
        hits = retrieval.semantic_search(index, query, window_k)
        members = [doc_id for doc_id, _score, _text in hits if doc_id in graph]
        package = codegen.build_context_from_members(
            graph, members, hits, query, check_closed=False
        )
        snippets, error = package.snippets, None
        try:
            report = codegen.validate(codegen.generate(package, generator))
        except MissingExpression as exc:
            error = str(exc)
    if error is not None:
        return RunRow(run=0, status="generation_failed", missing=(),
                      empty_snippets=not snippets, detail=error)
    return RunRow(run=0, status="ok" if report.ok else "failed", missing=report.missing_declarations,
                  empty_snippets=not snippets, detail=report.parse_error or "")


def run_ablation(config: AblationConfig, corpus_dir) -> AblationReport:
    corpus_dir = Path(corpus_dir)
    query_path = corpus_dir / "query.txt"
    if not query_path.exists():
        raise ClosureKbError(f"corpus dir {corpus_dir} lacks query.txt")
    query = query_path.read_text(encoding="utf-8").strip()
    inputs = sorted(p for p in corpus_dir.iterdir() if p.name.endswith(corpus.INPUT_SUFFIXES))
    graph, _alignment = corpus.ingest_corpus(inputs, sources=config.knowledge_sources)
    index = retrieval.index_snippets(graph)
    generator = _make_generator(config.generator)
    rows = []
    for run in range(1, config.runs + 1):
        row = run_single(query, graph, index, generator, config.retrieval_mode, config.window_k)
        rows.append(replace(row, run=run))
    return AblationReport(config=config, rows=tuple(rows))
