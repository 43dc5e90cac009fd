"""Ablation harness: knowledge-source and retrieval-mode contrasts.

Each run is one round of `codegen.run_pipeline`, with no corrective
re-retrieval, so the reports show the contrast between a dependency closure
(closure mode) and the k nearest semantic hits (window mode, the
non-type-aware baseline). `run_single` maps that run to a report row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import codegen, corpus, retrieval
from .errors import ClosureKbError, SchemaViolation
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
    default's type; SchemaViolation on an unknown key or a field of the
    wrong type."""
    if not isinstance(doc, dict):
        raise SchemaViolation("ablation config must be an object")
    unknown = doc.keys() - {f.name for f in fields(AblationConfig)}
    if unknown:
        raise SchemaViolation(f"unknown ablation config keys: {sorted(unknown)}")
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


def run_single(query: str, graph, index, generator, mode: str, window_k: int) -> RunRow:
    run = codegen.run_pipeline(query, graph, index, generator, max_rounds=1,
                               window_k=window_k if mode == WINDOW_MODE else None)
    if run.report.status == "unresolved":
        return RunRow(run=0, status="unresolved", missing=(), empty_snippets=True,
                      detail="query resolved no entity")
    empty_snippets, report = not run.retrieval.snippets, run.report
    if run.generation_error is not None:
        return RunRow(run=0, status="generation_failed", missing=(),
                      empty_snippets=empty_snippets, detail=run.generation_error)
    return RunRow(run=0, status="ok" if report.ok else "failed", missing=report.missing_declarations,
                  empty_snippets=empty_snippets, detail=report.parse_error or "")


def run_ablation(config: AblationConfig, corpus_dir) -> AblationReport:
    corpus_dir = Path(corpus_dir)
    query_path = corpus_dir / "query.txt"
    if not query_path.exists():
        raise ClosureKbError(f"corpus dir {corpus_dir} lacks query.txt")
    query = query_path.read_text(encoding="utf-8").strip()
    inputs = sorted(p for p in corpus_dir.iterdir() if p.name.endswith(corpus.INPUT_SUFFIXES))
    graph, _alignment = corpus.ingest_corpus(inputs, sources=config.knowledge_sources)
    index = retrieval.index_snippets(graph)
    generator = (codegen.TemplateGenerator() if config.generator == "template"
                 else ScriptedGenerator.from_path(config.generator))
    rows = []
    for run in range(1, config.runs + 1):
        row = run_single(query, graph, index, generator, config.retrieval_mode, config.window_k)
        rows.append(replace(row, run=run))
    return AblationReport(config=config, rows=tuple(rows))
