"""The pipeline's output bytes, pinned by SHA-256.

Each digest covers every request of one fixture: the rendered context
package of every round, the code, the report, the number of rounds and the
snippet ids, for a template generator and for one that drops the first
variable declaration of its first answer (so the repair loop runs a second
round). The battery and FJSP digests also cover the closure walk (visit
order and edge count) from every entity, and the battery digest the
window-mode package of each query, an open member set. The ablation digests
cover `ablate`'s JSON report on the dispersed corpus in closure and window
mode, and the package of one run. The FJSP models digest covers the
canonical text of every variant's model on seeded instances, with and
without windows whose bounds are fractional, below 1e-5, negative or past
1e15, and on times up to 2**53. A speed-up must leave every digest as it
is; a change that means to alter the output records the new digests and says
why.
"""

import hashlib
import json

import pytest

from closurekb import ablation, codegen, corpus, fjsp, model_dsl, retrieval
from closurekb import knowledge_graph as kg
from closurekb.closure import closure

BATTERY_QUERIES = (
    "Add a load-reduction constraint for the demand-response event",
    corpus.BATTERY_QUERY,
    "Add the loadReduction constraint for the demand-response event",
)
FJSP_QUERIES = (
    "explain the constraints of x and generate code",
    "add the prec constraint",
    "modify the objective using cmax",
)

DIGESTS = {
    "battery": "42792b14f4e58fc35e7244d1c0d8b1797571b4b073e195bc5ef076dd13bfa890",
    "fjsp": "2cb1d3510aad64c50cebbb9b287e9689738dd6a6d9bc98ae4cf4aa378f626a8b",
    "ablate-closure": "d5638738a164fb21c333fcb28532ff40b6312953ec4b4d7d74589b5bf9ca063e",
    "ablate-window": "d37d4b50574a2d9788b0bc2fba60139ca6e0a6c223665f56c1e9dbc0f3913245",
    "fjsp-models": "ea9a4721378dfec295ebab3b7f4bb84c3090b14e00af9ef360a2971044f62058",
}

FJSP_INSTANCES = (
    {"n_jobs": 3, "n_machines": 2, "ops_per_job": 2, "flexibility": 2, "seed": 3},
    {"n_jobs": 4, "n_machines": 3, "ops_per_job": 3, "flexibility": 2, "seed": 14},
    {"n_jobs": 3, "n_machines": 2, "ops_per_job": 2, "flexibility": 2, "seed": 5,
     "p_min": 2**52, "p_max": 2**53},
)
FJSP_WINDOWS = {1: [(-2.0, 1.0), (2.5e-06, 7.5)], 2: [(-5.0, -0.25), (10.25, 3e16)]}


class RecordingGenerator:
    """The template generator, keeping each package it is given, rendered.
    With `drop_first_var`, its first answer lacks its first var line."""

    def __init__(self, drop_first_var: bool):
        self.drop_first_var = drop_first_var
        self.packages: list[str] = []

    def __call__(self, package) -> str:
        self.packages.append(package.render())
        code = codegen.TemplateGenerator()(package)
        if self.drop_first_var and len(self.packages) == 1:
            lines = code.splitlines(keepends=True)
            first_var = next((i for i, line in enumerate(lines) if line.startswith("var ")), None)
            if first_var is not None:
                del lines[first_var]
            code = "".join(lines)
        return code


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pipeline_records(graph, queries) -> list:
    index = retrieval.index_snippets(graph)
    records = []
    for query in queries:
        for drop_first_var in (False, True):
            generator = RecordingGenerator(drop_first_var)
            run = codegen.run_pipeline(query, graph, index, generator)
            records.append({
                "query": query,
                "drop_first_var": drop_first_var,
                "packages": generator.packages,
                "code": run.code,
                "report": run.report.to_dict(),
                "rounds": run.rounds,
                "snippet_ids": [doc_id for doc_id, _score, _text in run.retrieval.snippets],
            })
    return records


def closure_records(graph) -> list:
    return [
        [target, list(result.visit_order), result.edge_count]
        for target in graph.sorted_ids()
        for result in (closure(graph, target),)
    ]


@pytest.fixture(scope="module")
def battery_graph(tmp_path_factory):
    directory = tmp_path_factory.mktemp("battery")
    paths = corpus.write_battery_corpus(directory)
    graph, _alignment = corpus.ingest_corpus([p for p in paths if p.name != "query.txt"])
    return graph


@pytest.fixture(scope="module")
def fjsp_graph(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fjsp")
    instance = directory / "instance.fjs"
    instance.write_text(fjsp.generate_fjs(4, 3, 3, 2, seed=14), encoding="utf-8")
    cards = directory / "fjsp.cards.json"
    cards.write_text(json.dumps(kg.cards_to_json(fjsp.fjsp_terminology_cards())), encoding="utf-8")
    graph, _alignment = corpus.ingest_corpus([instance, cards])
    return graph


def window_packages(graph, queries, k=5) -> list:
    """The rendered window-mode package of each query: an open member set."""
    index = retrieval.index_snippets(graph)
    generator = RecordingGenerator(drop_first_var=False)
    for query in queries:
        ablation.run_single(query, graph, index, generator, ablation.WINDOW_MODE, k)
    return generator.packages


def test_battery_pipeline_output_is_unchanged(battery_graph):
    records = pipeline_records(battery_graph, BATTERY_QUERIES)
    windows = window_packages(battery_graph, BATTERY_QUERIES)
    assert digest([records, closure_records(battery_graph), windows]) == DIGESTS["battery"]


def test_fjsp_whole_model_pipeline_output_is_unchanged(fjsp_graph):
    records = pipeline_records(fjsp_graph, FJSP_QUERIES)
    assert records[0]["report"]["status"] == "ok" and len(fjsp_graph) > 100
    assert digest([records, closure_records(fjsp_graph)]) == DIGESTS["fjsp"]


def test_fjsp_models_are_unchanged():
    texts = []
    for dims in FJSP_INSTANCES:
        plain = fjsp.parse_fjs(fjsp.generate_fjs(**dims))
        for instance in (plain, fjsp.with_windows(plain, FJSP_WINDOWS)):
            for variant in fjsp.VARIANTS:
                if variant != fjsp.UNAVAILABILITY or instance.windows:
                    texts.append(model_dsl.emit_model(fjsp.build_fjsp_model(instance, variant)))
    assert len(texts) == 15
    assert digest(texts) == DIGESTS["fjsp-models"]


@pytest.mark.parametrize("mode", [ablation.CLOSURE_MODE, ablation.WINDOW_MODE])
def test_dispersed_ablation_output_is_unchanged(tmp_path, mode):
    corpus.write_dispersed_corpus(tmp_path)
    config = ablation.AblationConfig(retrieval_mode=mode, window_k=3, runs=2)
    report = ablation.run_ablation(config, tmp_path).to_json()
    # The rendered package of one run.
    graph, _alignment = corpus.ingest_corpus([tmp_path / "dispersed.kg.json"])
    generator = RecordingGenerator(drop_first_var=False)
    index = retrieval.index_snippets(graph)
    ablation.run_single(corpus.DISPERSED_QUERY, graph, index, generator, mode, config.window_k)
    assert digest([report, generator.packages]) == DIGESTS[f"ablate-{mode}"]
