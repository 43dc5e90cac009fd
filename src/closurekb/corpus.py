"""Corpus ingestion: turn mixed input files into one aligned knowledge graph.

File types are recognized by suffix:
  *.mm           MiniModel source (code entities)
  *.cards.json   concept cards (paper entities)
  *.battery.json battery instance + event (builds the battery graph)
  *.fjs          FJSP instance (baseline model is built and ingested)
  *.kg.json      prebuilt knowledge-unit document (merged as-is)

Also provides the corpus fixtures used by the ablation harness.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from . import battery, fjsp
from . import knowledge_graph as kg
from . import model_dsl
from .errors import ClosureKbError
from .knowledge_graph import KnowledgeGraph

PAPERS_ONLY = "papers_only"
CODE_ONLY = "code_only"
HETEROGENEOUS = "heterogeneous"
SOURCE_MODES = (PAPERS_ONLY, CODE_ONLY, HETEROGENEOUS)

INPUT_SUFFIXES = (".mm", ".cards.json", ".battery.json", ".fjs", ".kg.json")


def merge_graphs(dst: KnowledgeGraph, src: KnowledgeGraph) -> None:
    """Add src's entities and edges to dst as one `KnowledgeGraph.add_all`
    batch: an entity dst holds as a different one raises ConflictingEntity
    and leaves dst untouched."""
    dst.add_all([src.entities[entity_id] for entity_id in src.sorted_ids()], src.edges)


def filter_sources(graph: KnowledgeGraph, mode: str) -> KnowledgeGraph:
    """Restrict to one knowledge source; edges with a dropped endpoint go too."""
    if mode == HETEROGENEOUS:
        return graph
    keep = kg.SOURCE_PAPER if mode == PAPERS_ONLY else kg.SOURCE_CODE
    kept = {entity_id: ent for entity_id, ent in graph.entities.items() if ent.source == keep}
    out = KnowledgeGraph()
    out.add_all(kept.values(), [edge for edge in graph.edges if edge.src in kept and edge.dst in kept])
    return out


def ingest_path(path: Path, graph: KnowledgeGraph) -> None:
    """Ingest one input file into the graph, whole or not at all; an entity
    the graph holds as a different one raises ConflictingEntity
    (`KnowledgeGraph.add_all`)."""
    name = path.name
    if not name.endswith(INPUT_SUFFIXES):
        raise ClosureKbError(f"unrecognized input file type: {name}")
    if name.endswith(".kg.json"):
        merge_graphs(graph, kg.load(kg.read_json(path)))
    elif name.endswith(".cards.json"):
        kg.ingest_concept_cards(kg.cards_from_json(kg.read_json(path)), graph)
    elif name.endswith(".battery.json"):
        data, event = battery.data_from_json(kg.read_json(path))
        if event is None:
            raise ClosureKbError(f"{name}: battery instance lacks an event section")
        merge_graphs(graph, battery.build_battery_kg(data, event))
    elif name.endswith(".fjs"):
        instance = fjsp.parse_fjs(path.read_text(encoding="utf-8"))
        kg.ingest_model(fjsp.build_fjsp_model(instance, fjsp.BASELINE), graph)
    else:  # *.mm
        kg.ingest_model(model_dsl.parse_model(path.read_text(encoding="utf-8")), graph)


def ingest_corpus(paths, sources: str = HETEROGENEOUS) -> tuple[KnowledgeGraph, kg.AlignResult]:
    """Ingest all inputs, restrict to the requested sources, align, freeze."""
    if sources not in SOURCE_MODES:
        raise ClosureKbError(f"unknown knowledge_sources mode {sources!r}")
    graph = KnowledgeGraph()
    for path in paths:
        ingest_path(Path(path), graph)
    graph = filter_sources(graph, sources)
    alignment = kg.align(graph)
    graph.freeze()
    return graph, alignment


# --- Fixtures ---------------------------------------------------------------------

BATTERY_QUERY = "explain the constraints of machine m01 and generate corresponding LINGO code"
DISPERSED_QUERY = "add the coupling limit constraint for the flow network"


def write_battery_corpus(directory) -> list[Path]:
    """Battery instance + concept cards + the source-ablation query."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    instance = directory / "battery.battery.json"
    instance.write_text(
        json.dumps(battery.data_to_json(battery.paper_case_data(), battery.paper_event()), indent=2)
        + "\n",
        encoding="utf-8",
    )
    cards = directory / "battery.cards.json"
    cards.write_text(
        json.dumps(kg.cards_to_json(battery.battery_concept_cards()), indent=2) + "\n",
        encoding="utf-8",
    )
    query = directory / "query.txt"
    query.write_text(BATTERY_QUERY + "\n", encoding="utf-8")
    return [instance, cards, query]


DISPERSED_MODEL = """
set horizon = 1..4;
var flowRate{horizon} continuous in [0, 10];
param reservePool{horizon} = [3, 3, 3, 3];
param capScale = 2;
param baseMargin = 1;
con couplingLimit{t in horizon : t >= 2}: flowRate[t] <= capScale*reservePool[t-1] + baseMargin;
"""
DISPERSED_DESCRIPTIONS = {
    "horizon": "Planning periods.",
    "flowRate": "Throughput decision per period.",
    "reservePool": "Stock held back each period.",
    "capScale": "Multiplier applied to held stock.",
    "baseMargin": "Additive slack allowance.",
    "couplingLimit": "The coupling limit constraint bounds each flow step by the prior reserve.",
}


def dispersed_fixture_graph() -> KnowledgeGraph:
    """Dependencies of the target constraint spread across entities whose
    descriptions share no token with the fixture query, plus two paper notes
    whose descriptions monopolize the semantic top-k. The model's entities
    are copies carrying their descriptions; the model's edges join them."""
    code = KnowledgeGraph()
    kg.ingest_model(model_dsl.parse_model(DISPERSED_MODEL), code)
    entities = [replace(code.entity(name), description=text) for name, text in DISPERSED_DESCRIPTIONS.items()]
    for note_id, blurb in (
        ("backgroundNoteA", "Adding a coupling limit constraint keeps the flow network stable."),
        ("backgroundNoteB", "The flow network coupling limit constraint is explained in this note."),
    ):
        entities.append(kg.Entity(note_id, kg.CONCEPT, note_id, blurb, source=kg.SOURCE_PAPER))
    graph = KnowledgeGraph()
    graph.add_all(entities, code.edges)
    return graph


def write_dispersed_corpus(directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph_path = directory / "dispersed.kg.json"
    graph_path.write_text(
        json.dumps(kg.save(dispersed_fixture_graph()), indent=2) + "\n", encoding="utf-8"
    )
    query = directory / "query.txt"
    query.write_text(DISPERSED_QUERY + "\n", encoding="utf-8")
    return [graph_path, query]
