"""Entity/edge store, ingestion, alignment, and persistence tests."""

import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import corpus, fjsp
from closurekb import knowledge_graph as kg
from closurekb import model_dsl as md
from closurekb import retrieval
from closurekb.errors import (
    ClosureKbError,
    ConflictingEntity,
    DanglingRelation,
    DuplicateDeclaration,
    FrozenGraphError,
    SchemaViolation,
    UnknownEntity,
)

from test_model_dsl import random_model

LISTING_STYLE = (
    "set T = 1..4; var y{T} binary; param B13{T};"
    " con c{t in T : t >= 2}: y[t] <= B13[t-1];"
)


def ingest_source(source: str) -> kg.KnowledgeGraph:
    graph = kg.KnowledgeGraph()
    ast = md.parse_model(source)
    kg.ingest_model(ast, graph)
    return graph


def edge_set(graph):
    return {(e.src, e.dst, e.kind) for e in graph.edges}


def test_ingest_listing_style_edges():
    graph = ingest_source(LISTING_STYLE)
    assert edge_set(graph) == {
        ("c", "y", kg.USED_IN),
        ("c", "B13", kg.USED_IN),
        ("c", "T", kg.DEPENDS_ON),
        ("y", "T", kg.DEPENDS_ON),
        ("B13", "T", kg.DEPENDS_ON),
    }
    assert graph.entity("c").kind == kg.CONSTRAINT
    assert graph.entity("y").kind == kg.DECISION_VARIABLE
    assert "expression" in graph.entity("c").fields
    assert all("solver_symbol" in ent.fields for ent in graph.entities.values())


def test_ingested_executability_edges_are_the_symbol_facts():
    # The whole FJSP model of test_retrieval's fjsp_graph, a constraint that
    # names itself, and random models.
    asts = [
        fjsp.build_fjsp_model(fjsp.parse_fjs("2 1\n1 1 1 3\n1 1 1 4\n")),
        md.parse_model("set T = 1..2; var x{T} continuous; con c{t in T}: x[t] + c <= 1;"),
    ]
    rng = random.Random(909)
    for ast in asts + [random_model(rng) for _ in range(50)]:
        graph = kg.KnowledgeGraph()
        kg.ingest_model(ast, graph)
        facts = md.extract_symbols(ast)
        used_in = {(e.src, e.dst) for e in graph.edges if e.kind == kg.USED_IN}
        depends_on = {(e.src, e.dst) for e in graph.edges if e.kind == kg.DEPENDS_ON}
        assert used_in == {(ref.site, ref.name) for ref in facts.references if ref.name != ref.site}
        assert depends_on == set(facts.iterations)


@pytest.mark.parametrize("value, kind", [
    (float("inf"), float), (float("nan"), float), (10 ** 400, float), ([1.0, float("-inf")], [float]),
    (True, int), ([1, True], [float]), ((1.0,), [float]),
])
def test_json_field_rejects_non_finite_numbers_booleans_and_tuples(value, kind):
    with pytest.raises(SchemaViolation):
        kg.json_field({"v": value}, "v", kind)
    assert kg.json_field({"v": [10 ** 300, 0.5]}, "v", [float]) == [10 ** 300, 0.5]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0))
def test_declaration_reads_back_each_ingested_declaration(seed):
    ast = random_model(random.Random(seed))
    ast = md.ModelAst(ast.sets + (md.SetDecl("M", members=("a", "b")),), ast.params, ast.vars,
                      ast.constraints, ast.objective)
    graph = kg.KnowledgeGraph()
    kg.ingest_model(ast, graph)
    loaded = kg.load(json.loads(json.dumps(kg.save(graph))))
    assert loaded == graph
    declared = {decl.name: decl for decl in ast.sets + ast.params + ast.vars}
    for entity_id, entity in loaded.entities.items():
        assert kg.declaration(graph.entity(entity_id)) == declared.get(entity_id)
        assert kg.declaration(entity) == declared.get(entity_id)


def test_ingest_set_only_model_has_no_edges():
    graph = ingest_source("set T = 1..2;")
    assert len(graph) == 1
    assert graph.edges == ()


def test_ingest_conflicting_kind_raises():
    graph = ingest_source("set T = 1..2; var y{T} binary;")
    ast = md.parse_model("param y = 1;")
    with pytest.raises(ConflictingEntity):
        kg.ingest_model(ast, graph)


@pytest.mark.parametrize("first, second, error", [
    ("", md.parse_model("set T = 1..2; param p{p}; var x{T} binary; con c: x[1] <= q;"), SchemaViolation),
    ("set T = 1..2;", md.parse_model("param a = 1; var T binary;"), ConflictingEntity),
    ("", md.ModelAst(sets=(md.SetDecl("T", 1, 2),), vars=(md.VarDecl("T"),)), ConflictingEntity),
    ("", md.ModelAst(sets=(md.SetDecl("T", 1, 2),),
                     params=(md.ParamDecl("B", ("T",), (1.0, 2.0)), md.ParamDecl("B", ("T",)))),
     DuplicateDeclaration),
    ("set T = 1..2; param p{T} = [1, 2];", md.parse_model("set T = 1..3; param p{T} = [5, 6, 7];"),
     ConflictingEntity),
], ids=["self-indexed-param", "set-redeclared-as-var", "one-name-two-kinds", "one-name-declared-twice",
        "set-redeclared-with-another-range"])
def test_ingest_model_leaves_the_graph_unchanged_on_error(first, second, error):
    graph = ingest_source(first)
    before = kg.save(graph)
    with pytest.raises(error):
        kg.ingest_model(second, graph)
    assert kg.save(graph) == before


def test_ingest_of_the_same_model_twice_shares_its_entities():
    graph = ingest_source(LISTING_STYLE)
    before = kg.save(graph)
    kg.ingest_model(md.parse_model(LISTING_STYLE), graph)
    assert kg.save(graph) == before


# Each name is declared by one of these statements; two models share a name
# as one entity exactly when they declare it by the same text.
DECLARATION_TEXTS = ("param {} = 1;", "param {} = 2;", "set {} = 1..2;", "var {} binary;")


@st.composite
def declaration_models(draw):
    """A model declaring some of the names a, b and c, each by one of
    DECLARATION_TEXTS, as a name -> statement text dict."""
    names = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
    return {name: draw(st.sampled_from(DECLARATION_TEXTS)).format(name) for name in names}


@settings(max_examples=200, deadline=None)
@given(declaration_models(), declaration_models())
def test_two_models_share_equal_declarations_and_conflict_on_different_ones(first, second):
    graph = ingest_source(" ".join(first.values()))
    after_first = kg.save(graph)
    differ = any(first[name] != text for name, text in second.items() if name in first)
    if differ:
        with pytest.raises(ConflictingEntity):
            kg.ingest_model(md.parse_model(" ".join(second.values())), graph)
        assert kg.save(graph) == after_first
    else:
        kg.ingest_model(md.parse_model(" ".join(second.values())), graph)
        assert graph == ingest_source(" ".join({**first, **second}.values()))


def test_ingest_undeclared_reference_becomes_inferred_parameter():
    graph = ingest_source("set T = 1..3; var y{T} binary; con c{t in T}: y[t] <= B13[t-1];")
    ent = graph.entity("B13")
    assert ent.kind == kg.PARAMETER
    assert ent.fields.get("inferred") is True
    assert ("c", "B13", kg.USED_IN) in edge_set(graph)


def test_ingest_concept_cards_and_relations():
    graph = kg.KnowledgeGraph()
    cards = [
        kg.ConceptCard(name="incentive price", kind=kg.PARAMETER, snippet="rate paid"),
        kg.ConceptCard(
            name="event",
            kind=kg.AUXILIARY_RULE,
            snippet="window",
            relations=(("depends_on", "incentive price"),),
        ),
    ]
    kg.ingest_concept_cards(cards, graph)
    assert list(graph.entities) == ["paper:incentive price", "paper:event"]
    assert graph.entity("paper:incentive price").source == kg.SOURCE_PAPER
    assert ("paper:event", "paper:incentive price", kg.DEPENDS_ON) in edge_set(graph)


def test_ingest_concept_cards_dangling_relation():
    graph = kg.KnowledgeGraph()
    cards = [
        kg.ConceptCard(
            name="event", kind=kg.CONCEPT, relations=(("used_in", "missing"),)
        )
    ]
    with pytest.raises(DanglingRelation):
        kg.ingest_concept_cards(cards, graph)
    # The card before the dangling one is not left behind.
    graph = ingest_source("set T = 1..2;")
    before = kg.save(graph)
    with pytest.raises(DanglingRelation):
        kg.ingest_concept_cards([kg.ConceptCard(name="a", kind=kg.CONCEPT), *cards], graph)
    assert kg.save(graph) == before


def test_ingest_empty_card_list_is_identity():
    graph = ingest_source("set T = 1..2;")
    before = kg.save(graph)
    kg.ingest_concept_cards([], graph)
    assert kg.save(graph) == before


def test_one_card_named_twice_with_different_snippets_raises():
    cards = [kg.ConceptCard(name="event", kind=kg.CONCEPT, snippet=snippet) for snippet in ("window", "rate")]
    with pytest.raises(ConflictingEntity):
        kg.ingest_concept_cards(cards, kg.KnowledgeGraph())
    # Neither the card before them nor the first of them is left behind.
    graph = ingest_source("set T = 1..2;")
    before = kg.save(graph)
    with pytest.raises(ConflictingEntity):
        kg.ingest_concept_cards([kg.ConceptCard(name="a", kind=kg.CONCEPT), *cards], graph)
    assert kg.save(graph) == before


def test_merge_graphs_conflict_leaves_the_destination_unchanged():
    dst = ingest_source("param q = 1; param r = 2;")
    before = kg.save(dst)
    with pytest.raises(ConflictingEntity):
        corpus.merge_graphs(dst, ingest_source("param a = 1; param q = 2;"))
    assert kg.save(dst) == before


def test_align_by_hint():
    graph = ingest_source("param m11Power = 2;")
    kg.ingest_concept_cards(
        [kg.ConceptCard(name="machine power", kind=kg.PARAMETER, solver_symbol_hint="m11Power")],
        graph,
    )
    result = kg.align(graph)
    assert [(e.src, e.dst) for e in result.edges] == [("paper:machine power", "m11Power")]
    assert result.ambiguities == ()


def test_align_ambiguity_produces_report_and_no_edge():
    # Both code names normalize to "mpower", so the hintless card is ambiguous.
    graph = ingest_source("param mPower = 2; param m_Power = 3;")
    kg.ingest_concept_cards([kg.ConceptCard(name="M power", kind=kg.PARAMETER)], graph)
    result = kg.align(graph)
    assert result.edges == ()
    assert len(result.ambiguities) == 1
    paper_id, candidates = result.ambiguities[0]
    assert paper_id == "paper:M power"
    assert candidates == ("mPower", "m_Power")


def test_align_never_links_ambiguous_matches_property():
    rng = random.Random(60)
    for _ in range(100):
        graph = kg.KnowledgeGraph()
        stem = rng.choice(["flow", "powerCap", "rate"])
        n_collisions = rng.randint(1, 3)
        variants = [stem, f"{stem.upper()}", f"{stem}_", f"_{stem}"][:n_collisions]
        for i, variant in enumerate(variants):
            graph.add_entity(
                kg.Entity(id=f"c{i}", kind=kg.PARAMETER, name=variant,
                          fields={"solver_symbol": f"c{i}"})
            )
        kg.ingest_concept_cards(
            [kg.ConceptCard(name=stem.lower(), kind=kg.PARAMETER)], graph
        )
        result = kg.align(graph)
        aligned_targets = {e.dst for e in result.edges}
        if n_collisions == 1:
            assert aligned_targets == {"c0"}
        else:
            assert result.edges == ()
            assert len(result.ambiguities) == 1
            assert len(result.ambiguities[0][1]) == n_collisions


def test_align_no_paper_entities_is_empty():
    graph = ingest_source("param m11Power = 2;")
    result = kg.align(graph)
    assert result.edges == () and result.ambiguities == ()


def test_normalize_name():
    assert kg.normalize_name("B_ref") == "bref"
    assert kg.normalize_name("machine power") == "machinepower"
    assert kg.normalize_name("LoadReduction") == "loadreduction"


@settings(max_examples=2000, deadline=None)
@given(st.text())
def test_normalize_name_fast_path_equals_the_character_join(name):
    assert kg.normalize_name(name) == "".join(ch for ch in name.casefold() if ch.isalnum())


def test_split_name_tokens_camel_case_digits_and_all_caps():
    assert kg.split_name_tokens("loadReduction") == ("load", "reduction")
    assert kg.split_name_tokens("deltaLmin") == ("delta", "lmin")
    assert kg.split_name_tokens("B13") == ("b13",)
    assert kg.split_name_tokens("m01") == ("m01",)
    assert kg.split_name_tokens("B_ref") == ("b", "ref")
    assert kg.split_name_tokens("WORKCENTERS") == ("workcenters",)
    assert kg.split_name_tokens("OPS") == ("ops",)
    assert kg.split_name_tokens("machine m01") == ("machine", "m01")
    # Digits join only the letters they touch.
    assert kg.split_name_tokens("seq_1_2_1") == ("seq", "1", "2", "1")
    assert kg.split_name_tokens("OPS_2") == ("ops", "2")


# Identifiers whose "_"-separated parts are each letters of one case followed
# by digits: seq_1_2_1, B13, m01, OPS_2.
ONE_CASE_PARTS = st.lists(
    st.from_regex(r"(?:[a-z]{1,4}|[A-Z]{1,4})?[0-9]{0,3}", fullmatch=True).filter(bool), min_size=1, max_size=4
).map("_".join)


@settings(max_examples=300, deadline=None)
@given(ONE_CASE_PARTS)
def test_split_name_tokens_equals_the_query_tokens_of_the_name(name):
    assert kg.split_name_tokens(name) == tuple(t for t, _start, _end in retrieval._tokens_with_spans(name))


def _find_by_name_scan(graph, name):
    hits = [
        ent
        for ent in graph.entities.values()
        if ent.name == name or ent.fields.get("solver_symbol") == name
    ]
    hits.sort(key=lambda e: (e.source != kg.SOURCE_CODE, e.id))
    return hits


def test_find_by_name_matches_a_scan_of_every_entity():
    rng = random.Random(5)
    names = ["alpha", "beta", "gamma", "alpha beta"]
    for _ in range(200):
        graph = kg.KnowledgeGraph()
        for i in range(rng.randint(0, 8)):
            source = rng.choice(kg.SOURCES)
            fields = {}
            if rng.random() < 0.6:
                fields["solver_symbol"] = rng.choice(names)
            graph.add_entity(
                kg.Entity(id=f"e{i}", kind=kg.PARAMETER, name=rng.choice(names),
                          fields=fields, source=source)
            )
        for name in names + ["delta"]:
            assert graph.find_by_name(name) == _find_by_name_scan(graph, name)


def test_neighbors_sorted_and_filtered():
    graph = ingest_source(LISTING_STYLE)
    assert graph.neighbors("c", {kg.USED_IN}, "out") == ["B13", "y"]
    assert graph.neighbors("c", set(), "out") == []
    assert graph.neighbors("T", {kg.DEPENDS_ON}, "in") == ["B13", "c", "y"]
    with pytest.raises(UnknownEntity):
        graph.neighbors("nope", {kg.USED_IN}, "out")


def test_editing_a_neighbors_list_leaves_the_kept_answer():
    graph = ingest_source(LISTING_STYLE)
    for direction, entity_id in (("out", "c"), ("in", "T")):
        first = graph.neighbors(entity_id, kg.EXEC_KINDS, direction)
        expected = list(first)
        first.append("ghost")
        first.reverse()
        assert graph.neighbors(entity_id, kg.EXEC_KINDS, direction) == expected


@pytest.mark.parametrize("n, total, filters", [
    (0, 0, False), (1, 1, False), (2, 2, True), (2, 3, False),
    (3, 4, True), (3, 5, False), (4, 8, True), (4, 9, False), (1093, 1102, True), (5, 11_500, False),
])
def test_filter_beats_sort_exactly_when_n_log2_n_reaches_the_total(n, total, filters):
    assert kg.filter_beats_sort(n, total) is filters


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 80), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_in_kept_order_filters_or_sorts_to_the_same_order(total, seed, filters, data):
    graph = random_graph(random.Random(seed), total)
    # The smallest member count that filters; one fewer sorts.
    n = next(n for n in itertools.count(2) if n * math.log2(n) >= total) - (not filters)
    assert kg.filter_beats_sort(n, total) is filters
    members = frozenset(
        data.draw(st.lists(st.sampled_from(graph.sorted_ids()), min_size=n, max_size=n, unique=True))
    )
    rank = graph.rank()
    for order, position in ((graph.sorted_ids(), None), (rank, rank.__getitem__)):
        assert kg.in_kept_order(members, order, position) == sorted(members, key=position)


def test_edges_from_is_sorted_and_sees_an_edge_added_after_a_read():
    def sorted_reference(graph, entity_id):
        return sorted(
            (e for e in graph.edges if e.src == entity_id), key=lambda e: (e.dst, e.kind)
        )

    rng = random.Random(31)
    graph = random_graph(rng, 12)
    ids = graph.sorted_ids()
    for _ in range(60):
        src, dst = rng.sample(ids, 2)
        assert list(graph.edges_from(src)) == sorted_reference(graph, src)
        edge = graph.add_edge(src, dst, rng.choice(kg.EDGE_KINDS))
        assert edge in graph.edges_from(src)
        for entity_id in ids:
            assert list(graph.edges_from(entity_id)) == sorted_reference(graph, entity_id)
    assert graph.edges_from("ghost") == ()


def test_self_loop_and_dangling_edges_rejected():
    graph = ingest_source("set T = 1..2;")
    with pytest.raises(SchemaViolation):
        graph.add_edge("T", "T", kg.DEPENDS_ON)
    with pytest.raises(UnknownEntity):
        graph.add_edge("T", "ghost", kg.USED_IN)


# Batches over the ids a, b and c: a repeated id may carry other fields or
# another kind, and an edge may name an absent id or loop.
BATCH_IDS = st.sampled_from("abc")
BATCH_ENTITIES = st.builds(
    lambda entity_id, kind, value: kg.Entity(entity_id, kind, entity_id, fields={"v": value}),
    BATCH_IDS, st.sampled_from((kg.PARAMETER, kg.CONCEPT)), st.integers(0, 1),
)
BATCH_EDGES = st.builds(kg.Edge, BATCH_IDS, BATCH_IDS, st.sampled_from(kg.EDGE_KINDS))
NEIGHBOR_KINDS = (kg.EXEC_KINDS, frozenset(kg.EDGE_KINDS))


def insert_one_at_a_time(entities, edges, held_entities=(), held_edges=()):
    """The batch rules applied one item at a time to a plain dict and set:
    the entities by id and the edges they give, or the class of the first
    error, written out apart from KnowledgeGraph."""
    by_id = {entity.id: entity for entity in held_entities}
    edge_set = set(held_edges)
    for entity in entities:
        if by_id.setdefault(entity.id, entity) != entity:
            return ConflictingEntity
    for edge in edges:
        if edge.src not in by_id or edge.dst not in by_id:
            return UnknownEntity
        if edge.src == edge.dst:
            return SchemaViolation
        edge_set.add(edge)
    return by_id, edge_set


@settings(max_examples=300, deadline=None)
@given(st.lists(BATCH_ENTITIES, max_size=3, unique_by=lambda entity: entity.id),
       st.lists(BATCH_EDGES, max_size=3),
       st.lists(BATCH_ENTITIES, max_size=4),
       st.lists(BATCH_EDGES, max_size=4))
def test_add_all_changes_nothing_or_matches_one_at_a_time_inserts(held, held_edges, entities, edges):
    held_ids = {entity.id for entity in held}
    held_edges = [e for e in held_edges if e.src != e.dst and {e.src, e.dst} <= held_ids]
    graph = kg.KnowledgeGraph()
    graph.add_all(held, held_edges)
    # Warm every kept table, so a stale one would show below.
    graph.sorted_ids(), graph.rank(), graph.names(), graph.in_id_order(held_ids)
    for entity_id, kinds, direction in itertools.product(held_ids, NEIGHBOR_KINDS, ("in", "out")):
        graph.exec_out(entity_id), graph.neighbors(entity_id, kinds, direction)
    before = kg.save(graph)
    expected = insert_one_at_a_time(entities, edges, held, held_edges)
    try:
        graph.add_all(iter(entities), iter(edges))
    except ClosureKbError as exc:
        assert type(exc) is expected
        assert kg.save(graph) == before
        return
    assert (graph.entities, set(graph.edges)) == expected
    one_by_one = kg.KnowledgeGraph()
    for entity in (*held, *entities):
        one_by_one.add_entity(entity)
    for edge in (*held_edges, *edges):
        one_by_one.add_edge(edge.src, edge.dst, edge.kind)
    assert graph == one_by_one
    assert list(graph.sorted_ids()) == sorted(graph.entities)
    fresh = kg.load(kg.save(graph))
    assert graph.rank() == fresh.rank()
    assert graph.in_id_order(set(fresh.entities)) == list(fresh.sorted_ids())
    for entity_id in fresh.entities:
        assert graph.exec_out(entity_id) == fresh.exec_out(entity_id)
        assert graph.find_by_name(entity_id) == fresh.find_by_name(entity_id)
        for kinds, direction in itertools.product(NEIGHBOR_KINDS, ("in", "out")):
            assert graph.neighbors(entity_id, kinds, direction) == fresh.neighbors(entity_id, kinds, direction)


def test_frozen_graph_rejects_writes():
    graph = ingest_source("set T = 1..2;")
    graph.freeze()
    with pytest.raises(FrozenGraphError):
        graph.add_entity(kg.Entity(id="x", kind=kg.PARAMETER, name="x"))


# --- Persistence ----------------------------------------------------------------

def test_save_load_round_trip_listing_graph():
    graph = ingest_source(LISTING_STYLE)
    assert kg.load(kg.save(graph)) == graph


def test_save_load_round_trip_empty_graph():
    graph = kg.KnowledgeGraph()
    assert kg.load(kg.save(graph)) == graph


def test_load_rejects_unknown_kind():
    doc = kg.save(ingest_source("set T = 1..2;"))
    doc["entities"][0]["kind"] = "variabel"
    with pytest.raises(SchemaViolation):
        kg.load(doc)


def test_load_rejects_unknown_top_level_key():
    doc = kg.save(kg.KnowledgeGraph())
    doc["extra"] = 1
    with pytest.raises(SchemaViolation):
        kg.load(doc)


def test_load_rejects_missing_key_and_bad_edge():
    doc = kg.save(kg.KnowledgeGraph())
    del doc["edges"]
    with pytest.raises(SchemaViolation):
        kg.load(doc)
    doc2 = kg.save(ingest_source("set T = 1..2;"))
    doc2["edges"] = [{"src": "T", "dst": "ghost", "kind": "used_in"}]
    with pytest.raises(SchemaViolation):
        kg.load(doc2)


def random_graph(rng: random.Random, n_entities: int) -> kg.KnowledgeGraph:
    graph = kg.KnowledgeGraph()
    kinds = list(kg.ENTITY_KINDS)
    for i in range(n_entities):
        source = rng.choice(kg.SOURCES)
        fields = {"weight": rng.randint(0, 9)}
        if source == kg.SOURCE_CODE:
            fields["solver_symbol"] = f"sym{i}"
        if rng.random() < 0.3:
            fields["tags"] = [rng.choice("abc") for _ in range(rng.randint(0, 3))]
        graph.add_entity(
            kg.Entity(
                id=f"e{i:03d}",
                kind=rng.choice(kinds),
                name=f"entity {i}",
                description=rng.choice(["", "a note", "longer description here"]),
                fields=fields,
                source=source,
            )
        )
    ids = graph.sorted_ids()
    for _ in range(rng.randint(0, n_entities * 2)):
        src, dst = rng.sample(ids, 2)
        graph.add_edge(src, dst, rng.choice(kg.EDGE_KINDS))
    return graph


def test_save_load_lossless_on_random_graphs_up_to_200_entities():
    rng = random.Random(77)
    for _ in range(20):
        graph = random_graph(rng, rng.randint(1, 200))
        loaded = kg.load(kg.save(graph))
        assert loaded == graph
        assert kg.save(loaded) == kg.save(graph)


def test_ingest_model_of_a_1500_term_sum_stores_its_text():
    source = "var x continuous; con c: " + " + ".join(["x"] * 1500) + " <= 1;"
    graph = ingest_source(source)
    assert graph.entity("c").fields["expression"] == source[len("var x continuous; "):]
    assert edge_set(graph) == {("c", "x", kg.USED_IN)}


def entity_record(entity_id, name=None):
    return {"id": entity_id, "kind": "parameter", "name": entity_id if name is None else name,
            "description": "", "source": "paper", "fields": {}}


# A graph whose subgraph line would not read back: `budget -used_in-> cap,
# rate, rate, cap` has four targets for three edges.
UNREADABLE_DOCUMENT = {
    "version": 1,
    "entities": [entity_record(entity_id) for entity_id in ("budget", "rate, cap", "rate", "cap")],
    "edges": [{"src": "budget", "dst": dst, "kind": "used_in"} for dst in ("rate, cap", "rate", "cap")],
}


@pytest.mark.parametrize("document", [
    {"version": 1, "entities": None, "edges": []},
    {"version": 1, "entities": [], "edges": None},
    {"version": 1, "entities": {}, "edges": []},
    {"version": 1, "entities": [{"id": 1, "kind": "concept", "name": "n", "description": "",
                                 "source": "paper", "fields": {}}], "edges": []},
    {"version": 1, "entities": [{"id": ["a"], "kind": "concept", "name": "n", "description": "",
                                 "source": "paper", "fields": {}}], "edges": []},
    {"version": 1, "entities": [], "edges": [{"src": ["a"], "dst": "b", "kind": "used_in"}]},
    {"version": 1, "entities": [{"id": "a", "kind": "concept", "name": "n", "description": 5,
                                 "source": "paper", "fields": {}}], "edges": []},
    {"version": 1, "entities": [{"id": "a", "kind": "concept", "name": "n", "description": "",
                                 "source": "paper", "fields": {"snippet": ["text"]}}], "edges": []},
    {"version": 1, "entities": [{"id": "a", "kind": "concept", "name": None, "description": "",
                                 "source": "paper", "fields": {}}], "edges": []},
    {"version": 1, "entities": [], "edges": [{"src": "a", "dst": "b", "kind": "bogus"}]},
    {"version": 1, "entities": [], "edges": [{"src": "a", "dst": "b", "kind": ["used_in"]}]},
    {"version": True, "entities": [], "edges": []},
    {"version": 1.0, "entities": [], "edges": []},
    UNREADABLE_DOCUMENT,
    {"version": 1, "entities": [entity_record("rate->cap")], "edges": []},
    {"version": 1, "entities": [entity_record("rate", "rate, cap")], "edges": []},
    {"version": 1, "entities": [entity_record("rate", "rate -used_in-> cap")], "edges": []},
    {"version": 1, "entities": [entity_record("paper:bud\nget")], "edges": []},
    {"version": 1, "entities": [entity_record("paper:bud : get")], "edges": []},
    {"version": 1, "entities": [entity_record("rate", "rate\u2028DEPENDENCY SUBGRAPH")], "edges": []},
    {"version": 1, "entities": [entity_record("rate", "rate : cap")], "edges": []},
    {"version": 1, "entities": [{**entity_record("rate"), "fields": {"solver_symbol_hint": "b : c"}}], "edges": []},
    {"version": 1, "entities": [{**entity_record("rate"), "fields": {"solver_symbol": "b\x85c"}}], "edges": []},
    {"version": 1, "entities": [{**entity_record("S"), "kind": "index_set", "source": "code",
                                 "fields": {"members": ["a : b", "c\nTYPED ENTITIES"]}}], "edges": []},
    {"version": 1, "entities": [{**entity_record("p"), "source": "code",
                                 "fields": {"index_sets": ["S : x"]}}], "edges": []},
], ids=["entities-null", "edges-null", "entities-object", "int-id", "list-id", "list-src",
        "int-description", "list-snippet", "null-name", "unknown-edge-kind", "list-edge-kind",
        "true-version", "float-version", "comma-id", "arrow-id", "comma-name", "arrow-name",
        "line-break-id", "colon-id", "line-break-name", "colon-name", "colon-hint", "line-break-symbol",
        "set-member-not-a-name", "index-set-not-a-name"])
def test_load_rejects_malformed_documents_with_schema_violation(document):
    with pytest.raises(SchemaViolation):
        kg.load(document)


def test_check_listable_refuses_exactly_the_line_breaks_splitlines_splits_at():
    refused = set()
    for char in map(chr, range(sys.maxunicode + 1)):
        try:
            kg.check_listable("name", f"a{char}b")
        except SchemaViolation:
            refused.add(char)
    line_breaks = {char for char in map(chr, range(sys.maxunicode + 1)) if len(f"a{char}b".splitlines()) > 1}
    assert refused == line_breaks | {","}
    for text in ("load reduction", "a:b", "a: b", "a :b", "a - b", "a>b", "paper:p 03", ""):
        kg.check_listable("name", text)
    for text in ("a, b", "a,b", "a->b", "a : b", "x :", ": x", ":", "a\r\nb", "a\n"):
        with pytest.raises(SchemaViolation, match="holds ',', '->', ' : ' or a line break"):
            kg.check_listable("name", text)


# Cards whose subgraph line would not read back: `paper:budget -used_in->
# paper:cap, paper:rate, paper:rate, cap` has four targets for three edges.
UNREADABLE_CARDS = [
    {"name": "budget", "kind": "parameter",
     "relations": [["used_in", "rate, cap"], ["used_in", "rate"], ["used_in", "cap"]]},
    {"name": "rate, cap", "kind": "parameter"},
    {"name": "rate", "kind": "parameter"},
    {"name": "cap", "kind": "parameter"},
]


@pytest.mark.parametrize("document", [
    [None],
    [{"kind": "concept"}],
    [{"name": "n"}],
    [{"name": 3, "kind": "concept"}],
    [{"name": "n", "kind": "concept", "relations": [["x"]]}],
    [{"name": "n", "kind": "concept", "relations": "depends_on"}],
    [{"name": "n", "kind": "concept", "snippet": ["text"]}],
    UNREADABLE_CARDS,
    [{"name": "rate -used_in-> cap", "kind": "parameter"}],
    [{"name": "rate\nDEPENDENCY SUBGRAPH", "kind": "parameter"}],
    [{"name": "rate : cap", "kind": "parameter"}],
    [{"name": "budget", "kind": "parameter", "solver_symbol_hint": "b : c"}],
    [{"name": "budget", "kind": "parameter", "solver_symbol_hint": "b\rc"}],
    [{"name": "budget", "kind": "parameter", "solver_symbol_hint": "b, c"}],
], ids=["null-card", "no-name", "no-kind", "int-name", "one-part-relation",
        "string-relations", "list-snippet", "comma-name", "arrow-name", "line-break-name",
        "colon-name", "colon-hint", "line-break-hint", "comma-hint"])
def test_cards_from_json_rejects_malformed_cards_with_schema_violation(document):
    with pytest.raises(SchemaViolation):
        kg.cards_from_json(document)


def test_cards_from_json_reads_cards_to_json():
    cards = [
        kg.ConceptCard("a", kg.CONCEPT, snippet="s", solver_symbol_hint="x"),
        kg.ConceptCard("b", kg.CONSTRAINT, "d", relations=(("depends_on", "a"),)),
    ]
    assert kg.cards_from_json(json.loads(json.dumps(kg.cards_to_json(cards)))) == cards


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def json_documents(keys=(), words=()):
    """JSON documents a few levels deep: objects keyed mostly by `keys`,
    strings drawn from `words` or short text, and numbers that include
    integers past the float range and non-finite floats."""
    names = st.sampled_from(keys) | st.text(max_size=3) if keys else st.text(max_size=3)
    strings = st.sampled_from(words) | st.text(max_size=4) if words else st.text(max_size=4)
    scalars = st.none() | st.booleans() | st.integers(-2, 5) | st.integers(-10**400, 10**400) | st.floats() | strings
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=4),
        max_leaves=12,
    )


def shaped(valid):
    """Mostly a valid value, sometimes any JSON value."""
    return st.one_of(valid, valid, JSON_VALUES)


ENTITY_RECORDS = st.fixed_dictionaries({
    "id": shaped(st.sampled_from(["a", "b", "c"])),
    "kind": shaped(st.sampled_from(kg.ENTITY_KINDS)),
    "name": shaped(st.text(max_size=6)),
    "description": shaped(st.text(max_size=6)),
    "source": shaped(st.sampled_from(kg.SOURCES)),
    "fields": shaped(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3)),
})
EDGE_RECORDS = st.fixed_dictionaries({
    "src": shaped(st.sampled_from(["a", "b", "c"])),
    "dst": shaped(st.sampled_from(["a", "b", "c"])),
    "kind": shaped(st.sampled_from(kg.EDGE_KINDS)),
})
DOCUMENTS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({
        "version": shaped(st.just(1)),
        "entities": shaped(st.lists(shaped(ENTITY_RECORDS), max_size=4)),
        "edges": shaped(st.lists(shaped(EDGE_RECORDS), max_size=4)),
    }),
)
CARD_RECORDS = st.fixed_dictionaries({}, optional={
    "name": shaped(st.sampled_from(["a", "b", ""])),
    "kind": shaped(st.sampled_from(kg.ENTITY_KINDS)),
    "description": shaped(st.text(max_size=6)),
    "solver_symbol_hint": shaped(st.none() | st.text(max_size=3)),
    "snippet": shaped(st.text(max_size=6)),
    "relations": shaped(st.lists(
        shaped(st.tuples(st.sampled_from([kg.USED_IN, kg.DEPENDS_ON]), st.sampled_from("ab")).map(list)),
        max_size=3,
    )),
})


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_load_raises_only_closurekb_errors(document):
    try:
        graph = kg.load(document)
    except ClosureKbError:
        return
    assert all(isinstance(entity_id, str) for entity_id in graph.entities)
    assert kg.load(kg.save(graph)) == graph
    # A loaded graph indexes and answers queries without a stray exception.
    index = retrieval.index_snippets(graph)
    retrieval.semantic_search(index, "a b c", 5)
    retrieval.understand_query("explain a and generate code", graph)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES | st.lists(shaped(CARD_RECORDS), max_size=4))
def test_cards_from_json_raises_only_closurekb_errors(document):
    try:
        cards = kg.cards_from_json(document)
        kg.ingest_concept_cards(cards, kg.KnowledgeGraph())
    except ClosureKbError:
        pass


def nested_json(depth: int, opening="[", closing="]") -> str:
    return opening * depth + closing * depth


def call_at_depth(frames: int, function, *args):
    """function(*args), called from `frames` more frames down the stack."""
    if frames == 0:
        return function(*args)
    return call_at_depth(frames - 1, function, *args)


@pytest.mark.parametrize("frames", [0, 400], ids=["shallow-caller", "caller-400-frames-deep"])
def test_read_json_loads_a_document_at_the_depth_bound(tmp_path, frames):
    path = tmp_path / "nested.json"
    path.write_text(nested_json(kg.MAX_JSON_DEPTH), encoding="utf-8")
    document = call_at_depth(frames, kg.read_json, path)
    for _level in range(kg.MAX_JSON_DEPTH - 1):
        document = document[0]
    assert document == []


@pytest.mark.parametrize("frames", [0, 400], ids=["shallow-caller", "caller-400-frames-deep"])
@pytest.mark.parametrize("text", [
    nested_json(kg.MAX_JSON_DEPTH + 1),
    "[" + nested_json(kg.MAX_JSON_DEPTH // 2, '{"k": [', "]}") + "]",
    "[" * 100000,
], ids=["arrays-one-past", "objects-and-arrays-one-past", "unclosed-100000"])
def test_read_json_refuses_a_document_past_the_depth_bound(tmp_path, frames, text):
    path = tmp_path / "nested.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaViolation, match=f"JSON nested more than {kg.MAX_JSON_DEPTH} deep"):
        call_at_depth(frames, kg.read_json, path)


def test_json_depth_counts_nested_arrays_and_objects():
    assert kg.json_depth(1) == kg.json_depth("[[") == 0
    assert kg.json_depth([]) == kg.json_depth({}) == 1
    assert kg.json_depth(json.loads('[1, {"a": "[[[", "b": [{}, []]}, []]')) == 4
    document = []
    for _level in range(2999):
        document = [7, document]
    assert kg.json_depth(document) == 3000


@pytest.mark.parametrize("name", ["deep.kg.json", "deep.cards.json", "deep.battery.json"])
@pytest.mark.parametrize("content", [b"[" * 100000 + b"]" * 100000, b"{", b'{"x": "\xff"}'],
                         ids=["nested-100000-deep", "not-json", "not-utf8"])
def test_ingest_corpus_of_unreadable_json_raises_schema_violation(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(SchemaViolation, match=name):
        corpus.ingest_corpus([path])


@st.composite
def graphs(draw):
    graph = kg.KnowledgeGraph()
    for entity_id in draw(st.lists(st.text(max_size=6), unique=True, max_size=8)):
        graph.add_entity(kg.Entity(
            id=entity_id,
            kind=draw(st.sampled_from(kg.ENTITY_KINDS)),
            name=draw(st.text(max_size=6)),
            description=draw(st.text(max_size=6)),
            fields=draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3)),
            source=draw(st.sampled_from(kg.SOURCES)),
        ))
    ids = graph.sorted_ids()
    if len(ids) >= 2:
        for src, dst, kind in draw(st.lists(st.tuples(
            st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(kg.EDGE_KINDS)
        ), max_size=12)):
            if src != dst:
                graph.add_edge(src, dst, kind)
    return graph


def unlistable(text) -> bool:
    """Whether a package line holding `text` would not read back: it holds
    ',' or '->', it holds ' : ' once written between two spaces, or
    str.splitlines splits it."""
    return "," in text or "->" in text or " : " in f" {text} " or len(f"a{text}b".splitlines()) > 1


def symbol_texts(entity):
    """The entity's id, name and the solver symbol fields it holds as text."""
    fields = [entity.fields.get(key) for key in ("solver_symbol", "solver_symbol_hint")]
    return [entity.id, entity.name, *(text for text in fields if isinstance(text, str))]


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_load_of_saved_json_equals_the_graph(graph):
    document = json.loads(json.dumps(kg.save(graph)))
    try:
        for entity in graph.entities.values():
            kg.declaration(entity)
            if any(map(unlistable, symbol_texts(entity))):
                raise SchemaViolation("an id, name or symbol that would not read back in a package")
    except SchemaViolation:
        # A code entity whose declaration fields are malformed does not load,
        # nor does an entity whose id, name or symbol holds ',', '->', ' : '
        # or a line break.
        with pytest.raises(SchemaViolation):
            kg.load(document)
        return
    assert kg.load(document) == graph
