"""Query understanding, semantic index, and stream fusion tests."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import corpus, fjsp
from closurekb import knowledge_graph as kg
from closurekb import retrieval as rt
from closurekb.closure import closure
from closurekb.errors import EmptyQuery, UnknownEntity

from test_knowledge_graph import random_graph


def entity(graph, entity_id, kind=kg.PARAMETER, name=None, description="", source=kg.SOURCE_CODE,
           fields=None):
    fields = dict(fields or {})
    if source == kg.SOURCE_CODE:
        fields.setdefault("solver_symbol", entity_id)
    graph.add_entity(
        kg.Entity(id=entity_id, kind=kind, name=name or entity_id,
                  description=description, fields=fields, source=source)
    )


def empty_graph():
    return kg.KnowledgeGraph()


@pytest.fixture(scope="module")
def battery_graph(tmp_path_factory):
    """The battery corpus graph, cards included: 6 slots per hour, 144 slots."""
    files = corpus.write_battery_corpus(tmp_path_factory.mktemp("battery"))
    return corpus.ingest_corpus([str(path) for path in files[:2]])[0]


# --- Intents -----------------------------------------------------------------

def test_intent_add_constraint():
    parsed = rt.understand_query("Add a load-reduction constraint for the event", empty_graph())
    assert parsed.intents == (rt.ADD_CONSTRAINT,)


def test_intents_ordered_by_first_keyword_position():
    parsed = rt.understand_query(
        "explain the constraints of machine m01 and generate corresponding LINGO code",
        empty_graph(),
    )
    assert parsed.intents == (rt.EXPLAIN_CONSTRAINT, rt.GENERATE_MODEL)


def test_intent_modify_objective_needs_both_groups():
    parsed = rt.understand_query("modify the objective with the incentive reward", empty_graph())
    assert rt.MODIFY_OBJECTIVE in parsed.intents
    parsed2 = rt.understand_query("modify the schedule please", empty_graph())
    assert rt.MODIFY_OBJECTIVE not in parsed2.intents


def test_intent_triggers_match_whole_words_only():
    parsed = rt.understand_query("the address carries additional constraints", empty_graph())
    assert parsed.intents == (rt.UNKNOWN,)


def test_intent_parameter_query_phrase():
    parsed = rt.understand_query("what is the incentive rate", empty_graph())
    assert rt.PARAMETER_QUERY in parsed.intents


def test_unknown_fallback_and_empty_query():
    parsed = rt.understand_query("zzzz qqqq", empty_graph())
    assert parsed.intents == (rt.UNKNOWN,)
    assert parsed.entities == ()
    with pytest.raises(EmptyQuery):
        rt.understand_query("   ", empty_graph())


# --- Entity extraction -------------------------------------------------------

def test_name_match_resolves_camel_case_against_hyphenated_surface():
    graph = empty_graph()
    entity(graph, "loadReduction", kind=kg.CONSTRAINT)
    parsed = rt.understand_query("Add a load-reduction constraint", graph)
    matches = [e for e in parsed.entities if e.kind == rt.NAME_MATCH]
    assert [(e.surface, e.entity_id) for e in matches] == [("load-reduction", "loadReduction")]


def test_name_match_prefers_code_over_overlapping_paper_match():
    graph = empty_graph()
    entity(graph, "m01", kind=kg.DECISION_VARIABLE)
    entity(graph, "paper:machine m01", kind=kg.DECISION_VARIABLE, name="machine m01",
           source=kg.SOURCE_PAPER)
    parsed = rt.understand_query("explain the constraints of machine m01", graph)
    ids = [e.entity_id for e in parsed.entities if e.kind == rt.NAME_MATCH]
    assert ids == ["m01"]


def test_name_match_takes_longest_when_sources_tie():
    graph = empty_graph()
    entity(graph, "price", name="price")
    entity(graph, "incentivePrice", name="incentive price")
    parsed = rt.understand_query("what is the incentive price", graph)
    ids = [e.entity_id for e in parsed.entities if e.kind == rt.NAME_MATCH]
    assert ids == ["incentivePrice"]


def fjsp_graph():
    instance = fjsp.parse_fjs("2 1\n1 1 1 3\n1 1 1 4\n")
    ast = fjsp.build_fjsp_model(instance)
    graph = empty_graph()
    kg.ingest_model(ast, graph)
    kg.ingest_concept_cards(fjsp.fjsp_terminology_cards(), graph)
    kg.align(graph)
    return graph.freeze()


def test_entity_named_twice_is_extracted_at_its_first_mention(battery_graph):
    parsed = rt.understand_query("explain machine m01, then machine m01 again", battery_graph)
    assert [(e.surface, e.entity_id) for e in parsed.entities] == [
        ("m01", "m01"),
        ("machine m01", "paper:machine m01"),
    ]


def test_all_caps_name_resolves_as_one_word():
    graph = fjsp_graph()
    parsed = rt.understand_query("explain the constraints of WORKCENTERS", graph)
    assert parsed.resolved_ids() == ["paper:WORKCENTERS"]
    assert "M" in rt.structural_retrieve(graph, rt.select_seeds(parsed, graph))


def test_entity_added_after_a_query_is_matched_by_the_next():
    graph = chain_graph()
    query = "add the budget cap constraint"
    assert rt.understand_query(query, graph).resolved_ids() == []
    entity(graph, "budgetCap", kind=kg.CONSTRAINT)
    assert rt.understand_query(query, graph).resolved_ids() == ["budgetCap"]
    assert [e.id for e in graph.find_by_name("budgetCap")] == ["budgetCap"]


def test_numeric_payloads_with_units():
    parsed = rt.understand_query(
        "reduce load by at least 10 kW for 0.54 $/kWh over 2 kWh", empty_graph()
    )
    assert parsed.numeric_payloads == ((10.0, "kW"), (0.54, "$/kWh"), (2.0, "kWh"))


def test_time_window_mapping_uses_slots_per_hour():
    graph = empty_graph()
    entity(graph, "slotsPerHour", fields={"data": 6, "index_sets": []})
    parsed = rt.understand_query("curtail during the 16th hour and hours 16-17", graph)
    windows = [e for e in parsed.entities if e.kind == rt.TIME_WINDOW]
    assert [w.slots for w in windows] == [(91, 96), (91, 102)]


@pytest.mark.parametrize("on_battery, query", [
    (False, "add a constraint in the 0th hour"),
    (False, "add a constraint for hours 20 to 18"),
    (False, "add a constraint for hours 0-2"),
    (False, "add a constraint in the " + "1" * 5000 + "th hour"),
    (True, "add the load reduction constraint for hours 23 to 30"),
    (True, "add the load reduction constraint in the 30th hour"),
    (True, "add the load reduction constraint in the 25th hour"),
], ids=["hour 0", "backwards", "from hour 0", "5000-digit hour",
        "battery hours 23 to 30", "battery 30th hour", "battery 25th hour"])
def test_time_window_that_no_slot_range_can_hold_is_unmapped(battery_graph, on_battery, query):
    if on_battery:
        graph = battery_graph
    else:
        graph = empty_graph()
        entity(graph, "slotsPerHour", fields={"data": 6, "index_sets": []})
    windows = [e for e in rt.understand_query(query, graph).entities if e.kind == rt.TIME_WINDOW]
    assert len(windows) == 1 and windows[0].slots is None


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, 30), last=st.integers(0, 30), nth=st.booleans())
def test_every_mapped_battery_slot_lies_on_the_horizon(battery_graph, first, last, nth):
    window = f"the {first}th hour" if nth else f"hours {first} to {last}"
    parsed = rt.understand_query(f"add the load reduction constraint in {window}", battery_graph)
    (slots,) = [e.slots for e in parsed.entities if e.kind == rt.TIME_WINDOW]
    if nth:
        last = first
    if 1 <= first <= last <= 24:
        assert slots == ((first - 1) * 6 + 1, last * 6)
    else:
        assert slots is None


def test_time_window_unmapped_without_slots_per_hour():
    parsed = rt.understand_query("curtail during the 2nd hour", empty_graph())
    windows = [e for e in parsed.entities if e.kind == rt.TIME_WINDOW]
    assert len(windows) == 1 and windows[0].slots is None


# --- Semantic index ------------------------------------------------------------

def corpus_graph(docs):
    graph = empty_graph()
    for doc_id, text in docs.items():
        entity(graph, doc_id, kind=kg.CONCEPT, description=text, source=kg.SOURCE_PAPER)
    return graph


def test_query_term_ranks_matching_document_first():
    graph = corpus_graph({"a": "the starvation rule for buffers", "b": "price of energy"})
    index = rt.index_snippets(graph)
    hits = rt.semantic_search(index, "starvation", 5)
    assert hits[0][0] == "a"
    assert [h[0] for h in hits] == ["a"]


def test_k_larger_than_corpus_returns_all():
    graph = corpus_graph({"a": "alpha beta", "b": "alpha gamma", "c": "alpha delta"})
    index = rt.index_snippets(graph)
    assert len(rt.semantic_search(index, "alpha", 10)) == 3


def test_identical_documents_tie_broken_by_smaller_id():
    graph = corpus_graph({"b": "same text here", "a": "same text here"})
    index = rt.index_snippets(graph)
    hits = rt.semantic_search(index, "same text", 2)
    assert [h[0] for h in hits] == ["a", "b"]
    assert hits[0][1] == hits[1][1]


def test_index_is_insertion_order_independent():
    docs = {"x": "one two three", "y": "two three four", "z": "three four five"}
    graph1 = corpus_graph(docs)
    graph2 = empty_graph()
    for doc_id in reversed(sorted(docs)):
        entity(graph2, doc_id, kind=kg.CONCEPT, description=docs[doc_id], source=kg.SOURCE_PAPER)
    hits1 = rt.semantic_search(rt.index_snippets(graph1), "three four", 3)
    hits2 = rt.semantic_search(rt.index_snippets(graph2), "three four", 3)
    assert hits1 == hits2


def test_empty_descriptions_are_never_retrieved():
    graph = empty_graph()
    entity(graph, "codeThing", description="")
    index = rt.index_snippets(graph)
    assert rt.semantic_search(index, "codeThing anything", 5) == []


def embed(emb, text):
    """Reference: the dense vector of the text's weights (dimension =
    vocabulary size)."""
    vector = [0.0] * len(emb.vocabulary)
    for slot, weight in emb.weights(text):
        vector[slot] = weight
    return vector


def dense_search(docs, text, k):
    """Reference: dense vectors, a left-to-right dot product, every document scored."""
    doc_ids = sorted(i for i, t in docs.items() if t)
    emb = rt.TfidfEmbedder().fit([docs[i] for i in doc_ids])

    def cosine(a, b):
        dot = 0.0
        for x, y in zip(a, b):
            dot += x * y
        norm_a = math.sqrt(sum(x * x for x in a))
        norm_b = math.sqrt(sum(x * x for x in b))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    query = embed(emb, text)
    scored = [(i, cosine(query, embed(emb, docs[i]))) for i in doc_ids]
    scored = sorted((s for s in scored if s[1] > 0.0), key=lambda item: (-item[1], item[0]))
    return [(i, score.hex()) for i, score in scored[:k]]


_WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta", "rule", "the", "x1", "Cap"])
_TEXT = st.lists(_WORDS, max_size=8).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(
    texts=st.lists(_TEXT, min_size=1, max_size=24),
    picks=st.dictionaries(
        st.sampled_from([f"d{i:02d}" for i in range(24)]), st.integers(0, 23), max_size=24
    ),
    common=st.booleans(),
    query=_TEXT,
    k=st.sampled_from([1, 5, 20]),
)
def test_semantic_search_matches_dense_cosine_bit_for_bit(texts, picks, common, query, k):
    # Documents share texts from a small pool, so equal scores (ties) are
    # common; with `common`, one word is in every document, the lowest-idf
    # term whose bound lets the search stop early.
    docs = {
        doc_id: texts[i % len(texts)] + (" rule" if common else "")
        for doc_id, i in picks.items()
    }
    hits = rt.semantic_search(rt.index_snippets(corpus_graph(docs)), query, k)
    assert [(i, score.hex()) for i, score, _text in hits] == dense_search(docs, query, k)


def full_sort_search(index, text, k):
    """Reference: score every document sharing a query term, then sort them all."""
    query = index.embedder.weights(text)
    query_norm = rt._norm(query)
    dots = {}
    for slot, query_weight in query:
        for doc_id, weight in index.postings.get(slot, {}).items():
            dots[doc_id] = dots.get(doc_id, 0.0) + query_weight * weight
    scored = [(doc_id, dot / (query_norm * index.norms[doc_id])) for doc_id, dot in dots.items()]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [(doc_id, score, index.texts[doc_id]) for doc_id, score in scored[:k]]


def test_semantic_search_equals_full_sort_on_the_kb_scale_graph(benchmark_graphs):
    # The requests, 800 random vocabulary strings and 300 snippet prefixes.
    graph, _seeds, queries = benchmark_graphs["kb-scale"]
    index = rt.index_snippets(graph)
    rng = random.Random(2026)
    vocabulary = index.embedder.vocabulary
    queries = list(queries)
    for _ in range(800):
        queries.append(" ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 6))))
    for _ in range(300):
        text = index.texts[rng.choice(index.doc_ids)]
        queries.append(text[: rng.randint(1, len(text))])
    for query in queries:
        expected = [(i, score.hex()) for i, score, _text in full_sort_search(index, query, 20)]
        for k in (1, 5, 20):
            hits = rt.semantic_search(index, query, k)
            assert [(i, score.hex()) for i, score, _text in hits] == expected[:k], (query, k)


def test_semantic_search_reads_few_postings_and_documents_on_benchmark_requests(benchmark_graphs):
    # Every kb-scale request holds "the", which is in all 2,000 snippets; the
    # planted rare tokens bound the rest, so the walk stops before reaching
    # it and only a few documents are re-scored.
    graph, _seeds, requests = benchmark_graphs["kb-scale"]
    index = rt.index_snippets(graph)
    expected = [full_sort_search(index, request, 5) for request in requests]
    walked = Counter()
    rescored: set[str] = set()

    class CountedPostings(dict):
        def items(self):
            walked["postings"] += len(self)
            return dict.items(self)

        def get(self, doc_id, default=None):
            rescored.add(doc_id)
            return dict.get(self, doc_id, default)

    index.postings = {slot: CountedPostings(p) for slot, p in index.postings.items()}
    for request, hits in zip(requests, expected):
        walked.clear()
        rescored.clear()
        assert rt.semantic_search(index, request, 5) == hits
        assert walked["postings"] < len(index.doc_ids)
        assert 5 <= len(rescored) < len(index.doc_ids) // 20


def test_postings_iterate_in_ascending_doc_id_on_the_kb_scale_graph(benchmark_graphs):
    # The partial scores are built in this order, and ties are kept by it.
    graph, _seeds, _requests = benchmark_graphs["kb-scale"]
    index = rt.index_snippets(graph)
    assert sorted(index.postings) == list(range(len(index.embedder.vocabulary)))
    for posting in index.postings.values():
        doc_ids = list(posting)
        assert doc_ids == sorted(doc_ids)


def test_semantic_search_keeps_a_document_tying_the_stop_bound():
    # After "x", the only unwalked term "y" can add exactly b's partial
    # cosine: the walk must go on, since "a" ties "b" and wins on its id.
    index = rt.index_snippets(corpus_graph({"a": "y", "b": "x"}))
    hits = rt.semantic_search(index, "x y", 1)
    assert hits == full_sort_search(index, "x y", 1)
    assert [h[0] for h in hits] == ["a"]


def test_semantic_search_k_contract():
    index = rt.index_snippets(corpus_graph({"a": "alpha beta", "b": "alpha gamma"}))
    assert rt.semantic_search(index, "alpha", 0) == []
    with pytest.raises(ValueError):
        rt.semantic_search(index, "alpha", -1)
    assert [h[0] for h in rt.semantic_search(index, "alpha", 1)] == ["a"]


# --- Structural stream ---------------------------------------------------------

def chain_graph():
    graph = empty_graph()
    entity(graph, "con1", kind=kg.CONSTRAINT)
    entity(graph, "var1", kind=kg.DECISION_VARIABLE)
    entity(graph, "set1", kind=kg.INDEX_SET)
    graph.add_edge("con1", "var1", kg.USED_IN)
    graph.add_edge("var1", "set1", kg.DEPENDS_ON)
    return graph


def test_structural_retrieve_union_of_closures():
    graph = chain_graph()
    assert rt.structural_retrieve(graph, ["con1"]) == frozenset({"con1", "var1", "set1"})
    assert rt.structural_retrieve(graph, []) == frozenset()
    with pytest.raises(UnknownEntity):
        rt.structural_retrieve(graph, ["ghost"])


def closure_union_reference(graph, seeds):
    """One closure per seed, after the one-hop aligns_to expansion of paper seeds."""
    expanded = set(seeds)
    for seed in seeds:
        if graph.entity(seed).source == kg.SOURCE_PAPER:
            expanded.update(graph.neighbors(seed, {kg.ALIGNS_TO}, "out"))
    return frozenset().union(*(closure(graph, s).members for s in expanded))


@pytest.mark.parametrize("workload", ["battery-paper", "fjsp-full-model", "kb-scale"])
def test_structural_retrieve_equals_per_seed_closures_on_benchmark_graphs(benchmark_graphs, workload):
    graph, request_seeds, _requests = benchmark_graphs[workload]
    for seeds in request_seeds:
        assert rt.structural_retrieve(graph, seeds) == closure_union_reference(graph, seeds)
    ids = graph.sorted_ids()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(ids), max_size=12))
    def check(seeds):
        assert rt.structural_retrieve(graph, seeds) == closure_union_reference(graph, seeds)

    check()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.data())
def test_structural_retrieve_equals_per_seed_closures_on_random_graphs(seed, data):
    graph = random_graph(random.Random(seed), data.draw(st.integers(2, 30)))
    seeds = data.draw(st.lists(st.sampled_from(graph.sorted_ids()), max_size=6))
    assert rt.structural_retrieve(graph, seeds) == closure_union_reference(graph, seeds)


def test_structural_retrieve_follows_alignment_one_hop_from_paper_seeds():
    graph = chain_graph()
    entity(graph, "paper:concept", kind=kg.CONCEPT, name="concept", source=kg.SOURCE_PAPER)
    graph.add_edge("paper:concept", "con1", kg.ALIGNS_TO)
    members = rt.structural_retrieve(graph, ["paper:concept"])
    assert members == frozenset({"paper:concept", "con1", "var1", "set1"})


def test_select_seeds_expands_to_constraints_using_entity():
    graph = chain_graph()
    parsed = rt.ParsedQuery(
        raw="add a constraint for var1",
        intents=(rt.ADD_CONSTRAINT,),
        entities=(rt.ExtractedEntity("var1", "var1", rt.NAME_MATCH),),
        numeric_payloads=(),
    )
    assert rt.select_seeds(parsed, graph) == ["var1", "con1"]


def test_select_seeds_no_expansion_without_constraint_intent():
    graph = chain_graph()
    parsed = rt.ParsedQuery(
        raw="generate model for var1",
        intents=(rt.GENERATE_MODEL,),
        entities=(rt.ExtractedEntity("var1", "var1", rt.NAME_MATCH),),
        numeric_payloads=(),
    )
    assert rt.select_seeds(parsed, graph) == ["var1"]


def test_select_seeds_modify_objective_pulls_dependent_objectives():
    graph = chain_graph()
    entity(graph, "profitObj", kind=kg.OBJECTIVE)
    graph.add_edge("profitObj", "var1", kg.USED_IN)
    parsed = rt.ParsedQuery(
        raw="modify the objective for var1",
        intents=(rt.MODIFY_OBJECTIVE,),
        entities=(rt.ExtractedEntity("var1", "var1", rt.NAME_MATCH),),
        numeric_payloads=(),
    )
    assert rt.select_seeds(parsed, graph) == ["var1", "profitObj"]


# --- Fusion ---------------------------------------------------------------------

def test_fuse_dedupes_snippets_against_structural_members():
    snippets = [("var1", 0.9, "its own description"), ("paper:note", 0.5, "background prose")]
    fused = rt.fuse({"con1", "var1", "set1"}, snippets)
    assert [s[0] for s in fused.snippets] == ["paper:note"]


def test_fuse_keeps_every_outside_snippet_in_order_and_is_deterministic():
    snippets = [(f"paper:s{i}", 1.0 - i / 10, f"text {i}") for i in range(8)]
    fused1 = rt.fuse({"paper:s3"}, snippets)
    fused2 = rt.fuse({"paper:s3"}, snippets)
    assert fused1.snippets == tuple(s for s in snippets if s[0] != "paper:s3")
    assert fused1 == fused2
