"""run_pipeline against the four copies of the pipeline it replaced.

`reference_repair_loop`, `reference_closure_row` and `reference_window_row`
are `codegen.repair_loop` and the closure and window branches of
`ablation.run_single` as they stood before each went through
`codegen.run_pipeline`, kept here as the specification the one path must
reproduce (as `full_sort_search` is kept for `semantic_search`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import ablation, codegen, corpus
from closurekb import knowledge_graph as kg
from closurekb import retrieval as rt
from closurekb.closure import is_well_defined
from closurekb.errors import MissingExpression, NotClosed


def reference_fuse(structural, snippets, graph, k=rt.DEFAULT_SNIPPET_K):
    """fuse with its old closedness check and k slice."""
    structural = frozenset(structural)
    ok, violations = is_well_defined(graph, structural)
    if not ok:
        raise NotClosed(violations)
    kept = [(doc_id, score, text) for doc_id, score, text in snippets if doc_id not in structural]
    return rt.RetrievalResult(structural=structural, snippets=tuple(kept[:k]))


def reference_repair_loop(query, graph, index, generator, max_rounds=codegen.DEFAULT_MAX_ROUNDS,
                          snippet_k=5):
    """The old repair loop; also returns the last package, rendered (None when unresolved)."""
    parsed = rt.understand_query(query, graph)
    seeds = rt.select_seeds(parsed, graph)
    if not seeds:
        return "", codegen.ValidationReport(status="unresolved"), 0, None
    snippets = rt.semantic_search(index, query, snippet_k) if index is not None else []
    extra = set()
    code = ""
    report = codegen.ValidationReport(status="failed", parse_error="generator never ran")
    rounds_used = 0
    for _round in range(max_rounds):
        rounds_used += 1
        structural = rt.structural_retrieve(graph, sorted(set(seeds) | extra))
        fused = reference_fuse(structural, snippets, graph, k=snippet_k)
        package = codegen.build_context(graph, fused, query)
        try:
            code = generator(package)
        except MissingExpression as exc:
            report = codegen.ValidationReport(status="failed", parse_error=f"generation failed: {exc}")
            continue
        report = codegen.validate(code)
        if report.ok:
            break
        for name in report.missing_declarations:
            found = codegen.resolve_missing_name(graph, name)
            if found is not None:
                extra.add(found)
    return code, report, rounds_used, package.render()


def reference_closure_row(query, graph, index, generator):
    """The old closure branch of ablation.run_single."""
    parsed = rt.understand_query(query, graph)
    seeds = rt.select_seeds(parsed, graph)
    if not seeds:
        return ablation.RunRow(run=0, status="unresolved", missing=(), empty_snippets=True,
                               detail="query resolved no entity")
    structural = rt.structural_retrieve(graph, seeds)
    snippets = rt.semantic_search(index, query, rt.DEFAULT_SNIPPET_K)
    fused = reference_fuse(structural, snippets, graph)
    package = codegen.build_context(graph, fused, query)
    empty_snippets = not package.snippets
    try:
        code = generator(package)
    except MissingExpression as exc:
        return ablation.RunRow(run=0, status="generation_failed", missing=(),
                               empty_snippets=empty_snippets, detail=str(exc))
    report = codegen.validate(code)
    return ablation.RunRow(
        run=0,
        status="ok" if report.ok else "failed",
        missing=report.missing_declarations,
        empty_snippets=empty_snippets,
        detail=report.parse_error or "",
    )


def reference_window_row(query, graph, index, generator, window_k):
    """The old window branch of ablation.run_single."""
    hits = rt.semantic_search(index, query, window_k)
    members = [doc_id for doc_id, _score, _text in hits if doc_id in graph]
    package = codegen.build_context_from_members(graph, members, hits, query, check_closed=False)
    snippets, error = package.snippets, None
    try:
        report = codegen.validate(codegen.generate(package, generator))
    except MissingExpression as exc:
        error = str(exc)
    if error is not None:
        return ablation.RunRow(run=0, status="generation_failed", missing=(),
                               empty_snippets=not snippets, detail=error)
    return ablation.RunRow(run=0, status="ok" if report.ok else "failed",
                           missing=report.missing_declarations,
                           empty_snippets=not snippets, detail=report.parse_error or "")


class DropFirstVar:
    """Template output without its first `var` line, on the first call only."""

    def __init__(self):
        self.calls = 0

    def __call__(self, package):
        self.calls += 1
        code = codegen.TemplateGenerator()(package)
        if self.calls == 1:
            lines = code.splitlines(keepends=True)
            first = next((i for i, line in enumerate(lines) if line.startswith("var ")), None)
            if first is not None:
                del lines[first]
            code = "".join(lines)
        return code


GENERATORS = {"template": codegen.TemplateGenerator, "drop-first-var": DropFirstVar}


def assert_same_as_references(query, graph, index, make_generator):
    code, report, rounds, rendered = reference_repair_loop(query, graph, index, make_generator())
    run = codegen.run_pipeline(query, graph, index, make_generator())
    assert (run.code, run.report, run.rounds) == (code, report, rounds)
    if rendered is None:
        assert run.retrieval.structural == frozenset()
    else:
        assert codegen.build_context(graph, run.retrieval, query).render() == rendered
    assert codegen.repair_loop(query, graph, index, make_generator()) == (code, report, rounds)
    row = ablation.run_single(query, graph, index, make_generator(), ablation.CLOSURE_MODE, 3)
    assert row == reference_closure_row(query, graph, index, make_generator())


WINDOW_KS = (1, 3, 5)


def assert_windows_same_as_reference(query, graph, index, make_generator):
    """Window-mode rows equal the old window branch's, and a window run has
    no seeds, one round, a resolved status, the hits in the graph as its
    members and the old branch's package."""
    for k in WINDOW_KS:
        row = ablation.run_single(query, graph, index, make_generator(), ablation.WINDOW_MODE, k)
        assert row == reference_window_row(query, graph, index, make_generator(), k)
        hits = rt.semantic_search(index, query, k)
        members = frozenset(doc_id for doc_id, _score, _text in hits if doc_id in graph)
        rendered = []

        def generator(package, inner=make_generator()):
            rendered.append(package.render())
            return inner(package)

        run = codegen.run_pipeline(query, graph, index, generator, max_rounds=1, window_k=k)
        assert (run.seeds, run.rounds) == ((), 1)
        assert run.report.status != "unresolved"
        assert run.retrieval == rt.RetrievalResult(members, tuple(hits))
        package = codegen.build_context_from_members(graph, members, hits, query, check_closed=False)
        assert rendered == [package.render()]


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("workload", ["battery-paper", "fjsp-full-model", "kb-scale"])
def test_run_pipeline_matches_the_old_copies_on_benchmark_requests(benchmark_graphs, workload, generator):
    graph, _seeds, requests = benchmark_graphs[workload]
    index = rt.index_snippets(graph)
    for query in dict.fromkeys(requests + ["zzz qqq"]):
        assert_same_as_references(query, graph, index, GENERATORS[generator])
        assert_windows_same_as_reference(query, graph, index, GENERATORS[generator])


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("sources", corpus.SOURCE_MODES)
def test_run_pipeline_matches_the_old_copies_on_the_battery_corpus(tmp_path, sources, generator):
    inputs = corpus.write_battery_corpus(tmp_path)
    query = (tmp_path / "query.txt").read_text(encoding="utf-8").strip()
    graph, _alignment = corpus.ingest_corpus(
        [p for p in inputs if p.name != "query.txt"], sources=sources
    )
    index = rt.index_snippets(graph)
    assert_same_as_references(query, graph, index, GENERATORS[generator])
    assert_windows_same_as_reference(query, graph, index, GENERATORS[generator])


def mixed_source_graph(n, paper, edges):
    """n00.. entities; those in `paper` come from a paper, with an id holding
    a space (`paper:p 03`) and a name (`p03`) that code can reference."""
    def entity(i):
        if i in paper:
            return kg.Entity(f"paper:p {i:02d}", kg.CONCEPT, f"p{i:02d}", source=kg.SOURCE_PAPER)
        return kg.Entity(f"n{i:02d}", kg.CONCEPT, f"n{i:02d}", fields={"solver_symbol": f"n{i:02d}"})

    entities = [entity(i) for i in range(n)]
    graph = kg.KnowledgeGraph()
    graph.add_all(entities, [kg.Edge(entities[s].id, entities[d].id, kind) for s, d, kind in edges])
    return graph


class MissingInTurn:
    """Code that references one undeclared name per round, in the order given,
    then code that validates; keeps each round's package members."""

    def __init__(self, names):
        self.names = names
        self.members: list[frozenset] = []

    def __call__(self, package):
        self.members.append(frozenset(ent.id for ent in package.typed_entities))
        turn = len(self.members) - 1
        if turn < len(self.names):
            return f"var zz continuous; con c: zz + {self.names[turn]} >= 0;\n"
        return "var zz continuous;\n"


def assert_rounds_keep_the_walked_set(graph, query, extras):
    """Each round's package holds the closure of the seeds and every entity
    found by the rounds before it."""
    generator = MissingInTurn([graph.entity(extra).name for extra in extras])
    run = codegen.run_pipeline(query, graph, rt.index_snippets(graph), generator, len(extras) + 1)
    assert run.seeds and run.rounds == len(extras) + 1
    assert len(generator.members) == run.rounds
    for done, members in enumerate(generator.members):
        assert members == rt.structural_retrieve(graph, (*run.seeds, *sorted(set(extras[:done]))))


def test_a_found_paper_entity_already_in_the_set_still_pulls_its_realizations():
    # n00 uses the paper concept p01, which aligns to n02: the closure of n00
    # holds p01 but not n02, and finding p01 must walk its aligns_to hop.
    graph = mixed_source_graph(3, {1}, [(0, 1, kg.USED_IN), (1, 2, kg.ALIGNS_TO)])
    assert rt.structural_retrieve(graph, ["n00"]) == {"n00", "paper:p 01"}
    assert_rounds_keep_the_walked_set(graph, "n00", ["paper:p 01"])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rounds_keep_the_closure_of_the_seeds_and_every_found_entity(data):
    n = data.draw(st.integers(1, 10), label="n")
    paper = data.draw(st.sets(st.integers(0, n - 1)), label="paper")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(kg.EDGE_KINDS))
    edges = data.draw(st.sets(pairs.filter(lambda e: e[0] != e[1]), max_size=3 * n), label="edges")
    # Each paper entity aligns to one more entity, so a found paper entity
    # already in the set often has a realization outside it.
    for i in sorted(paper) if n > 1 else ():
        j = data.draw(st.integers(0, n - 2), label="aligns_to")
        edges.add((i, j + (j >= i), kg.ALIGNS_TO))
    graph = mixed_source_graph(n, paper, sorted(edges))
    ids = graph.sorted_ids()
    query = graph.entity(data.draw(st.sampled_from(ids), label="query")).name
    # Paper entities are drawn as found entities half the time.
    found = st.sampled_from(ids)
    if paper:
        found |= st.sampled_from([entity_id for entity_id in ids if entity_id.startswith("paper:")])
    extras = data.draw(st.lists(found, max_size=5), label="extras")
    assert_rounds_keep_the_walked_set(graph, query, extras)
