"""Context packaging, template generation, validation, and the repair loop."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import battery, codegen, corpus
from closurekb import knowledge_graph as kg
from closurekb import model_dsl as md
from closurekb import retrieval as rt
from closurekb.closure import closure, is_well_defined
from closurekb.errors import (
    GeneratorUnavailable,
    MissingExpression,
    NotClosed,
    UnknownEntity,
)

from test_closure import make_graph, random_digraph
from test_model_dsl import MALFORMED_SOURCES, random_model
from test_retrieval import fjsp_graph


def ingest(source: str) -> kg.KnowledgeGraph:
    graph = kg.KnowledgeGraph()
    ast = md.parse_model(source)
    kg.ingest_model(ast, graph)
    return graph


LISTING_STYLE = (
    "set T = 1..4; var y{T} binary; param B13{T};"
    " con c{t in T : t >= 2}: y[t] <= B13[t-1];"
)


def package_for(graph, target, instruction="build it"):
    members = closure(graph, target).members
    return codegen.build_context_from_members(graph, members, [], instruction)


# --- Context packaging ------------------------------------------------------------

def test_build_context_orders_dependencies_first():
    graph = ingest(LISTING_STYLE)
    package = package_for(graph, "c")
    order = [ent.id for ent in package.typed_entities]
    assert order.index("T") < order.index("y")
    assert order.index("T") < order.index("B13")
    assert order.index("y") < order.index("c")
    assert order.index("B13") < order.index("c")


def test_build_context_sections_and_determinism():
    graph = ingest(LISTING_STYLE)
    package = package_for(graph, "c")
    text = package.render()
    for heading in ("TYPED ENTITIES", "DEPENDENCY SUBGRAPH", "BACKGROUND SNIPPETS", "INSTRUCTION"):
        assert heading in text
    assert text.index("TYPED ENTITIES") < text.index("DEPENDENCY SUBGRAPH")
    assert text.index("DEPENDENCY SUBGRAPH") < text.index("BACKGROUND SNIPPETS")
    assert text.index("BACKGROUND SNIPPETS") < text.index("INSTRUCTION")
    assert "c -used_in-> B13" in text
    assert package_for(graph, "c").render() == text


def test_build_context_single_isolated_entity():
    graph = ingest("set T = 1..2;")
    package = package_for(graph, "T")
    assert len(package.typed_entities) == 1
    assert package.subgraph_description == ""
    assert "(none)" in package.render()


def test_build_context_rejects_open_sets():
    graph = ingest(LISTING_STYLE)
    retrievalish = rt.RetrievalResult(structural=frozenset({"c"}), snippets=())
    with pytest.raises(NotClosed):
        codegen.build_context(graph, retrievalish, "x")


def test_only_an_open_set_runs_the_closedness_check(monkeypatch):
    graph = ingest(LISTING_STYLE)
    calls = []

    def counted(graph, members):
        calls.append(set(members))
        return is_well_defined(graph, members)

    monkeypatch.setattr(codegen, "is_well_defined", counted)
    package_for(graph, "c")
    assert calls == []
    retrievalish = rt.RetrievalResult(structural=frozenset({"c"}), snippets=())
    with pytest.raises(NotClosed) as raised:
        codegen.build_context(graph, retrievalish, "x")
    assert calls == [{"c"}]
    assert raised.value.violations == is_well_defined(graph, {"c"})[1] != []


@pytest.mark.parametrize("lookup", [
    lambda graph: graph.entity("ghost"),
    lambda graph: graph.neighbors("ghost", kg.EXEC_KINDS),
    lambda graph: closure(graph, "a", "ghost"),
    lambda graph: codegen.dependency_order(graph, {"a", "ghost"}),
], ids=["entity", "neighbors", "closure", "dependency_order"])
def test_every_unknown_id_raises_the_one_message(lookup):
    graph = kg.KnowledgeGraph()
    graph.add_entity(kg.Entity("a", kg.CONCEPT, "a"))
    with pytest.raises(UnknownEntity) as raised:
        lookup(graph)
    assert str(raised.value) == "no entity with id 'ghost'"


def test_dependency_order_breaks_cycles_by_id():
    graph = kg.KnowledgeGraph()
    for name in ("a", "b"):
        graph.add_entity(kg.Entity(id=name, kind=kg.CONSTRAINT, name=name,
                                   fields={"solver_symbol": name}))
    graph.add_edge("a", "b", kg.USED_IN)
    graph.add_edge("b", "a", kg.USED_IN)
    assert codegen.dependency_order(graph, {"a", "b"}) == ["a", "b"]


def quadratic_dependency_order(graph, members):
    """Reference: rescan the sorted remaining members for the first whose
    dependencies are all emitted, else take the first remaining."""
    member_set = set(members)
    deps = {
        m: {d for d in graph.neighbors(m, kg.EXEC_KINDS, "out") if d in member_set}
        for m in member_set
    }
    remaining = sorted(member_set)
    emitted: set[str] = set()
    order = []
    while remaining:
        pick = next((m for m in remaining if deps[m] <= emitted), remaining[0])
        order.append(pick)
        emitted.add(pick)
        remaining.remove(pick)
    return order


def random_cyclic_graph(rng):
    n = rng.randint(1, 14)
    edges = set()
    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
        src, dst = rng.sample(range(n), 2)
        edges.add((src, dst, rng.choice(kg.EDGE_KINDS)))
    return make_graph(n, sorted(edges)), n


def test_dependency_order_matches_quadratic_reference_on_random_digraphs_with_cycles():
    rng = random.Random(1962)
    cyclic = 0
    for _ in range(1500):
        graph, n = random_cyclic_graph(rng)
        members = {f"n{i:02d}" for i in range(n) if rng.random() < 0.8} or {"n00"}
        order = codegen.dependency_order(graph, members)
        assert order == [m for m in quadratic_dependency_order(graph, graph.entities) if m in members]
        assert sorted(order) == sorted(members)
        cyclic += any(
            order.index(e.src) < order.index(e.dst)
            for e in graph.edges
            if e.kind in kg.EXEC_KINDS and e.src in members and e.dst in members
        )
    assert cyclic > 100  # the cycle-breaking branch is exercised


def reference_package(graph, members, check_closed):
    """(typed entities, subgraph text) of build_context_from_members from its
    three former parts: the closedness check, the quadratic order of the
    whole graph seen on the members and a scan of every executability edge.
    Definition lines come from a fresh copy of each entity, which keeps no
    text."""
    ok, violations = is_well_defined(graph, members)
    if check_closed and not ok:
        raise NotClosed(violations)
    for entity_id in members:
        graph.entity(entity_id)  # UnknownEntity for a member not in the graph
    typed = []
    for entity_id in [m for m in quadratic_dependency_order(graph, graph.entities) if m in members]:
        ent = graph.entity(entity_id)
        fresh = kg.Entity(ent.id, ent.kind, ent.name, ent.description, ent.fields, ent.source)
        typed.append((ent, codegen.formal_definition(fresh)))
    inside = sorted(
        (e.src, e.dst, e.kind)
        for e in graph.edges
        if e.kind in kg.EXEC_KINDS and e.src in members and e.dst in members
    )
    return tuple(typed), "\n".join(f"{src} -{kind}-> {dst}" for src, dst, kind in inside)


def package_outcome(build):
    try:
        return "package", build()
    except NotClosed as exc:
        return "NotClosed", exc.violations
    except UnknownEntity:
        return "UnknownEntity", None


def test_one_walk_package_matches_its_three_part_reference_on_random_digraphs_with_cycles():
    rng = random.Random(1962)
    seen = set()
    for _ in range(1500):
        graph, n = random_cyclic_graph(rng)
        members = {f"n{i:02d}" for i in range(n) if rng.random() < 0.8} or {"n00"}
        if rng.random() < 0.5:
            members = set(closure(graph, *members).members)
        if rng.random() < 0.1:
            members.add("ghost")
        for check_closed in (True, False):
            def build():
                package = codegen.build_context_from_members(graph, members, [], "x", check_closed)
                typed = tuple((ent, codegen.formal_definition(ent)) for ent in package.typed_entities)
                return typed, package.subgraph_description

            got = package_outcome(build)
            assert got == package_outcome(lambda: reference_package(graph, members, check_closed))
            seen.add(got[0])
    assert seen == {"NotClosed", "UnknownEntity", "package"}


def exec_edge_scan(graph, members):
    """The subgraph text of a closed set: every executability edge leaving a
    member, by (src, dst, kind)."""
    inside = sorted((e.src, e.dst, e.kind) for e in graph.edges if e.kind in kg.EXEC_KINDS and e.src in members)
    return "\n".join(f"{src} -{kind}-> {dst}" for src, dst, kind in inside)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closed_package_in_rank_order_is_the_subset_kahn_order(data):
    n = data.draw(st.integers(1, 14), label="n")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(kg.EDGE_KINDS))
    edges = data.draw(st.sets(pairs.filter(lambda e: e[0] != e[1]), max_size=3 * n), label="edges")
    graph = make_graph(n, sorted(edges))
    ids = graph.sorted_ids()
    seed_sets = [{i} for i in ids] + data.draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), max_size=4))
    for seeds in seed_sets:
        members = closure(graph, *seeds).members
        package = codegen.build_context_from_members(graph, members, [], "x")
        assert [ent.id for ent in package.typed_entities] == quadratic_dependency_order(graph, members)
        assert package.subgraph_description == exec_edge_scan(graph, members)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_filtered_and_sorted_orders_agree_on_every_subset_size(seed, data):
    """Subsets of every size from 0 to N, so both sides of n log2 n = N are
    taken: below it the members are sorted, from it kept orders filtered."""
    graph, n = random_digraph(random.Random(seed))
    ids = graph.sorted_ids()
    order = data.draw(st.permutations(ids), label="order")
    whole = quadratic_dependency_order(graph, graph.entities)
    for size in range(n + 1):
        members = set(order[:size])
        assert codegen.dependency_order(graph, members) == [m for m in whole if m in members]
        package = codegen.build_context_from_members(graph, members, [], "x", check_closed=False)
        assert [ent.id for ent in package.typed_entities] == [m for m in whole if m in members]
        lines = [
            f"{e.src} -{e.kind}-> {e.dst}"
            for src in sorted(members)
            for e in graph.edges_from(src)
            if e.kind in kg.EXEC_KINDS and e.dst in members
        ]
        assert package.subgraph_description == "\n".join(lines)
        ghosts = data.draw(st.lists(st.sampled_from(["ghost0", "ghost1", "ghost2"]), min_size=1), label="ghosts")
        targets = data.draw(st.permutations([*order[:size], *ghosts]), label="targets")
        with pytest.raises(UnknownEntity) as raised:
            closure(graph, *targets)
        first_ghost = next(t for t in targets if t not in graph.entities)
        assert str(raised.value) == f"no entity with id {first_ghost!r}"


def copy_graph(graph):
    fresh = kg.KnowledgeGraph()
    for entity_id in graph.sorted_ids():
        fresh.add_entity(graph.entity(entity_id))
    for edge in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind)):
        fresh.add_edge(edge.src, edge.dst, edge.kind)
    return fresh


def test_package_and_closures_see_an_edge_and_an_entity_added_after_a_read():
    def outputs(graph, targets):
        members = closure(graph, *targets).members
        package = codegen.build_context_from_members(graph, members, [], "x")
        walks = [(result.visit_order, result.edge_count) for result in (closure(graph, t) for t in targets)]
        return members, package, walks

    def assert_fresh(graph, targets):
        got = outputs(graph, targets)
        assert got == outputs(copy_graph(graph), targets)
        return got

    rng = random.Random(14)
    graph = make_graph(10, [(i, i + 1, kg.USED_IN) for i in range(9)])
    changed = 0
    for step in range(80):
        ids = graph.sorted_ids()
        targets = rng.sample(ids, rng.randint(1, 3))
        before = outputs(graph, targets)
        graph.add_edge(*rng.sample(ids, 2), rng.choice(kg.EDGE_KINDS))
        changed += assert_fresh(graph, targets) != before
        # A new id sorts before every "nXX", so it can move a cycle break.
        entity_id = f"m{step:02d}"
        graph.add_entity(kg.Entity(id=entity_id, kind=kg.CONCEPT, name=entity_id))
        assert_fresh(graph, [*targets, entity_id])
        graph.add_edge(entity_id, rng.choice(ids), rng.choice(kg.EDGE_KINDS))
        assert_fresh(graph, [*targets, entity_id])
    assert changed > 20  # an added edge changed what a read returns


def test_formal_definition_line_shape():
    graph = ingest(LISTING_STYLE)
    line = codegen.formal_definition(graph.entity("y"))
    assert line == "y : decision_variable : binary : {T} : y"


# --- Template generation ------------------------------------------------------------

def test_template_generator_declares_and_renders():
    graph = ingest(LISTING_STYLE)
    code = codegen.TemplateGenerator()(package_for(graph, "c"))
    assert "set T = 1..4;" in code
    assert "var y{T} binary;" in code
    assert "param B13{T};" in code
    assert code.strip().endswith("con c{t in T : t >= 2}: y[t] <= B13[t-1];")


def test_kept_text_belongs_to_the_entity_not_to_its_id():
    scalar, indexed = ingest("param q = 3;"), ingest("set T = 1..2; param q{T};")
    texts = []
    for graph in (scalar, indexed, scalar, indexed):
        package = package_for(graph, "q")
        texts.append((codegen.formal_definition(package.typed_entities[-1]), codegen.TemplateGenerator()(package)))
    assert texts[0] == texts[2] == ("q : parameter : numeric : {} : q", "param q = 3;\n")
    assert texts[1] == texts[3] == ("q : parameter : numeric : {T} : q", "set T = 1..2;\nparam q{T};\n")


def test_template_generator_missing_expression():
    graph = kg.KnowledgeGraph()
    graph.add_entity(kg.Entity(id="paper:rule", kind=kg.CONSTRAINT, name="rule",
                               source=kg.SOURCE_PAPER))
    package = codegen.build_context_from_members(graph, {"paper:rule"}, [], "x")
    with pytest.raises(MissingExpression):
        codegen.TemplateGenerator()(package)


def test_template_generator_single_parameter_package():
    graph = ingest("param q = 3;")
    code = codegen.TemplateGenerator()(package_for(graph, "q"))
    assert code == "param q = 3;\n"


def test_external_mock_passthrough_and_unavailable():
    graph = ingest("param q = 3;")
    package = package_for(graph, "q")
    assert codegen.generate(package, lambda pkg: "verbatim text") == "verbatim text"
    bad = codegen.ExternalEndpointGenerator("http://127.0.0.1:1/gen", timeout=0.2)
    with pytest.raises(GeneratorUnavailable):
        bad(package)


def test_external_http_generator_round_trip():
    import http.server
    import threading

    received = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            received["body"] = self.rfile.read(length).decode("utf-8")
            payload = b"param q = 3;\n"
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        graph = ingest("param q = 3;")
        package = package_for(graph, "q", instruction="send me q")
        endpoint = f"http://127.0.0.1:{server.server_port}/generate"
        out = codegen.ExternalEndpointGenerator(endpoint, timeout=5.0)(package)
        assert out == "param q = 3;\n"
        assert received["body"] == package.render()
        assert "INSTRUCTION" in received["body"]
    finally:
        server.shutdown()
        thread.join(timeout=2)


def test_external_process_pipe_generator(tmp_path):
    script = tmp_path / "gen.sh"
    script.write_text("#!/bin/sh\ncat > /dev/null\necho 'param q = 3;'\n", encoding="utf-8")
    script.chmod(0o755)
    graph = ingest("param q = 3;")
    out = codegen.ExternalEndpointGenerator(str(script))(package_for(graph, "q"))
    assert out.strip() == "param q = 3;"


def serve_raw(response: bytes):
    """A local HTTP endpoint that answers every POST with the raw bytes `response`."""
    import http.server
    import threading

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            try:
                self.wfile.write(response)
            except OSError:  # the client stops reading at the size cap
                pass

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def http_ok(body: bytes) -> bytes:
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body


@pytest.mark.parametrize("response, message", [
    (http_ok(b"\xff\xfe"), "not UTF-8"),
    (http_ok(b"#" * (codegen.MAX_RESPONSE_BYTES + 1)), "exceeds"),
    (b"garbage\r\n\r\n", "unreachable"),
], ids=["non-utf8", "over-cap", "bad-status-line"])
def test_external_http_generator_bad_response_is_unavailable(response, message):
    server, thread = serve_raw(response)
    try:
        generator = codegen.ExternalEndpointGenerator(
            f"http://127.0.0.1:{server.server_port}/generate", timeout=10.0
        )
        with pytest.raises(GeneratorUnavailable, match=message):
            generator(package_for(ingest("param q = 3;"), "q"))
    finally:
        server.shutdown()
        thread.join(timeout=2)


@pytest.mark.parametrize("command, message", [
    ("printf '\\377\\376'", "not UTF-8"),
    (f"head -c {codegen.MAX_RESPONSE_BYTES + 1} /dev/zero", "exceeds"),
], ids=["non-utf8", "over-cap"])
def test_external_process_generator_bad_output_is_unavailable(tmp_path, command, message):
    script = tmp_path / "gen.sh"
    script.write_text(f"#!/bin/sh\ncat > /dev/null\n{command}\n", encoding="utf-8")
    script.chmod(0o755)
    with pytest.raises(GeneratorUnavailable, match=message):
        codegen.ExternalEndpointGenerator(str(script))(package_for(ingest("param q = 3;"), "q"))


def test_external_generator_accepts_a_response_at_the_cap(tmp_path):
    script = tmp_path / "gen.sh"
    script.write_text(
        f"#!/bin/sh\ncat > /dev/null\nhead -c {codegen.MAX_RESPONSE_BYTES} /dev/zero\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    out = codegen.ExternalEndpointGenerator(str(script))(package_for(ingest("param q = 3;"), "q"))
    assert len(out) == codegen.MAX_RESPONSE_BYTES


# --- Validation -----------------------------------------------------------------

def test_validate_missing_declaration():
    report = codegen.validate("set T = 1..3; var y{T} binary; con c{t in T}: y[t] <= B13[t-1];")
    assert report.status == "failed"
    assert report.missing_declarations == ("B13",)
    # A set iterated by a sum inside a quantifier's filter must be declared too.
    code = "set T = 1..3; var y{T} binary; con c{t in T : sum{s in U}(y[s]) >= 1}: y[t] <= 1;"
    assert codegen.validate(code).missing_declarations == ("U",)


def test_validate_graph_supplies_fragment_context():
    graph = ingest("set T = 1..4; param B13{T};")
    code = "set T = 1..4; var y{T} binary; con c{t in T}: y[t] <= B13[t-1];"
    assert codegen.validate(code).missing_declarations == ("B13",)
    assert codegen.validate(code, graph).status == "ok"


def test_validate_template_output_is_ok():
    graph = ingest(LISTING_STYLE)
    code = codegen.TemplateGenerator()(package_for(graph, "c"))
    assert codegen.validate(code).status == "ok"


def test_validate_iterating_over_parameter_kind_mismatch():
    report = codegen.validate("param P = 3; var y binary; con c{i in P}: y <= 1;")
    assert report.status == "failed"
    assert ("P", kg.INDEX_SET, kg.PARAMETER) in report.kind_mismatches


def test_validate_set_used_as_value():
    report = codegen.validate("set T = 1..2; con c: T <= 3;")
    assert ("T", codegen.VALUE_EXPECTATION, kg.INDEX_SET) in report.kind_mismatches


def test_validate_arity_mismatch():
    report = codegen.validate("set T = 1..2; var y{T} binary; con c: y <= 1;")
    assert report.arity_mismatches == (("y", 1, 0),)


def test_validate_parse_error_reported_not_raised():
    report = codegen.validate("set T = ;")
    assert report.status == "failed" and report.parse_error


@pytest.mark.parametrize("code", ["", "! comment\n", "\n\n", "! one\n! two"])
@pytest.mark.parametrize("path", ["memo", "whole-parse"])
def test_validate_model_with_no_statement_fails(monkeypatch, code, path):
    parse = mock.Mock(wraps=md.parse_model)
    if path == "whole-parse":
        monkeypatch.setattr(md, "uses_by_line", lambda _source: None)
        monkeypatch.setattr(md, "parse_model", parse)
    report = codegen.validate(code)
    assert parse.call_args_list == ([mock.call(code)] if path == "whole-parse" else [])
    assert (report.status, report.ok) == ("failed", False)
    assert report.parse_error == "model has no statement"


# --- Repair loop ------------------------------------------------------------------

def battery_fixture():
    data = battery.paper_case_data()
    event = battery.paper_event()
    graph = battery.build_battery_kg(data, event)
    kg.ingest_concept_cards(battery.battery_concept_cards(), graph)
    kg.align(graph)
    graph.freeze()
    index = rt.index_snippets(graph)
    return graph, index


def test_repair_loop_template_on_complete_kg_ok_round_one():
    graph, index = battery_fixture()
    code, report, rounds = codegen.repair_loop(
        "Add a load-reduction constraint for the demand-response event",
        graph, index, codegen.TemplateGenerator(),
    )
    assert report.status == "ok"
    assert rounds == 1
    assert "0.54" in code
    assert ">= 10" in code


class OmitUntilPresent:
    """Scripted generator that always renders a qualifying inequality
    referencing deltaLmin, but only declares what the package contains, so the
    first round omits the declaration and the second (after re-retrieval)
    includes it."""

    def __call__(self, package):
        template = codegen.TemplateGenerator()(package)
        constraint = (
            "con qualify: sum{t in drWindow}(Bref[t] - (m11PowerOn*m11[t])) >= deltaLmin;"
        )
        lines = [line for line in template.splitlines() if not line.startswith("max ")]
        return "\n".join(lines + [constraint]) + "\n"


def test_repair_loop_recovers_omitted_parameter_in_round_two():
    graph, index = battery_fixture()
    code, report, rounds = codegen.repair_loop(
        "modify the objective with the incentive reward for the demand response event",
        graph, index, OmitUntilPresent(),
    )
    assert report.status == "ok"
    assert rounds == 2
    assert "param deltaLmin = 10;" in code


def test_run_pipeline_record_of_a_two_round_request():
    graph, index = battery_fixture()
    query = "modify the objective with the incentive reward for the demand response event"
    run = codegen.run_pipeline(query, graph, index, OmitUntilPresent())
    parsed = rt.understand_query(query, graph)
    assert run.parsed == parsed
    assert run.seeds == tuple(rt.select_seeds(parsed, graph))
    assert (run.report.status, run.rounds, run.generation_error) == ("ok", 2, None)
    assert "deltaLmin" in run.retrieval.structural
    assert "param deltaLmin = 10;" in run.code
    hits = rt.semantic_search(index, query, rt.DEFAULT_SNIPPET_K)
    assert run.retrieval.snippets == tuple(h for h in hits if h[0] not in run.retrieval.structural)


def test_run_pipeline_reports_the_generation_error_of_a_papers_only_graph(tmp_path):
    inputs = corpus.write_battery_corpus(tmp_path)
    graph, _alignment = corpus.ingest_corpus(inputs[:2], sources=corpus.PAPERS_ONLY)
    query = (tmp_path / "query.txt").read_text(encoding="utf-8").strip()
    run = codegen.run_pipeline(query, graph, rt.index_snippets(graph), codegen.TemplateGenerator())
    assert "no stored expression" in run.generation_error
    assert run.report.status == "failed"
    assert run.report.parse_error == f"generation failed: {run.generation_error}"
    assert (run.code, run.rounds) == ("", codegen.DEFAULT_MAX_ROUNDS)


def test_run_pipeline_clears_the_generation_error_once_the_generator_runs():
    graph, index = battery_fixture()
    calls = []

    def fails_once(package):
        calls.append(package)
        if len(calls) == 1:
            raise MissingExpression("paper:a rule")
        return codegen.TemplateGenerator()(package)

    run = codegen.run_pipeline(
        "Add a load-reduction constraint for the demand-response event", graph, index, fails_once
    )
    assert (run.report.status, run.rounds, run.generation_error) == ("ok", 2, None)


def test_run_pipeline_of_an_unresolved_query_keeps_the_search_hits():
    graph, index = battery_fixture()
    run = codegen.run_pipeline("what is the price", graph, index, codegen.TemplateGenerator())
    assert (run.seeds, run.code, run.report.status, run.rounds) == ((), "", "unresolved", 0)
    assert run.retrieval.structural == frozenset()
    assert run.retrieval.snippets == tuple(rt.semantic_search(index, "what is the price", 5))
    assert run.retrieval.snippets


def test_repair_loop_code_with_no_statement_is_never_ok():
    graph, index = battery_fixture()
    query = "Add a load-reduction constraint for the demand-response event"
    code, report, rounds = codegen.repair_loop(query, graph, index, lambda _package: "")
    assert (code, report.status, report.parse_error) == ("", "failed", "model has no statement")
    assert rounds == codegen.DEFAULT_MAX_ROUNDS
    # An unaligned graph seeds only the event concept, whose closure holds no code.
    graph = battery.build_battery_kg(battery.paper_case_data(), battery.paper_event())
    kg.ingest_concept_cards(battery.battery_concept_cards(), graph)
    graph.freeze()
    code, report, _rounds = codegen.repair_loop(
        "Add the loadReduction constraint for the demand-response event",
        graph, rt.index_snippets(graph), codegen.TemplateGenerator(),
    )
    assert (code, report.status, report.parse_error) == ("", "failed", "model has no statement")


def test_repair_loop_budget_exhausted_on_unresolvable_symbol():
    graph, index = battery_fixture()
    always_broken = lambda pkg: "con ghost: phantomSymbol <= 1;\n"
    code, report, rounds = codegen.repair_loop(
        "Add a load-reduction constraint for the demand-response event",
        graph, index, always_broken, max_rounds=3,
    )
    assert report.status == "failed"
    assert rounds == 3
    assert "phantomSymbol" in report.missing_declarations


def test_repair_loop_structural_set_is_monotone():
    graph, index = battery_fixture()
    seen_sizes = []

    class Spy:
        def __call__(self, package):
            seen_sizes.append(len(package.typed_entities))
            return "con ghost: deltaLmin <= 1;\n" if len(seen_sizes) == 1 else codegen.TemplateGenerator()(package)

    codegen.repair_loop(
        "modify the objective with the incentive reward for the demand response event",
        graph, index, Spy(),
    )
    assert seen_sizes == sorted(seen_sizes)


@pytest.mark.parametrize("query", ["hello world", "add a constraint", "what is the weather"])
def test_repair_loop_query_resolving_no_entity_is_unresolved(query):
    graph, index = battery_fixture()
    code, report, rounds = codegen.repair_loop(query, graph, index, codegen.TemplateGenerator())
    assert (code, report.status, report.ok, rounds) == ("", "unresolved", False, 0)


def test_repair_loop_unresolved_on_fjsp_graph():
    graph = fjsp_graph()
    code, report, rounds = codegen.repair_loop(
        "add the machine capacity constraint", graph, rt.index_snippets(graph),
        codegen.TemplateGenerator(),
    )
    assert (code, report.status, rounds) == ("", "unresolved", 0)


def test_validate_soundness_reported_missing_is_genuinely_undeclared():
    rng = random.Random(88)
    for _ in range(100):
        ast = random_model(rng)
        lines = md.emit_model(ast).splitlines()
        decl_lines = [i for i, l in enumerate(lines) if l.startswith(("set ", "param ", "var "))]
        drop = rng.choice(decl_lines)
        broken = "\n".join(l for i, l in enumerate(lines) if i != drop) + "\n"
        facts = md.extract_symbols(md.parse_model(broken))
        code_decls = {decl.name for decl in facts.declarations}
        report = codegen.validate(broken)
        for name in report.missing_declarations:
            assert name not in code_decls
        # With the originating graph supplied, the dropped symbol resolves there,
        # so nothing may be reported missing at all.
        graph = kg.KnowledgeGraph()
        kg.ingest_model(ast, graph)
        assert codegen.validate(broken, graph).missing_declarations == ()


# --- Closure-completeness theorem ------------------------------------------------------

def test_closure_completeness_on_500_random_kgs():
    rng = random.Random(31415)
    generator = codegen.TemplateGenerator()
    checked = 0
    for _ in range(500):
        ast = random_model(rng)
        graph = kg.KnowledgeGraph()
        kg.ingest_model(ast, graph)
        targets = [c.name for c in ast.constraints]
        if ast.objective is not None:
            targets.append(ast.objective.name)
        target = rng.choice(targets)
        package = package_for(graph, target)
        report = codegen.validate(generator(package))
        assert report.status == "ok", (target, report)
        checked += 1
    assert checked == 500


@settings(max_examples=300, deadline=None)
@given(MALFORMED_SOURCES)
def test_validate_always_returns_a_report(source):
    report = codegen.validate(source)
    assert isinstance(report, codegen.ValidationReport)
    assert report.status in ("ok", "failed")


@pytest.mark.parametrize("source, status", [
    ("var x continuous; con c: " + " + ".join(["x"] * 1500) + " <= 1;", "ok"),
    ("var x continuous; con c: " + "*".join(["x"] * 1500) + " <= y;", "failed"),
    ("con c: x <= " + "9" * 400 + ";", "failed"),
    ("con c: x <= " + "9" * 5000 + ";", "failed"),
    ("con c: x <= " + "(" * 3000 + "1" + ")" * 3000 + ";", "failed"),
], ids=["1500-term-sum", "1500-factor-product", "400-digits", "5000-digits", "3000-parentheses"])
def test_validate_is_total_on_extreme_inputs(source, status):
    assert codegen.validate(source).status == status
