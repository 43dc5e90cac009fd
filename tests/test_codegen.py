"""Context packaging, template generation, validation, and the repair loop."""

import json
import random
import re
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
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
    SchemaViolation,
    UnknownEntity,
)

from test_closure import make_graph, random_digraph
from test_knowledge_graph import unlistable
from test_model_dsl import MALFORMED_SOURCES, random_model
from test_pipeline import mixed_source_graph
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
    assert "c -used_in-> B13, y" in text.split("\n")
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


def grouped_reference(graph, members, leaving=False):
    """The subgraph text of `members`, scanned from graph.edges: each
    member's sorted targets per kind over the executability edges from a
    member to a member (with `leaving`, to any entity); the sources that
    share a (kind, targets) pair make one `src, src -kind-> dst, dst` line,
    sources sorted, lines sorted by their first source, then kind."""
    targets = {}
    for e in graph.edges:
        if e.kind in kg.EXEC_KINDS and e.src in members and (leaving or e.dst in members):
            targets.setdefault((e.src, e.kind), []).append(e.dst)
    sources = {}
    for (src, kind), dsts in targets.items():
        sources.setdefault((kind, tuple(sorted(dsts))), []).append(src)
    lines = sorted(((sorted(srcs), kind, dsts) for (kind, dsts), srcs in sources.items()),
                   key=lambda line: (line[0][0], line[1]))
    return "\n".join(f"{', '.join(srcs)} -{kind}-> {', '.join(dsts)}" for srcs, kind, dsts in lines)


def typed_fields(entity):
    """(name, kind, domain, sets, symbol) of an entity by the package's field
    rules, read from a fresh copy of it, which keeps no text."""
    fresh = kg.Entity(entity.id, entity.kind, entity.name, entity.description, entity.fields, entity.source)
    decl = kg.declaration(fresh)
    sets = "{" + ", ".join(getattr(decl, "index_sets", ())) + "}"
    symbol = fresh.fields.get("solver_symbol") or fresh.fields.get("solver_symbol_hint") or "-"
    return fresh.name, fresh.kind, codegen._domain_label(fresh.kind, decl), sets, symbol


def typed_reference(rows):
    """The TYPED ENTITIES text of (name, kind, domain, sets, symbol) rows,
    written row by row: a row whose symbol is its name, a MiniModel name,
    joins the line before when that line is a run with its signature;
    every other row is a five-field line."""
    entries = []  # [names, signature, symbol or None for a run]
    for name, kind, domain, sets, symbol in rows:
        signature = f"{kind} : {domain} : {sets}"
        joins = symbol == name and md.NAME_RE.fullmatch(name) is not None
        if joins and entries and entries[-1][2] is None and entries[-1][1] == signature:
            entries[-1][0].append(name)
        else:
            entries.append([[name], signature, None if joins else symbol])
    return "\n".join(
        f"{', '.join(names)} : {signature}" + ("" if symbol is None else f" : {symbol}")
        for names, signature, symbol in entries
    )


def reference_package(graph, members, check_closed):
    """(typed entities, typed text, subgraph text) of
    build_context_from_members from its former parts: the closedness check,
    the quadratic order of the whole graph seen on the members, the typed
    lines written row by row (typed_reference) and a scan of every
    executability edge (grouped_reference)."""
    ok, violations = is_well_defined(graph, members)
    if check_closed and not ok:
        raise NotClosed(violations)
    for entity_id in members:
        graph.entity(entity_id)  # UnknownEntity for a member not in the graph
    order = [m for m in quadratic_dependency_order(graph, graph.entities) if m in members]
    typed = tuple(map(graph.entity, order))
    return typed, typed_reference(map(typed_fields, typed)), grouped_reference(graph, members)


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
                return package.typed_entities, package.typed_description, package.subgraph_description

            got = package_outcome(build)
            assert got == package_outcome(lambda: reference_package(graph, members, check_closed))
            seen.add(got[0])
    assert seen == {"NotClosed", "UnknownEntity", "package"}


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
        assert package.subgraph_description == grouped_reference(graph, members, leaving=True)


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
        assert package.subgraph_description == grouped_reference(graph, members)
        ghosts = data.draw(st.lists(st.sampled_from(["ghost0", "ghost1", "ghost2"]), min_size=1), label="ghosts")
        targets = data.draw(st.permutations([*order[:size], *ghosts]), label="targets")
        with pytest.raises(UnknownEntity) as raised:
            closure(graph, *targets)
        first_ghost = next(t for t in targets if t not in graph.entities)
        assert str(raised.value) == f"no entity with id {first_ghost!r}"


class PackageText(NamedTuple):
    """A rendered context package, read back by parse_package."""

    typed_lines: list  # (names, (kind, domain, sets), symbol, None for a run) per TYPED ENTITIES line
    subgraph_lines: list  # (sources, kind, targets) per DEPENDENCY SUBGRAPH line
    snippets: list  # (doc id, score) per BACKGROUND SNIPPETS line
    instruction: str

    @property
    def typed(self):
        """(name, kind, domain, sets, symbol) per entity, in order: each name
        of a run is its own symbol."""
        return [(name, *signature, name if symbol is None else symbol)
                for names, signature, symbol in self.typed_lines for name in names]

    @property
    def edges(self):
        """(src, dst, kind) of every source and target of every subgraph line."""
        return {(src, dst, kind) for srcs, kind, dsts in self.subgraph_lines for src in srcs for dst in dsts}


_SNIPPET_LINE = re.compile(r"- \[(.*?)\] \((-?\d+\.\d{4})\) .*", re.DOTALL)


def parse_package(text):
    """Read a rendered package back, section by section: each heading is
    the line after the blank line that ends the section before, so a name
    that spells a heading cannot move one. A TYPED ENTITIES line split at
    " : " is a run (four fields, names split at ", ") or one entity (five
    fields). A DEPENDENCY SUBGRAPH line `s1, s2 -kind-> d1, d2` splits at its
    one "-> " and its last " -": every source has exactly those targets
    under that kind. A snippet line is `- [doc id] (score) text`."""
    lines = text.split("\n")
    assert lines[-1] == "", "a package ends with a line break"
    sections = {}
    at = 0
    for heading in ("TYPED ENTITIES", "DEPENDENCY SUBGRAPH", "BACKGROUND SNIPPETS"):
        assert lines[at] == heading
        end = lines.index("", at)
        sections[heading] = lines[at + 1:end]
        at = end + 1
    assert lines[at] == "INSTRUCTION"
    typed_lines = []
    for line in sections["TYPED ENTITIES"]:
        fields = line.split(" : ")
        assert len(fields) in (4, 5), line
        names = tuple(fields[0].split(", ")) if len(fields) == 4 else (fields[0],)
        typed_lines.append((names, tuple(fields[1:4]), fields[4] if len(fields) == 5 else None))
    subgraph_lines = []
    for line in sections["DEPENDENCY SUBGRAPH"]:
        if line == "(none)":
            assert len(sections["DEPENDENCY SUBGRAPH"]) == 1
            break
        head, arrow, tail = line.partition("-> ")
        srcs, dash, kind = head.rpartition(" -")
        assert arrow and dash and kind in kg.EXEC_KINDS and "-> " not in tail, line
        subgraph_lines.append((tuple(srcs.split(", ")), kind, tuple(tail.split(", "))))
    snippets = []
    for line in sections["BACKGROUND SNIPPETS"]:
        if line == "(none)":
            assert len(sections["BACKGROUND SNIPPETS"]) == 1
            break
        doc_id, score = _SNIPPET_LINE.fullmatch(line).groups()
        snippets.append((doc_id, float(score)))
    return PackageText(typed_lines, subgraph_lines, snippets, "\n".join(lines[at + 1:-1]))


def assert_subgraph_reads_back(graph, package, members):
    """The package's subgraph lines hold the members' internal executability
    edges exactly, one line per (kind, target list): sources and targets
    sorted and distinct, no (source, kind) on two lines, no two lines with
    one (kind, target list), lines in order of their first source, then
    kind."""
    read = parse_package(package.render())
    heads = []
    for srcs, kind, dsts in read.subgraph_lines:
        assert list(srcs) == sorted(set(srcs)) and list(dsts) == sorted(set(dsts))
        heads += [(src, kind) for src in srcs]
    assert len(heads) == len(set(heads))
    pairs = [(kind, dsts) for _srcs, kind, dsts in read.subgraph_lines]
    assert len(pairs) == len(set(pairs))
    firsts = [(srcs[0], kind) for srcs, kind, _dsts in read.subgraph_lines]
    assert firsts == sorted(firsts)
    assert read.edges == {
        (e.src, e.dst, e.kind)
        for e in graph.edges
        if e.kind in kg.EXEC_KINDS and e.src in members and e.dst in members
    }
    return read


def assert_subgraph_parses_back(graph, members, check_closed):
    package = codegen.build_context_from_members(graph, members, [], "x", check_closed)
    return assert_subgraph_reads_back(graph, package, members)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.data())
def test_subgraph_lines_parse_back_to_the_internal_edges_on_random_graphs(seed, cyclic, data):
    """Closed sets and open (window-mode) sets, with paper ids that hold a
    space (`paper:p 03`)."""
    drawn, n = (random_cyclic_graph if cyclic else random_digraph)(random.Random(seed))
    paper = data.draw(st.sets(st.integers(0, n - 1)), label="paper")
    graph = mixed_source_graph(n, paper, [(int(e.src[1:]), int(e.dst[1:]), e.kind) for e in drawn.edges])
    members = data.draw(st.sets(st.sampled_from(graph.sorted_ids())), label="members")
    assert_subgraph_parses_back(graph, closure(graph, *members).members, check_closed=True)
    assert_subgraph_parses_back(graph, members, check_closed=False)


@pytest.mark.parametrize("workload", ["battery-paper", "fjsp-full-model", "kb-scale"])
def test_subgraph_lines_parse_back_to_the_internal_edges_on_benchmark_graphs(benchmark_graphs, workload):
    graph, request_seeds, _requests = benchmark_graphs[workload]
    rng = random.Random(5)
    # Paper ids, such as battery's `paper:load reduction`.
    papers = sorted(entity_id for entity_id, ent in graph.entities.items() if ent.source == kg.SOURCE_PAPER)
    assert papers
    for seeds in [*request_seeds, papers]:
        closed = rt.structural_retrieve(graph, seeds)
        assert_subgraph_parses_back(graph, closed, check_closed=True)
        window = set(rng.sample(sorted(closed), len(closed) // 2)) | set(papers[:3])
        assert_subgraph_parses_back(graph, window, check_closed=False)


# The package's separators, and near misses of them among short Unicode
# texts and MiniModel names (which can join a typed run).
SEPARATORS = (",", "->", " : ", "x :", ": x", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029")
NEAR_MISSES = (":", " :x", "x: ", "-", ">", " -", "- >", "> ", " ", "] (", "(none)", "paper:")
MINIMODEL_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,2}", fullmatch=True)
DRAWN_TEXT = MINIMODEL_NAME | st.lists(
    st.sampled_from(NEAR_MISSES) | st.text(min_size=1, max_size=3) | MINIMODEL_NAME, min_size=1, max_size=3
).map("".join)
PACKAGE_SNIPPETS = (("paper:doc", 0.123456, "first snippet"), ("doc 2", 1.0, "second"))


def drawn_graph(data):
    """A graph ingested from concept cards, or loaded from a document, whose
    names, ids and solver symbols are DRAWN_TEXT, one of them, half the
    time, with a separator put in; None when ingest or load refuses it,
    which it must do exactly when one of them would not read back
    (test_knowledge_graph.unlistable)."""
    n = data.draw(st.integers(2, 8), label="n")
    via_load = data.draw(st.booleans(), label="load")
    texts = {
        "names": data.draw(st.lists(DRAWN_TEXT, min_size=n, max_size=n), label="names"),
        # A symbol is absent, the entity's name or a text of its own.
        "symbols": data.draw(st.lists(st.none() | st.just("") | DRAWN_TEXT, min_size=n, max_size=n),
                             label="symbols"),
        "ids": data.draw(st.lists(DRAWN_TEXT, min_size=n, max_size=n), label="ids") if via_load else [],
    }
    texts["symbols"] = [name if symbol == "" else symbol for name, symbol in zip(texts["names"], texts["symbols"])]
    if data.draw(st.booleans(), label="separator"):
        group = data.draw(st.sampled_from(sorted(key for key, drawn in texts.items() if any(drawn))))
        i = data.draw(st.sampled_from([i for i, text in enumerate(texts[group]) if text is not None]))
        at = data.draw(st.integers(0, len(texts[group][i])), label="at")
        texts[group][i] = texts[group][i][:at] + data.draw(st.sampled_from(SEPARATORS)) + texts[group][i][at:]
    names, symbols, ids = texts["names"], texts["symbols"], texts["ids"]
    assume(len(set(names)) == n and len(set(ids)) == len(ids))
    kinds = data.draw(st.lists(st.sampled_from([kg.PARAMETER, kg.DECISION_VARIABLE, kg.CONSTRAINT, kg.CONCEPT]),
                               min_size=n, max_size=n), label="kinds")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(sorted(kg.EXEC_KINDS)))
    edges = sorted(data.draw(st.sets(pairs.filter(lambda e: e[0] != e[1]), max_size=3 * n), label="edges"))
    drawn = [*names, *filter(None, symbols), *ids]
    try:
        if via_load:
            records = []
            for entity_id, name, symbol, kind in zip(ids, names, symbols, kinds):
                code = kind in (kg.PARAMETER, kg.DECISION_VARIABLE)
                fields = {"index_sets": []} if code else {}
                if symbol is not None:
                    fields["solver_symbol" if code else "solver_symbol_hint"] = symbol
                records.append({"id": entity_id, "kind": kind, "name": name, "description": "",
                                "source": kg.SOURCE_CODE if code else kg.SOURCE_PAPER, "fields": fields})
            document = {"version": 1, "entities": records,
                        "edges": [{"src": ids[s], "dst": ids[d], "kind": kind} for s, d, kind in edges]}
            graph = kg.load(json.loads(json.dumps(document)))
        else:
            relations = [[] for _ in range(n)]
            for s, d, kind in edges:
                relations[s].append((kind, names[d]))
            cards = [kg.ConceptCard(name, kind, solver_symbol_hint=symbol, relations=tuple(rels))
                     for name, symbol, kind, rels in zip(names, symbols, kinds, relations)]
            graph = kg.KnowledgeGraph()
            kg.ingest_concept_cards(cards, graph)
    except SchemaViolation:
        assert any(map(unlistable, drawn))
        return None
    assert not any(map(unlistable, drawn))
    return graph


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_accepted_id_name_and_hint_reads_back_from_the_rendered_package(data):
    """Either ingest or load refuses the drawn texts, or the rendered package
    of a closed and of an open member set reads back (parse_package) to its
    own typed rows, internal executability edges, snippets and instruction."""
    graph = drawn_graph(data)
    if graph is None:
        return
    members = data.draw(st.sets(st.sampled_from(graph.sorted_ids())), label="members")
    for member_set, check_closed in ((closure(graph, *members).members, True), (members, False)):
        package = codegen.build_context_from_members(
            graph, member_set, PACKAGE_SNIPPETS, "the query", check_closed
        )
        read = assert_subgraph_reads_back(graph, package, member_set)
        assert read.typed == list(map(typed_fields, package.typed_entities))
        assert read.snippets == [("paper:doc", 0.1235), ("doc 2", 1.0)]
        assert read.instruction == "the query"


def assert_typed_parses_back(graph, members, check_closed):
    """The package's typed lines hold its typed entities exactly, in order,
    and every run is maximal: no two neighbouring run lines share a
    signature. Returns the package."""
    package = codegen.build_context_from_members(graph, members, [], "x", check_closed)
    read = parse_package(package.render())
    assert read.typed == list(map(typed_fields, package.typed_entities))
    for before, after in zip(read.typed_lines, read.typed_lines[1:]):
        assert not (before[2] is None and after[2] is None and before[1] == after[1])
    return package


def typed_entity(i, style, kind, index_sets, domain):
    """Entity i in one of the line rule's cases: a code entity whose symbol
    is its name, differs from it or is missing, or a paper entity whose name
    holds a space, or whose hint is its name, differs from it or is missing."""
    code = style.startswith("code")
    name = f"p {i:02d}" if style == "paper-space" else f"{'v' if code else 'p'}{i:02d}"
    if code:
        fields = {"index_sets": index_sets}
        if kind == kg.DECISION_VARIABLE:
            fields["domain"] = domain
        symbol = {"code": name, "code-renamed": f"sym{i}"}.get(style)
        if symbol is not None:
            fields["solver_symbol"] = symbol
        return kg.Entity(name, kind, name, fields=fields)
    hint = {"paper-hint": name, "paper-renamed": f"h{i}", "paper-space": f"h{i}"}.get(style)
    fields = {"solver_symbol_hint": hint} if hint is not None else {}
    return kg.Entity(f"paper:{name}", kind, name, fields=fields, source=kg.SOURCE_PAPER)


TYPED_STYLES = ["code", "code-renamed", "code-no-symbol", "paper-space", "paper-hint", "paper-renamed", "paper-no-hint"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_typed_lines_parse_back_to_the_typed_entities_on_random_graphs(data):
    """Graphs with few signatures, so runs form, in every case of the line
    rule; closed sets and open (window-mode) sets."""
    n = data.draw(st.integers(1, 16), label="n")
    entities = [
        typed_entity(
            i,
            data.draw(st.sampled_from(TYPED_STYLES)),
            data.draw(st.sampled_from([kg.PARAMETER, kg.DECISION_VARIABLE, kg.CONSTRAINT])),
            data.draw(st.sampled_from([[], ["T"]])),
            data.draw(st.sampled_from(["binary", "continuous"])),
        )
        for i in range(n)
    ]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(sorted(kg.EXEC_KINDS)))
    edges = data.draw(st.sets(pairs.filter(lambda e: e[0] != e[1]), max_size=2 * n), label="edges")
    graph = kg.KnowledgeGraph()
    graph.add_all(entities, [kg.Edge(entities[s].id, entities[d].id, kind) for s, d, kind in sorted(edges)])
    members = data.draw(st.sets(st.sampled_from(graph.sorted_ids())), label="members")
    assert_typed_parses_back(graph, closure(graph, *members).members, check_closed=True)
    assert_typed_parses_back(graph, members, check_closed=False)


@pytest.mark.parametrize("workload", ["battery-paper", "fjsp-full-model", "kb-scale"])
def test_typed_lines_parse_back_to_the_typed_entities_on_benchmark_graphs(benchmark_graphs, workload):
    graph, request_seeds, _requests = benchmark_graphs[workload]
    rng = random.Random(5)
    papers = sorted(entity_id for entity_id, ent in graph.entities.items() if ent.source == kg.SOURCE_PAPER)
    runs = 0
    for seeds in [*request_seeds, papers]:
        closed = rt.structural_retrieve(graph, seeds)
        package = assert_typed_parses_back(graph, closed, check_closed=True)
        runs += len(package.typed_entities) - len(package.typed_description.split("\n"))
        window = set(rng.sample(sorted(closed), len(closed) // 2)) | set(papers[:3])
        assert_typed_parses_back(graph, window, check_closed=False)
    assert runs > 0  # some line lists two or more entities


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
    assert codegen.typed_signature(graph.entity("y")) == ("decision_variable : binary : {T}", None)
    graph = ingest("set T = 1..4; var y{T} binary; var z{T} binary; con c{t in T}: y[t] + z[t] <= 1;")
    assert package_for(graph, "c").typed_description.split("\n") == [
        "T : index_set : 1..4 : {}",
        "y, z : decision_variable : binary : {T}",
        "c : constraint : - : {}",
    ]
    rate = kg.Entity("paper:rate", kg.PARAMETER, "incentive rate", fields={"solver_symbol_hint": "rate"},
                     source=kg.SOURCE_PAPER)
    assert codegen.typed_lines([rate]) == "incentive rate : parameter : numeric : {} : rate"


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
        texts.append((package.typed_description.split("\n")[-1], codegen.TemplateGenerator()(package)))
    assert texts[0] == texts[2] == ("q : parameter : numeric : {}", "param q = 3;\n")
    assert texts[1] == texts[3] == ("q : parameter : numeric : {T}", "set T = 1..2;\nparam q{T};\n")


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
