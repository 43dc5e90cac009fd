"""Dependency closure versus an independent reachability oracle, plus the
idempotence / minimality / monotonicity property suites."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import knowledge_graph as kg
from closurekb.closure import closure, induced_subgraph, is_well_defined
from closurekb.errors import UnknownEntity


def make_graph(n_nodes, edges):
    graph = kg.KnowledgeGraph()
    for i in range(n_nodes):
        graph.add_entity(
            kg.Entity(
                id=f"n{i:02d}",
                kind=kg.CONCEPT,
                name=f"n{i:02d}",
                fields={"solver_symbol": f"n{i:02d}"},
            )
        )
    for src, dst, kind in edges:
        graph.add_edge(f"n{src:02d}", f"n{dst:02d}", kind)
    return graph


def reachable_by_relaxation(graph, target):
    """Independent oracle: repeated edge relaxation to a fixpoint."""
    reach = {target}
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.kind in kg.EXEC_KINDS and edge.src in reach and edge.dst not in reach:
                reach.add(edge.dst)
                changed = True
    return frozenset(reach)


def random_digraph(rng):
    n = rng.randint(1, 12)
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        src, dst = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if src != dst:
            edges.add((src, dst, rng.choice(kg.EDGE_KINDS)))
    return make_graph(n, sorted(edges)), n


def test_isolated_node_closure_is_itself():
    graph = make_graph(2, [(1, 0, kg.USED_IN)])
    result = closure(graph, "n00")
    assert result.members == frozenset({"n00"})
    assert result.visit_order == ("n00",)
    assert result.edge_count == 0


def test_unknown_target_raises():
    graph = make_graph(1, [])
    with pytest.raises(UnknownEntity):
        closure(graph, "ghost")


def test_cycles_terminate_and_bfs_order_is_sorted():
    graph = make_graph(3, [(0, 1, kg.USED_IN), (1, 2, kg.DEPENDS_ON), (2, 0, kg.USED_IN)])
    result = closure(graph, "n00")
    assert result.members == frozenset({"n00", "n01", "n02"})
    assert result.visit_order == ("n00", "n01", "n02")


def test_aligns_to_edges_are_not_followed():
    graph = make_graph(2, [(0, 1, kg.ALIGNS_TO)])
    assert closure(graph, "n00").members == frozenset({"n00"})


def test_closure_equals_relaxation_oracle_on_1000_random_digraphs():
    rng = random.Random(99)
    for _ in range(1000):
        graph, n = random_digraph(rng)
        target = f"n{rng.randint(0, n - 1):02d}"
        assert closure(graph, target).members == reachable_by_relaxation(graph, target)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.data())
def test_closure_of_several_targets_equals_the_union_of_single_closures(seed, data):
    graph, n = random_digraph(random.Random(seed))
    targets = data.draw(st.lists(st.sampled_from(graph.sorted_ids()), max_size=n + 2))
    expected = frozenset().union(*(closure(graph, t).members for t in targets))
    result = closure(graph, *targets)
    assert result.members == expected
    # The walk starts from the targets in the order given, each visited once.
    starts = list(dict.fromkeys(targets))
    assert list(result.visit_order[: len(starts)]) == starts
    assert sorted(result.visit_order) == sorted(expected)
    assert result.edge_count == len(exec_edges_within_scan(graph, expected))


def test_closure_names_the_first_unknown_target():
    # It names the first unknown target in the order given, not in hash order.
    graph = make_graph(2, [(0, 1, kg.USED_IN)])
    ghosts = [f"ghost{i}" for i in range(20)]
    with pytest.raises(UnknownEntity, match="'ghost0'"):
        closure(graph, "n00", *ghosts)


def test_idempotence_minimality_monotonicity():
    rng = random.Random(1234)
    for _ in range(200):
        graph, n = random_digraph(rng)
        target = f"n{rng.randint(0, n - 1):02d}"
        result = closure(graph, target)
        # Idempotence: recomputing from the target yields the same set.
        assert closure(graph, target).members == result.members
        # Closedness + minimality: every member is reachable and no exec edge escapes.
        ok, violations = is_well_defined(graph, result.members)
        assert ok and violations == []
        for member in result.members - {target}:
            assert member in reachable_by_relaxation(graph, target)
        # Monotonicity: adding one edge never shrinks the closure.
        ids = graph.sorted_ids()
        if len(ids) >= 2:
            src, dst = rng.sample(ids, 2)
            bigger = kg.KnowledgeGraph()
            for entity_id in ids:
                bigger.add_entity(graph.entities[entity_id])
            for edge in graph.edges:
                bigger.add_edge(edge.src, edge.dst, edge.kind)
            bigger.add_edge(src, dst, kg.USED_IN)
            assert closure(bigger, target).members >= result.members


def test_visit_order_expands_neighbors_in_sorted_id_order():
    graph = make_graph(4, [(0, 3, kg.USED_IN), (0, 1, kg.DEPENDS_ON), (1, 2, kg.USED_IN)])
    result = closure(graph, "n00")
    assert result.visit_order == ("n00", "n01", "n03", "n02")


def test_induced_subgraph_excludes_external_and_aligns_edges():
    graph = make_graph(
        3, [(0, 1, kg.USED_IN), (1, 2, kg.DEPENDS_ON), (0, 2, kg.ALIGNS_TO)]
    )
    sub = induced_subgraph(graph, {"n00", "n01"})
    assert set(sub.entities) == {"n00", "n01"}
    assert {(e.src, e.dst, e.kind) for e in sub.edges} == {("n00", "n01", kg.USED_IN)}


def test_induced_subgraph_single_member():
    graph = make_graph(2, [(0, 1, kg.USED_IN)])
    sub = induced_subgraph(graph, {"n00"})
    assert len(sub) == 1 and sub.edges == ()


def test_induced_subgraph_full_graph_keeps_all_exec_edges():
    graph = make_graph(3, [(0, 1, kg.USED_IN), (1, 2, kg.DEPENDS_ON)])
    sub = induced_subgraph(graph, set(graph.entities))
    assert len(sub.edges) == 2


def test_induced_subgraph_unknown_member_raises():
    graph = make_graph(1, [])
    with pytest.raises(UnknownEntity):
        induced_subgraph(graph, {"ghost"})


def test_is_well_defined_reports_escaping_edges():
    graph = make_graph(2, [(0, 1, kg.USED_IN)])
    ok, violations = is_well_defined(graph, {"n00"})
    assert not ok and violations == [("n00", "n01")]


def test_is_well_defined_vacuous_on_empty_set():
    graph = make_graph(1, [])
    assert is_well_defined(graph, set()) == (True, [])


def exec_edges_within_scan(graph, members):
    return sorted(
        (e.src, e.dst, e.kind)
        for e in graph.edges
        if e.kind in kg.EXEC_KINDS and e.src in members and e.dst in members
    )


def escaping_pairs_scan(graph, members):
    return sorted(
        (e.src, e.dst)
        for e in graph.edges
        if e.kind in kg.EXEC_KINDS and e.src in members and e.dst not in members
    )


def test_member_local_checks_equal_whole_edge_scans_on_500_random_digraphs():
    rng = random.Random(2718)
    for _ in range(500):
        graph, n = random_digraph(rng)
        ids = graph.sorted_ids()
        members = set(rng.sample(ids, rng.randint(0, n)))
        violations = escaping_pairs_scan(graph, members)
        assert is_well_defined(graph, members) == (not violations, violations)
        # Ids absent from the graph are ignored by the check ...
        assert is_well_defined(graph, members | {"ghost"}) == (not violations, violations)
        sub = induced_subgraph(graph, members)
        assert sorted((e.src, e.dst, e.kind) for e in sub.edges) == exec_edges_within_scan(graph, members)
        # ... but rejected by the subgraph.
        with pytest.raises(UnknownEntity):
            induced_subgraph(graph, members | {"ghost"})
        result = closure(graph, rng.choice(ids))
        assert result.edge_count == len(exec_edges_within_scan(graph, result.members))
