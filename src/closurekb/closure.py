"""Minimal dependency closure over executability edges.

The closure of a set of targets is the forward-reachable set over used_in
and depends_on edges, including the targets. `closure` is the one walk:
breadth-first from the targets in the order given, with one visited set and
neighbors expanded in sorted-id order, so visit order is deterministic, an
entity reached from several targets is expanded once, and cycles terminate.
`is_well_defined` is the one closedness check: the escaping pairs it lists
are the ones codegen's NotClosed carries. The walk and the check read each
member's executability targets, which the graph keeps
(KnowledgeGraph.exec_out) from their first read after an edge is added, so
a walk costs the members it visits, not the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .knowledge_graph import EXEC_KINDS, KnowledgeGraph


@dataclass(frozen=True)
class ClosureResult:
    members: frozenset[str]
    visit_order: tuple[str, ...]
    edge_count: int


def closure(graph: KnowledgeGraph, *targets: str) -> ClosureResult:
    """BFS forward reachability over executability edges from `targets`.

    The walk starts from the targets in the order given, repeats dropped.
    The closure holds every executability out-edge of its members, so
    edge_count is their total executability out-degree. Raises UnknownEntity
    for the first unknown target.
    """
    order = list(dict.fromkeys(targets))
    visited = set(order)
    if not graph.entities.keys() >= visited:
        for target in order:
            graph.entity(target)  # UnknownEntity for the first unknown id
    edge_count = 0
    # The visit order is the queue: the loop reaches each entity appended.
    for node in order:
        # Targets in edges_from order, sorted by (dst, kind): sorted-id order.
        reached, _lines = graph.exec_out(node)
        edge_count += len(reached)
        for dst in reached:
            if dst not in visited:
                visited.add(dst)
                order.append(dst)
    return ClosureResult(members=frozenset(visited), visit_order=tuple(order), edge_count=edge_count)


def induced_subgraph(graph: KnowledgeGraph, members) -> KnowledgeGraph:
    """Subgraph of `members` with exactly the internal executability edges.

    aligns_to edges are excluded; entity records are shared (read-only use).
    """
    member_set = set(members)
    sub = KnowledgeGraph()
    edges = [e for src in member_set for e in graph.edges_from(src) if e.kind in EXEC_KINDS]
    sub.add_all(map(graph.entity, sorted(member_set)), [e for e in edges if e.dst in member_set])
    return sub


def is_well_defined(graph: KnowledgeGraph, members) -> tuple[bool, list[tuple[str, str]]]:
    """True iff `members` is closed under executability out-edges.

    Returns the escaping (src, dst) pairs, sorted, when it is not.
    """
    member_set = set(members)
    violations = sorted(
        (src, dst)
        for src in member_set
        for dst in graph.exec_out(src)[0]
        if dst not in member_set
    )
    return (not violations, violations)
