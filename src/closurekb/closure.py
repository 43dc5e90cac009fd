"""Minimal dependency closure over executability edges.

The closure of a target entity is the forward-reachable set over used_in and
depends_on edges, including the target. Traversal is breadth-first with
neighbors expanded in sorted-id order, so visit order is deterministic and
cycles terminate via the visited set. The closure of several targets is
walked in one traversal with one visited set. The walks and the closedness
check read each member's executability targets, which the graph keeps
(KnowledgeGraph.exec_out) from their first read after an edge is added, so a
walk costs the members it visits, not the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import UnknownEntity
from .knowledge_graph import EXEC_KINDS, KnowledgeGraph


@dataclass(frozen=True)
class ClosureResult:
    target: str
    members: frozenset[str]
    visit_order: tuple[str, ...]
    edge_count: int


def closure(graph: KnowledgeGraph, target: str) -> ClosureResult:
    """BFS forward reachability over executability edges from `target`.

    The closure holds every executability out-edge of its members, so
    edge_count is their total executability out-degree.
    """
    if target not in graph:
        raise UnknownEntity(f"no entity with id {target!r}")
    visited = {target}
    order = [target]
    queue = deque([target])
    edge_count = 0
    while queue:
        # Targets in edges_from order, sorted by (dst, kind): sorted-id order.
        targets, _lines = graph.exec_out(queue.popleft())
        edge_count += len(targets)
        for dst in targets:
            if dst not in visited:
                visited.add(dst)
                order.append(dst)
                queue.append(dst)
    return ClosureResult(
        target=target,
        members=frozenset(visited),
        visit_order=tuple(order),
        edge_count=edge_count,
    )


def closure_union(graph: KnowledgeGraph, targets) -> frozenset[str]:
    """Members of the union of the closures of `targets`.

    One traversal from all targets at once, sharing a single visited set, so
    an entity reached from several targets is expanded once. Raises
    UnknownEntity for the first unknown target in the order given.
    """
    targets = list(targets)
    for target in targets:
        if target not in graph:
            raise UnknownEntity(f"no entity with id {target!r}")
    visited = set(targets)
    stack = list(visited)
    exec_out = graph.exec_out
    while stack:
        for dst in exec_out(stack.pop())[0]:
            if dst not in visited:
                visited.add(dst)
                stack.append(dst)
    return frozenset(visited)


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
