"""Topological orders: the deterministic Kahn order, and validation.

S/C's initial execution order (Algorithm 2 line 1) is "any topological
sort"; the core optimizer treats "an order" uniformly as a list of node
ids that respects every dependency edge.  MA-DFS, the DFS-flavoured
order of §V-B, lives in :mod:`repro.core.madfs`.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.errors import CycleError, GraphError
from repro.graph.dag import DependencyGraph


def kahn_topological_order(graph: DependencyGraph) -> list[str]:
    """Kahn's algorithm; among ready nodes, the earliest inserted runs
    first, which keeps results reproducible run to run."""
    rank = {v: i for i, v in enumerate(graph.nodes())}
    indegree = {v: graph.in_degree(v) for v in graph.nodes()}
    heap = [(rank[v], v) for v in graph.nodes() if indegree[v] == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, node = heapq.heappop(heap)
        order.append(node)
        for child in graph.children(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, (rank[child], child))
    if len(order) != graph.n:
        raise CycleError(
            "graph has a cycle; topological order covers "
            f"{len(order)}/{graph.n} nodes")
    return order


def is_topological_order(graph: DependencyGraph,
                         order: Sequence[str]) -> bool:
    """True iff ``order`` is a permutation of the nodes respecting all edges."""
    if len(order) != graph.n or set(order) != set(graph.nodes()):
        return False
    position = {v: i for i, v in enumerate(order)}
    return all(position[u] < position[v] for u, v in graph.edges())


def check_topological_order(graph: DependencyGraph,
                            order: Sequence[str]) -> None:
    """Raise :class:`GraphError` with a specific reason if order is invalid."""
    if len(order) != graph.n:
        raise GraphError(
            f"order has {len(order)} entries for a {graph.n}-node graph")
    seen: set[str] = set()
    for node in order:
        if node not in graph:
            raise GraphError(f"order mentions unknown node {node!r}")
        if node in seen:
            raise GraphError(f"order repeats node {node!r}")
        seen.add(node)
    position = {v: i for i, v in enumerate(order)}
    for producer, consumer in graph.edges():
        if position[producer] >= position[consumer]:
            raise GraphError(
                f"order violates dependency {producer!r} -> {consumer!r}")
