"""Reachability and level helpers over dependency graphs."""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.errors import GraphError
from repro.graph.dag import DependencyGraph


def ancestors(graph: DependencyGraph, node_id: str) -> set[str]:
    """All transitive producers ``node_id`` depends on (excluding itself)."""
    return _reach(graph, node_id, graph.parents)


def _reach(graph: DependencyGraph, start: str, step) -> set[str]:
    if start not in graph:
        raise GraphError(f"unknown node {start!r}")
    seen: set[str] = set()
    frontier = deque(step(start))
    while frontier:
        node = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(step(node))
    return seen


def longest_path_levels(graph: DependencyGraph) -> dict[str, int]:
    """Level of each node = length of the longest producer chain above it.

    Sources are level 0. Levels define the "stages" used when reporting DAG
    height (number of distinct levels) and width (max nodes on one level).
    """
    levels: dict[str, int] = {}
    indegree = {v: graph.in_degree(v) for v in graph.nodes()}
    frontier = deque(v for v in graph.nodes() if indegree[v] == 0)
    for v in frontier:
        levels[v] = 0
    processed = 0
    while frontier:
        node = frontier.popleft()
        processed += 1
        for child in graph.children(node):
            levels[child] = max(levels.get(child, 0), levels[node] + 1)
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
    if processed != graph.n:
        raise GraphError("longest_path_levels requires an acyclic graph")
    return levels


def last_consumer_position(graph: DependencyGraph,
                           order: Sequence[str]) -> dict[str, int]:
    """For each node, the order-position of its last consumer.

    This is ``max_{(v_i, v_j) in E} τ(j)`` from the paper — the moment a
    flagged node may leave the Memory Catalog. Nodes without consumers map to
    their own position: they occupy memory only while being created.
    """
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.n:
        raise GraphError("order must cover every node exactly once")
    at = position.__getitem__
    release: dict[str, int] = {}
    for node in graph:
        children = graph.children(node)
        release[node] = max(map(at, children)) if children else at(node)
    return release
