"""DFS topological order with random tie-breaking (test oracle).

The paper's "DFS with random tie-breaking" ablation (§V-B): the same
branch-at-a-time traversal as MA-DFS, except that among simultaneously
readied nodes a random one is descended into first.  MA-DFS must beat it
on average memory usage (``tests/test_madfs.py``).
"""

from __future__ import annotations

import random

from repro.errors import CycleError
from repro.graph.dag import DependencyGraph


def dfs_topological_order(graph: DependencyGraph,
                          rng: random.Random | None = None) -> list[str]:
    """DFS-flavoured topological order.

    After emitting a node, its *newly ready* children are pushed on a
    stack so the traversal finishes a branch before starting a new one.
    Without ``rng`` insertion order breaks ties; with it, ties are
    broken uniformly at random.
    """
    if rng is None:
        rank = {v: i for i, v in enumerate(graph.nodes())}
    else:
        rank = {v: rng.random() for v in graph.nodes()}
    indegree = {v: graph.in_degree(v) for v in graph.nodes()}
    # pushing children sorted descending by rank puts the smallest rank
    # on top, i.e. explored first, depth-first
    stack = sorted((v for v in graph.nodes() if indegree[v] == 0),
                   key=rank.__getitem__, reverse=True)
    order: list[str] = []
    while stack:
        node = stack.pop()
        order.append(node)
        ready = []
        for child in graph.children(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
        stack.extend(sorted(ready, key=rank.__getitem__, reverse=True))
    if len(order) != graph.n:
        raise CycleError(
            "graph has a cycle; DFS order covers "
            f"{len(order)}/{graph.n} nodes")
    return order
