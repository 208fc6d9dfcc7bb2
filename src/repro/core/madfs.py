"""MA-DFS — memory-aware DFS scheduling for S/C Opt Order (paper §V-B).

A DFS-based topological order already minimizes the gap between a node and
its consumers by finishing one branch before starting the next. What an
off-the-shelf DFS gets wrong is *tie-breaking*: descending into a large
flagged branch first keeps that node resident across every sibling branch
explored afterwards (Figure 8). MA-DFS breaks ties by **actual memory
consumption** — a node's size if it is flagged, zero otherwise — scheduling
cheap branches first so the expensive flagged producers run as late as
possible and are consumed (hence released) immediately after.

Concretely, the scheduler repeatedly picks the minimum-key node among the
*ready* set, keyed by

1. actual memory consumption (ascending) — the paper's tie-break;
2. *release lookahead* for flagged candidates (ascending): the smallest
   number of still-unscheduled co-parents across the node's children. A
   flagged node whose child also waits on another unexplored branch will
   sit in memory through that whole branch; one whose child depends only on
   it is released immediately. This refines ties between equally-sized
   flagged branches (e.g. Figure 8's v3 vs v4), which the paper's criterion
   alone cannot order;
3. readiness recency (most recently readied first) — exactly the stack
   discipline of DFS, so among equal candidates the traversal still
   finishes the current branch before opening a new one;
4. node insertion order — full determinism.

On Figure 7's graph this reproduces ``τ2`` (the cheap leaf ``v4`` runs
before the flagged ``v3``, letting ``v1`` leave memory first), and on
Figure 8's it schedules the unflagged ``v2`` before the flagged ``v3`` and
defers ``v4`` until its co-parent branch has run.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import CycleError
from repro.graph.dag import DependencyGraph


def actual_memory_consumption(graph: DependencyGraph,
                              flagged: Iterable[str]) -> dict[str, float]:
    """Per-node tie-break weight: size when flagged, else 0 (paper §V-B)."""
    flagged = set(flagged)
    return {v: (graph.size_of(v) if v in flagged else 0.0)
            for v in graph.nodes()}


def ma_dfs_order(graph: DependencyGraph,
                 flagged: Iterable[str]) -> list[str]:
    """Memory-aware DFS execution order for the given flagged set."""
    flagged = set(flagged)
    weight = actual_memory_consumption(graph, flagged)
    insertion = {v: i for i, v in enumerate(graph.nodes())}
    pending_parents = {v: graph.in_degree(v) for v in graph.nodes()}

    ready: dict[str, int] = {}  # node -> readiness timestamp
    ready_counter = 0
    for node in graph.nodes():
        if pending_parents[node] == 0:
            ready[node] = ready_counter
            ready_counter += 1

    def release_lookahead(node: str) -> int:
        """How soon could this node leave memory once scheduled?

        0 means some child becomes fully unblocked by this node alone;
        larger values mean every child still waits on other branches.
        Only meaningful for flagged nodes — unflagged ones occupy nothing.
        """
        if node not in flagged:
            return 0
        children = graph.children(node)
        if not children:
            return 0
        return min(pending_parents[child] - 1 for child in children)

    order: list[str] = []
    while ready:
        node = min(
            ready,
            key=lambda v: (weight[v], release_lookahead(v), -ready[v],
                           insertion[v]),
        )
        del ready[node]
        order.append(node)
        for child in graph.children(node):
            pending_parents[child] -= 1
            if pending_parents[child] == 0:
                ready[child] = ready_counter
                ready_counter += 1

    if len(order) != graph.n:
        raise CycleError(
            f"graph has a cycle; MA-DFS covered {len(order)}/{graph.n} nodes")
    return order

