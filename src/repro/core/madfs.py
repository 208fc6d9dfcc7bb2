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

import heapq
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
    """Memory-aware DFS execution order for the given flagged set.

    The ready set is a heap of ``(weight, lookahead, -readiness,
    insertion)`` keys, so a step costs ``O(log n)`` plus the co-parents
    of the node's children, not a scan of every ready node.  While a
    node waits, only its lookahead can change, and it only falls: it is
    a minimum over its children's pending-parent counts, which only
    drop.  So when a child's count drops, each ready flagged co-parent
    whose lookahead falls is pushed again under its new key, and a
    popped entry that is not its node's latest (or whose node ran) is
    skipped.  Keys are unique by insertion, so the first live entry
    popped is the minimum the definition above asks for.
    """
    flagged = set(flagged)
    weight = actual_memory_consumption(graph, flagged)
    nodes = graph.nodes()
    insertion = {v: i for i, v in enumerate(nodes)}
    children = {v: graph.children(v) for v in nodes}
    parents = {v: graph.parents(v) for v in nodes}
    pending_parents = {v: len(parents[v]) for v in nodes}

    heap: list[tuple[float, int, int, int, str]] = []
    # ready flagged node -> (lookahead, -readiness); its latest heap key
    waiting: dict[str, tuple[int, int]] = {}
    ready_counter = 0

    def make_ready(node: str) -> None:
        nonlocal ready_counter
        if node in flagged:
            # release lookahead: 0 means some child becomes fully
            # unblocked by this node alone; larger values mean every
            # child still waits on other branches.  Only meaningful
            # for flagged nodes — unflagged ones occupy nothing.
            ahead = min((pending_parents[c] - 1 for c in children[node]),
                        default=0)
            waiting[node] = (ahead, -ready_counter)
        else:
            ahead = 0
        heapq.heappush(heap, (weight[node], ahead, -ready_counter,
                              insertion[node], node))
        ready_counter += 1

    for node in nodes:
        if pending_parents[node] == 0:
            make_ready(node)

    order: list[str] = []
    while heap:
        _, ahead, readiness, _, node = heapq.heappop(heap)
        if node in flagged:
            if waiting.get(node) != (ahead, readiness):
                continue  # ran already, or pushed again with a lower key
            del waiting[node]
        order.append(node)
        for child in children[node]:
            pending_parents[child] -= 1
            left = pending_parents[child]
            if left == 0:
                make_ready(child)
                continue
            for co_parent in parents[child]:
                entry = waiting.get(co_parent)
                if entry is not None and left - 1 < entry[0]:
                    waiting[co_parent] = (left - 1, entry[1])
                    heapq.heappush(heap, (weight[co_parent], left - 1,
                                          entry[1], insertion[co_parent],
                                          co_parent))

    if len(order) != graph.n:
        raise CycleError(
            f"graph has a cycle; MA-DFS covered {len(order)}/{graph.n} nodes")
    return order
