"""Recursive graph-separator ordering (paper §VI-A, *Separator* baseline).

The paper's divide-and-conquer baseline for S/C Opt Order "recursively finds
separators/cuts in the DAG to partition nodes. In each iteration, a subgraph
is partitioned into two via a cut; the algorithm stops when the original DAG
has been partitioned into a series of singleton nodes by the cuts. These
cuts define the execution order." [Ravi et al.; Rao & Richa]

We implement the standard precedence-respecting bisection: split a node set
into an earlier half ``A`` and later half ``B`` such that no edge runs from
``B`` to ``A``, choosing the split that (heuristically) minimizes the
weighted cut of memory-resident producers crossing into ``B``. Each half is
then ordered recursively. The weight of a crossing edge is the *flagged*
producer's size — a flagged producer with a consumer in ``B`` stays resident
across all of ``A``'s tail, which is exactly the cost the average-memory
objective charges.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import GraphError
from repro.graph.dag import DependencyGraph
from repro.graph.topo import kahn_topological_order

# Tiny weight for unflagged crossings so the heuristic still prefers fewer
# crossings when no flagged producer is at stake.
_EPSILON_WEIGHT = 1e-6


def _cut_weight(graph: DependencyGraph, order: Sequence[str], split: int,
                node_weight: Mapping[str, float]) -> float:
    """Weighted producer->B crossings for the prefix/suffix split."""
    prefix = set(order[:split])
    weight = 0.0
    for producer in prefix:
        crossing = any(child not in prefix
                       for child in graph.children(producer))
        if crossing:
            weight += node_weight.get(producer, 0.0) + _EPSILON_WEIGHT
    return weight


def _refine_split(graph: DependencyGraph, order: list[str], split: int,
                  node_weight: Mapping[str, float]) -> list[str]:
    """Local moves across the boundary that reduce the cut weight, for
    at most two passes.

    A node just before the boundary may move to ``B`` if all its children are
    in ``B``; a node just after may move to ``A`` if all its parents are in
    ``A``. Only swaps of boundary-adjacent nodes are tried, which keeps the
    halves balanced and the refinement linear per pass.
    """
    position = {v: i for i, v in enumerate(order)}
    for _ in range(2):
        improved = False
        current = _cut_weight(graph, order, split, node_weight)
        left, right = order[split - 1], order[split]
        movable = (
            all(position[c] >= split for c in graph.children(left))
            and all(position[p] < split - 1 for p in graph.parents(right))
            and not graph.has_edge(left, right)
        )
        if movable:
            order[split - 1], order[split] = right, left
            position[left], position[right] = split, split - 1
            if _cut_weight(graph, order, split, node_weight) < current:
                improved = True
            else:  # revert
                order[split - 1], order[split] = left, right
                position[left], position[right] = split - 1, split
        if not improved:
            break
    return order


def _order_recursive(graph: DependencyGraph, nodes: list[str],
                     node_weight: Mapping[str, float]) -> list[str]:
    if len(nodes) <= 1:
        return list(nodes)
    sub = graph.subgraph(nodes)
    base = kahn_topological_order(sub)
    split = len(base) // 2
    base = _refine_split(sub, base, split, node_weight)
    left = _order_recursive(graph, base[:split], node_weight)
    right = _order_recursive(graph, base[split:], node_weight)
    return left + right


def separator_order(graph: DependencyGraph,
                    flagged: set[str] | None = None) -> list[str]:
    """Execution order from recursive separators.

    ``flagged`` supplies the candidate in-memory nodes; their sizes weight
    the cuts. Note the known weakness the paper calls out (§VI-F): the
    Memory-Catalog budget cannot be folded into the cut objective, so the
    produced order may be infeasible for the flag set — the alternating
    optimizer detects that and stops early.
    """
    flagged = flagged or set()
    unknown = flagged - set(graph.nodes())
    if unknown:
        raise GraphError(f"flagged mentions unknown nodes: {sorted(unknown)}")
    node_weight = {v: (graph.size_of(v) if v in flagged else 0.0)
                   for v in graph.nodes()}
    order = _order_recursive(graph, graph.nodes(), node_weight)
    return order
