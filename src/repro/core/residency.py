"""Residency intervals and memory-usage accounting (paper §IV and §V).

Under S/C's memory-management scheme a flagged node ``v_j`` occupies the
Memory Catalog from the moment it executes (position ``τ(j)``) until its
last consumer finishes (``max_{(v_j, v_k) in E} τ(k)``; its own position if
it has no consumers). Everything the optimizer needs derives from these
intervals:

* the residency sets ``V_i`` (which flagged candidates coexist at each
  execution step) — the MKP constraints;
* *peak* memory usage — the feasibility test of Problem 1; and
* *average* memory usage — S/C Opt Order's objective (Problem 3).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import GraphError
from repro.graph.dag import DependencyGraph
from repro.graph.traversal import last_consumer_position


def residency_intervals(graph: DependencyGraph,
                        order: Sequence[str]) -> dict[str, tuple[int, int]]:
    """Per node, the inclusive position interval it would occupy if flagged.

    Returns ``{node: (start, end)}`` with ``start = τ(node)`` and ``end`` the
    position of its last consumer (``start`` itself for consumer-less nodes).
    """
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.n or set(position) != set(graph.nodes()):
        raise GraphError("order must be a permutation of the graph's nodes")
    release = last_consumer_position(graph, order)
    return {v: (position[v], release[v]) for v in graph.nodes()}


def memory_profile(graph: DependencyGraph, order: Sequence[str],
                   flagged: Iterable[str]) -> list[float]:
    """Flagged-bytes resident at each execution position (length ``n``).

    ``profile[p]`` is the combined size of flagged nodes whose residency
    interval covers position ``p`` — the shaded-region heights in Figures 7
    and 8.
    """
    flagged = set(flagged)
    intervals = residency_intervals(graph, order)
    profile = [0.0] * len(order)
    for node in flagged:
        if node not in intervals:
            raise GraphError(f"flagged node {node!r} not in graph")
        start, end = intervals[node]
        size = graph.size_of(node)
        for p in range(start, end + 1):
            profile[p] += size
    return profile


def peak_memory_usage(graph: DependencyGraph, order: Sequence[str],
                      flagged: Iterable[str]) -> float:
    """Maximum combined flagged size at any execution step.

    Uses a difference array, so it is ``O(n + |U|)`` — the linear scan
    Algorithm 2 relies on (line 8).
    """
    flagged = set(flagged)
    if not flagged:
        return 0.0
    intervals = residency_intervals(graph, order)
    delta = [0.0] * (len(order) + 1)
    for node in flagged:
        if node not in intervals:
            raise GraphError(f"flagged node {node!r} not in graph")
        start, end = intervals[node]
        delta[start] += graph.size_of(node)
        delta[end + 1] -= graph.size_of(node)
    peak = 0.0
    running = 0.0
    for value in delta[:-1]:
        running += value
        peak = max(peak, running)
    return peak


def average_memory_usage(graph: DependencyGraph, order: Sequence[str],
                         flagged: Iterable[str]) -> float:
    """S/C Opt Order's objective (Problem 3).

    ``(1/n) Σ_{v_i in U} (max_{(v_i,v_j) in E} τ(j) − τ(i)) · s_i`` —
    the size-weighted residency duration of flagged nodes, assuming unit job
    execution times. Lower is better: it means flagged nodes are released
    sooner, freeing room to flag more nodes in the next alternating round.
    """
    flagged = set(flagged)
    if not flagged:
        return 0.0
    intervals = residency_intervals(graph, order)
    terms = []
    for node in flagged:
        if node not in intervals:
            raise GraphError(f"flagged node {node!r} not in graph")
        start, end = intervals[node]
        terms.append((end - start) * graph.size_of(node))
    # exact sum: ``flagged`` is a set, and its order must not reach a float
    return math.fsum(terms) / len(order)


def is_feasible(graph: DependencyGraph, order: Sequence[str],
                flagged: Iterable[str], memory_budget: float) -> bool:
    """Problem 1's constraint: peak flagged residency within the budget."""
    return peak_memory_usage(graph, order, flagged) <= memory_budget + 1e-9


def assign_expected_tiers(graph: DependencyGraph, order: Sequence[str],
                          flagged: Iterable[str], ram_budget: float,
                          tiers: Sequence[tuple[str, float]],
                          ) -> dict[str, str]:
    """Static tier placement for a tier-aware plan.

    Predicts which storage tier each flagged node will occupy during its
    residency interval, assuming the runtime demotes overflow downward:
    nodes are visited in execution order and placed in the hottest tier
    whose capacity can hold them for their *entire* interval; whatever
    fits nowhere lands in the last tier (mirroring the runtime's
    unbounded last resort).

    Args:
        graph: the dependency DAG.
        order: the plan's execution order.
        flagged: the plan's flagged set.
        ram_budget: tier-0 (RAM) capacity in GB.
        tiers: lower tiers as ``(name, capacity)`` pairs, hottest first.

    Returns:
        ``{node: tier_name}`` for every flagged node, tier names being
        ``"ram"`` or the given lower-tier names.
    """
    flagged = set(flagged)
    if not flagged:
        return {}
    intervals = residency_intervals(graph, order)
    stray = flagged - set(intervals)
    if stray:
        raise GraphError(f"flagged nodes not in graph: {sorted(stray)}")
    levels: list[tuple[str, float]] = [("ram", ram_budget), *tiers]
    usage = [[0.0] * len(order) for _ in levels]
    assignment: dict[str, str] = {}
    for node in sorted(flagged, key=lambda v: (intervals[v][0], v)):
        start, end = intervals[node]
        size = graph.size_of(node)
        placed = len(levels) - 1
        for index, (_, capacity) in enumerate(levels):
            span = usage[index][start:end + 1]
            if (max(span) if span else 0.0) + size <= capacity + 1e-9:
                placed = index
                break
        for p in range(start, end + 1):
            usage[placed][p] += size
        assignment[node] = levels[placed][0]
    return assignment


def residency_sets(graph: DependencyGraph, order: Sequence[str],
                   exclude: set[str] | None = None,
                   ) -> list[frozenset[str]]:
    """The raw ``V_i`` sets, one per execution position.

    ``V_i = {v_j : τ(j) <= τ(i) <= last-consumer(j), v_j not excluded}`` —
    every non-excluded node that would be memory-resident while position
    ``i``'s node runs, if flagged. Computed with one sweep over positions,
    applying arrivals and departures, so the total work is linear in
    ``n + Σ|V_i|``.
    """
    exclude = exclude or set()
    intervals = residency_intervals(graph, order)
    n = len(order)
    arrivals: list[list[str]] = [[] for _ in range(n)]
    departures: list[list[str]] = [[] for _ in range(n + 1)]
    for node, (start, end) in intervals.items():
        if node in exclude:
            continue
        arrivals[start].append(node)
        departures[end + 1].append(node)
    live: set[str] = set()
    sets: list[frozenset[str]] = []
    for p in range(n):
        for node in departures[p]:
            live.discard(node)
        live.update(arrivals[p])
        sets.append(frozenset(live))
    return sets
