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
    if len(position) != graph.n or not all(map(position.__contains__,
                                               graph)):
        raise GraphError("order must be a permutation of the graph's nodes")
    release = last_consumer_position(graph, order)
    return {v: (position[v], release[v]) for v in graph}


def add_interval(profile, start: int, end: int, size: float,
                 limit: float | None = None) -> bool:
    """Add ``size`` to ``profile[start..end]``, a NumPy float64 array,
    unless ``limit`` is given and a covered position would then exceed
    it; True when added.

    The one window test of the selection scan, the memory profile and
    tier placement.  It is exact against testing and adding position by
    position: float addition rounds monotonically, so
    ``max(window) + size <= limit`` holds iff ``p + size <= limit`` at
    every covered position (an empty window counts as 0.0), and each
    position then takes the same IEEE add.  Callers add nodes in the
    order a per-position loop would, so every position's float is the
    same too.
    """
    window = profile[start:end + 1]
    if limit is not None:
        top = window.max() if window.size else 0.0
        if not top + size <= limit:
            return False
    window += size
    return True


def memory_profile(graph: DependencyGraph, order: Sequence[str],
                   flagged: Iterable[str]) -> list[float]:
    """Flagged-bytes resident at each execution position (length ``n``).

    ``profile[p]`` is the combined size of flagged nodes whose residency
    interval covers position ``p`` — the shaded-region heights in Figures 7
    and 8.
    """
    import numpy as np

    flagged = set(flagged)
    intervals = residency_intervals(graph, order)
    profile = np.zeros(len(order))
    for node in flagged:
        if node not in intervals:
            raise GraphError(f"flagged node {node!r} not in graph")
        start, end = intervals[node]
        add_interval(profile, start, end, graph.size_of(node))
    return profile.tolist()


def peak_memory_usage(graph: DependencyGraph, order: Sequence[str],
                      flagged: Iterable[str]) -> float:
    """Maximum combined flagged size at any execution step.

    Uses a difference array, so it is ``O(n + |U|)`` — the linear scan
    Algorithm 2 relies on (line 8).
    """
    flagged = set(flagged)
    if not flagged:
        return 0.0
    return interval_peak(graph, residency_intervals(graph, order), flagged)


def interval_peak(graph: DependencyGraph,
                  intervals: dict[str, tuple[int, int]],
                  flagged: set[str]) -> float:
    """:func:`peak_memory_usage` over intervals built already.

    ``flagged`` is summed in its own iteration order, so a caller holding
    an input ``U`` passes ``set(U)``, as :func:`peak_memory_usage` does,
    to get its float bit for bit.
    """
    delta = [0.0] * (len(intervals) + 1)
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
    return interval_average(graph, residency_intervals(graph, order),
                            flagged)


def interval_average(graph: DependencyGraph,
                     intervals: dict[str, tuple[int, int]],
                     flagged: Iterable[str]) -> float:
    """:func:`average_memory_usage` over intervals built already."""
    terms = []
    for node in flagged:
        if node not in intervals:
            raise GraphError(f"flagged node {node!r} not in graph")
        start, end = intervals[node]
        terms.append((end - start) * graph.size_of(node))
    # exact sum: ``flagged`` is a set, and its order must not reach a float
    return math.fsum(terms) / len(intervals)


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
    import numpy as np

    flagged = set(flagged)
    if not flagged:
        return {}
    intervals = residency_intervals(graph, order)
    stray = flagged - set(intervals)
    if stray:
        raise GraphError(f"flagged nodes not in graph: {sorted(stray)}")
    levels: list[tuple[str, float]] = [("ram", ram_budget), *tiers]
    usage = [np.zeros(len(order)) for _ in levels]
    assignment: dict[str, str] = {}
    for node in sorted(flagged, key=lambda v: (intervals[v][0], v)):
        start, end = intervals[node]
        size = graph.size_of(node)
        for (name, capacity), profile in zip(levels, usage):
            if add_interval(profile, start, end, size, capacity + 1e-9):
                assignment[node] = name
                break
        else:   # fits nowhere: the last tier takes it anyway
            add_interval(usage[-1], start, end, size)
            assignment[node] = levels[-1][0]
    return assignment
