"""The planner's and the generator's inner loops as they stood before the
heap MA-DFS, the shared interval profile and the incremental generator
— test-only.

Every function below is the parent commit's code of the same name,
bodies verbatim; ``transition_probabilities`` is
``MarkovChain.transition_probabilities`` as a function of the chain.
Each reads only this module and what the rewrite left alone (the graph,
the config dataclass, the errors), so an output here owes nothing to
the code it checks:

* ``ma_dfs_order`` takes a ``min()`` over the whole ready set per step;
* ``_scan_flag``, ``memory_profile`` and ``assign_expected_tiers`` test
  and add every covered position one at a time;
* ``peak_memory_usage`` sweeps a difference array;
* ``generate_layered_dag`` rebuilds its candidate pools for every node.

``residency_sets`` (the raw ``V_i`` sets) has no caller outside the
tests; ``tests/test_constraints.py`` uses it as the oracle of the
pruned constraint sets.

``tests/test_planner_parity.py`` holds the live code to equal outputs,
float bits included.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Iterable, Sequence

from repro.errors import CycleError, GraphError, ValidationError
from repro.graph.dag import DependencyGraph
from repro.graph.generators import LayeredDagConfig
from repro.graph.markov import END


# ----------------------------------------------------------------------
# graph/traversal.py
# ----------------------------------------------------------------------
def last_consumer_position(graph: DependencyGraph,
                           order: Sequence[str]) -> dict[str, int]:
    """For each node, the order-position of its last consumer."""
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.n:
        raise GraphError("order must cover every node exactly once")
    release: dict[str, int] = {}
    for node in graph.nodes():
        children = graph.children(node)
        if children:
            release[node] = max(position[c] for c in children)
        else:
            release[node] = position[node]
    return release


# ----------------------------------------------------------------------
# core/residency.py
# ----------------------------------------------------------------------
def residency_intervals(graph: DependencyGraph,
                        order: Sequence[str]) -> dict[str, tuple[int, int]]:
    """Per node, the inclusive position interval it would occupy if flagged."""
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.n or set(position) != set(graph.nodes()):
        raise GraphError("order must be a permutation of the graph's nodes")
    release = last_consumer_position(graph, order)
    return {v: (position[v], release[v]) for v in graph.nodes()}


def memory_profile(graph: DependencyGraph, order: Sequence[str],
                   flagged: Iterable[str]) -> list[float]:
    """Flagged-bytes resident at each execution position (length ``n``)."""
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
    """Maximum combined flagged size at any execution step."""
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


def assign_expected_tiers(graph: DependencyGraph, order: Sequence[str],
                          flagged: Iterable[str], ram_budget: float,
                          tiers: Sequence[tuple[str, float]],
                          ) -> dict[str, str]:
    """Static tier placement for a tier-aware plan."""
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


# ----------------------------------------------------------------------
# core/selection_baselines.py
# ----------------------------------------------------------------------
def _scan_flag(problem, order: Sequence[str],
               scan_order: Sequence[str]) -> frozenset[str]:
    """Flag nodes in ``scan_order`` whenever the budget still allows."""
    budget = problem.memory_budget
    intervals = residency_intervals(problem.graph, order)
    profile = [0.0] * len(order)
    flagged: set[str] = set()
    for node in scan_order:
        size = problem.size_of(node)
        if size > budget:
            continue  # can never fit, mirrors V_exclude
        start, end = intervals[node]
        if all(profile[p] + size <= budget + 1e-9
               for p in range(start, end + 1)):
            for p in range(start, end + 1):
                profile[p] += size
            flagged.add(node)
    return frozenset(flagged)


# ----------------------------------------------------------------------
# core/madfs.py
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# graph/generators.py
# ----------------------------------------------------------------------
def _stage_sizes(config: LayeredDagConfig, rng: random.Random) -> list[int]:
    """Split ``n_nodes`` into stages matching the ratio and StDev targets."""
    n = config.n_nodes
    height = max(1, round(math.sqrt(n * config.height_width_ratio)))
    height = min(height, n)
    width = n / height
    sizes = []
    for _ in range(height):
        raw = rng.gauss(width, config.stage_stdev)
        sizes.append(max(1, round(raw)))
    diff = n - sum(sizes)
    while diff != 0:
        idx = rng.randrange(height)
        if diff > 0:
            sizes[idx] += 1
            diff -= 1
        elif sizes[idx] > 1:
            sizes[idx] -= 1
            diff += 1
    return sizes


def generate_layered_dag(config: LayeredDagConfig | None = None,
                         seed: int | random.Random = 0) -> DependencyGraph:
    """Generate a layered DAG; node ids are ``v0..v{n-1}`` in stage order."""
    config = config or LayeredDagConfig()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    sizes = _stage_sizes(config, rng)

    graph = DependencyGraph()
    stages: list[list[str]] = []
    counter = 0
    for stage_idx, count in enumerate(sizes):
        stage_nodes = []
        for _ in range(count):
            node_id = f"v{counter}"
            counter += 1
            graph.add_node(node_id, meta={"stage": stage_idx})
            stage_nodes.append(node_id)
        stages.append(stage_nodes)

    budgets = {v: rng.randint(0, config.max_outdegree)
               for s in stages[:-1] for v in s}

    for stage_idx, stage_nodes in enumerate(stages[1:], start=1):
        earlier = [v for s in stages[:stage_idx] for v in s]
        previous = stages[stage_idx - 1]
        for node in stage_nodes:
            pool = previous if rng.random() < config.forward_bias else earlier
            funded = [v for v in pool if budgets[v] > 0]
            if funded:
                parent = rng.choice(funded)
                budgets[parent] -= 1
            else:
                lowest = min(graph.out_degree(v) for v in pool)
                parent = rng.choice([v for v in pool
                                     if graph.out_degree(v) == lowest])
            graph.add_edge(parent, node)

    for stage_idx, stage_nodes in enumerate(stages[:-1]):
        later = [v for s in stages[stage_idx + 1:] for v in s]
        next_stage = stages[stage_idx + 1]
        for node in stage_nodes:
            budget = min(budgets[node], len(later))
            attempts = 0
            while budget > 0 and attempts < 20 * config.max_outdegree:
                attempts += 1
                pool = next_stage if rng.random() < config.forward_bias \
                    else later
                target = rng.choice(pool)
                if not graph.has_edge(node, target):
                    graph.add_edge(node, target)
                    budget -= 1

    graph.validate()
    return graph


# ----------------------------------------------------------------------
# graph/markov.py
# ----------------------------------------------------------------------
def transition_probabilities(chain, state: str) -> dict[str, float]:
    """Smoothed P(next | state) over observed states plus END."""
    if not chain._states:
        raise ValidationError("chain has not been fitted")
    counts = chain._transitions.get(state, Counter())
    support = chain.states + [END]
    total = sum(counts.values()) + chain.alpha * len(support)
    return {s: (counts.get(s, 0) + chain.alpha) / total for s in support}
