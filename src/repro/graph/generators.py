"""Synthetic dependency-graph generation (paper §VI-A "Generated Workload").

The paper's workload generator builds layered DAGs "following the structure
of Spark workloads": a DAG has a number of *stages* (height), a mean number
of nodes per stage (width), per-stage variance (stage node count StDev), and
a per-node maximum out-degree; edges point from earlier stages to later ones.
This module reproduces that generator; operation assignment and size
derivation live in :mod:`repro.workloads.generator`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.graph.dag import DependencyGraph


@dataclass(frozen=True)
class LayeredDagConfig:
    """Generation parameters, mirroring Figure 14's sweep axes.

    Attributes:
        n_nodes: target DAG size (the generator hits it exactly).
        height_width_ratio: stages / mean-nodes-per-stage. 1.0 gives a square
            DAG; >1 a "thin" DAG (more stages), <1 a "wide" one.
        max_outdegree: each node's out-degree is sampled uniformly from
            ``[0, max_outdegree]`` (clamped to available downstream nodes).
        stage_stdev: standard deviation of the per-stage node count.
        forward_bias: probability that an edge lands in the immediately next
            stage rather than a uniformly random later stage. Spark-like
            pipelines mostly feed the next stage; long skip edges stretch
            flagged-node residencies, so the default keeps them rare.
    """

    n_nodes: int = 50
    height_width_ratio: float = 1.0
    max_outdegree: int = 4
    stage_stdev: float = 1.0
    forward_bias: float = 0.9

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValidationError("n_nodes must be >= 1")
        if self.height_width_ratio <= 0:
            raise ValidationError("height_width_ratio must be > 0")
        if self.max_outdegree < 0:
            raise ValidationError("max_outdegree must be >= 0")
        if self.stage_stdev < 0:
            raise ValidationError("stage_stdev must be >= 0")
        if not 0.0 <= self.forward_bias <= 1.0:
            raise ValidationError("forward_bias must be in [0, 1]")


def _stage_sizes(config: LayeredDagConfig, rng: random.Random) -> list[int]:
    """Split ``n_nodes`` into stages matching the ratio and StDev targets."""
    n = config.n_nodes
    # height * width = n and height / width = ratio
    # => height = sqrt(n * ratio)
    height = max(1, round(math.sqrt(n * config.height_width_ratio)))
    height = min(height, n)
    width = n / height
    sizes = []
    for _ in range(height):
        raw = rng.gauss(width, config.stage_stdev)
        sizes.append(max(1, round(raw)))
    # Repair the total to hit n exactly while keeping every stage >= 1.
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
    """Generate a layered DAG; node ids are ``v0..v{n-1}`` in stage order.

    Every node outside the first stage is guaranteed at least one parent, so
    the graph has no spurious sources; out-degrees are sampled per node and
    edges prefer the next stage (``forward_bias``), with the rest landing on
    uniformly random later stages. Node metadata records the stage index in
    ``meta["stage"]``.
    """
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

    # Per-node out-degree budgets, sampled once. Edges are then assigned in
    # two phases against these budgets so the total edge count (and hence
    # mean fan-out) depends on ``max_outdegree`` but not on how unevenly
    # nodes are distributed across stages — Figure 14 varies the stage
    # StDev axis independently of the out-degree axis.
    budgets = {v: rng.randint(0, config.max_outdegree)
               for s in stages[:-1] for v in s}

    # Phase 1 (coverage): every node outside the first stage draws one
    # parent — usually from the immediately preceding stage, sometimes from
    # any earlier stage — preferring producers with remaining budget so
    # repairs don't inflate fan-out.  The funded producers of each pool
    # are kept as they change, in pool order, so each draw picks what a
    # filter of the pool would hand it.
    earlier: list[str] = []
    funded_earlier: list[str] = []
    for stage_idx, stage_nodes in enumerate(stages[1:], start=1):
        previous = stages[stage_idx - 1]
        funded_previous = [v for v in previous if budgets[v] > 0]
        earlier += previous
        funded_earlier += funded_previous
        for node in stage_nodes:
            if rng.random() < config.forward_bias:
                pool, funded = previous, funded_previous
            else:
                pool, funded = earlier, funded_earlier
            if funded:
                parent = rng.choice(funded)
                budgets[parent] -= 1
                if budgets[parent] == 0:
                    funded_earlier.remove(parent)
                    if parent in funded_previous:
                        funded_previous.remove(parent)
            else:
                lowest = min(graph.out_degree(v) for v in pool)
                parent = rng.choice([v for v in pool
                                     if graph.out_degree(v) == lowest])
            graph.add_edge(parent, node)

    # Phase 2 (extras): spend remaining budgets on additional forward
    # edges, preferring the next stage.
    flat = [v for s in stages for v in s]
    offset = 0
    for stage_idx, stage_nodes in enumerate(stages[:-1]):
        offset += len(stage_nodes)
        later = flat[offset:]
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


def generate_random_dag(n_nodes: int, edge_probability: float = 0.15,
                        seed: int | random.Random = 0) -> DependencyGraph:
    """Erdős–Rényi-style random DAG (edges only forward in node order).

    Used by property-based tests as an unstructured counterpart to
    :func:`generate_layered_dag`.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValidationError("edge_probability must be in [0, 1]")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    graph = DependencyGraph()
    ids = [f"v{i}" for i in range(n_nodes)]
    for node_id in ids:
        graph.add_node(node_id)
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(ids[i], ids[j])
    return graph
