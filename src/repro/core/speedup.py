"""Speedup scores ``t_i`` from the cost model (paper §IV).

The score of flagging node ``v_i`` is measured against the baseline of
sequential refresh with everything on disk::

    t_i =  Σ_{(v_i, v_j) in E} [ read(v_i | disk) − read(v_i | memory) ]
         + [ create(v_i | disk) − create(v_i | memory) ]

Every consumer saves the disk-vs-memory read gap, and the producing step
saves the blocking materialization (the write proceeds in the background,
overlapped with downstream compute). Scores are clamped at zero — a node
whose in-memory creation somehow costs more than its disk write should never
look attractive.
"""

from __future__ import annotations

from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile


def speedup_score(size_gb: float, n_consumers: int,
                  cost_model: DeviceProfile) -> float:
    """Score for one node of the given output size and consumer count."""
    read_saving = (cost_model.read_time_disk(size_gb)
                   - cost_model.read_time_memory(size_gb))
    write_saving = (cost_model.write_time_disk(size_gb)
                    - cost_model.create_time_memory(size_gb))
    return max(0.0, n_consumers * read_saving + write_saving)


def compute_speedup_scores(graph: DependencyGraph,
                           cost_model: DeviceProfile | None = None,
                           ) -> dict[str, float]:
    """Set every node's ``score`` from its size and consumer count.

    Returns the scores keyed by node id (the graph is modified in place).
    """
    cost_model = cost_model or DeviceProfile()
    scores: dict[str, float] = {}
    for node_id in graph.nodes():
        node = graph.node(node_id)
        score = speedup_score(node.size, graph.out_degree(node_id),
                              cost_model)
        node.score = score
        scores[node_id] = score
    return scores
