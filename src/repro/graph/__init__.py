"""DAG substrate: dependency graphs, topological orders, generators.

The optimizer (:mod:`repro.core`) and the execution engine
(:mod:`repro.engine`) both operate on :class:`~repro.graph.dag.DependencyGraph`,
an insertion-ordered DAG whose nodes carry the paper's per-node metadata
(intermediate table size ``s_i`` and speedup score ``t_i``).
"""

from repro.graph.dag import DependencyGraph, Node
from repro.graph.topo import (
    dfs_topological_order,
    is_topological_order,
    kahn_topological_order,
)
from repro.graph.traversal import (
    ancestors,
    last_consumer_position,
    longest_path_levels,
)
from repro.graph.generators import LayeredDagConfig, generate_layered_dag
from repro.graph.markov import MarkovChain

__all__ = [
    "DependencyGraph",
    "Node",
    "kahn_topological_order",
    "dfs_topological_order",
    "is_topological_order",
    "ancestors",
    "longest_path_levels",
    "last_consumer_position",
    "LayeredDagConfig",
    "generate_layered_dag",
    "MarkovChain",
]
