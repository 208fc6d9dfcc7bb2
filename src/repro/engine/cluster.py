"""Distributed-cluster scaling model (paper §VI-G, Table V).

The paper varies the Presto worker count from 1 to 5 and observes that the
absolute runtimes drop sub-linearly while S/C's *relative* speedup stays
flat (~1.6×). The mechanism: both compute and I/O throughput grow with the
cluster, so the I/O share of the critical path — the thing S/C removes —
stays roughly constant. We model the cluster as a single device whose
bandwidths scale by the Amdahl factor of
:class:`~repro.metadata.costmodel.ClusterProfile`, then run the ordinary
serial backend against it.
"""

from __future__ import annotations

from repro.core.plan import Plan
from repro.engine.trace import RunTrace
from repro.exec.base import create_backend
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import ClusterProfile


def _cluster_graph(graph: DependencyGraph,
                   cluster: ClusterProfile) -> DependencyGraph:
    """Copy of ``graph`` with observed compute times divided by the
    cluster's speedup factor, mirroring how a bigger cluster would have
    produced proportionally smaller observed timings."""
    scaled = graph.copy()
    factor = cluster.speedup_factor
    for node_id in scaled.nodes():
        node = scaled.node(node_id)
        if node.compute_time is not None:
            node.compute_time = node.compute_time / factor
    return scaled


def simulate_cluster_run(graph: DependencyGraph, plan: Plan,
                         memory_budget: float,
                         cluster: ClusterProfile,
                         method: str = "") -> RunTrace:
    """Run ``plan`` on an ``n``-worker cluster; returns the usual trace.

    The Memory Catalog is not scaled with the cluster — the paper allocates
    a fixed catalog (e.g. 1.6 % of data size) regardless of worker count.
    """
    backend = create_backend("simulator",
                             profile=cluster.effective_device())
    return backend.run(_cluster_graph(graph, cluster), plan, memory_budget,
                       method=method)
