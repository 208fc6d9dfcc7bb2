"""S/C — Speeding up Data Materialization with Bounded Memory.

A full reproduction of the ICDE 2023 paper (Li, Pi, Park; arXiv:2303.09774):
joint optimization of an MV refresh order and an in-memory flag set under a
bounded Memory Catalog, plus the execution substrates the evaluation needs
(a discrete-event refresh engine, a mini columnar DBMS, TPC-DS-style
workloads, and a synthetic workload generator).

Quickstart::

    from repro import ScProblem, optimize

    problem = ScProblem.from_tables(
        edges=[("mv1", "mv2"), ("mv1", "mv3")],
        sizes={"mv1": 10.0, "mv2": 4.0, "mv3": 2.0},
        scores={"mv1": 30.0, "mv2": 8.0, "mv3": 5.0},
        memory_budget=12.0,
    )
    result = optimize(problem, method="sc")
    print(result.plan.order, sorted(result.plan.flagged))
"""

from repro.core import (
    AlternatingOptimizer,
    AlternatingResult,
    Plan,
    ScProblem,
    compute_speedup_scores,
    ma_dfs_order,
    optimize,
    peak_memory_usage,
    select_nodes_mkp,
)
from repro.graph import DependencyGraph, generate_layered_dag
from repro.metadata import ClusterProfile, DeviceProfile

__version__ = "1.0.0"

__all__ = [
    "ScProblem",
    "Plan",
    "optimize",
    "AlternatingOptimizer",
    "AlternatingResult",
    "select_nodes_mkp",
    "ma_dfs_order",
    "peak_memory_usage",
    "compute_speedup_scores",
    "DependencyGraph",
    "generate_layered_dag",
    "DeviceProfile",
    "ClusterProfile",
    "__version__",
]
