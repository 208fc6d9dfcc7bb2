"""Synthetic workload generator (paper §VI-A "Generated Workload", §VI-H).

Combines the two components the paper describes:

* a layered **DAG generator** (:mod:`repro.graph.generators`) parameterized
  by size, height/width ratio, max out-degree, and stage-count variance —
  Figure 14's sweep axes; and
* a **Markov chain** over node operations trained on the embedded
  TPC-DS/Spider-shaped corpus (:mod:`repro.workloads.corpus`); operations
  drive output-size derivation from inputs via
  :class:`~repro.metadata.estimator.OperatorSizeEstimator`.

Source-node input sizes are sampled from the 100 GB TPC-DS table census.
Speedup scores come from the §IV formula over the device cost model, and
compute times are calibrated to an I/O-time share typical of the paper's
transformation workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.dag import DependencyGraph
from repro.graph.generators import LayeredDagConfig, generate_layered_dag
from repro.graph.markov import MarkovChain
from repro.core.speedup import compute_speedup_scores
from repro.metadata.costmodel import DeviceProfile
from repro.metadata.estimator import OperatorSizeEstimator
from repro.workloads.calibrate import calibrate_compute_times
from repro.workloads.corpus import OPERATION_SEQUENCES
from repro.workloads.sizes import TPCDS_100GB_TABLE_SIZES_GB


@dataclass(frozen=True)
class GeneratedWorkloadConfig:
    """Knobs for one generated workload (defaults = Figure 13's baseline:
    100-node DAGs use ``n_nodes=100``, ratio 1, out-degree 4, StDev 1)."""

    n_nodes: int = 50
    height_width_ratio: float = 1.0
    max_outdegree: int = 4
    stage_stdev: float = 1.0
    io_time_share: float = 0.5

    def dag_config(self) -> LayeredDagConfig:
        return LayeredDagConfig(
            n_nodes=self.n_nodes,
            height_width_ratio=self.height_width_ratio,
            max_outdegree=self.max_outdegree,
            stage_stdev=self.stage_stdev,
        )


class WorkloadGenerator:
    """Reusable generator holding the fitted Markov chain.  Sizes come
    from the default :class:`OperatorSizeEstimator`; compute times and
    scores from the default :class:`DeviceProfile`."""

    def __init__(self) -> None:
        self._chain = MarkovChain().fit(OPERATION_SEQUENCES)
        self._estimator = OperatorSizeEstimator()

    # ------------------------------------------------------------------
    def generate(self, config: GeneratedWorkloadConfig | None = None,
                 seed: int = 0) -> DependencyGraph:
        """One workload DAG with sizes, ops, compute times, and scores."""
        config = config or GeneratedWorkloadConfig()
        rng = random.Random(seed)
        graph = generate_layered_dag(config.dag_config(), seed=rng)

        table_sizes = list(TPCDS_100GB_TABLE_SIZES_GB.values())
        # Assign operations along the DAG: a node's op is sampled from the
        # chain conditioned on the op of one of its parents (queries are
        # chains; DAG nodes with several parents follow their largest).
        op_of: dict[str, str] = {}
        for node_id in graph.nodes():  # insertion order == stage order
            node = graph.node(node_id)
            parents = graph.parents(node_id)
            if not parents:
                op = "SCAN"
                base = rng.choice(table_sizes)
                node.meta["base_input_gb"] = base
                node.size = self._estimator.estimate(op, [base], rng)
            else:
                anchor = max(parents, key=graph.size_of)
                op = self._chain.sample_operation(op_of[anchor], rng)
                if op == "SCAN":
                    op = "PROJECT"  # interior nodes transform, not scan
                sizes = [graph.size_of(p) for p in parents]
                node.size = self._estimator.estimate(op, sizes, rng)
            op_of[node_id] = op
            node.op = op

        share = min(max(config.io_time_share, 1e-3), 0.999)
        profile = DeviceProfile()
        calibrate_compute_times(graph, profile, share)
        compute_speedup_scores(graph, profile)
        return graph


def generate_workload(config: GeneratedWorkloadConfig | None = None,
                      seed: int = 0) -> DependencyGraph:
    """Module-level convenience around :class:`WorkloadGenerator`."""
    return WorkloadGenerator().generate(config=config, seed=seed)
