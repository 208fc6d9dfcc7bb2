"""Adaptive re-planning across and within refresh runs.

The paper's third challenge (§I) is adaptability: "a fixed, heuristic
strategy may result in suboptimal solutions if users' workloads change."
S/C's answer is metadata-driven re-optimization — plans derive from
observed sizes, so estimates that drift (data growth, schema changes,
seasonal skew) degrade the plan until fresh observations arrive.

:class:`AdaptiveController` closes the loop *within* a run. It holds one
:class:`~repro.exec.kernel.NodeKernel` for the whole run and steps it
node by node (``run_node(v, v in plan.flagged)``), so a re-plan is only a
new flag set — the Memory Catalog, the background channel and the clock
carry across decision points, and checking costs nothing.  It compares
each finished node's actual output size against the estimate the plan
was built from, and when the windowed drift exceeds a threshold it
re-optimizes the remaining suffix of the DAG:

* still-resident flagged nodes stay in memory — their remaining
  consumers read them from the catalog as planned;
* the suffix is re-planned against the full budget; residents usually
  release within a node or two, and in the brief overlap the simulator's
  backpressure (stall while waiting is cheaper than a blocking write,
  spill otherwise) bounds the cost of transient over-subscription;
* remaining-node estimates are corrected with the median
  observed/estimated ratio (multiplicative drift — the common case where
  a whole dataset grew or shrank).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.core.speedup import compute_speedup_scores
from repro.engine.trace import RunTrace
from repro.errors import ValidationError
from repro.exec.base import (
    ExecutionBackend,
    SimulatorOptions,
    create_backend,
)
from repro.exec.kernel import NodeKernel
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile


@dataclass(frozen=True)
class SegmentRecord:
    """One executed stretch between (re-)planning decisions."""

    nodes: tuple[str, ...]
    duration: float
    replanned_after: bool
    drift_ratio: float


@dataclass
class AdaptiveRunReport:
    """Outcome of one adaptive refresh run."""

    total_time: float
    segments: list[SegmentRecord] = field(default_factory=list)
    n_replans: int = 0
    trace: RunTrace | None = None

    @property
    def executed(self) -> list[str]:
        return [node for seg in self.segments for node in seg.nodes]


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _suffix_subgraph(graph: DependencyGraph, remaining: list[str],
                     observed_sizes: dict[str, float],
                     ) -> DependencyGraph:
    """The remaining nodes as an independent planning problem.

    Completed parents are charged as base-table bytes when read from
    storage; if they are still resident in the Memory Catalog the
    simulator serves them from memory anyway, so this estimate is
    conservative for the optimizer.
    """
    remaining_set = set(remaining)
    sub = DependencyGraph()
    for node_id in remaining:
        node = graph.node(node_id)
        outside_gb = sum(
            observed_sizes.get(p, graph.size_of(p))
            for p in graph.parents(node_id) if p not in remaining_set)
        meta = dict(node.meta)
        meta["base_input_gb"] = float(meta.get("base_input_gb", 0.0)) \
            + outside_gb
        sub.add_node(node_id, size=node.size, op=node.op,
                     compute_time=node.compute_time, meta=meta)
    for node_id in remaining:
        for child in graph.children(node_id):
            if child in remaining_set:
                sub.add_edge(node_id, child)
    return sub


@dataclass
class AdaptiveController:
    """Executes refresh runs with drift detection and suffix re-planning.

    Every plan is an ``"sc"`` plan (optimizer seed 0), simulated and
    scored on the default :class:`~repro.metadata.costmodel.DeviceProfile`.

    Attributes:
        options: simulator policy knobs.
        drift_threshold: re-plan when the median |observed/estimated − 1|
            over the check window exceeds this fraction.
        check_window: number of most recent nodes whose drift is pooled
            per check (checks run after every node; the window smooths
            single-node noise).
    """

    options: SimulatorOptions = field(default_factory=SimulatorOptions)
    drift_threshold: float = 0.25
    check_window: int = 3

    def __post_init__(self) -> None:
        if self.drift_threshold <= 0:
            raise ValidationError("drift_threshold must be > 0")
        if self.check_window < 1:
            raise ValidationError("check_window must be >= 1")

    # ------------------------------------------------------------------
    def refresh(self, estimated: DependencyGraph,
                true_sizes: dict[str, float], memory_budget: float,
                ) -> AdaptiveRunReport:
        """Run the workload whose *estimates* are ``estimated`` but whose
        actual output sizes are ``true_sizes``.

        Plans are always built from current estimates; execution always
        happens against the true sizes, on one kernel for the whole run.
        """
        missing = [v for v in estimated.nodes() if v not in true_sizes]
        if missing:
            raise ValidationError(
                f"true_sizes missing nodes: {missing[:5]}")
        truth = _truth_graph(estimated, true_sizes)
        # the kernel outlives every plan: a (re-)plan below only changes
        # which of the nodes still to run are flagged
        kernel = NodeKernel.for_run(truth, memory_budget, None,
                                    self.options)
        report = AdaptiveRunReport(total_time=0.0)

        planning_graph = estimated.copy()
        observed: dict[str, float] = {}
        recent_ratios: list[float] = []

        while planning_graph.n > 0:
            problem = ScProblem(graph=planning_graph,
                                memory_budget=memory_budget)
            plan = optimize(problem, method="sc").plan

            segment: list[str] = []
            segment_start = kernel.clock
            replanned = False
            drift = 0.0
            for node_id in plan.order:
                kernel.run_node(node_id, node_id in plan.flagged)
                segment.append(node_id)
                observed[node_id] = true_sizes[node_id]
                estimate = planning_graph.size_of(node_id)
                if estimate > 1e-12:
                    recent_ratios.append(true_sizes[node_id] / estimate)
                window = recent_ratios[-self.check_window:]
                drift = _median([abs(r - 1.0) for r in window]) \
                    if window else 0.0
                remaining_after = planning_graph.n - len(segment)
                if drift > self.drift_threshold and remaining_after >= 2:
                    replanned = True
                    break

            report.segments.append(SegmentRecord(
                nodes=tuple(segment),
                duration=kernel.clock - segment_start,
                replanned_after=replanned, drift_ratio=drift))

            remaining = [v for v in plan.order if v not in set(segment)]
            if not remaining:
                break
            planning_graph = _suffix_subgraph(planning_graph, remaining,
                                              observed)
            if replanned:
                report.n_replans += 1
                correction = _median(recent_ratios[-self.check_window:])
                for node_id in planning_graph.nodes():
                    planning_graph.node(node_id).size *= correction
                compute_speedup_scores(planning_graph, DeviceProfile())
                recent_ratios.clear()

        trace = kernel.finish_run(kernel.clock, memory_budget, "adaptive")
        report.trace = trace
        report.total_time = trace.end_to_end_time
        return report

    # ------------------------------------------------------------------
    def oracle_time(self, estimated: DependencyGraph,
                    true_sizes: dict[str, float],
                    memory_budget: float) -> float:
        """Wall-clock had the optimizer known the true sizes upfront."""
        truth = _truth_graph(estimated, true_sizes)
        compute_speedup_scores(truth, DeviceProfile())
        problem = ScProblem(graph=truth, memory_budget=memory_budget)
        plan = optimize(problem, method="sc").plan
        return self._backend().run(truth, plan,
                                   memory_budget).end_to_end_time

    def stale_time(self, estimated: DependencyGraph,
                   true_sizes: dict[str, float],
                   memory_budget: float) -> float:
        """Wall-clock of planning once on stale estimates, never adapting."""
        problem = ScProblem(graph=estimated, memory_budget=memory_budget)
        plan = optimize(problem, method="sc").plan
        truth = _truth_graph(estimated, true_sizes)
        return self._backend().run(truth, plan,
                                   memory_budget).end_to_end_time

    def _backend(self) -> ExecutionBackend:
        return create_backend("simulator", options=self.options)


def _truth_graph(graph: DependencyGraph,
                 true_sizes: dict[str, float]) -> DependencyGraph:
    """Copy of ``graph`` with node sizes replaced by reality."""
    truth = graph.copy()
    for node_id in truth.nodes():
        if node_id in true_sizes:
            truth.node(node_id).size = true_sizes[node_id]
    return truth
