"""Serial discrete-event simulator as an :class:`ExecutionBackend`.

Nodes execute one at a time in plan order, as in the paper's Presto
deployment (one refresh statement at a time); parallelism enters only
through the background materialization channel.  The backend *is*
:meth:`~repro.exec.kernel.NodeKernel.run_node` once per node — every
§III-C mechanic lives in :mod:`repro.exec.kernel`.

It is the one backend that steps: it inherits the base ``run`` template,
and a caller may drive ``prepare`` → ``execute_node`` … → ``finish``
itself, swapping the :class:`~repro.exec.base.SerialRun`'s ``plan``
between nodes (the Memory Catalog, the background channel and the clock
carry over).
"""

from __future__ import annotations

from repro.core.plan import Plan
from repro.engine.trace import RunTrace
from repro.errors import ValidationError
from repro.exec.base import ExecutionBackend, SerialRun
from repro.exec.kernel import NodeKernel
from repro.graph.dag import DependencyGraph
from repro.graph.topo import check_topological_order


class SerialSimulatorBackend(ExecutionBackend):
    """The paper's serial execution model (§III-C), one node at a time."""

    name = "simulator"

    def prepare(self, graph: DependencyGraph, plan: Plan | None,
                memory_budget: float, method: str = "") -> SerialRun:
        if plan is None:
            raise ValidationError(
                "the simulator backend requires a plan; optimize first")
        check_topological_order(graph, plan.order)
        kernel = NodeKernel.for_run(graph, memory_budget, self.profile,
                                    self.options, bus=self.bus)
        return SerialRun(kernel, plan, method)

    def execute_node(self, run: SerialRun, node_id: str) -> None:
        run.kernel.run_node(node_id, node_id in run.plan.flagged)

    def finish(self, run: SerialRun) -> RunTrace:
        kernel = run.kernel
        return kernel.finish_run(kernel.clock, kernel.ledger.budget,
                                 run.method)
