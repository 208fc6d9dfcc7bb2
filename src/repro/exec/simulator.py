"""Serial discrete-event simulator as an :class:`ExecutionBackend`.

Nodes execute one at a time in plan order, as in the paper's Presto
deployment (one refresh statement at a time); parallelism enters only
through the background materialization channel.  The backend *is*
:meth:`~repro.exec.kernel.NodeKernel.run_node` once per node — every
§III-C mechanic lives in :mod:`repro.exec.kernel`.

The hooks are resumable: a caller may drive ``prepare`` →
``execute_node`` … → ``finish`` itself and swap ``ctx.plan`` between
nodes (the Memory Catalog, the background channel and the clock carry
over), which is how :mod:`repro.engine.adaptive` re-plans mid-run
without forcing flagged nodes to materialize at the boundary.
"""

from __future__ import annotations

from repro.core.plan import Plan
from repro.engine.trace import RunTrace
from repro.errors import ValidationError
from repro.exec.base import (
    ExecutionBackend,
    ExecutionContext,
    register_backend,
)
from repro.exec.kernel import NodeKernel
from repro.graph.dag import DependencyGraph
from repro.graph.topo import check_topological_order


@register_backend
class SerialSimulatorBackend(ExecutionBackend):
    """The paper's serial execution model (§III-C), one node at a time."""

    name = "simulator"

    def prepare(self, graph: DependencyGraph, plan: Plan | None,
                memory_budget: float, method: str = "") -> ExecutionContext:
        if plan is None:
            raise ValidationError(
                "the simulator backend requires a plan; optimize first")
        check_topological_order(graph, plan.order)
        kernel = NodeKernel.for_run(graph, memory_budget, self.profile,
                                    self.options, bus=self.bus,
                                    lock=self.ledger_lock)
        return ExecutionContext(graph=graph, plan=plan,
                                memory_budget=memory_budget, method=method,
                                ledger=kernel.ledger, payload=kernel,
                                traces=kernel.traces)

    def execute_node(self, ctx: ExecutionContext, node_id: str) -> None:
        ctx.payload.run_node(node_id, node_id in ctx.plan.flagged)

    def finish(self, ctx: ExecutionContext) -> RunTrace:
        kernel: NodeKernel = ctx.payload
        return kernel.finish_run(kernel.clock, ctx.memory_budget,
                                 ctx.method)
