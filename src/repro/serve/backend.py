"""The ``service`` execution backend: one refresh as one service request.

:class:`ServiceBackend` is the :class:`~repro.exec.base.ExecutionBackend`
face of :class:`~repro.serve.service.RefreshService`: ``run()`` spins up
a single-tenant service, submits the (graph, plan) pair as one request,
and returns its :class:`~repro.engine.trace.RunTrace`.  That makes
``Controller.refresh(..., backend="service")`` exercise the *exact*
code path concurrent serving uses — same admission control, same drain
heap, same unwind — so every single-run test and benchmark doubles as a
serve-layer regression.

Unlike the discrete-event backends this one realizes modeled time on
the wall clock (scaled by ``time_scale``), so its latencies are
measured, not simulated; trace *charges* (read/compute/stall/spill
seconds) still come from the same device cost model and match the
modeled run.
"""

from __future__ import annotations

import asyncio

from repro.core.plan import Plan
from repro.engine.trace import RunTrace
from repro.errors import ExecutionError, ValidationError
from repro.exec.base import (
    ExecutionBackend,
    ExecutionContext,
    register_backend,
)
from repro.graph.dag import DependencyGraph
from repro.serve.service import RefreshService, ServiceConfig, TenantSpec
from repro.store.config import SpillConfig

#: wall seconds per modeled second when the caller does not choose:
#: fast enough for tests, slow enough that asyncio scheduling noise
#: stays far below modeled durations
_DEFAULT_TIME_SCALE = 1e-3


@register_backend
class ServiceBackend(ExecutionBackend):
    """Single-request adapter over the multi-tenant refresh service.

    Extra constructor kwargs (via ``create_backend(..., **kwargs)``):

    * ``time_scale`` — wall seconds one modeled second takes;
    * ``tenant`` — tenant name the request runs as (default ``"solo"``).
    """

    name = "service"

    def prepare(self, graph: DependencyGraph, plan: Plan | None,
                memory_budget: float,
                method: str = "") -> ExecutionContext:
        spill = None
        if self.options is not None:
            if self.options.compute_penalty != 0:
                # the service models spare-memory catalogs only; running
                # anyway would return unpenalized numbers under a
                # penalized label
                raise ValidationError(
                    "the service backend does not model compute_penalty; "
                    "use a discrete-event backend or set it to 0")
            spill = self.options.spill
        config = ServiceConfig(
            ram_budget_gb=memory_budget,
            spill=spill if spill is not None else SpillConfig(),
            max_concurrent=max(1, self.workers),
            time_scale=float(self.extra.get("time_scale",
                                            _DEFAULT_TIME_SCALE)))
        tenant = str(self.extra.get("tenant", "solo"))
        service = RefreshService(
            config, [TenantSpec(tenant, share=1.0)],
            profile=self.profile, bus=self.bus)
        return ExecutionContext(graph=graph, plan=plan,
                                memory_budget=memory_budget,
                                method=method, ledger=service.ledger,
                                payload={"service": service,
                                         "tenant": tenant})

    def execute_node(self, ctx: ExecutionContext, node_id: str) -> None:
        raise ExecutionError(  # pragma: no cover - contract guard
            "ServiceBackend schedules whole requests; RefreshService "
            "sequences the kernel phases per node itself")

    def finish(self, ctx: ExecutionContext) -> RunTrace:
        raise ExecutionError(  # pragma: no cover - contract guard
            "ServiceBackend.run returns the request's trace directly")

    def run(self, graph: DependencyGraph, plan: Plan | None,
            memory_budget: float, method: str = "") -> RunTrace:
        ctx = self.prepare(graph, plan, memory_budget, method=method)
        service: RefreshService = ctx.payload["service"]
        tenant: str = ctx.payload["tenant"]

        async def _one_request() -> RunTrace:
            async with service as svc:
                handle = await svc.submit(graph, plan, tenant=tenant,
                                          cancel=self.cancel)
                result = await handle
            if result.status != "ok":
                from repro.errors import RunCancelledError
                if result.status in ("cancelled", "timeout"):
                    raise RunCancelledError(result.error or result.status)
                raise ExecutionError(
                    f"service request failed: {result.error}")
            assert result.trace is not None
            result.trace.method = method or result.trace.method
            return result.trace

        return asyncio.run(_one_request())
