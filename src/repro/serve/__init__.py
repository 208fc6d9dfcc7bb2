"""Refresh-as-a-service: many concurrent refresh requests, one ledger.

The paper's latency story (Table IV) is measured one refresh at a
time; the ROADMAP north-star is serving heavy traffic.  This package
moves the unit of scale from a *plan* to a *request stream*:
:class:`RefreshService` is a long-running asyncio scheduler admitting
many concurrent refresh requests against **one shared**
:class:`~repro.store.tiered.TieredLedger` — a bounded request queue
with tenant priorities, per-tenant RAM budget shares that the ledger
enforces at admission (spill tiers stay shared), the serial
simulator's lifecycle for every node (each request runs
:meth:`~repro.exec.kernel.NodeKernel.run_node` on the event loop's
clock, so a solo request is billed what the simulator bills), and
per-request cancellation/deadline timeouts that unwind the ledger
cleanly (no leaked holds, reservations, or consumer counts).

Entry points:

* :meth:`repro.engine.controller.Controller.create_service` /
  :meth:`~repro.engine.controller.Controller.refresh_concurrent` — the
  programmatic API;
* :func:`run_open_loop` — seeded Poisson arrivals that never wait for
  a completion, behind both ``repro-sc serve`` (the open-loop CLI demo
  / CI smoke) and ``benchmarks/bench_service_latency.py`` (the
  latency-percentile harness).
"""

from repro.serve.service import (
    RefreshService,
    RequestResult,
    ServiceConfig,
    TenantSpec,
    run_open_loop,
)

__all__ = [
    "RefreshService",
    "RequestResult",
    "ServiceConfig",
    "TenantSpec",
    "run_open_loop",
]
