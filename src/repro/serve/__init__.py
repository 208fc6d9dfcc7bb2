"""Refresh-as-a-service: many concurrent refresh requests, one ledger.

The paper's latency story (Table IV) is measured one refresh at a
time; the ROADMAP north-star is serving heavy traffic.  This package
moves the unit of scale from a *plan* to a *request stream*:
:class:`RefreshService` is a long-running asyncio scheduler admitting
many concurrent refresh requests against **one shared**
:class:`~repro.store.tiered.TieredLedger` — a bounded request queue
with tenant priorities, per-tenant RAM budget shares (spill tiers stay
shared), the single-run backends' stall-vs-spill admission control
(every request runs the shared :class:`~repro.exec.kernel.NodeKernel`
phases), and per-request
cancellation/deadline timeouts that unwind the ledger cleanly (no
leaked holds, reservations, or consumer counts).

Entry points:

* :meth:`repro.engine.controller.Controller.create_service` /
  :meth:`~repro.engine.controller.Controller.refresh_concurrent` — the
  programmatic API;
* the ``service`` execution backend (:mod:`repro.serve.backend`) — the
  :class:`~repro.exec.base.ExecutionBackend` face of the same
  machinery, so ``Controller.refresh(..., backend="service")`` works;
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
