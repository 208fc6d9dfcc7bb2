"""The multi-tenant concurrent refresh scheduler over one shared ledger.

:class:`RefreshService` admits a *stream* of refresh requests — each a
(graph, plan) pair owned by a tenant — against one shared
:class:`~repro.store.tiered.TieredLedger`:

* **bounded queue + priorities** — pending requests wait in a priority
  queue (tenant priority, then arrival order); a full queue rejects new
  submissions with :class:`~repro.errors.ServiceOverloadError` before
  any ledger or queue state is taken, which is what an open-loop client
  reads as backpressure;
* **tenant budget shares** — each tenant's share partitions the RAM
  budget only (spill tiers stay shared); a request whose flagged output
  would push its tenant over its share first sheds the tenant's *own*
  RAM residency via :meth:`~repro.store.tiered.TieredLedger.
  demote_victim` (``owner=``) so tenants cannot squeeze each other out
  of tier 0.  Enforcement is admission-granular: a single promote or an
  over-share output can overshoot the share by at most one entry
  (degrading to shared-RAM pressure, never deadlock), and the next
  admission sheds back below it;
* **admission control** — every request runs the same
  :class:`~repro.exec.kernel.NodeKernel` phases the single-run backends
  use (reads, compute, stall-vs-spill arbitration, output placement),
  over the service's one ledger, one storage device and one
  *service-wide* heap of pending materialization drains, so one
  request's stall decision sees every request's upcoming releases;
* **cancellation/deadlines with clean unwind** — cancellation is
  cooperative at node boundaries (the same ``threading.Event`` contract
  as :class:`~repro.exec.base.ExecutionBackend` ``cancel``); a
  cancelled or deadline-expired request drops its pending drains and
  force-releases its residual entries, so the shared ledger keeps no
  leaked holds, reservations, or consumer counts.

Execution is modeled the same way the discrete-event backends model it
(device cost model + tier charges), but *realized* on the wall clock:
one logical (modeled) second sleeps ``time_scale`` real seconds on the
event loop, so concurrency, queueing delay, and the latency percentiles
the benchmark reports are genuinely measured, not simulated.  The
logical clock is shared: it is the service's wall age divided by
``time_scale``, so drain ETAs and stall decisions line up across
concurrent requests.  (One knowing approximation: the kernel's
arbitration applies the drains a stall waits through *at decision time*,
then the request sleeps to its advanced clock — memory can free slightly
earlier in wall terms than the drain's logical ETA.)

This module runs a real event loop and measures real latencies, so
wall-clock reads here are by design (``repro/serve/`` is on the
repro-lint REP001 allowlist).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import random
import threading
import time
from dataclasses import dataclass, field

from repro.engine.storage import StorageDevice
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import (
    RunCancelledError,
    ServiceOverloadError,
    ValidationError,
)
from repro.exec.base import SimulatorOptions
from repro.exec.kernel import NodeKernel
from repro.graph.dag import DependencyGraph
from repro.graph.topo import kahn_topological_order
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import EventBus, resolve_bus
from repro.store.config import SpillConfig
from repro.store.tiered import TieredLedger


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the service.

    ``share`` is the tenant's fraction of the service RAM budget (the
    shares of all tenants should sum to at most 1; the constructor
    validates the sum).  ``priority`` orders the pending queue — higher
    runs first; ties fall back to arrival order.
    """

    name: str
    share: float
    priority: int = 0


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs.

    Attributes:
        ram_budget_gb: the shared ledger's RAM (tier 0) budget.
        spill: the tier hierarchy below RAM (shared by all tenants).
        queue_limit: max *pending* requests; submissions beyond it are
            rejected with :class:`~repro.errors.ServiceOverloadError`.
        max_concurrent: refresh requests executing at once.
        time_scale: wall seconds one modeled second takes (the knob
            that keeps benchmarks fast: ``1e-3`` → a modeled 30 s
            refresh takes 30 ms of wall clock).
        deadline_s: default per-request deadline in *wall* seconds
            (``None``: no deadline); enforced cooperatively at node
            boundaries, like cancellation.
    """

    ram_budget_gb: float
    spill: SpillConfig = field(default_factory=SpillConfig)
    queue_limit: int = 64
    max_concurrent: int = 8
    time_scale: float = 1e-3
    deadline_s: float | None = None


@dataclass
class RequestResult:
    """Terminal record of one refresh request.

    ``status`` is one of ``"ok"``, ``"cancelled"``, ``"timeout"``
    (deadline), or ``"failed"``; latencies are wall seconds measured on
    the service clock.  ``trace`` is the per-request
    :class:`~repro.engine.trace.RunTrace` (``None`` unless ``ok``).
    """

    request_id: str
    tenant: str
    status: str
    queued_s: float
    started_s: float | None
    finished_s: float
    trace: RunTrace | None = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Submission-to-terminal wall latency (what a client sees)."""
        return self.finished_s - self.queued_s

    @property
    def queue_wait_s(self) -> float | None:
        return (None if self.started_s is None
                else self.started_s - self.queued_s)


class RequestHandle:
    """Caller's side of one submitted request: await it, or cancel it."""

    def __init__(self, request: _Request) -> None:
        self._request = request

    @property
    def request_id(self) -> str:
        return self._request.request_id

    def cancel(self) -> None:
        """Request cooperative cancellation (next node boundary)."""
        self._request.cancel.set()

    def __await__(self):
        return self._request.future.__await__()


@dataclass
class _Request:
    request_id: str
    tenant: TenantSpec
    graph: DependencyGraph
    order: list[str]
    flagged: frozenset
    deadline_s: float | None
    future: asyncio.Future
    queued_s: float
    cancel: threading.Event = field(default_factory=threading.Event)
    started_s: float | None = None
    # node id -> request-scoped ledger key (concurrent requests over
    # the same workload must never collide on an entry id); filled
    # when the request starts executing
    keys: dict[str, str] = field(default_factory=dict)


class RefreshService:
    """Long-running multi-tenant refresh scheduler (see module docs).

    Use as an async context manager::

        async with RefreshService(config, tenants) as svc:
            handles = [await svc.submit(graph, plan, tenant="a"), ...]
            results = [await h for h in handles]

    All methods must be called from the service's event loop.
    """

    def __init__(self, config: ServiceConfig,
                 tenants: list[TenantSpec] | tuple[TenantSpec, ...],
                 profile: DeviceProfile | None = None,
                 bus: EventBus | None = None,
                 ledger: TieredLedger | None = None) -> None:
        if not tenants:
            raise ValidationError("a service needs at least one tenant")
        total_share = sum(t.share for t in tenants)
        if total_share > 1.0 + 1e-9:
            raise ValidationError(
                f"tenant shares sum to {total_share:.6g} > 1: shares "
                f"partition the RAM budget")
        if any(t.share <= 0 for t in tenants):
            raise ValidationError("tenant shares must be > 0")
        self.config = config
        self.profile = profile or DeviceProfile()
        self.bus = resolve_bus(bus)
        self.tenants = {t.name: t for t in tenants}
        if len(self.tenants) != len(tenants):
            raise ValidationError("duplicate tenant names")
        self.ledger = ledger if ledger is not None else TieredLedger(
            config.ram_budget_gb, config.spill, profile=self.profile,
            bus=bus)
        for tenant in tenants:
            self.ledger.register_tenant(
                tenant.name, tenant.share * config.ram_budget_gb)
        # unflagged / overflow outputs pay a blocking write on one
        # shared device clock, so concurrent writers contend for it
        # exactly like the single-run backends' storage device
        self._storage = StorageDevice(profile=self.profile)
        # runtime policy of every request's kernel: the service's tiers,
        # never raise on overflow, no compute penalty
        self._options = SimulatorOptions(spill=config.spill)
        self._epoch = time.perf_counter()
        self._seq = itertools.count()
        self._pending: list[tuple[int, int, _Request]] = []
        self._running = 0
        self._closing = False
        self._wakeup: asyncio.Condition | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        # service-wide pending materialization drains:
        # (logical eta, request-scoped key) — *every* request's
        # arbitration sees every request's upcoming releases
        self._drains: list[tuple[float, str]] = []
        self.results: list[RequestResult] = []

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def wall(self) -> float:
        """Wall seconds since the service epoch."""
        return time.perf_counter() - self._epoch

    def _now(self) -> float:
        """Logical (modeled) seconds since the service epoch."""
        return self.wall() / self.config.time_scale

    async def _sleep_until(self, t_logical: float) -> None:
        delay = (t_logical - self._now()) * self.config.time_scale
        if delay > 0:
            await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "RefreshService":
        self._wakeup = asyncio.Condition()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Run every queued/running request to a terminal state, then
        stop the dispatcher."""
        assert self._wakeup is not None
        async with self._wakeup:
            self._closing = True
            self._wakeup.notify_all()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._tasks:
            await asyncio.gather(*self._tasks)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, graph: DependencyGraph, plan,
                     tenant: str,
                     deadline_s: float | None = None,
                     cancel: threading.Event | None = None,
                     ) -> RequestHandle:
        """Queue one refresh request; returns an awaitable handle.

        ``cancel`` lets a caller supply the request's cancellation
        event (the :class:`~repro.exec.base.ExecutionBackend` ``cancel``
        contract); by default each request gets its own.

        Raises:
            ServiceOverloadError: the pending queue is at
                ``queue_limit`` (nothing was enqueued — open-loop
                backpressure).
            ValidationError: unknown tenant, or submitting after
                ``drain``.
        """
        if tenant not in self.tenants:
            raise ValidationError(f"unknown tenant {tenant!r}")
        if self._closing or self._wakeup is None:
            raise ValidationError("service is not accepting requests")
        if len(self._pending) >= self.config.queue_limit:
            raise ServiceOverloadError(
                f"request queue full ({self.config.queue_limit} pending)")
        spec = self.tenants[tenant]
        seq = next(self._seq)
        order = (list(plan.order) if plan is not None
                 else kahn_topological_order(graph))
        flagged = frozenset(plan.flagged) if plan is not None else frozenset()
        request = _Request(
            request_id=f"r{seq}", tenant=spec, graph=graph, order=order,
            flagged=flagged,
            deadline_s=(self.config.deadline_s if deadline_s is None
                        else deadline_s),
            future=asyncio.get_running_loop().create_future(),
            queued_s=self.wall(),
            cancel=cancel if cancel is not None else threading.Event())
        if self.bus.enabled:
            self.bus.instant("queued", "request", f"tenant:{tenant}",
                             self._now(),
                             args={"request": request.request_id,
                                   "pending": len(self._pending) + 1})
        async with self._wakeup:
            heapq.heappush(self._pending, (-spec.priority, seq, request))
            self._wakeup.notify_all()
        return RequestHandle(request)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            async with self._wakeup:
                # wake only when there is something to *do*: a pending
                # request with a free slot, or a drain with an empty
                # queue (drain still dispatches every queued request)
                await self._wakeup.wait_for(
                    lambda: (self._pending
                             and self._running < self.config.max_concurrent)
                    or (self._closing and not self._pending))
                if not self._pending:
                    return  # draining and the queue is empty
                _, _, request = heapq.heappop(self._pending)
                self._running += 1
            task = asyncio.create_task(self._run_request(request))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _release_slot(self) -> None:
        assert self._wakeup is not None
        async with self._wakeup:
            self._running -= 1
            self._wakeup.notify_all()

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    async def _run_request(self, request: _Request) -> None:
        request.started_s = self.wall()
        tenant = request.tenant.name
        started_logical = self._now()
        if self.bus.enabled:
            self.bus.instant("admitted", "request", f"tenant:{tenant}",
                             started_logical,
                             args={"request": request.request_id,
                                   "queue_wait_s":
                                       request.started_s - request.queued_s})
        status, trace, error = "ok", None, None
        try:
            trace = await self._execute(request)
        except RunCancelledError as exc:
            status = ("timeout" if "deadline" in str(exc) else "cancelled")
            error = str(exc)
            self._unwind(request)
        except asyncio.CancelledError:
            status, error = "cancelled", "task cancelled"
            self._unwind(request)
            raise
        except Exception as exc:  # crash isolation: one bad request
            status, error = "failed", f"{type(exc).__name__}: {exc}"
            self._unwind(request)
        finally:
            finished = self.wall()
            result = RequestResult(
                request_id=request.request_id, tenant=tenant,
                status=status, queued_s=request.queued_s,
                started_s=request.started_s, finished_s=finished,
                trace=trace, error=error)
            self.results.append(result)
            if self.bus.enabled:
                self.bus.span("request", "request", f"tenant:{tenant}",
                              started_logical, self._now(),
                              args={"request": request.request_id,
                                    "status": status})
                self.bus.instant(
                    "done" if status == "ok" else "cancelled",
                    "request", f"tenant:{tenant}", self._now(),
                    args={"request": request.request_id,
                          "status": status,
                          "latency_s": result.latency_s})
            if not request.future.done():
                request.future.set_result(result)
            await self._release_slot()

    def _check_boundary(self, request: _Request,
                        node_id: str | None) -> None:
        """Cooperative cancellation + deadline check between nodes."""
        if request.cancel.is_set():
            raise RunCancelledError(
                f"request {request.request_id} cancelled", node_id=node_id)
        if request.deadline_s is not None and \
                self.wall() - request.queued_s > request.deadline_s:
            raise RunCancelledError(
                f"request {request.request_id} deadline "
                f"({request.deadline_s:g}s) exceeded", node_id=node_id)

    async def _execute(self, request: _Request) -> RunTrace:
        graph, ledger = request.graph, self.ledger
        tenant = request.tenant.name
        share_gb = request.tenant.share * self.config.ram_budget_gb
        request.keys = {node_id: f"{request.request_id}/{node_id}"
                        for node_id in request.order}
        # the single-run lifecycle over the service's shared state;
        # only the key function and the lost-flag set are this request's
        kernel = NodeKernel(graph, ledger, self.profile, self._options,
                            storage=self._storage, drains=self._drains,
                            key=request.keys.__getitem__)
        traces: list[NodeTrace] = []
        for node_id in request.order:
            self._check_boundary(request, node_id)
            clock = self._now()
            trace = NodeTrace(node_id=node_id, start=clock,
                              flagged=node_id in request.flagged)
            clock = kernel.read_and_compute(node_id, trace, clock)
            # realize the modeled read+compute on the event loop —
            # this is where concurrent requests genuinely overlap
            await self._sleep_until(clock)
            kernel.release_parents(node_id)
            if trace.flagged:
                # tenant share enforcement: shed our *own* RAM bytes
                # first, so one tenant's burst cannot evict another's
                size = graph.size_of(node_id)
                while ledger.tenant_usage(tenant) + size > share_gb:
                    shed = ledger.demote_victim(now=clock, owner=tenant)
                    if shed is None:
                        break  # nothing of ours left to shed
                    for charge in shed[1]:
                        trace.spill_write += charge.seconds
                        clock += charge.seconds
                ledger.set_owner(request.keys[node_id], tenant)
            # the background materialization lands on the shared device
            # channel: the drain every arbitration (any request's) can
            # wait on
            clock = kernel.place_output(node_id, trace, clock)
            await self._sleep_until(clock)
            trace.end = clock
            traces.append(trace)
        self._check_boundary(request, None)
        # drain this request's own pending materializations so its
        # entries complete their release protocol; other requests'
        # drains stay queued on their own ETAs
        drained_at = self._finish_drains(request)
        finished = traces[-1].end if traces else self._now()
        return RunTrace(
            nodes=traces,
            end_to_end_time=max(drained_at, finished),
            compute_finished_at=finished,
            background_drained_at=drained_at,
            peak_catalog_usage=self.ledger.peak_usage,
            memory_budget=self.config.ram_budget_gb,
            method=f"service[{tenant}]",
            extras={"service": {
                "request_id": request.request_id,
                "tenant": tenant,
            }},
        )

    # ------------------------------------------------------------------
    # materialization drains
    # ------------------------------------------------------------------
    def _drop_drains(self, request: _Request) -> list[tuple[float, str]]:
        """Take the request's pending drains off the shared heap (in
        place: every in-flight request's kernel holds the same list)."""
        prefix = request.request_id + "/"
        keep: list[tuple[float, str]] = []
        dropped: list[tuple[float, str]] = []
        for drain in self._drains:
            (dropped if drain[1].startswith(prefix) else keep).append(drain)
        if dropped:
            self._drains[:] = keep
            heapq.heapify(self._drains)
        return dropped

    def _finish_drains(self, request: _Request) -> float:
        """Apply the request's remaining drains at their ETAs (logical
        end-of-run drain, like the backends' ``finish``)."""
        drained_at = self._now()
        for eta, key in self._drop_drains(request):
            drained_at = max(drained_at, eta)
            if key in self.ledger:
                self.ledger.materialized(key)
        return drained_at

    # ------------------------------------------------------------------
    # unwind
    # ------------------------------------------------------------------
    def _unwind(self, request: _Request) -> None:
        """Return the shared ledger to a clean state for this request:
        drop its pending drains, then force-release every entry it still
        holds anywhere in the hierarchy.  After this, the request has
        leaked no holds, reservations, or consumer counts."""
        self._drop_drains(request)
        for key in sorted(request.keys.values()):
            if key in self.ledger:
                self.ledger.force_release(key)

    # ------------------------------------------------------------------
    # invariants / reporting
    # ------------------------------------------------------------------
    def audit(self) -> dict:
        """Shared-ledger invariant audit (the smoke job's exit gate).

        Returns a dict of violation lists — all empty on a healthy
        service.  Meaningful after :meth:`drain`: a drained service
        must hold no request entries and every tenant balance must be
        zero (and during a run, tenant usage must sum to RAM usage).
        """
        violations: dict[str, list] = {
            "leaked_entries": [], "negative_balances": [],
            "tenant_sum_mismatch": []}
        violations["leaked_entries"] = sorted(self.ledger.resident())
        tenant_sum = 0.0
        for name in self.ledger.tenant_names():
            usage = self.ledger.tenant_usage(name)
            tenant_sum += usage
            if usage < -1e-9:
                violations["negative_balances"].append((name, usage))
        if abs(tenant_sum - self.ledger.usage) > 1e-6:
            violations["tenant_sum_mismatch"].append(
                (tenant_sum, self.ledger.usage))
        return violations

    def latencies_by_tenant(self) -> dict[str, list[float]]:
        """Wall latencies of completed (``ok``) requests per tenant."""
        out: dict[str, list[float]] = {name: [] for name in self.tenants}
        for result in self.results:
            if result.status == "ok":
                out[result.tenant].append(result.latency_s)
        return out


def run_open_loop(service: RefreshService, graph: DependencyGraph, plan,
                  n_requests: int, arrival_rate: float,
                  seed: int = 0) -> list[RequestResult]:
    """Drive ``service`` open-loop and return the results in submission
    order: ``n_requests`` seeded Poisson arrivals (``arrival_rate`` per
    wall second), the tenants taking turns.  An arrival never waits for
    a completion — the clock keeps ticking while the service queues,
    which is what exposes queueing delay (a closed loop self-throttles
    and hides the knee)."""
    rng = random.Random(seed)
    names = list(service.tenants)

    async def open_loop():
        async with service as svc:
            handles = []
            for i in range(n_requests):
                await asyncio.sleep(rng.expovariate(arrival_rate))
                handles.append(await svc.submit(
                    graph, plan, tenant=names[i % len(names)]))
            return [await handle for handle in handles]

    return asyncio.run(open_loop())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValidationError("percentile of an empty list")
    ranked = sorted(values)
    rank = max(0, min(len(ranked) - 1,
                      int(round(q / 100.0 * (len(ranked) - 1)))))
    return ranked[rank]
