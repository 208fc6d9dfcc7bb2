"""The multi-tenant concurrent refresh scheduler over one shared ledger.

:class:`RefreshService` admits a *stream* of refresh requests — each a
(graph, plan) pair owned by a tenant — against one shared
:class:`~repro.store.tiered.TieredLedger`:

* **bounded queue + priorities** — pending requests wait in a priority
  queue (tenant priority, then arrival order); a full queue rejects new
  submissions with :class:`~repro.errors.ServiceOverloadError` before
  any ledger or queue state is taken, which is what an open-loop client
  reads as backpressure;
* **one lifecycle** — every node of every request runs
  :meth:`~repro.exec.kernel.NodeKernel.run_node`, the serial
  simulator's lifecycle (prefetch, reads, compute, stall-vs-spill
  arbitration, output placement, parent release), over the service's
  one ledger, one storage device and one *service-wide* heap of pending
  materialization drains, so one request's stall decision sees every
  request's upcoming releases;
* **tenant budget shares** — each tenant's share partitions the RAM
  budget only (spill tiers stay shared).  The service tags a flagged
  output with its tenant before admission
  (:meth:`~repro.store.tiered.TieredLedger.set_owner`) and the ledger
  enforces the share there: ``spill_insert`` sheds the tenant's *own*
  RAM entries while the output does not fit the rest of its share, and
  a promote that would not fit it is not made, so tenants cannot
  squeeze each other out of tier 0.  One tenant with the whole budget
  is therefore billed exactly what the serial simulator bills;
* **cancellation/deadlines with clean unwind** — cancellation is
  cooperative at node boundaries (the same ``threading.Event`` contract
  as :class:`~repro.exec.base.ExecutionBackend` ``cancel``); a
  cancelled or deadline-expired request drops its pending drains and
  force-releases its residual entries, so the shared ledger keeps no
  leaked holds, reservations, or consumer counts.

**One clock.**  The service reads time only from its event loop
(``loop.time()``), and one modeled second takes ``time_scale`` loop
seconds.  A node starts at the later of its request's kernel clock and
the loop's, runs on the kernel's clock, and the request then waits on
the loop until the kernel's clock (an absolute ``loop.call_at``).  On a
real event loop concurrency, queueing delay and latency percentiles
are measured; on a virtual-time loop — one whose clock jumps to the
next timer when nothing is ready — a run is deterministic, and a solo
request at ``time_scale=1`` never drifts from the kernel's clock.  (One
knowing approximation: a node's phases touch the shared ledger when it
starts, then the request sleeps to its end — memory can free slightly
earlier in loop terms than the model's timeline.)
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import random
import threading
from dataclasses import dataclass, field

from repro.engine.storage import StorageDevice
from repro.engine.trace import RunTrace
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
        time_scale: loop seconds one modeled second takes (the knob
            that keeps benchmarks fast: ``1e-3`` → a modeled 30 s
            refresh takes 30 ms of wall clock on a real loop).
        deadline_s: default per-request deadline in *loop* seconds
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
    (deadline), or ``"failed"``; latencies are loop seconds since the
    service started.  ``trace`` is the per-request
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
        """Submission-to-terminal latency (what a client sees)."""
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
        self._epoch: float | None = None  # loop time at __aenter__
        self._seq = itertools.count()
        self._pending: list[tuple[int, int, _Request]] = []
        self._running = 0
        self._closing = False
        self._tasks: set[asyncio.Task] = set()
        # service-wide pending materialization drains:
        # (logical eta, request-scoped key) — *every* request's
        # arbitration sees every request's upcoming releases
        self._drains: list[tuple[float, str]] = []
        self.results: list[RequestResult] = []

    # ------------------------------------------------------------------
    # the one clock: the running event loop's
    # ------------------------------------------------------------------
    def wall(self) -> float:
        """Loop seconds since the service started."""
        return asyncio.get_running_loop().time() - self._epoch

    def _now(self) -> float:
        """Logical (modeled) seconds since the service started."""
        return self.wall() / self.config.time_scale

    async def _sleep_until(self, t_logical: float) -> None:
        """Wait until logical time ``t_logical``, woken at an absolute
        loop time so the wait adds no rounding of its own."""
        loop = asyncio.get_running_loop()
        when = self._epoch + t_logical * self.config.time_scale
        if when > loop.time():
            woken = loop.create_future()
            timer = loop.call_at(when, woken.set_result, None)
            try:
                await woken
            finally:
                timer.cancel()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "RefreshService":
        self._epoch = asyncio.get_running_loop().time()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting requests and run every queued/running request
        to a terminal state."""
        self._closing = True
        self._start_ready()
        while self._tasks:
            await asyncio.gather(*self._tasks)

    # ------------------------------------------------------------------
    # submission and dispatch
    # ------------------------------------------------------------------
    async def submit(self, graph: DependencyGraph, plan,
                     tenant: str,
                     deadline_s: float | None = None,
                     cancel: threading.Event | None = None,
                     ) -> RequestHandle:
        """Queue one refresh request; returns an awaitable handle.

        The request starts on a later turn of the loop, so back-to-back
        submissions queue (and are dispatched by priority) together.
        ``cancel`` lets a caller supply the request's cancellation
        event (the :class:`~repro.exec.base.ExecutionBackend` ``cancel``
        contract); by default each request gets its own.

        Raises:
            ServiceOverloadError: the pending queue is at
                ``queue_limit`` (nothing was enqueued — open-loop
                backpressure).
            ValidationError: unknown tenant, or submitting outside
                ``async with`` / after ``drain``.
        """
        if tenant not in self.tenants:
            raise ValidationError(f"unknown tenant {tenant!r}")
        if self._closing or self._epoch is None:
            raise ValidationError("service is not accepting requests")
        if len(self._pending) >= self.config.queue_limit:
            raise ServiceOverloadError(
                f"request queue full ({self.config.queue_limit} pending)")
        loop = asyncio.get_running_loop()
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
            future=loop.create_future(),
            queued_s=self.wall(),
            cancel=cancel if cancel is not None else threading.Event())
        if self.bus.enabled:
            self.bus.instant("queued", "request", f"tenant:{tenant}",
                             self._now(),
                             args={"request": request.request_id,
                                   "pending": len(self._pending) + 1})
        heapq.heappush(self._pending, (-spec.priority, seq, request))
        loop.call_soon(self._start_ready)
        return RequestHandle(request)

    def _start_ready(self) -> None:
        """Start pending requests, highest priority first, while a slot
        is free (called after a submission and when a request ends)."""
        while self._pending and self._running < self.config.max_concurrent:
            _, _, request = heapq.heappop(self._pending)
            self._running += 1
            task = asyncio.get_running_loop().create_task(
                self._run_request(request))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

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
            trace = await self._execute(request, started_logical)
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
            result = RequestResult(
                request_id=request.request_id, tenant=tenant,
                status=status, queued_s=request.queued_s,
                started_s=request.started_s, finished_s=self.wall(),
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
            self._running -= 1
            self._start_ready()

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

    async def _execute(self, request: _Request, started: float) -> RunTrace:
        tenant = request.tenant.name
        keys = request.keys = {node_id: f"{request.request_id}/{node_id}"
                               for node_id in request.order}
        # the serial lifecycle over the service's shared state; only
        # the key function and the lost-flag set are this request's
        kernel = NodeKernel(request.graph, self.ledger, self.profile,
                            self._options, storage=self._storage,
                            drains=self._drains, key=keys.__getitem__)
        kernel.clock = drained = started
        for node_id in request.order:
            self._check_boundary(request, node_id)
            kernel.clock = max(kernel.clock, self._now())
            flagged = node_id in request.flagged
            if flagged:  # the ledger holds the output to this share
                self.ledger.set_owner(keys[node_id], tenant)
            busy = self._storage.busy_until
            kernel.run_node(node_id, flagged)
            if self._storage.busy_until != busy:
                # this node queued a background write: the channel is
                # serial, so the request's writes are done when it is
                drained = self._storage.busy_until
            # realize the node on the event loop — this is where
            # concurrent requests genuinely overlap
            await self._sleep_until(kernel.clock)
        self._check_boundary(request, None)
        # land this request's own pending materializations so its
        # entries complete their release protocol; other requests'
        # drains stay queued on their own ETAs
        for _, key in self._drop_drains(request):
            if key in self.ledger:
                self.ledger.materialized(key)
        return RunTrace(
            nodes=kernel.traces,
            end_to_end_time=max(kernel.clock, drained),
            compute_finished_at=kernel.clock,
            background_drained_at=drained,
            peak_catalog_usage=self.ledger.peak_usage,
            memory_budget=self.config.ram_budget_gb,
            method=f"service[{tenant}]",
            extras={"service": {
                "request_id": request.request_id,
                "tenant": tenant,
            }},
        )

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
        must hold no request entries and no owner record of an entry
        that is gone, every tenant balance must be zero (and during a
        run, tenant usage must sum to RAM usage).
        """
        ledger = self.ledger
        violations: dict[str, list] = {
            "leaked_entries": sorted(ledger.resident()),
            "orphan_owners": sorted(key for key in ledger.tenants.owners
                                    if key not in ledger),
            "negative_balances": [], "tenant_sum_mismatch": []}
        tenant_sum = 0.0
        for name in ledger.tenant_names():
            usage = ledger.tenant_usage(name)
            tenant_sum += usage
            if usage < -1e-9:
                violations["negative_balances"].append((name, usage))
        if abs(tenant_sum - ledger.usage) > 1e-6:
            violations["tenant_sum_mismatch"].append(
                (tenant_sum, ledger.usage))
        return violations

    def latencies_by_tenant(self) -> dict[str, list[float]]:
        """Latencies of completed (``ok``) requests per tenant."""
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
