"""The S/C Controller (paper §III-B): plan in, refreshed MVs out.

The Controller ties the pipeline together: it asks the Optimizer for a
plan (or receives one), then hands execution to an
:class:`~repro.exec.base.ExecutionBackend` resolved from the backend
registry — it never special-cases an executor.  Available backends
(see :mod:`repro.exec`):

* ``"simulator"`` (default) — the serial discrete-event simulator;
* ``"parallel"`` — the memory-bounded parallel scheduler: ``workers``
  logical workers execute ready DAG nodes concurrently, in plan order,
  with ledger admission control keeping flagged residency within budget
  (``workers=1`` reproduces the serial simulator);
* ``"lru"`` — the plan-free LRU-cache baseline (topological order,
  blocking writes); selected automatically for ``method="lru"``;
* ``"minidb"`` — the real columnar MiniDB with genuine disk I/O, used by
  :meth:`Controller.refresh_on_minidb`.

All backends share one budget accountant, the
:class:`~repro.exec.ledger.MemoryLedger`, so memory accounting and the
release protocol are identical no matter how a plan executes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem, TierAwareBudget
from repro.engine.trace import RunTrace
from repro.errors import ValidationError
from repro.exec.base import SimulatorOptions, create_backend
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import EventBus
from repro.store.config import SpillConfig, minidb_spill_config


@dataclass
class Controller:
    """Coordinates optimization and execution of MV refresh runs.

    Attributes:
        profile: device cost model for the simulation backends.
        options: simulator runtime policy.
        spill: optional tiered-store configuration applied to simulated
            backends (shorthand for ``options.spill``; per-tier usage and
            spill/promote counts surface in ``RunTrace.extras``).
        spill_dir: optional directory arming *real* spill-to-disk on the
            MiniDB backend (:meth:`refresh_on_minidb`).
        ram_compressed_gb: optional budget (GB of compressed bytes)
            arming a *real* compressed-in-RAM rung between RAM and the
            spill disk on the MiniDB backend; needs ``spill_dir``.
        bus: optional observability :class:`~repro.obs.events.EventBus`
            threaded into every backend this controller creates; ``None``
            (default) keeps tracing off with zero overhead.
        cancel: optional ``threading.Event`` threaded into every backend
            this controller creates; setting it stops the run at the
            next node boundary with
            :class:`~repro.errors.RunCancelledError` (the bench
            orchestrator's trial timeout drives this; a service request
            takes the same kind of event at ``submit``).
    """

    profile: DeviceProfile = field(default_factory=DeviceProfile)
    options: SimulatorOptions = field(default_factory=SimulatorOptions)
    spill: SpillConfig | None = None
    spill_dir: str | None = None
    ram_compressed_gb: float = 0.0
    bus: EventBus | None = None
    cancel: threading.Event | None = None

    def _effective_options(self) -> SimulatorOptions:
        if self.spill is None:
            return self.options
        if self.options.spill is not None and \
                self.options.spill != self.spill:
            raise ValidationError(
                "conflicting spill configurations: set either "
                "Controller.spill or options.spill, not both")
        return replace(self.options, spill=self.spill)

    # ------------------------------------------------------------------
    def tier_budget(self, memory_budget: float,
                    feedback=None) -> TierAwareBudget:
        """Price the controller's spill tiers for tier-aware planning.

        Args:
            memory_budget: the RAM budget the plan will run under.
            feedback: optional :class:`~repro.feedback.CostFeedback` —
                when given, each tier's write/read leg and codec ratio
                come from the feedback's *observed* figures where they
                exist, modeled presets elsewhere.

        Returns:
            A :class:`~repro.core.problem.TierAwareBudget` built from
            the controller's spill configuration and device profile.

        Raises:
            ValidationError: when no spill configuration is armed
                (``Controller.spill`` or ``options.spill``) — a
                tier-aware plan without tiers to spill into would be
                executed as infeasible.
        """
        spill = self._effective_options().spill
        if spill is None:
            raise ValidationError(
                "tier-aware planning needs a spill configuration; set "
                "Controller.spill or options.spill")
        if feedback is not None:
            return feedback.tier_budget(memory_budget, spill,
                                        profile=self.profile)
        return TierAwareBudget.from_spill(memory_budget, spill,
                                          profile=self.profile)

    def plan(self, graph: DependencyGraph, memory_budget: float,
             method: str = "sc", seed: int = 0,
             tier_aware: bool = False, feedback=None) -> Plan:
        """Run the Optimizer and return the refresh plan.

        Args:
            graph: the dependency DAG to refresh.
            memory_budget: Memory Catalog (RAM) size in GB.
            method: optimizer method name (see
                :data:`~repro.core.optimizer.OPTIMIZER_METHODS`).
            seed: seed for the stochastic optimizer components.
            tier_aware: price flagging against the controller's spill
                tiers (:meth:`tier_budget`) so the plan flags more
                aggressively when spilling is cheap; the returned plan's
                ``expected_tiers`` records the anticipated placements.
            feedback: optional :class:`~repro.feedback.CostFeedback`
                from an earlier run — implies tier-aware planning
                against *observed* tier costs (see
                :meth:`replan_from_trace` for the one-call form).

        Returns:
            The refresh :class:`~repro.core.plan.Plan`.

        Raises:
            ValidationError: unknown method, or ``tier_aware`` /
                ``feedback`` without a spill configuration.
        """
        tier_budget = (self.tier_budget(memory_budget, feedback=feedback)
                       if tier_aware or feedback is not None else None)
        problem = ScProblem(graph=graph, memory_budget=memory_budget,
                            tier_budget=tier_budget)
        return optimize(problem, method=method, seed=seed).plan

    def replan_from_trace(self, graph: DependencyGraph, trace: RunTrace,
                          memory_budget: float | None = None,
                          method: str = "sc", seed: int = 0) -> Plan:
        """Re-plan against the costs an executed run actually observed.

        The two-pass feedback loop in one call: the trace's
        ``extras["tiered_store"]`` telemetry is distilled into a
        :class:`~repro.feedback.CostFeedback` and the optimizer solves
        against the feedback-derived
        :class:`~repro.core.problem.TierAwareBudget` — observed
        spill-write/promote-read seconds per GB and realized codec
        ratios replacing the device/codec presets.

        Args:
            graph: the dependency DAG (same workload as the trace).
            trace: a completed tiered run's trace.
            memory_budget: RAM budget for the new plan (defaults to the
                trace's own ``memory_budget``).
            method: optimizer method name.
            seed: optimizer seed.

        Returns:
            The replanned :class:`~repro.core.plan.Plan`.

        Raises:
            ValidationError: no spill configuration armed, or the trace
                carries no tiered-store telemetry.
        """
        from repro.feedback import CostFeedback

        feedback = CostFeedback.from_trace(trace)
        budget = (trace.memory_budget if memory_budget is None
                  else memory_budget)
        return self.plan(graph, budget, method=method, seed=seed,
                         feedback=feedback)

    def refresh(self, graph: DependencyGraph, memory_budget: float,
                method: str = "sc", seed: int = 0,
                plan: Plan | None = None, backend: str | None = None,
                workers: int = 1,
                tier_aware: bool = False, feedback=None) -> RunTrace:
        """Optimize (unless a plan is given) and execute a refresh run.

        Args:
            graph: the dependency DAG to refresh.
            memory_budget: Memory Catalog (RAM) size in GB.
            method: optimizer method; ``"lru"`` routes to the plan-free
                LRU baseline (no plan, no other backend).
            seed: optimizer seed.
            plan: pre-computed plan; skips optimization when given.
            backend: executor registry name (default: ``"simulator"``,
                or ``"lru"`` for ``method="lru"``).
            workers: worker count for parallel backends.
            tier_aware: when optimizing here (no ``plan`` given), price
                flagging against the spill tiers (see :meth:`plan`).
            feedback: optional :class:`~repro.feedback.CostFeedback`
                steering that optimization with observed tier costs.

        Returns:
            The run's :class:`~repro.engine.trace.RunTrace`.

        Raises:
            ValidationError: inconsistent method/backend combinations,
                spill on the LRU baseline, or ``tier_aware`` /
                ``feedback`` without a spill configuration.
        """
        name = backend or ("lru" if method == "lru" else "simulator")
        if method == "lru" and name != "lru":
            raise ValidationError(
                f"method 'lru' runs on the 'lru' backend, not {name!r}")
        options = self._effective_options()
        if name == "lru" and options.spill is not None:
            # the baseline would silently drop the tier hierarchy and
            # report a run the user believes was tiered
            raise ValidationError(
                "the LRU baseline does not support storage tiers; "
                "disable spill or pick another backend")
        executor = create_backend(
            name, profile=self.profile, options=options,
            workers=workers, seed=seed,
            bus=self.bus, cancel=self.cancel)
        if not executor.requires_plan:
            if method != name:
                # a plan-free baseline cannot honor an optimizing method,
                # and mislabeling its trace would corrupt reports
                raise ValidationError(
                    f"backend {name!r} is plan-free and ignores optimizer "
                    f"methods; use method={name!r}")
            # plan-free baselines validate that no plan was smuggled in
            return executor.run(graph, plan, memory_budget, method=method)
        if plan is None:
            plan = self.plan(graph, memory_budget, method=method, seed=seed,
                             tier_aware=tier_aware, feedback=feedback)
        return executor.run(graph, plan, memory_budget, method=method)

    # ------------------------------------------------------------------
    # serving (repro.serve): many concurrent refreshes, one ledger
    # ------------------------------------------------------------------
    def create_service(self, memory_budget: float, tenants,
                       queue_limit: int = 64, max_concurrent: int = 8,
                       time_scale: float = 1e-3,
                       deadline_s: float | None = None):
        """Build a :class:`~repro.serve.service.RefreshService` sharing
        this controller's spill tiers, device profile, and event bus.

        Args:
            memory_budget: the shared ledger's RAM budget in GB;
                ``tenants`` (a list of
                :class:`~repro.serve.service.TenantSpec`) partition it
                by their shares.
            queue_limit / max_concurrent / time_scale / deadline_s:
                see :class:`~repro.serve.service.ServiceConfig`.

        Returns:
            An *unstarted* service — use it as an async context manager.
        """
        from repro.serve.service import RefreshService, ServiceConfig

        spill = self._effective_options().spill
        config = ServiceConfig(
            ram_budget_gb=memory_budget,
            spill=spill if spill is not None else SpillConfig(),
            queue_limit=queue_limit, max_concurrent=max_concurrent,
            time_scale=time_scale, deadline_s=deadline_s)
        return RefreshService(config, tenants, profile=self.profile,
                              bus=self.bus)

    def refresh_concurrent(self, requests, memory_budget: float,
                           tenants, time_scale: float = 1e-3):
        """Run many refresh requests concurrently over one shared ledger.

        The synchronous convenience wrapper over
        :meth:`create_service` — submits every request up front and
        drains the service (long-running callers should drive the async
        API directly).  ``max_concurrent`` and ``deadline_s`` keep
        their :meth:`create_service` defaults.

        Args:
            requests: iterable of ``(graph, plan, tenant)`` triples;
                ``plan`` may be ``None`` for a topological-order run
                with nothing flagged.
            memory_budget: shared RAM budget the tenant shares partition.
            tenants: list of :class:`~repro.serve.service.TenantSpec`.
            time_scale: see :class:`~repro.serve.service.ServiceConfig`.

        Returns:
            ``(results, service)`` — the terminal
            :class:`~repro.serve.service.RequestResult` per request (in
            submission order) and the drained service (for
            ``audit()`` / ``latencies_by_tenant()``).
        """
        import asyncio

        requests = list(requests)
        service = self.create_service(
            memory_budget, tenants, queue_limit=max(len(requests), 1),
            time_scale=time_scale)

        async def _run_all():
            async with service as svc:
                handles = [await svc.submit(graph, plan, tenant=tenant)
                           for graph, plan, tenant in requests]
                return [await handle for handle in handles]

        return asyncio.run(_run_all()), service

    # ------------------------------------------------------------------
    def minidb_tier_budget(self, memory_budget: float) -> TierAwareBudget:
        """Tier-aware budget pricing the hierarchy the MiniDB backend
        will spill into (:func:`~repro.store.config.minidb_spill_config`
        over :attr:`ram_compressed_gb` and the controller's spill policy,
        codec and adaptation), so a tier-aware plan anticipates the real
        run's storage layout — compressed dumps included.

        Raises:
            ValidationError: without ``spill_dir`` — the run would have
                no spill tier, and the plan's extra flags would degrade
                to blocking writes.
        """
        if not self.spill_dir:
            raise ValidationError(
                "tier-aware MiniDB planning needs spill_dir armed; the "
                "plan's extra flags would otherwise degrade to blocking "
                "writes")
        spill = self.spill or SpillConfig()
        config = minidb_spill_config(self.ram_compressed_gb, spill.policy,
                                     spill.codec, spill.adapt)
        return TierAwareBudget.from_spill(memory_budget, config,
                                          profile=self.profile)

    def plan_for_minidb(self, graph: DependencyGraph, memory_budget: float,
                        method: str = "sc", seed: int = 0,
                        tier_aware: bool = False) -> Plan:
        """Optimize a plan for a MiniDB run (see :meth:`plan`).

        With ``tier_aware`` the problem carries
        :meth:`minidb_tier_budget` instead of the simulated-backend
        spill tiers, so flagging is priced against the real spill
        directory's device model.
        """
        tier_budget = (self.minidb_tier_budget(memory_budget)
                       if tier_aware else None)
        problem = ScProblem(graph=graph, memory_budget=memory_budget,
                            tier_budget=tier_budget)
        return optimize(problem, method=method, seed=seed).plan

    def refresh_on_minidb(self, workload, memory_budget: float,
                          method: str = "sc", seed: int = 0,
                          plan: Plan | None = None,
                          tier_aware: bool = False) -> RunTrace:
        """Execute a SQL workload on the real MiniDB backend.

        ``workload`` is a :class:`repro.db.engine.SqlWorkload` — a MiniDB
        instance plus MV definitions forming the dependency graph. Timings
        in the returned trace are wall-clock measurements of real operator
        execution and real (compressed) disk I/O.

        A pre-computed ``plan`` may assume more memory than
        ``memory_budget`` grants (a plan built for a bigger machine);
        with ``spill_dir`` set the run then completes through real
        spills instead of losing flags to blocking writes.

        Args:
            workload: the SQL workload to refresh.
            memory_budget: RAM budget in GB for the memory catalog.
            method: optimizer method name.
            seed: optimizer seed.
            plan: pre-computed plan; skips optimization when given.
            tier_aware: when optimizing here, price flagging against
                the MiniDB spill tier (:meth:`minidb_tier_budget`).

        Returns:
            The run's wall-clock :class:`~repro.engine.trace.RunTrace`.

        Raises:
            ValidationError: ``spill.adapt`` without a ``spill_dir`` (a
                run that cannot spill has no dumps to measure), and the
                rules of :meth:`minidb_tier_budget` and the backend (a
                ``ram_compressed_gb`` rung needs ``spill_dir`` too).
        """
        spill = self.spill or SpillConfig()
        if spill.adapt is not None and not self.spill_dir:
            raise ValidationError(
                "codec adaptation on MiniDB needs spill_dir armed; "
                "without a spill tier the run never spills, so there is "
                "nothing to measure")
        graph = workload.graph()
        if plan is None:
            plan = self.plan_for_minidb(graph, memory_budget,
                                        method=method, seed=seed,
                                        tier_aware=tier_aware)
        executor = create_backend(
            "minidb", profile=self.profile, options=self.options,
            seed=seed, bus=self.bus, cancel=self.cancel,
            workload=workload, spill_dir=self.spill_dir,
            spill_policy=spill.policy, spill_codec=spill.codec,
            spill_adapt=spill.adapt,
            ram_compressed_gb=self.ram_compressed_gb)
        return executor.run(graph, plan, memory_budget, method=method)
