"""Memory-bounded parallel scheduling of DAG nodes.

The paper's Controller executes one refresh statement at a time (§III-B);
independent DAG nodes are nevertheless the natural unit of parallelism
(cf. the MapReduce data-cube and column-oriented Datalog materialization
lines of work in PAPERS.md).  The hard part is that S/C's memory bound is
*global*: concurrent workers must never jointly push flagged residency
past the Memory Catalog budget.

:class:`ParallelSimulatorBackend` (registry name ``"parallel"``) is a
deterministic discrete-event simulation of ``workers`` logical workers
over the shared :class:`~repro.exec.ledger.MemoryLedger`.  A node
dispatches when (a) all parents completed, (b) a worker is free, and
(c) — **admission control** — if flagged, its output size can be
*reserved* against the remaining ledger budget.  Reservations count
against admission immediately but commit to ``usage``/``peak_usage``
only at output time, so committed peaks keep the serial semantics.  With
``workers=1`` there is nothing to schedule: the run is
:meth:`~repro.exec.kernel.NodeKernel.run_node` once per node in plan
order — the serial simulator, bit for bit, by construction.  Logical
clocks plus a seeded tie-break priority make every run reproducible for
a given seed; no real clock is read.

The scheduler avoids admission deadlock the same way the serial
simulator escapes drain backpressure: when nothing is running, nothing
is draining, and no ready node fits, the highest-priority ready node
runs *spilled* (blocking write, no flag) — so a refresh can always make
progress, and ``on_overflow="error"`` raises instead.

Every per-node charge — reads from whichever tier holds a parent,
compute, output placement, drains, parent release — is the shared
:class:`~repro.exec.kernel.NodeKernel`'s; this module owns only what is
a scheduler: readiness, the worker heap, reservations, and *dispatch-time*
stall-vs-spill arbitration (:meth:`ParallelSimulatorBackend.
_prefers_stall`, ``SpillConfig.arbitrate``) — a blocked flagged node
demotes victims only when the modeled demote+promote round trip is
cheaper than waiting for the next completion or drain.

With ``SpillConfig.prefetch`` on, each dispatch round opens with a
promote-ahead pass: spilled parents of ready (soon-to-run) nodes are
promoted back into RAM during the idle device window before dispatch.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field

from repro.core.plan import Plan
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import ExecutionError, ValidationError
from repro.exec.base import (
    ExecutionBackend,
    ExecutionContext,
    register_backend,
)
from repro.exec.kernel import NodeKernel
from repro.graph.dag import DependencyGraph
from repro.graph.topo import check_topological_order
from repro.obs.events import emit_node_events


@dataclass
class _SchedulerState:
    """Mutable event-loop state of the parallel simulation.

    Two event sources drive the loop: ``completions`` here and the
    kernel's drain heap.  A drain due at time t applies before a
    completion at t — matching the serial lifecycle, which drains the
    catalog before inserting.
    """

    kernel: NodeKernel
    deps_left: dict[str, int]
    priority: dict[str, tuple]
    now: float = 0.0
    ready: set[str] = field(default_factory=set)
    blocked_since: dict[str, float] = field(default_factory=dict)
    idle_workers: list[int] = field(default_factory=list)
    # (end clock, dispatch sequence, node id, worker, node trace)
    completions: list[tuple] = field(default_factory=list)
    seq: "itertools.count" = field(default_factory=itertools.count)
    completed: set[str] = field(default_factory=set)
    last_completion: float = 0.0
    # tiered-store bookkeeping: demotion charges made while admitting a
    # node (successful or not), billed to that node's timeline when it
    # executes; tier_direct marks flagged outputs bigger than RAM that
    # will be placed below RAM at their completion event; arb_pending
    # holds each blocked node's first spill estimate until its
    # admission resolves (stall win vs eventual demotion)
    pending_spill: dict[str, list] = field(default_factory=dict)
    tier_direct: set[str] = field(default_factory=set)
    arb_pending: dict[str, float] = field(default_factory=dict)
    arb_resolved: set[str] = field(default_factory=set)

    def next_event_time(self) -> float | None:
        """When the next drain or completion lands (None: nothing is
        in flight, so waiting cannot free space)."""
        drains, completions = self.kernel.drains, self.completions
        if drains and completions:
            return min(drains[0][0], completions[0][0])
        if drains or completions:
            return (drains or completions)[0][0]
        return None


@register_backend
class ParallelSimulatorBackend(ExecutionBackend):
    """Discrete-event simulation of a memory-bounded worker pool.

    Constructor extras:
        tie_break: ``"plan"`` (default) prioritizes ready nodes by plan
            position; ``"random"`` assigns each node a seeded random
            priority instead — a different but still fully reproducible
            schedule for a given ``seed``.  With ``workers=1`` there is
            nothing to break ties between — the run *is* the serial
            lifecycle in plan order — so requesting a random tie-break
            there is a contradiction and raises
            :class:`ValidationError` instead of silently degrading to
            plan order.
    """

    name = "parallel"

    def prepare(self, graph: DependencyGraph, plan: Plan | None,
                memory_budget: float, method: str = "") -> ExecutionContext:
        if plan is None:
            raise ValidationError(
                "the parallel backend requires a plan; optimize first")
        check_topological_order(graph, plan.order)
        tie_break = self.extra.get("tie_break", "plan")
        if tie_break not in ("plan", "random"):
            raise ValidationError("tie_break must be 'plan' or 'random'")
        if tie_break == "random" and self.workers == 1:
            raise ValidationError(
                "tie_break='random' cannot apply with workers=1: one "
                "worker always runs the plan order (that is the serial "
                "simulator); use workers > 1 or tie_break='plan'")
        rng = random.Random(self.seed)
        position = plan.positions()
        if tie_break == "random":
            priority = {v: (rng.random(), position[v]) for v in plan.order}
        else:
            priority = {v: (position[v],) for v in plan.order}
        kernel = NodeKernel.for_run(graph, memory_budget, self.profile,
                                    self.options, bus=self.bus,
                                    lock=self.ledger_lock)
        state = _SchedulerState(
            kernel=kernel,
            deps_left={v: graph.in_degree(v) for v in graph.nodes()},
            priority=priority,
            idle_workers=list(range(self.workers)),
        )
        heapq.heapify(state.idle_workers)
        state.ready = {v for v, d in state.deps_left.items() if d == 0}
        return ExecutionContext(graph=graph, plan=plan,
                                memory_budget=memory_budget, method=method,
                                ledger=kernel.ledger, payload=state,
                                traces=kernel.traces)

    # ------------------------------------------------------------------
    def run(self, graph: DependencyGraph, plan: Plan | None,
            memory_budget: float, method: str = "") -> RunTrace:
        ctx = self.prepare(graph, plan, memory_budget, method=method)
        state: _SchedulerState = ctx.payload
        if self.workers == 1:
            # nothing to schedule: the kernel once per node in plan
            # order, which is the serial simulator by construction
            for node_id in plan.order:
                self.check_cancelled(node_id)
                state.kernel.run_node(node_id, node_id in plan.flagged)
            state.last_completion = state.kernel.clock
            return self.finish(ctx)
        self._dispatch_round(ctx)
        while len(state.completed) < graph.n:
            self.check_cancelled()
            if state.next_event_time() is None:
                raise ExecutionError(
                    "parallel scheduler stalled: "
                    f"{graph.n - len(state.completed)} nodes unreachable")
            self._process_next_event(ctx)
            self._dispatch_round(ctx)
        return self.finish(ctx)

    # ------------------------------------------------------------------
    def execute_node(self, ctx: ExecutionContext, node_id: str) -> None:
        """Start one node at ``state.now`` on a free worker.

        Reads and compute are charged now; a flagged output that holds a
        reservation is created in memory now and committed at the
        completion event, a tier-direct one is placed at the completion
        event, an unflagged one pays its blocking write now.
        """
        state: _SchedulerState = ctx.payload
        kernel = state.kernel
        worker = heapq.heappop(state.idle_workers)
        flagged = (node_id in ctx.plan.flagged
                   and node_id not in kernel.spilled)
        trace = NodeTrace(node_id=node_id, start=state.now, flagged=flagged)
        if node_id in state.blocked_since:
            trace.stall = state.now - state.blocked_since.pop(node_id)
        clock = kernel.read_and_compute(node_id, trace, state.now)

        # bill demotions made while admitting this node (including ones
        # from attempts that ultimately failed — the moves happened)
        for charge in state.pending_spill.pop(node_id, ()):
            trace.spill_write += charge.seconds
            clock += charge.seconds

        if not flagged:
            clock = kernel.place_output(node_id, trace, clock)
        elif node_id not in state.tier_direct:
            clock = kernel.charge_create(ctx.graph.size_of(node_id), trace,
                                         clock)

        trace.end = clock
        state.ready.discard(node_id)
        kernel.traces.append(trace)
        heapq.heappush(state.completions,
                       (clock, next(state.seq), node_id, worker, trace))

    # ------------------------------------------------------------------
    def _dispatch_round(self, ctx: ExecutionContext) -> None:
        """Start every node that is ready, admissible, and has a worker."""
        state: _SchedulerState = ctx.payload
        kernel = state.kernel
        if self.bus.enabled and state.ready and state.idle_workers:
            self.bus.metrics.counter("scheduler.dispatch_rounds").inc()
            self.bus.instant(
                "dispatch-round", "scheduler", "scheduler", state.now,
                args={"ready": len(state.ready),
                      "idle_workers": len(state.idle_workers),
                      "running": len(state.completions)})
        options = kernel.options
        tiered = options.spill is not None
        prefetching = tiered and options.spill.prefetch
        if not state.ready or not (state.idle_workers or prefetching):
            return
        # promote-ahead dispatch hook: the window before this round's
        # dispatches is idle device time — promote the spilled parents
        # of the nodes that can actually dispatch now (one per idle
        # worker, hottest first; the hottest alone when none is idle,
        # and then nothing dispatches).  Ready nodes further down the
        # priority order are *not* soon-to-run: prefetching their
        # parents would park bytes in RAM for many rounds, where this
        # round's admissions would demote them right back (billed), a
        # thrash loop prefetching exists to avoid.
        if not state.idle_workers:
            kernel.prefetch(min(state.ready, key=state.priority.__getitem__),
                            state.now)
            return
        # one priority sort per round: dispatched nodes drop out of the
        # list in place, blocked ones stay and are retried after every
        # dispatch (a later candidate's try_make_room may free RAM)
        candidates = sorted(state.ready, key=state.priority.__getitem__)
        if prefetching:
            for node_id in candidates[:len(state.idle_workers)]:
                kernel.prefetch(node_id, state.now)
        while state.idle_workers and candidates:
            chosen = None
            for node_id in candidates:
                if (node_id in ctx.plan.flagged
                        and node_id not in kernel.spilled
                        and node_id not in state.tier_direct):
                    size = ctx.graph.size_of(node_id)
                    if ctx.ledger.reserve(node_id, size):
                        self._resolve_arbitration(ctx, node_id,
                                                  stalled=True)
                        chosen = node_id
                        break
                    if tiered and not self._prefers_stall(ctx, node_id,
                                                          size):
                        # spilling is modeled cheaper than waiting for
                        # in-flight work: demote victims to a lower tier
                        # instead of blocking the reservation
                        ok, charges = ctx.ledger.try_make_room(
                            size, now=state.now)
                        if charges:
                            state.pending_spill.setdefault(
                                node_id, []).extend(charges)
                            # demotions happened for this admission: its
                            # arbitration resolved as a spill even if
                            # the reservation only lands later
                            self._resolve_arbitration(ctx, node_id,
                                                      stalled=False)
                        if ok and ctx.ledger.reserve(node_id, size):
                            self._resolve_arbitration(ctx, node_id,
                                                      stalled=False)
                            chosen = node_id
                            break
                    state.blocked_since.setdefault(node_id, state.now)
                else:
                    chosen = node_id
                    break
            if chosen is None:
                # Every ready node is flagged and over budget.  If work is
                # in flight, a completion or drain will free space; if not,
                # waiting cannot help — spill the best candidate (or raise).
                if state.next_event_time() is not None:
                    return
                if options.strict_budget or options.on_overflow == "error":
                    node_id = candidates[0]
                    raise ExecutionError(
                        f"Memory Catalog cannot host {node_id!r} "
                        f"({ctx.graph.size_of(node_id):.6g} GB; "
                        f"{ctx.ledger.available:.6g} free)")
                if tiered:
                    # bigger than RAM itself: keep the flag and place the
                    # output below RAM at its completion event
                    state.tier_direct.add(candidates[0])
                else:
                    kernel.spilled.add(candidates[0])
                # RAM never hosts this output; any open arbitration on
                # it is moot
                state.arb_pending.pop(candidates[0], None)
                continue
            self.execute_node(ctx, chosen)
            candidates.remove(chosen)

    def _prefers_stall(self, ctx: ExecutionContext, node_id: str,
                       size: float) -> bool:
        """Dispatch-time stall-vs-spill arbitration.

        A flagged candidate whose reservation does not fit may either
        demote victims now or stay blocked until in-flight work frees
        space.  Waiting wins when something *is* in flight and the next
        event arrives sooner than the modeled demote+promote round trip
        of the victims a spill would move (estimated by
        :meth:`~repro.store.tiered.TieredLedger.estimate_spill_seconds`).

        Nothing is counted here: the node's first spill estimate parks
        in ``state.arb_pending`` and the decision is recorded by
        :meth:`_resolve_arbitration` once the admission actually
        resolves — a reservation that later succeeds without demotions
        is a stall win; one that ends in ``try_make_room`` charges is a
        spill win, however many rounds it stayed blocked in between.
        Only that first estimate is needed whole: every later one asks
        the ledger for the verdict (``at_least``) and stops pricing as
        soon as it is in.
        """
        state: _SchedulerState = ctx.payload
        ledger = ctx.ledger
        if not ledger.config.arbitrate:
            return False
        next_event = state.next_event_time()
        if next_event is None:
            return False  # nothing can free space: waiting cannot help
        wait = next_event - state.now
        first = (node_id not in state.arb_resolved
                 and node_id not in state.arb_pending)
        estimate = ledger.estimate_spill_seconds(
            size, now=state.now, at_least=None if first else wait)
        if estimate is None:
            return False  # RAM can never host it: tier-direct placement
        if first:
            state.arb_pending[node_id] = estimate
        return wait <= estimate

    def _resolve_arbitration(self, ctx: ExecutionContext, node_id: str,
                             stalled: bool) -> None:
        """Record the outcome of a dispatch-time arbitration, if any.

        No-op for nodes that never went through
        :meth:`_prefers_stall` or whose admission already resolved;
        otherwise books the stall win (with the wait actually served
        and the first spill estimate it avoided) or the spill win into
        the ledger's arbitration counters — at most one decision per
        node admission.
        """
        state: _SchedulerState = ctx.payload
        estimate = state.arb_pending.pop(node_id, None)
        if estimate is None:
            return
        state.arb_resolved.add(node_id)
        if stalled:
            waited = state.now - state.blocked_since.get(node_id,
                                                         state.now)
            ctx.ledger.record_arbitration(stalled=True,
                                          stall_seconds=waited,
                                          avoided=estimate,
                                          now=state.now)
        else:
            ctx.ledger.record_arbitration(stalled=False, now=state.now)

    def _process_next_event(self, ctx: ExecutionContext) -> None:
        state: _SchedulerState = ctx.payload
        kernel = state.kernel
        drains, completions = kernel.drains, state.completions
        if drains and (not completions
                       or drains[0][0] <= completions[0][0]):
            state.now, node_id = heapq.heappop(drains)
            self.materialize(ctx, node_id)
            return
        event_time, _, node_id, worker, trace = heapq.heappop(completions)
        state.now = event_time
        graph = ctx.graph
        if trace.flagged:
            if node_id in state.tier_direct:
                # dispatch-time arbitration already ran; drains later
                # than the next completion wait for the loop to reach
                # them, so that completion sees the ledger of its time
                state.now = kernel.place_output(node_id, trace, event_time,
                                                arbitrate=False)
                kernel.apply_drains(
                    min(state.now, completions[0][0]) if completions
                    else state.now)
                trace.end = state.now
            else:
                ctx.ledger.commit_reservation(
                    node_id, n_consumers=graph.out_degree(node_id),
                    materialization_pending=True)
                kernel.submit_drain(node_id, graph.size_of(node_id),
                                    event_time)
        kernel.release_parents(node_id)
        heapq.heappush(state.idle_workers, worker)
        state.completed.add(node_id)
        state.last_completion = max(state.last_completion, state.now)
        if self.bus.enabled:
            emit_node_events(self.bus, trace, f"worker-{worker}")
        for child in graph.children(node_id):
            state.deps_left[child] -= 1
            if state.deps_left[child] == 0:
                state.ready.add(child)

    # ------------------------------------------------------------------
    def finish(self, ctx: ExecutionContext) -> RunTrace:
        state: _SchedulerState = ctx.payload
        return state.kernel.finish_run(state.last_completion,
                                       ctx.memory_budget, ctx.method,
                                       workers=self.workers)

