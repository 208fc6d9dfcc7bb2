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
only at output time, so committed peaks keep the serial semantics.
Ready nodes are tried in plan order.  With ``workers=1`` there is
nothing to schedule: the run is
:meth:`~repro.exec.kernel.NodeKernel.run_node` once per node in plan
order — the serial simulator, bit for bit, by construction.  Clocks are
logical, so every run is reproducible; no real clock is read.

The scheduler avoids admission deadlock the same way the serial
simulator escapes drain backpressure: when nothing is running, nothing
is draining, and no ready node fits, the first ready node runs
*spilled* (blocking write, no flag) — or, on the tiered store, keeps
its flag and is placed below RAM — so a refresh can always make
progress.

Every per-node charge — reads from whichever tier holds a parent,
compute, output placement, drains, parent release — is the shared
:class:`~repro.exec.kernel.NodeKernel`'s; :class:`_Schedule` owns only
what is a scheduler: readiness, the worker heap, reservations, and
*dispatch-time* stall-vs-spill arbitration (``SpillConfig.arbitrate``) —
a blocked flagged node demotes victims only when the modeled
demote+promote round trip is cheaper than waiting for the next
completion or drain.  Each blocked node has one :class:`_Blocked`
record until it starts.

With ``SpillConfig.prefetch`` on, each dispatch round opens with a
promote-ahead pass: spilled parents of ready (soon-to-run) nodes are
promoted back into RAM during the idle device window before dispatch.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.core.plan import Plan
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import ExecutionError, ValidationError
from repro.exec.base import ExecutionBackend
from repro.exec.kernel import NodeKernel
from repro.graph.dag import DependencyGraph
from repro.graph.topo import check_topological_order
from repro.obs.events import emit_node_events


class ParallelSimulatorBackend(ExecutionBackend):
    """Discrete-event simulation of a memory-bounded worker pool."""

    name = "parallel"

    def run(self, graph: DependencyGraph, plan: Plan | None,
            memory_budget: float, method: str = "") -> RunTrace:
        if plan is None:
            raise ValidationError(
                "the parallel backend requires a plan; optimize first")
        check_topological_order(graph, plan.order)
        kernel = NodeKernel.for_run(graph, memory_budget, self.profile,
                                    self.options, bus=self.bus)
        if self.workers == 1:
            # nothing to schedule: the kernel once per node in plan
            # order, which is the serial simulator by construction
            for node_id in plan.order:
                self.check_cancelled(node_id)
                kernel.run_node(node_id, node_id in plan.flagged)
        else:
            _Schedule(kernel, plan, self.workers).run(self.check_cancelled)
        compute_finished = max((trace.end for trace in kernel.traces),
                               default=0.0)
        return kernel.finish_run(compute_finished, memory_budget, method,
                                 workers=self.workers)


@dataclass
class _Blocked:
    """A flagged node whose reservation failed, until it starts.

    ``estimate`` is its first spill estimate while its arbitration is
    open; ``resolved`` is set once the outcome was booked (a stall win
    if the reservation later lands without demotions, a spill win once
    demotions were made for it); ``charges`` are those demotions, billed
    to the node's timeline when it starts — including ones from
    attempts that failed, the moves happened.
    """

    since: float
    estimate: float | None = None
    resolved: bool = False
    charges: list = field(default_factory=list)


class _Schedule:
    """One multi-worker run over a :class:`NodeKernel`.

    Two event sources drive it: the completion heap here and the
    kernel's drain heap.  A drain due at t applies before a completion
    at t — matching the serial lifecycle, which drains the catalog
    before inserting.
    """

    def __init__(self, kernel: NodeKernel, plan: Plan, workers: int):
        graph = kernel.graph
        self.kernel, self.ledger, self.plan = kernel, kernel.ledger, plan
        self.position = plan.positions()
        self.deps_left = {v: graph.in_degree(v) for v in graph.nodes()}
        self.ready = {v for v, d in self.deps_left.items() if d == 0}
        self.idle = list(range(workers))    # sorted, so already a heap
        # (end clock, dispatch sequence, node id, worker, node trace)
        self.running: list[tuple] = []
        self.seq = itertools.count()
        self.blocked: dict[str, _Blocked] = {}
        # flagged outputs bigger than RAM, placed below RAM at their
        # completion event
        self.tier_direct: set[str] = set()
        self.tiered = kernel.options.spill is not None
        self.prefetching = self.tiered and kernel.options.spill.prefetch
        self.now = 0.0
        self.completed = 0

    def run(self, check_cancelled: Callable[[], None]) -> None:
        """Dispatch and advance until every node completed; a set cancel
        event stops the run before a dispatch round starts anything."""
        n = self.kernel.graph.n
        while self.completed < n:
            check_cancelled()
            self.dispatch()
            if self.next_event() is None:
                raise ExecutionError(
                    "parallel scheduler stalled: "
                    f"{n - self.completed} nodes unreachable")
            self.advance()

    def next_event(self) -> float | None:
        """When the next drain or completion lands (None: nothing is in
        flight, so waiting cannot free space)."""
        drains, running = self.kernel.drains, self.running
        if drains and (not running or drains[0][0] <= running[0][0]):
            return drains[0][0]
        return running[0][0] if running else None

    # ------------------------------------------------------------------
    def dispatch(self) -> None:
        """Start every node that is ready, admissible, and has a worker."""
        kernel, ready, idle = self.kernel, self.ready, self.idle
        bus = kernel.bus
        if bus.enabled and ready and idle:
            bus.instant("dispatch-round", "scheduler", "scheduler",
                        self.now, args={"ready": len(ready),
                                        "idle_workers": len(idle),
                                        "running": len(self.running)})
        if not ready or not (idle or self.prefetching):
            return
        # promote-ahead: the window before this round's dispatches is
        # idle device time — promote the spilled parents of the nodes
        # that can actually dispatch now (one per idle worker, first in
        # plan order; the first alone when none is idle, and then
        # nothing dispatches).  Nodes further down are *not* soon to
        # run: their parents would sit in RAM for many rounds, where
        # this round's admissions would demote them right back (billed).
        if not idle:
            if self.ledger.any_below_ram:  # else a prefetch finds nothing
                kernel.prefetch(min(ready, key=self.position.__getitem__),
                                self.now)
            return
        # one sort per round: started nodes drop out of the list, blocked
        # ones stay and are retried after every start (a later
        # candidate's try_make_room may free RAM)
        candidates = sorted(ready, key=self.position.__getitem__)
        if self.prefetching:
            for node_id in candidates[:len(idle)]:
                kernel.prefetch(node_id, self.now)
        while idle and candidates:
            chosen = next((v for v in candidates if self._admits(v)), None)
            if chosen is None:
                # every ready node is flagged and over budget: a
                # completion or drain in flight will free space; with
                # none, waiting cannot help — give up the first one's RAM
                # residency
                if self.next_event() is not None:
                    return
                (self.tier_direct if self.tiered
                 else kernel.spilled).add(candidates[0])
                continue
            self._start(chosen)
            candidates.remove(chosen)

    def _admits(self, node_id: str) -> bool:
        """Whether ``node_id`` may start now: it needs no RAM, or its
        reservation holds — after demoting victims when spilling is
        modeled cheaper than waiting for in-flight work."""
        if (node_id not in self.plan.flagged
                or node_id in self.kernel.spilled
                or node_id in self.tier_direct):
            return True
        ledger, size = self.ledger, self.kernel.graph.size_of(node_id)
        blocked = self.blocked.get(node_id)
        if ledger.reserve(node_id, size):
            self._resolve(blocked, stalled=True)
            return True
        if blocked is None:
            blocked = self.blocked[node_id] = _Blocked(self.now)
        if self.tiered and not self._prefers_stall(blocked, size):
            ok, charges = ledger.try_make_room(size, now=self.now)
            if charges:
                # demotions happened for this admission: it resolved as a
                # spill even if the reservation only lands later
                blocked.charges.extend(charges)
                self._resolve(blocked, stalled=False)
            if ok and ledger.reserve(node_id, size):
                self._resolve(blocked, stalled=False)
                return True
        return False

    def _prefers_stall(self, blocked: _Blocked, size: float) -> bool:
        """Dispatch-time stall-vs-spill arbitration.

        Waiting wins when something *is* in flight and the next event
        arrives sooner than the modeled demote+promote round trip of the
        victims a spill would move
        (:meth:`~repro.store.tiered.TieredLedger.estimate_spill_seconds`).
        Nothing is counted here: the first estimate parks in the
        node's record and :meth:`_resolve` books the decision once the
        admission resolves, however many rounds it stayed blocked.  Every
        later estimate asks the ledger for the verdict only
        (``at_least``), which stops pricing as soon as it is in.
        """
        ledger = self.ledger
        if not ledger.config.arbitrate:
            return False
        next_event = self.next_event()
        if next_event is None:
            return False  # nothing can free space: waiting cannot help
        wait = next_event - self.now
        first = blocked.estimate is None and not blocked.resolved
        estimate = ledger.estimate_spill_seconds(
            size, now=self.now, at_least=None if first else wait)
        if estimate is None:
            return False  # RAM can never host it: tier-direct placement
        if first:
            blocked.estimate = estimate
        return wait <= estimate

    def _resolve(self, blocked: _Blocked | None, stalled: bool) -> None:
        """Book an open arbitration's outcome — the stall win with the
        wait served and the first estimate it avoided, or the spill win;
        at most one decision per admission."""
        if blocked is None or blocked.estimate is None:
            return
        estimate, blocked.estimate = blocked.estimate, None
        blocked.resolved = True
        if stalled:
            self.ledger.record_arbitration(
                stalled=True, stall_seconds=self.now - blocked.since,
                avoided=estimate, now=self.now)
        else:
            self.ledger.record_arbitration(stalled=False, now=self.now)

    def _start(self, node_id: str) -> None:
        """Start one node now on a free worker.

        Reads and compute are charged now; a flagged output that holds a
        reservation is created in memory now and committed at the
        completion event, a tier-direct one is placed at the completion
        event, an unflagged one pays its blocking write now.
        """
        kernel = self.kernel
        worker = heapq.heappop(self.idle)
        flagged = (node_id in self.plan.flagged
                   and node_id not in kernel.spilled)
        trace = NodeTrace(node_id=node_id, start=self.now, flagged=flagged)
        blocked = self.blocked.pop(node_id, None)
        if blocked is not None:
            trace.stall = self.now - blocked.since
        clock = kernel.read_and_compute(node_id, trace, self.now)
        for charge in blocked.charges if blocked is not None else ():
            trace.spill_write += charge.seconds
            clock += charge.seconds
        if not flagged:
            clock = kernel.place_output(node_id, trace, clock)
        elif node_id not in self.tier_direct:
            clock = kernel.charge_create(kernel.graph.size_of(node_id),
                                         trace, clock)
        trace.end = clock
        self.ready.discard(node_id)
        kernel.traces.append(trace)
        heapq.heappush(self.running,
                       (clock, next(self.seq), node_id, worker, trace))

    def advance(self) -> None:
        """Apply the next event: a drain due no later than the next
        completion, else that completion."""
        kernel, ledger, running = self.kernel, self.ledger, self.running
        drains, graph = kernel.drains, kernel.graph
        if drains and (not running or drains[0][0] <= running[0][0]):
            self.now, key = heapq.heappop(drains)
            if key in ledger:
                ledger.materialized(key)
            return
        self.now, _, node_id, worker, trace = heapq.heappop(running)
        if trace.flagged:
            if node_id in self.tier_direct:
                # dispatch-time arbitration already ran; drains later
                # than the next completion wait for the loop to reach
                # them, so that completion sees the ledger of its time
                self.now = kernel.place_output(node_id, trace, self.now,
                                               arbitrate=False)
                kernel.apply_drains(min(self.now, running[0][0])
                                    if running else self.now)
                trace.end = self.now
            else:
                ledger.commit_reservation(
                    node_id, n_consumers=graph.out_degree(node_id),
                    materialization_pending=True)
                kernel.submit_drain(node_id, graph.size_of(node_id),
                                    self.now)
        kernel.release_parents(node_id)
        heapq.heappush(self.idle, worker)
        self.completed += 1
        if kernel.bus.enabled:
            emit_node_events(kernel.bus, trace, f"worker-{worker}")
        for child in graph.children(node_id):
            self.deps_left[child] -= 1
            if self.deps_left[child] == 0:
                self.ready.add(child)
