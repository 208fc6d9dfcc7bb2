"""The one modeled node-execution kernel (paper §III-C, Figure 6).

Every backend that *charges a model* for a refresh — the serial
simulator, the parallel scheduler, the multi-tenant service, and (for
its base-read/compute half) the LRU baseline — runs the Controller's
per-node lifecycle through :class:`NodeKernel`, so the lifecycle exists
once:

1. :meth:`~NodeKernel.prefetch` — promote-ahead of the next node's
   spilled parents during idle device time (``SpillConfig.prefetch``);
2. :meth:`~NodeKernel.read_and_compute` — each parent from whichever
   tier holds it (memory bandwidth for RAM residents, the holding
   tier's device + decode below RAM with an optional promote, storage
   otherwise), base-table bytes (``node.meta["base_input_gb"]``) from
   storage, then compute — the node's observed ``compute_time`` when
   present, else the cost model's estimate — inflated by
   ``SimulatorOptions.compute_penalty``;
3. :meth:`~NodeKernel.place_output` — unflagged outputs pay the blocking
   storage write; flagged outputs go through stall-vs-spill arbitration
   and are created in RAM, placed directly in a lower tier (tiered
   store, output bigger than RAM), or lose their flag to a blocking
   write; every created output queues its background materialization;
4. :meth:`~NodeKernel.apply_drains` — clear the materialization hold of
   every background write that completed by now;
5. :meth:`~NodeKernel.release_parents` — this consumer is done with its
   resident parents; an entry leaves once its last consumer finished
   *and* its drain completed.

:meth:`~NodeKernel.run_node` is those phases back to back on the
kernel's own clock — that *is* the serial simulator, the parallel
scheduler's ``workers=1`` route, every node of a service request
(which then awaits its event loop until the kernel's clock) and every
node of an adaptive refresh (which re-plans only the flags), so these
are equal by construction.  The parallel scheduler interleaves
other work and sequences the phases itself: it reads and computes at
dispatch and places tier-direct outputs at the completion event.  The
run state is explicit — ledger,
:class:`~repro.engine.storage.StorageDevice`, drain heap and key
function can be shared (the service hands every request the same three
and a request-scoped key), the lost-flag set is per run.

:func:`finish_run` is the one run epilogue (tiered-store report,
``run-finish`` event, :class:`RunTrace`).
MiniDB shares that and the ledger's eviction path: it *measures* real
bytes moved by real threads where the kernel *charges* a model, so the
two per-node lifecycles share no logic.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.engine.storage import StorageDevice
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import BudgetExceededError, ValidationError
from repro.exec.base import SimulatorOptions
from repro.exec.ledger import MemoryLedger
from repro.graph.dag import DependencyGraph, Node
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import NULL_BUS, EventBus, emit_node_events


def _same_key(node_id: str) -> str:
    return node_id


def finish_run(ledger: MemoryLedger, bus: EventBus, nodes: list[NodeTrace],
               compute_finished: float, drained: float,
               memory_budget: float, method: str,
               **event_args: object) -> RunTrace:
    """Summarize a finished run (every backend's epilogue).

    ``compute_finished`` is when the last node ended, ``drained`` when
    the last background write did; the run ends at the later of the two
    — the paper measures "all MVs materialized on NFS".
    """
    end_to_end = max(compute_finished, drained)
    extras = {}
    report = getattr(ledger, "tier_report", None)
    if callable(report):
        extras["tiered_store"] = report()
    if bus.enabled:
        bus.instant("run-finish", "run", "scheduler", end_to_end,
                    args={"method": method,
                          "compute_finished_at": compute_finished,
                          "background_drained_at": drained,
                          **event_args})
    return RunTrace(
        nodes=nodes,
        end_to_end_time=end_to_end,
        compute_finished_at=compute_finished,
        background_drained_at=drained,
        peak_catalog_usage=ledger.peak_usage,
        memory_budget=memory_budget,
        method=method,
        extras=extras,
    )


class NodeKernel:
    """Modeled per-node lifecycle over explicit run state.

    Attributes:
        ledger: the budget accountant (plain, or tiered when
            ``options.spill`` is armed).
        storage: the warehouse device — foreground reads/writes plus
            the serialized background materialization channel.
        drains: heap of pending materializations ``(eta, ledger key)``.
        spilled: nodes that lost their flag to a blocking write.
        key: node id -> ledger key (identity unless runs share a ledger).
        clock / traces: :meth:`run_node`'s timeline; callers that
            sequence the phases themselves pass their own clock.

    A run never changes its graph or key function, so each node's
    inputs — one ``(parent, ledger key, size)`` row per parent — are
    built on the node's first use and kept for the kernel's life
    (``prefetch``, ``read_and_compute`` and ``release_parents`` share
    them).  Reading a parent is one ledger call (``note_read``: the
    holding tier or None), and so is releasing one (``consumer_done``,
    for exactly the parents the read found resident).
    """

    def __init__(self, graph: DependencyGraph, ledger: MemoryLedger,
                 profile: DeviceProfile, options: SimulatorOptions,
                 storage: StorageDevice | None = None,
                 drains: list[tuple[float, str]] | None = None,
                 key: Callable[[str], str] = _same_key,
                 bus: EventBus = NULL_BUS) -> None:
        self.graph = graph
        self.ledger = ledger
        self.profile = profile
        self.options = options
        self.storage = (storage if storage is not None
                        else StorageDevice(profile=profile))
        self.drains = drains if drains is not None else []
        self.key = key
        self.bus = bus
        self.spilled: set[str] = set()
        self.clock = 0.0
        self.traces: list[NodeTrace] = []
        self._inputs: dict[str, list[tuple[str, str, float]]] = {}
        # node id -> keys of the parents its read found resident, until
        # its release_parents
        self._held: dict[str, list[str]] = {}

    @classmethod
    def for_run(cls, graph: DependencyGraph, memory_budget: float,
                profile: DeviceProfile | None,
                options: SimulatorOptions | None,
                bus: EventBus = NULL_BUS) -> "NodeKernel":
        """Fresh single-run state: a ledger sized ``memory_budget`` —
        tiered, with the graph's per-node ``meta["compressibility"]``
        installed, when ``options.spill`` is armed — and its own device,
        drain heap and clock."""
        if not memory_budget >= 0:  # also rejects NaN
            raise ValidationError("memory_budget must be >= 0")
        profile = profile or DeviceProfile()
        options = options or SimulatorOptions()
        if options.spill is not None:
            # resolved at call time: the invariant harness swaps a
            # checking subclass into repro.store.tiered
            from repro.store.tiered import (
                TieredLedger,
                compressibility_from_graph,
            )

            ledger: MemoryLedger = TieredLedger(
                memory_budget, options.spill, profile=profile, bus=bus)
            ledger.set_compressibility(compressibility_from_graph(graph))
        else:
            ledger = MemoryLedger(budget=memory_budget)
        return cls(graph, ledger, profile, options, bus=bus)

    # ------------------------------------------------------------------
    # the lifecycle, back to back
    # ------------------------------------------------------------------
    def run_node(self, node_id: str, flagged: bool) -> None:
        """Execute one node on the kernel's own clock."""
        self.prefetch(node_id, self.clock)
        trace = NodeTrace(node_id=node_id, start=self.clock,
                          flagged=flagged)
        clock = self.read_and_compute(node_id, trace, self.clock)
        clock = self.place_output(node_id, trace, clock)
        self.apply_drains(clock)
        self.release_parents(node_id)
        trace.end = clock
        self.clock = clock
        self.traces.append(trace)
        if self.bus.enabled:
            emit_node_events(self.bus, trace, "worker-0")

    def finish_run(self, compute_finished: float, memory_budget: float,
                   method: str, **event_args: object) -> RunTrace:
        """Close the run: wait for the background channel, summarize."""
        drained = self.storage.drained_at()
        self.apply_drains(max(compute_finished, drained))
        return finish_run(self.ledger, self.bus, self.traces,
                          compute_finished, drained, memory_budget, method,
                          **event_args)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _inputs_of(self, node_id: str) -> list[tuple[str, str, float]]:
        """``node_id``'s ``(parent, ledger key, size)`` rows."""
        try:
            return self._inputs[node_id]
        except KeyError:
            node, key = self.graph.node, self.key
            rows = self._inputs[node_id] = [
                (parent, key(parent), node(parent).size)
                for parent in self.graph.parents(node_id)]
            return rows

    def prefetch(self, node_id: str, now: float) -> None:
        """Promote-ahead of ``node_id``'s spilled parents at ``now``.

        The window before a dispatch is idle device time: the promoted
        bytes' device read + decode + create are hidden in it — the
        ledger books them in its prefetch counters, not on any node's
        timeline (see :meth:`repro.store.tiered.TieredLedger.prefetch`).
        Nothing is looked at while nothing sits below RAM.
        """
        spill = self.options.spill
        if (spill is None or not spill.prefetch
                or not self.ledger.any_below_ram):
            return
        spilled = self.spilled
        self.ledger.prefetch((key for parent, key, _ in
                              self._inputs_of(node_id)
                              if parent not in spilled), now=now)

    def read_and_compute(self, node_id: str, trace: NodeTrace,
                         clock: float) -> float:
        """Charge input reads and compute; returns the new clock.

        Each parent's read is one :meth:`~MemoryLedger.note_read`, which
        names the tier holding it: RAM residents pay memory bandwidth; a
        parent spilled to a lower tier pays that tier's device read (+
        decode) into ``trace.read_disk`` and, when promotion is on and
        RAM has room, one in-memory create into ``trace.promote_read``
        to copy it back up for later consumers; the rest are read from
        storage.
        """
        ledger, storage, spilled = self.ledger, self.storage, self.spilled
        held = self._held[node_id] = []
        input_bytes = 0.0
        for parent, key, size in self._inputs_of(node_id):
            input_bytes += size
            tier = None if parent in spilled else ledger.note_read(key)
            if tier is None:
                duration = storage.read_duration(size, clock)
                trace.read_disk += duration
                clock += duration
                continue
            held.append(key)
            if tier:  # below RAM
                duration = ledger.tier_read_seconds(key, now=clock)
                trace.read_disk += duration
                clock += duration
                if self.options.spill.promote:
                    charge = ledger.promote(key, now=clock)
                    if charge is not None:
                        trace.promote_read += charge.seconds
                        clock += charge.seconds
            else:
                duration = self.profile.read_time_memory(size)
                trace.read_memory += duration
                clock += duration
        return self.base_read_and_compute(self.graph.node(node_id),
                                          input_bytes, trace, clock)

    def base_read_and_compute(self, node: Node, input_bytes: float,
                              trace: NodeTrace, clock: float) -> float:
        """Base-table read from storage, then compute over all inputs."""
        base_bytes = float(node.meta.get("base_input_gb", 0.0))
        if base_bytes > 0:
            duration = self.storage.read_duration(base_bytes, clock)
            trace.read_disk += duration
            clock += duration
            input_bytes += base_bytes
        compute = (node.compute_time if node.compute_time is not None
                   else self.profile.compute_time(input_bytes))
        compute *= 1.0 + self.options.compute_penalty
        trace.compute = compute
        return clock + compute

    def place_output(self, node_id: str, trace: NodeTrace, clock: float,
                     arbitrate: bool = True) -> float:
        """Produce ``node_id``'s output; returns the new clock.

        When the catalog is full only because earlier materializations
        are still draining, the Controller has two rational moves: stall
        until a drain frees space, or give something up — on the plain
        ledger the node's own flag (one blocking write), on the tiered
        store a cold victim's RAM residency (a demote + later promote
        round trip; the node keeps its flag).  It stalls only while the
        wait is modeled cheaper.  ``arbitrate=False`` skips the stalling
        for a caller that already arbitrated (the parallel scheduler
        does, at dispatch time).
        """
        size = self.graph.node(node_id).size
        if not trace.flagged:
            return self._blocking_write(size, trace, clock)
        self.apply_drains(clock)
        if self.options.spill is not None:
            if arbitrate:
                clock = self._arbitrate(size, trace, clock)
            return self._place_tiered(node_id, size, trace, clock)

        ledger, drains = self.ledger, self.drains
        deadline = clock + self.storage.write_duration(size, clock)
        while not ledger.fits(size) and drains:
            event_time = drains[0][0]
            if event_time <= clock:
                self.apply_drains(clock)
                continue
            if event_time > deadline:
                break  # waiting costs more than writing through
            trace.stall += event_time - clock
            clock = event_time
            self.apply_drains(clock)
        if not ledger.fits(size):
            # even a fully drained catalog has no room: the positional
            # plan was infeasible (or the budget too small for the node)
            self.spilled.add(node_id)
            return self._blocking_write(size, trace, clock)
        clock = self.charge_create(size, trace, clock)
        key = self.key(node_id)
        ledger.insert(key, size, n_consumers=self.graph.out_degree(node_id),
                      materialization_pending=True)
        self.submit_drain(key, size, clock)
        return clock

    def _arbitrate(self, size: float, trace: NodeTrace,
                   clock: float) -> float:
        """Stall-vs-spill arbitration ahead of a tiered admission.

        While the flagged output does not fit in RAM and background
        drains are pending, compare *stalling* (wait for the next drain)
        against *spilling* (demote the policy's best victims and pay
        their promote round trip later, priced by
        :meth:`~repro.store.tiered.TieredLedger.estimate_spill_seconds`)
        and take the cheaper move.  Decisions are counted on the ledger
        (``tier_report()["arbitration"]``) and recorded in
        ``trace.admission``; :meth:`_place_tiered` then demotes only if
        the stalls did not free enough room.  Once a stall has recorded
        the estimate it ``avoided``, every later turn asks the ledger
        only for the verdict (``at_least``).
        """
        ledger, drains = self.ledger, self.drains
        if not ledger.config.arbitrate:
            return clock
        stall_begun = clock
        avoided = None
        while not ledger.fits(size):
            at_least = None
            if avoided is not None and drains:
                # the smallest wait w with clock + w >= the next drain,
                # so a partial estimate past it stalls as the whole would
                at_least = drains[0][0] - clock
                while clock + at_least < drains[0][0]:
                    at_least = math.nextafter(at_least, math.inf)
            estimate = ledger.estimate_spill_seconds(size, now=clock,
                                                     at_least=at_least)
            if estimate is None:
                break  # RAM cannot host it at all: no decision to make
            if not drains:
                break  # nothing draining: spilling is the only move
            event_time = drains[0][0]
            if event_time <= clock:
                self.apply_drains(clock)
                continue
            if event_time > clock + estimate:
                # waiting is modeled dearer than the spill round trip
                trace.admission = "spill"
                ledger.record_arbitration(stalled=False, now=clock)
                break
            if avoided is None:
                avoided = estimate
            trace.stall += event_time - clock
            clock = event_time
            self.apply_drains(clock)
        if avoided is not None:
            if ledger.fits(size):
                trace.admission = "stall"
                ledger.record_arbitration(
                    stalled=True, stall_seconds=clock - stall_begun,
                    avoided=avoided, now=clock)
            elif trace.admission != "spill":
                # stalled through every drain and still short on room:
                # the admission ends in a (smaller) spill
                trace.admission = "spill"
                ledger.record_arbitration(stalled=False, now=clock)
        return clock

    def _place_tiered(self, node_id: str, size: float, trace: NodeTrace,
                      clock: float) -> float:
        """Create a flagged output somewhere in the hierarchy, billing
        the demotions it needed to ``trace.spill_write``.

        An output bigger than RAM is created directly in a lower tier;
        only when *no* tier can host it (finite hierarchy) does the node
        lose its flag to a blocking write — demotions made before that
        failure are still billed, the moves happened.
        """
        key = self.key(node_id)
        try:
            tier, charges = self.ledger.spill_insert(
                key, size, n_consumers=self.graph.out_degree(node_id),
                materialization_pending=True, now=clock)
        except BudgetExceededError as exc:
            for charge in exc.charges:
                trace.spill_write += charge.seconds
                clock += charge.seconds
            self.spilled.add(node_id)
            return self._blocking_write(size, trace, clock)
        for charge in charges:
            trace.spill_write += charge.seconds
            clock += charge.seconds
        if tier == 0:
            clock = self.charge_create(size, trace, clock)
        self.submit_drain(key, size, clock)
        return clock

    def _blocking_write(self, size: float, trace: NodeTrace,
                        clock: float) -> float:
        duration = self.storage.write_duration(size, clock)
        trace.write = duration
        return clock + duration

    def charge_create(self, size: float, trace: NodeTrace,
                      clock: float) -> float:
        """Charge creating a flagged output in RAM."""
        duration = self.profile.create_time_memory(size)
        trace.create_memory = duration
        return clock + duration

    def submit_drain(self, key: str, size: float, clock: float) -> None:
        """Queue ``key``'s background materialization from ``clock``."""
        eta = self.storage.submit_background_write(size, clock)
        heapq.heappush(self.drains, (eta, key))

    def apply_drains(self, now: float) -> None:
        """Flip materialization holds for writes that completed by
        ``now``."""
        drains, ledger = self.drains, self.ledger
        while drains and drains[0][0] <= now:
            _, key = heapq.heappop(drains)
            if key in ledger:
                ledger.materialized(key)

    def release_parents(self, node_id: str) -> None:
        """``node_id`` finished consuming its resident parents — those
        its :meth:`read_and_compute` found: a parent's entry cannot
        leave before this release, nor arrive after its consumer
        read."""
        consumer_done = self.ledger.consumer_done
        for key in self._held.pop(node_id):
            consumer_done(key)
