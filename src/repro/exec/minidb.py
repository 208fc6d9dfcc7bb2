"""MiniDB runner as an :class:`ExecutionBackend` (real wall-clock I/O).

The honest counterpart of the discrete-event simulators: flagged MVs are
created in the memory catalog and drained to disk by a *real* worker thread
(numpy/zlib release the GIL for the heavy work, so the overlap the paper
exploits is genuine); unflagged MVs pay the blocking write.

The byte budget is enforced by the shared
:class:`~repro.exec.ledger.MemoryLedger` with the same consumer-count +
materialization-hold release protocol as the simulators.  Drain completion
is observed from the *controller thread* (materializer threads only write
bytes), so all MiniDB catalog mutations stay single-threaded.  This
lifecycle is deliberately its own — it *measures* real bytes where
:class:`~repro.exec.kernel.NodeKernel` *charges* a model — and shares
only the kernel's run epilogue.

Construct with the workload: ``create_backend("minidb", workload=wl)``;
``run`` then takes the workload's own dependency graph.  Passing
``spill_dir=<path>`` (plus optional ``spill_policy``) additionally arms
*real* spill-to-disk through a :class:`~repro.store.tiered.TieredLedger`:
when memory is pinned by entries with outstanding consumers, policy-ranked
victims are serialized into the spill directory with
:func:`repro.db.storage_format.write_table` and their accounting moves to
the spill tier; a spilled, not-yet-durable parent is read back with
``read_table`` and promoted before its consumer runs.  The wall-clock
costs land in ``NodeTrace.spill_write`` / ``promote_read``.

``spill_codec`` controls the dump format: ``"none"`` (default) writes
raw uncompressed archives — a spill is a fast local dump, not a
warehouse materialization — while ``"zlib"`` compresses each column for
real (numpy's deflate), trading encode/decode wall-clock for smaller
spill files.  Either way the ledger's spill tier is charged the
*measured* on-disk bytes of every dump, so
``extras["tiered_store"]["spill_stored_gb"]`` reports the genuine
compressed footprint next to the logical ``spill_bytes_gb``.

``spill_adapt`` (a :class:`~repro.store.config.CodecAdaptConfig`) arms
mid-run codec re-pricing on those *measured* ratios: after the first K
real dumps the ledger compares the realized compression against the
codec preset and, when the observed saving no longer covers the codec
tax, drops the codec for the rest of the run — later victims dump raw
(``extras["tiered_store"]["codec_adapt"]`` logs the decision).

``ram_compressed_gb=<GB>`` inserts a *real* compressed-in-RAM rung
between RAM and the spill disk: a victim is encoded into an in-memory
blob (:mod:`repro.db.columnar_codec`, default codec ``zlib1``) and the
rung's budget is charged the measured blob bytes — no file I/O at all.
Reads decode the blob lazily; when the rung itself fills, its
policy-ranked victims cascade to the spill directory (the
already-encoded blob is written verbatim — the dump format is
self-describing, so ``read_table`` sniffs it back).  Measured encode/
decode/dump wall clocks land per tier via
``TieredLedger.record_wall_seconds`` and feed the planner's feedback
loop exactly like simulated charges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.plan import Plan
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import ExecutionError, ValidationError
from repro.exec.base import (
    ExecutionBackend,
    ExecutionContext,
    register_backend,
)
from repro.exec.kernel import finish_run
from repro.exec.ledger import MemoryLedger
from repro.graph.dag import DependencyGraph

_GB = 1024.0 ** 3


@dataclass
class _FlaggedWrite:
    """One in-flight background materialization."""

    size_gb: float
    thread: threading.Thread
    drained_applied: bool = False


@dataclass
class _MiniDbState:
    """Controller-thread view of an in-progress MiniDB run."""

    by_name: dict
    writes: dict[str, _FlaggedWrite] = field(default_factory=dict)
    run_started: float = 0.0
    evicted: set[str] = field(default_factory=set)
    spill_dir: str | None = None
    spill_files: set[str] = field(default_factory=set)
    # compressed-in-RAM rung (ram_compressed_gb extra): encoded blobs of
    # rung-resident tables.  A blob outlives a promotion back to RAM —
    # tables are immutable, so a re-spill reuses it without re-encoding
    # (the in-memory twin of the spill_files reuse rule).
    ram_rung_gb: float = 0.0
    blobs: dict[str, bytes] = field(default_factory=dict)

    @property
    def device_tier(self) -> int:
        """Ledger index of the on-disk spill tier."""
        return 2 if self.ram_rung_gb > 0 else 1


@register_backend
class MiniDbBackend(ExecutionBackend):
    """Execute an S/C plan on the real MiniDB with background writes."""

    name = "minidb"

    def prepare(self, graph: DependencyGraph, plan: Plan | None,
                memory_budget: float, method: str = "") -> ExecutionContext:
        workload = self.extra.get("workload")
        if workload is None:
            raise ValidationError(
                "the minidb backend needs workload=<SqlWorkload>")
        if plan is None:
            raise ValidationError(
                "the minidb backend requires a plan; optimize first")
        by_name = {d.name: d for d in workload.definitions}
        missing = [v for v in plan.order if v not in by_name]
        if missing:
            raise ExecutionError(f"plan mentions unknown MVs: {missing[:5]}")
        spill_dir = self.extra.get("spill_dir")
        rung_gb = float(self.extra.get("ram_compressed_gb") or 0.0)
        if rung_gb > 0 and not spill_dir:
            raise ValidationError(
                "ram_compressed_gb needs spill_dir=<path> as well — the "
                "rung cascades its victims into the spill directory")
        if spill_dir:
            import os

            from repro.store.config import (
                RAM_COMPRESSED,
                SpillConfig,
                TierSpec,
            )
            from repro.store.tiered import TieredLedger

            os.makedirs(spill_dir, exist_ok=True)
            tiers = (TierSpec("spill-disk"),)
            if rung_gb > 0:
                tiers = (TierSpec(RAM_COMPRESSED, rung_gb),) + tiers
            config = SpillConfig(
                tiers=tiers,
                policy=self.extra.get("spill_policy", "cost"),
                codec=self.extra.get("spill_codec", "none"),
                adapt=self.extra.get("spill_adapt"))
            # charge_io=False: this backend measures real wall clocks
            # around real (de)serialization instead of charging a model
            ledger: MemoryLedger = TieredLedger(memory_budget, config,
                                                charge_io=False,
                                                bus=self.bus)
        else:
            ledger = MemoryLedger(budget=memory_budget)
        # re-base the bus epoch to the run start: this backend's logical
        # clock IS wall time, so event timestamps line up with the
        # run-relative NodeTrace clocks
        self.bus.rebase()
        state = _MiniDbState(by_name=by_name,
                             run_started=time.perf_counter(),
                             spill_dir=spill_dir,
                             ram_rung_gb=rung_gb)
        return ExecutionContext(graph=graph, plan=plan,
                                memory_budget=memory_budget, method=method,
                                ledger=ledger,
                                payload=state)

    # ------------------------------------------------------------------
    def execute_node(self, ctx: ExecutionContext, node_id: str) -> None:
        state: _MiniDbState = ctx.payload
        db = self.extra["workload"].db
        trace = NodeTrace(node_id=node_id,
                          start=time.perf_counter() - state.run_started,
                          flagged=ctx.plan.is_flagged(node_id))
        if state.spill_dir:
            self._stage_spilled_parents(ctx, node_id, trace)
        result, timing = db.query(state.by_name[node_id].sql)
        trace.read_disk = timing.read_seconds
        trace.read_memory = 0.0
        trace.compute = timing.compute_seconds
        size_gb = result.nbytes / _GB

        if trace.flagged and self._reclaim(ctx, size_gb, trace):
            db.catalog.put_memory(node_id, result)
            ctx.ledger.insert(node_id, size_gb,
                              n_consumers=ctx.graph.out_degree(node_id),
                              materialization_pending=True)
            # the thread owns a direct table reference, so a later spill
            # may evict the memory-catalog entry without racing the drain
            thread = threading.Thread(
                target=db.catalog.persist, args=(node_id, result),
                name=f"materialize-{node_id}", daemon=True)
            state.writes[node_id] = _FlaggedWrite(size_gb=size_gb,
                                                  thread=thread)
            thread.start()
        else:
            write_started = time.perf_counter()
            db.catalog.persist(node_id, result)
            trace.write = time.perf_counter() - write_started

        # apply any background writes that drained while the query ran, so
        # a fully-consumed parent releases here, not at the next stall
        self._reap_drained(ctx)
        for parent in ctx.graph.parents(node_id):
            if parent in ctx.ledger:
                if ctx.ledger.consumer_done(parent):
                    self.evict(ctx, parent)

        trace.end = time.perf_counter() - state.run_started
        ctx.traces.append(trace)
        if self.bus.enabled:
            from repro.obs.events import emit_node_events

            emit_node_events(self.bus, trace, "worker-0")

    # ------------------------------------------------------------------
    def materialize(self, ctx: ExecutionContext, node_id: str) -> None:
        """A background write drained; clear the hold, evict if released."""
        state: _MiniDbState = ctx.payload
        write = state.writes.get(node_id)
        if write is None or write.drained_applied:
            return
        write.thread.join()
        write.drained_applied = True
        if node_id in ctx.ledger and ctx.ledger.materialized(node_id):
            self.evict(ctx, node_id)

    def evict(self, ctx: ExecutionContext, node_id: str) -> None:
        """Drop a fully released MV from MiniDB's memory catalog."""
        state: _MiniDbState = ctx.payload
        if node_id in state.evicted:
            return
        if node_id in ctx.ledger:  # force-eviction path (cleanup)
            ctx.ledger.force_release(node_id)
        state.evicted.add(node_id)
        state.blobs.pop(node_id, None)
        db = self.extra["workload"].db
        if db.catalog.in_memory(node_id):
            db.release_memory(node_id)
        if node_id in state.spill_files:
            from repro.db import storage_format

            storage_format.delete_table(state.spill_dir, node_id)
            state.spill_files.discard(node_id)

    def finish(self, ctx: ExecutionContext) -> RunTrace:
        state: _MiniDbState = ctx.payload
        compute_finished = time.perf_counter() - state.run_started
        for node_id, write in state.writes.items():
            write.thread.join()
            self.materialize(ctx, node_id)
        if state.spill_files:  # leftover scratch copies (now durable)
            from repro.db import storage_format

            for node_id in list(state.spill_files):
                storage_format.delete_table(state.spill_dir, node_id)
                state.spill_files.discard(node_id)
        # the run is over when every MV is durable and the scratch is gone
        return finish_run(ctx.ledger, self.bus, ctx.traces,
                          compute_finished,
                          time.perf_counter() - state.run_started,
                          ctx.memory_budget, ctx.method)

    # ------------------------------------------------------------------
    def _reap_drained(self, ctx: ExecutionContext) -> None:
        """Apply any background writes whose threads have finished."""
        state: _MiniDbState = ctx.payload
        for node_id, write in list(state.writes.items()):
            if not write.drained_applied and not write.thread.is_alive():
                self.materialize(ctx, node_id)

    def _reclaim(self, ctx: ExecutionContext, target_gb: float,
                 trace: NodeTrace,
                 protect: frozenset = frozenset()) -> bool:
        """Stall until ``target_gb`` fits, joining drained writers.

        Returns False (the caller spills to a blocking write) when the
        memory is held by entries that still have outstanding consumers —
        waiting could not free it.  With a spill directory configured the
        fallback is a *real* spill of a policy-ranked victim instead;
        ``protect`` names entries that must stay in RAM (the parents of
        the node currently being staged).
        """
        state: _MiniDbState = ctx.payload
        stall_started = time.perf_counter()
        spilling_before = trace.spill_write

        def in_ram(name: str) -> bool:  # spilled entries free no RAM
            return not state.spill_dir or ctx.ledger.tier_of(name) == 0

        while not ctx.ledger.fits(target_gb):
            self._reap_drained(ctx)
            if ctx.ledger.fits(target_gb):
                break
            waiting = [w for n, w in state.writes.items()
                       if not w.drained_applied and n in ctx.ledger
                       and in_ram(n)
                       and ctx.ledger.consumers_left(n) <= 0]
            if not waiting:
                if state.spill_dir and self._spill_one(ctx, trace,
                                                       protect):
                    continue
                return False  # outstanding consumers hold the memory
            for write in waiting:
                write.thread.join(timeout=0.05)
        # spill seconds were booked into spill_write; stall is the rest
        trace.stall += max(0.0, time.perf_counter() - stall_started
                           - (trace.spill_write - spilling_before))
        return True
    # NOTE: eviction needs both the drain *and* the consumers; _reclaim
    # only waits on drains, so entries pinned by future consumers force
    # the fallback — a *real* spill into the spill directory when one is
    # configured, the original blocking-write path otherwise.

    # ------------------------------------------------------------------
    # real spill-to-disk (spill_dir configured)
    # ------------------------------------------------------------------
    def _spill_one(self, ctx: ExecutionContext, trace: NodeTrace,
                   protect: frozenset = frozenset()) -> bool:
        """Evict one policy-ranked victim from RAM one rung down.

        A victim whose background write already drained is free to drop
        (its durable copy serves later readers; the next tier is charged
        zero bytes).  Without a ram-compressed rung the victim is dumped
        into the spill directory — compressed for real when the spill
        codec asks for it — and the tier is charged the *measured*
        on-disk bytes.  With the rung armed the victim is encoded into
        an in-memory blob instead (no file I/O); the rung's own victims
        are cascaded to disk *first* so the ledger never has to move
        accounting whose bytes this backend did not move, and a blob the
        rung can never host (bigger compressed than the whole rung)
        passes straight through to a disk dump.  Returns False when RAM
        holds no spillable entry outside ``protect``.
        """
        from repro.store.tiered import TieredLedger

        state: _MiniDbState = ctx.payload
        db = self.extra["workload"].db
        ledger: TieredLedger = ctx.ledger
        victim = ledger.pick_victim(exclude=protect)
        if victim is None:
            return False
        started = time.perf_counter()
        if db.catalog.persisted(victim):
            # the durable warehouse copy serves readers: charge nothing,
            # wherever in the hierarchy the accounting lands
            db.release_memory(victim)
            ledger.demote(victim, stored_size=0.0)
        elif state.ram_rung_gb > 0:
            self._spill_into_rung(ctx, victim, protect)
        else:
            stored_gb = self._dump_table(ctx, victim)
            db.release_memory(victim)
            ledger.demote(victim, stored_size=stored_gb)
        trace.spill_write += time.perf_counter() - started
        return True

    def _spill_into_rung(self, ctx: ExecutionContext, victim: str,
                         protect: frozenset) -> None:
        """Encode ``victim`` into the compressed-in-RAM rung (tier 1)."""
        from repro.db import columnar_codec

        state: _MiniDbState = ctx.payload
        db = self.extra["workload"].db
        blob = state.blobs.get(victim)
        if blob is None:
            # mid-run adaptation may have switched the rung's codec:
            # encode with the *current* one
            codec = ctx.ledger.current_codec(1).name
            encode_started = time.perf_counter()
            blob = columnar_codec.encode_table(
                db.catalog.get_memory(victim), codec)
            ctx.ledger.record_wall_seconds(
                1, spill_seconds=time.perf_counter() - encode_started,
                spill_gb=ctx.ledger.size_of(victim))
            state.blobs[victim] = blob
        stored_gb = len(blob) / _GB
        if self._free_rung(ctx, stored_gb, protect):
            db.release_memory(victim)
            ctx.ledger.demote(victim, stored_size=stored_gb)
            return
        # compressed bigger than the whole rung (or everything left in
        # it is protected): pass through — dump the already-encoded
        # blob to disk and walk the accounting down both rungs
        state.blobs.pop(victim, None)
        stored_gb = self._dump_blob(ctx, victim, blob)
        db.release_memory(victim)
        ctx.ledger.demote(victim, stored_size=0.0)
        ctx.ledger.demote(victim, stored_size=stored_gb)

    def _free_rung(self, ctx: ExecutionContext, stored_gb: float,
                   protect: frozenset) -> bool:
        """Cascade rung victims to disk until ``stored_gb`` fits tier 1.

        The real-bytes twin of the ledger's internal ``_make_room``:
        every accounting demotion out of the rung is preceded by an
        actual dump of the victim's blob into the spill directory (or
        nothing, for victims whose durable copy already serves).
        """
        from repro.errors import CatalogError

        state: _MiniDbState = ctx.payload
        db = self.extra["workload"].db
        rung = ctx.ledger.tiers[1].ledger
        if stored_gb > rung.budget:
            return False
        while not rung.fits(stored_gb):
            victim = ctx.ledger.pick_victim(exclude=protect, tier=1)
            if victim is None:
                return False
            blob = state.blobs.pop(victim, None)
            if db.catalog.persisted(victim):
                stored = 0.0  # durable copy serves readers
            elif blob is None:
                raise CatalogError(
                    f"rung entry {victim!r} has neither a blob nor a "
                    f"durable copy")
            else:
                stored = self._dump_blob(ctx, victim, blob)
            ctx.ledger.demote(victim, stored_size=stored)
        return True

    def _dump_table(self, ctx: ExecutionContext, victim: str) -> float:
        """Dump a RAM-resident table into the spill directory; returns
        the measured stored GB (0.0 reuses an earlier still-valid copy's
        size — tables are immutable)."""
        from repro.db import storage_format

        state: _MiniDbState = ctx.payload
        db = self.extra["workload"].db
        if victim in state.spill_files:
            return storage_format.on_disk_size(
                state.spill_dir, victim) / _GB
        # mid-run adaptation may have dropped the codec: consult the
        # disk tier's *current* codec, not the configured preset
        codec = ctx.ledger.current_codec(state.device_tier).name
        table = db.catalog.get_memory(victim)
        started = time.perf_counter()
        if codec in ("zlib1", "columnar"):
            stored = storage_format.write_table(
                table, state.spill_dir, victim, codec=codec)
        else:
            stored = storage_format.write_table(
                table, state.spill_dir, victim,
                compress=codec != "none")
        ctx.ledger.record_wall_seconds(
            state.device_tier,
            spill_seconds=time.perf_counter() - started,
            spill_gb=ctx.ledger.size_of(victim))
        state.spill_files.add(victim)
        return stored / _GB

    def _dump_blob(self, ctx: ExecutionContext, victim: str,
                   blob: bytes) -> float:
        """Write an already-encoded rung blob into the spill directory
        verbatim (the blob format is self-describing, so ``read_table``
        sniffs it back); returns the measured stored GB."""
        from repro.db import storage_format

        state: _MiniDbState = ctx.payload
        if victim in state.spill_files:  # immutable: earlier copy valid
            return storage_format.on_disk_size(
                state.spill_dir, victim) / _GB
        started = time.perf_counter()
        path = storage_format.table_path(state.spill_dir, victim)
        with open(path, "wb") as handle:
            handle.write(blob)
        ctx.ledger.record_wall_seconds(
            state.device_tier,
            spill_seconds=time.perf_counter() - started,
            spill_gb=ctx.ledger.size_of(victim))
        state.spill_files.add(victim)
        return len(blob) / _GB

    def _stage_spilled_parents(self, ctx: ExecutionContext, node_id: str,
                               trace: NodeTrace) -> None:
        """Make every spilled parent of ``node_id`` readable again.

        Durable parents need nothing — the query resolver reads the
        warehouse copy.  A parent held in the compressed-in-RAM rung is
        decoded *lazily* here — its blob was never touched until this
        consumer actually needed the rows.  A parent that exists only in
        the spill directory is read back and promoted into RAM (spilling
        other victims to make room); when even that is impossible, the
        parent's background write is joined so a durable copy exists.
        """
        from repro.db import columnar_codec, storage_format

        state: _MiniDbState = ctx.payload
        db = self.extra["workload"].db
        protect = frozenset(ctx.graph.parents(node_id))
        for parent in sorted(protect):
            tier = ctx.ledger.tier_of(parent)
            if tier is None or tier == 0:
                continue
            if db.catalog.persisted(parent):
                continue  # resolver reads the durable copy from disk
            # _reclaim books its own stall/spill time; promote_read
            # covers only the read-back and re-admission below
            if self._reclaim(ctx, ctx.ledger.size_of(parent), trace,
                             protect=protect):
                started = time.perf_counter()
                blob = state.blobs.get(parent) if tier == 1 and \
                    state.ram_rung_gb > 0 else None
                if blob is not None:  # rung-resident: lazy in-RAM decode
                    table = columnar_codec.decode_table(blob)
                else:
                    table = storage_format.read_table(state.spill_dir,
                                                      parent)
                db.catalog.put_memory(parent, table)
                ctx.ledger.promote(parent)
                elapsed = time.perf_counter() - started
                ctx.ledger.record_wall_seconds(
                    tier, read_seconds=elapsed,
                    read_gb=ctx.ledger.size_of(parent))
                trace.promote_read += elapsed
            else:
                write = state.writes.get(parent)
                if write is not None:  # wait for the durable copy
                    started = time.perf_counter()
                    write.thread.join()
                    trace.stall += time.perf_counter() - started
