"""MiniDB as an :class:`ExecutionBackend` (real wall-clock I/O).

The honest counterpart of the discrete-event simulators: flagged MVs are
created in the memory catalog and drained to disk in the background by
*real* threads — a small fixed pool owned by the run, FIFO (numpy and
zlib release the GIL for the heavy work, so the overlap the paper
exploits is genuine; more threads than cores would only add allocator
arenas and contention) — while unflagged MVs pay the blocking write.

The byte budget is enforced by the shared
:class:`~repro.exec.ledger.MemoryLedger` with the same consumer-count +
materialization-hold release protocol as the simulators.  Drain completion
is observed from the *controller thread* (pool threads only encode and
write bytes), so all ledger and memory-catalog mutations stay
single-threaded; a drain that failed fails the run at the next reap with
an :class:`~repro.errors.ExecutionError` naming the MV, before anything
is evicted.  The per-node lifecycle is deliberately its own — it
*measures* real bytes where :class:`~repro.exec.kernel.NodeKernel`
*charges* a model — and shares the kernel's run epilogue; *eviction* is
not: which victim leaves RAM, what has to cascade out of its way and
where the accounting lands is the ledger's one eviction path
(:meth:`~repro.store.tiered.TieredLedger.demote_victim`), and this
backend only moves the bytes it is asked to (:meth:`_MiniDbRun.
_move_bytes`, the ledger's ``Mover``).  :meth:`MiniDbBackend.run` is the
only entry point: it builds one private :class:`_MiniDbRun` (ledger,
drain pool, scratch copies, per-node lifecycle) and steps it in plan
order; nobody else drives a run node by node.

Warehouse, spill directory and in-memory rung all hold the one table
format (the self-describing blob of :mod:`repro.db.columnar_codec`), and
**a table is compressed at most once per refresh**: every flagged MV
carries an encode-once cell (:class:`_Drain`) that its drain job and any
demotion into a compressing tier share — whoever asks first encodes, the
other waits for that encode and adopts the bytes, and a blob moves
between rung, spill file and warehouse verbatim.

Construct with the workload: ``create_backend("minidb", workload=wl)``
(every MiniDB setting is a keyword of :class:`MiniDbBackend`); ``run``
then takes the workload's own dependency graph.  Passing
``spill_dir=<path>`` (plus optional ``spill_policy``) additionally arms
*real* spill-to-disk through a :class:`~repro.store.tiered.TieredLedger`:
when memory is pinned by entries with outstanding consumers, policy-ranked
victims are written into the spill directory with
:func:`repro.db.storage_format.write_table` and their accounting moves to
the spill tier; a spilled, not-yet-durable parent is read back with
``read_table`` and promoted before its consumer runs.  The wall-clock
costs land in ``NodeTrace.spill_write`` / ``promote_read``.

``spill_codec`` controls the dump: ``"none"`` (default) streams the raw
column bytes — a spill is a fast local dump, not a warehouse
materialization — while a compressing codec writes the victim's blob:
the one its drain already encoded (whatever codec that was), or, drain
still queued, one encoded here with ``spill_codec`` and left for the
drain to write.  Either way the ledger's spill tier is charged the
*measured* on-disk bytes of every dump, so
the tier report's ``spill_stored_gb`` reports the genuine
compressed footprint next to the logical ``spill_bytes_gb``.

``spill_adapt`` (a :class:`~repro.store.config.CodecAdaptConfig`) arms
mid-run codec re-pricing on those *measured* ratios: after the first K
real dumps the ledger compares the realized compression against the
codec preset and, when the observed saving no longer covers the codec
tax, drops the codec for the rest of the run — later victims dump raw
(the tier report's ``codec_adapt`` logs the decision).

``ram_compressed_gb=<GB>`` inserts a *real* compressed-in-RAM rung
between RAM and the spill disk: a victim's blob (adopted or encoded as
above, default codec ``zlib1``) stays in memory and the rung's budget is
charged the measured blob bytes — no file I/O at all.  Reads decode the
blob lazily; when the rung itself fills, its policy-ranked victims
cascade to the spill directory (the blob is written verbatim).  Measured
encode/decode/dump wall clocks land per tier via
``TieredLedger.record_wall_seconds`` and feed the planner's feedback
loop exactly like simulated charges.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING

from repro.core.plan import Plan
from repro.db import columnar_codec, storage_format
from repro.db.catalog import DatabaseCatalog
from repro.db.table import Table
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import CatalogError, ExecutionError, ValidationError
from repro.exec.base import ExecutionBackend
from repro.exec.kernel import finish_run
from repro.exec.ledger import MemoryLedger
from repro.graph.dag import DependencyGraph

if TYPE_CHECKING:
    from repro.db.engine import SqlWorkload
    from repro.store.config import CodecAdaptConfig

_GB = 1024.0 ** 3

#: Threads draining flagged MVs to the warehouse.  A property of the
#: host, not a setting: a thread per MV encodes no faster on the same
#: cores, and each extra thread allocates from its own malloc arena.
_DRAIN_WORKERS = min(2, os.cpu_count() or 1)


class _Drain:
    """One flagged MV on its way to the warehouse.

    Also the MV's encode-once cell: :meth:`blob` is asked by the pool
    thread about to write and by the controller demoting the MV into a
    compressing tier; the first asker encodes (and picks the codec), the
    other waits on the lock and adopts the bytes.
    """

    def __init__(self, pool: ThreadPoolExecutor, catalog: DatabaseCatalog,
                 name: str, table: Table) -> None:
        # the table until it is encoded, its blob from then on — a direct
        # reference, so a later spill may evict the memory-catalog entry
        # without racing the drain
        self._content: Table | bytes = table
        self._lock = threading.Lock()
        self.future = pool.submit(self._run, catalog, name)

    def blob(self, codec: str) -> bytes:
        with self._lock:
            content = self._content
            if isinstance(content, Table):
                content = self._content = columnar_codec.encode_table(
                    content, codec)
            return content

    @property
    def encoded(self) -> bytes | None:
        """The blob, if somebody has asked for it yet."""
        content = self._content
        return None if isinstance(content, Table) else content

    def _run(self, catalog: DatabaseCatalog, name: str) -> None:
        catalog.persist(name, self.blob(storage_format.DEFAULT_CODEC))


class MiniDbBackend(ExecutionBackend):
    """Execute an S/C plan on the real MiniDB with background writes.

    ``workload`` is the :class:`~repro.db.engine.SqlWorkload` to refresh;
    ``spill_dir`` arms real spills (``spill_policy``, ``spill_codec``,
    ``spill_adapt``), and ``ram_compressed_gb`` the in-memory rung above
    them.  The rest are :class:`ExecutionBackend`'s own arguments.
    """

    name = "minidb"

    def __init__(self, *, workload: SqlWorkload | None = None,
                 spill_dir: str | None = None, spill_policy: str = "cost",
                 spill_codec: str = "none",
                 spill_adapt: CodecAdaptConfig | None = None,
                 ram_compressed_gb: float = 0.0, **common) -> None:
        super().__init__(**common)
        self.workload = workload
        self.spill_dir = spill_dir
        self.spill_policy = spill_policy
        self.spill_codec = spill_codec
        self.spill_adapt = spill_adapt
        self.ram_compressed_gb = ram_compressed_gb

    def run(self, graph: DependencyGraph, plan: Plan | None,
            memory_budget: float, method: str = "") -> RunTrace:
        """Every node in plan order, then every drain; a failed or
        cancelled run leaves no drain thread and no spill file behind."""
        run = _MiniDbRun(self, graph, plan, memory_budget)
        try:
            for node_id in run.plan.order:
                self.check_cancelled(node_id)
                run.run_node(node_id)
            return run.finish(method)
        except BaseException:
            run.close()
            raise


class _MiniDbRun:
    """One MiniDB refresh, seen from the controller thread: the ledger,
    the drain pool, the scratch copies and the per-node lifecycle."""

    def __init__(self, backend: MiniDbBackend, graph: DependencyGraph,
                 plan: Plan | None, memory_budget: float) -> None:
        if not memory_budget >= 0:  # also rejects NaN
            raise ValidationError("memory_budget must be >= 0")
        workload = backend.workload
        if workload is None:
            raise ValidationError(
                "the minidb backend needs workload=<SqlWorkload>")
        if plan is None:
            raise ValidationError(
                "the minidb backend requires a plan; optimize first")
        self.sql = {d.name: d.sql for d in workload.definitions}
        missing = [v for v in plan.order if v not in self.sql]
        if missing:
            raise ExecutionError(f"plan mentions unknown MVs: {missing[:5]}")
        spill_dir = backend.spill_dir
        rung_gb = backend.ram_compressed_gb
        if rung_gb > 0 and not spill_dir:
            raise ValidationError(
                "ram_compressed_gb needs spill_dir=<path> as well — the "
                "rung cascades its victims into the spill directory")
        self.graph, self.plan, self.bus = graph, plan, backend.bus
        self.db = workload.db
        if spill_dir:
            from repro.store.config import minidb_spill_config
            from repro.store.tiered import TieredLedger

            os.makedirs(spill_dir, exist_ok=True)
            config = minidb_spill_config(
                rung_gb, policy=backend.spill_policy,
                codec=backend.spill_codec, adapt=backend.spill_adapt)
            # charge_io=False: this backend measures real wall clocks
            # around real (de)serialization instead of charging a model
            self.ledger: MemoryLedger = TieredLedger(
                memory_budget, config, charge_io=False, bus=self.bus)
        else:
            self.ledger = MemoryLedger(budget=memory_budget)
        # re-base the bus epoch to the run start: this backend's logical
        # clock IS wall time, so event timestamps line up with the
        # run-relative NodeTrace clocks
        self.bus.rebase()
        # threads start with the first flagged MV, not here
        self.pool = ThreadPoolExecutor(max_workers=_DRAIN_WORKERS,
                                       thread_name_prefix="materialize")
        self.started = time.perf_counter()
        # background writes not yet applied to the ledger (a drained and
        # applied write leaves; what it wrote is then durable)
        self.writes: dict[str, _Drain] = {}
        self.evicted: set[str] = set()
        self.spill_dir = spill_dir
        self.spill_files: set[str] = set()
        # ledger index of the on-disk spill tier: 2 when the compressed-in-
        # RAM rung sits above it as tier 1.  A rung entry's bytes are its
        # drain's blob, which outlives a promotion back to RAM — tables
        # are immutable, so a re-spill reuses it without re-encoding (the
        # in-memory twin of the spill_files reuse rule)
        self.device_tier = 2 if rung_gb > 0 else 1
        self.traces: list[NodeTrace] = []

    # ------------------------------------------------------------------
    def run_node(self, node_id: str) -> None:
        ledger, db = self.ledger, self.db
        trace = NodeTrace(node_id=node_id,
                          start=time.perf_counter() - self.started,
                          flagged=self.plan.is_flagged(node_id))
        if self.spill_dir:
            self._stage_spilled_parents(node_id, trace)
        result, timing = db.query(self.sql[node_id])
        trace.read_disk = timing.read_seconds
        trace.read_memory = 0.0
        trace.compute = timing.compute_seconds
        size_gb = result.nbytes / _GB

        if trace.flagged and self._reclaim(size_gb, trace):
            db.catalog.put_memory(node_id, result)
            ledger.insert(node_id, size_gb,
                          n_consumers=self.graph.out_degree(node_id),
                          materialization_pending=True)
            self.writes[node_id] = _Drain(self.pool, db.catalog, node_id,
                                          result)
        else:
            write_started = time.perf_counter()
            db.catalog.persist(node_id, result)
            trace.write = time.perf_counter() - write_started

        # apply any background writes that drained while the query ran, so
        # a fully-consumed parent releases here, not at the next stall
        self._reap_drained()
        for parent in self.graph.parents(node_id):
            if parent in ledger:
                if ledger.consumer_done(parent):
                    self._evict(parent)

        trace.end = time.perf_counter() - self.started
        self.traces.append(trace)
        if self.bus.enabled:
            from repro.obs.events import emit_node_events

            emit_node_events(self.bus, trace, "worker-0")

    def finish(self, method: str) -> RunTrace:
        compute_finished = time.perf_counter() - self.started
        for node_id in list(self.writes):
            self._materialize(node_id)
        # the run is over when every MV is durable and the scratch is gone
        self.close()
        return finish_run(self.ledger, self.bus, self.traces,
                          compute_finished,
                          time.perf_counter() - self.started,
                          self.ledger.budget, method)

    def close(self) -> None:
        """Stop the drain pool — a running write is waited for, queued
        ones (a failed or cancelled run's) are dropped — and remove the
        leftover scratch copies; idempotent."""
        self.pool.shutdown(wait=True, cancel_futures=True)
        for node_id in self.spill_files:
            storage_format.delete_table(self.spill_dir, node_id)
        self.spill_files.clear()

    # ------------------------------------------------------------------
    def _materialize(self, node_id: str) -> None:
        """Wait for ``node_id``'s background write and apply it: clear
        the hold, evict if released.

        A write that failed fails the run *here*, before the only copy
        of the table could be evicted, and takes the drain pool and the
        spill files with it.
        """
        drain = self.writes.get(node_id)
        if drain is None:
            return
        try:
            drain.future.result()
        except Exception as exc:
            self.close()
            raise ExecutionError(
                f"background write of MV {node_id!r} failed: {exc}") \
                from exc
        del self.writes[node_id]
        if node_id in self.ledger and self.ledger.materialized(node_id):
            self._evict(node_id)

    def _evict(self, node_id: str) -> None:
        """Drop a fully released MV from MiniDB's memory catalog."""
        if node_id in self.evicted:
            return
        if node_id in self.ledger:  # force-eviction path (cleanup)
            self.ledger.force_release(node_id)
        self.evicted.add(node_id)
        if self.db.catalog.in_memory(node_id):
            self.db.release_memory(node_id)
        if node_id in self.spill_files:
            storage_format.delete_table(self.spill_dir, node_id)
            self.spill_files.discard(node_id)

    def _reap_drained(self) -> None:
        """Apply any background writes that have finished."""
        for node_id, drain in list(self.writes.items()):
            if drain.future.done():
                self._materialize(node_id)

    def _reclaim(self, target_gb: float, trace: NodeTrace,
                 protect: frozenset = frozenset()) -> bool:
        """Stall until ``target_gb`` fits, waiting for background writes.

        Returns False (the caller spills to a blocking write) when the
        memory is held by entries that still have outstanding consumers —
        waiting could not free it.  With a spill directory configured the
        fallback is a *real* spill of a policy-ranked victim instead: the
        ledger selects it, cascades whatever has to make way for it and
        moves the accounting, :meth:`_move_bytes` moves the bytes — one
        call.  ``protect`` names entries that must
        stay where they are (the parents of the node currently being
        staged), in RAM or as cascade victims below it.
        """
        ledger = self.ledger
        stall_started = time.perf_counter()
        spilling_before = trace.spill_write

        def in_ram(name: str) -> bool:  # spilled entries free no RAM
            return not self.spill_dir or ledger.tier_of(name) == 0

        while not ledger.fits(target_gb):
            self._reap_drained()
            if ledger.fits(target_gb):
                break
            waiting = [d.future for n, d in self.writes.items()
                       if n in ledger and in_ram(n)
                       and ledger.consumers_left(n) <= 0]
            if waiting:
                # the stall ends when the first of them frees its memory
                wait(waiting, return_when=FIRST_COMPLETED)
                continue
            if not self.spill_dir:
                return False  # outstanding consumers hold the memory
            spill_started = time.perf_counter()
            moved = ledger.demote_victim(exclude=protect,
                                         mover=self._move_bytes)
            if moved is None:
                return False  # ... and nothing in RAM may be spilled
            # the victim's accounting has left RAM: so may its table
            self.db.release_memory(moved[0])
            trace.spill_write += time.perf_counter() - spill_started
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
    def _move_bytes(self, node_id: str, src: int, dst: int) -> float:
        """The ledger's :data:`~repro.store.tiered.Mover`: put
        ``node_id``'s bytes where tier ``dst`` keeps them and return the
        *measured* stored GB.

        A victim whose background write already drained is free to drop
        (its durable copy serves later readers: zero bytes, wherever in
        the hierarchy the accounting lands), and an earlier still-valid
        spill file is reused — tables are immutable.

        Into the ram-compressed rung the victim's blob stays in memory,
        no file I/O: it is encoded only if its drain has not, with the
        rung's *current* codec (mid-run adaptation may have switched
        it).  Into the spill directory it is dumped.  With the rung
        armed it has a blob by then — it sits in the rung, or was just
        encoded for a rung that could not host it (bigger compressed
        than the whole rung, or everything left there is protected) and
        is asked for again one tier down — and that is written verbatim.
        Otherwise it is RAM-resident: streamed raw when the disk tier's
        current codec is ``none``, else written as its blob — the one
        its drain encoded, or one encoded here for the drain to reuse.
        """
        ledger, db = self.ledger, self.db
        if db.catalog.persisted(node_id):
            return 0.0
        on_disk = dst == self.device_tier
        if on_disk and node_id in self.spill_files:
            return storage_format.on_disk_size(
                self.spill_dir, node_id) / _GB
        started = time.perf_counter()
        codec = ledger.tiers[dst].codec.name
        if not on_disk:
            # a RAM resident that is not durable has its write pending
            stored = len(self.writes[node_id].blob(codec))
        else:
            if self.device_tier > 1:
                payload: Table | bytes = self._rung_blob(node_id)
            elif codec == "none":
                payload = db.catalog.get_memory(node_id)
            else:
                payload = self.writes[node_id].blob(codec)
            stored = storage_format.write_table(payload, self.spill_dir,
                                                node_id, codec=codec)
            self.spill_files.add(node_id)
        ledger.record_wall_seconds(
            dst, "spill_in", time.perf_counter() - started,
            ledger.size_of(node_id))
        return stored / _GB

    def _rung_blob(self, name: str) -> bytes:
        """The bytes of rung entry ``name``: its pending drain's blob."""
        drain = self.writes.get(name)
        blob = drain.encoded if drain is not None else None
        if blob is None:
            raise CatalogError(
                f"rung entry {name!r} has neither a blob nor a durable "
                f"copy")
        return blob

    def _stage_spilled_parents(self, node_id: str,
                               trace: NodeTrace) -> None:
        """Make every spilled parent of ``node_id`` readable again.

        Durable parents need nothing — the query resolver reads the
        warehouse copy.  A parent held in the compressed-in-RAM rung is
        decoded *lazily* here — its blob was never touched until this
        consumer actually needed the rows.  A parent that exists only in
        the spill directory is read back and promoted into RAM (spilling
        other victims to make room); when even that is impossible, the
        parent's background write is waited for so a durable copy exists.
        """
        ledger, db = self.ledger, self.db
        protect = frozenset(self.graph.parents(node_id))
        for parent in sorted(protect):
            tier = ledger.tier_of(parent)
            if tier is None or tier == 0:
                continue
            if db.catalog.persisted(parent):
                continue  # resolver reads the durable copy from disk
            # _reclaim books its own stall/spill time; promote_read
            # covers only the read-back and re-admission below
            if self._reclaim(ledger.size_of(parent), trace,
                             protect=protect):
                if db.catalog.persisted(parent):
                    continue  # its write drained while room was made
                started = time.perf_counter()
                if tier != self.device_tier:
                    # rung-resident: lazy in-RAM decode
                    table = columnar_codec.decode_table(
                        self._rung_blob(parent))
                else:
                    table = storage_format.read_table(self.spill_dir,
                                                      parent)
                db.catalog.put_memory(parent, table)
                ledger.promote(parent)
                elapsed = time.perf_counter() - started
                ledger.record_wall_seconds(
                    tier, "read", elapsed, ledger.size_of(parent))
                trace.promote_read += elapsed
            else:  # wait for the durable copy
                started = time.perf_counter()
                self._materialize(parent)
                trace.stall += time.perf_counter() - started
