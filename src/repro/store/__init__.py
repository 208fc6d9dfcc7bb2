"""``repro.store`` — the tiered storage subsystem (spill-to-disk).

The S/C paper treats the Memory Catalog budget as a hard wall: a refresh
whose live intermediates exceed RAM either stalls or gives up flags and
pays blocking warehouse writes.  This package extends bounded memory
with a storage *hierarchy* — RAM on top, then one or more spill tiers
(SSD, local disk, ...) — so those workloads complete with a measurable
slowdown instead of failing, while the RAM-tier budget invariant keeps
holding exactly as before.

Architecture — an accounting core and three things beside it
===========================================================

**The accounting core** (:class:`~repro.store.tiered.TieredLedger`)
    Subclasses ``MemoryLedger``; its inherited state *is* the RAM tier,
    and each lower :class:`~repro.store.tiered.StorageTier` owns a plain
    ``MemoryLedger`` of its own, so per-tier usage, peak and admission
    share the exact accounting code RAM uses.  Every method backends
    already call — ``insert``, reservations, ``fits``,
    ``usage`` / ``peak_usage``, ``consumer_done`` / ``materialized`` /
    ``force_release``, ``in`` — keeps its meaning, with release-protocol
    calls routed to whichever tier holds the entry.  It holds only the
    accounting state: entries, budgets, holds, routing, recency, the
    victim ranking, and migration.  Entries migrate with
    the ledger's ``detach``/``adopt`` primitive, carrying their consumer
    counts and materialization holds with them, so the paper's release
    protocol is tier-agnostic — and there is **one eviction path**
    (``_make_room`` and the demotion under it) behind ``spill_insert``,
    ``try_make_room`` and ``demote_victim`` alike.

**Pricing** (:mod:`repro.store.pricing`)
    What a move costs, as pure functions of device profiles, codecs,
    ratios and sizes: realized ratio, encode / decode seconds, the
    demote charge, the reload cost, the per-GB round trip, the
    codec-adaptation decision.  The ledger bills through them and
    :class:`~repro.core.problem.TierAwareBudget` plans through them, so
    planner and runtime cannot price a tier differently.

**Stats** (:class:`~repro.store.stats.StoreStats`)
    What a run did: the spill / promote / prefetch / arbitration
    counters, per-tier observed telemetry, the ``codec_adapt`` log, the
    ``store`` events (bus on) and the assembly of ``tier_report()``.
    The core calls it directly, once per migration, tier read, prefetch
    outcome and arbitration — it is not a bus sink, so the report is
    filled with the bus off.

**Tenants** (:class:`~repro.store.tenants.TenantAccounts`)
    Whose RAM it is: the serve layer's per-tenant shares of tier 0,
    charged where the core commits RAM bytes and credited where they
    leave (a demotion or a release).

**The policies** (:data:`~repro.store.policy.POLICIES`)
    Victim selection is one of three sort keys: ``cost`` (S/C-style
    scoring — smallest expected reload penalty per byte freed),
    ``lru``, and ``largest``.  Rankings always end with the node id,
    keeping runs deterministic.  A key is a pure function of the
    entry's ``VictimInfo``: the ledger keeps every tier ranked in a
    lazily synced :class:`~repro.store.victim_index.VictimIndex` and
    re-keys an entry only when one of those fields changes.

**The mover contract** (:data:`~repro.store.tiered.Mover`)
    An executor doing *real* I/O hands ``demote_victim`` a callable
    ``mover(node_id, src, dst) -> stored_gb``.  The core picks the
    victim and, in the same call, asks the mover to put
    its bytes where tier ``dst`` keeps them, makes room there for the
    **measured** size (cascading that tier's own victims through the
    same mover, never one the caller excluded), and moves the
    accounting; a tier that cannot make the room is skipped and the
    entry lands further down as *one* move.  A mover that raises leaves
    the entry where it was.

How backends opt in
===================

* The **serial simulator** and the **parallel scheduler** accept a
  :class:`~repro.store.config.SpillConfig` on
  ``SimulatorOptions(spill=...)``.  Instead of stalling (or dropping the
  flag) when a flagged output does not fit, they demote victims to the
  next tier — charging the tiers' device read/write times into the
  node's timeline (``NodeTrace.spill_write`` / ``promote_read``) — and
  read spilled parents at the holding tier's device speed, promoting
  them back to RAM when ``promote`` is on and space allows.
* The **MiniDB backend** takes ``spill_dir=...`` (and ``spill_policy``)
  and performs *real* spills: victims are written with
  :func:`repro.db.storage_format.write_table` into the spill directory,
  read back with ``read_table`` on promotion, so wall-clock traces
  include genuine serialization + compression cost.  It uses the same
  ``TieredLedger`` with ``charge_io=False`` (bytes accounting and
  policy, no simulated seconds) and rides the same eviction path, as a
  ``Mover``.
* Backends that do nothing keep a plain ``MemoryLedger`` — with spill
  disabled every trace is bit-identical to the pre-tiered behavior.

Compressed spill files
======================

A :class:`~repro.store.config.CodecProfile` (``SpillConfig(codec=...)``,
per-tier overrides via ``TierSpec.codec``) arms the compressed spill
pipeline: tier capacity is charged *stored* (compressed) bytes while RAM
keeps charging logical bytes, demotions pay an encode stage, read-backs
pay a decode stage, and ``SpillConfig(prefetch=True)`` adds promote-ahead
prefetching — spilled parents of soon-to-run consumers are promoted
during idle device time so their consumers read at memory bandwidth.
``codec="none"`` with prefetch off stays bit-identical to the
uncompressed pipeline.

Run-level observability lives in ``RunTrace.extras["tiered_store"]``
(per-tier usage/peak plus spill/promote counts and bytes, codec names,
stored-vs-logical volumes, and prefetch outcomes), surfaced by the
Controller, the CLI (``--tier``, ``--spill-policy``, ``--spill-dir``,
``--spill-codec``, ``--prefetch``), ``repro-sc bench spill`` and
``repro-sc bench spillcodec``.
"""

from repro.store.config import (
    COLUMNAR_CODEC,
    LOCAL_DISK_PROFILE,
    NONE_CODEC,
    RAM_COMPRESSED,
    RAM_COMPRESSED_PROFILE,
    SPILL_CODECS,
    SSD_PROFILE,
    ZLIB1_CODEC,
    ZLIB_CODEC,
    CodecAdaptConfig,
    CodecProfile,
    SpillConfig,
    TierSpec,
    parse_tier,
    resolve_codec,
)
from repro.store.policy import VictimInfo
from repro.store.tiered import SpillCharge, StorageTier, TieredLedger

__all__ = [
    "COLUMNAR_CODEC",
    "CodecAdaptConfig",
    "CodecProfile",
    "LOCAL_DISK_PROFILE",
    "NONE_CODEC",
    "RAM_COMPRESSED",
    "RAM_COMPRESSED_PROFILE",
    "SPILL_CODECS",
    "SSD_PROFILE",
    "SpillCharge",
    "SpillConfig",
    "StorageTier",
    "TierSpec",
    "TieredLedger",
    "VictimInfo",
    "ZLIB1_CODEC",
    "ZLIB_CODEC",
    "parse_tier",
    "resolve_codec",
]
