"""The tiered store's accounting core: a MemoryLedger over RAM + spill tiers.

:class:`TieredLedger` subclasses :class:`~repro.exec.ledger.MemoryLedger`
so its *inherited* state is tier 0 (RAM): ``usage`` / ``peak_usage`` /
``fits`` / reservations keep their RAM-only meaning and every existing
budget invariant ("flagged residency never exceeds the budget") holds
unchanged.  Below it sit :class:`StorageTier` rungs, each with its own
ledger.  Entries move between tiers with the ledger's ``detach`` /
``adopt`` migration primitive, so an entry keeps its consumer count and
materialization hold wherever it lives, and the release protocol
(``consumer_done`` / ``materialized`` / ``force_release`` / ``in``)
routes transparently to the holding tier.

This class holds only the accounting state: entries, budgets, holds,
routing, recency, the victim ranking, and migration.  Like every
ledger it is called only from the thread that built it (see
:mod:`repro.exec.ledger`), so it takes no lock.
What a move *costs* is :mod:`repro.store.pricing` (pure functions the
planner shares), what a run *did* is :class:`~repro.store.stats.
StoreStats` (counters, per-tier telemetry, ``tier_report()`` assembly),
and whose RAM it is is :class:`~repro.store.tenants.TenantAccounts`.

Demotions cascade: spilling into a full middle tier first spills that
tier's own victims further down, so a hierarchy like RAM → small SSD →
unbounded disk behaves like a proper inclusive cache hierarchy.  There
is one eviction path — :meth:`TieredLedger._make_room` and the demotion
under it — and executors that move *real* bytes ride it too, by handing
:meth:`TieredLedger.demote_victim` a :data:`Mover`.

A tier need not be a device at all: the well-known ``ram-compressed``
rung (:data:`~repro.store.config.RAM_COMPRESSED_PROFILE`) keeps demoted
entries *in memory but encoded* — its transfer legs cost exactly zero
and its whole price is the codec (encode on demotion, lazy decode on
read-back), while its whole value is the ratio: the rung's budget is
charged stored bytes, so a 4 GB rung at 2x holds 8 GB of warm
intermediates that never reach a device.  The hierarchy then reads
RAM → ram-compressed → SSD → disk, and every arbitration, victim and
planner estimate prices the rung through the same decode-aware paths as
any device tier.

Spill files may be *compressed* (``SpillConfig.codec`` / per-tier
``TierSpec.codec``): every entry then has a **logical** size (decoded
bytes, what RAM and consumers see) and an **on-tier** stored size
(``logical / ratio``, what the tier's capacity is charged).  Demotions
pay an encode stage per logical GB, read-backs pay a decode stage, and
the arbitration estimate prices both so stall-vs-spill decisions see
the true codec cost.  With ``codec="none"`` every stored size equals its
logical size and every codec term is exactly zero, keeping traces
bit-identical to the uncompressed pipeline.

Two run-time refinements close the model-vs-runtime loop:

* **Per-entry compressibility** — a node's ``meta["compressibility"]``
  (a multiplier on the codec's nominal ratio headroom; 1.0 = typical,
  0.0 = incompressible, 2.0 = compresses twice as well) lets simulated
  workloads carry mixed compressibility, so observed codec ratios can
  genuinely diverge from the preset the way MiniDB's real spill dumps
  do.  Backends harvest the mapping with
  :func:`compressibility_from_graph`.
* **Codec adaptation** — with ``SpillConfig.adapt`` armed the ledger
  hands the first K measured spills of each tier to
  :func:`repro.store.pricing.adapt_codec` and *re-prices* (or drops) a
  codec whose measured ratio diverges from its preset
  (``tier_report().codec_adapt``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.errors import BudgetExceededError, CatalogError, ValidationError
from repro.exec.ledger import MemoryLedger
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import EventBus, resolve_bus
from repro.store import pricing
from repro.store.config import (
    NONE_CODEC,
    RAM_COMPRESSED_PROFILE,
    CodecProfile,
    SpillConfig,
    TierSpec,
)
from repro.store.policy import POLICIES, VictimInfo
from repro.store.report import TierReport
from repro.store.stats import StoreStats
from repro.store.tenants import TenantAccounts
from repro.store.victim_index import VictimIndex

#: How an executor doing *real* I/O takes part in a demotion:
#: ``mover(node_id, src, dst) -> stored_gb``.  The ledger calls it
#: *before* it moves the accounting, with the tier indices the
#: entry is about to move between: put the entry's bytes where tier
#: ``dst`` keeps them (encode, dump) and hand back the **measured**
#: stored GB — ``0.0`` when a durable copy already serves readers.  Only
#: then is room made in ``dst`` for exactly that many bytes and the
#: accounting moved; when ``dst`` cannot make the room the ledger asks
#: again for the tier below it, so the call must leave the source copy
#: readable — the executor drops source copies once the demotion
#: returns, from the charges it gets back.  A mover that raises leaves
#: the entry where it was.
Mover = Callable[[str, int, int], float]


def compressibility_from_graph(graph) -> dict[str, float]:
    """Harvest per-node ``meta["compressibility"]`` multipliers.

    Backends pass the result to
    :meth:`TieredLedger.set_compressibility` when arming a tiered run,
    so simulated spills realize each table's own ratio instead of the
    codec preset.  Nodes without the key are omitted (multiplier 1.0).
    """
    out: dict[str, float] = {}
    for node_id in graph.nodes():
        value = graph.node(node_id).meta.get("compressibility")
        if value is not None:
            out[node_id] = float(value)
    return out


@dataclass(frozen=True)
class SpillCharge:
    """Simulated time cost of one entry migration between tiers.

    ``size`` is the entry's *logical* (decoded) GB; with a codec armed
    the bytes actually moved on the destination device are
    ``size / ratio``, already priced into ``seconds``.
    """

    node_id: str
    src: str
    dst: str
    size: float
    seconds: float


@dataclass
class StorageTier:
    """One rung of the hierarchy: spec, its ledger, how it is priced.

    Attributes:
        profile: the tier's device model (RAM's transfers for free).
        codec: the tier's *current* algorithm — mid-run adaptation may
            have switched it away from the configured preset.
        priced_ratio: the ratio the cost model (arbitration, victim
            ranking, estimates) prices the tier at; the codec preset
            until adaptation moves it to the observed ratio.
    """

    spec: TierSpec
    ledger: MemoryLedger
    profile: DeviceProfile
    codec: CodecProfile = NONE_CODEC
    priced_ratio: float = 1.0

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class _Spilled:
    """One residency episode of an entry below RAM: its tier, its
    logical (decoded) GB — the tier's ledger is charged the stored size
    instead — the codec its bytes were actually encoded with (decode on
    read-back is priced per entry, so a mid-run codec switch never
    mis-prices already-stored files), and whether a prefetch pass
    already counted it as a miss (the backends retry before every node,
    and one stuck parent is one miss)."""

    tier: int
    logical: float
    codec: CodecProfile
    prefetch_missed: bool = False


class TieredLedger(MemoryLedger):
    """Budget accountant for a RAM + spill-tier hierarchy.

    Drop-in for a plain :class:`MemoryLedger`: backends that never call
    the tier methods see identical behavior (inserts that don't fit
    still raise).  Backends that opt into spilling use:

    * :meth:`spill_insert` — admit a new entry, demoting victims (or
      placing the entry itself in a lower tier when it is bigger than
      RAM);
    * :meth:`try_make_room` — free RAM ahead of a reservation;
    * :meth:`demote_victim` — select the policy's best victim and demote
      it in one call; executors doing *real* I/O pass a
      :data:`Mover` and the same call moves their bytes
      (``charge_io=False`` keeps every simulated charge at zero);
    * :meth:`promote` — bring a spilled entry back up after a read;
    * :meth:`tier_read_seconds` / :meth:`note_read` — charge and record
      reads of resident entries wherever they live (decode-aware when
      the holding tier compresses);
    * :meth:`prefetch` — the promote-ahead pass: spilled parents of
      soon-to-run consumers are promoted during idle device time
      (``SpillConfig.prefetch``), their I/O hidden in the idle window;
    * :meth:`estimate_spill_seconds` / :meth:`record_arbitration` — the
      cost model and outcome counters behind stall-vs-spill arbitration
      (the callers are :class:`repro.exec.kernel.NodeKernel` and the
      parallel scheduler), pricing encode + compressed
      transfer on the demote leg and decode on the reload leg.

    :attr:`stats` and :attr:`tenants` are touched only by this ledger's
    own methods.
    """

    def __init__(self, budget: float, config: SpillConfig | None = None,
                 profile: DeviceProfile | None = None,
                 charge_io: bool = True,
                 bus: EventBus | None = None) -> None:
        super().__init__(budget=budget)
        self.bus = resolve_bus(bus)
        self.config = config or SpillConfig()
        if self.config.policy not in POLICIES:
            raise ValidationError(
                f"unknown spill policy {self.config.policy!r}; choose "
                f"from {tuple(sorted(POLICIES))}")
        self.profile = profile or DeviceProfile()
        #: False for executors that measure real wall clocks instead of
        #: charging the model: every simulated second stays zero
        self.charge_io = charge_io
        # RAM keeps tables decoded; each lower tier resolves its codec
        # (per-tier override, else the config default)
        self.tiers: list[StorageTier] = [StorageTier(
            TierSpec("ram", budget), self, RAM_COMPRESSED_PROFILE)]
        for spec in self.config.tiers:
            codec = spec.resolved_codec(self.config.codec)
            self.tiers.append(StorageTier(
                spec, MemoryLedger(budget=spec.budget),
                spec.resolved_profile(), codec, codec.ratio))
        self._below: dict[str, _Spilled] = {}
        # per-node compressibility multipliers (see set_compressibility)
        self._compressibility: dict[str, float] = {}
        self._recency: dict[str, int] = {}
        self._tick = 0
        # every tier's policy ranking, synced lazily: mutations below
        # only mark the entries they touch (see repro.store.victim_index)
        self._victim_index = VictimIndex(POLICIES[self.config.policy][0],
                                         len(self.tiers), self._victim_info)
        # a --replan second pass builds a fresh ledger and therefore
        # fresh counts
        self.stats = StoreStats(self.config, self.tiers, self.bus,
                                charge_io)
        self.tenants = TenantAccounts()

    # ------------------------------------------------------------------
    # routing: an entry lives in exactly one tier, and every release-
    # protocol call runs the base-class method on that tier's ledger
    # ------------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._entries or node_id in self._below

    @property
    def any_below_ram(self) -> bool:
        """Whether some entry sits below RAM (what :meth:`prefetch`
        could promote)."""
        return bool(self._below)

    def tier_of(self, node_id: str) -> int | None:
        """Index of the tier holding ``node_id`` (0 = RAM), or None."""
        if node_id in self._entries:
            return 0
        spilled = self._below.get(node_id)
        return None if spilled is None else spilled.tier

    def resident(self) -> list[str]:
        return list(self._entries) + list(self._below)

    def size_of(self, node_id: str) -> float:
        """Logical (decoded) GB of a resident entry, wherever it lives.

        Consumers and RAM admission always deal in logical bytes; the
        stored (possibly compressed) on-tier size is
        :meth:`stored_size_of`.
        """
        idx, _ = self._holding(node_id)
        return self._logical_size(idx, node_id)

    def stored_size_of(self, node_id: str) -> float:
        """On-tier GB the entry occupies (compressed below RAM)."""
        _, tier = self._holding(node_id)
        return MemoryLedger.size_of(tier.ledger, node_id)

    def consumers_left(self, node_id: str) -> int:
        _, tier = self._holding(node_id)
        return MemoryLedger.consumers_left(tier.ledger, node_id)

    def consumer_done(self, node_id: str) -> bool:
        idx, tier = self._holding(node_id)
        released = MemoryLedger.consumer_done(tier.ledger, node_id)
        if released:
            self._forget(idx, node_id)
        else:
            self._victim_index.mark(idx, node_id)
        return released

    def materialized(self, node_id: str) -> bool:
        idx, tier = self._holding(node_id)
        released = MemoryLedger.materialized(tier.ledger, node_id)
        if released:
            self._forget(idx, node_id)
        return released

    def force_release(self, node_id: str) -> None:
        idx, tier = self._holding(node_id)
        MemoryLedger.force_release(tier.ledger, node_id)
        self._forget(idx, node_id)

    def _holding(self, node_id: str) -> tuple[int, StorageTier]:
        if node_id in self._entries:
            return 0, self.tiers[0]
        spilled = self._below.get(node_id)
        if spilled is None:
            raise CatalogError(f"table {node_id!r} not in any tier")
        return spilled.tier, self.tiers[spilled.tier]

    def _logical_size(self, index: int, node_id: str) -> float:
        """Logical GB of an entry resident in tier ``index``."""
        if index == 0:
            return self._entries[node_id].size
        return self._below[node_id].logical

    def _forget(self, index: int, node_id: str) -> None:
        """Drop every record of an entry released out of tier
        ``index`` (crediting its owner for the RAM bytes it left)."""
        self._victim_index.discard(index, node_id)
        if index:
            del self._below[node_id]
        del self._recency[node_id]  # every arrival was stamped
        if self.tenants.owners:
            self.tenants.forget(node_id)

    # ------------------------------------------------------------------
    # codecs and ratios
    # ------------------------------------------------------------------
    def set_compressibility(self, mapping: Mapping[str, float]) -> None:
        """Install per-node compressibility multipliers (see
        :func:`repro.store.pricing.realized_ratio`).  Unknown nodes
        default to 1."""
        for node_id, mult in mapping.items():
            if mult < 0:
                raise CatalogError(
                    f"compressibility of {node_id!r} must be >= 0")
        self._compressibility = dict(mapping)
        self._victim_index.mark_all()  # every realized ratio moved

    def _entry_ratio(self, index: int, node_id: str) -> float:
        """Realized stored ratio of ``node_id`` encoded into ``index`` —
        the one ratio every sizing and pricing site uses, so actual
        demotion charges and arbitration/victim estimates can never
        diverge."""
        tier = self.tiers[index]
        return pricing.realized_ratio(tier.codec, tier.priced_ratio,
                                      self._compressibility.get(node_id))

    def _maybe_adapt(self, index: int) -> None:
        """Decide tier ``index``'s codec once, after ``adapt.samples``
        measured spills into it (zero-byte dumps carry no ratio and do
        not count): re-price the cost model to the observed ratio, or
        drop a codec that stopped paying for itself — see
        :func:`repro.store.pricing.adapt_codec`."""
        adapt, tier = self.config.adapt, self.tiers[index]
        seen = self.stats.tiers[index]
        if (adapt is None or tier.codec.ratio <= 1.0
                or tier.name in self.stats.codec_adapt
                or seen.encoded_count < adapt.samples):
            return
        observed = seen.encoded_logical_gb / seen.encoded_stored_gb
        below = (self.tiers[index + 1].profile
                 if index + 1 < len(self.tiers) else None)
        repriced, switched = pricing.adapt_codec(
            tier.codec, observed, tier.profile, below)
        self.stats.adapted(tier.name, tier.codec, observed,
                           seen.encoded_count, repriced, switched)
        if repriced:
            tier.priced_ratio = 1.0 if switched else observed
            if switched:
                tier.codec = NONE_CODEC
            self._victim_index.mark_all()  # reload costs are re-priced

    # ------------------------------------------------------------------
    # recency (for the LRU policy; logical, not wall-clock)
    # ------------------------------------------------------------------
    def _touch(self, index: int, node_id: str) -> None:
        """Stamp an access of ``node_id``, resident in tier ``index``,
        and mark it for a re-rank (its recency moved; a new arrival is
        stamped too, which is what first enters it in the ranking)."""
        self._tick += 1
        self._recency[node_id] = self._tick
        self._victim_index.mark(index, node_id)

    def note_read(self, node_id: str) -> int | None:
        """A consumer reads ``node_id``: stamp the access for recency
        ranking and return the index of the tier holding it (0 = RAM),
        or None — touching nothing — when no tier does.

        The kernel's one ledger call per parent read: it replaces a
        membership test, :meth:`tier_of` and a separate touch.  It runs
        *before* the read is charged (:meth:`tier_read_seconds`, a
        :meth:`promote`), which leaves the final tick and the victim
        index's marks what touching after them would.
        """
        if node_id in self._entries:
            index = 0
        else:
            spilled = self._below.get(node_id)
            if spilled is None:
                return None
            index = spilled.tier
        self._touch(index, node_id)
        return index

    # ------------------------------------------------------------------
    # tenants (multi-tenant serving; see repro.store.tenants)
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, budget: float) -> None:
        """Register (or re-budget) a tenant's RAM share, in GB of the
        RAM budget — shares partition tier 0 only, spill tiers stay
        shared."""
        self.tenants.register(name, budget)

    def set_owner(self, node_id: str, tenant: str) -> None:
        """Attribute ``node_id``'s RAM residency to ``tenant``.

        May be called before the entry exists (the serve layer tags a
        request's node keys ahead of admission, and :meth:`spill_insert`
        then holds the entry to its owner's share); if the entry is
        already RAM-resident its bytes move between tenant accounts
        atomically.  The mapping persists across demotions/promotions
        and clears when the entry fully leaves the hierarchy, or when
        its admission fails.
        """
        entry = self._entries.get(node_id)
        self.tenants.set_owner(
            node_id, tenant, None if entry is None else entry.size)

    def tenant_names(self) -> list[str]:
        return list(self.tenants.accounts)

    def tenant_usage(self, name: str) -> float:
        """Committed RAM bytes of entries ``name`` owns."""
        return self.tenants.account(name).usage

    # The two RAM hooks.  Every path committing RAM bytes (insert /
    # commit_reservation / adopt / promote) lands in _commit_entry, and
    # every path returning them in a release (then _forget) or in
    # detach, so these keep recency, the victim ranking and the tenant
    # balances in lockstep with tier-0 usage.  Only tier 0 is hooked:
    # lower-tier ledgers are plain MemoryLedger objects, and the
    # release rule is MemoryLedger's alone.  The tenant books are
    # touched only once some tenant owns an entry.
    def _commit_entry(self, node_id: str, size: float, n_consumers: int,
                      materialization_pending: bool) -> None:
        MemoryLedger._commit_entry(self, node_id, size, n_consumers,
                                   materialization_pending)
        self._touch(0, node_id)
        if self.tenants.owners:
            self.tenants.charge(node_id, size)

    def detach(self, node_id: str) -> tuple[float, int, bool]:
        size, consumers, pending = super().detach(node_id)
        self._victim_index.discard(0, node_id)
        self.tenants.credit(node_id)
        return size, consumers, pending

    # ------------------------------------------------------------------
    # spill / promote
    # ------------------------------------------------------------------
    def _victim_info(self, index: int, node_id: str) -> VictimInfo | None:
        """What the spill policy sees of ``node_id``, resident in tier
        ``index``; None when nothing sits below to demote into.

        ``size`` is the entry's footprint *in this tier* (what a
        demotion frees here); ``reload_cost`` is decode-aware — the
        device read of the compressed bytes in the destination tier plus
        the decode of the logical bytes.  ``demote_cost`` is what moving
        it one tier down is billed (:meth:`_move_seconds`, at the ratio
        it realizes there) and ``create_cost`` what promoting it back
        into RAM is.  Whatever this reads — consumer count, recency,
        realized ratio, the tier's codec — must mark the entry in the
        victim index when it changes.
        """
        if index + 1 >= len(self.tiers):
            return None
        src, dst = self.tiers[index], self.tiers[index + 1]
        entry = src.ledger._require(node_id)
        logical = self._logical_size(index, node_id)
        stored_dst = logical / self._entry_ratio(index + 1, node_id)
        return VictimInfo(
            node_id=node_id,
            size=entry.size,
            consumers_left=entry.consumers_left,
            last_access=self._recency.get(node_id, 0),
            reload_cost=pricing.read_seconds(
                dst.profile, dst.codec, stored_dst, logical),
            demote_cost=self._move_seconds(
                src, entry.size,
                NONE_CODEC if index == 0 else self._below[node_id].codec,
                dst, stored_dst, logical),
            create_cost=(self.profile.create_time_memory(logical)
                         if self.charge_io else 0.0))

    def _make_room(self, index: int, size: float, now: float,
                   mover: Mover | None = None,
                   exclude: frozenset = frozenset(),
                   ) -> tuple[bool, list[SpillCharge]]:
        """Demote tier ``index`` victims until ``size`` fits there.

        Returns ``(ok, charges)``; when ``ok`` is False the space cannot
        be freed (the request exceeds the tier's admissible capacity or
        no further victims exist) — ``charges`` still holds every move
        made trying.
        """
        tier = self.tiers[index]
        if size > tier.ledger.available + tier.ledger._usage:
            return False, []  # bigger than the tier can ever admit
        charges: list[SpillCharge] = []
        while not tier.ledger.fits(size):
            victim, moved = self._demote_best(index, now, mover, exclude)
            charges.extend(moved)
            if victim is None:
                return False, charges
        return True, charges

    def _demote_best(self, index: int, now: float,
                     mover: Mover | None, exclude: frozenset,
                     owner: str | None = None,
                     ) -> tuple[str | None, list[SpillCharge]]:
        """Demote tier ``index``'s best victim that *can* move: the top
        pick may itself be too big for everything below, and a
        lower-ranked one that moves beats giving up.  Entries in
        ``exclude`` (and, with ``owner``, other tenants' entries) are
        never offered.  Returns the victim's id, or None, with every
        move made on the way."""
        charges: list[SpillCharge] = []
        for victim in self._victim_index.ranked(index):
            if victim.node_id in exclude or (
                    owner is not None
                    and self.tenants.owners.get(victim.node_id) != owner):
                continue
            ok, moved = self._demote(victim.node_id, now, mover, exclude)
            charges.extend(moved)
            if ok:
                return victim.node_id, charges
        return None, charges

    def _demote_destination(self, idx: int, node_id: str,
                            logical: float) -> int:
        """Destination tier for a modeled demotion out of tier ``idx``.

        Normally one tier down.  A *transfer-free* rung (the
        ``ram-compressed`` tier) is skipped when it is too full to admit
        the entry without displacing other bytes onward *and* that
        displaced cascade is modeled dearer than writing this entry
        straight to the tier below: routing through a full rung pays
        its encode here plus a decode + device write for every
        displaced byte, with no transfer saved in return.  Device tiers
        are never skipped — bytes pay the device either way, so the
        one-tier-down invariant stands for them.
        """
        dst_idx = idx + 1
        while dst_idx + 1 < len(self.tiers):
            rung, below = self.tiers[dst_idx], self.tiers[dst_idx + 1]
            if not pricing.transfer_free(rung.profile):
                break  # a real device, not a rung
            stored = logical / self._entry_ratio(dst_idx, node_id)
            free = rung.ledger.available
            if stored <= free:
                break  # fits without displacement: the rung pays off
            displaced = (stored - free) * rung.priced_ratio
            if not pricing.rung_detour_is_dearer(
                    rung.codec, below.profile, below.codec, logical,
                    displaced, displaced / below.priced_ratio,
                    logical / self._entry_ratio(dst_idx + 1, node_id)):
                break  # the displacement is still cheaper than a write
            dst_idx += 1
        return dst_idx

    def _place_below(self, node_id: str, src_idx: int | None,
                     stored_src: float, dst_idx: int, stored: float,
                     logical: float, consumers: int, pending: bool,
                     now: float) -> SpillCharge:
        """Enter ``node_id`` into lower tier ``dst_idx`` — the one step
        a demotion (out of tier ``src_idx``, where it occupied
        ``stored_src`` GB and is already detached) and a tier-direct
        placement (``src_idx=None``: a new entry, made in RAM) share.

        The tier is charged the *stored* size, the entry remembers its
        logical size and the codec it was encoded with, and the move is
        billed the source read (plus decode when the source tier is
        compressed), the encode into the destination codec and the
        device write of the compressed bytes.
        """
        src, dst = self.tiers[src_idx or 0], self.tiers[dst_idx]
        was = self._below.get(node_id)
        dst.ledger.adopt(node_id, stored, consumers, pending)
        self._below[node_id] = _Spilled(dst_idx, logical, dst.codec)
        self._victim_index.mark(dst_idx, node_id)
        charge = SpillCharge(
            node_id=node_id, src="new" if src_idx is None else src.name,
            dst=dst.name, size=logical,
            seconds=self._move_seconds(
                src, stored_src, NONE_CODEC if was is None else was.codec,
                dst, stored, logical))
        self.stats.spilled(charge, src_idx, dst_idx, stored, now)
        self._maybe_adapt(dst_idx)
        return charge

    def _move_seconds(self, src: StorageTier, stored_src: float,
                      src_codec: CodecProfile, dst: StorageTier,
                      stored_dst: float, logical: float) -> float:
        """Modeled seconds of moving an entry from ``src`` into ``dst``
        — zero for executors that measure instead."""
        if not self.charge_io:
            return 0.0
        return pricing.demote_seconds(
            src.profile, src_codec, stored_src, dst.profile, dst.codec,
            stored_dst, logical)

    def _demote(self, node_id: str, now: float,
                mover: Mover | None = None,
                exclude: frozenset = frozenset(),
                ) -> tuple[bool, list[SpillCharge]]:
        """Move one entry down the hierarchy, cascading.

        Returns ``(moved, charges)``; ``charges`` holds the cascade's
        moves even when the entry itself could not move.

        Modeled, the destination is the next tier (or past a full rung,
        see :meth:`_demote_destination`; one tier down is the fallback
        when the bypass target cannot host it) and is charged the
        entry's *stored* size — logical bytes shrunk by the realized
        ratio.  With a :data:`Mover` the stored size is what the mover
        measured, the destination is the first tier below that can make
        room for it, and ``exclude`` protects cascade victims too.
        """
        idx, src = self._holding(node_id)
        below = idx + 1
        if below >= len(self.tiers):
            return False, []
        logical = self._logical_size(idx, node_id)
        candidates: Iterable[int] = range(below, len(self.tiers))
        if mover is None:
            first = (self._demote_destination(idx, node_id, logical)
                     if self.charge_io else below)
            candidates = dict.fromkeys((first, below))
        charges: list[SpillCharge] = []
        for dst_idx in candidates:
            stored = (mover(node_id, idx, dst_idx) if mover is not None
                      else logical / self._entry_ratio(dst_idx, node_id))
            ok, moved = self._make_room(dst_idx, stored, now, mover,
                                        exclude)
            charges.extend(moved)
            if ok:
                break
        else:
            return False, charges
        stored_src, consumers, pending = src.ledger.detach(node_id)
        self._victim_index.discard(idx, node_id)
        charges.append(self._place_below(
            node_id, idx, stored_src, dst_idx, stored, logical, consumers,
            pending, now))
        return True, charges

    def demote(self, node_id: str, now: float = 0.0) -> list[SpillCharge]:
        """Spill one entry a tier down (public; raises when impossible).

        Raises:
            BudgetExceededError: nothing below can host the entry;
                demotions the attempt made on the way are real — the
                error carries them in a ``charges`` attribute.
        """
        moved, charges = self._demote(node_id, now)
        if not moved:
            _, src = self._holding(node_id)
            error = BudgetExceededError(
                f"cannot demote {node_id!r} below tier {src.name!r}",
                requested=src.ledger.size_of(node_id), available=0.0)
            error.charges = charges
            raise error
        return charges

    def try_make_room(self, size: float,
                      now: float = 0.0) -> tuple[bool, list[SpillCharge]]:
        """Free RAM for ``size`` bytes by demoting victims; the charges
        are every move made, whatever the verdict."""
        return self._make_room(0, size, now)

    def demote_victim(self, exclude: frozenset = frozenset(),
                      now: float = 0.0, owner: str | None = None,
                      mover: Mover | None = None,
                      ) -> tuple[str, list[SpillCharge]] | None:
        """Select the best RAM victim *and* demote it.

        Selection, the byte move (when ``mover`` is given — see
        :data:`Mover`) and the accounting move are one call.  Entries
        named in ``exclude`` are never offered, in RAM or as cascade
        victims further down.  When ``owner`` is given only RAM entries
        owned by that tenant are considered — the selection
        :meth:`spill_insert` sheds an over-share tenant with.  Falls down
        the policy ranking past victims that cannot move (e.g. too big
        for every lower tier), mirroring :meth:`_make_room`.

        Returns ``(victim_id, charges)`` or ``None`` when no eligible
        victim can be demoted.
        """
        victim, charges = self._demote_best(0, now, mover, exclude, owner)
        return None if victim is None else (victim, charges)

    def spill_insert(self, node_id: str, size: float, n_consumers: int,
                     materialization_pending: bool = True,
                     now: float = 0.0) -> tuple[int, list[SpillCharge]]:
        """Admit a new entry somewhere in the hierarchy.

        Prefers RAM (demoting victims to make room — first the owner's
        own, while a tenant-owned entry does not fit its owner's share,
        see :meth:`_shed_owner`); an entry bigger than RAM itself is
        created directly in the first lower tier that can hold it.
        Returns ``(tier_index, charges)``; raises
        :class:`BudgetExceededError` only when no tier can host the
        entry (impossible with an unbounded last tier), dropping its
        owner record.  Demotions made before such a failure are real —
        the raised error carries them in a ``charges`` attribute so the
        caller can still bill them.
        """
        self._check_new(node_id, size)
        if node_id in self._below:
            _, tier = self._holding(node_id)
            raise CatalogError(
                f"table {node_id!r} already resident in tier "
                f"{tier.name!r}")
        charges = (self._shed_owner(node_id, size, now)
                   if node_id in self.tenants.owners else [])
        ok, more = self._make_room(0, size, now)
        charges.extend(more)
        if ok:  # checked and made room for: commit it
            self._commit_entry(node_id, size, n_consumers,
                               materialization_pending)
            return 0, charges
        for idx in range(1, len(self.tiers)):
            stored = size / self._entry_ratio(idx, node_id)
            fits, more = self._make_room(idx, stored, now)
            charges.extend(more)
            if not fits:
                continue
            charges.append(self._place_below(
                node_id, None, 0.0, idx, stored, size, n_consumers,
                materialization_pending, now))
            self._touch(idx, node_id)
            return idx, charges
        # the entry never existed: forget whom it was tagged for
        self.tenants.owners.pop(node_id, None)
        error = BudgetExceededError(
            f"no storage tier can host {node_id!r} ({size:.6g} GB)",
            requested=size, available=self.available)
        error.charges = charges
        raise error

    def _shed_owner(self, node_id: str, size: float,
                    now: float) -> list[SpillCharge]:
        """Enforce the share of tenant-owned ``node_id``'s owner ahead
        of its RAM admission: demote the owner's *own* RAM victims while
        ``size`` does not fit what is left of its share, so one tenant's
        burst cannot evict another's entries.

        An output bigger than RAM sheds nothing — it is placed below RAM
        anyway — and the share test has :meth:`fits`' form, so a single
        tenant owning the whole budget sheds exactly what
        :meth:`_make_room` would have demoted.  Only an output bigger
        than all the owner can free overshoots its share, by that one
        entry (promotes never do: :meth:`_promote`).
        """
        owner = self.tenants.owners[node_id]
        charges: list[SpillCharge] = []
        if size > self.available + self._usage:
            return charges
        while not self.tenants.fits(node_id, size):
            victim, moved = self._demote_best(0, now, None, frozenset(),
                                              owner)
            charges.extend(moved)
            if victim is None:
                break  # nothing of the owner's left to shed
        return charges

    def _admits(self, node_id: str, size: float) -> bool:
        """Whether ``size`` GB of ``node_id`` may enter RAM with no
        demotion: they fit RAM and what is left of the owner's share."""
        return self.fits(size) and self.tenants.fits(node_id, size)

    def _promote(self, node_id: str, now: float) -> SpillCharge | None:
        """Move a spilled entry into RAM (run counters are the
        caller's); None = no move.

        RAM is charged the entry's *logical* size — tables live decoded
        in the Memory Catalog whatever codec the tier used.  It moves
        only when that fits RAM and its owner's share.
        """
        idx, src = self._holding(node_id)
        if idx == 0:
            return None
        logical = self._below[node_id].logical
        if not self._admits(node_id, logical):
            return None
        _, consumers, pending = src.ledger.detach(node_id)
        self._victim_index.discard(idx, node_id)
        del self._below[node_id]
        # _admits checked the fit: commit as adopt would
        self._commit_entry(node_id, logical, consumers, pending)
        charge = SpillCharge(
            node_id=node_id, src=src.name, dst="ram", size=logical,
            seconds=(self.profile.create_time_memory(logical)
                     if self.charge_io else 0.0))
        self.stats.promoted(charge, idx, now)
        return charge

    def promote(self, node_id: str,
                now: float = 0.0) -> SpillCharge | None:
        """Move a spilled entry back into RAM when it fits (no eviction).

        The device read (and decode) is charged by the caller at read
        time; the promotion itself costs one in-memory create of the
        logical bytes.  Returns the charge, or None when the entry is
        already in RAM or does not fit.
        """
        charge = self._promote(node_id, now)
        if charge is not None:
            self.stats.promote_count += 1
            self.stats.promote_bytes += charge.size
        return charge

    def prefetch(self, parents: Iterable[str],
                 now: float = 0.0) -> float:
        """Promote-ahead pass: bring spilled ``parents`` back into RAM.

        Called by backends during *idle device time* — after a node
        completes and before its successor dispatches — for the parents
        of soon-to-run consumers (``SpillConfig.prefetch``).  Each
        spilled parent that fits in RAM and in its owner's share is
        promoted (no evictions: a prefetch never demotes resident
        entries to make room), so the consumer reads it at memory
        bandwidth instead of paying the tier's device + decode path.

        The device read, decode, and in-memory create of a prefetched
        parent are modeled as overlapped with the idle window — they are
        *not* billed to any node's timeline — but their modeled seconds
        are accounted in ``stats.prefetch_hidden_seconds`` so traces
        stay honest about how much I/O the idle window absorbed.
        ``stats.prefetch_misses`` counts *distinct* parents that failed
        to fit (per residency episode), not retries — the backends
        re-run this pass before every node, and one stuck parent should
        not read as a miss storm.

        Returns:
            The hidden (overlapped) seconds of this pass.
        """
        if not self._below:
            return 0.0  # nothing below RAM to promote
        hidden = 0.0
        for parent in parents:
            spilled = self._below.get(parent)
            if spilled is None:
                continue
            if not self._admits(parent, spilled.logical):
                if not spilled.prefetch_missed:
                    spilled.prefetch_missed = True
                    self.stats.prefetch_miss(parent, spilled, now)
                continue
            read = self.tier_read_seconds(parent, now=now)
            charge = self._promote(parent, now)
            assert charge is not None  # it is below RAM, and it fits
            self.stats.prefetch_hit(charge, read + charge.seconds, now)
            hidden += read + charge.seconds
        self.stats.prefetch_hidden_seconds += hidden
        return hidden

    def estimate_spill_seconds(self, size: float, now: float = 0.0,
                               at_least: float | None = None,
                               ) -> float | None:
        """Modeled cost of admitting ``size`` GB into RAM by demoting.

        Walks the victim policy's ranking, summing for each victim that
        would have to move: what its demotion into the next tier will be
        billed (through the very function the demotion then pays) plus
        the expected reload penalty its remaining consumers will pay
        (one decode-aware device read — and one promote-create when
        promotion is on; without promotion every remaining consumer
        re-reads the tier).  Cascade demotions further down are not
        modeled — this is an *estimate* for stall-vs-spill arbitration,
        not a quote.  Each victim's prices are cached on its
        :class:`VictimInfo` (see :meth:`_victim_info`), so the walk only
        adds them up.

        ``at_least`` asks for a verdict instead of the whole number:
        once the running cost reaches it, pricing stops (sizes are
        still summed, so the ``None`` case is unchanged) and the partial
        cost — itself ``>= at_least`` — comes back.  Either way
        ``at_least <= result`` holds exactly when it holds for the
        full estimate.

        Returns:
            ``0.0`` when the size already fits, ``None`` when no amount
            of demotion can make it fit (bigger than RAM's admissible
            capacity, not enough movable victims, or — defensively — a
            hierarchy with no tier below RAM to demote into), the
            modeled seconds otherwise.
        """
        available = self.available
        if size <= available + 1e-12:  # it fits
            return 0.0
        if len(self.tiers) < 2:
            return None  # RAM-only hierarchy: no demotion possible
        if size > available + self._usage + 1e-12:
            return None  # exceeds what RAM can ever admit
        deficit = size - available
        promote = self.config.promote
        stop = math.inf if at_least is None else at_least
        freed = 0.0
        cost = 0.0
        for victim in self._victim_index.ranked(0):
            if freed >= deficit - 1e-12:
                break
            freed += victim.size
            if cost >= stop:
                continue  # the verdict is in: only sizes matter now
            cost += victim.demote_cost
            if victim.consumers_left > 0:
                if promote:
                    cost += victim.reload_cost + victim.create_cost
                else:
                    cost += victim.consumers_left * victim.reload_cost
        if freed < deficit - 1e-12:
            return None
        return cost

    def record_wall_seconds(self, index: int, leg: str, seconds: float,
                            gb: float) -> None:
        """Record a *measured* wall clock against tier ``index``.

        Real-I/O executors (``charge_io=False``) call this around their
        actual encode/dump (``leg="spill_in"``) and read-back/decode
        (``leg="read"``) work on ``gb`` logical GB, so the feedback
        loop gets per-tier observed seconds with any number of spill
        tiers.  :meth:`tier_report` surfaces the
        per-GB averages in the tier's ``observed`` block exactly like
        simulated charges.
        """
        self.stats.wall(index, leg, seconds, gb)

    def record_arbitration(self, stalled: bool, stall_seconds: float = 0.0,
                           avoided: float = 0.0,
                           now: float = 0.0) -> None:
        """Count one stall-vs-spill decision a backend made.

        Args:
            stalled: True when stalling won the arbitration.
            stall_seconds: simulated seconds the winner stalled for.
            avoided: the modeled spill cost the stall avoided.
            now: timeline position of the decision (for tracing only).
        """
        self.stats.arbitrated(stalled, stall_seconds, avoided, now)

    def tier_read_seconds(self, node_id: str, now: float = 0.0) -> float:
        """Device + decode seconds to read a resident entry (0 for RAM;
        the caller charges RAM reads at memory bandwidth as before).

        A compressed tier transfers the stored bytes and then decodes
        the logical bytes — with the codec the entry was *actually
        encoded with*, so a mid-run codec switch never mis-charges files
        written earlier.  Both the consumer charge (the kernel's
        resident read) and the prefetch pass price through this one
        method.
        """
        idx, tier = self._holding(node_id)
        if idx == 0:
            return 0.0
        spilled = self._below[node_id]
        seconds = pricing.read_seconds(
            tier.profile, spilled.codec,
            tier.ledger._require(node_id).size,
            spilled.logical) if self.charge_io else 0.0
        self.stats.read(node_id, spilled, seconds, now)
        return seconds

    # ------------------------------------------------------------------
    def tier_report(self) -> TierReport:
        """Per-tier usage, observed telemetry and the run's spill /
        promote / prefetch / arbitration / adaptation counters — see
        :meth:`repro.store.stats.StoreStats.report`; its ``to_dict()``
        is ``RunTrace.extras["tiered_store"]``."""
        return self.stats.report(
            [sum(self._logical_size(index, node_id)
                 for node_id in tier.ledger._entries)
             for index, tier in enumerate(self.tiers)],
            self.tenants.report(self._entries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "->".join(tier.name for tier in self.tiers)
        return (f"TieredLedger({names}, usage={self.usage:.3g}/"
                f"{self.budget:.3g}, spills={self.stats.spill_count})")
