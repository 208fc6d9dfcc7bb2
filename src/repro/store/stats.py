"""What a tiered run did: counters, per-tier telemetry, events, the report.

:class:`StoreStats` is the plain recorder
:class:`~repro.store.tiered.TieredLedger` keeps beside its accounting:
the ledger tells it once per migration, tier read, prefetch outcome and
arbitration what happened; it counts, emits the matching ``store`` event
when the bus is on, and alone assembles the run's report
(:meth:`StoreStats.report`, a :class:`~repro.store.report.TierReport`;
the types live in :mod:`repro.store.report`, and its JSON form is
``RunTrace.extras["tiered_store"]``) — the one record of the run
counters; ``--metrics`` prints its ``store.*`` lines from that report.
It is a direct collaborator, not an event-bus sink — the report has to
be filled with the bus off, and off has to cost one attribute check.

Only the owning ledger calls it, and readers go through
``TieredLedger.tier_report()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.obs.events import EventBus
from repro.store import pricing
from repro.store.config import NONE_CODEC, CodecProfile, SpillConfig
from repro.store.report import (
    Arbitration,
    CodecAdapt,
    CodecAdaptRecord,
    Observed,
    Prefetch,
    TenantRow,
    TierReport,
    TierRow,
)

if TYPE_CHECKING:
    from repro.store.tiered import SpillCharge, StorageTier, _Spilled


@dataclass
class Traffic:
    """One kind of traffic through one tier: how many entries, their
    logical GB, the simulated seconds charged — and, kept apart so
    neither pollutes the other's per-GB average, the wall clocks a
    real-I/O executor measured (``charge_io=False`` runs, via
    ``TieredLedger.record_wall_seconds``) with their own GB."""

    count: int = 0
    gb: float = 0.0
    seconds: float = 0.0
    wall_seconds: float = 0.0
    wall_gb: float = 0.0

    def add(self, gb: float, seconds: float) -> None:
        self.count += 1
        self.gb += gb
        self.seconds += seconds

    def per_gb(self, charge_io: bool) -> float | None:
        """Observed seconds per logical GB; ``None`` (not ``0.0``) when
        no traffic of this kind happened.  Ledgers that do not charge
        simulated seconds surface the measured wall clocks instead."""
        if charge_io:
            return self.seconds / self.gb if self.gb > 0.0 else None
        if self.wall_seconds > 0.0 and self.wall_gb > 0.0:
            return self.wall_seconds / self.wall_gb
        return None


@dataclass
class TierTelemetry:
    """Observed traffic of one tier.

    ``spill_in`` is entries encoded *into* this tier (demotions and
    direct placements, with the full migration charge attributed to the
    destination); ``read`` is charged reads of entries resident here
    (device + decode); ``promote`` is entries promoted *out* of this
    tier back into RAM (the in-memory create).
    """

    spill_in: Traffic = field(default_factory=Traffic)
    read: Traffic = field(default_factory=Traffic)
    promote: Traffic = field(default_factory=Traffic)
    spill_in_stored_gb: float = 0.0
    # only dumps that actually wrote bytes carry ratio information —
    # durable MiniDB victims charge 0 stored GB and would skew it; these
    # are also the samples mid-run codec adaptation decides on
    encoded_count: int = 0
    encoded_logical_gb: float = 0.0
    encoded_stored_gb: float = 0.0


@dataclass
class StoreStats:
    """Run counters, per-tier telemetry and ``store`` events of one
    tiered ledger.

    Attributes:
        config: what the run was armed with (report header).
        rungs: the ledger's tiers, read for names and occupancy only.
        bus: where events go; every emission is guarded by
            ``bus.enabled``.
        charge_io: whether seconds are simulated (events are then
            stamped on the simulated timeline) or measured (stamped on
            the bus wall clock, which *is* such a run's logical time).
        tiers: each tier's :class:`TierTelemetry`.
        codec_adapt: tier name -> the adaptation decision taken there.

    The counters are plain attributes with typed defaults (int counts
    stay int, so reports serialize the same from run to run); the
    ledger bumps the ones no event goes with (``promote_count``,
    ``prefetch_hidden_seconds``) directly.
    """

    config: SpillConfig
    rungs: Sequence[StorageTier]
    bus: EventBus
    charge_io: bool
    spill_count: int = 0
    promote_count: int = 0
    spill_bytes: float = 0.0
    promote_bytes: float = 0.0
    spill_stored_bytes: float = 0.0
    # demotions that landed further than one tier down: modeled ones
    # skip a full transfer-free rung when the displaced cascade would
    # cost more than going direct, a real mover's any tier that could
    # not make room for the measured bytes
    demote_bypass_count: int = 0
    prefetch_count: int = 0
    prefetch_bytes: float = 0.0
    prefetch_hidden_seconds: float = 0.0
    prefetch_misses: int = 0
    stall_wins: int = 0
    spill_wins: int = 0
    stall_seconds: float = 0.0
    avoided_spill_seconds: float = 0.0
    tiers: list[TierTelemetry] = field(init=False)
    codec_adapt: dict[str, CodecAdaptRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tiers = [TierTelemetry() for _ in self.rungs]

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _instant(self, name: str, tier: str, now: float,
                 args: dict) -> None:
        if self.bus.enabled:
            self.bus.instant(
                name, "store", f"tier:{tier}",
                now if self.charge_io else self.bus.wall(), args=args)

    def _occupancy(self, now: float, *indices: int) -> None:
        """Sample the named tiers' stored-GB levels, each once: one
        counter event per tier lane."""
        if not self.bus.enabled:
            return
        t = now if self.charge_io else self.bus.wall()
        for index in set(indices):
            tier = self.rungs[index]
            usage = tier.ledger.usage
            self.bus.counter(f"{tier.name} GB", f"tier:{tier.name}",
                             t, usage)

    # ------------------------------------------------------------------
    # what the ledger reports
    # ------------------------------------------------------------------
    def spilled(self, charge: SpillCharge, src: int | None, dst: int,
                stored: float, now: float) -> None:
        """``charge`` moved an entry from tier ``src`` into tier ``dst``
        — or placed a new one there directly (``src=None``) — where it
        occupies ``stored`` GB, encoded with the tier's current codec."""
        bypass = src is not None and dst != src + 1
        self.spill_count += 1
        if bypass:
            self.demote_bypass_count += 1
        self.spill_bytes += charge.size
        self.spill_stored_bytes += stored
        tier = self.tiers[dst]
        tier.spill_in.add(charge.size, charge.seconds)
        tier.spill_in_stored_gb += stored
        if charge.size > 0.0 and stored > 0.0:
            tier.encoded_count += 1
            tier.encoded_logical_gb += charge.size
            tier.encoded_stored_gb += stored
        if self.bus.enabled:
            self._instant(
                "spill-insert" if src is None else "demote", charge.dst,
                now, {
                    "node": charge.node_id, "src": charge.src,
                    "dst": charge.dst, "logical_gb": charge.size,
                    "stored_gb": stored,
                    "encode_s": (pricing.encode_seconds(
                        self.rungs[dst].codec, charge.size)
                        if self.charge_io else 0.0),
                    "seconds": charge.seconds, "bypass": bypass})
            self._occupancy(now, dst if src is None else src, dst)

    def promoted(self, charge: SpillCharge, src: int, now: float) -> None:
        """``charge`` moved an entry out of tier ``src`` into RAM (a
        consumer's promote or a prefetch; the caller counts which)."""
        self.tiers[src].promote.add(charge.size, charge.seconds)
        if self.bus.enabled:
            self._instant("promote", charge.src, now, {
                "node": charge.node_id, "src": charge.src,
                "logical_gb": charge.size, "seconds": charge.seconds})
            self._occupancy(now, 0, src)

    def read(self, node_id: str, entry: _Spilled, seconds: float,
             now: float) -> None:
        """One read of spilled ``entry``, charged ``seconds``."""
        self.tiers[entry.tier].read.add(entry.logical, seconds)
        if self.bus.enabled:
            self._instant("tier-read", self.rungs[entry.tier].name, now, {
                "node": node_id, "logical_gb": entry.logical,
                "decode_s": (pricing.decode_seconds(entry.codec,
                                                    entry.logical)
                             if self.charge_io else 0.0),
                "seconds": seconds})

    def prefetch_hit(self, charge: SpillCharge, hidden: float,
                     now: float) -> None:
        """A prefetch pass promoted ``charge``'s entry, hiding
        ``hidden`` seconds of read + decode + create."""
        self.prefetch_count += 1
        self.prefetch_bytes += charge.size
        if self.bus.enabled:
            self._instant("prefetch-hit", charge.src, now, {
                "node": charge.node_id, "logical_gb": charge.size,
                "hidden_s": hidden})

    def prefetch_miss(self, node_id: str, entry: _Spilled,
                      now: float) -> None:
        """Spilled ``entry`` did not fit back into RAM ahead of time."""
        self.prefetch_misses += 1
        if self.bus.enabled:
            self._instant("prefetch-miss", self.rungs[entry.tier].name,
                          now, {"node": node_id,
                                "logical_gb": entry.logical})

    def wall(self, index: int, leg: str, seconds: float,
             gb: float) -> None:
        """A real-I/O executor measured ``seconds`` of wall clock moving
        ``gb`` logical GB ``leg``-wise (``"spill_in"`` | ``"read"`` |
        ``"promote"``) against tier ``index``."""
        traffic: Traffic = getattr(self.tiers[index], leg)
        traffic.wall_seconds += seconds
        traffic.wall_gb += gb
        if self.bus.enabled:
            self.bus.instant(
                "wall-io", "store", f"tier:{self.rungs[index].name}",
                self.bus.wall(),
                args={"leg": leg, "seconds": seconds, "gb": gb})

    def arbitrated(self, stalled: bool, stall_seconds: float,
                   avoided: float, now: float) -> None:
        """One stall-vs-spill decision a backend made."""
        if stalled:
            self.stall_wins += 1
            self.stall_seconds += stall_seconds
            self.avoided_spill_seconds += avoided
        else:
            self.spill_wins += 1
        if self.bus.enabled:
            self._instant("arbitration", "ram", now, {
                "winner": "stall" if stalled else "spill",
                "stall_s": stall_seconds, "avoided_s": avoided})

    def adapted(self, tier: str, codec: CodecProfile, observed: float,
                samples: int, repriced: bool, switched: bool) -> None:
        """Log tier ``tier``'s one adaptation decision."""
        self.codec_adapt[tier] = CodecAdaptRecord(
            tier=tier, codec=codec.name, nominal_ratio=codec.ratio,
            observed_ratio=observed, samples=samples, repriced=repriced,
            switched_to=NONE_CODEC.name if switched else None,
            at_spill=self.spill_count)

    # ------------------------------------------------------------------
    # what readers get
    # ------------------------------------------------------------------
    def observed(self, index: int) -> Observed:
        """One tier's observed-cost telemetry.

        ``observed_ratio`` is ``None`` when the tier never received a
        spill, so "no data" is distinguishable from "incompressible"
        (ratio 1.0); the per-GB seconds follow :meth:`Traffic.per_gb`.
        """
        tier = self.tiers[index]
        return Observed(
            spill_in_count=tier.spill_in.count,
            spill_in_gb=tier.spill_in.gb,
            spill_in_stored_gb=tier.spill_in_stored_gb,
            spill_write_seconds_per_gb=tier.spill_in.per_gb(self.charge_io),
            read_gb=tier.read.gb,
            read_seconds_per_gb=tier.read.per_gb(self.charge_io),
            promote_gb=tier.promote.gb,
            promote_create_seconds_per_gb=tier.promote.per_gb(
                self.charge_io),
            observed_ratio=(
                tier.encoded_logical_gb / tier.encoded_stored_gb
                if tier.encoded_stored_gb > 0.0 else None))

    def report(self, logical: Sequence[float],
               tenants: dict[str, TenantRow]) -> TierReport:
        """The run's :class:`~repro.store.report.TierReport`.

        ``usage``/``peak`` are *stored* (on-tier, possibly compressed)
        GB — the unit each tier's capacity is charged in; ``logical``
        (handed in per tier by the ledger, which alone knows it) is the
        decoded GB currently resident there.  ``tenants`` is the
        per-tenant books, empty when none were registered.
        """
        encoded_stored = sum(t.encoded_stored_gb for t in self.tiers)
        return TierReport(
            policy=self.config.policy,
            promote=self.config.promote,
            codec=self.config.codec.name,
            spill_count=self.spill_count,
            demote_bypass_count=self.demote_bypass_count,
            promote_count=self.promote_count,
            spill_bytes_gb=self.spill_bytes,
            spill_stored_gb=self.spill_stored_bytes,
            promote_bytes_gb=self.promote_bytes,
            observed_codec_ratio=(
                sum(t.encoded_logical_gb for t in self.tiers)
                / encoded_stored if encoded_stored > 0.0 else None),
            arbitration=Arbitration(
                enabled=self.config.arbitrate,
                stall_wins=self.stall_wins,
                spill_wins=self.spill_wins,
                stall_seconds=self.stall_seconds,
                avoided_spill_seconds=self.avoided_spill_seconds),
            prefetch=Prefetch(
                enabled=self.config.prefetch,
                count=self.prefetch_count,
                bytes_gb=self.prefetch_bytes,
                hidden_seconds=self.prefetch_hidden_seconds,
                misses=self.prefetch_misses),
            codec_adapt=CodecAdapt(
                enabled=self.config.adapt is not None,
                tiers=dict(self.codec_adapt)),
            tiers=tuple(TierRow(
                name=tier.name,
                budget=tier.ledger.budget,
                usage=tier.ledger.usage,
                peak=tier.ledger.peak_usage,
                # the tier's own residents (resident() on the RAM rung
                # spans the whole hierarchy)
                resident=len(tier.ledger._entries),
                codec=tier.codec.name,
                codec_ratio=tier.codec.ratio,
                priced_ratio=tier.priced_ratio,
                logical=logical[index],
                observed=self.observed(index),
            ) for index, tier in enumerate(self.rungs)),
            tenants=tenants)
