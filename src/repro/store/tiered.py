"""The tiered store: a MemoryLedger facade over RAM + spill tiers.

:class:`TieredLedger` subclasses :class:`~repro.exec.ledger.MemoryLedger`
so its *inherited* state is tier 0 (RAM): ``usage`` / ``peak_usage`` /
``fits`` / reservations keep their RAM-only meaning and every existing
budget invariant ("flagged residency never exceeds the budget") holds
unchanged.  Below it sit :class:`StorageTier` rungs, each with its own
ledger and simulated device.  Entries move between tiers with the
ledger's ``detach``/``adopt`` migration primitive, so an entry keeps its
consumer count and materialization hold wherever it lives, and the
release protocol (``consumer_done`` / ``materialized`` /
``force_release`` / ``in``) routes transparently to the holding tier.

Demotions cascade: spilling into a full middle tier first spills that
tier's own victims further down, so a hierarchy like RAM → small SSD →
unbounded disk behaves like a proper inclusive cache hierarchy.

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
* **Observed-cost telemetry + codec adaptation** — the ledger records
  per-tier observed migration seconds per GB and realized codec ratios
  (``tier_report()["tiers"][i]["observed"]``), feeding the planner's
  :class:`~repro.feedback.CostFeedback` loop; with
  ``SpillConfig.adapt`` armed it additionally samples the first K
  spills per tier and *re-prices* (or drops) a codec whose measured
  ratio diverges from its preset
  (``tier_report()["codec_adapt"]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.engine.storage import StorageDevice
from repro.errors import BudgetExceededError, CatalogError
from repro.exec.ledger import MemoryLedger
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import EventBus, resolve_bus
from repro.obs.metrics import MetricsRegistry
from repro.store.config import NONE_CODEC, CodecProfile, SpillConfig, TierSpec
from repro.store.policy import VictimInfo, create_policy
from repro.store.victim_index import VictimIndex


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


@dataclass
class _TierTelemetry:
    """Observed migration/read traffic of one tier (simulated seconds).

    ``spill_in_*`` counts entries encoded *into* this tier (demotions
    and direct placements, with the full migration charge attributed to
    the destination); ``read_*`` counts charged reads of entries
    resident here (device + decode); ``promote_*`` counts entries
    promoted *out* of this tier back into RAM (the in-memory create).
    """

    spill_in_count: int = 0
    spill_in_logical_gb: float = 0.0
    spill_in_stored_gb: float = 0.0
    spill_in_seconds: float = 0.0
    # only dumps that actually wrote bytes carry ratio information —
    # durable MiniDB victims charge 0 stored GB and would skew it
    encoded_logical_gb: float = 0.0
    encoded_stored_gb: float = 0.0
    read_count: int = 0
    read_logical_gb: float = 0.0
    read_seconds: float = 0.0
    promote_count: int = 0
    promote_logical_gb: float = 0.0
    promote_seconds: float = 0.0
    # measured wall clocks recorded by real-I/O executors
    # (charge_io=False runs, via TieredLedger.record_wall_seconds) —
    # kept apart from the simulated accumulators above so neither
    # pollutes the other's per-GB averages
    wall_spill_seconds: float = 0.0
    wall_spill_gb: float = 0.0
    wall_read_seconds: float = 0.0
    wall_read_gb: float = 0.0
    wall_promote_seconds: float = 0.0
    wall_promote_gb: float = 0.0


@dataclass
class _TenantAccount:
    """Per-tenant RAM accounting (the serve layer's budget shares).

    ``budget`` is the tenant's slice of the RAM budget in GB (shares
    partition tier 0 only — spill tiers are shared); ``usage``/``peak``
    track the committed RAM bytes of entries the tenant owns.
    """

    budget: float
    usage: float = 0.0
    peak: float = 0.0


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
    """One rung of the hierarchy: spec, its ledger, its device clock.

    ``device`` is ``None`` for the RAM rung and for real-I/O runs (the
    MiniDB backend measures wall clocks instead of charging a model).
    """

    spec: TierSpec
    ledger: MemoryLedger
    device: StorageDevice | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    def read_seconds(self, size: float, now: float) -> float:
        if self.device is None:
            return 0.0
        return self.device.read_duration(size, now)

    def write_seconds(self, size: float, now: float) -> float:
        if self.device is None:
            return 0.0
        return self.device.write_duration(size, now)


class _MetricAttr:
    """Data descriptor exposing one :class:`MetricsRegistry` counter as
    a plain numeric instance attribute.

    The ledger's historical tallies (``spill_count``, ``promote_bytes``,
    ...) keep their attribute API — every ``+=`` site, ``tier_report()``
    field, and external reader is untouched — while the registry becomes
    the single backing store the observability layer snapshots.  The
    counter keeps whatever numeric type is assigned (int stays int), so
    registry-backed reports serialize bit-identically to the
    plain-attribute ancestors."""

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.metrics.counter(self.key).value

    def __set__(self, obj, value) -> None:
        obj.metrics.counter(self.key).value = value


class TieredLedger(MemoryLedger):
    """Budget accountant for a RAM + spill-tier hierarchy.

    Drop-in for a plain :class:`MemoryLedger`: backends that never call
    the tier methods see identical behavior (inserts that don't fit
    still raise).  Backends that opt into spilling use:

    * :meth:`spill_insert` — admit a new entry, demoting victims (or
      placing the entry itself in a lower tier when it is bigger than
      RAM);
    * :meth:`try_make_room` — free RAM ahead of a reservation;
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
      transfer on the demote leg and decode on the reload leg;
    * :meth:`pick_victim` / :meth:`demote` — the two-step protocol for
      executors doing *real* I/O, which move bytes themselves and then
      record the accounting move (``charge_io=False`` keeps every
      simulated charge at zero).

    All mutations run under the inherited re-entrant lock, so the same
    thread-safety guarantees concurrent schedulers rely on carry over.
    """

    # run counters, backed by the ledger's private MetricsRegistry (see
    # _MetricAttr); initialized to typed zeros in __init__ exactly as
    # the plain attributes they replaced
    spill_count = _MetricAttr("store.spill.count")
    promote_count = _MetricAttr("store.promote.count")
    spill_bytes = _MetricAttr("store.spill.logical_gb")
    promote_bytes = _MetricAttr("store.promote.logical_gb")
    spill_stored_bytes = _MetricAttr("store.spill.stored_gb")
    demote_bypass_count = _MetricAttr("store.demote.bypass_count")
    prefetch_count = _MetricAttr("store.prefetch.count")
    prefetch_bytes = _MetricAttr("store.prefetch.logical_gb")
    prefetch_hidden_seconds = _MetricAttr("store.prefetch.hidden_seconds")
    prefetch_misses = _MetricAttr("store.prefetch.misses")
    stall_wins = _MetricAttr("store.arbitration.stall_wins")
    spill_wins = _MetricAttr("store.arbitration.spill_wins")
    stall_seconds = _MetricAttr("store.arbitration.stall_seconds")
    avoided_spill_seconds = _MetricAttr(
        "store.arbitration.avoided_spill_seconds")

    def __init__(self, budget: float, config: SpillConfig | None = None,
                 profile: DeviceProfile | None = None,
                 charge_io: bool = True,
                 bus: EventBus | None = None) -> None:
        super().__init__(budget=budget)
        # the registry must exist before the first _MetricAttr write;
        # it is private to this ledger (a --replan second pass builds a
        # fresh ledger and therefore fresh counts) and gets merged into
        # the run-level bus registry by the backend at finish
        self.metrics = MetricsRegistry()
        self.bus = resolve_bus(bus)
        self.config = config or SpillConfig()
        self.policy = create_policy(self.config.policy)
        self.profile = profile or DeviceProfile()
        self.charge_io = charge_io
        self.tiers: list[StorageTier] = [
            StorageTier(TierSpec("ram", budget), ledger=self)]
        # RAM keeps tables decoded; each lower tier resolves its codec
        # (per-tier override, else the config default)
        self._codecs: list[CodecProfile] = [NONE_CODEC]
        for spec in self.config.tiers:
            device = (StorageDevice(profile=spec.resolved_profile())
                      if charge_io else None)
            self.tiers.append(
                StorageTier(spec, MemoryLedger(budget=spec.budget), device))
            self._codecs.append(spec.resolved_codec(self.config.codec))
        self._lower_location: dict[str, int] = {}
        # logical (decoded) GB of entries in lower tiers; their tier
        # ledgers are charged the stored (compressed) size instead
        self._logical: dict[str, float] = {}
        # codec each lower-tier entry's bytes were actually encoded
        # with (decode on read-back is priced per entry, so a mid-run
        # codec switch never mis-prices already-stored files)
        self._entry_codec: dict[str, CodecProfile] = {}
        # per-node compressibility multipliers (see set_compressibility)
        self._compressibility: dict[str, float] = {}
        # the ratio the *cost model* (arbitration, victim ranking,
        # estimates) prices each tier at; starts at the codec preset and
        # moves to the observed ratio when adaptation re-prices a tier
        self._priced_ratio: list[float] = [c.ratio for c in self._codecs]
        # observed migration/read traffic per tier (feedback telemetry)
        self._telemetry: list[_TierTelemetry] = [
            _TierTelemetry() for _ in self.tiers]
        # mid-run codec adaptation state (SpillConfig.adapt)
        self._adapt_logical: list[float] = [0.0] * len(self.tiers)
        self._adapt_stored: list[float] = [0.0] * len(self.tiers)
        self._adapt_samples: list[int] = [0] * len(self.tiers)
        self._adapted: set[int] = set()
        self.codec_adapt: dict[str, dict] = {}
        self._recency: dict[str, int] = {}
        self._tick = 0
        # every tier's policy ranking, synced lazily: mutations below
        # only mark the entries they touch (see repro.store.victim_index)
        self._victim_index = VictimIndex(self.policy, len(self.tiers),
                                         self._victim_info)
        self.spill_count = 0
        self.promote_count = 0
        self.spill_bytes = 0.0
        self.promote_bytes = 0.0
        self.spill_stored_bytes = 0.0
        # demotions that skipped a full transfer-free rung because the
        # displaced cascade would have cost more than going direct
        self.demote_bypass_count = 0
        # promote-ahead prefetching outcomes (see prefetch)
        self.prefetch_count = 0
        self.prefetch_bytes = 0.0
        self.prefetch_hidden_seconds = 0.0
        self.prefetch_misses = 0
        # entries already counted as a miss, so the retried passes the
        # backends run before every node don't re-count one stuck
        # parent; cleared when the entry moves or leaves
        self._prefetch_missed: set[str] = set()
        # stall-vs-spill arbitration outcomes (see record_arbitration)
        self.stall_wins = 0
        self.spill_wins = 0
        self.stall_seconds = 0.0
        self.avoided_spill_seconds = 0.0
        # per-tenant RAM accounting (multi-tenant serving, repro.serve):
        # tenant budget shares partition tier 0 only; both maps stay
        # empty for single-tenant runs, keeping their tier_report()
        # bit-identical to the pre-tenant goldens
        self._tenant_accounts: dict[str, _TenantAccount] = {}
        self._owners: dict[str, str] = {}

    # ------------------------------------------------------------------
    # observability (every site guarded by bus.enabled — off by default)
    # ------------------------------------------------------------------
    def _event_time(self, now: float) -> float:
        """Logical-clock coordinate of a store event: the simulated
        timeline for charged runs, the bus wall clock for real-I/O
        ledgers (``charge_io=False``), where wall time *is* the run's
        logical time."""
        return now if self.charge_io else self.bus.wall()

    def _emit_occupancy(self, t: float, *indices: int) -> None:  # lint: locked
        """Sample the named tiers' stored-GB levels: a gauge per tier in
        the metrics registry plus a Chrome counter event per tier lane.
        Callers pass the tiers a migration touched (caller holds the
        lock); the bus guard lives here so call sites stay REP004-safe
        even if a future caller forgets to check ``bus.enabled``."""
        if not self.bus.enabled:
            return
        for index in set(indices):
            tier = self.tiers[index]
            usage = tier.ledger.usage
            self.metrics.gauge(f"tier.{tier.name}.usage_gb").set(usage)
            self.bus.counter(f"{tier.name} GB", f"tier:{tier.name}",
                             t, usage)

    # ------------------------------------------------------------------
    # routing: an entry lives in exactly one tier
    # ------------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._entries or node_id in self._lower_location

    def tier_of(self, node_id: str) -> int | None:
        """Index of the tier holding ``node_id`` (0 = RAM), or None."""
        with self._lock:
            if node_id in self._entries:
                return 0
            return self._lower_location.get(node_id)

    def tier_name(self, index: int) -> str:
        return self.tiers[index].name

    def resident(self) -> list[str]:
        with self._lock:
            return list(self._entries) + list(self._lower_location)

    def size_of(self, node_id: str) -> float:
        """Logical (decoded) GB of a resident entry, wherever it lives.

        Consumers and RAM admission always deal in logical bytes; the
        stored (possibly compressed) on-tier size is
        :meth:`stored_size_of`.
        """
        with self._lock:
            idx, tier = self._holding(node_id)
            if idx == 0:
                return super().size_of(node_id)
            return self._logical.get(node_id, tier.ledger.size_of(node_id))

    def stored_size_of(self, node_id: str) -> float:
        """On-tier GB the entry occupies (compressed below RAM)."""
        with self._lock:
            idx, tier = self._holding(node_id)
            if idx == 0:
                return super().size_of(node_id)
            return tier.ledger.size_of(node_id)

    def consumers_left(self, node_id: str) -> int:
        with self._lock:
            idx, tier = self._holding(node_id)
            if idx == 0:
                return super().consumers_left(node_id)
            return tier.ledger.consumers_left(node_id)

    def consumer_done(self, node_id: str) -> bool:
        with self._lock:
            idx, tier = self._holding(node_id)
            if idx == 0:
                released = super().consumer_done(node_id)
            else:
                released = tier.ledger.consumer_done(node_id)
            if released:
                self._forget(idx, node_id)
            else:
                self._victim_index.mark(idx, node_id)
            return released

    def materialized(self, node_id: str) -> bool:
        with self._lock:
            idx, tier = self._holding(node_id)
            if idx == 0:
                released = super().materialized(node_id)
            else:
                released = tier.ledger.materialized(node_id)
            if released:
                self._forget(idx, node_id)
            return released

    def force_release(self, node_id: str) -> None:
        with self._lock:
            idx, tier = self._holding(node_id)
            if idx == 0:
                size = self._entries[node_id].size
                super().force_release(node_id)
                self._tenant_credit(node_id, size)
            else:
                tier.ledger.force_release(node_id)
            self._forget(idx, node_id)

    def _holding(self, node_id: str) -> tuple[int, StorageTier]:
        if node_id in self._entries:
            return 0, self.tiers[0]
        idx = self._lower_location.get(node_id)
        if idx is None:
            raise CatalogError(f"table {node_id!r} not in any tier")
        return idx, self.tiers[idx]

    def _forget(self, index: int, node_id: str) -> None:  # lint: locked
        """Drop every side table's record of an entry released out of
        tier ``index``."""
        self._victim_index.discard(index, node_id)
        self._lower_location.pop(node_id, None)
        self._logical.pop(node_id, None)
        self._entry_codec.pop(node_id, None)
        self._recency.pop(node_id, None)
        self._prefetch_missed.discard(node_id)
        self._owners.pop(node_id, None)

    # ------------------------------------------------------------------
    # codec accounting
    # ------------------------------------------------------------------
    def _codec(self, index: int) -> CodecProfile:
        """The codec governing tier ``index`` (RAM never encodes).

        This is the tier's *current algorithm*: mid-run adaptation may
        have switched it away from the configured preset.
        """
        return self._codecs[index]

    def current_codec(self, index: int) -> CodecProfile:
        """Public view of a tier's current codec (adaptation-aware)."""
        with self._lock:
            return self._codecs[index]

    def priced_ratio(self, index: int) -> float:
        """The ratio the cost model prices tier ``index`` at.

        Equals the codec preset's ratio until mid-run adaptation
        re-prices the tier to its observed ratio.
        """
        with self._lock:
            return self._priced_ratio[index]

    def set_compressibility(self, mapping: Mapping[str, float]) -> None:
        """Install per-node compressibility multipliers.

        ``mapping[node] = m`` scales the codec's nominal ratio headroom
        for that node's table: the realized stored ratio is
        ``max(1, 1 + (ratio - 1) * m)``, so ``m=1`` reproduces the
        preset, ``m=0`` stores incompressible bytes raw-sized, and
        ``m=2`` compresses twice as well.  Unknown nodes default to 1.
        """
        with self._lock:
            for node_id, mult in mapping.items():
                if mult < 0:
                    raise CatalogError(
                        f"compressibility of {node_id!r} must be >= 0")
            self._compressibility = dict(mapping)
            self._victim_index.mark_all()  # every realized ratio moved

    def _entry_ratio(self, index: int, node_id: str) -> float:
        """Realized stored ratio of ``node_id`` encoded into ``index``.

        The one ratio every sizing and pricing site uses, so actual
        demotion charges and arbitration/victim estimates can never
        diverge: the entry's own compressibility multiplier when known,
        otherwise the tier's priced ratio — the codec preset until
        mid-run adaptation re-prices it to the observed ratio.
        """
        ratio = self._codec(index).ratio
        if ratio <= 1.0:
            return 1.0
        mult = self._compressibility.get(node_id)
        if mult is None:
            return self._priced_ratio[index]
        return max(1.0, 1.0 + (ratio - 1.0) * mult)

    def _logical_size(self, index: int, node_id: str) -> float:
        """Logical GB of an entry resident in tier ``index``."""
        if index == 0:
            return self.tiers[0].ledger.size_of(node_id)
        return self._logical.get(
            node_id, self.tiers[index].ledger.size_of(node_id))

    def _encode_seconds(self, index: int, logical: float) -> float:
        """CPU seconds to compress ``logical`` GB into tier ``index``."""
        if not self.charge_io:
            return 0.0
        return self._codec(index).encode_seconds_per_gb * logical

    def _entry_decode_seconds(self, node_id: str, logical: float) -> float:
        """CPU seconds to decompress an entry's stored bytes.

        Priced with the codec the entry was *actually encoded with*, so
        a mid-run codec switch never mis-charges files written earlier.
        """
        if not self.charge_io:
            return 0.0
        codec = self._entry_codec.get(node_id, NONE_CODEC)
        return codec.decode_seconds_per_gb * logical

    def _record_spill_in(self, index: int, node_id: str, logical: float,  # lint: locked
                         stored: float, seconds: float) -> None:
        """Book one entry's arrival in tier ``index``: its encoding
        codec, the tier's spill-in telemetry, and (when armed) the
        adaptation sample — the single bookkeeping rule shared by
        demotions and direct placements."""
        self._entry_codec[node_id] = self._codec(index)
        telemetry = self._telemetry[index]
        telemetry.spill_in_count += 1
        telemetry.spill_in_logical_gb += logical
        telemetry.spill_in_stored_gb += stored
        telemetry.spill_in_seconds += seconds
        if logical > 0.0 and stored > 0.0:
            telemetry.encoded_logical_gb += logical
            telemetry.encoded_stored_gb += stored
        self._record_spill_sample(index, logical, stored)

    # ------------------------------------------------------------------
    # mid-run codec adaptation (SpillConfig.adapt)
    # ------------------------------------------------------------------
    def _record_spill_sample(self, index: int, logical: float,  # lint: locked
                             stored: float) -> None:
        """Accumulate one realized (logical, stored) spill measurement
        toward the tier's adaptation decision (:meth:`_maybe_adapt`).

        Only active while ``SpillConfig.adapt`` is armed, the tier has
        not decided yet, and its codec still compresses.  Zero-byte
        dumps (durable victims in the MiniDB backend, empty tables)
        carry no ratio information and are skipped.
        """
        if logical <= 0.0 or stored <= 0.0:
            return
        if self.config.adapt is None or index in self._adapted:
            return
        if self._codec(index).ratio <= 1.0:
            return  # nothing to adapt: the tier already stores raw
        self._adapt_logical[index] += logical
        self._adapt_stored[index] += stored
        self._adapt_samples[index] += 1
        if self._adapt_samples[index] >= self.config.adapt.samples:
            self._maybe_adapt(index)

    def _maybe_adapt(self, index: int) -> None:  # lint: locked
        """Decide once, per tier, after K measured spills.

        When the observed ratio diverges from the codec preset past the
        configured threshold the tier is *re-priced*: the cost model
        (arbitration estimates, victim ranking, planner feedback) moves
        to the observed ratio.  When the observed saving no longer
        covers the codec's encode+decode tax — one device round trip of
        the bytes the codec actually removes versus its CPU stages —
        the tier additionally *switches* its codec off, storing future
        spills raw.  The decision is logged in
        ``tier_report()["codec_adapt"]``.
        """
        self._adapted.add(index)
        adapt = self.config.adapt
        algo = self._codec(index)
        observed = self._adapt_logical[index] / self._adapt_stored[index]
        record = {
            "tier": self.tiers[index].name,
            "codec": algo.name,
            "nominal_ratio": algo.ratio,
            "observed_ratio": observed,
            "samples": self._adapt_samples[index],
            "repriced": False,
            "switched_to": None,
            "at_spill": self.spill_count,
        }
        diverged = (abs(observed - algo.ratio) / algo.ratio
                    > adapt.threshold)
        if diverged:
            record["repriced"] = True
            self._priced_ratio[index] = observed
            self._victim_index.mark_all()  # reload costs are re-priced
            device = self.tiers[index].spec.resolved_profile()
            round_trip = (1.0 / device.effective_write_bandwidth
                          + 1.0 / device.effective_read_bandwidth)
            if round_trip <= 0.0 and observed > 1.0:
                # transfer-free rung (ram-compressed): its own device
                # legs cost nothing, but every byte the codec removes is
                # a byte that never cascades to the device below — price
                # the saving at the *next* tier's round trip, or keep
                # the codec unconditionally when nothing sits below
                # (compression is then pure RAM capacity).
                if index + 1 < len(self.tiers):
                    nxt = self.tiers[index + 1].spec.resolved_profile()
                    round_trip = (1.0 / nxt.effective_write_bandwidth
                                  + 1.0 / nxt.effective_read_bandwidth)
                else:
                    round_trip = math.inf
            # clamp: observed <= 1 means the codec *grew* the bytes, so
            # the saving is zero, never negative (and never inf * 0)
            headroom = max(0.0, 1.0 - 1.0 / observed)
            saving = round_trip * headroom if headroom > 0.0 else 0.0
            tax = (algo.encode_seconds_per_gb
                   + algo.decode_seconds_per_gb)
            if adapt.allow_switch and tax >= saving:
                self._codecs[index] = NONE_CODEC
                self._priced_ratio[index] = 1.0
                record["switched_to"] = NONE_CODEC.name
        self.codec_adapt[self.tiers[index].name] = record

    # ------------------------------------------------------------------
    # recency (for the LRU policy; logical, not wall-clock)
    # ------------------------------------------------------------------
    def _commit_entry(self, node_id: str, size: float, n_consumers: int,  # lint: locked
                      materialization_pending: bool) -> None:
        super()._commit_entry(node_id, size, n_consumers,
                              materialization_pending)
        self._touch(0, node_id)
        # every path committing RAM bytes (insert / try_insert /
        # commit_reservation / adopt-on-promote) lands here, so this is
        # the single tenant charge point for tier 0
        self._tenant_charge(node_id, size)

    def _touch(self, index: int, node_id: str) -> None:  # lint: locked
        """Stamp an access of ``node_id``, resident in tier ``index``,
        and mark it for a re-rank (its recency moved; a new arrival is
        stamped too, which is what first enters it in the ranking)."""
        self._tick += 1
        self._recency[node_id] = self._tick
        self._victim_index.mark(index, node_id)

    def note_read(self, node_id: str) -> None:
        """Record an access for recency-based victim ranking."""
        with self._lock:
            index = (0 if node_id in self._entries
                     else self._lower_location.get(node_id))
            if index is not None:
                self._touch(index, node_id)

    # ------------------------------------------------------------------
    # per-tenant RAM accounting (multi-tenant serving; see repro.serve)
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, budget: float) -> None:
        """Register (or re-budget) a tenant's RAM share.

        ``budget`` is the tenant's slice of the RAM budget in GB —
        shares partition tier 0 only, spill tiers stay shared.  The
        serve layer enforces the share at admission time; the ledger
        itself only accounts, so a single over-share admission (e.g. a
        node bigger than its tenant's slice) degrades to shared-RAM
        pressure instead of deadlocking the request.
        """
        if not name:
            raise CatalogError("tenant name must be non-empty")
        if budget < 0:
            raise CatalogError(f"tenant {name!r} budget must be >= 0")
        with self._lock:
            account = self._tenant_accounts.get(name)
            if account is None:
                self._tenant_accounts[name] = _TenantAccount(budget=budget)
            else:
                account.budget = budget

    def set_owner(self, node_id: str, tenant: str) -> None:
        """Attribute ``node_id``'s RAM residency to ``tenant``.

        May be called before the entry exists (the serve layer tags a
        request's node keys ahead of admission); if the entry is already
        RAM-resident its bytes move between tenant accounts atomically.
        The mapping persists across demotions/promotions and clears when
        the entry fully leaves the hierarchy.
        """
        with self._lock:
            if tenant not in self._tenant_accounts:
                raise CatalogError(
                    f"unknown tenant {tenant!r}; register_tenant first")
            previous = self._owners.get(node_id)
            if previous == tenant:
                return
            resident_size = (self._entries[node_id].size
                             if node_id in self._entries else None)
            if resident_size is not None and previous is not None:
                self._tenant_credit(node_id, resident_size)
            self._owners[node_id] = tenant
            if resident_size is not None:
                self._tenant_charge(node_id, resident_size)

    def owner_of(self, node_id: str) -> str | None:
        """The tenant owning ``node_id``, or None when untagged."""
        with self._lock:
            return self._owners.get(node_id)

    def tenant_names(self) -> list[str]:
        with self._lock:
            return list(self._tenant_accounts)

    def tenant_usage(self, name: str) -> float:
        """Committed RAM bytes of entries ``name`` owns."""
        with self._lock:
            return self._tenant_account(name).usage

    def tenant_available(self, name: str) -> float:
        """Bytes left in the tenant's RAM share (budget − usage)."""
        with self._lock:
            account = self._tenant_account(name)
            return account.budget - account.usage

    def _tenant_account(self, name: str) -> _TenantAccount:  # lint: locked
        account = self._tenant_accounts.get(name)
        if account is None:
            raise CatalogError(f"unknown tenant {name!r}")
        return account

    def _tenant_charge(self, node_id: str, size: float) -> None:  # lint: locked
        tenant = self._owners.get(node_id)
        if tenant is None:
            return
        account = self._tenant_accounts[tenant]
        account.usage += size
        account.peak = max(account.peak, account.usage)

    def _tenant_credit(self, node_id: str, size: float) -> None:  # lint: locked
        tenant = self._owners.get(node_id)
        if tenant is None:
            return
        self._tenant_accounts[tenant].usage -= size

    def _tenant_report(self) -> dict:  # lint: locked
        """Per-tenant accounting block for ``tier_report()["tenants"]``."""
        resident: dict[str, int] = {}
        for node_id in self._entries:
            tenant = self._owners.get(node_id)
            if tenant is not None:
                resident[tenant] = resident.get(tenant, 0) + 1
        return {name: {
            "budget": account.budget,
            "usage": account.usage,
            "peak": account.peak,
            "resident": resident.get(name, 0),
        } for name, account in self._tenant_accounts.items()}

    # RAM commit/release hooks keeping tenant balances in lockstep with
    # tier-0 usage.  Only tier 0 is hooked: lower-tier ledgers are plain
    # MemoryLedger objects and tenant shares partition RAM only.
    # Reservations are deliberately not tenant-charged — they convert to
    # committed bytes (and a tenant charge) at commit_reservation time,
    # mirroring how usage/peak treat them.  The charge side lives in the
    # recency-tracking _commit_entry override above.
    def detach(self, node_id: str) -> tuple[float, int, bool]:
        with self._lock:
            size, consumers, pending = super().detach(node_id)
            self._victim_index.discard(0, node_id)
            self._tenant_credit(node_id, size)
            return size, consumers, pending

    def _maybe_release(self, node_id: str) -> bool:  # lint: locked
        size = self._entries[node_id].size
        released = super()._maybe_release(node_id)
        if released:
            self._tenant_credit(node_id, size)
        return released

    # ------------------------------------------------------------------
    # spill / promote
    # ------------------------------------------------------------------
    def _victim_info(self, index: int,  # lint: locked
                     node_id: str) -> VictimInfo | None:
        """What the spill policy sees of ``node_id``, resident in tier
        ``index``; None when nothing sits below to demote into.

        ``size`` is the entry's footprint *in this tier* (what a
        demotion frees here); ``reload_cost`` is decode-aware — the
        device read of the compressed bytes in the destination tier plus
        the decode of the logical bytes.  Whatever this reads —
        consumer count, recency, realized ratio, the tier's codec —
        must mark the entry in the victim index when it changes.
        """
        if index + 1 >= len(self.tiers):
            return None
        entry = self.tiers[index].ledger._require(node_id)
        logical = (self._logical.get(node_id, entry.size) if index
                   else entry.size)
        stored_dst = logical / self._entry_ratio(index + 1, node_id)
        dst_profile = self.tiers[index + 1].spec.resolved_profile()
        return VictimInfo(
            node_id=node_id,
            size=entry.size,
            consumers_left=entry.consumers_left,
            last_access=self._recency.get(node_id, 0),
            reload_cost=(dst_profile.read_time_disk(stored_dst)
                         + self._codec(index + 1).decode_seconds_per_gb
                         * logical))

    def _make_room(self, index: int, size: float,  # lint: locked
                   now: float) -> tuple[bool, list[SpillCharge]]:
        """Demote tier ``index`` victims until ``size`` fits there.

        Returns ``(ok, charges)``; when ``ok`` is False the space cannot
        be freed (the request exceeds the tier's admissible capacity or
        no further victims exist).
        """
        tier = self.tiers[index]
        if size > tier.ledger.available + tier.ledger.usage:
            return False, []  # bigger than the tier can ever admit
        charges: list[SpillCharge] = []
        while not tier.ledger.fits(size):
            demoted = None
            for victim in self._victim_index.ranked(index):
                # best victim first, but a lower-ranked one that *can*
                # move beats giving up (the top pick may itself be too
                # big for everything below)
                demoted = self._demote_locked(victim.node_id, now)
                if demoted is not None:
                    break
            if demoted is None:
                return False, charges
            charges.extend(demoted)
        return True, charges

    def _demote_destination(self, idx: int, node_id: str,
                            logical: float, now: float) -> int:
        """Destination tier for a demotion out of tier ``idx``.

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
            dst = self.tiers[dst_idx]
            if (dst.write_seconds(1.0, now) > 0.0
                    or dst.read_seconds(1.0, now) > 0.0):
                break  # a real device, not a rung
            stored_dst = logical / self._entry_ratio(dst_idx, node_id)
            free = dst.ledger.available
            if stored_dst <= free:
                break  # fits without displacement: the rung pays off
            below = self.tiers[dst_idx + 1]
            codec = self._codec(dst_idx)
            displaced = (stored_dst - free) * self._priced_ratio[dst_idx]
            below_stored = displaced / self._priced_ratio[dst_idx + 1]
            route = (self._encode_seconds(dst_idx, logical)
                     + codec.decode_seconds_per_gb * displaced
                     + below.write_seconds(below_stored, now)
                     + self._encode_seconds(dst_idx + 1, displaced))
            direct_stored = logical / self._entry_ratio(dst_idx + 1,
                                                        node_id)
            direct = (below.write_seconds(direct_stored, now)
                      + self._encode_seconds(dst_idx + 1, logical))
            if route <= direct:
                break  # the displacement is still cheaper than a write
            dst_idx += 1
        return dst_idx

    def _demote_locked(self, node_id: str, now: float,  # lint: locked
                       stored_override: float | None = None,
                       ) -> list[SpillCharge] | None:
        """Move one entry down the hierarchy, cascading; None when
        impossible.

        The destination is normally the next tier (see
        :meth:`_demote_destination` for the full-rung bypass) and is
        charged the entry's *stored* size — logical bytes shrunk by the
        destination codec's ratio, or ``stored_override`` when a
        real-I/O executor measured the actual on-disk bytes (real
        executors move bytes themselves, so their demotes always go
        exactly one tier down).  The charge prices the source read
        (plus decode when the source tier is compressed), the encode
        into the destination codec, and the device write of the
        compressed bytes.
        """
        idx, src = self._holding(node_id)
        if idx + 1 >= len(self.tiers):
            return None
        dst_idx = idx + 1
        if stored_override is None and self.charge_io:
            dst_idx = self._demote_destination(idx, node_id,
                                               self._logical_size(
                                                   idx, node_id), now)
        stored_src = src.ledger.size_of(node_id)
        logical = self._logical_size(idx, node_id)
        stored_dst = (stored_override if stored_override is not None
                      else logical / self._entry_ratio(dst_idx, node_id))
        ok, charges = self._make_room(dst_idx, stored_dst, now)
        if not ok and dst_idx != idx + 1:
            # the bypass target cannot host it; fall back one tier down
            dst_idx = idx + 1
            stored_dst = logical / self._entry_ratio(dst_idx, node_id)
            ok, charges = self._make_room(dst_idx, stored_dst, now)
        if not ok:
            return None
        dst = self.tiers[dst_idx]
        _, consumers, pending = src.ledger.detach(node_id)
        dst.ledger.adopt(node_id, stored_dst, consumers, pending)
        self._victim_index.discard(idx, node_id)
        self._victim_index.mark(dst_idx, node_id)
        self._lower_location[node_id] = dst_idx
        self._logical[node_id] = logical
        self._prefetch_missed.discard(node_id)  # new residency episode
        self.spill_count += 1
        if dst_idx != idx + 1:
            self.demote_bypass_count += 1
        self.spill_bytes += logical
        self.spill_stored_bytes += stored_dst
        seconds = (src.read_seconds(stored_src, now)
                   + dst.write_seconds(stored_dst, now)
                   + self._encode_seconds(dst_idx, logical))
        if idx > 0:
            seconds += self._entry_decode_seconds(node_id, logical)
        self._record_spill_in(dst_idx, node_id, logical, stored_dst,
                              seconds)
        if self.bus.enabled:
            t = self._event_time(now)
            self.bus.instant(
                "demote", "store", f"tier:{dst.name}", t,
                args={"node": node_id, "src": src.name, "dst": dst.name,
                      "logical_gb": logical, "stored_gb": stored_dst,
                      "encode_s": self._encode_seconds(dst_idx, logical),
                      "seconds": seconds,
                      "bypass": dst_idx != idx + 1})
            if dst_idx != idx + 1:
                self.bus.instant(
                    "bypass", "store", f"tier:{dst.name}", t,
                    args={"node": node_id,
                          "skipped": self.tiers[idx + 1].name})
            self._emit_occupancy(t, idx, dst_idx)
        charges.append(SpillCharge(
            node_id=node_id, src=src.name, dst=dst.name, size=logical,
            seconds=seconds))
        return charges

    def demote(self, node_id: str, now: float = 0.0,
               stored_size: float | None = None) -> list[SpillCharge]:
        """Spill one entry a tier down (public; raises when impossible).

        Args:
            node_id: the entry to demote.
            now: current timeline position (simulated runs).
            stored_size: measured on-tier GB for executors doing *real*
                I/O — the destination tier's capacity is charged this
                many bytes instead of the codec-ratio estimate.
        """
        with self._lock:
            charges = self._demote_locked(node_id, now,
                                          stored_override=stored_size)
            if charges is None:
                idx, src = self._holding(node_id)
                raise BudgetExceededError(
                    f"cannot demote {node_id!r} below tier {src.name!r}",
                    requested=src.ledger.size_of(node_id), available=0.0)
            return charges

    def try_make_room(self, size: float,
                      now: float = 0.0) -> tuple[bool, list[SpillCharge]]:
        """Free RAM for ``size`` bytes by demoting victims."""
        with self._lock:
            return self._make_room(0, size, now)

    def pick_victim(self, exclude: frozenset = frozenset(),
                    tier: int = 0) -> str | None:
        """Best demotion victim in ``tier`` under the policy (default:
        RAM).  Real-I/O executors move the bytes themselves, then record
        the move with :meth:`demote`; a backend running a compressed
        in-RAM rung also asks for rung victims (``tier=1``) so it can
        cascade their blobs to the device below before demoting into a
        full rung.  Entries named in ``exclude`` are never offered.

        The selection is only valid while the caller holds the entry
        (single-threaded real-I/O executors, which physically move the
        bytes between the two calls).  Concurrent admitters must use
        :meth:`demote_victim` instead: a pick_victim → demote pair spans
        two lock acquisitions, so two racing admitters can select the
        same victim and the loser's demote raises (or, worse, demotes a
        second entry nobody chose).
        """
        with self._lock:
            for victim in self._victim_index.ranked(tier):
                if victim.node_id not in exclude:
                    return victim.node_id
            return None

    def demote_victim(self, exclude: frozenset = frozenset(),
                      now: float = 0.0, owner: str | None = None,
                      ) -> tuple[str, list[SpillCharge]] | None:
        """Atomically select the best RAM victim *and* demote it.

        The select-and-demote pair runs under one ledger-lock
        acquisition, closing the double-demote race that
        :meth:`pick_victim` + :meth:`demote` leave open to concurrent
        admitters (two requests picking the same victim).  When
        ``owner`` is given only entries owned by that tenant are
        considered — the serve layer uses this to shed a tenant's own
        bytes when it exceeds its RAM share, without touching other
        tenants' residency.  Falls down the policy ranking past victims
        that cannot move (e.g. too big for every lower tier), mirroring
        :meth:`_make_room`.

        Returns ``(victim_id, charges)`` or ``None`` when no eligible
        victim can be demoted.
        """
        with self._lock:
            for victim in self._victim_index.ranked(0):
                if victim.node_id in exclude:
                    continue
                if owner is not None and \
                        self._owners.get(victim.node_id) != owner:
                    continue
                charges = self._demote_locked(victim.node_id, now)
                if charges is not None:
                    return victim.node_id, charges
            return None

    def spill_insert(self, node_id: str, size: float, n_consumers: int,
                     materialization_pending: bool = True,
                     now: float = 0.0) -> tuple[int, list[SpillCharge]]:
        """Admit a new entry somewhere in the hierarchy.

        Prefers RAM (demoting victims to make room); an entry bigger
        than RAM itself is created directly in the first lower tier that
        can hold it.  Returns ``(tier_index, charges)``; raises
        :class:`BudgetExceededError` only when no tier can host the
        entry (impossible with an unbounded last tier).  Demotions made
        before such a failure are real — the raised error carries them
        in a ``charges`` attribute so the caller can still bill them.
        """
        with self._lock:
            self._check_new(node_id, size)
            if node_id in self._lower_location:
                raise CatalogError(
                    f"table {node_id!r} already resident in tier "
                    f"{self.tier_name(self._lower_location[node_id])!r}")
            ok, charges = self._make_room(0, size, now)
            if ok:
                self.insert(node_id, size, n_consumers,
                            materialization_pending)
                return 0, charges
            for idx in range(1, len(self.tiers)):
                tier = self.tiers[idx]
                stored = size / self._entry_ratio(idx, node_id)
                fits, more = self._make_room(idx, stored, now)
                charges.extend(more)
                if not fits:
                    continue
                tier.ledger.adopt(node_id, stored, n_consumers,
                                  materialization_pending)
                self._lower_location[node_id] = idx
                self._logical[node_id] = size
                self._touch(idx, node_id)
                self.spill_count += 1
                self.spill_bytes += size
                self.spill_stored_bytes += stored
                seconds = (tier.write_seconds(stored, now)
                           + self._encode_seconds(idx, size))
                self._record_spill_in(idx, node_id, size, stored, seconds)
                if self.bus.enabled:
                    t = self._event_time(now)
                    self.bus.instant(
                        "spill-insert", "store", f"tier:{tier.name}", t,
                        args={"node": node_id, "dst": tier.name,
                              "logical_gb": size, "stored_gb": stored,
                              "seconds": seconds})
                    self._emit_occupancy(t, idx)
                charges.append(SpillCharge(
                    node_id=node_id, src="new", dst=tier.name, size=size,
                    seconds=seconds))
                return idx, charges
            error = BudgetExceededError(
                f"no storage tier can host {node_id!r} ({size:.6g} GB)",
                requested=size, available=self.available)
            error.charges = charges
            raise error

    def _promote_locked(self, node_id: str,  # lint: locked
                        now: float) -> SpillCharge | None:
        """Move a spilled entry into RAM (no counters); None = no move.

        RAM is charged the entry's *logical* size — tables live decoded
        in the Memory Catalog whatever codec the tier used.
        """
        idx, src = self._holding(node_id)
        if idx == 0:
            return None
        logical = self._logical_size(idx, node_id)
        if not self.fits(logical):
            return None
        _, consumers, pending = src.ledger.detach(node_id)
        self._victim_index.discard(idx, node_id)
        del self._lower_location[node_id]
        self._logical.pop(node_id, None)
        self._entry_codec.pop(node_id, None)
        self._prefetch_missed.discard(node_id)
        self.adopt(node_id, logical, consumers, pending)
        seconds = (self.profile.create_time_memory(logical)
                   if self.charge_io else 0.0)
        telemetry = self._telemetry[idx]
        telemetry.promote_count += 1
        telemetry.promote_logical_gb += logical
        telemetry.promote_seconds += seconds
        if self.bus.enabled:
            t = self._event_time(now)
            self.bus.instant(
                "promote", "store", f"tier:{src.name}", t,
                args={"node": node_id, "src": src.name,
                      "logical_gb": logical, "seconds": seconds})
            self._emit_occupancy(t, 0, idx)
        return SpillCharge(node_id=node_id, src=src.name, dst="ram",
                           size=logical, seconds=seconds)

    def promote(self, node_id: str,
                now: float = 0.0) -> SpillCharge | None:
        """Move a spilled entry back into RAM when it fits (no eviction).

        The device read (and decode) is charged by the caller at read
        time; the promotion itself costs one in-memory create of the
        logical bytes.  Returns the charge, or None when the entry is
        already in RAM or does not fit.
        """
        with self._lock:
            charge = self._promote_locked(node_id, now)
            if charge is not None:
                self.promote_count += 1
                self.promote_bytes += charge.size
            return charge

    def prefetch(self, parents: Iterable[str],
                 now: float = 0.0) -> float:
        """Promote-ahead pass: bring spilled ``parents`` back into RAM.

        Called by backends during *idle device time* — after a node
        completes and before its successor dispatches — for the parents
        of soon-to-run consumers (``SpillConfig.prefetch``).  Each
        spilled parent that fits in RAM is promoted (no evictions: a
        prefetch never demotes resident entries to make room), so the
        consumer reads it at memory bandwidth instead of paying the
        tier's device + decode path.

        The device read, decode, and in-memory create of a prefetched
        parent are modeled as overlapped with the idle window — they are
        *not* billed to any node's timeline — but their modeled seconds
        are accounted in ``prefetch_hidden_seconds`` so traces stay
        honest about how much I/O the idle window absorbed.
        ``prefetch_misses`` counts *distinct* parents that failed to
        fit (per residency episode), not retries — the backends re-run
        this pass before every node, and one stuck parent should not
        read as a miss storm.

        Returns:
            The hidden (overlapped) seconds of this pass.
        """
        hidden = 0.0
        with self._lock:
            for parent in parents:
                idx = self.tier_of(parent)
                if idx is None or idx == 0:
                    continue
                logical = self._logical_size(idx, parent)
                if not self.fits(logical):
                    if parent not in self._prefetch_missed:
                        self.prefetch_misses += 1
                        self._prefetch_missed.add(parent)
                        if self.bus.enabled:
                            self.bus.instant(
                                "prefetch-miss", "store",
                                f"tier:{self.tiers[idx].name}",
                                self._event_time(now),
                                args={"node": parent,
                                      "logical_gb": logical})
                    continue
                read = self.tier_read_seconds(parent, now=now)
                charge = self._promote_locked(parent, now)
                if charge is None:  # defensive: fits was checked above
                    if parent not in self._prefetch_missed:
                        self.prefetch_misses += 1
                        self._prefetch_missed.add(parent)
                    continue
                self.prefetch_count += 1
                self.prefetch_bytes += charge.size
                if self.bus.enabled:
                    self.bus.instant(
                        "prefetch-hit", "store", f"tier:{charge.src}",
                        self._event_time(now),
                        args={"node": parent, "logical_gb": charge.size,
                              "hidden_s": read + charge.seconds})
                hidden += read + charge.seconds
            self.prefetch_hidden_seconds += hidden
        return hidden

    def estimate_spill_seconds(self, size: float,
                               now: float = 0.0) -> float | None:
        """Modeled cost of admitting ``size`` GB into RAM by demoting.

        Walks the victim policy's ranking, summing for each victim that
        would have to move: the encode + migration write of its stored
        (compressed) bytes into the next tier plus the expected reload
        penalty its remaining consumers will pay (one decode-aware
        device read — and one promote-create when promotion is on;
        without promotion every remaining consumer re-reads the tier).
        Cascade demotions further down are not modeled — this is an
        *estimate* for stall-vs-spill arbitration, not a quote.

        Returns:
            ``0.0`` when the size already fits, ``None`` when no amount
            of demotion can make it fit (bigger than RAM's admissible
            capacity, not enough movable victims, or — defensively — a
            hierarchy with no tier below RAM to demote into), the
            modeled seconds otherwise.
        """
        with self._lock:
            if self.fits(size):
                return 0.0
            if len(self.tiers) < 2:
                return None  # RAM-only hierarchy: no demotion possible
            if size > self.available + self.usage + 1e-12:
                return None  # exceeds what RAM can ever admit
            deficit = size - self.available
            dst = self.tiers[1]
            freed = 0.0
            cost = 0.0
            for victim in self._victim_index.ranked(0):
                if freed >= deficit - 1e-12:
                    break
                freed += victim.size
                # per-victim realized ratio: the same figure the actual
                # demotion will charge (_demote_locked), so one estimate
                # never mixes preset and realized pricing
                stored = victim.size / self._entry_ratio(1, victim.node_id)
                cost += (dst.write_seconds(stored, now)
                         + self._encode_seconds(1, victim.size))
                if victim.consumers_left > 0:
                    if self.config.promote:
                        cost += (victim.reload_cost
                                 + (self.profile.create_time_memory(
                                     victim.size) if self.charge_io
                                    else 0.0))
                    else:
                        cost += victim.consumers_left * victim.reload_cost
            if freed < deficit - 1e-12:
                return None
            return cost

    def record_wall_seconds(self, index: int, *,
                            spill_seconds: float = 0.0,
                            spill_gb: float = 0.0,
                            read_seconds: float = 0.0,
                            read_gb: float = 0.0,
                            promote_seconds: float = 0.0,
                            promote_gb: float = 0.0) -> None:
        """Record *measured* wall clocks against tier ``index``.

        Real-I/O executors (``charge_io=False``) call this around their
        actual encode/dump and read-back/decode work, so the feedback
        loop gets per-tier observed seconds even with several spill
        tiers — where the single-tier node-trace fallback cannot
        attribute the wall clocks.  Each leg carries its own logical-GB
        denominator; :meth:`tier_report` surfaces the per-GB averages in
        the tier's ``observed`` block exactly like simulated charges.
        """
        with self._lock:
            telemetry = self._telemetry[index]
            telemetry.wall_spill_seconds += spill_seconds
            telemetry.wall_spill_gb += spill_gb
            telemetry.wall_read_seconds += read_seconds
            telemetry.wall_read_gb += read_gb
            telemetry.wall_promote_seconds += promote_seconds
            telemetry.wall_promote_gb += promote_gb
            if self.bus.enabled:
                self.bus.instant(
                    "wall-io", "store", f"tier:{self.tiers[index].name}",
                    self.bus.wall(),
                    args={"spill_s": spill_seconds, "spill_gb": spill_gb,
                          "read_s": read_seconds, "read_gb": read_gb,
                          "promote_s": promote_seconds,
                          "promote_gb": promote_gb})

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
        with self._lock:
            if stalled:
                self.stall_wins += 1
                self.stall_seconds += stall_seconds
                self.avoided_spill_seconds += avoided
            else:
                self.spill_wins += 1
            if self.bus.enabled:
                self.bus.instant(
                    "arbitration", "store", "tier:ram",
                    self._event_time(now),
                    args={"winner": "stall" if stalled else "spill",
                          "stall_s": stall_seconds, "avoided_s": avoided})

    def tier_read_seconds(self, node_id: str, now: float = 0.0) -> float:
        """Device + decode seconds to read a resident entry (0 for RAM;
        the caller charges RAM reads at memory bandwidth as before).

        A compressed tier transfers the stored bytes and then decodes
        the logical bytes — the decode-aware read path both the consumer
        charge (the kernel's resident read) and the prefetch pass
        price through this one method.
        """
        with self._lock:
            idx, tier = self._holding(node_id)
            seconds = tier.read_seconds(tier.ledger.size_of(node_id), now)
            if idx > 0:
                logical = self._logical_size(idx, node_id)
                decode = self._entry_decode_seconds(node_id, logical)
                seconds += decode
                telemetry = self._telemetry[idx]
                telemetry.read_count += 1
                telemetry.read_logical_gb += logical
                telemetry.read_seconds += seconds
                if self.bus.enabled:
                    self.bus.instant(
                        "tier-read", "store", f"tier:{tier.name}",
                        self._event_time(now),
                        args={"node": node_id, "logical_gb": logical,
                              "decode_s": decode, "seconds": seconds})
            return seconds

    def _observed_report(self, index: int) -> dict:
        """One tier's observed-cost telemetry, report-ready.

        Per-GB seconds are ``None`` (not ``0.0``) when no traffic of
        that kind happened.  Ledgers that do not charge simulated
        seconds (``charge_io=False``) surface the *measured* wall
        clocks their executor recorded via :meth:`record_wall_seconds`
        instead — ``None`` when none were recorded; ``observed_ratio``
        is ``None`` when the tier never received a spill, so "no data"
        is distinguishable from "incompressible" (ratio 1.0).
        """
        telemetry = self._telemetry[index]

        def per_gb(seconds: float, gigabytes: float,
                   wall_seconds: float, wall_gb: float) -> float | None:
            if self.charge_io:
                if gigabytes <= 0.0:
                    return None
                return seconds / gigabytes
            if wall_seconds > 0.0 and wall_gb > 0.0:
                return wall_seconds / wall_gb
            return None

        return {
            "spill_in_count": telemetry.spill_in_count,
            "spill_in_gb": telemetry.spill_in_logical_gb,
            "spill_in_stored_gb": telemetry.spill_in_stored_gb,
            "spill_write_seconds_per_gb": per_gb(
                telemetry.spill_in_seconds, telemetry.spill_in_logical_gb,
                telemetry.wall_spill_seconds, telemetry.wall_spill_gb),
            "read_gb": telemetry.read_logical_gb,
            "read_seconds_per_gb": per_gb(
                telemetry.read_seconds, telemetry.read_logical_gb,
                telemetry.wall_read_seconds, telemetry.wall_read_gb),
            "promote_gb": telemetry.promote_logical_gb,
            "promote_create_seconds_per_gb": per_gb(
                telemetry.promote_seconds, telemetry.promote_logical_gb,
                telemetry.wall_promote_seconds, telemetry.wall_promote_gb),
            "observed_ratio": (
                telemetry.encoded_logical_gb / telemetry.encoded_stored_gb
                if telemetry.encoded_stored_gb > 0.0 else None),
        }

    # ------------------------------------------------------------------
    def tier_report(self) -> dict:
        """Per-tier usage and spill/promote/prefetch counters for
        ``RunTrace.extras["tiered_store"]``.

        ``usage``/``peak`` are *stored* (on-tier, possibly compressed)
        GB — the unit each tier's capacity is charged in; ``logical``
        is the decoded GB currently resident there.  Each tier also
        carries its ``observed`` telemetry (measured seconds per GB and
        realized codec ratio — the raw material of the planner's
        feedback loop; ``observed_ratio`` is ``None``, not ``0.0``,
        when the tier never received a spill) and its ``priced_ratio``
        (the ratio the run's cost model used, which mid-run adaptation
        may have moved off the codec preset).  ``codec_adapt`` logs
        every adaptation decision taken this run.
        """
        with self._lock:
            tiers = []
            for index, tier in enumerate(self.tiers):
                ledger = tier.ledger
                # the tier's own residents (resident() on the RAM
                # rung spans the whole hierarchy)
                entries = ledger._entries
                codec = self._codec(index)
                tiers.append({
                    "name": tier.name,
                    "budget": ledger.budget,
                    "usage": ledger.usage,
                    "peak": ledger.peak_usage,
                    "resident": len(entries),
                    "codec": codec.name,
                    "codec_ratio": codec.ratio,
                    "priced_ratio": self._priced_ratio[index],
                    "logical": sum(self._logical_size(index, node_id)
                                   for node_id in entries),
                    "observed": self._observed_report(index),
                })
            return {
                "policy": self.policy.name,
                "promote": self.config.promote,
                "codec": self.config.codec.name,
                "spill_count": self.spill_count,
                "demote_bypass_count": self.demote_bypass_count,
                "promote_count": self.promote_count,
                "spill_bytes_gb": self.spill_bytes,
                "spill_stored_gb": self.spill_stored_bytes,
                "promote_bytes_gb": self.promote_bytes,
                "observed_codec_ratio": (
                    sum(t.encoded_logical_gb for t in self._telemetry)
                    / sum(t.encoded_stored_gb for t in self._telemetry)
                    if any(t.encoded_stored_gb > 0.0
                           for t in self._telemetry) else None),
                "arbitration": {
                    "enabled": self.config.arbitrate,
                    "stall_wins": self.stall_wins,
                    "spill_wins": self.spill_wins,
                    "stall_seconds": self.stall_seconds,
                    "avoided_spill_seconds": self.avoided_spill_seconds,
                },
                "prefetch": {
                    "enabled": self.config.prefetch,
                    "count": self.prefetch_count,
                    "bytes_gb": self.prefetch_bytes,
                    "hidden_seconds": self.prefetch_hidden_seconds,
                    "misses": self.prefetch_misses,
                },
                "codec_adapt": {
                    "enabled": self.config.adapt is not None,
                    "tiers": dict(self.codec_adapt),
                },
                "tiers": tiers,
                # conditional so single-tenant reports stay bit-equal to
                # the pre-tenant goldens (tests/data/golden_pr5_trace.json)
                **({"tenants": self._tenant_report()}
                   if self._tenant_accounts else {}),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "->".join(tier.name for tier in self.tiers)
        return (f"TieredLedger({names}, usage={self.usage:.3g}/"
                f"{self.budget:.3g}, spills={self.spill_count})")
