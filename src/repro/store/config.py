"""Tier specifications and the spill configuration shared by backends.

This module is a dependency leaf (errors + cost model only) so executors
can accept a :class:`SpillConfig` in their options without importing the
tier machinery itself — :mod:`repro.store.tiered` is loaded only when a
run actually spills.

By default spilled tables are stored *decoded* (no ORC/Parquet codec
work): a spill is a raw dump to a local device, which is exactly why it
is cheaper than re-materializing through the warehouse write path.  The
default tier profiles therefore disable the warehouse codec stages
(``inf`` rates) and model only device transfer + latency.

A :class:`CodecProfile` optionally re-introduces a *spill-side* codec:
compressing spill files shrinks the bytes a tier must transfer and
store (capacity is charged compressed bytes) at the price of an encode
stage on every demotion and a decode stage on every read-back — costs
the stall-vs-spill arbiter and the tier-aware planner both have to see
(cf. the codec-vs-access-cost trades in *Datalog Reasoning over
Compressed RDF Knowledge Bases* and *Optimised Storage for Datalog
Reasoning*).  ``codec="none"`` keeps every charge bit-identical to the
codec-free pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.metadata.costmodel import DeviceProfile

#: Local NVMe/SATA SSD: fast transfers, negligible seek, no codec.
SSD_PROFILE = DeviceProfile(
    disk_read_bandwidth=2.2,
    disk_write_bandwidth=1.4,
    read_latency=60e-6,
    decode_rate=math.inf,
    encode_rate=math.inf,
)

#: Local spinning disk: modest bandwidth, milliseconds of seek, no codec.
LOCAL_DISK_PROFILE = DeviceProfile(
    disk_read_bandwidth=0.45,
    disk_write_bandwidth=0.35,
    read_latency=4e-3,
    decode_rate=math.inf,
    encode_rate=math.inf,
)

#: Cold network/object-store rung (NFS mount, blob store): transfers so
#: dear that whether its bytes are worth flagging depends on the codec
#: ratio actually realized — the regime the feedback loop re-prices.
COLD_PROFILE = DeviceProfile(
    disk_read_bandwidth=0.12,
    disk_write_bandwidth=0.10,
    read_latency=5e-3,
    decode_rate=math.inf,
    encode_rate=math.inf,
)

#: The well-known name of the compressed-in-RAM rung (see
#: :data:`RAM_COMPRESSED_PROFILE`).
RAM_COMPRESSED = "ram-compressed"

#: Compressed-in-RAM rung: entries stay in memory, so there is *no*
#: device transfer at all — infinite bandwidths and zero latency make
#: every simulated read/write leg exactly 0 seconds.  The rung's entire
#: cost is its codec (encode on demotion, decode on read-back) and its
#: entire value is the codec's ratio: a ``budget`` GB rung hosts
#: ``budget * ratio`` logical GB of warm intermediates that would
#: otherwise cascade to SSD/disk (cf. reasoning directly over
#: compressed in-memory data in *Datalog Reasoning over Compressed RDF
#: Knowledge Bases*).
RAM_COMPRESSED_PROFILE = DeviceProfile(
    disk_read_bandwidth=math.inf,
    disk_write_bandwidth=math.inf,
    read_latency=0.0,
    decode_rate=math.inf,
    encode_rate=math.inf,
)

#: Default device model per well-known tier name (``--tier ssd:8``).
TIER_PROFILES: dict[str, DeviceProfile] = {
    "ssd": SSD_PROFILE,
    "nvme": SSD_PROFILE,
    "disk": LOCAL_DISK_PROFILE,
    "hdd": LOCAL_DISK_PROFILE,
    "cold": COLD_PROFILE,
    "nfs": COLD_PROFILE,
    RAM_COMPRESSED: RAM_COMPRESSED_PROFILE,
}


@dataclass(frozen=True)
class CodecProfile:
    """Cost model of a spill-file codec.

    All figures describe *logical* (decoded) bytes: a table of ``L`` GB
    occupies ``L / ratio`` GB on the tier, costs
    ``encode_seconds_per_gb * L`` to compress on a demotion and
    ``decode_seconds_per_gb * L`` to decompress on a read-back.

    Attributes:
        name: codec label (``"none"``, ``"zlib"``, ...).
        ratio: compression ratio, logical bytes per stored byte
            (``1.0`` = incompressible / codec disabled).
        encode_seconds_per_gb: CPU seconds to compress one logical GB.
        decode_seconds_per_gb: CPU seconds to decompress one logical GB.
    """

    name: str
    ratio: float = 1.0
    encode_seconds_per_gb: float = 0.0
    decode_seconds_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("a CodecProfile needs a name")
        if not self.ratio > 0 or math.isinf(self.ratio):
            raise ValidationError(
                f"codec {self.name!r} ratio must be finite and > 0")
        for field_name in ("encode_seconds_per_gb", "decode_seconds_per_gb"):
            if not getattr(self, field_name) >= 0:  # also rejects NaN
                raise ValidationError(
                    f"codec {self.name!r} {field_name} must be >= 0")


#: Codec disabled: raw decoded dumps, bit-identical to the PR 3 pipeline.
NONE_CODEC = CodecProfile("none")

#: Fast deflate across idle cores (zlib level 1, column-chunk parallel):
#: ~2.6x on columnar intermediates, encode ~1.25 GB/s aggregate, decode
#: ~2.9 GB/s.  Cheaper per logical byte than a spinning disk's raw
#: transfer, dearer than NVMe — exactly the regime the decode-aware
#: arbiter and planner have to price rather than assume.
ZLIB_CODEC = CodecProfile("zlib", ratio=2.6,
                          encode_seconds_per_gb=0.8,
                          decode_seconds_per_gb=0.35)

#: Fast preset (zlib level 1): gives back some ratio for a much cheaper
#: encode stage — the right trade for the compressed-in-RAM rung, where
#: there is no device transfer to hide the codec behind and every
#: demotion/readback pays the codec stages in full.
ZLIB1_CODEC = CodecProfile("zlib1", ratio=2.1,
                           encode_seconds_per_gb=0.3,
                           decode_seconds_per_gb=0.3)

#: Columnar-aware codec: dictionary-encodes low-cardinality columns and
#: delta-encodes sorted/sequential integer columns *before* the byte
#: compressor, exploiting MiniDB's numpy column layout (cf. the
#: column-layout-aware encodings of *Optimised Storage for Datalog
#: Reasoning*).  Better ratio than plain deflate on star-schema
#: intermediates at a similar decode cost; the encode analysis pass
#: makes it a bit dearer to write.  MiniDB realizes this codec for real
#: (:mod:`repro.db.columnar_codec`); simulated runs charge this preset.
COLUMNAR_CODEC = CodecProfile("columnar", ratio=3.4,
                              encode_seconds_per_gb=0.55,
                              decode_seconds_per_gb=0.28)

#: Built-in codec presets selectable by name (``--spill-codec zlib``).
SPILL_CODECS: dict[str, CodecProfile] = {
    "none": NONE_CODEC,
    "zlib": ZLIB_CODEC,
    "zlib1": ZLIB1_CODEC,
    "columnar": COLUMNAR_CODEC,
}

#: Per-tier-name codec fallback, consulted *between* an explicit codec
#: and the config-wide default: a compressed-in-RAM rung with no codec
#: is just a second RAM partition with extra steps, so it defaults to
#: the fast preset unless the tier or the config picks something else.
DEFAULT_TIER_CODECS: dict[str, str] = {
    RAM_COMPRESSED: "zlib1",
}


def resolve_codec(codec: "CodecProfile | str") -> CodecProfile:
    """Turn a codec name or profile into a :class:`CodecProfile`."""
    if isinstance(codec, CodecProfile):
        return codec
    if codec in SPILL_CODECS:
        return SPILL_CODECS[codec]
    raise ValidationError(
        f"unknown spill codec {codec!r}; choose from "
        f"{tuple(sorted(SPILL_CODECS))} or pass a CodecProfile")


@dataclass(frozen=True)
class CodecAdaptConfig:
    """Mid-run codec re-pricing policy (``SpillConfig.adapt``).

    Fixed codec assumptions mis-price storage when the workload's actual
    compressibility diverges from the preset (cf. the workload-dependent
    ratios reported in *Datalog Reasoning over Compressed RDF Knowledge
    Bases*).  With adaptation armed, the tiered ledger measures the
    realized ratio of the first ``samples`` tables spilled into each
    compressing tier and, when the observed ratio diverges from the
    codec's nominal ratio by more than
    :data:`~repro.store.pricing.ADAPT_THRESHOLD`, *re-prices* the tier:
    the arbitration/victim cost model switches to the observed ratio,
    and — when the observed saving no longer covers the codec's
    encode+decode tax — the tier drops its codec entirely and stores
    future spills raw.  Every decision is logged in
    ``extras["tiered_store"]["codec_adapt"]``.

    Attributes:
        samples: spilled tables to measure before deciding (per tier).
    """

    samples: int = 4

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValidationError("adapt samples must be >= 1")


@dataclass(frozen=True)
class TierSpec:
    """One rung of the storage hierarchy below RAM.

    Attributes:
        name: tier label (``"ssd"``, ``"disk"``, ...); well-known names
            pick their default :data:`TIER_PROFILES` device model.
        budget: capacity in GB of *stored* (possibly compressed) bytes;
            ``math.inf`` makes the tier unbounded (the usual choice for
            the last tier, so a refresh can always complete).
        profile: explicit device cost model; ``None`` resolves through
            the name (falling back to :data:`LOCAL_DISK_PROFILE`).
        codec: per-tier spill codec (name or profile); ``None`` inherits
            the :class:`SpillConfig`-level default.
    """

    name: str
    budget: float = math.inf
    profile: DeviceProfile | None = None
    codec: CodecProfile | str | None = None

    def __post_init__(self) -> None:
        if not self.name or ":" in self.name:
            raise ValidationError(f"bad tier name {self.name!r}")
        if not self.budget >= 0:  # also rejects NaN
            raise ValidationError(
                f"tier {self.name!r} budget must be >= 0")
        if self.codec is not None:
            object.__setattr__(self, "codec", resolve_codec(self.codec))

    def resolved_profile(self) -> DeviceProfile:
        """The device model simulated runs charge for this tier."""
        if self.profile is not None:
            return self.profile
        return TIER_PROFILES.get(self.name, LOCAL_DISK_PROFILE)

    def resolved_codec(self, default: CodecProfile = NONE_CODEC,
                       ) -> CodecProfile:
        """This tier's codec: the explicit per-tier choice, else a
        *compressing* config default, else the tier name's own default
        (:data:`DEFAULT_TIER_CODECS`), else the config default."""
        if self.codec is not None:
            return self.codec
        if default.ratio > 1.0:
            return default
        name_default = DEFAULT_TIER_CODECS.get(self.name)
        if name_default is not None:
            return resolve_codec(name_default)
        return default


def parse_tier(text: str) -> TierSpec:
    """Parse a CLI tier argument: ``"ssd:8"``, ``"disk:inf"``, ``"disk"``,
    or with a per-tier codec override: ``"ssd:8:zlib"``.

    The budget (GB) defaults to unbounded when omitted.
    """
    name, sep, rest = text.partition(":")
    if not sep:
        return TierSpec(name=name)
    raw, sep, codec_name = rest.partition(":")
    codec = resolve_codec(codec_name) if sep else None
    try:
        budget = math.inf if raw in ("inf", "unbounded") else float(raw)
    except ValueError:
        raise ValidationError(
            f"bad tier budget {raw!r} in {text!r} "
            f"(want a number in GB, 'inf', or 'unbounded')") from None
    return TierSpec(name=name, budget=budget, codec=codec)


@dataclass(frozen=True)
class SpillConfig:
    """How a backend may spill flagged intermediates below RAM.

    Attributes:
        tiers: ordered lower tiers, hottest first (RAM itself is the
            executing backend's ledger budget, not listed here).
        policy: victim-selection policy name (see
            :mod:`repro.store.policy`): ``"cost"``, ``"lru"``,
            ``"largest"``.
        promote: copy a spilled entry back into RAM after a read when it
            fits, so later consumers get memory-bandwidth reads.
        arbitrate: weigh stalling against spilling at each admission
            decision — when background drains are pending and waiting
            for them is modeled cheaper than the demote+promote round
            trip of the best victims, the run stalls instead of
            spilling.  ``False`` restores the spill-always-wins rule
            (useful as an ablation baseline).
        codec: default spill-file codec for every tier (name from
            :data:`SPILL_CODECS` or a :class:`CodecProfile`); individual
            tiers may override via :attr:`TierSpec.codec`.  ``"none"``
            (the default) keeps charges bit-identical to the codec-free
            pipeline.
        prefetch: promote-ahead prefetching — during idle device time,
            spilled parents of soon-to-run consumers are promoted back
            into RAM before their consumer dispatches, so the consumer
            reads at memory bandwidth instead of paying the tier's
            device + decode path.  Off by default (bit-equal traces).
        adapt: optional :class:`CodecAdaptConfig` arming mid-run codec
            re-pricing — the ledger samples the measured compressibility
            of the first K spilled tables per tier and swaps the tier's
            effective ratio (and optionally its codec) when reality
            diverges from the preset.  ``None`` (default) keeps every
            codec assumption frozen for the whole run.

    Raises:
        ValidationError: for an empty hierarchy, duplicate tier names,
            a tier named ``"ram"``, or an unknown codec.
    """

    tiers: tuple[TierSpec, ...] = (TierSpec("disk"),)
    policy: str = "cost"
    promote: bool = True
    arbitrate: bool = True
    codec: CodecProfile | str = "none"
    prefetch: bool = False
    adapt: CodecAdaptConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "codec", resolve_codec(self.codec))
        if self.adapt is not None and not isinstance(self.adapt,
                                                     CodecAdaptConfig):
            raise ValidationError(
                "adapt must be a CodecAdaptConfig or None")
        if not self.tiers:
            raise ValidationError("a SpillConfig needs at least one tier")
        names = [spec.name for spec in self.tiers]
        if len(names) != len(set(names)):
            raise ValidationError(f"duplicate tier names: {names}")
        if "ram" in names:
            raise ValidationError(
                "'ram' is the executing ledger's budget, not a spill "
                "tier; set the memory budget instead")
        if RAM_COMPRESSED in names:
            if names[0] != RAM_COMPRESSED:
                raise ValidationError(
                    f"{RAM_COMPRESSED!r} is an in-memory rung and must "
                    f"be the first (hottest) tier, got {names}")
            if math.isinf(self.tiers[0].budget):
                raise ValidationError(
                    f"{RAM_COMPRESSED!r} lives in RAM and needs a "
                    f"finite budget (GB of compressed bytes)")


def minidb_spill_config(ram_compressed_gb: float = 0.0,
                        policy: str = "cost",
                        codec: CodecProfile | str = "none",
                        adapt: CodecAdaptConfig | None = None,
                        ) -> SpillConfig:
    """The hierarchy a MiniDB run spills into: one unbounded
    ``spill-disk`` tier (the spill directory), under a finite
    ``ram-compressed`` rung when ``ram_compressed_gb`` arms one.

    The one builder of that hierarchy: the backend runs it and
    ``Controller.minidb_tier_budget`` prices it.

    Raises:
        ValidationError: for a rung size that is negative or NaN (zero
            arms no rung).
    """
    if not ram_compressed_gb >= 0:
        raise ValidationError(
            f"ram_compressed_gb must be >= 0, got {ram_compressed_gb!r}")
    tiers: tuple[TierSpec, ...] = (TierSpec("spill-disk"),)
    if ram_compressed_gb > 0:
        tiers = (TierSpec(RAM_COMPRESSED, ram_compressed_gb),) + tiers
    return SpillConfig(tiers=tiers, policy=policy, codec=codec,
                       adapt=adapt)
