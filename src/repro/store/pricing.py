"""What moving and keeping bytes below RAM costs: pure functions.

Every modeled second of the tiered store comes from here — the realized
codec ratio, the encode and decode stages, what a demotion is billed,
what reading an entry back costs, the per-GB round trip the planner
discounts a tier by, and the mid-run decision to re-price or drop a
codec.  :class:`~repro.store.tiered.TieredLedger` (the runtime) and
:meth:`repro.core.problem.TierAwareBudget.from_observations` (the
planner) both call these and hold no device-bandwidth or codec-seconds
arithmetic of their own, so a plan and the run it predicts cannot price
a tier differently.

The functions take profiles, codecs, ratios and sizes — never a ledger —
so none of them needs a lock.  Sizes are GB: ``logical`` is an entry's
decoded size, ``stored`` its on-tier size (``logical / ratio``).
"""

from __future__ import annotations

import math

from repro.metadata.costmodel import DeviceProfile
from repro.store.config import CodecAdaptConfig, CodecProfile


def realized_ratio(codec: CodecProfile, priced_ratio: float,
                   multiplier: float | None) -> float:
    """Stored ratio an entry realizes when encoded with ``codec``.

    ``multiplier`` is the entry's own compressibility (it scales the
    codec's nominal ratio headroom: 1 reproduces the preset, 0 stores
    raw-sized bytes, 2 compresses twice as well); an entry without one
    realizes the tier's ``priced_ratio`` — the codec preset until
    mid-run adaptation re-prices the tier to what it observed.  A codec
    that does not compress realizes exactly 1.
    """
    if codec.ratio <= 1.0:
        return 1.0
    if multiplier is None:
        return priced_ratio
    return max(1.0, 1.0 + (codec.ratio - 1.0) * multiplier)


def encode_seconds(codec: CodecProfile, logical: float) -> float:
    """CPU seconds to compress ``logical`` GB with ``codec``."""
    return codec.encode_seconds_per_gb * logical


def decode_seconds(codec: CodecProfile, logical: float) -> float:
    """CPU seconds to decompress ``logical`` GB encoded with ``codec``."""
    return codec.decode_seconds_per_gb * logical


def read_seconds(device: DeviceProfile, codec: CodecProfile,
                 stored: float, logical: float) -> float:
    """Reload cost: the device read of the stored bytes, then the
    decode of the logical ones.  What a consumer of a spilled entry is
    billed, and what the victim ranking expects a demotion to cost its
    next reader."""
    return device.read_time_disk(stored) + decode_seconds(codec, logical)


def demote_seconds(src: DeviceProfile, src_codec: CodecProfile,
                   stored_src: float, dst: DeviceProfile,
                   dst_codec: CodecProfile, stored_dst: float,
                   logical: float) -> float:
    """What moving one entry down is billed: the source read (plus the
    decode when the source tier keeps it encoded with ``src_codec``),
    the encode into the destination's codec, and the device write of
    the compressed bytes.  Out of RAM the source legs are exactly zero:
    its profile transfers for free and it keeps tables decoded.
    """
    return (src.read_time_disk(stored_src) + dst.write_time_disk(stored_dst)
            + encode_seconds(dst_codec, logical)
            + decode_seconds(src_codec, logical))


def transfer_free(device: DeviceProfile) -> bool:
    """Whether ``device`` moves bytes at no cost at all — the
    ``ram-compressed`` rung, whose whole price is its codec."""
    return not (device.write_time_disk(1.0) > 0.0
                or device.read_time_disk(1.0) > 0.0)


def rung_detour_is_dearer(rung_codec: CodecProfile, below: DeviceProfile,
                          below_codec: CodecProfile, logical: float,
                          displaced: float, displaced_stored: float,
                          direct_stored: float) -> bool:
    """Whether demoting through a *full* transfer-free rung costs more
    than writing the entry straight to the tier below it.

    Through the rung the entry pays its encode there, and ``displaced``
    logical GB already in the rung pay a decode, a device write of
    ``displaced_stored`` GB and the encode into the tier below; going
    direct pays one device write of ``direct_stored`` GB and one
    encode.
    """
    route = (encode_seconds(rung_codec, logical)
             + decode_seconds(rung_codec, displaced)
             + below.write_time_disk(displaced_stored)
             + encode_seconds(below_codec, displaced))
    direct = (below.write_time_disk(direct_stored)
              + encode_seconds(below_codec, logical))
    return route > direct


# ----------------------------------------------------------------------
# per-GB rates (the planner's view, and the adaptation decision's)
# ----------------------------------------------------------------------
def write_leg_per_gb(device: DeviceProfile, codec: CodecProfile,
                     ratio: float) -> float:
    """Seconds to demote one logical GB into a tier: the transfer of
    its ``1 / ratio`` stored GB plus the encode."""
    return (1.0 / device.effective_write_bandwidth / ratio
            + codec.encode_seconds_per_gb)


def read_leg_per_gb(device: DeviceProfile, codec: CodecProfile,
                    ratio: float) -> float:
    """Seconds to read one logical GB back from a tier (the fixed
    per-read latency is not a per-GB cost and is left out)."""
    return (1.0 / device.effective_read_bandwidth / ratio
            + codec.decode_seconds_per_gb)


def transfer_round_trip_per_gb(device: DeviceProfile) -> float:
    """Device seconds to write one raw GB and read it back."""
    return (1.0 / device.effective_write_bandwidth
            + 1.0 / device.effective_read_bandwidth)


def warehouse_ram_gain(profile: DeviceProfile) -> float:
    """Seconds one flagged GB in RAM saves versus the warehouse path.

    The blocking write + codec read a flag avoids, minus the in-memory
    create and read it costs instead — the yardstick every spill tier's
    round-trip penalty is discounted against.
    """
    return (transfer_round_trip_per_gb(profile)
            - 2.0 / profile.memory_bandwidth)


def adapt_codec(codec: CodecProfile, observed: float,
                adapt: CodecAdaptConfig, device: DeviceProfile,
                below: DeviceProfile | None) -> tuple[bool, bool]:
    """Decide a tier's codec after its measured spills:
    ``(re-price, switch the codec off)``.

    The tier is *re-priced* to the ``observed`` ratio when that diverges
    from the codec's preset past ``adapt.threshold``.  It additionally
    drops the codec when the saving no longer covers the encode + decode
    tax: one device round trip of the bytes the codec actually removes
    against its two CPU stages.  A transfer-free rung's own legs cost
    nothing, but every byte its codec removes is a byte that never
    cascades to the tier ``below`` — the saving is priced at that tier's
    round trip, and with nothing below compression is pure capacity and
    the codec stays.
    """
    if abs(observed - codec.ratio) / codec.ratio <= adapt.threshold:
        return False, False
    round_trip = transfer_round_trip_per_gb(device)
    if round_trip <= 0.0 and observed > 1.0:
        round_trip = (transfer_round_trip_per_gb(below)
                      if below is not None else math.inf)
    # clamp: observed <= 1 means the codec *grew* the bytes, so the
    # saving is zero, never negative (and never inf * 0)
    headroom = max(0.0, 1.0 - 1.0 / observed)
    saving = round_trip * headroom if headroom > 0.0 else 0.0
    tax = codec.encode_seconds_per_gb + codec.decode_seconds_per_gb
    return True, adapt.allow_switch and tax >= saving
