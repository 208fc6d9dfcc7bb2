"""The tiered store's run report, declared once as frozen dataclasses.

:meth:`~repro.store.stats.StoreStats.report` builds a :class:`TierReport`
(``TieredLedger.tier_report()`` hands it out) and the node kernel's
``finish_run`` stores its :meth:`~TierReport.to_dict` in
``RunTrace.extras["tiered_store"]``.  That dict is the report's JSON
form, not a second API: its keys are these fields, in this order, so a
trace written before the types existed reads back byte for byte.
Readers parse it once (:meth:`repro.engine.trace.RunTrace.tier_report`,
a :class:`TierReport` or ``None``) and read attributes; a misspelt
field then fails where it is read, and :meth:`TierReport.from_dict`
names any key the blob lacks or has in excess.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Self

from repro.errors import ValidationError


class _Record:
    """Conversion to and from the JSON form, read off the field types:
    a record, a ``tuple`` of records and a ``dict`` of records nest;
    any other value is stored as it is.  A field with a default may be
    absent from the JSON form, and is left out of it when empty."""

    def to_dict(self) -> dict:
        out = {}
        for name, shape, _, required in _layout(type(self)):
            value = getattr(self, name)
            if shape == "one":
                value = value.to_dict()
            elif shape == "rows":
                value = [row.to_dict() for row in value]
            elif shape == "map":
                value = {key: row.to_dict() for key, row in value.items()}
            if value or required:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Any) -> Self:
        """Strict inverse of :meth:`to_dict`.

        Raises:
            ValidationError: ``payload`` is not an object, lacks a
                required key, or has a key no field names; the message
                names the key and the record it belongs to.
        """
        where, layout = cls.__name__, _layout(cls)
        unknown = _expect(payload, dict, where).keys() - {
            name for name, *_ in layout}
        if unknown:
            raise ValidationError(f"{where}: unknown key {min(unknown)!r}")
        values = {}
        for name, shape, record, required in layout:
            if name not in payload:
                if required:
                    raise ValidationError(f"{where}: missing key {name!r}")
                continue
            value = payload[name]
            if shape == "one":
                value = record.from_dict(value)
            elif shape == "rows":
                value = tuple(map(record.from_dict,
                                  _expect(value, list, f"{where}.{name}")))
            elif shape == "map":
                value = {key: record.from_dict(row) for key, row in
                         _expect(value, dict, f"{where}.{name}").items()}
            values[name] = value
        return cls(**values)


def _expect(value: Any, kind: type, where: str) -> Any:
    if not isinstance(value, kind):
        raise ValidationError(f"{where}: expected {kind.__name__}, got "
                              f"{type(value).__name__}")
    return value


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """Per field: its name, how it nests (``"one"`` record, ``"rows"``
    a tuple of records, ``"map"`` a dict of them, ``""`` not at all),
    the record type, and whether the JSON form must carry it."""
    hints, layout = typing.get_type_hints(cls), []
    for spec in dataclasses.fields(cls):
        hint = hints[spec.name]
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        shape, record = (
            ("rows", args[0]) if origin is tuple else
            ("map", args[1]) if origin is dict else
            ("one", hint) if isinstance(hint, type)
            and issubclass(hint, _Record) else ("", None))
        required = spec.default is spec.default_factory is dataclasses.MISSING
        layout.append((spec.name, shape, record, required))
    return tuple(layout)


@dataclass(frozen=True)
class Observed(_Record):
    """One tier's observed costs, the feedback loop's input.  A per-GB
    figure or ratio is ``None`` when the run produced no such traffic,
    so "no data" stays distinct from zero cost or ratio 1.0."""

    spill_in_count: int
    spill_in_gb: float
    spill_in_stored_gb: float
    spill_write_seconds_per_gb: float | None
    read_gb: float
    read_seconds_per_gb: float | None
    promote_gb: float
    promote_create_seconds_per_gb: float | None
    observed_ratio: float | None


@dataclass(frozen=True)
class TierRow(_Record):
    """One tier: ``usage`` / ``peak`` in stored GB (what its budget is
    charged in), ``logical`` the decoded GB resident now, ``resident``
    the tier's own entry count."""

    name: str
    budget: float
    usage: float
    peak: float
    resident: int
    codec: str
    codec_ratio: float
    priced_ratio: float
    logical: float
    observed: Observed


@dataclass(frozen=True)
class Arbitration(_Record):
    """Stall-vs-spill decisions and what the stalls saved."""

    enabled: bool
    stall_wins: int
    spill_wins: int
    stall_seconds: float
    avoided_spill_seconds: float


@dataclass(frozen=True)
class Prefetch(_Record):
    """Promote-ahead outcomes: hits (``count``, ``bytes_gb``, the
    seconds they hid in idle time) and misses."""

    enabled: bool
    count: int
    bytes_gb: float
    hidden_seconds: float
    misses: int


@dataclass(frozen=True)
class CodecAdaptRecord(_Record):
    """The one mid-run adaptation decision taken on tier ``tier``."""

    tier: str
    codec: str
    nominal_ratio: float
    observed_ratio: float
    samples: int
    repriced: bool
    switched_to: str | None
    at_spill: int


@dataclass(frozen=True)
class CodecAdapt(_Record):
    """Whether codec adaptation was armed; tier name -> its decision."""

    enabled: bool
    tiers: dict[str, CodecAdaptRecord]


@dataclass(frozen=True)
class TenantRow(_Record):
    """One tenant's RAM books."""

    budget: float
    usage: float
    peak: float
    resident: int


@dataclass(frozen=True)
class TierReport(_Record):
    """What a tiered run did: the configuration it ran with, its
    migration counters (logical GB; ``spill_stored_gb`` on-tier), the
    arbitration, prefetch and adaptation blocks, one row per tier, and
    the per-tenant books.  ``tenants`` is left out of the JSON form
    when empty, so a single-tenant report reads as it did before
    tenants existed."""

    policy: str
    promote: bool
    codec: str
    spill_count: int
    demote_bypass_count: int
    promote_count: int
    spill_bytes_gb: float
    spill_stored_gb: float
    promote_bytes_gb: float
    observed_codec_ratio: float | None
    arbitration: Arbitration
    prefetch: Prefetch
    codec_adapt: CodecAdapt
    tiers: tuple[TierRow, ...]
    tenants: dict[str, TenantRow] = field(default_factory=dict)
