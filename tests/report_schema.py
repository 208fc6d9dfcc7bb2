"""The declared key schema for ``RunTrace.extras["tiered_store"]``.

This module is the single source of truth for every string key that
may appear in the tiered-store telemetry blob (built by
``TieredLedger.tier_report()`` and attached to traces by each
backend's ``finish()``).  REP005 in ``tests/test_analysis.py`` checks
both sides of ``src/repro`` against these constants: producers may
only emit declared keys, and consumers (CLI spill report, feedback
loop, bench experiments) may only read declared keys — so a typo fails
tier-1 instead of silently flatlining a metric.

When adding a key: add it to the matching constant below *and* emit /
consume it in the same PR.  Removing a key is a schema break — check
the golden traces and `repro/feedback/observe.py` first.
"""

from __future__ import annotations

#: Top-level keys of ``extras["tiered_store"]`` (``tier_report()``).
TIER_REPORT_KEYS = frozenset({
    "policy",
    "promote",
    "codec",
    "spill_count",
    "demote_bypass_count",
    "promote_count",
    "spill_bytes_gb",
    "spill_stored_gb",
    "promote_bytes_gb",
    "observed_codec_ratio",
    "arbitration",
    "prefetch",
    "codec_adapt",
    "tiers",
    "tenants",
})

#: Per-tier entries in the ``tiers`` list.
TIER_KEYS = frozenset({
    "name",
    "budget",
    "usage",
    "peak",
    "resident",
    "codec",
    "codec_ratio",
    "priced_ratio",
    "logical",
    "observed",
})

#: Per-tier observed-cost block (``_observed_report()``) feeding the
#: feedback loop.
OBSERVED_KEYS = frozenset({
    "spill_in_count",
    "spill_in_gb",
    "spill_in_stored_gb",
    "spill_write_seconds_per_gb",
    "read_gb",
    "read_seconds_per_gb",
    "promote_gb",
    "promote_create_seconds_per_gb",
    "observed_ratio",
})

#: Stall-vs-spill arbitration summary.
ARBITRATION_KEYS = frozenset({
    "enabled",
    "stall_wins",
    "spill_wins",
    "stall_seconds",
    "avoided_spill_seconds",
})

#: Promote-ahead prefetch summary.
PREFETCH_KEYS = frozenset({
    "enabled",
    "count",
    "bytes_gb",
    "hidden_seconds",
    "misses",
})

#: Adaptive-codec summary (``codec_adapt``).
CODEC_ADAPT_KEYS = frozenset({
    "enabled",
    "tiers",
})

#: Per-tier adaptation records inside ``codec_adapt["tiers"]``
#: (``_maybe_adapt()``).
CODEC_ADAPT_RECORD_KEYS = frozenset({
    "tier",
    "codec",
    "nominal_ratio",
    "observed_ratio",
    "samples",
    "repriced",
    "switched_to",
    "at_spill",
})

#: Per-tenant accounting blocks inside ``tenants`` (``_tenant_report()``;
#: only present when the serve layer registered tenants — single-tenant
#: reports omit the key entirely to stay golden-compatible).
TENANT_KEYS = frozenset({
    "budget",
    "usage",
    "peak",
    "resident",
})

#: Every declared key, flattened — what REP005 validates against.
ALL_TIERED_STORE_KEYS = (
    TIER_REPORT_KEYS | TIER_KEYS | OBSERVED_KEYS | ARBITRATION_KEYS
    | PREFETCH_KEYS | CODEC_ADAPT_KEYS | CODEC_ADAPT_RECORD_KEYS
    | TENANT_KEYS)
