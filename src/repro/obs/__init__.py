"""Unified run observability: one event bus, its exporters and reports.

See :mod:`repro.obs.events` for the tracing model, ``docs/ARCHITECTURE.md``
("Observability") for the taxonomy and exporter table.
"""

from repro.obs.events import (
    Event,
    EventBus,
    NULL_BUS,
    emit_node_events,
    resolve_bus,
)
from repro.obs.export import (
    chrome_trace,
    events_from_jsonl,
    events_to_jsonl,
    write_chrome_trace,
)
from repro.obs.report import attribution_table, metrics_table, stage_totals

__all__ = [
    "Event",
    "EventBus",
    "NULL_BUS",
    "emit_node_events",
    "resolve_bus",
    "chrome_trace",
    "write_chrome_trace",
    "events_to_jsonl",
    "events_from_jsonl",
    "attribution_table",
    "metrics_table",
    "stage_totals",
]
