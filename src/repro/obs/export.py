"""Exporters for :class:`~repro.obs.events.EventBus` traces.

Two targets, one event stream:

* :func:`chrome_trace` — Chrome trace / Perfetto JSON (load the file at
  ``ui.perfetto.dev`` or ``chrome://tracing``): one track per lane
  (worker, tier, scheduler), ``"X"`` complete spans, ``"i"`` instants,
  ``"C"`` counter tracks for tier occupancy;
* :func:`events_to_jsonl` / :func:`events_from_jsonl` — lossless JSONL
  event log, one event per line, args round-trip exactly.

The CLI's ASCII timeline is ``RunTrace.gantt()``.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs.events import Event

#: Chrome trace uses integer pid/tid pairs; we map every lane to one
#: synthetic process so Perfetto renders lanes as sibling tracks.
_TRACE_PID = 1


def _lane_order(events: Sequence[Event]) -> list[str]:
    """Stable lane listing: workers first, then tiers, then the rest,
    each group in first-seen order."""
    seen: list[str] = []
    for event in events:
        if event.lane not in seen:
            seen.append(event.lane)

    def rank(lane: str) -> tuple[int, int]:
        if lane.startswith("worker"):
            group = 0
        elif lane.startswith("tier:"):
            group = 1
        else:
            group = 2
        return (group, seen.index(lane))

    return sorted(seen, key=rank)


def chrome_trace(events: Sequence[Event]) -> dict:
    """Render events as a Chrome trace / Perfetto JSON object.

    Logical-clock seconds become microseconds (the format's native
    unit).  The wall-clock emission stamp rides along in each event's
    ``args["wall_s"]`` so both clocks survive the export.
    """
    lanes = _lane_order(events)
    tid_of = {lane: i + 1 for i, lane in enumerate(lanes)}
    trace_events: list[dict] = []
    for lane in lanes:
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": _TRACE_PID,
            "tid": tid_of[lane], "args": {"name": lane},
        })
    for event in events:
        tid = tid_of[event.lane]
        args = dict(event.args)
        args["wall_s"] = round(event.wall, 6)
        if event.kind == "span":
            trace_events.append({
                "ph": "X", "name": event.name, "cat": event.cat,
                "pid": _TRACE_PID, "tid": tid,
                "ts": event.t0 * 1e6,
                "dur": (event.t1 - event.t0) * 1e6,
                "args": args,
            })
        elif event.kind == "counter":
            trace_events.append({
                "ph": "C", "name": event.name, "cat": event.cat,
                "pid": _TRACE_PID, "tid": tid,
                "ts": event.t0 * 1e6,
                "args": {"value": event.args.get("value", 0)},
            })
        else:
            trace_events.append({
                "ph": "i", "name": event.name, "cat": event.cat,
                "pid": _TRACE_PID, "tid": tid,
                "ts": event.t0 * 1e6, "s": "t",
                "args": args,
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "clock": "logical"},
    }


def write_chrome_trace(events: Sequence[Event], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events), handle)
        handle.write("\n")


# ----------------------------------------------------------------------
def events_to_jsonl(events: Sequence[Event], path) -> None:
    """One JSON object per line; lossless (see :func:`events_from_jsonl`)."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")


def events_from_jsonl(path) -> list[Event]:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events
