"""Reports read off one finished run: its trace and bus events.

:func:`attribution_table` mirrors the paper's Figure 3 evidence: every
second of a run charged to a named stage, rendered as the same aligned
table the benchmark suite uses (``repro obs report TRACE``); the totals
are the sums behind ``RunTrace.breakdown()``, itemized.
:func:`metrics_table` is the ``--metrics`` body; it records nothing of
its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotation-only: repro.engine imports repro.obs at
    # module load (simulator instrumentation), so importing back here
    # eagerly would be circular
    from repro.engine.trace import RunTrace
    from repro.obs.events import Event

#: Stage → NodeTrace attribute, in presentation order.  "read",
#: "compute", and "write"+"output create" are the Figure 3 axes;
#: stall/spill/promote are the bounded-memory mechanics on top.
STAGES: tuple[tuple[str, str], ...] = (
    ("read (disk)", "read_disk"),
    ("read (memory)", "read_memory"),
    ("promote read", "promote_read"),
    ("compute", "compute"),
    ("write (blocking)", "write"),
    ("output create", "create_memory"),
    ("stall", "stall"),
    ("spill write", "spill_write"),
)


def stage_totals(trace: RunTrace) -> dict[str, float]:
    """Summed seconds per stage across every node of the run."""
    totals = {label: 0.0 for label, _ in STAGES}
    for node in trace.nodes:
        for label, attr in STAGES:
            totals[label] += getattr(node, attr)
    return totals


def attribution_table(trace: RunTrace) -> str:
    """Render the per-stage table (the ``repro obs report`` body)."""
    from repro.bench.report import format_table

    totals = stage_totals(trace)
    grand = sum(totals.values())
    rows = []
    for label, _ in STAGES:
        seconds = totals[label]
        share = (seconds / grand * 100.0) if grand else 0.0
        rows.append((label, f"{seconds:.3f}", f"{share:5.1f}%"))
    rows.append(("total attributed", f"{grand:.3f}", "100.0%" if grand
                 else "  0.0%"))
    title = (f"per-stage attribution — {trace.method or 'run'} "
             f"({len(trace.nodes)} nodes, "
             f"end-to-end {trace.end_to_end_time:.3f}s)")
    table = format_table(("stage", "seconds", "share"), rows, title=title)
    parts = trace.breakdown()
    fig3 = (f"figure-3 axes: read {parts['read'] * 100.0:.1f}%  "
            f"compute {parts['compute'] * 100.0:.1f}%  "
            f"write {parts['write'] * 100.0:.1f}%")
    return f"{table}\n{fig3}"


def metrics_table(trace: RunTrace, events: Sequence[Event]) -> str:
    """Render the ``--metrics`` body: the tier report's ``store.*``
    totals, the ``dispatch-round`` instants counted, each tier lane's
    last occupancy sample and the node spans' durations — each only
    when the run produced it."""
    report = trace.extras.get("tiered_store")
    counters: dict[str, float] = {}
    if report:
        prefetch = report["prefetch"]
        counters = {
            "store.spill.count": report["spill_count"],
            "store.spill.logical_gb": report["spill_bytes_gb"],
            "store.spill.stored_gb": report["spill_stored_gb"],
            "store.promote.count": report["promote_count"],
            "store.promote.logical_gb": report["promote_bytes_gb"],
            "store.demote.bypass_count": report["demote_bypass_count"],
            "store.prefetch.count": prefetch["count"],
            "store.prefetch.logical_gb": prefetch["bytes_gb"],
            "store.prefetch.hidden_seconds": prefetch["hidden_seconds"],
            "store.prefetch.misses": prefetch["misses"],
            **{f"store.arbitration.{key}": value
               for key, value in report["arbitration"].items()
               if key != "enabled"}}
    gauges: dict[str, float] = {}
    elapsed: list[float] = []
    for event in events:
        if event.kind == "counter":
            tier = event.lane.removeprefix("tier:")
            gauges[f"tier.{tier}.usage_gb"] = event.args["value"]
        elif event.cat == "scheduler" and event.name == "dispatch-round":
            name = "scheduler.dispatch_rounds"
            counters[name] = counters.get(name, 0) + 1
        elif event.cat == "node":
            elapsed.append(event.duration)
    histogram = "node.elapsed_seconds" if elapsed else ""
    width = max(map(len, [*counters, *gauges, histogram]))
    lines = [f"  {name:<{width}s}  {value:g}"
             for name, value in sorted(counters.items())]
    lines += [f"  {name:<{width}s}  {value:g} (gauge)"
              for name, value in sorted(gauges.items())]
    if elapsed:
        total = 0.0
        for seconds in elapsed:   # left to right: sum() compensates on 3.12+
            total += seconds
        lines.append(
            f"  {histogram:<{width}s}  n={len(elapsed)} sum={total:g} "
            f"mean={total / len(elapsed):g} min={min(elapsed):g} "
            f"max={max(elapsed):g}")
    return "\n".join(lines) if lines else "  (no metrics recorded)"
