"""Span-based structured event tracing with a zero-overhead-when-off bus.

Every run-time layer — the serial simulator, the parallel scheduler,
the MiniDB real-I/O paths and the tiered store — emits typed events
into one in-process :class:`EventBus`, the run's one recorder:

* **span** — an interval on a *lane* (``worker-0``, ``tier:ssd``,
  ``scheduler``): node executions and their read/compute/output phases;
* **instant** — a point event: demotions, promotions, prefetches,
  arbitration decisions, rung bypasses, dispatch rounds;
* **counter** — a sampled level: per-tier occupancy gauges over time.

Each event carries a **logical-clock** timestamp (simulated seconds for
the discrete-event backends, wall seconds for MiniDB) *and* the
**wall-clock** second it was emitted at (relative to the bus epoch), so
a trace can answer both "where did the modeled run spend its time" and
"where did the host process spend its time".

The bus is off by default everywhere: backends receive the
:data:`NULL_BUS` singleton, whose ``enabled`` flag is ``False``, and
every instrumentation site is guarded by ``if bus.enabled`` — when off,
the whole subsystem costs one attribute check per site and allocates
nothing, which is what keeps events-off traces bit-equal to the
pre-observability goldens (measured in
``benchmarks/bench_obs_overhead.py``).

Exporters live in :mod:`repro.obs.export` (Chrome-trace/Perfetto JSON,
JSONL event log); the attribution report and the ``--metrics`` table,
both read off a finished run, in :mod:`repro.obs.report`.
"""

from __future__ import annotations

import threading
import time


class Event:
    """One typed trace event.

    Attributes:
        kind: ``"span"`` / ``"instant"`` / ``"counter"``.
        name: short label (node id, ``"demote"``, a counter name).
        cat: taxonomy category (``node``, ``phase``, ``store``,
            ``occupancy``, ``scheduler``, ``run``, ``request``; the
            table is in docs/ARCHITECTURE.md "Observability").
        lane: timeline the event belongs to (``worker-0``, ``tier:ssd``).
        t0: logical-clock start (seconds).
        t1: logical-clock end for spans (``None`` otherwise).
        wall: wall-clock seconds since the bus epoch at emission.
        args: JSON-compatible payload (sizes, tiers, decisions).
    """

    __slots__ = ("kind", "name", "cat", "lane", "t0", "t1", "wall", "args")

    def __init__(self, kind: str, name: str, cat: str, lane: str,
                 t0: float, t1: float | None = None,
                 wall: float = 0.0, args: dict | None = None) -> None:
        self.kind = kind
        self.name = name
        self.cat = cat
        self.lane = lane
        self.t0 = t0
        self.t1 = t1
        self.wall = wall
        self.args = args or {}

    @property
    def duration(self) -> float:
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "cat": self.cat,
                "lane": self.lane, "t0": self.t0, "t1": self.t1,
                "wall": self.wall, "args": self.args}

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        return cls(kind=payload["kind"], name=payload["name"],
                   cat=payload["cat"], lane=payload["lane"],
                   t0=payload["t0"], t1=payload.get("t1"),
                   wall=payload.get("wall", 0.0),
                   args=payload.get("args") or {})


class EventBus:
    """In-process collector of :class:`Event` records — the run's one
    recorder; every report and exporter reads this list.

    One bus spans one observed run (the CLI clears and re-bases it
    between ``--replan`` passes).  Appends are lock-protected so the
    MiniDB controller thread and any future concurrent emitters stay
    safe; the discrete-event backends are single-threaded and pay only
    an uncontended acquire.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list[Event] = []
        self._epoch = time.perf_counter()  # repro-lint: disable=REP001 -- the bus epoch is real wall time for Chrome-trace timestamps

    # ------------------------------------------------------------------
    def wall(self) -> float:
        """Wall-clock seconds since the bus epoch."""
        return time.perf_counter() - self._epoch  # repro-lint: disable=REP001 -- the bus epoch is real wall time for Chrome-trace timestamps

    def rebase(self) -> None:
        """Reset the wall-clock epoch (backends call this at run start
        so wall timestamps read as run-relative)."""
        self._epoch = time.perf_counter()  # repro-lint: disable=REP001 -- the bus epoch is real wall time for Chrome-trace timestamps

    def clear(self) -> None:
        """Drop all events (between ``--replan`` passes)."""
        with self._lock:
            self.events.clear()

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str, lane: str, t0: float, t1: float,
             args: dict | None = None) -> None:
        event = Event("span", name, cat, lane, t0, t1,
                      wall=self.wall(), args=args)
        with self._lock:
            self.events.append(event)

    def instant(self, name: str, cat: str, lane: str, t: float,
                args: dict | None = None) -> None:
        event = Event("instant", name, cat, lane, t,
                      wall=self.wall(), args=args)
        with self._lock:
            self.events.append(event)

    def counter(self, name: str, lane: str, t: float,
                value: float) -> None:
        event = Event("counter", name, "occupancy", lane, t,
                      wall=self.wall(), args={"value": value})
        with self._lock:
            self.events.append(event)


class _NullBus(EventBus):
    """The disabled bus: every emit is a no-op and ``enabled`` is
    False, so guarded instrumentation sites cost one attribute check."""

    enabled = False

    def span(self, *args, **kwargs) -> None:  # pragma: no cover - no-op
        pass

    def instant(self, *args, **kwargs) -> None:  # pragma: no cover
        pass

    def counter(self, *args, **kwargs) -> None:  # pragma: no cover
        pass


#: Shared disabled singleton; backends default to it so instrumentation
#: never needs a None check.
NULL_BUS = _NullBus()


def resolve_bus(bus: EventBus | None) -> EventBus:
    """``None``-safe bus coercion used by backend constructors."""
    return NULL_BUS if bus is None else bus


# ----------------------------------------------------------------------
# shared node-level emission
# ----------------------------------------------------------------------
#: Ordered (phase name, NodeTrace attributes) pairs reconstructing a
#: node's internal timeline from its trace fields.  The order mirrors
#: the execution model: inputs, compute, backpressure, demotions, then
#: the output write/create.  Durations are exact (the same numbers
#: RunTrace.breakdown() sums); only intra-node interleaving (e.g.
#: memory vs disk reads alternating per parent) is collapsed.
NODE_PHASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("read", ("read_disk", "read_memory", "promote_read")),
    ("compute", ("compute",)),
    ("stall", ("stall",)),
    ("spill", ("spill_write",)),
    ("output", ("write", "create_memory")),
)


def emit_node_events(bus: EventBus, trace, lane: str) -> None:
    """Emit one node span plus its phase sub-spans from a NodeTrace.

    The one node-level emission rule shared by the serial simulator,
    the parallel scheduler, and the MiniDB executor, so every backend's
    trace carries the same taxonomy.  Phase spans are laid out
    sequentially from ``trace.start`` and clipped to ``trace.end``, so
    per-lane spans always nest properly inside their node span.
    """
    start, end = trace.start, trace.end
    bus.span(trace.node_id, "node", lane, start, end,
             args={"flagged": trace.flagged,
                   "admission": trace.admission})
    clock = start
    for phase, attrs in NODE_PHASES:
        duration = 0.0
        for attr in attrs:
            duration += getattr(trace, attr)
        if duration <= 0.0:
            continue
        t1 = min(clock + duration, end)
        bus.span(phase, "phase", lane, clock, t1,
                 args={"node": trace.node_id})
        clock = t1
