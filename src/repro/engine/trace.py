"""Execution traces: per-node timings and run-level breakdowns.

Everything the paper reports about a run derives from these records:
end-to-end makespan (Figures 9/10/11), table-read / compute / query CPU
latency splits (Table IV), and read/compute/write percentages (Figure 3).

Traces serialize losslessly to JSON (:meth:`RunTrace.to_json` /
:meth:`RunTrace.from_json`) so benchmark sweeps can persist runs —
including the generic ``extras`` mapping the tiered store uses for
per-tier usage, spill/promote counts, and stall-vs-spill arbitration
outcomes — and reload them bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.store.report import TierReport


@dataclass
class NodeTrace:
    """Timing of one MV update within a refresh run (seconds).

    ``read_memory``/``read_disk`` split input time by source; ``write`` is
    the *blocking* output time (zero for flagged nodes, whose
    materialization drains in the background); ``stall`` is time spent
    waiting for Memory Catalog space (backpressure).  With a tiered
    store enabled, ``spill_write`` is time spent demoting victims to a
    lower tier on this node's behalf and ``promote_read`` is time spent
    copying spilled parents back into RAM (the device read of a spilled
    parent itself lands in ``read_disk``); ``admission`` records the
    stall-vs-spill arbitration outcome at this node's output —
    ``"stall"`` (waiting for a drain was modeled cheaper), ``"spill"``
    (demoting won), or ``""`` when no arbitration happened.
    """

    node_id: str
    start: float = 0.0
    end: float = 0.0
    read_disk: float = 0.0
    read_memory: float = 0.0
    compute: float = 0.0
    write: float = 0.0
    create_memory: float = 0.0
    stall: float = 0.0
    spill_write: float = 0.0
    promote_read: float = 0.0
    flagged: bool = False
    admission: str = ""
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def read_total(self) -> float:
        return self.read_disk + self.read_memory

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (all fields, JSON-compatible)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "NodeTrace":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


@dataclass
class RunTrace:
    """A whole refresh run: per-node traces plus run-level facts.

    ``extras`` is a generic mapping for backend-specific run counters —
    the tiered store publishes its report's JSON form under
    ``extras["tiered_store"]`` (the types live in
    :mod:`repro.store.report`; read it through :meth:`tier_report`) —
    so future backends report their own facts without overloading
    unrelated fields.
    """

    nodes: list[NodeTrace] = field(default_factory=list)
    end_to_end_time: float = 0.0
    compute_finished_at: float = 0.0
    background_drained_at: float = 0.0
    peak_catalog_usage: float = 0.0
    memory_budget: float = 0.0
    method: str = ""
    extras: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def table_read_latency(self) -> float:
        """Total time reading input tables (Table IV "Table read")."""
        return sum(n.read_total for n in self.nodes)

    @property
    def table_read_disk_latency(self) -> float:
        return sum(n.read_disk for n in self.nodes)

    @property
    def compute_latency(self) -> float:
        """Total compute time (Table IV "Compute")."""
        return sum(n.compute for n in self.nodes)

    @property
    def write_latency(self) -> float:
        """Total blocking write time."""
        return sum(n.write for n in self.nodes)

    @property
    def query_latency(self) -> float:
        """Total per-query work (Table IV "Query" = read + compute + write)."""
        return (self.table_read_latency + self.compute_latency
                + self.write_latency
                + sum(n.create_memory for n in self.nodes))

    @property
    def stall_time(self) -> float:
        return sum(n.stall for n in self.nodes)

    @property
    def spill_time(self) -> float:
        """Total time spent moving bytes between storage tiers."""
        return sum(n.spill_write + n.promote_read for n in self.nodes)

    @property
    def stall_avoided_time(self) -> float:
        """Modeled spill seconds avoided by stall-vs-spill arbitration.

        Summed over every admission where stalling won: the demote +
        promote round-trip cost the run would have paid under the old
        spill-always-wins rule.  Zero when no tiered store ran.
        """
        report = self.tier_report()
        return report.arbitration.avoided_spill_seconds if report else 0.0

    def tier_report(self) -> TierReport | None:
        """The tiered store's report, parsed from ``extras``; ``None``
        when no tiered store ran.

        Raises:
            ValidationError: the stored report lacks a key or has one
                the report does not declare.
        """
        report = self.extras.get("tiered_store")
        return None if report is None else TierReport.from_dict(report)

    def breakdown(self) -> dict[str, float]:
        """Fraction of summed node time per category (Figure 3 axes)."""
        read = self.table_read_latency
        compute = self.compute_latency
        write = self.write_latency + sum(n.create_memory for n in self.nodes)
        total = read + compute + write
        if total == 0:
            return {"read": 0.0, "compute": 0.0, "write": 0.0}
        return {"read": read / total, "compute": compute / total,
                "write": write / total}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form of the whole run (JSON-compatible).

        ``extras`` is carried as-is; backends must keep it built from
        JSON-compatible scalars/lists/dicts (``inf`` budgets are fine —
        the :mod:`json` module round-trips them as ``Infinity``).
        """
        return {
            "nodes": [node.to_dict() for node in self.nodes],
            "end_to_end_time": self.end_to_end_time,
            "compute_finished_at": self.compute_finished_at,
            "background_drained_at": self.background_drained_at,
            "peak_catalog_usage": self.peak_catalog_usage,
            "memory_budget": self.memory_budget,
            "method": self.method,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTrace":
        """Inverse of :meth:`to_dict`."""
        data = dict(payload)
        nodes = [NodeTrace.from_dict(n) for n in data.pop("nodes", [])]
        return cls(nodes=nodes, **data)

    def to_json(self) -> str:
        """JSON text round-trippable through :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunTrace":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def gantt(self, width: int = 72) -> str:
        """ASCII timeline of node executions (debugging/reporting aid)."""
        if not self.nodes or self.end_to_end_time <= 0:
            return "(empty run)"
        scale = width / self.end_to_end_time
        lines = []
        for node in self.nodes:
            begin = int(node.start * scale)
            length = max(1, int(node.elapsed * scale))
            marker = "#" if node.flagged else "="
            bar = " " * begin + marker * length
            lines.append(f"{node.node_id:>16s} |{bar}")
        lines.append(f"{'':>16s} +{'-' * width}> "
                     f"{self.end_to_end_time:.2f}s")
        return "\n".join(lines)
