"""LRU result-cache baseline (paper §VI-A) as an :class:`ExecutionBackend`.

The baseline the paper compares against: "The LRU cache in the DBMS caches
query results. We increase the size of the LRU cache by an amount equal to
the size of Memory Catalog."  It is plan-free (``requires_plan = False``):
nodes run in topological order, every output is written to storage
*blocking*, and reads hit an LRU cache of recently produced/read tables.
Passing a plan is a usage error — the whole point of the baseline is that
it makes no flagging decisions.  Its weakness is precisely what S/C fixes:
eviction ignores both the dependency structure and the cost of re-reading,
and writes stay on the critical path.

Byte accounting goes through the shared
:class:`~repro.exec.ledger.MemoryLedger` (its raw ``charge``/``credit``
interface), so the baseline reports budget usage with exactly the same
bookkeeping as every other backend; only the recency/eviction policy lives
here.  Base-table reads and compute are charged by the shared
:class:`~repro.exec.kernel.NodeKernel`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.plan import Plan
from repro.engine.trace import NodeTrace, RunTrace
from repro.errors import ValidationError
from repro.exec.base import ExecutionBackend, SimulatorOptions
from repro.exec.kernel import NodeKernel, finish_run
from repro.exec.ledger import MemoryLedger
from repro.graph.dag import DependencyGraph
from repro.graph.topo import kahn_topological_order
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import emit_node_events


class LruCache:
    """Byte-bounded LRU over table ids.

    Recency lives in an :class:`~collections.OrderedDict`; the bytes
    themselves are charged against a :class:`MemoryLedger` so usage and
    peak reporting share the budget accountant of all backends.
    """

    def __init__(self, capacity: float) -> None:
        if not capacity >= 0:  # also rejects NaN
            raise ValidationError("cache capacity must be >= 0")
        self.capacity = capacity
        self.ledger = MemoryLedger(budget=capacity)
        self._entries: "OrderedDict[str, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def usage(self) -> float:
        return self.ledger.usage

    @property
    def peak_usage(self) -> float:
        return self.ledger.peak_usage

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._entries

    def get(self, table_id: str) -> bool:
        """Touch ``table_id``; True on hit (moves it to MRU position)."""
        if table_id in self._entries:
            self._entries.move_to_end(table_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def put(self, table_id: str, size: float) -> None:
        """Insert/refresh an entry, evicting LRU victims until it fits.

        Tables larger than the whole cache are not admitted (standard
        admission policy; avoids flushing everything for one giant table).
        """
        if size < 0:
            raise ValidationError("table size must be >= 0")
        if size > self.capacity:
            return
        if table_id in self._entries:
            self.ledger.credit(self._entries.pop(table_id))
        while self.usage + size > self.capacity and self._entries:
            _, victim_size = self._entries.popitem(last=False)
            self.ledger.credit(victim_size)
        self._entries[table_id] = size
        self.ledger.charge(size)


class LruBackend(ExecutionBackend):
    """Topological-order execution with an LRU result cache."""

    name = "lru"
    requires_plan = False

    def run(self, graph: DependencyGraph, plan: Plan | None,
            memory_budget: float, method: str = "lru") -> RunTrace:
        """Every node in topological order; all writes are blocking, so
        the run is durable when its last node ends."""
        if plan is not None:
            raise ValidationError("the LRU baseline does not take a plan")
        cache = LruCache(capacity=memory_budget)
        # the baseline ignores the Controller's runtime policy (it never
        # did apply compute_penalty): the kernel charges with defaults
        kernel = NodeKernel(graph, cache.ledger,
                            self.profile or DeviceProfile(),
                            SimulatorOptions(), bus=self.bus)
        storage, traces, clock = kernel.storage, kernel.traces, 0.0
        for node_id in kahn_topological_order(graph):
            self.check_cancelled(node_id)
            node = graph.node(node_id)
            trace = NodeTrace(node_id=node_id, start=clock)
            input_bytes = 0.0
            for parent in graph.parents(node_id):
                size = graph.size_of(parent)
                input_bytes += size
                if cache.get(parent):
                    duration = kernel.profile.read_time_memory(size)
                    trace.read_memory += duration
                    trace.cache_hits += 1
                else:
                    duration = storage.read_duration(size, clock)
                    trace.read_disk += duration
                    trace.cache_misses += 1
                    cache.put(parent, size)
                clock += duration
            clock = kernel.base_read_and_compute(node, input_bytes, trace,
                                                 clock)
            trace.write = storage.write_duration(node.size, clock)
            clock += trace.write
            cache.put(node_id, node.size)  # query results are cached
            trace.end = clock
            traces.append(trace)
            if self.bus.enabled:
                emit_node_events(self.bus, trace, "worker-0")
        return finish_run(cache.ledger, self.bus, traces, clock, clock,
                          memory_budget, method or "lru")
