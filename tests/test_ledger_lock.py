"""Which lock each backend's ledger gets, and how often a call takes it.

A ledger that only the run's own thread touches (the serial, parallel
discrete-event and LRU simulators) locks with ``NoLock``; MiniDB, whose
drains run on threads of their own, keeps a re-entrant lock.
``create_backend`` makes the choice; nothing else can.  The service,
which is no backend, builds its shared ledger with the re-entrant lock
too.  Built that way, a public call on the kernel's read, release and
admission paths acquires it once, and nothing nests inside.
"""

import threading

import numpy as np
import pytest

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.db import MiniDB, SqlWorkload, Table
from repro.db.engine import MvDefinition
from repro.engine.controller import Controller
from repro.exec import create_backend
from repro.exec.kernel import NodeKernel
from repro.exec.ledger import MemoryLedger, NoLock
from repro.exec.lru import LruCache
from repro.exec.minidb import _MiniDbRun
from repro.exec.simulator import SerialSimulatorBackend
from repro.graph.dag import DependencyGraph
from repro.serve import RefreshService, ServiceConfig, TenantSpec
from repro.store.config import SpillConfig, TierSpec
from repro.engine import SimulatorOptions
from repro.workloads import GeneratedWorkloadConfig, generate_workload

RLOCK = type(threading.RLock())


def _chain():
    graph = DependencyGraph()
    for node_id in "abc":
        graph.add_node(node_id, size=1.0, score=1.0, compute_time=0.0)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    return graph, Plan.make("abc", {"a", "b"})


def _locks(ledger):
    tiers = getattr(ledger, "tiers", None)
    if tiers is None:
        return [ledger._lock]
    return [tier.ledger._lock for tier in tiers]


_TIERED = SimulatorOptions(spill=SpillConfig(
    tiers=(TierSpec("ssd", 2.0), TierSpec("disk"))))


@pytest.mark.parametrize("name,workers,options", [
    ("simulator", 1, None),
    ("simulator", 1, _TIERED),
    ("parallel", 1, _TIERED),
    ("parallel", 3, _TIERED),
    ("parallel", 3, None),
])
def test_discrete_event_simulators_lock_nothing(name, workers, options,
                                                monkeypatch):
    """Read off the kernel each run builds, so the scheduler (which has
    no ``prepare``) is checked the same way as the serial simulator."""
    graph, plan = _chain()
    kernels = []
    for_run = NodeKernel.for_run

    def spy(*args, **kwargs):
        kernels.append(for_run(*args, **kwargs))
        return kernels[-1]

    monkeypatch.setattr(NodeKernel, "for_run", spy)
    backend = create_backend(name, workers=workers, options=options)
    assert backend.run(graph, plan, 2.0).nodes
    [kernel] = kernels
    locks = _locks(kernel.ledger)
    assert len(locks) == (3 if options else 1)
    assert all(isinstance(lock, NoLock) for lock in locks)


def _spy_on_init(monkeypatch, cls):
    """Every instance of ``cls`` built while the spy is on."""
    built = []
    init = cls.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", spy)
    return built


def test_lru_baseline_locks_nothing(monkeypatch):
    graph, _ = _chain()
    caches = _spy_on_init(monkeypatch, LruCache)
    assert create_backend("lru").run(graph, None, 2.0).nodes
    [cache] = caches
    assert isinstance(cache.ledger._lock, NoLock)


def test_service_keeps_the_reentrant_lock():
    service = RefreshService(
        ServiceConfig(ram_budget_gb=2.0, spill=_TIERED.spill),
        [TenantSpec("solo", 1.0)])
    locks = _locks(service.ledger)
    assert len(locks) == 3
    assert all(isinstance(lock, RLOCK) for lock in locks)


def test_minidb_keeps_the_reentrant_lock(tmp_path, monkeypatch):
    db = MiniDB(str(tmp_path / "wh"))
    db.register_table("t", Table({"k": np.arange(100)}))
    workload = SqlWorkload(db=db, definitions=[
        MvDefinition("mv", "SELECT k FROM t WHERE k > 3")])
    plan = Plan.make(["mv"], {"mv"})
    runs = _spy_on_init(monkeypatch, _MiniDbRun)
    for extra in ({}, {"spill_dir": str(tmp_path / "spill")}):
        backend = create_backend("minidb", workload=workload, **extra)
        assert backend.run(workload.graph(), plan, 1.0).nodes
        locks = _locks(runs[-1].ledger)
        assert len(locks) == (2 if extra else 1)
        assert all(isinstance(lock, RLOCK) for lock in locks)
    assert len(runs) == 2


def test_only_create_backend_chooses():
    # a backend built by hand is not known to be single-threaded
    graph, plan = _chain()
    ledger = SerialSimulatorBackend().prepare(graph, plan, 2.0).kernel.ledger
    assert isinstance(ledger._lock, RLOCK)
    assert isinstance(MemoryLedger(1.0)._lock, RLOCK)


# -- how often a public call takes the lock ---------------------------

class _Tally:
    """Acquisitions of every lock of one ledger, and how deep they
    nested since the last reset."""

    def __init__(self):
        self.acquired = self.depth = self.deepest = 0


class _CountingRLock:
    """An ``RLock`` that reports to a shared :class:`_Tally`."""

    def __init__(self, tally):
        self._lock = threading.RLock()
        self._tally = tally

    def acquire(self, blocking=True, timeout=-1):
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            tally = self._tally
            tally.acquired += 1
            tally.depth += 1
            tally.deepest = max(tally.deepest, tally.depth)
        return acquired

    def release(self):
        self._tally.depth -= 1
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


def _counted_run(ram_fraction, paths):
    """A serial tiered run at ``ram_fraction`` of the no-spill peak on
    a ledger built with counting RLocks: per public call in ``paths``,
    the ``(acquisitions, deepest nesting)`` pairs it made."""
    graph = generate_workload(GeneratedWorkloadConfig(n_nodes=80), seed=3)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="greedy+madfs", seed=0).plan
    peak = Controller().refresh(graph, budget, plan=plan).peak_catalog_usage
    spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                               TierSpec("disk")),
                        codec="zlib", prefetch=True)
    tally = _Tally()
    backend = SerialSimulatorBackend(options=SimulatorOptions(spill=spill))
    backend.ledger_lock = lambda: _CountingRLock(tally)
    run = backend.prepare(graph, plan, ram_fraction * peak)
    ledger, seen = run.kernel.ledger, {name: [] for name in paths}
    for name in paths:
        def counted(*args, _call=getattr(ledger, name), _seen=seen[name],
                    **kwargs):
            before, tally.deepest = tally.acquired, 0
            result = _call(*args, **kwargs)
            _seen.append((tally.acquired - before, tally.deepest))
            return result
        setattr(ledger, name, counted)
    for node_id in plan.order:
        backend.execute_node(run, node_id)
    spills = backend.finish(run).extras["tiered_store"]["spill_count"]
    return seen, spills


def test_fit_run_takes_each_lock_once_per_public_call():
    """Read (``note_read``), release (``consumer_done``,
    ``materialized``) and admission (``fits``, ``spill_insert``): one
    acquisition per call, none nested inside it."""
    seen, spills = _counted_run(1.0, ("note_read", "consumer_done",
                                      "materialized", "fits",
                                      "spill_insert"))
    assert spills == 0
    for name, calls in seen.items():
        assert calls, f"{name} never ran"
        assert set(calls) == {(1, 1)}, name


def test_spilled_reads_and_releases_still_take_one_lock():
    """Below RAM too, a read or a release reaches the tier ledger's
    core under the RAM lock alone.  Demotions and promotes may nest
    RAM -> tier (``tests/lockorder.py`` audits that order)."""
    seen, spills = _counted_run(0.25, ("note_read", "tier_read_seconds",
                                       "consumer_done", "materialized"))
    assert spills > 0
    assert seen["tier_read_seconds"], "no parent was read below RAM"
    for name, calls in seen.items():
        assert set(calls) == {(1, 1)}, name
