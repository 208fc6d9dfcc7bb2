"""Which lock each backend's ledger gets.

A ledger that only the run's own thread touches (the serial, parallel
discrete-event and LRU simulators) locks with ``NoLock``; the backends
with threads of their own — MiniDB's drains and the service — keep a
re-entrant lock.  ``create_backend`` makes the choice; nothing else
can.
"""

import threading

import numpy as np
import pytest

from repro.core.plan import Plan
from repro.db import MiniDB, SqlWorkload, Table
from repro.db.engine import MvDefinition
from repro.exec import create_backend
from repro.exec.ledger import MemoryLedger, NoLock
from repro.exec.simulator import SerialSimulatorBackend
from repro.graph.dag import DependencyGraph
from repro.store.config import SpillConfig, TierSpec
from repro.engine import SimulatorOptions

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
def test_discrete_event_simulators_lock_nothing(name, workers, options):
    graph, plan = _chain()
    backend = create_backend(name, workers=workers, options=options)
    ledger = backend.prepare(graph, plan, 2.0).ledger
    locks = _locks(ledger)
    assert len(locks) == (3 if options else 1)
    assert all(isinstance(lock, NoLock) for lock in locks)
    backend = create_backend(name, workers=workers, options=options)
    assert backend.run(graph, plan, 2.0).nodes


def test_lru_baseline_locks_nothing():
    graph, _ = _chain()
    backend = create_backend("lru")
    assert isinstance(backend.prepare(graph, None, 2.0).ledger._lock,
                      NoLock)


def test_service_keeps_the_reentrant_lock():
    graph, plan = _chain()
    backend = create_backend("service", options=_TIERED)
    ledger = backend.prepare(graph, plan, 2.0).ledger
    assert all(isinstance(lock, RLOCK) for lock in _locks(ledger))


def test_minidb_keeps_the_reentrant_lock(tmp_path):
    db = MiniDB(str(tmp_path / "wh"))
    db.register_table("t", Table({"k": np.arange(100)}))
    workload = SqlWorkload(db=db, definitions=[
        MvDefinition("mv", "SELECT k FROM t WHERE k > 3")])
    plan = Plan.make(["mv"], {"mv"})
    for extra in ({}, {"spill_dir": str(tmp_path / "spill")}):
        backend = create_backend("minidb", workload=workload, **extra)
        ctx = backend.prepare(workload.graph(), plan, 1.0)
        try:
            locks = _locks(ctx.ledger)
            assert len(locks) == (2 if extra else 1)
            assert all(isinstance(lock, RLOCK) for lock in locks)
        finally:
            backend.finish(ctx)


def test_only_create_backend_chooses():
    # a backend built by hand is not known to be single-threaded
    graph, plan = _chain()
    ledger = SerialSimulatorBackend().prepare(graph, plan, 2.0).ledger
    assert isinstance(ledger._lock, RLOCK)
    assert isinstance(MemoryLedger(1.0)._lock, RLOCK)
