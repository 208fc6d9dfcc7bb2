"""``repro.exec`` — the unified execution layer.

Every way this repo can *run* a refresh plan lives behind one protocol:

* :class:`~repro.exec.base.ExecutionBackend` — every backend's ``run``;
  the serial simulator alone inherits its template and steps through
  three hooks (``prepare`` / ``execute_node`` / ``finish``) over a
  :class:`~repro.exec.base.SerialRun`;
* :class:`~repro.exec.ledger.MemoryLedger` — the shared, thread-safe
  budget accountant: byte accounting, peak tracking, the consumer-count +
  materialization-hold release protocol, and dispatch-time reservations
  for concurrent admission control;
* :class:`~repro.exec.kernel.NodeKernel` — the one modeled per-node
  lifecycle (§III-C) every model-charging backend runs, and the one run
  epilogue;
* a lazy **registry** (:func:`~repro.exec.base.create_backend`) the
  Controller dispatches on by name.

Built-in backends:

===========  ==========================================================
name         executor
===========  ==========================================================
simulator    serial discrete-event simulator (paper §III-C mechanics)
lru          LRU result-cache baseline (paper §VI-A; plan-free)
parallel     memory-bounded parallel scheduler: worker pool over ready
             DAG nodes in plan order, ledger admission control,
             deterministic logical clocks
minidb       the real MiniDB columnar engine with genuine disk I/O and
             a small pool of background materializer threads
===========  ==========================================================

Backends short on RAM can swap the plain ledger for the
:class:`~repro.store.tiered.TieredLedger` facade from :mod:`repro.store`
— same admission/release protocol, but entries that do not fit demote to
spill tiers (SSD/disk) instead of blocking; the simulators arm it via
``SimulatorOptions(spill=...)`` and MiniDB via ``spill_dir=``.
"""

from repro.exec.base import (
    ExecutionBackend,
    backend_names,
    create_backend,
    get_backend,
    register_backend,
)
from repro.exec.ledger import MemoryLedger

__all__ = [
    "ExecutionBackend",
    "MemoryLedger",
    "backend_names",
    "create_backend",
    "get_backend",
    "register_backend",
]
