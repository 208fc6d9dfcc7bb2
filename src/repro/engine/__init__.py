"""Execution substrate: the S/C Controller and its simulated warehouse.

The paper runs S/C as a Python front-end over a Presto cluster backed by a
Hive metastore on NFS. Offline, we substitute a **discrete-event refresh
simulator** driven by the same per-node metadata the paper's optimizer
consumes (sizes, compute times) and a calibrated device model
(:class:`~repro.metadata.costmodel.DeviceProfile`). The simulator reproduces
the mechanics of §III-C exactly:

* nodes execute serially in plan order;
* inputs are read from the Memory Catalog when the producer is flagged and
  resident, otherwise from storage;
* flagged outputs are created in memory and materialized to storage in the
  background, overlapped with downstream compute;
* a flagged node leaves memory only after its last consumer finishes *and*
  its materialization completes;
* the run ends when every MV is durable on storage.

Those mechanics live once, in :class:`repro.exec.kernel.NodeKernel`, and
execution is dispatched through the unified backend layer in
:mod:`repro.exec`: the serial simulator above, the plan-free LRU baseline,
the memory-bounded **parallel scheduler** (``backend="parallel"``,
``workers=N``), and the real mini columnar DBMS in :mod:`repro.db` with
genuine disk I/O all implement one ``ExecutionBackend`` protocol and share
one :class:`~repro.exec.ledger.MemoryLedger` for budget accounting.  This
package keeps what sits around the backends: the Controller, the storage
device model, the trace types, adaptive re-planning and cluster scaling.
"""

from repro.engine.storage import StorageDevice
from repro.engine.trace import NodeTrace, RunTrace
from repro.exec.base import SimulatorOptions
from repro.engine.controller import Controller
from repro.engine.adaptive import AdaptiveController, AdaptiveRunReport
from repro.engine.cluster import simulate_cluster_run

__all__ = [
    "StorageDevice",
    "NodeTrace",
    "RunTrace",
    "SimulatorOptions",
    "Controller",
    "AdaptiveController",
    "AdaptiveRunReport",
    "simulate_cluster_run",
]
