"""A mini columnar DBMS — the real-execution substrate.

The paper's measurements that are *about the engine* rather than the
optimizer — the read/compute/write breakdown of Figure 3, the I/O ratios of
Table III — need genuine query execution with genuine (de)serialization and
compression. This package provides exactly enough DBMS to do that honestly:

* numpy-backed columnar :class:`~repro.db.table.Table`,
* relational operators (filter, project, hash join, group-by aggregate,
  sort, limit, union) in :mod:`~repro.db.operators`,
* a SQL subset (SELECT–JOIN–WHERE–GROUP BY–ORDER BY–LIMIT) with a
  recursive-descent parser (:mod:`~repro.db.sql`) and a binder/planner
  (:mod:`~repro.db.planner`),
* one compressed columnar table format, in memory and on disk
  (:mod:`~repro.db.columnar_codec`, :mod:`~repro.db.storage_format`),
* a catalog distinguishing disk-resident from memory-resident tables
  (:mod:`~repro.db.catalog`), and
* :class:`~repro.db.engine.MiniDB` tying it together with per-statement
  read/compute/write timings; :mod:`repro.exec.minidb`
  (``create_backend("minidb", workload=...)``) executes an S/C plan on it
  with real background materialization threads.
"""

from repro.db.table import Table
from repro.db.schema import ColumnSpec, TableSchema
from repro.db.engine import MiniDB, SqlWorkload, StatementTiming

__all__ = [
    "Table",
    "ColumnSpec",
    "TableSchema",
    "MiniDB",
    "SqlWorkload",
    "StatementTiming",
]
