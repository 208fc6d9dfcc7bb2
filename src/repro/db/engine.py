"""MiniDB: the query engine with per-statement timing breakdowns.

``MiniDB`` executes SELECT/CTAS statements against a
:class:`~repro.db.catalog.DatabaseCatalog`, timing the three phases the
paper's Figure 3 decomposes — reading inputs, compute, and writing the
result — with real wall clocks around real numpy/zlib work.

``SqlWorkload`` bundles a MiniDB with a list of MV definitions, extracts
the dependency DAG from their FROM/JOIN clauses, and (after a profiling
run) annotates that DAG with observed sizes and timings — the execution
metadata S/C's optimizer consumes (paper §III-A).

A statement text is parsed once (:func:`_parsed`) and bound against the
schemas of the tables it names before any of them is read
(:mod:`repro.db.planner`); building the DAG reads base-table sizes from
blob headers. So a refresh decodes a table only inside a query that
reads it, and then only the columns that query uses.
"""

# repro-lint: file-disable=REP001 -- MiniDB times real numpy/zlib phase work; nothing here runs on the simulated clock

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.db.catalog import DatabaseCatalog
from repro.db.planner import execute_select
from repro.db.sql import SelectStatement, parse_select
from repro.db.table import Table
from repro.errors import CatalogError, WorkloadError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile

_GB = 1024.0 ** 3


@dataclass
class StatementTiming:
    """Measured phases of one statement (seconds / bytes).

    ``bytes_read_disk`` / ``bytes_read_memory`` count the columns the
    statement read — a bound plan decodes only those — not the full
    size of the tables it names.
    """

    name: str
    read_seconds: float = 0.0
    compute_seconds: float = 0.0
    write_seconds: float = 0.0
    rows: int = 0
    output_bytes: int = 0
    bytes_read_disk: int = 0
    bytes_read_memory: int = 0

    @property
    def total_seconds(self) -> float:
        return self.read_seconds + self.compute_seconds + self.write_seconds


@lru_cache(maxsize=512)
def _parsed(sql: str) -> SelectStatement:
    """``parse_select``, once per statement text: a refresh runs the same
    definitions over and over, and nothing mutates the AST."""
    return parse_select(sql)


class _TimedSource:
    """The catalog as one statement's :class:`~repro.db.planner.TableSource`,
    charging what the statement reads to its ``timing``.

    A resident table is read in place (its schema from the live table,
    a scan a zero-copy ``select``); a persisted one is opened twice, for
    its blob header when the statement is bound and for the columns the
    bound plan asks for when it runs.  Both are read time, and the bytes
    counted are those of the columns read, not of the whole table.
    """

    def __init__(self, catalog: DatabaseCatalog, timing: StatementTiming):
        self.catalog = catalog
        self.timing = timing

    def _timed_read(self, read, *args):
        started = time.perf_counter()
        try:
            return read(*args)
        finally:
            self.timing.read_seconds += time.perf_counter() - started

    def column_names(self, name: str) -> Sequence[str]:
        if self.catalog.in_memory(name):
            return self.catalog.column_names(name)
        return self._timed_read(self.catalog.column_names, name)

    def scan(self, name: str, columns: Sequence[str]) -> Table:
        if self.catalog.in_memory(name):
            table = self.catalog.get_memory(name).select(columns)
            self.timing.bytes_read_memory += table.nbytes
            return table
        table = self._timed_read(self.catalog.load_persisted, name, columns)
        self.timing.bytes_read_disk += table.nbytes
        return table


class MiniDB:
    """A tiny columnar DBMS over one storage directory."""

    def __init__(self, directory: str):
        self.catalog = DatabaseCatalog(directory)

    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table,
                       persist: bool = True) -> None:
        """Install a base table (persisted by default, like TPC-DS loads)."""
        if persist:
            self.catalog.persist(name, table)
        else:
            self.catalog.put_memory(name, table)

    # ------------------------------------------------------------------
    def query(self, sql: str) -> tuple[Table, StatementTiming]:
        """Run a SELECT; returns the result and its timing breakdown."""
        timing = StatementTiming(name="<query>")
        statement = _parsed(sql)
        source = _TimedSource(self.catalog, timing)
        started = time.perf_counter()
        result = execute_select(statement, source)
        # The source's read time is folded into the same window; subtract
        # it so compute measures operator work only.
        timing.compute_seconds = (time.perf_counter() - started
                                  - timing.read_seconds)
        timing.rows = len(result)
        timing.output_bytes = result.nbytes
        return result, timing

    def ctas(self, name: str, sql: str,
             location: str = "disk") -> StatementTiming:
        """CREATE TABLE AS SELECT into disk or the memory catalog."""
        if location not in ("disk", "memory"):
            raise WorkloadError(
                f"CTAS location must be 'disk' or 'memory', got {location!r}")
        result, timing = self.query(sql)
        timing.name = name
        if location == "disk":
            started = time.perf_counter()
            self.catalog.persist(name, result)
            timing.write_seconds = time.perf_counter() - started
        else:
            self.catalog.put_memory(name, result)
        return timing

    def release_memory(self, name: str) -> None:
        self.catalog.evict_memory(name)

    def drop(self, name: str) -> None:
        self.catalog.drop(name)

    def table(self, name: str) -> Table:
        """Load a table from wherever it lives (memory preferred)."""
        if self.catalog.in_memory(name):
            return self.catalog.get_memory(name)
        if self.catalog.persisted(name):
            return self.catalog.load_persisted(name)
        raise CatalogError(f"unknown table {name!r}")


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MvDefinition:
    """One MV: output name + defining SELECT."""

    name: str
    sql: str


@dataclass
class SqlWorkload:
    """A set of interdependent MV definitions over a MiniDB.

    The dependency DAG comes straight from each definition's FROM/JOIN
    clauses: references to other MVs become edges, references to base
    tables become ``base_input_gb`` metadata.
    """

    db: MiniDB
    definitions: list[MvDefinition]
    _observed: dict[str, StatementTiming] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [d.name for d in self.definitions]
        if len(names) != len(set(names)):
            raise WorkloadError("duplicate MV names in workload")

    # ------------------------------------------------------------------
    def mv_names(self) -> set[str]:
        return {d.name for d in self.definitions}

    def graph(self) -> DependencyGraph:
        """Dependency DAG, annotated with observations when available."""
        mv_names = self.mv_names()
        graph = DependencyGraph()
        for definition in self.definitions:
            graph.add_node(definition.name, sql=definition.sql)
        for definition in self.definitions:
            for source in _parsed(definition.sql).referenced_tables():
                if source in mv_names:
                    if source == definition.name:
                        raise WorkloadError(
                            f"MV {definition.name!r} references itself")
                    graph.add_edge(source, definition.name)
        graph.validate()
        self._annotate(graph)
        return graph

    def _annotate(self, graph: DependencyGraph) -> None:
        if not self._observed:
            return
        mv_names = self.mv_names()
        for definition in self.definitions:
            timing = self._observed.get(definition.name)
            if timing is None:
                continue
            node = graph.node(definition.name)
            node.size = timing.output_bytes / _GB
            node.compute_time = timing.compute_seconds
            # the table's full decoded size, whatever the statement
            # reads of it — from the blob header, nothing is decoded
            base_bytes = sum(
                self.db.catalog.decoded_bytes(t)
                for t in _parsed(definition.sql).referenced_tables()
                if t not in mv_names)
            node.meta["base_input_gb"] = base_bytes / _GB

    # ------------------------------------------------------------------
    def profile(self, cost_model: DeviceProfile | None = None,
                cleanup: bool = True) -> DependencyGraph:
        """One observation run: execute every MV to disk, record metadata.

        This is the "previous MV refresh run" the paper's optimizer learns
        from. Returns the annotated graph with speedup scores computed from
        the measured write times and per-consumer read times.
        """
        graph = self.graph()
        from repro.graph.topo import kahn_topological_order

        order = kahn_topological_order(graph)
        by_name = {d.name: d for d in self.definitions}
        read_time: dict[str, float] = {}
        for name in order:
            timing = self.db.ctas(name, by_name[name].sql, location="disk")
            self._observed[name] = timing
            # Measure how long this MV's output takes to read back — the
            # per-consumer disk-read cost in the speedup formula.
            started = time.perf_counter()
            self.db.catalog.load_persisted(name)
            read_time[name] = time.perf_counter() - started

        graph = self.graph()  # re-annotate with fresh observations
        for name in order:
            node = graph.node(name)
            n_consumers = graph.out_degree(name)
            write_saving = self._observed[name].write_seconds
            node.score = max(0.0, n_consumers * read_time[name]
                             + write_saving)
        if cleanup:
            for name in order:
                self.db.drop(name)
        return graph


# ----------------------------------------------------------------------
def demo_workload(data_dir: str, rows: int = 120_000,
                  seed: int = 0) -> SqlWorkload:
    """A small six-MV SQL workload over one generated base table.

    The shared demo both the CLI ``minidb`` subcommand and the
    experiment orchestrator's MiniDB cells refresh: two filter chains
    and two aggregations over a generated ``events`` table, deep
    enough that a shrunken catalog genuinely spills.
    """
    import numpy as np

    from repro.db.table import Table

    db = MiniDB(data_dir)
    rng = np.random.default_rng(seed)
    db.register_table("events", Table({
        "user": rng.integers(0, 50, rows),
        "amount": rng.uniform(0, 10, rows),
    }))
    return SqlWorkload(db=db, definitions=[
        MvDefinition("mv_recent",
                     "SELECT user, amount FROM events WHERE amount > 1"),
        MvDefinition("mv_big",
                     "SELECT user, amount FROM mv_recent WHERE amount > 2"),
        MvDefinition("mv_spend",
                     "SELECT user, SUM(amount) AS spend "
                     "FROM mv_recent GROUP BY user"),
        MvDefinition("mv_whales",
                     "SELECT user, amount FROM mv_big WHERE amount > 5"),
        MvDefinition("mv_big_spend",
                     "SELECT user, SUM(amount) AS spend "
                     "FROM mv_big GROUP BY user"),
        MvDefinition("mv_vip",
                     "SELECT user, amount FROM mv_whales WHERE amount > 8"),
    ])
