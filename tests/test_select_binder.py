"""The binder of ``repro.db.planner``: what a bound plan reads, pushes
and names — and clock-free guards that the refresh path built on it
decodes, joins and parses only what it has to.

The guards count calls and rows, never seconds (the style of
``tests/test_victim_index.py``'s ``key()`` counters), on the 25-MV star
the wall-clock benchmark refreshes.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.db import columnar_codec, engine, operators, planner
from repro.db.engine import MiniDB, SqlWorkload
from repro.db.planner import WholeTables, bind_select, execute_sql
from repro.db.sql import parse_select
from repro.db.table import Table
from repro.engine.controller import Controller
from repro.errors import ExecutionError, PlanningError, SqlError, \
    ValidationError
from repro.workloads.tpcds import generate_tpcds_tables

from tests import reference_select

PERF_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"


def tables_source(**tables: Table) -> WholeTables:
    return WholeTables(tables.__getitem__)


def bind(sql: str, **schemas: list[str]):
    return bind_select(parse_select(sql), schemas.__getitem__)


# ----------------------------------------------------------------------
# qualified references
# ----------------------------------------------------------------------
A = Table({"k": np.array([1, 2, 3]), "x": np.array([10, 20, 30])})
B = Table({"k2": np.array([3, 1, 2]), "x": np.array([333, 111, 222])})


def test_qualified_reference_reads_the_table_it_names():
    """ISSUE 20's reproduction: the parent resolved ``b.x`` by testing
    ``x in available`` first and returned ``a.x`` twice."""
    sql = "SELECT a.x AS ax, b.x AS bx FROM a JOIN b ON k = k2"
    result = execute_sql(sql, tables_source(a=A, b=B))
    assert result.to_pylist() == [{"ax": 10, "bx": 111},
                                  {"ax": 20, "bx": 222},
                                  {"ax": 30, "bx": 333}]
    wrong = reference_select.execute_select(
        parse_select(sql), {"a": A, "b": B}.__getitem__)
    assert wrong["bx"].tolist() == [10, 20, 30]     # the bug, kept on file


def test_qualified_reference_equals_the_renamed_name():
    source = tables_source(a=A, b=B)
    qualified = execute_sql(
        "SELECT b.x AS v FROM a JOIN b ON k = k2 WHERE b.x > 111", source)
    renamed = execute_sql(
        "SELECT b_x AS v FROM a JOIN b ON k = k2 WHERE b_x > 111", source)
    assert qualified.equals(renamed)
    assert qualified["v"].tolist() == [222, 333]


def test_qualifier_naming_no_source_is_rejected():
    with pytest.raises(PlanningError, match="does not read"):
        execute_sql("SELECT c.x FROM a JOIN b ON k = k2",
                    tables_source(a=A, b=B))
    with pytest.raises(PlanningError, match="unknown column"):
        execute_sql("SELECT a.k2 FROM a JOIN b ON k = k2",
                    tables_source(a=A, b=B))


def test_dropped_right_key_is_the_left_key_it_equals():
    result = execute_sql("SELECT b.k2 AS key FROM a JOIN b ON a.k = b.k2",
                         tables_source(a=A, b=B))
    assert result["key"].tolist() == [1, 2, 3]


def test_join_key_must_come_from_its_side():
    with pytest.raises(PlanningError, match="unknown column"):
        execute_sql("SELECT x FROM a JOIN b ON k = a.k",
                    tables_source(a=A, b=B))


def test_double_collision_is_rejected_like_the_reference():
    a = Table({"k": np.arange(2), "x": np.arange(2), "b_x": np.arange(2)})
    sql = "SELECT k FROM a JOIN b ON k = k2"
    with pytest.raises(SqlError, match="disambiguate"):
        execute_sql(sql, tables_source(a=a, b=B))
    with pytest.raises(SqlError, match="disambiguate"):
        reference_select.execute_select(parse_select(sql),
                                        {"a": a, "b": B}.__getitem__)


# ----------------------------------------------------------------------
# what a bound plan reads, pushes and carries
# ----------------------------------------------------------------------
def test_plan_reads_only_what_the_statement_uses():
    plan = bind("SELECT p FROM t JOIN u ON k = uk WHERE q > 1 AND ux = 2 "
                "AND (r = 1 OR uy = 1)",
                t=["k", "p", "q", "r", "unused"],
                u=["uk", "ux", "uy", "unused"])
    fact, dim = plan.scans
    assert fact.columns == ("k", "p", "q", "r")
    assert dim.columns == ("uk", "ux", "uy")
    assert fact.filter.columns() == {"q"}       # pushed below the join
    assert dim.filter.columns() == {"ux"}
    assert plan.residual.columns() == {"r", "uy"}   # spans both sides
    (join,) = plan.joins
    assert (join.left_key, join.right_key) == ("k", "uk")
    assert join.left_columns == ("p", "r")      # the filter columns end here
    assert join.right_columns == {"uy": "uy"}


def test_output_names_come_from_the_full_schemas():
    """``x`` of ``u`` collides with a column of ``t`` the statement never
    reads; it is ``u_x`` all the same."""
    plan = bind("SELECT u_x FROM t JOIN u ON k = uk",
                t=["k", "x"], u=["uk", "x"])
    assert plan.scans[0].columns == ("k",)
    assert plan.joins[0].right_columns == {"x": "u_x"}
    with pytest.raises(PlanningError, match="unknown column"):
        bind("SELECT u_x FROM t JOIN u ON k = uk", t=["k"], u=["uk", "x"])


def test_star_reads_everything_and_count_star_one_column():
    assert bind("SELECT * FROM t WHERE p > 1",
                t=["k", "p", "q"]).scans[0].columns == ("k", "p", "q")
    assert bind("SELECT COUNT(*) AS n FROM t",
                t=["k", "p", "q"]).scans[0].columns == ("k",)
    counted = bind("SELECT COUNT(*) AS n FROM t JOIN u ON k = uk",
                   t=["k", "p"], u=["uk", "x"])
    assert counted.joins[0].left_columns == ("k",)  # a table needs a column
    assert counted.joins[0].right_columns == {}


def test_binding_happens_before_any_column_is_read():
    class SchemasOnly:
        def column_names(self, name):
            return ["k", "p"]

        def scan(self, name, columns):
            raise AssertionError("scanned before the statement was bound")

    with pytest.raises(PlanningError, match="unknown column ghost"):
        execute_sql("SELECT p FROM t WHERE ghost > 1", SchemasOnly())


# ----------------------------------------------------------------------
# the join's three strategies
# ----------------------------------------------------------------------
def reference_join(left, right):
    return reference_select.hash_join(left, right, "k", "rk",
                                      right_prefix="r")


@pytest.mark.parametrize("left_keys, right_keys, direct", [
    ([3, 1, 2, 2, 9], [1, 2, 3, 2], True),             # dense, many-to-many
    ([3, 1, 2], [1, 2, 3], True),                      # exactly once
    ([-7, 0, 5], [-3, -7, 5, 5], True),                # negatives, misses
    ([10**12, 5, 10**12], [5, 10**12], False),         # sparse span
    ([1.5, 2.5], [2.5, 1.5], False),                   # floats
    (["b", "a"], ["a", "b", "a"], False),              # strings
    ([], [1, 2], False), ([1, 2], [], False),          # empty sides
])
def test_join_strategy_follows_the_keys_and_rows_do_not(left_keys,
                                                        right_keys, direct):
    left_keys, right_keys = np.array(left_keys), np.array(right_keys)
    if not len(left_keys) or not len(right_keys):
        empty = left_keys if len(left_keys) else right_keys
        left_keys = left_keys.astype(empty.dtype)
        right_keys = right_keys.astype(empty.dtype)
    left = Table({"k": left_keys, "v": np.arange(len(left_keys))})
    right = Table({"rk": right_keys, "v": np.arange(len(right_keys)) * 10})
    assert (operators._direct_runs(left_keys, right_keys) is not None) \
        == direct
    joined = operators.hash_join(left, right, "k", "rk", right_prefix="r")
    expected = reference_join(left, right)
    assert joined.column_names == expected.column_names == ["k", "v", "r_v"]
    assert joined.equals(expected)
    assert [c.dtype for c in joined.columns().values()] == \
        [c.dtype for c in expected.columns().values()]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint32,
                                   np.int64, np.uint64])
def test_direct_addressing_is_exact_at_the_dtype_edges(dtype):
    info = np.iinfo(dtype)
    right_keys = np.array([info.max, info.max - 1, info.max], dtype=dtype)
    left_keys = np.array([info.min, info.max, info.max - 1, info.max - 2],
                         dtype=dtype)
    left = Table({"k": left_keys, "v": np.arange(4)})
    right = Table({"rk": right_keys, "w": np.arange(3)})
    assert (operators._direct_runs(left_keys, right_keys) is None) == \
        (dtype is np.uint64)
    assert operators.hash_join(left, right, "k", "rk").equals(
        reference_join(left, right))


def test_exactly_once_join_passes_left_columns_through():
    left = Table({"k": np.array([2, 0, 1]), "v": np.arange(3.0)})
    right = Table({"rk": np.array([0, 1, 2]), "w": np.array([5, 6, 7])})
    joined = operators.hash_join(left, right, "k", "rk")
    assert joined["v"] is left["v"]                 # no gather
    assert joined["w"].tolist() == [7, 5, 6]


# ----------------------------------------------------------------------
# pruned decode
# ----------------------------------------------------------------------
TABLE = Table({"a": np.arange(50), "b": np.arange(50) * 0.5,
               "c": np.array([f"s{i % 3}" for i in range(50)])})


@pytest.mark.parametrize("codec", columnar_codec.codec_names())
def test_pruned_decode_decodes_exactly_the_requested_columns(
        codec, monkeypatch):
    blob = columnar_codec.encode_table(TABLE, codec)
    decoded = []
    real = columnar_codec._decode_column
    monkeypatch.setattr(
        columnar_codec, "_decode_column",
        lambda entry, chunks, codec: decoded.append(entry["name"])
        or real(entry, chunks, codec))
    pruned = columnar_codec.decode_table(blob, columns=["c", "a"])
    assert decoded == ["a", "c"]
    assert pruned.column_names == ["c", "a"]        # the order asked for
    assert pruned.equals(TABLE.select(["c", "a"]))
    assert columnar_codec.decode_table(blob).equals(TABLE)
    with pytest.raises(ValidationError, match="unknown columns"):
        columnar_codec.decode_table(blob, columns=["a", "ghost"])


@pytest.mark.parametrize("codec", columnar_codec.codec_names())
def test_short_blob_is_caught_even_in_a_column_nobody_asked_for(codec):
    blob = columnar_codec.encode_table(TABLE, codec)
    with pytest.raises(ExecutionError, match="short"):
        columnar_codec.decode_table(blob[:-1], columns=["a"])
    with pytest.raises(ExecutionError, match="short"):
        columnar_codec.decode_table(blob[:-1], columns=["c"])


def test_header_answers_schema_and_size_without_the_payload(tmp_path):
    db = MiniDB(str(tmp_path))
    db.register_table("t", TABLE)
    blob = columnar_codec.encode_table(TABLE, "columnar")
    header = columnar_codec.read_header(
        blob[:columnar_codec.header_size(blob)])
    assert list(header.column_names) == TABLE.column_names
    assert header.decoded_nbytes == TABLE.nbytes
    assert db.catalog.column_names("t") == TABLE.column_names
    assert db.catalog.decoded_bytes("t") == TABLE.nbytes
    assert db.catalog.load_persisted("t", ["b"]).equals(TABLE.select(["b"]))


# ----------------------------------------------------------------------
# the 25-MV star
# ----------------------------------------------------------------------
def star_definitions():
    sys.path.insert(0, str(PERF_DIR))
    try:
        import inputs
        return inputs.star_definitions()
    finally:
        sys.path.remove(str(PERF_DIR))


@pytest.fixture(scope="module")
def star(tmp_path_factory):
    tables = generate_tpcds_tables(0.003, seed=20)
    db = MiniDB(str(tmp_path_factory.mktemp("star")))
    for name, table in tables.items():
        db.register_table(name, table)
    workload = SqlWorkload(db=db, definitions=star_definitions())
    graph = workload.profile()
    return tables, workload, graph


def test_graph_metadata_is_what_decoding_the_tables_gave(star):
    """``base_input_gb`` by the parent's formula — decode every base
    table, sum ``nbytes`` — equals what the blob headers say."""
    tables, workload, _ = star
    for name, table in tables.items():
        assert workload.db.catalog.decoded_bytes(name) == table.nbytes
    graph = workload.graph()
    for definition in workload.definitions:
        sources = parse_select(definition.sql).referenced_tables()
        decoded = sum(tables[t].nbytes for t in sources if t in tables)
        node = graph.node(definition.name)
        assert node.meta["base_input_gb"] == decoded / 1024.0 ** 3
        assert set(graph.parents(definition.name)) == \
            {t for t in sources if t not in tables}


def test_refresh_decodes_only_inside_queries(star, monkeypatch):
    """``graph()`` / ``_annotate`` read base-table sizes from blob
    headers: every decode and inflate of a refresh serves a query."""
    _, workload, graph = star
    inside_query = [False]
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name, inside_query[0]] += 1
            return real(*args, **kwargs)
        return wrapper

    real_query = MiniDB.query

    def query(self, sql):
        inside_query[0] = True
        try:
            return real_query(self, sql)
        finally:
            inside_query[0] = False

    monkeypatch.setattr(MiniDB, "query", query)
    monkeypatch.setattr(columnar_codec, "_decode_column", counting(
        "decode", columnar_codec._decode_column))
    monkeypatch.setattr(columnar_codec, "_column_bytes", counting(
        "inflate", columnar_codec._column_bytes))

    workload.graph()
    assert not calls                    # annotated, nothing decoded
    try:
        # roomy enough that nothing spills: read-backs of spill files
        # would be decodes outside a query, and legitimately so
        Controller().refresh_on_minidb(workload, 2.0 * graph.total_size())
    finally:
        for name in workload.mv_names():
            workload.db.drop(name)
    assert calls["decode", True] > 0 and calls["inflate", True] > 0
    assert calls["decode", False] == calls["inflate", False] == 0


def test_each_definition_is_parsed_once(star, monkeypatch, tmp_path):
    tables, _, _ = star
    parsed = Counter()
    real = engine.parse_select
    monkeypatch.setattr(
        engine, "parse_select",
        lambda sql: parsed.update([sql]) or real(sql))
    engine._parsed.cache_clear()
    db = MiniDB(str(tmp_path))
    for name, table in tables.items():
        db.register_table(name, table)
    workload = SqlWorkload(db=db, definitions=star_definitions())
    graph = workload.profile()
    Controller().refresh_on_minidb(workload, 2.0 * graph.total_size())
    workload.graph()
    assert set(parsed) == {d.sql for d in workload.definitions}
    assert set(parsed.values()) == {1}


def test_bulk_profit_joins_what_its_filters_leave(star, monkeypatch):
    """``x_bulk_profit`` keeps ~0.04 % of its join's pairs; both WHERE
    conjuncts are single-source, so the join must see only their
    survivors (the parent joined 777,405 rows at benchmark scale to keep
    300)."""
    tables, workload, _ = star
    db, by_name = workload.db, {d.name: d for d in workload.definitions}
    for name in ("store_enrich", "store_bulk", "catalog_enrich",
                 "catalog_profit"):
        db.ctas(name, by_name[name].sql, location="memory")
    joined = []
    real = operators.hash_join

    def counting_join(left, right, *args, **kwargs):
        result = real(left, right, *args, **kwargs)
        joined.append((len(left), len(right), len(result)))
        return result

    monkeypatch.setattr(planner, "hash_join", counting_join)
    try:
        result, timing = db.query(by_name["x_bulk_profit"].sql)
        bulk, profit = db.table("store_bulk"), db.table("catalog_profit")
    finally:
        for name in ("store_enrich", "store_bulk", "catalog_enrich",
                     "catalog_profit"):
            db.drop(name)
    pushed_left = int((bulk["ss_quantity"] > 98).sum())
    pushed_right = int((profit["cs_net_profit"] > 100).sum())
    assert joined == [(pushed_left, pushed_right, len(result))]
    assert len(result) <= pushed_left * pushed_right
    assert pushed_left < len(bulk) / 10 and pushed_right < len(profit)
    # and it read the two columns a side it uses, not the tables
    assert timing.bytes_read_memory == sum(
        table[name].nbytes for table, name in (
            (bulk, "ss_item_sk"), (bulk, "ss_quantity"),
            (profit, "cs_item_sk"), (profit, "cs_net_profit")))


@pytest.mark.parametrize("seed", [20, 21])
def test_star_mvs_are_bit_equal_to_the_reference_executor(seed, tmp_path):
    """Values, dtypes, column order and row order of all 25 MVs, each
    computed by both executors over the same parents."""
    db = MiniDB(str(tmp_path))
    for name, table in generate_tpcds_tables(0.003, seed=seed).items():
        db.register_table(name, table, persist=False)
    for definition in star_definitions():
        expected = reference_select.execute_select(
            parse_select(definition.sql), db.table)
        actual, _ = db.query(definition.sql)
        assert actual.column_names == expected.column_names
        for name in expected.column_names:
            assert actual[name].dtype == expected[name].dtype
            assert np.array_equal(actual[name], expected[name])
        db.register_table(definition.name, actual, persist=False)
