"""Tests for the SQL planner and the MiniDB engine."""

import numpy as np
import pytest

from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
from repro.db.planner import WholeTables, execute_sql
from repro.db.table import Table
from repro.errors import CatalogError, PlanningError, WorkloadError


@pytest.fixture
def db(tmp_path) -> MiniDB:
    db = MiniDB(str(tmp_path / "warehouse"))
    rng = np.random.default_rng(0)
    db.register_table("sales", Table({
        "item_id": rng.integers(0, 20, 500),
        "qty": rng.integers(1, 10, 500),
        "price": rng.uniform(1.0, 50.0, 500),
    }))
    db.register_table("items", Table({
        "item_id": np.arange(20),
        "category": np.arange(20) % 4,
    }))
    return db


def resolver_for(db):
    return WholeTables(db.table)


class TestPlanner:
    def test_join_where_group(self, db):
        result = execute_sql(
            "SELECT category, SUM(qty) AS total FROM sales "
            "JOIN items ON item_id = item_id WHERE qty > 5 "
            "GROUP BY category ORDER BY category",
            resolver_for(db))
        assert result.column_names == ["category", "total"]
        assert result["category"].tolist() == [0, 1, 2, 3]

    def test_matches_numpy_oracle(self, db):
        result = execute_sql(
            "SELECT SUM(price * qty) AS revenue FROM sales",
            resolver_for(db))
        sales = db.table("sales")
        expected = float((sales["price"] * sales["qty"]).sum())
        assert result["revenue"][0] == pytest.approx(expected)

    def test_select_star(self, db):
        result = execute_sql("SELECT * FROM items", resolver_for(db))
        assert result.column_names == ["item_id", "category"]
        assert len(result) == 20

    def test_qualified_name_resolution(self, db):
        result = execute_sql(
            "SELECT items.category FROM sales "
            "JOIN items ON sales.item_id = items.item_id LIMIT 3",
            resolver_for(db))
        assert result.column_names == ["category"]

    def test_unknown_column_rejected(self, db):
        with pytest.raises(PlanningError, match="unknown column"):
            execute_sql("SELECT ghost FROM items", resolver_for(db))

    def test_non_grouped_output_rejected(self, db):
        with pytest.raises(PlanningError):
            execute_sql(
                "SELECT qty, SUM(price) AS s FROM sales GROUP BY item_id",
                resolver_for(db))

    def test_order_by_must_be_in_output(self, db):
        with pytest.raises(PlanningError):
            execute_sql("SELECT category FROM items ORDER BY item_id",
                        resolver_for(db))


class TestMiniDB:
    def test_ctas_to_disk_and_read_back(self, db):
        timing = db.ctas("by_cat",
                         "SELECT category, COUNT(*) AS n FROM items "
                         "GROUP BY category")
        assert timing.write_seconds > 0
        assert timing.rows == 4
        table = db.table("by_cat")
        assert table["n"].sum() == 20

    def test_ctas_to_memory(self, db):
        timing = db.ctas("mem_table", "SELECT * FROM items",
                         location="memory")
        assert timing.write_seconds == 0.0
        assert db.catalog.in_memory("mem_table")
        db.catalog.persist("mem_table", db.catalog.get_memory("mem_table"))
        assert db.catalog.persisted("mem_table")
        db.release_memory("mem_table")
        assert not db.catalog.in_memory("mem_table")

    def test_ctas_bad_location(self, db):
        with pytest.raises(WorkloadError):
            db.ctas("x", "SELECT * FROM items", location="tape")

    def test_reads_prefer_memory(self, db):
        db.ctas("cached", "SELECT * FROM items", location="memory")
        _, timing = db.query("SELECT COUNT(*) AS n FROM cached")
        assert timing.bytes_read_memory > 0
        assert timing.bytes_read_disk == 0

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.table("ghost")


class TestSqlWorkload:
    def make_workload(self, db) -> SqlWorkload:
        return SqlWorkload(db=db, definitions=[
            MvDefinition("mv_enriched",
                         "SELECT item_id, qty, price, category FROM sales "
                         "JOIN items ON item_id = item_id"),
            MvDefinition("mv_by_cat",
                         "SELECT category, SUM(price) AS revenue "
                         "FROM mv_enriched GROUP BY category"),
            MvDefinition("mv_top",
                         "SELECT category, revenue FROM mv_by_cat "
                         "WHERE revenue > 0"),
        ])

    def test_graph_extraction(self, db):
        workload = self.make_workload(db)
        graph = workload.graph()
        assert graph.n == 3
        assert graph.has_edge("mv_enriched", "mv_by_cat")
        assert graph.has_edge("mv_by_cat", "mv_top")

    def test_duplicate_names_rejected(self, db):
        with pytest.raises(WorkloadError):
            SqlWorkload(db=db, definitions=[
                MvDefinition("a", "SELECT * FROM items"),
                MvDefinition("a", "SELECT * FROM items"),
            ])

    def test_self_reference_rejected(self, db):
        workload = SqlWorkload(db=db, definitions=[
            MvDefinition("loop", "SELECT * FROM loop")])
        with pytest.raises(WorkloadError):
            workload.graph()

    def test_profile_annotates_graph(self, db):
        workload = self.make_workload(db)
        graph = workload.profile()
        assert graph.size_of("mv_enriched") > 0
        assert graph.node("mv_enriched").compute_time is not None
        assert graph.node("mv_enriched").meta["base_input_gb"] > 0
        assert graph.score_of("mv_enriched") > 0
        # profile cleans up the created MVs
        assert not db.catalog.persisted("mv_enriched")
