"""Tests for the on-disk format, catalog, and the real plan runner."""

import os

import numpy as np
import pytest

from repro.core.plan import Plan
from repro.db import columnar_codec, storage_format
from repro.db.catalog import DatabaseCatalog
from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
from repro.db.table import Table
from repro.errors import CatalogError, ExecutionError
from tests.conftest import run_workload


@pytest.fixture
def table() -> Table:
    rng = np.random.default_rng(1)
    return Table({
        "a": rng.integers(0, 100, 5000),
        "b": rng.uniform(0, 1, 5000),
    })


class TestStorageFormat:
    def test_round_trip(self, tmp_path, table):
        size = storage_format.write_table(table, str(tmp_path), "t")
        assert size > 0
        restored = storage_format.read_table(str(tmp_path), "t")
        assert restored.equals(table)

    def test_compression_shrinks(self, tmp_path):
        compressible = Table({"a": np.zeros(100_000, dtype=np.int64)})
        raw = storage_format.write_table(
            compressible, str(tmp_path), "r", codec="none")
        assert raw >= compressible.nbytes
        for codec in ("zlib", "zlib1", "columnar"):
            compressed = storage_format.write_table(
                compressible, str(tmp_path), "c", codec=codec)
            assert compressed < raw / 10, codec
        # the warehouse default compresses too
        assert storage_format.write_table(
            compressible, str(tmp_path), "d") < raw / 10

    def test_an_encoded_blob_is_written_verbatim(self, tmp_path, table):
        blob = columnar_codec.encode_table(table, "zlib1")
        size = storage_format.write_table(blob, str(tmp_path), "t")
        assert size == len(blob)
        with open(storage_format.table_path(str(tmp_path), "t"),
                  "rb") as handle:
            assert handle.read() == blob
        assert storage_format.read_table(str(tmp_path), "t").equals(table)

    def test_no_temporary_file_is_left(self, tmp_path, table):
        storage_format.write_table(table, str(tmp_path), "t")
        assert os.listdir(tmp_path) == [
            os.path.basename(storage_format.table_path(str(tmp_path), "t"))]

    def test_failed_write_keeps_the_old_file_whole(self, tmp_path, table,
                                                   monkeypatch):
        storage_format.write_table(table, str(tmp_path), "t")

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(storage_format.os, "replace", no_space)
        with pytest.raises(ExecutionError, match="failed to write"):
            storage_format.write_table(table.take(np.arange(10)),
                                       str(tmp_path), "t")
        monkeypatch.undo()
        assert len(os.listdir(tmp_path)) == 1      # no .tmp left
        assert storage_format.read_table(str(tmp_path), "t").equals(table)

    @pytest.mark.parametrize("codec", ["none", "zlib", "columnar"])
    def test_truncated_or_corrupt_file_is_an_execution_error(
            self, tmp_path, table, codec):
        storage_format.write_table(table, str(tmp_path), "t", codec=codec)
        path = storage_format.table_path(str(tmp_path), "t")
        with open(path, "rb") as handle:
            blob = handle.read()
        header_end = 8 + int.from_bytes(blob[4:8], "big")
        damaged = {
            "empty": b"",
            "magic only": blob[:4],
            "half a header": blob[:header_end // 2],
            "header only": blob[:header_end],
            "half the payload": blob[:(header_end + len(blob)) // 2],
            "one byte short": blob[:-1],
            "garbled header": blob[:8] + b"\xff" * 8 + blob[16:],
            "garbled payload": blob[:header_end] + bytes(
                b ^ 0x5A for b in blob[header_end:]),
        }
        for what, data in damaged.items():
            with open(path, "wb") as handle:
                handle.write(data)
            with pytest.raises(ExecutionError):
                storage_format.read_table(str(tmp_path), "t")
            with pytest.raises(ExecutionError):
                columnar_codec.decode_table(data)

    def test_missing_table(self, tmp_path):
        with pytest.raises(ExecutionError):
            storage_format.read_table(str(tmp_path), "ghost")
        assert storage_format.on_disk_size(str(tmp_path), "ghost") == 0

    def test_delete(self, tmp_path, table):
        storage_format.write_table(table, str(tmp_path), "t")
        storage_format.delete_table(str(tmp_path), "t")
        assert storage_format.on_disk_size(str(tmp_path), "t") == 0
        storage_format.delete_table(str(tmp_path), "t")  # idempotent


class TestDatabaseCatalog:
    def test_lifecycle(self, tmp_path, table):
        catalog = DatabaseCatalog(str(tmp_path))
        catalog.put_memory("m", table)
        assert catalog.in_memory("m")
        assert catalog.memory_bytes() == table.nbytes
        catalog.persist("m", table)
        assert catalog.persisted("m")
        catalog.evict_memory("m")
        assert not catalog.in_memory("m")
        assert catalog.persisted("m")
        catalog.drop("m")
        assert not catalog.exists("m")

    def test_discovers_existing_files(self, tmp_path, table):
        storage_format.write_table(table, str(tmp_path), "preexisting")
        catalog = DatabaseCatalog(str(tmp_path))
        assert catalog.persisted("preexisting")

    def test_stale_temporary_files_are_not_tables(self, tmp_path, table):
        """What an interrupted write left behind is removed, not adopted
        as a persisted table."""
        storage_format.write_table(table, str(tmp_path), "whole")
        torn = tmp_path / "torn.tmp"
        torn.write_bytes(columnar_codec.encode_table(table)[:100])
        catalog = DatabaseCatalog(str(tmp_path))
        assert catalog.tables() == ["whole"]
        assert not torn.exists()
        assert catalog.load_persisted("whole").equals(table)

    def test_errors(self, tmp_path, table):
        catalog = DatabaseCatalog(str(tmp_path))
        with pytest.raises(CatalogError):
            catalog.get_memory("ghost")
        with pytest.raises(CatalogError):
            catalog.evict_memory("ghost")
        catalog.put_memory("m", table)
        with pytest.raises(CatalogError):
            catalog.put_memory("m", table)


def build_workload(tmp_path) -> SqlWorkload:
    db = MiniDB(str(tmp_path / "wh"))
    rng = np.random.default_rng(2)
    n = 60_000
    db.register_table("facts", Table({
        "k": rng.integers(0, 50, n),
        "v": rng.uniform(0, 100, n),
    }))
    return SqlWorkload(db=db, definitions=[
        MvDefinition("mv_base", "SELECT k, v FROM facts WHERE v > 10"),
        MvDefinition("mv_agg",
                     "SELECT k, SUM(v) AS total FROM mv_base GROUP BY k"),
        MvDefinition("mv_top",
                     "SELECT k, total FROM mv_agg WHERE total > 0"),
        MvDefinition("mv_other",
                     "SELECT k, AVG(v) AS mean_v FROM mv_base GROUP BY k"),
    ])


class TestRunWorkload:
    def test_all_mvs_persisted_and_budget_respected(self, tmp_path):
        workload = build_workload(tmp_path)
        graph = workload.profile()
        budget = 2 * max(graph.sizes().values())
        plan = Plan.make(
            ["mv_base", "mv_agg", "mv_top", "mv_other"],
            {"mv_base", "mv_agg"})
        trace = run_workload(workload, plan, budget, method="sc")
        db = workload.db
        for definition in workload.definitions:
            assert db.catalog.persisted(definition.name)
            assert not db.catalog.in_memory(definition.name)
        assert trace.peak_catalog_usage <= budget + 1e-9
        assert trace.end_to_end_time > 0
        assert len(trace.nodes) == 4

    def test_results_match_unoptimized_run(self, tmp_path):
        workload = build_workload(tmp_path)
        graph = workload.profile()
        order = ["mv_base", "mv_agg", "mv_top", "mv_other"]

        run_workload(workload, Plan.unoptimized(order), 0.0)
        reference = {
            name: workload.db.table(name)
            for name in order
        }
        for name in order:
            workload.db.drop(name)

        budget = 2 * max(graph.sizes().values())
        run_workload(workload, Plan.make(order, {"mv_base", "mv_agg"}),
                     budget)
        for name in order:
            assert workload.db.table(name).equals(reference[name]), name

    def test_unknown_mv_rejected(self, tmp_path):
        workload = build_workload(tmp_path)
        with pytest.raises(ExecutionError):
            run_workload(workload,
                         Plan.unoptimized(["ghost", "mv_base", "mv_agg",
                                           "mv_top"]),
                         0.0)

    def test_zero_budget_spills_everything(self, tmp_path):
        workload = build_workload(tmp_path)
        order = ["mv_base", "mv_agg", "mv_top", "mv_other"]
        trace = run_workload(workload,
                             Plan.make(order, {"mv_base"}), 0.0)
        assert trace.peak_catalog_usage == 0.0
        assert trace.nodes[0].write > 0  # spilled, blocking write
