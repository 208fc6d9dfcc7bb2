"""The MiniDB backend's drain path, held by clock-free guards.

* a table is compressed at most once per refresh, whoever needs the
  bytes first (the drain job, the rung, a compressed spill dump);
* background writes are drained by a small fixed pool: live drain
  threads never exceed it and none survives the run — finished, failed
  or cancelled;
* a background write that fails fails the run with an
  ``ExecutionError`` naming the MV before the only copy is evicted.
"""

import hashlib
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.plan import Plan
from repro.db import columnar_codec, storage_format
from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
from repro.db.table import Table
from repro.engine.controller import Controller
from repro.errors import ExecutionError, RunCancelledError
from repro.exec import create_backend
from repro.exec import minidb as minidb_backend
from repro.exec.minidb import _MiniDbRun
from repro.store import SpillConfig


def drain_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("materialize")]


def fingerprint(table: Table) -> str:
    digest = hashlib.sha1()
    for name, column in table.columns().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


@pytest.fixture
def workload(tmp_path) -> SqlWorkload:
    """Five MVs with pairwise different contents over one base table."""
    db = MiniDB(str(tmp_path / "wh"))
    rng = np.random.default_rng(3)
    n = 80_000
    db.register_table("events", Table({
        "user": rng.integers(0, 50, n),
        "amount": rng.uniform(0, 10, n),
    }))
    return SqlWorkload(db=db, definitions=[
        MvDefinition("mv_a", "SELECT user, amount FROM events "
                             "WHERE amount > 1"),
        MvDefinition("mv_b", "SELECT user, amount FROM mv_a "
                             "WHERE amount > 2"),
        MvDefinition("mv_c", "SELECT user, SUM(amount) AS s "
                             "FROM mv_a GROUP BY user"),
        MvDefinition("mv_d", "SELECT user, amount FROM mv_b "
                             "WHERE amount > 3"),
        MvDefinition("mv_e", "SELECT user, SUM(amount) AS t "
                             "FROM mv_b GROUP BY user"),
    ])


def tight_plan(workload):
    """A plan made for plenty of memory and a RAM budget that forces
    real spills while it runs."""
    profiled = workload.profile()
    plan = Controller().plan(profiled, 1000.0, method="sc")
    assert plan.flagged
    ram = 1.1 * max(profiled.size_of(n) for n in plan.flagged)
    return plan, ram


# ----------------------------------------------------------------------
class TestEncodeOnce:
    @pytest.mark.parametrize("cell", ["rung", "zlib"])
    def test_every_mv_is_compressed_exactly_once(self, workload, tmp_path,
                                                 monkeypatch, cell):
        plan, ram = tight_plan(workload)
        encoded: list[str] = []         # list.append is atomic
        real = columnar_codec.encode_chunks

        def counting(table, codec="zlib1"):
            encoded.append(fingerprint(table))
            return real(table, codec)

        # encode_table and write_table both go through encode_chunks
        monkeypatch.setattr(columnar_codec, "encode_chunks", counting)
        controller = Controller(
            spill_dir=str(tmp_path / "spill"),
            spill=SpillConfig(codec="zlib" if cell == "zlib" else "none"),
            ram_compressed_gb=ram if cell == "rung" else 0.0)
        trace = controller.refresh_on_minidb(workload, ram, plan=plan)
        monkeypatch.undo()

        report = trace.extras["tiered_store"]
        assert report["spill_count"] > 0
        assert report["spill_stored_gb"] < report["spill_bytes_gb"]
        assert os.listdir(tmp_path / "spill") == []
        for name in workload.mv_names():
            assert workload.db.catalog.persisted(name)
            times = encoded.count(fingerprint(workload.db.table(name)))
            assert times == 1, f"{name} was encoded {times} times"
        assert len(encoded) == len(workload.mv_names())

    def test_one_encode_however_many_threads_ask(self, monkeypatch):
        """The cell itself, under contention: eight askers and the pool
        job get the same bytes from a single encode."""
        table = Table({"k": np.arange(50_000) % 7,
                       "v": np.linspace(0.0, 1.0, 50_000)})
        persisted = []

        class Catalog:
            def persist(self, name, blob):
                persisted.append((name, blob))

        calls = []
        real = columnar_codec.encode_table

        def counting(table, codec="zlib1"):
            calls.append(codec)
            return real(table, codec)

        monkeypatch.setattr(columnar_codec, "encode_table", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                del calls[:], persisted[:]
                gate = threading.Barrier(9)
                blobs = []

                def ask(codec):
                    gate.wait(timeout=30)
                    blobs.append(drain.blob(codec))

                with ThreadPoolExecutor(max_workers=1) as pool:
                    askers = [threading.Thread(target=ask, args=(codec,))
                              for codec in ("zlib1", "zlib") * 4]
                    for asker in askers:
                        asker.start()
                    drain = minidb_backend._Drain(pool, Catalog(), "t",
                                                  table)
                    gate.wait(timeout=30)
                    for asker in askers:
                        asker.join(timeout=30)
                        assert not asker.is_alive()
                    drain.future.result(timeout=30)
                assert len(calls) == 1
                assert len(blobs) == 8
                assert all(blob is drain.encoded for blob in blobs)
                assert persisted == [("t", drain.encoded)]
                assert columnar_codec.decode_table(
                    drain.encoded).equals(table)
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
def star_of_25(tmp_path) -> tuple[SqlWorkload, Plan]:
    """A root, twelve filters over it, a group-by over each filter —
    all 25 flagged, so every one of them is drained in the background."""
    db = MiniDB(str(tmp_path / "wh25"))
    rng = np.random.default_rng(5)
    n = 20_000
    db.register_table("facts", Table({
        "k": rng.integers(0, 40, n),
        "v": rng.uniform(0, 100, n),
    }))
    definitions = [MvDefinition("root", "SELECT k, v FROM facts "
                                        "WHERE v > 1")]
    for i in range(12):
        definitions.append(MvDefinition(
            f"f{i:02d}", f"SELECT k, v FROM root WHERE v > {5 * i + 2}"))
        definitions.append(MvDefinition(
            f"g{i:02d}",
            f"SELECT k, SUM(v) AS s FROM f{i:02d} GROUP BY k"))
    names = [d.name for d in definitions]
    return SqlWorkload(db=db, definitions=definitions), \
        Plan.make(names, names)


class TestDrainPool:
    def test_live_drain_threads_never_exceed_the_pool(self, tmp_path,
                                                      monkeypatch):
        workload, plan = star_of_25(tmp_path)
        workload.profile()
        assert drain_threads() == []
        seen: list[int] = []
        real = storage_format.write_table

        def watching(table, directory, name, codec="columnar"):
            seen.append(len(drain_threads()))
            return real(table, directory, name, codec)

        monkeypatch.setattr(storage_format, "write_table", watching)
        run_node = _MiniDbRun.run_node

        def at_the_boundary(run, node_id):
            run_node(run, node_id)
            seen.append(len(drain_threads()))

        monkeypatch.setattr(_MiniDbRun, "run_node", at_the_boundary)
        backend = create_backend("minidb", workload=workload)
        trace = backend.run(workload.graph(), plan, 1000.0)
        assert len(seen) == 50          # 25 drains + 25 node boundaries
        assert 1 <= max(seen) <= minidb_backend._DRAIN_WORKERS
        assert drain_threads() == []    # none survives finish
        assert all(node.flagged and node.write == 0 for node in trace.nodes)
        for name in plan.order:
            assert workload.db.catalog.persisted(name)
            assert not workload.db.catalog.in_memory(name)

    def test_cancelled_run_leaves_no_thread_and_no_spill_file(
            self, workload, tmp_path, monkeypatch):
        plan, ram = tight_plan(workload)
        cancel = threading.Event()
        real = storage_format.write_table
        warehouse = workload.db.catalog.directory

        def cancelling(table, directory, name, codec="columnar"):
            if directory == warehouse and name == plan.order[2]:
                cancel.set()
            return real(table, directory, name, codec)

        monkeypatch.setattr(storage_format, "write_table", cancelling)
        spill_dir = tmp_path / "spill"
        backend = create_backend(
            "minidb", workload=workload, cancel=cancel,
            spill_dir=str(spill_dir), spill_codec="zlib")
        # the cancel comes from a pool thread, and a run only looks at it
        # between nodes: a controller that outran its drains would cross
        # its last boundary first and finish.  Hold it there until the
        # cancelling write has happened, however slow the drain.
        check = backend.check_cancelled

        def check_after_the_write(node_id=None):
            if node_id == plan.order[-1]:
                assert cancel.wait(timeout=30)
            check(node_id)

        monkeypatch.setattr(backend, "check_cancelled",
                            check_after_the_write)
        with pytest.raises(RunCancelledError):
            backend.run(workload.graph(), plan, ram)
        assert drain_threads() == []
        assert os.listdir(spill_dir) == []


# ----------------------------------------------------------------------
class TestFailedBackgroundWrite:
    """At the parent of this change the thread died with its exception,
    the run 'succeeded' and evicted the table it had never written."""

    @staticmethod
    def fill_the_disk_for(monkeypatch, workload, victim: str) -> None:
        real = storage_format.write_table
        warehouse = workload.db.catalog.directory

        def failing(table, directory, name, codec="columnar"):
            if directory == warehouse and name == victim:
                raise OSError(28, "No space left on device")
            return real(table, directory, name, codec)

        monkeypatch.setattr(storage_format, "write_table", failing)

    def test_run_fails_naming_the_mv_and_keeps_the_table(
            self, workload, monkeypatch):
        profiled = workload.profile()
        plan = Controller().plan(profiled, 1000.0, method="sc")
        assert "mv_b" in plan.flagged
        self.fill_the_disk_for(monkeypatch, workload, "mv_b")
        backend = create_backend("minidb", workload=workload)
        with pytest.raises(ExecutionError, match="'mv_b'") as failure:
            backend.run(workload.graph(), plan, 1000.0)
        assert isinstance(failure.value.__cause__, OSError)
        catalog = workload.db.catalog
        assert not catalog.persisted("mv_b")
        assert catalog.in_memory("mv_b")        # the only copy survives
        assert drain_threads() == []

    def test_spilling_run_fails_clean(self, workload, tmp_path,
                                      monkeypatch):
        plan, ram = tight_plan(workload)
        assert "mv_b" in plan.flagged
        self.fill_the_disk_for(monkeypatch, workload, "mv_b")
        spill_dir = tmp_path / "spill"
        backend = create_backend(
            "minidb", workload=workload, spill_dir=str(spill_dir),
            spill_codec="zlib", ram_compressed_gb=0.25 * ram)
        with pytest.raises(ExecutionError, match="'mv_b'"):
            backend.run(workload.graph(), plan, ram)
        assert not workload.db.catalog.persisted("mv_b")
        assert drain_threads() == []
        assert os.listdir(spill_dir) == []

    def test_hook_driven_run_fails_at_the_reap(self, workload,
                                               monkeypatch):
        """The reap that meets the failed drain stops the pool itself:
        stepped node by node without ``MiniDbBackend.run``'s cleanup
        around it, the run gets the same error and no thread lives on."""
        profiled = workload.profile()
        plan = Controller().plan(profiled, 1000.0, method="sc")
        self.fill_the_disk_for(monkeypatch, workload, "mv_b")
        backend = create_backend("minidb", workload=workload)
        run = _MiniDbRun(backend, workload.graph(), plan, 1000.0)
        with pytest.raises(ExecutionError, match="'mv_b'"):
            for node_id in plan.order:
                run.run_node(node_id)
            run.finish("sc")
        assert drain_threads() == []
