"""The compressed-in-RAM rung (``ram-compressed`` tier), end to end.

Unit coverage of the PR's tentpole: rung placement rules and codec
resolution, the transfer-free economics (demotions pay encode only,
reads pay lazy decode only, no double charge on promote), the full-rung
demote bypass, the transfer-free branch of mid-run codec adaptation,
tier-aware planning with a rung, and the MiniDB backend's *real* rung
(in-memory encoded blobs, measured ratios feeding the feedback loop).
"""

import math
import os
import traceback

import pytest

from repro.core.problem import TierAwareBudget
from repro.engine.controller import Controller
from repro.errors import ValidationError
from repro.store import (
    NONE_CODEC,
    RAM_COMPRESSED,
    RAM_COMPRESSED_PROFILE,
    SPILL_CODECS,
    ZLIB1_CODEC,
    CodecAdaptConfig,
    SpillConfig,
    TierSpec,
    TieredLedger,
)

ZLIB1 = SPILL_CODECS["zlib1"]
SSD = SPILL_CODECS["none"]  # ssd spills raw by default


def _rung_ledger(ram=4.0, rung=2.0, ssd=8.0, **kwargs):
    """RAM -> ram-compressed rung -> SSD -> unbounded disk."""
    config_kwargs = {
        key: kwargs.pop(key)
        for key in ("policy", "codec", "adapt", "prefetch")
        if key in kwargs}
    spill = SpillConfig(
        tiers=(TierSpec(RAM_COMPRESSED, rung),
               TierSpec("ssd", ssd),
               TierSpec("disk")),
        **config_kwargs)
    return TieredLedger(ram, spill, **kwargs)


class TestRungConfig:
    def test_rung_must_be_the_hottest_tier(self):
        with pytest.raises(ValidationError, match="first"):
            SpillConfig(tiers=(TierSpec("ssd", 4.0),
                               TierSpec(RAM_COMPRESSED, 2.0)))

    def test_rung_needs_a_finite_budget(self):
        with pytest.raises(ValidationError, match="finite"):
            SpillConfig(tiers=(TierSpec(RAM_COMPRESSED),
                               TierSpec("disk")))

    def test_rung_profile_is_transfer_free(self):
        profile = TierSpec(RAM_COMPRESSED, 1.0).resolved_profile()
        assert profile is RAM_COMPRESSED_PROFILE
        assert math.isinf(profile.disk_read_bandwidth)
        assert math.isinf(profile.disk_write_bandwidth)
        assert profile.read_latency == 0.0

    def test_codec_resolution_precedence(self):
        spec = TierSpec(RAM_COMPRESSED, 1.0)
        # nothing configured: the rung's own zlib1 default
        assert spec.resolved_codec(NONE_CODEC) is ZLIB1_CODEC
        # a *compressing* config default outranks the name default
        zlib = SPILL_CODECS["zlib"]
        assert spec.resolved_codec(zlib) is zlib
        # an explicit per-tier codec outranks everything
        explicit = TierSpec(RAM_COMPRESSED, 1.0, codec="columnar")
        assert explicit.resolved_codec(zlib) is SPILL_CODECS["columnar"]
        # device tiers are untouched by the rung default
        assert TierSpec("ssd", 1.0).resolved_codec(NONE_CODEC) \
            is NONE_CODEC


class TestRungLedgerEconomics:
    def test_demote_charges_encode_only_and_stores_compressed(self):
        ledger = _rung_ledger()
        ledger.insert("x", 2.0, n_consumers=1)
        (charge,) = ledger.demote("x", now=0.0)
        # transfer legs are exactly 0: the whole price is the encode
        assert charge.seconds == pytest.approx(
            ZLIB1.encode_seconds_per_gb * 2.0)
        assert charge.dst == RAM_COMPRESSED
        # capacity is charged stored (compressed) bytes, logical is kept
        assert ledger.stored_size_of("x") == pytest.approx(2.0
                                                           / ZLIB1.ratio)
        assert ledger.size_of("x") == pytest.approx(2.0)
        assert ledger.tiers[1].ledger.usage == pytest.approx(
            2.0 / ZLIB1.ratio)
        assert ledger.usage == 0.0  # RAM fully released

    def test_read_pays_lazy_decode_only(self):
        ledger = _rung_ledger()
        ledger.insert("x", 2.0, n_consumers=1)
        ledger.demote("x", now=0.0)
        assert ledger.tier_read_seconds("x") == pytest.approx(
            ZLIB1.decode_seconds_per_gb * 2.0)

    def test_promote_does_not_recharge_the_decode(self):
        """The read path charges the decode once (tier_read_seconds);
        the promotion itself is just an in-memory create."""
        ledger = _rung_ledger()
        ledger.insert("x", 2.0, n_consumers=1)
        ledger.demote("x", now=0.0)
        charge = ledger.promote("x", now=0.0)
        assert charge is not None
        assert charge.seconds == pytest.approx(
            ledger.profile.create_time_memory(2.0))
        # back in RAM at logical size, the rung's stored bytes freed
        assert ledger.tier_of("x") == 0
        assert ledger.tiers[1].ledger.usage == 0.0
        assert ledger.size_of("x") == ledger.stored_size_of("x") == 2.0

    def test_rung_victims_are_selectable(self):
        """The rung has its own ranking (the index is the ledger's, so
        this reads it there), and a cascade out of the rung skips the
        entries it is told to."""
        ledger = _rung_ledger()
        ledger.insert("x", 2.0, n_consumers=1)
        ledger.demote("x", now=0.0)
        ranked = [victim.node_id
                  for victim in ledger._victim_index.ranked(1)]
        assert ranked == ["x"]
        # y's blob needs more of the rung than x leaves free: x is the
        # only thing that could make way for it, and x is excluded
        ledger.insert("y", 4.0, n_consumers=1)
        moved = ledger.demote_victim(
            exclude=frozenset({"x"}),
            mover=lambda node, src, dst: 1.5 if dst == 1 else 1.0)
        assert ledger.tier_of("x") == 1
        assert moved[0] == "y" and ledger.tier_of("y") == 2

    def test_cascade_off_the_rung_pays_decode_plus_device_write(self):
        ledger = _rung_ledger()
        ledger.insert("x", 2.0, n_consumers=1)
        ledger.demote("x", now=0.0)
        (charge,) = ledger.demote("x", now=0.0)  # rung -> ssd
        assert charge.src == RAM_COMPRESSED and charge.dst == "ssd"
        profile = TierSpec("ssd").resolved_profile()
        # ssd stores raw: stored == logical; the move re-reads the blob
        # (0 s transfer), decodes it, and writes raw bytes to the device
        assert charge.seconds == pytest.approx(
            ZLIB1.decode_seconds_per_gb * 2.0
            + 2.0 / profile.effective_write_bandwidth)
        assert ledger.stored_size_of("x") == pytest.approx(2.0)


class TestDemoteBypass:
    def test_full_rung_is_bypassed_when_the_cascade_costs_more(self):
        ledger = _rung_ledger(ram=10.0, rung=1.0, ssd=50.0)
        for node_id in ("a", "b"):
            ledger.insert(node_id, 2.0, n_consumers=1)
        ledger.demote("a", now=0.0)   # fills the rung (2/2.1 stored)
        assert ledger.tier_of("a") == 1
        # b's encode + displaced-decode + device write of the cascade
        # exceeds writing b to ssd directly: skip the rung
        (charge,) = ledger.demote("b", now=0.0)
        assert charge.dst == "ssd"
        assert ledger.tier_of("a") == 1  # undisturbed
        assert ledger.tier_of("b") == 2
        assert ledger.stats.demote_bypass_count == 1

    def test_rung_with_room_is_never_bypassed(self):
        ledger = _rung_ledger(ram=10.0, rung=4.0, ssd=50.0)
        for node_id in ("a", "b"):
            ledger.insert(node_id, 2.0, n_consumers=1)
            ledger.demote(node_id, now=0.0)
        assert ledger.tier_of("a") == ledger.tier_of("b") == 1
        assert ledger.stats.demote_bypass_count == 0

    def test_real_io_demotes_never_bypass(self):
        """Executors that move bytes themselves (stored size measured
        by their mover) go one tier down whenever that tier can make
        room — the MiniDB contract."""
        ledger = _rung_ledger(ram=10.0, rung=1.0, ssd=50.0)
        for node_id in ("a", "b"):
            ledger.insert(node_id, 2.0, n_consumers=1)

        def mover(node_id, src, dst):
            return 0.9

        assert ledger.demote_victim(mover=mover)[0] == "a"
        victim, charges = ledger.demote_victim(mover=mover)
        assert victim == "b"
        # b displaced a into ssd instead of skipping the rung
        assert charges[-1].dst == RAM_COMPRESSED
        assert ledger.tier_of("b") == 1
        assert ledger.tier_of("a") == 2
        assert ledger.stats.demote_bypass_count == 0


class TestRungAdaptation:
    def _adapted(self, compressibility):
        ledger = _rung_ledger(adapt=CodecAdaptConfig(samples=1))
        ledger.set_compressibility({"x": compressibility})
        ledger.insert("x", 2.0, n_consumers=1)
        ledger.demote("x", now=0.0)
        return ledger

    def test_incompressible_rung_drops_its_codec(self):
        """A rung storing raw-sized blobs is pure overhead: adaptation
        must switch the codec off even though the rung's own transfer
        legs are free (the saving is priced at the tier below)."""
        ledger = self._adapted(0.0)
        record = ledger.stats.codec_adapt[RAM_COMPRESSED]
        assert record.observed_ratio == pytest.approx(1.0)
        assert record.repriced and record.switched_to == "none"
        assert ledger.tiers[1].codec.name == "none"
        assert ledger.tiers[1].priced_ratio == 1.0

    def test_highly_compressible_rung_keeps_its_codec(self):
        ledger = self._adapted(2.0)
        record = ledger.stats.codec_adapt[RAM_COMPRESSED]
        assert record.observed_ratio > ZLIB1.ratio
        assert record.repriced and record.switched_to is None
        assert ledger.tiers[1].codec.name == "zlib1"
        assert ledger.tiers[1].priced_ratio == pytest.approx(
            record.observed_ratio)


class TestRungPlanning:
    def test_rung_capacity_scales_by_ratio_at_codec_only_penalty(self):
        spill = SpillConfig(tiers=(TierSpec(RAM_COMPRESSED, 1.0),
                                   TierSpec("ssd", 4.0),
                                   TierSpec("disk")))
        budget = TierAwareBudget.from_spill(2.0, spill)
        rung, ssd, _ = budget.tiers
        assert rung.capacity == pytest.approx(ZLIB1.ratio)
        assert rung.penalty_seconds_per_gb == pytest.approx(
            ZLIB1.encode_seconds_per_gb + ZLIB1.decode_seconds_per_gb)
        # the rung is the cheapest rung below RAM, so it earns the best
        # discount and the effective budget beats the rung-free hierarchy
        assert rung.discount > ssd.discount > 0.0
        without = TierAwareBudget.from_spill(2.0, SpillConfig(
            tiers=(TierSpec("ssd", 4.0), TierSpec("disk"))))
        assert budget.effective_budget(clamp=10.0) > \
            without.effective_budget(clamp=10.0) + 0.5


class TestMiniDbRung:
    @pytest.fixture
    def workload(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
        from repro.db.table import Table

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

    def test_real_rung_compresses_in_memory_and_stays_correct(
            self, workload, tmp_path):
        import numpy as np

        profiled = workload.profile()
        plan = Controller().plan(profiled, 1000.0, method="sc")
        sizes = {n: profiled.size_of(n) for n in profiled.nodes()}
        ram = 1.1 * max(sizes[n] for n in plan.flagged)
        controller = Controller(spill_dir=str(tmp_path / "spill"),
                                ram_compressed_gb=ram)
        trace = controller.refresh_on_minidb(workload, ram, plan=plan)
        report = trace.extras["tiered_store"]
        assert trace.peak_catalog_usage <= ram + 1e-9
        rung = report["tiers"][1]
        assert rung["name"] == RAM_COMPRESSED
        assert report["tiers"][2]["name"] == "spill-disk"
        # the rung hosted real encoded blobs within its stored budget...
        assert rung["observed"]["spill_in_count"] > 0
        assert rung["peak"] <= ram + 1e-9
        # ...measured genuinely compressed (real zlib1 on real tables)
        assert rung["observed"]["observed_ratio"] > 1.2
        # measured wall clocks feed the per-tier feedback observations
        from repro.feedback.observe import CostFeedback

        [observation] = [t for t in CostFeedback.from_trace(trace).tiers
                         if t.name == RAM_COMPRESSED]
        assert observation.observed_ratio == pytest.approx(
            rung["observed"]["observed_ratio"])
        # every MV durable and numerically correct despite the rung
        db = workload.db
        for name in profiled.nodes():
            assert db.catalog.persisted(name)
        spend = db.table("mv_c").columns()["s"]
        raw = db.table("events").columns()
        expected = raw["amount"][raw["amount"] > 1].sum()
        assert np.isclose(spend.sum(), expected)

    def test_blob_bigger_than_the_rung_is_one_move_to_disk(
            self, tmp_path, monkeypatch):
        """Regression: a blob the rung can never host used to be walked
        down with two demotes — ``spill_count`` +2 and a spill-in on a
        rung the bytes never entered.  On the one eviction path it is
        one move RAM -> spill-disk.  (1-byte rung, the 25-MV star; the
        root's warehouse write is held back so the victim cannot turn
        durable — and free to drop — under the test.)"""
        import threading

        from repro.db import storage_format
        from repro.engine.trace import NodeTrace
        from repro.exec import create_backend
        from repro.exec.minidb import _MiniDbRun
        from tests.test_minidb_drain import star_of_25

        workload, plan = star_of_25(tmp_path)
        profiled = workload.profile()
        ram = 1.2 * profiled.size_of("root")
        warehouse = workload.db.catalog.directory
        written = threading.Event()
        real = storage_format.write_table

        def holding_back(table, directory, name, codec="columnar"):
            if directory == warehouse and name == "root":
                written.wait(timeout=30)
            return real(table, directory, name, codec)

        monkeypatch.setattr(storage_format, "write_table", holding_back)
        run_node = _MiniDbRun.run_node
        probes = []

        def reclaim_all_of_ram_after_root(run, node_id):
            run_node(run, node_id)
            if node_id != "root":
                return
            try:
                probe = NodeTrace(node_id="probe", start=0.0, flagged=True)
                assert run._reclaim(ram, probe)  # all of RAM: root goes
                ledger = run.ledger
                rung, disk = ledger.stats.tiers[1], ledger.stats.tiers[2]
                assert ledger.tier_of("root") == 2
                assert ledger.stats.spill_count == 1
                assert rung.spill_in.count == 0 and disk.spill_in.count == 1
                assert ledger.stored_size_of("root") > 0.0
                assert ledger.tiers[1].ledger.peak_usage == 0.0
                assert not workload.db.catalog.in_memory("root")
                assert probe.spill_write > 0.0
                probes.append(probe)
            finally:
                written.set()

        monkeypatch.setattr(_MiniDbRun, "run_node",
                            reclaim_all_of_ram_after_root)
        spill_dir = tmp_path / "spill"
        backend = create_backend(
            "minidb", workload=workload, spill_dir=str(spill_dir),
            spill_policy="largest", ram_compressed_gb=1.0 / 1024 ** 3)
        report = backend.run(workload.graph(), plan,
                             ram).extras["tiered_store"]
        assert len(probes) == 1
        # the rung only ever took the books of durable (zero-byte) victims
        assert report["tiers"][1]["peak"] == 0.0
        assert report["tiers"][1]["observed"]["spill_in_stored_gb"] == 0.0
        assert report["spill_count"] == sum(
            tier["observed"]["spill_in_count"] for tier in report["tiers"])
        for name in plan.order:
            assert workload.db.catalog.persisted(name)
        assert os.listdir(spill_dir) == []

    def test_rung_requires_a_spill_dir(self, workload):
        """The Controller forwards the rung; the backend that builds the
        hierarchy is the one place that rejects it."""
        workload.profile()
        with pytest.raises(ValidationError, match="spill_dir") as info:
            Controller(ram_compressed_gb=1.0).refresh_on_minidb(
                workload, 1000.0)
        frame = traceback.extract_tb(info.tb)[-1]
        assert frame.name == "__init__"   # of the run MiniDbBackend.run builds
        assert frame.filename.endswith(os.path.join("exec", "minidb.py"))

    def test_adaptation_requires_a_spill_dir(self, workload):
        """A run that cannot spill has no dumps to measure: adaptation
        is rejected instead of silently dropped with the spill config."""
        workload.profile()
        controller = Controller(spill=SpillConfig(
            codec="zlib", adapt=CodecAdaptConfig()))
        with pytest.raises(ValidationError, match="spill_dir"):
            controller.refresh_on_minidb(workload, 1000.0)
