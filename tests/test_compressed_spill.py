"""Compressed spill pipeline: codec config, decode-aware costing,
promote-ahead prefetching, codec-aware planning, and real MiniDB
compression.

The invariant running through everything here: ``codec="none"`` with
prefetch off is *arithmetically identical* to the codec-free pipeline
(PR 3), so arming the knobs is always an explicit opt-in.
"""

import math

import pytest

from repro.core.problem import ScProblem, TierAwareBudget
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.errors import ValidationError
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import EventBus
from repro.store import (
    NONE_CODEC,
    ZLIB_CODEC,
    CodecProfile,
    SpillConfig,
    TierSpec,
    TieredLedger,
    parse_tier,
    resolve_codec,
)


# ----------------------------------------------------------------------
# codec configuration
# ----------------------------------------------------------------------
class TestCodecConfig:
    def test_presets_resolve_by_name(self):
        assert resolve_codec("none") is NONE_CODEC
        assert resolve_codec("zlib") is ZLIB_CODEC
        assert resolve_codec(ZLIB_CODEC) is ZLIB_CODEC

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValidationError, match="unknown spill codec"):
            resolve_codec("brotli")

    def test_codec_validation(self):
        with pytest.raises(ValidationError, match="needs a name"):
            CodecProfile("")
        with pytest.raises(ValidationError, match="ratio"):
            CodecProfile("bad", ratio=0.0)
        with pytest.raises(ValidationError, match="ratio"):
            CodecProfile("bad", ratio=math.inf)
        with pytest.raises(ValidationError, match="encode_seconds_per_gb"):
            CodecProfile("bad", encode_seconds_per_gb=-1.0)

    def test_spill_config_resolves_codec(self):
        config = SpillConfig(codec="zlib")
        assert config.codec is ZLIB_CODEC
        assert SpillConfig().codec is NONE_CODEC
        # a config that never heard of codecs or prefetch is the
        # explicit knobs-off one, so it runs the uncompressed pipeline
        tiers = (TierSpec("ssd", 8.0), TierSpec("disk"))
        assert SpillConfig(tiers=tiers) == SpillConfig(
            tiers=tiers, codec="none", prefetch=False)
        with pytest.raises(ValidationError, match="unknown spill codec"):
            SpillConfig(codec="snappy")

    def test_tier_spec_codec_override(self):
        spec = TierSpec("ssd", 8.0, codec="zlib")
        assert spec.resolved_codec(NONE_CODEC) is ZLIB_CODEC
        assert TierSpec("ssd").resolved_codec(ZLIB_CODEC) is ZLIB_CODEC

    def test_parse_tier_with_codec(self):
        spec = parse_tier("ssd:8:zlib")
        assert spec.name == "ssd" and spec.budget == 8.0
        assert spec.codec is ZLIB_CODEC
        assert parse_tier("disk:inf:none").codec is NONE_CODEC
        with pytest.raises(ValidationError, match="unknown spill codec"):
            parse_tier("ssd:8:lzma")


# ----------------------------------------------------------------------
# tiered ledger: logical vs stored accounting
# ----------------------------------------------------------------------
def _zledger(ram=10.0, ssd=5.0, ratio=2.0, encode=1.0, decode=0.5,
             prefetch=False, bus=None):
    codec = CodecProfile("test", ratio=ratio, encode_seconds_per_gb=encode,
                         decode_seconds_per_gb=decode)
    return TieredLedger(ram, SpillConfig(
        tiers=(TierSpec("ssd", ssd), TierSpec("disk")),
        codec=codec, prefetch=prefetch), bus=bus)


class TestCompressedAccounting:
    def test_tier_capacity_charged_compressed_ram_logical(self):
        ledger = _zledger(ram=10.0, ssd=5.0, ratio=2.0)
        ledger.insert("a", 8.0, n_consumers=1)
        ledger.spill_insert("b", 9.0, n_consumers=1)  # demotes a
        assert ledger.tier_of("a") == 1
        # ssd holds a's 8 GB logical as 4 GB stored — it fits a 5 GB tier
        assert ledger.stored_size_of("a") == 4.0
        assert ledger.size_of("a") == 8.0  # consumers still see logical
        assert ledger.tiers[1].ledger.usage == 4.0
        assert ledger.usage == 9.0  # RAM charged b's logical bytes

    def test_logical_size_restored_on_promote(self):
        ledger = _zledger(ram=10.0, ssd=5.0, ratio=2.0)
        ledger.insert("a", 8.0, n_consumers=2)
        ledger.spill_insert("b", 9.0, n_consumers=1)
        ledger.consumer_done("b")
        ledger.materialized("b")  # frees RAM
        charge = ledger.promote("a")
        assert charge is not None and charge.size == 8.0
        assert ledger.tier_of("a") == 0
        assert ledger.usage == 8.0  # logical bytes back in RAM
        assert ledger.tiers[1].ledger.usage == 0.0

    def test_demote_charges_encode_and_compressed_write(self):
        ledger = _zledger(ram=10.0, ratio=2.0, encode=1.0)
        ledger.insert("a", 8.0, n_consumers=1)
        charges = ledger.demote("a")
        assert len(charges) == 1
        ssd = ledger.tiers[1]
        expected = ssd.profile.write_time_disk(4.0) + 1.0 * 8.0
        assert charges[0].seconds == pytest.approx(expected)
        assert charges[0].size == 8.0  # SpillCharge carries logical GB

    def test_read_back_charges_decode(self):
        ledger = _zledger(ram=10.0, ratio=2.0, decode=0.5)
        ledger.insert("a", 8.0, n_consumers=1)
        ledger.demote("a")
        ssd = ledger.tiers[1]
        expected = ssd.profile.read_time_disk(4.0) + 0.5 * 8.0
        assert ledger.tier_read_seconds("a") == pytest.approx(expected)

    def test_stored_and_logical_spill_volumes_reported(self):
        ledger = _zledger(ram=10.0, ratio=2.0)
        ledger.insert("a", 8.0, n_consumers=1)
        ledger.demote("a")
        report = ledger.tier_report()
        assert report.spill_bytes_gb == 8.0
        assert report.spill_stored_gb == 4.0
        assert report.codec == "test"
        assert report.tiers[1].codec == "test"
        assert report.tiers[1].codec_ratio == 2.0
        assert report.tiers[1].logical == 8.0
        assert report.tiers[1].usage == 4.0

    def test_estimate_prices_encode_and_compression(self):
        plain = TieredLedger(10.0, SpillConfig(
            tiers=(TierSpec("ssd", 20.0), TierSpec("disk"))))
        packed = _zledger(ram=10.0, ssd=20.0, ratio=2.0, encode=0.0,
                          decode=0.0)
        for ledger in (plain, packed):
            ledger.insert("a", 8.0, n_consumers=0)
        # free codec at ratio 2: half the bytes cross the ssd device
        assert packed.estimate_spill_seconds(6.0) < \
            plain.estimate_spill_seconds(6.0)
        taxed = _zledger(ram=10.0, ssd=20.0, ratio=1.0001, encode=50.0)
        taxed.insert("a", 8.0, n_consumers=0)
        # a punitive encode stage makes the same spill dearer than raw
        assert taxed.estimate_spill_seconds(6.0) > \
            plain.estimate_spill_seconds(6.0)

    def test_per_tier_codec_override(self):
        codec = CodecProfile("only-disk", ratio=4.0)
        ledger = TieredLedger(10.0, SpillConfig(
            tiers=(TierSpec("ssd", 20.0),
                   TierSpec("disk", codec=codec))))
        ledger.insert("a", 8.0, n_consumers=1)
        ledger.demote("a")   # -> ssd, no codec
        assert ledger.stored_size_of("a") == 8.0
        ledger.demote("a")   # -> disk, 4x codec
        assert ledger.stored_size_of("a") == 2.0
        assert ledger.size_of("a") == 8.0


# ----------------------------------------------------------------------
# promote-ahead prefetching
# ----------------------------------------------------------------------
class TestPrefetch:
    def test_prefetch_promotes_spilled_parents(self):
        bus = EventBus()
        ledger = _zledger(ram=10.0, ssd=20.0, prefetch=True, bus=bus)
        ledger.insert("p", 6.0, n_consumers=1)
        ledger.demote("p")
        # hidden: the tier's read of 3 stored GB, the decode of 6 logical
        # GB, and RAM's in-memory create of them
        expected = (ledger.tiers[1].profile.read_time_disk(3.0) + 0.5 * 6.0
                    + ledger.profile.create_time_memory(6.0))
        assert ledger.prefetch(["p", "absent"]) == pytest.approx(expected)
        assert ledger.tier_of("p") == 0
        report = ledger.tier_report().prefetch
        assert report.enabled is True
        assert report.count == 1
        assert report.bytes_gb == 6.0
        assert report.hidden_seconds == pytest.approx(expected)
        assert report.misses == 0
        [hit] = [event for event in bus.events
                 if event.name == "prefetch-hit"]
        assert hit.args["hidden_s"] == pytest.approx(expected)

    def test_prefetch_never_demotes_to_make_room(self):
        ledger = _zledger(ram=10.0, ssd=20.0, prefetch=True)
        ledger.insert("p", 6.0, n_consumers=1)
        ledger.demote("p")
        ledger.insert("hog", 9.0, n_consumers=1)
        ledger.prefetch(["p"])
        assert ledger.tier_of("p") == 1  # did not fit, stayed put
        assert ledger.tier_of("hog") == 0  # and nothing was evicted
        assert ledger.tier_report().prefetch.misses == 1

    def test_simulator_prefetch_reads_at_memory_bandwidth(self):
        from repro.core.optimizer import optimize
        from repro.workloads.generator import (
            GeneratedWorkloadConfig,
            WorkloadGenerator,
        )

        graph = WorkloadGenerator().generate(
            GeneratedWorkloadConfig(n_nodes=32, height_width_ratio=0.5),
            seed=0)
        budget = 0.3 * graph.total_size()
        plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                        method="sc", seed=0).plan
        peak = Controller().refresh(
            graph, budget, plan=plan, method="sc").peak_catalog_usage
        ram = 0.35 * peak
        tiers = (TierSpec("ssd", 0.5 * peak), TierSpec("disk"))
        runs = {}
        for prefetch in (False, True):
            spill = SpillConfig(tiers=tiers, codec="zlib",
                                prefetch=prefetch)
            runs[prefetch] = Controller(
                options=SimulatorOptions(spill=spill)).refresh(
                    graph, ram, plan=plan, method="sc")
        report = runs[True].extras["tiered_store"]["prefetch"]
        assert report["enabled"] and report["count"] > 0
        assert report["hidden_seconds"] > 0.0
        # prefetching hides promote I/O in idle windows: never slower
        assert runs[True].end_to_end_time <= runs[False].end_to_end_time
        off = runs[False].extras["tiered_store"]["prefetch"]
        assert off == {"enabled": False, "count": 0, "bytes_gb": 0.0,
                       "hidden_seconds": 0.0, "misses": 0}


# ----------------------------------------------------------------------
# codec-aware planning
# ----------------------------------------------------------------------
class TestCodecAwarePlanning:
    def test_capacity_scales_and_penalty_prices_codec(self):
        profile = DeviceProfile()
        tiers = (TierSpec("ssd", 8.0),)
        plain = TierAwareBudget.from_spill(
            4.0, SpillConfig(tiers=tiers), profile=profile)
        packed = TierAwareBudget.from_spill(
            4.0, SpillConfig(tiers=tiers, codec="zlib"), profile=profile)
        assert plain.tiers[0].capacity == 8.0
        assert plain.tiers[0].codec_ratio == 1.0
        assert packed.tiers[0].capacity == pytest.approx(8.0 * 2.6)
        assert packed.tiers[0].codec_ratio == 2.6
        # zlib on a fast ssd: transfer shrinks but encode+decode is a
        # real tax the planner must see in the per-GB penalty
        device = tiers[0].resolved_profile()
        raw = (1.0 / device.effective_write_bandwidth
               + 1.0 / device.effective_read_bandwidth)
        assert packed.tiers[0].penalty_seconds_per_gb == pytest.approx(
            raw / 2.6 + ZLIB_CODEC.encode_seconds_per_gb
            + ZLIB_CODEC.decode_seconds_per_gb)

    def test_favorable_codec_raises_effective_budget(self):
        profile = DeviceProfile()
        tiers = (TierSpec("disk", 8.0),)
        plain = TierAwareBudget.from_spill(
            4.0, SpillConfig(tiers=tiers), profile=profile)
        packed = TierAwareBudget.from_spill(
            4.0, SpillConfig(tiers=tiers, codec="zlib"), profile=profile)
        # on a slow disk zlib shrinks the round trip *and* multiplies
        # capacity — the planner may flag strictly more
        assert packed.effective_budget() > plain.effective_budget()
        assert packed.hostable_limit() > plain.hostable_limit()

    def test_none_codec_budget_is_bit_identical(self):
        profile = DeviceProfile()
        tiers = (TierSpec("ssd", 8.0), TierSpec("disk"))
        plain = TierAwareBudget.from_spill(
            4.0, SpillConfig(tiers=tiers), profile=profile)
        explicit = TierAwareBudget.from_spill(
            4.0, SpillConfig(tiers=tiers, codec="none"), profile=profile)
        assert plain == explicit


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
class TestSatelliteRegressions:
    def test_estimate_spill_seconds_ram_only_hierarchy(self):
        """A hierarchy reduced to the RAM rung must answer None (no
        demotion possible), not raise IndexError mid-arbitration."""
        ledger = TieredLedger(4.0, SpillConfig())
        ledger.insert("a", 3.0, n_consumers=1)
        ledger.tiers = ledger.tiers[:1]  # strip the spill tiers
        assert ledger.estimate_spill_seconds(2.0) is None
        assert ledger.estimate_spill_seconds(0.5) == 0.0  # still fits


# ----------------------------------------------------------------------
# MiniDB: real compressed spill dumps
# ----------------------------------------------------------------------
class TestMiniDbCompressedSpill:
    @pytest.fixture
    def workload(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
        from repro.db.table import Table

        db = MiniDB(str(tmp_path / "wh"))
        rng = np.random.default_rng(7)
        n = 60_000
        db.register_table("events", Table({
            "user": rng.integers(0, 40, n),
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
        ])

    def test_compressed_spill_measures_on_disk_bytes(self, workload,
                                                     tmp_path):
        profiled = workload.profile()
        plan = Controller().plan(profiled, 1000.0, method="sc")
        assert plan.flagged
        sizes = {n: profiled.size_of(n) for n in profiled.nodes()}
        ram = 1.1 * max(sizes[n] for n in plan.flagged)
        controller = Controller(spill_dir=str(tmp_path / "spill"),
                                spill=SpillConfig(codec="zlib"))
        trace = controller.refresh_on_minidb(workload, ram, method="sc",
                                             plan=plan)
        report = trace.extras["tiered_store"]
        assert report["spill_count"] > 0
        assert report["codec"] == "zlib"
        # integer columns compress: measured on-disk bytes undercut the
        # logical bytes the RAM ledger was charged
        assert 0.0 < report["spill_stored_gb"] < report["spill_bytes_gb"]
        assert trace.peak_catalog_usage <= ram + 1e-9
        for name in profiled.nodes():
            assert workload.db.catalog.persisted(name)
