"""Tests for the observed-cost feedback subsystem (repro.feedback),
feedback-derived budgets (TierAwareBudget.from_observations), and
mid-run codec adaptation (SpillConfig.adapt)."""

import dataclasses

import pytest

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem, TierAwareBudget
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.engine.trace import RunTrace
from repro.errors import ValidationError
from repro.feedback import CostFeedback, TierObservation
from repro.metadata.costmodel import DeviceProfile
from repro.store import CodecAdaptConfig, SpillConfig, TierSpec
from repro.store.pricing import warehouse_ram_gain
from repro.store.tiered import TieredLedger, compressibility_from_graph
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)


def _spilling_case(seed=0, n_nodes=24, compressibility=None):
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=0.5),
        seed=seed)
    if compressibility is not None:
        for node_id in graph.nodes():
            graph.node(node_id).meta["compressibility"] = compressibility
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=seed).plan
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    return graph, plan, peak


def _run(graph, plan, ram, spill, **kwargs):
    controller = Controller(options=SimulatorOptions(spill=spill))
    return controller.refresh(graph, ram, plan=plan, method="sc",
                              **kwargs)


# ----------------------------------------------------------------------
# CostFeedback.from_trace
# ----------------------------------------------------------------------
class TestFromTrace:
    def test_observed_costs_distilled_from_simulated_run(self):
        graph, plan, peak = _spilling_case()
        spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                                   TierSpec("disk")))
        trace = _run(graph, plan, 0.4 * peak, spill)
        report = trace.extras["tiered_store"]
        assert report["spill_count"] > 0
        # the evidence behind the ssd averages: logical GB spilled in
        assert report["tiers"][1]["name"] == "ssd"
        assert report["tiers"][1]["observed"]["spill_in_gb"] > 0
        feedback = CostFeedback.from_trace(trace)
        assert [t.name for t in feedback.tiers] == ["ssd", "disk"]
        ssd = feedback.tiers[0]
        assert ssd.spill_write_seconds_per_gb > 0
        # some tier was read back and priced from observation
        assert any(t.promote_read_seconds_per_gb for t in feedback.tiers)
        # codec "none": incompressible is 1.0, not None
        assert ssd.observed_ratio == pytest.approx(1.0)

    def test_reload_leg_adds_the_promote_create(self):
        """A tier's reload price is its device read + decode plus RAM's
        in-memory create of what it promoted, per logical GB."""
        graph, plan, peak = _spilling_case()
        spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                                   TierSpec("disk")))
        trace = _run(graph, plan, 0.8 * peak, spill)
        ssd = trace.tier_report().tiers[1].observed
        assert ssd.read_seconds_per_gb > 0
        assert ssd.promote_create_seconds_per_gb > 0
        feedback = CostFeedback.from_trace(trace)
        assert feedback.tiers[0].promote_read_seconds_per_gb == \
            pytest.approx(ssd.read_seconds_per_gb
                          + ssd.promote_create_seconds_per_gb)

    def test_untouched_tier_reports_none_not_zero(self):
        """The 'no data vs incompressible' fix: a tier that never
        received a spill reports observed ratio/costs as None."""
        graph, plan, peak = _spilling_case()
        spill = SpillConfig(tiers=(TierSpec("ssd", 2.0 * peak),
                                   TierSpec("disk")), codec="zlib")
        trace = _run(graph, plan, 2.0 * peak, spill)  # plenty of RAM
        report = trace.extras["tiered_store"]
        assert report["spill_count"] == 0
        assert report["observed_codec_ratio"] is None
        for tier in report["tiers"]:
            assert tier["observed"]["observed_ratio"] is None
            assert tier["observed"]["spill_write_seconds_per_gb"] is None
        feedback = CostFeedback.from_trace(trace)
        for tier in feedback.tiers:
            assert tier.observed_ratio is None
            assert tier.spill_write_seconds_per_gb is None
            assert tier.promote_read_seconds_per_gb is None

    def test_compressibility_meta_drives_observed_ratio(self):
        graph, plan, peak = _spilling_case(compressibility=0.0)
        spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                                   TierSpec("disk")), codec="zlib")
        trace = _run(graph, plan, 0.4 * peak, spill)
        report = trace.extras["tiered_store"]
        assert report["spill_count"] > 0
        # incompressible workload: realized ratio 1.0 despite zlib 2.6
        assert report["observed_codec_ratio"] == pytest.approx(1.0)
        assert report["spill_stored_gb"] == \
            pytest.approx(report["spill_bytes_gb"])

    def test_feedback_is_immutable(self):
        feedback = CostFeedback(tiers=(TierObservation("ssd"),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            feedback.tiers = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            feedback.tiers[0].observed_ratio = 2.0

    def test_trace_without_tiered_store_rejected(self):
        with pytest.raises(ValidationError):
            CostFeedback.from_trace(RunTrace())

    def test_unmeasured_wall_clock_is_no_data(self):
        """A real executor that moved bytes in no measurable time gives
        no figure, so the planner keeps the modeled price instead of
        reading the tier as free."""
        ledger = TieredLedger(10.0, SpillConfig(tiers=(TierSpec("ssd"),)),
                              charge_io=False)
        ledger.record_wall_seconds(1, "read", 0.0, 1.0)
        ledger.record_wall_seconds(1, "promote", 0.5, 0.0)  # empty table
        ledger.record_wall_seconds(1, "spill_in", 2.0, 1.0)
        observed = ledger.tier_report().tiers[1].observed
        assert observed.read_seconds_per_gb is None
        assert observed.promote_create_seconds_per_gb is None
        assert observed.spill_write_seconds_per_gb == 2.0


# ----------------------------------------------------------------------
# TierAwareBudget.from_observations
# ----------------------------------------------------------------------
class TestFromObservations:
    def test_no_observations_matches_modeled_budget(self):
        spill = SpillConfig(tiers=(TierSpec("ssd", 8.0),
                                   TierSpec("disk", 32.0)), codec="zlib")
        modeled = TierAwareBudget.from_spill(4.0, spill)
        observed = TierAwareBudget.from_observations(4.0, spill, None)
        assert observed == modeled
        empty = TierAwareBudget.from_observations(
            4.0, spill, [TierObservation("ssd")])
        assert empty == modeled

    def test_observed_penalty_shrinks_discount(self):
        spill = SpillConfig(tiers=(TierSpec("ssd", 8.0),))
        modeled = TierAwareBudget.from_spill(4.0, spill)
        gain = warehouse_ram_gain(DeviceProfile())
        dear = TierAwareBudget.from_observations(
            4.0, spill,
            [TierObservation("ssd", spill_write_seconds_per_gb=gain,
                             promote_read_seconds_per_gb=gain)])
        assert dear.tiers[0].discount == 0.0
        assert dear.tiers[0].discount < modeled.tiers[0].discount
        assert dear.effective_budget() == pytest.approx(4.0)

    def test_observed_ratio_rescales_capacity(self):
        spill = SpillConfig(tiers=(TierSpec("ssd", 8.0),), codec="zlib")
        observed = TierAwareBudget.from_observations(
            4.0, spill, [TierObservation("ssd", observed_ratio=1.0)])
        assert observed.tiers[0].capacity == pytest.approx(8.0)
        assert observed.tiers[0].codec_ratio == pytest.approx(1.0)
        modeled = TierAwareBudget.from_spill(4.0, spill)
        assert modeled.tiers[0].capacity == pytest.approx(8.0 * 2.6)

    def test_none_values_fall_back_to_model(self):
        spill = SpillConfig(tiers=(TierSpec("ssd", 8.0),), codec="zlib")
        observed = TierAwareBudget.from_observations(
            4.0, spill, [TierObservation("ssd", observed_ratio=None,
                                         spill_write_seconds_per_gb=None,
                                         promote_read_seconds_per_gb=None)])
        assert observed == TierAwareBudget.from_spill(4.0, spill)


# ----------------------------------------------------------------------
# Controller feedback planning
# ----------------------------------------------------------------------
class TestControllerFeedback:
    def test_replan_from_trace_flags_less_when_tiers_look_dear(self):
        """Feeding back an observed ratio of ~1 on a zlib hierarchy
        must shrink the effective budget versus the static plan."""
        graph, plan, peak = _spilling_case(compressibility=0.0)
        spill = SpillConfig(tiers=(TierSpec("ssd", 0.4 * peak),
                                   TierSpec("cold")),
                            codec="zlib")
        ram = 0.4 * peak
        controller = Controller(options=SimulatorOptions(spill=spill))
        static_plan = controller.plan(graph, ram, tier_aware=True)
        first = controller.refresh(graph, ram, plan=static_plan,
                                   method="sc")
        assert first.extras["tiered_store"]["spill_count"] > 0
        replanned = controller.replan_from_trace(graph, first)
        assert len(replanned.flagged) <= len(static_plan.flagged)
        feedback = CostFeedback.from_trace(first)
        static_budget = controller.tier_budget(ram)
        observed_budget = controller.tier_budget(ram, feedback=feedback)
        assert observed_budget.effective_budget(graph.total_size()) < \
            static_budget.effective_budget(graph.total_size())

    def test_refresh_accepts_feedback(self):
        graph, plan, peak = _spilling_case()
        spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                                   TierSpec("disk")))
        controller = Controller(options=SimulatorOptions(spill=spill))
        first = controller.refresh(graph, 0.4 * peak, plan=plan,
                                   method="sc")
        feedback = CostFeedback.from_trace(first)
        second = controller.refresh(graph, 0.4 * peak, method="sc",
                                    feedback=feedback)
        assert second.end_to_end_time > 0

    def test_feedback_without_spill_config_rejected(self):
        graph, plan, peak = _spilling_case()
        feedback = CostFeedback(tiers=(TierObservation(name="ssd"),))
        with pytest.raises(ValidationError):
            Controller().refresh(graph, peak, method="sc",
                                 feedback=feedback)


# ----------------------------------------------------------------------
# Mid-run codec adaptation
# ----------------------------------------------------------------------
class TestCodecAdaptation:
    def _ledger(self, codec="zlib", adapt=CodecAdaptConfig(samples=2),
                budget=1.0, tier_budget=100.0):
        return TieredLedger(budget, SpillConfig(
            tiers=(TierSpec("ssd", tier_budget),),
            codec=codec, adapt=adapt))

    def test_incompressible_samples_switch_codec_off(self):
        ledger = self._ledger()
        ledger.set_compressibility({"a": 0.0, "b": 0.0, "c": 0.0})
        for name in ("a", "b", "c"):
            ledger.insert(name, 0.9, n_consumers=1)
            ledger.demote(name)
        record = ledger.stats.codec_adapt["ssd"]
        assert record.repriced is True
        assert record.switched_to == "none"
        assert record.observed_ratio == pytest.approx(1.0)
        assert ledger.tiers[1].codec.name == "none"
        assert ledger.tiers[1].priced_ratio == pytest.approx(1.0)
        # entries stored before the switch keep their encoding codec
        # for decode pricing; new spills store raw
        assert ledger.stored_size_of("c") == pytest.approx(0.9)

    def test_accurate_preset_is_left_alone(self):
        ledger = self._ledger()
        for name in ("a", "b"):
            ledger.insert(name, 0.9, n_consumers=1)
            ledger.demote(name)
        record = ledger.stats.codec_adapt["ssd"]
        assert record.repriced is False
        assert record.switched_to is None
        assert ledger.tiers[1].codec.name == "zlib"
        assert ledger.tiers[1].priced_ratio == pytest.approx(2.6)

    def test_repriced_without_switch_when_codec_still_pays(self):
        """A diverged-but-still-compressing workload re-prices the cost
        model without dropping the codec (slow disk: transfers saved at
        1.8x still outweigh the encode/decode tax)."""
        ledger = TieredLedger(1.0, SpillConfig(
            tiers=(TierSpec("disk", 100.0),), codec="zlib",
            adapt=CodecAdaptConfig(samples=2)))
        mult = 0.5  # realized ratio 1 + 1.6*0.5 = 1.8 vs preset 2.6
        ledger.set_compressibility({"a": mult, "b": mult})
        for name in ("a", "b"):
            ledger.insert(name, 0.9, n_consumers=1)
            ledger.demote(name)
        record = ledger.stats.codec_adapt["disk"]
        assert record.repriced is True
        assert record.switched_to is None
        assert ledger.tiers[1].codec.name == "zlib"
        assert ledger.tiers[1].priced_ratio == pytest.approx(1.8)

    def test_adapt_disabled_never_touches_codec(self):
        ledger = self._ledger(adapt=None)
        ledger.set_compressibility({"a": 0.0, "b": 0.0, "c": 0.0})
        for name in ("a", "b", "c"):
            ledger.insert(name, 0.9, n_consumers=1)
            ledger.demote(name)
        assert ledger.stats.codec_adapt == {}
        assert ledger.tiers[1].codec.name == "zlib"

    def test_adaptation_logged_in_trace_extras(self):
        graph, plan, peak = _spilling_case(compressibility=0.0)
        spill = SpillConfig(
            tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
            codec="zlib", adapt=CodecAdaptConfig(samples=1))
        trace = _run(graph, plan, 0.4 * peak, spill)
        adapt = trace.extras["tiered_store"]["codec_adapt"]
        assert adapt["enabled"] is True
        assert adapt["tiers"], "no adaptation decision was logged"
        for record in adapt["tiers"].values():
            assert record["switched_to"] == "none"
        # and it round-trips with the rest of the trace
        assert RunTrace.from_json(trace.to_json()).to_dict() == \
            trace.to_dict()

    def test_bad_adapt_config_rejected(self):
        with pytest.raises(ValidationError):
            CodecAdaptConfig(samples=0)


# ----------------------------------------------------------------------
# compressibility plumbing
# ----------------------------------------------------------------------
class TestCompressibility:
    def test_harvested_from_graph_meta(self):
        graph, _, _ = _spilling_case(compressibility=0.5)
        mapping = compressibility_from_graph(graph)
        assert set(mapping) == set(graph.nodes())
        assert all(value == 0.5 for value in mapping.values())

    def test_negative_multiplier_rejected(self):
        ledger = TieredLedger(1.0, SpillConfig(
            tiers=(TierSpec("disk"),), codec="zlib"))
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            ledger.set_compressibility({"a": -0.5})

    def test_multiplier_scales_stored_size(self):
        ledger = TieredLedger(1.0, SpillConfig(
            tiers=(TierSpec("disk"),), codec="zlib"))
        ledger.set_compressibility({"rich": 2.0, "lean": 0.0})
        for name in ("rich", "lean"):
            ledger.insert(name, 0.8, n_consumers=1)
            ledger.demote(name)
        # rich: ratio 1 + 1.6*2 = 4.2; lean: clamped to 1.0
        assert ledger.stored_size_of("rich") == pytest.approx(0.8 / 4.2)
        assert ledger.stored_size_of("lean") == pytest.approx(0.8)
        assert ledger.size_of("rich") == pytest.approx(0.8)


# ----------------------------------------------------------------------
# MiniDB: measured wall clocks + real measured adaptation
# ----------------------------------------------------------------------
class TestMiniDbFeedback:
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

    def test_wall_clock_fallback_prices_the_spill_tier(self, workload,
                                                       tmp_path):
        profiled = workload.profile()
        plan = Controller().plan(profiled, 1000.0, method="sc")
        sizes = {n: profiled.size_of(n) for n in profiled.nodes()}
        ram = 1.1 * max(sizes[n] for n in plan.flagged)
        controller = Controller(spill_dir=str(tmp_path / "spill"),
                                spill=SpillConfig(codec="zlib"))
        trace = controller.refresh_on_minidb(workload, ram, method="sc",
                                             plan=plan)
        report = trace.extras["tiered_store"]
        assert report["spill_count"] > 0
        # charge_io=False: the report's per-GB seconds come from the
        # *measured* wall clocks the backend records per tier, so the
        # feedback loop prices each tier of any hierarchy
        tier = report["tiers"][1]
        assert tier["observed"]["spill_write_seconds_per_gb"] > 0
        assert tier["observed"]["observed_ratio"] is not None
        feedback = CostFeedback.from_trace(trace)
        [spilled] = [t for t in feedback.tiers if t.name == "spill-disk"]
        assert spilled.spill_write_seconds_per_gb > 0  # from wall clocks
        # the measured dumps genuinely compressed
        assert spilled.observed_ratio > 1.0
        budget = feedback.tier_budget(
            ram, SpillConfig(tiers=(TierSpec("spill-disk"),),
                             codec="zlib"))
        assert budget.tiers[0].penalty_seconds_per_gb > 0
