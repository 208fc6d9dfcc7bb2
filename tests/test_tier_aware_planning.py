"""Spill-aware planning: TierAwareBudget, expected tiers, arbitration.

Covers the planning side (effective budgets, tier discounts, plan
annotations, Controller/CLI wiring) and the runtime side (stall-vs-spill
cost arbitration) of the tier-aware extension.
"""

import math

import pytest

from repro.core.optimizer import optimize, plan_summary
from repro.core.plan import Plan
from repro.core.problem import ScProblem, TierAwareBudget, TierCapacity
from repro.core.residency import assign_expected_tiers
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.errors import GraphError, ValidationError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)


def _graph(seed=0, n_nodes=24):
    return WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=0.5),
        seed=seed)


class TestTierAwareBudget:
    def test_discounts_reflect_device_speed(self):
        """A faster tier is worth more of a RAM byte; every discount
        stays within [0, 1]."""
        spill = SpillConfig(tiers=(TierSpec("ssd", 8.0), TierSpec("disk")))
        budget = TierAwareBudget.from_spill(4.0, spill)
        by_name = {t.name: t for t in budget.tiers}
        assert 0.0 < by_name["disk"].discount < by_name["ssd"].discount < 1.0
        assert by_name["ssd"].penalty_seconds_per_gb < \
            by_name["disk"].penalty_seconds_per_gb

    def test_effective_budget_adds_discounted_capacity(self):
        spill = SpillConfig(tiers=(TierSpec("ssd", 8.0),))
        budget = TierAwareBudget.from_spill(4.0, spill)
        expected = 4.0 + 8.0 * budget.tiers[0].discount
        assert budget.effective_budget() == pytest.approx(expected)

    def test_unbounded_tier_clamps(self):
        spill = SpillConfig(tiers=(TierSpec("disk"),))
        budget = TierAwareBudget.from_spill(1.0, spill)
        assert math.isinf(budget.effective_budget())
        clamped = budget.effective_budget(clamp=10.0)
        assert clamped == pytest.approx(
            1.0 + 10.0 * budget.tiers[0].discount)

    def test_worthless_tier_contributes_nothing(self):
        """A tier as slow as the warehouse itself earns discount 0."""
        crawl = DeviceProfile(disk_read_bandwidth=1e-6,
                              disk_write_bandwidth=1e-6,
                              decode_rate=math.inf,
                              encode_rate=math.inf)
        spill = SpillConfig(tiers=(
            TierSpec("tape", 100.0, profile=crawl),))
        budget = TierAwareBudget.from_spill(2.0, spill)
        assert budget.tiers[0].discount == 0.0
        assert budget.effective_budget() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TierCapacity(name="x", capacity=1.0, discount=1.5,
                         penalty_seconds_per_gb=0.0)
        with pytest.raises(ValidationError):
            TierAwareBudget(ram=-1.0)
        with pytest.raises(ValidationError):
            TierAwareBudget(ram=float("nan"))


class TestScProblemTierBudget:
    def test_effective_budget_defaults_to_ram(self):
        graph = _graph()
        problem = ScProblem(graph=graph, memory_budget=2.0)
        assert problem.effective_budget == 2.0

    def test_effective_budget_clamps_to_graph_size(self):
        graph = _graph()
        spill = SpillConfig(tiers=(TierSpec("disk"),))
        problem = ScProblem(
            graph=graph, memory_budget=1.0,
            tier_budget=TierAwareBudget.from_spill(1.0, spill))
        assert problem.effective_budget <= 1.0 + graph.total_size()
        assert problem.effective_budget > 1.0

    def test_ram_mismatch_rejected(self):
        graph = _graph()
        spill = SpillConfig(tiers=(TierSpec("disk"),))
        with pytest.raises(ValidationError, match="must match"):
            ScProblem(graph=graph, memory_budget=2.0,
                      tier_budget=TierAwareBudget.from_spill(1.0, spill))

    def test_oversized_for_ram_not_excluded_with_tiers(self):
        """A node bigger than RAM but within the effective budget stays
        a flagging candidate — the runtime parks it in a lower tier."""
        problem = ScProblem.from_tables(
            edges=[("big", "c")], sizes={"big": 5.0, "c": 1.0},
            scores={"big": 3.0, "c": 1.0}, memory_budget=2.0)
        assert "big" in problem.excluded_nodes()
        spill = SpillConfig(tiers=(TierSpec("disk"),))
        tiered = ScProblem.from_tables(
            edges=[("big", "c")], sizes={"big": 5.0, "c": 1.0},
            scores={"big": 3.0, "c": 1.0}, memory_budget=2.0,
            tier_budget=TierAwareBudget.from_spill(2.0, spill))
        assert "big" not in tiered.excluded_nodes()

    def test_node_no_single_tier_can_host_stays_excluded(self):
        """Finite hierarchy: the summed effective budget may exceed a
        node that no individual tier can host — flagging it would just
        strip the flag at runtime after futile demotions, so it must
        stay in V_exclude, and optimize() (which solves on a shadow
        problem) must honor the same cap."""
        spill = SpillConfig(tiers=(TierSpec("ssd", 2.0),))
        problem = ScProblem.from_tables(
            edges=[("big", "c")], sizes={"big": 3.0, "c": 1.0},
            scores={"big": 9.0, "c": 1.0}, memory_budget=2.0,
            tier_budget=TierAwareBudget.from_spill(2.0, spill))
        assert problem.effective_budget > 3.0  # the trap this guards
        assert "big" in problem.excluded_nodes()
        plan = optimize(problem, method="sc").plan
        assert "big" not in plan.flagged
        assert "big" not in plan.tier_map()


class TestTierAwareOptimize:
    def _problems(self, seed=0, fraction=0.1):
        graph = _graph(seed)
        ram = fraction * graph.total_size()
        spill = SpillConfig(tiers=(TierSpec("ssd", 2 * ram),
                                   TierSpec("disk")))
        blind = ScProblem(graph=graph, memory_budget=ram)
        aware = ScProblem(
            graph=graph, memory_budget=ram,
            tier_budget=TierAwareBudget.from_spill(ram, spill))
        return blind, aware

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flags_more_when_spilling_is_cheap(self, seed):
        blind, aware = self._problems(seed)
        blind_result = optimize(blind, method="sc")
        aware_result = optimize(aware, method="sc")
        assert (blind.total_score(aware_result.plan.flagged)
                >= blind.total_score(blind_result.plan.flagged))
        assert (len(aware_result.plan.flagged)
                >= len(blind_result.plan.flagged))

    def test_plan_records_expected_tiers(self):
        _, aware = self._problems()
        plan = optimize(aware, method="sc").plan
        tier_map = plan.tier_map()
        assert set(tier_map) == set(plan.flagged)
        assert set(tier_map.values()) <= {"ram", "ssd", "disk"}
        # a starved RAM budget cannot host every flagged byte in RAM
        assert any(tier != "ram" for tier in tier_map.values())

    def test_blind_plan_records_no_tiers(self):
        blind, _ = self._problems()
        assert optimize(blind, method="sc").plan.expected_tiers == ()

    def test_summary_reports_effective_budget_and_placement(self):
        _, aware = self._problems()
        result = optimize(aware, method="sc")
        summary = plan_summary(aware, result)
        assert summary["effective_budget"] > summary["memory_budget"]
        assert sum(summary["planned_tiers"].values()) == \
            summary["n_flagged"]

    def test_method_none_with_tier_budget(self):
        _, aware = self._problems()
        result = optimize(aware, method="none")
        assert result.plan.flagged == frozenset()
        assert result.plan.expected_tiers == ()

    def test_plan_json_roundtrip_keeps_tiers(self):
        _, aware = self._problems()
        plan = optimize(aware, method="sc").plan
        assert Plan.from_json(plan.to_json()) == plan

    def test_expected_tiers_must_name_flagged_nodes(self):
        with pytest.raises(GraphError, match="unflagged"):
            Plan(order=("a", "b"), flagged=frozenset({"a"}),
                 expected_tiers=(("b", "ram"),))


class TestAssignExpectedTiers:
    def test_overflow_cascades_down_the_hierarchy(self):
        """a, b, c all stay resident until d consumes them: RAM takes
        the first, the SSD the second, and the third overflows to
        disk."""
        graph = DependencyGraph()
        graph.add_node("d", size=0.1, score=0.0)
        for node_id in ("a", "b", "c"):
            graph.add_node(node_id, size=1.0, score=1.0)
            graph.add_edge(node_id, "d")
        order = ["a", "b", "c", "d"]
        placement = assign_expected_tiers(
            graph, order, {"a", "b", "c"}, ram_budget=1.0,
            tiers=[("ssd", 1.0), ("disk", math.inf)])
        assert placement == {"a": "ram", "b": "ssd", "c": "disk"}

    def test_empty_flagged_is_empty(self):
        graph = DependencyGraph()
        graph.add_node("a", size=1.0, score=1.0)
        assert assign_expected_tiers(graph, ["a"], set(), 1.0, []) == {}

    def test_stray_flagged_node_rejected(self):
        graph = DependencyGraph()
        graph.add_node("a", size=1.0, score=1.0)
        with pytest.raises(GraphError):
            assign_expected_tiers(graph, ["a"], {"ghost"}, 1.0, [])


class TestControllerTierAware:
    def test_plan_tier_aware_requires_spill(self):
        graph = _graph()
        with pytest.raises(ValidationError, match="spill configuration"):
            Controller().plan(graph, 1.0, tier_aware=True)

    def test_refresh_tier_aware_end_to_end(self):
        graph = _graph()
        ram = 0.1 * graph.total_size()
        spill = SpillConfig(tiers=(TierSpec("ssd", 2 * ram),
                                   TierSpec("disk")))
        controller = Controller(options=SimulatorOptions(spill=spill))
        blind = controller.refresh(graph, ram, method="sc")
        aware = controller.refresh(graph, ram, method="sc",
                                   tier_aware=True)
        assert len(aware.nodes) == graph.n
        assert aware.peak_catalog_usage <= ram + 1e-9
        # the tier-aware plan completes faster: cheap spills beat
        # blocking warehouse writes for the extra flagged nodes
        assert aware.end_to_end_time < blind.end_to_end_time

    def test_minidb_tier_budget_matches_executor_tier(self):
        budget = Controller(spill_dir="spill").minidb_tier_budget(1.0)
        assert [t.name for t in budget.tiers] == ["spill-disk"]
        rung = Controller(spill_dir="spill", ram_compressed_gb=0.5)
        assert [t.name for t in rung.minidb_tier_budget(1.0).tiers] == [
            "ram-compressed", "spill-disk"]

    def test_tier_aware_minidb_plan_requires_spill_dir(self):
        """Without a spill directory the run has no spill tier, so a
        plan priced against one would flag what the run cannot host."""
        controller = Controller(spill=SpillConfig(codec="zlib"))
        with pytest.raises(ValidationError, match="spill_dir"):
            controller.plan_for_minidb(_graph(), 1e-4, tier_aware=True)
        assert controller.plan_for_minidb(_graph(), 1e-4).order

    def test_refresh_on_minidb_tier_aware_requires_spill_dir(self,
                                                             tmp_path):
        np = pytest.importorskip("numpy")
        from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
        from repro.db.table import Table

        db = MiniDB(str(tmp_path / "wh"))
        rng = np.random.default_rng(0)
        db.register_table("events", Table({
            "user": rng.integers(0, 5, 100),
            "amount": rng.uniform(0, 10, 100),
        }))
        workload = SqlWorkload(db=db, definitions=[
            MvDefinition("mv_a",
                         "SELECT user, amount FROM events "
                         "WHERE amount > 1")])
        workload.profile()
        with pytest.raises(ValidationError, match="spill_dir"):
            Controller().refresh_on_minidb(workload, 1.0,
                                           tier_aware=True)


class TestStallSpillArbitration:
    def _two_big_nodes(self):
        graph = DependencyGraph()
        for node_id in ("a", "b"):
            graph.add_node(node_id, size=1.9, score=1.9,
                           compute_time=0.1)
        plan = Plan(order=("a", "b"), flagged=frozenset({"a", "b"}))
        return graph, plan

    def _run(self, arbitrate, backend="simulator", workers=1):
        graph, plan = self._two_big_nodes()
        options = SimulatorOptions(spill=SpillConfig(
            tiers=(TierSpec("disk"),), arbitrate=arbitrate))
        return Controller(options=options).refresh(
            graph, 2.0, plan=plan, method="sc", backend=backend,
            workers=workers)

    def test_stall_wins_when_drain_is_imminent(self):
        """RAM holds one output; the first output's background drain
        finishes long before a slow-disk spill would — arbitration must
        wait instead of demoting."""
        trace = self._run(arbitrate=True)
        report = trace.extras["tiered_store"]
        node_b = next(n for n in trace.nodes if n.node_id == "b")
        assert node_b.admission == "stall"
        assert node_b.stall > 0
        assert report["spill_count"] == 0
        assert report["arbitration"]["stall_wins"] == 1
        assert report["arbitration"]["spill_wins"] == 0
        assert trace.stall_avoided_time > 0

    def test_arbitrate_false_restores_spill_always_wins(self):
        trace = self._run(arbitrate=False)
        report = trace.extras["tiered_store"]
        assert report["spill_count"] == 1
        assert report["arbitration"]["enabled"] is False
        assert report["arbitration"]["stall_wins"] == 0
        assert all(n.admission == "" for n in trace.nodes)

    def test_arbitration_beats_always_spill_here(self):
        stall = self._run(arbitrate=True)
        spill = self._run(arbitrate=False)
        assert stall.end_to_end_time < spill.end_to_end_time

    def test_workers1_parallel_matches_serial_arbitration(self):
        serial = self._run(arbitrate=True)
        parallel = self._run(arbitrate=True, backend="parallel")
        assert serial.end_to_end_time == \
            pytest.approx(parallel.end_to_end_time)
        assert serial.extras == parallel.extras
        for a, b in zip(serial.nodes, parallel.nodes):
            assert a.admission == b.admission
            assert a.stall == pytest.approx(b.stall)

    def test_spill_wins_when_drain_is_distant(self):
        """A fast SSD spill against a far-off drain: demoting must win
        and be recorded as the chosen action."""
        graph = DependencyGraph()
        # 'a' stays resident (consumer at the end); 'b' must displace it
        graph.add_node("a", size=1.5, score=1.0, compute_time=0.01)
        graph.add_node("b", size=1.5, score=1.0, compute_time=0.01)
        graph.add_node("c", size=0.1, score=1.0, compute_time=0.01)
        graph.add_edge("a", "c")
        graph.add_edge("b", "c")
        plan = Plan(order=("a", "b", "c"),
                    flagged=frozenset({"a", "b"}))
        slow_drain = DeviceProfile(background_parallelism=0.01)
        options = SimulatorOptions(spill=SpillConfig(
            tiers=(TierSpec("ssd"),), arbitrate=True))
        trace = Controller(profile=slow_drain,
                           options=options).refresh(
            graph, 2.0, plan=plan, method="sc")
        report = trace.extras["tiered_store"]
        node_b = next(n for n in trace.nodes if n.node_id == "b")
        assert node_b.admission == "spill"
        assert report["spill_count"] >= 1
        assert report["arbitration"]["spill_wins"] == 1
        assert report["arbitration"]["stall_wins"] == 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_multiworker_arbitration_stays_within_budget(self, workers):
        graph = WorkloadGenerator().generate(
            GeneratedWorkloadConfig(n_nodes=24, height_width_ratio=0.25),
            seed=3)
        ram = 0.15 * graph.total_size()
        spill = SpillConfig(tiers=(TierSpec("ssd", ram),
                                   TierSpec("disk")))
        controller = Controller(options=SimulatorOptions(spill=spill))
        plan = controller.plan(graph, ram, method="sc", tier_aware=True)
        trace = controller.refresh(graph, ram, plan=plan, method="sc",
                                   backend="parallel", workers=workers)
        assert len(trace.nodes) == graph.n
        assert trace.peak_catalog_usage <= ram + 1e-9
        assert trace.extras["tiered_store"]["tiers"][0]["peak"] <= \
            ram + 1e-9
