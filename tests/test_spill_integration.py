"""Spill-to-disk integration across the execution backends.

The acceptance contract of the tiered store:

* with spill *disabled* (the default), every backend produces traces
  bit-identical to the pre-tiered behavior;
* with spill *enabled* and a RAM budget below the plan's peak, runs
  complete, RAM-tier usage stays within budget throughout, and the
  extras report spill/promote counts;
* the parallel backend at ``workers=1`` reproduces the tiered serial
  simulator bit-for-bit, tiers and all;
* the MiniDB backend performs *real* spills (files appear in the spill
  directory mid-run) and still produces correct table contents.
"""

import os

import pytest

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

TRACE_ATTRS = ("start", "end", "read_disk", "read_memory", "compute",
               "write", "create_memory", "stall", "spill_write",
               "promote_read")


def _case(seed, n_nodes=24, ratio=0.5, budget_fraction=0.25):
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=ratio),
        seed=seed)
    budget = budget_fraction * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=seed).plan
    return graph, plan, budget


def _spill_options(ram_peak, policy="cost", promote=True):
    return SimulatorOptions(spill=SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * ram_peak), TierSpec("disk")),
        policy=policy, promote=promote))


def _assert_traces_equal(a, b):
    assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]
    assert a.end_to_end_time == pytest.approx(b.end_to_end_time)
    assert a.peak_catalog_usage == pytest.approx(b.peak_catalog_usage)
    for x, y in zip(a.nodes, b.nodes):
        for attr in TRACE_ATTRS:
            assert getattr(x, attr) == pytest.approx(getattr(y, attr)), \
                (x.node_id, attr)


class TestSpillDisabledIsIdentical:
    @pytest.mark.parametrize("backend,workers", [
        ("simulator", 1), ("parallel", 1), ("parallel", 4)])
    def test_default_options_report_no_extras(self, backend, workers):
        graph, plan, budget = _case(0)
        trace = Controller().refresh(graph, budget, plan=plan, method="sc",
                                     backend=backend, workers=workers)
        assert trace.extras == {}
        assert all(n.spill_write == 0 and n.promote_read == 0
                   and n.admission == ""  # no arbitration ever ran
                   for n in trace.nodes)
        if workers == 1:  # serial and workers=1 agree number for number
            assert trace.to_dict() == Controller().refresh(
                graph, budget, plan=plan, method="sc").to_dict()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_roomy_spill_run_matches_disabled_run(self, seed):
        """With enough RAM the tiered machinery must be a no-op: the
        trace matches the plain run number for number."""
        graph, plan, budget = _case(seed)
        plain = Controller().refresh(graph, budget, plan=plan, method="sc")
        tiered = Controller(options=_spill_options(budget)).refresh(
            graph, budget, plan=plan, method="sc")
        _assert_traces_equal(plain, tiered)
        assert tiered.extras["tiered_store"]["spill_count"] == 0


class TestSimulatorSpill:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("policy", ["cost", "lru", "largest"])
    def test_completes_below_peak_within_ram_budget(self, seed, policy):
        graph, plan, budget = _case(seed)
        peak = Controller().refresh(
            graph, budget, plan=plan, method="sc").peak_catalog_usage
        ram = 0.3 * peak
        controller = Controller(
            options=_spill_options(peak, policy=policy))
        trace = controller.refresh(graph, ram, plan=plan, method="sc")
        report = trace.extras["tiered_store"]
        assert len(trace.nodes) == graph.n
        assert trace.peak_catalog_usage <= ram + 1e-9
        assert report["tiers"][0]["peak"] <= ram + 1e-9
        assert report["policy"] == policy
        assert report["spill_count"] > 0
        assert trace.spill_time > 0
        # every flagged node kept its flag: no blocking write-through
        assert all(n.write == 0 for n in trace.nodes if n.flagged)

    def test_starved_run_slower_than_full_ram(self):
        graph, plan, budget = _case(2)
        full = Controller().refresh(graph, budget, plan=plan, method="sc")
        peak = full.peak_catalog_usage
        starved = Controller(options=_spill_options(peak)).refresh(
            graph, 0.2 * peak, plan=plan, method="sc")
        assert starved.end_to_end_time > full.end_to_end_time

    def test_spill_shorthand_on_controller(self):
        graph, plan, budget = _case(4)
        spill = SpillConfig(tiers=(TierSpec("disk"),))
        trace = Controller(spill=spill).refresh(
            graph, 0.2 * budget, plan=plan, method="sc")
        assert "tiered_store" in trace.extras

    def test_conflicting_spill_configs_rejected(self):
        from repro.errors import ValidationError

        graph, plan, budget = _case(4)
        controller = Controller(
            options=SimulatorOptions(spill=SpillConfig(
                tiers=(TierSpec("ssd", 1.0),))),
            spill=SpillConfig(tiers=(TierSpec("disk"),)))
        with pytest.raises(ValidationError, match="conflicting spill"):
            controller.refresh(graph, budget, plan=plan, method="sc")

    def test_lru_with_spill_rejected_instead_of_ignored(self):
        from repro.errors import ValidationError

        graph, _, budget = _case(4)
        controller = Controller(spill=SpillConfig(
            tiers=(TierSpec("disk"),)))
        with pytest.raises(ValidationError, match="LRU baseline"):
            controller.refresh(graph, budget, method="lru")

    def test_finite_hierarchy_bills_demotions_made_before_failure(self):
        """When no tier can host an output, demotions already performed
        while trying must still land in a node's timeline, keeping the
        extras counters and trace.spill_time consistent."""
        from repro.core.plan import Plan
        from repro.graph.dag import DependencyGraph

        graph = DependencyGraph()
        for node_id, size in (("v1", 0.5), ("v2", 1.4), ("big", 2.0)):
            graph.add_node(node_id, size=size, score=size)
        graph.add_edge("v1", "big")
        graph.add_edge("v2", "big")
        plan = Plan(order=("v1", "v2", "big"),
                    flagged=frozenset({"v1", "v2", "big"}))
        options = SimulatorOptions(spill=SpillConfig(
            tiers=(TierSpec("ssd", 1.2),), policy="largest"))
        trace = Controller(options=options).refresh(
            graph, 2.0, plan=plan, method="sc")
        report = trace.extras["tiered_store"]
        big = next(n for n in trace.nodes if n.node_id == "big")
        assert big.write > 0                # flag lost: nothing could host it
        assert report["spill_count"] == 1   # v1 demoted while trying
        assert trace.spill_time > 0         # ...and that move was billed

    def test_unbounded_last_tier_never_loses_a_flag(self):
        """Even an absurd RAM budget completes with every flag kept."""
        graph, plan, _ = _case(1)
        trace = Controller(options=_spill_options(1.0)).refresh(
            graph, 1e-9, plan=plan, method="sc")
        assert len(trace.nodes) == graph.n
        assert all(n.write == 0 for n in trace.nodes if n.flagged)
        assert trace.peak_catalog_usage <= 1e-9


class TestParallelSpill:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_workers1_matches_tiered_serial_simulator(self, seed):
        graph, plan, budget = _case(seed)
        peak = Controller().refresh(
            graph, budget, plan=plan, method="sc").peak_catalog_usage
        controller = Controller(options=_spill_options(peak))
        ram = 0.3 * peak
        serial = controller.refresh(graph, ram, plan=plan, method="sc")
        par = controller.refresh(graph, ram, plan=plan, method="sc",
                                 backend="parallel", workers=1)
        _assert_traces_equal(serial, par)
        assert par.extras["tiered_store"]["spill_count"] == \
            serial.extras["tiered_store"]["spill_count"]

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_concurrent_workers_stay_within_ram_budget(self, seed):
        graph, plan, budget = _case(seed, ratio=0.25)
        peak = Controller().refresh(
            graph, budget, plan=plan, method="sc").peak_catalog_usage
        ram = 0.4 * peak
        controller = Controller(options=_spill_options(peak))
        trace = controller.refresh(graph, ram, plan=plan, method="sc",
                                   backend="parallel", workers=4)
        report = trace.extras["tiered_store"]
        assert len(trace.nodes) == graph.n
        assert trace.peak_catalog_usage <= ram + 1e-9
        assert report["tiers"][0]["peak"] <= ram + 1e-9

    def test_deterministic_given_seed(self):
        graph, plan, budget = _case(4, ratio=0.25)
        controller = Controller(options=_spill_options(0.3 * budget))
        runs = [controller.refresh(graph, 0.2 * budget, plan=plan,
                                   method="sc", backend="parallel",
                                   workers=4, seed=11) for _ in range(2)]
        _assert_traces_equal(runs[0], runs[1])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_oversized_flagged_node_keeps_flag_via_lower_tier(self,
                                                              workers):
        """A flagged output bigger than RAM lands in a lower tier with
        its flag intact on every worker count — the scenario the tiered
        store exists for must not silently degrade to a blocking write
        under concurrency."""
        from repro.core.plan import Plan
        from repro.graph.dag import DependencyGraph

        graph = DependencyGraph()
        for node_id, size in (("a", 1.0), ("big", 5.0), ("c", 1.0)):
            graph.add_node(node_id, size=size, score=size)
        graph.add_edge("a", "big")
        graph.add_edge("big", "c")
        plan = Plan(order=("a", "big", "c"),
                    flagged=frozenset({"a", "big"}))
        controller = Controller(options=SimulatorOptions(
            spill=SpillConfig(tiers=(TierSpec("disk"),))))
        trace = controller.refresh(graph, 2.0, plan=plan, method="sc",
                                   backend="parallel", workers=workers)
        big = next(n for n in trace.nodes if n.node_id == "big")
        assert big.flagged and big.write == 0
        assert big.spill_write > 0
        assert trace.peak_catalog_usage <= 2.0 + 1e-9

    def test_spill_counters_and_timelines_agree(self):
        """Demotions from failed admission attempts must still be billed
        to some node's timeline (extras and trace.spill_time agree)."""
        from repro.core.plan import Plan
        from repro.graph.dag import DependencyGraph

        graph = DependencyGraph()
        for node_id, size in (("v", 1.0), ("big", 2.0)):
            graph.add_node(node_id, size=size, score=size)
        graph.add_edge("v", "big")
        plan = Plan(order=("v", "big"), flagged=frozenset({"v", "big"}))
        controller = Controller(options=SimulatorOptions(
            spill=SpillConfig(tiers=(TierSpec("ssd", 1.0),))))
        trace = controller.refresh(graph, 2.0, plan=plan, method="sc",
                                   backend="parallel", workers=2)
        report = trace.extras["tiered_store"]
        assert (report["spill_count"] > 0) == (trace.spill_time > 0)


class TestMiniDbRealSpill:
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

    def test_real_spill_bounded_ram_and_correct_results(self, workload,
                                                        tmp_path):
        import numpy as np

        profiled = workload.profile()
        plan = Controller().plan(profiled, 1000.0, method="sc")
        assert plan.flagged, "profiled scores should make flagging win"
        sizes = {n: profiled.size_of(n) for n in profiled.nodes()}
        ram = 1.1 * max(sizes[n] for n in plan.flagged)
        spill_dir = str(tmp_path / "spill")
        controller = Controller(spill_dir=spill_dir)
        trace = controller.refresh_on_minidb(workload, ram, method="sc",
                                             plan=plan)
        report = trace.extras["tiered_store"]
        assert trace.peak_catalog_usage <= ram + 1e-9
        assert report["spill_count"] > 0
        assert report["tiers"][1]["name"] == "spill-disk"
        # scratch copies are cleaned up once entries drain
        assert os.listdir(spill_dir) == []
        # every MV is durable and correct despite the spilling
        db = workload.db
        for name in profiled.nodes():
            assert db.catalog.persisted(name)
        spend = db.table("mv_c").columns()["s"]
        raw = db.table("events").columns()
        expected = raw["amount"][raw["amount"] > 1].sum()
        assert np.isclose(spend.sum(), expected)

    def test_spill_disabled_keeps_plain_ledger(self, workload):
        workload.profile()
        trace = Controller().refresh_on_minidb(workload, 1000.0,
                                               method="sc")
        assert trace.extras == {}
