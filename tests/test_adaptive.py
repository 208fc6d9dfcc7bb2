"""Tests for adaptive re-planning (repro.engine.adaptive)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.adaptive import AdaptiveController
from repro.errors import ValidationError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile
from repro.core.speedup import compute_speedup_scores
from tests.conftest import make_random_problem


def chain_with_sizes(sizes: dict[str, float]) -> DependencyGraph:
    graph = DependencyGraph()
    names = list(sizes)
    for name, size in sizes.items():
        graph.add_node(name, size=size, compute_time=0.5)
    for a, b in zip(names, names[1:]):
        graph.add_edge(a, b)
    compute_speedup_scores(graph, DeviceProfile())
    return graph


def diamond_graph() -> DependencyGraph:
    graph = DependencyGraph()
    for name, size in (("a", 1.0), ("b", 0.6), ("c", 0.6), ("d", 0.2)):
        graph.add_node(name, size=size, compute_time=0.3)
    graph.add_edge("a", "b")
    graph.add_edge("a", "c")
    graph.add_edge("b", "d")
    graph.add_edge("c", "d")
    compute_speedup_scores(graph, DeviceProfile())
    return graph


class TestAdaptiveController:
    def test_no_drift_no_replans(self):
        graph = diamond_graph()
        truth = {v: graph.size_of(v) for v in graph.nodes()}
        controller = AdaptiveController()
        report = controller.refresh(graph, truth, memory_budget=1.2)
        assert report.n_replans == 0
        assert set(report.executed) == set(graph.nodes())

    def test_no_drift_matches_oracle(self):
        graph = diamond_graph()
        truth = {v: graph.size_of(v) for v in graph.nodes()}
        controller = AdaptiveController()
        report = controller.refresh(graph, truth, memory_budget=1.2)
        oracle = controller.oracle_time(graph, truth, memory_budget=1.2)
        assert report.total_time == pytest.approx(oracle, rel=0.15)

    def test_uniform_growth_triggers_replan(self):
        graph = chain_with_sizes(
            {f"n{i}": 0.5 for i in range(8)})
        truth = {v: 3.0 * graph.size_of(v) for v in graph.nodes()}
        controller = AdaptiveController(drift_threshold=0.25)
        report = controller.refresh(graph, truth, memory_budget=1.0)
        assert report.n_replans >= 1

    def test_adaptive_beats_stale_on_shrunk_data(self):
        # Estimates say nodes are too big to flag (3 GB vs a 1 GB budget);
        # reality shrank 6x, so everything is flaggable. The stale plan
        # flags nothing; the adaptive one discovers the shrink after its
        # first epoch and re-plans the rest with flags.
        graph = chain_with_sizes({f"n{i}": 3.0 for i in range(10)})
        truth = {v: graph.size_of(v) / 6.0 for v in graph.nodes()}
        controller = AdaptiveController(drift_threshold=0.25,
                                        check_window=2)
        adaptive = controller.refresh(graph, truth, memory_budget=1.0)
        stale = controller.stale_time(graph, truth, memory_budget=1.0)
        assert adaptive.n_replans >= 1
        assert adaptive.total_time < stale

    def test_adaptive_not_much_worse_than_stale_on_growth(self):
        # when reality grew past the budget both plans degrade to spilled
        # writes; adaptation must not add meaningful overhead
        graph = chain_with_sizes({f"n{i}": 0.5 for i in range(10)})
        truth = {v: 3.0 * graph.size_of(v) for v in graph.nodes()}
        controller = AdaptiveController(drift_threshold=0.25)
        adaptive = controller.refresh(graph, truth, memory_budget=1.0)
        stale = controller.stale_time(graph, truth, memory_budget=1.0)
        assert adaptive.total_time <= stale * 1.10

    def test_missing_truth_rejected(self):
        graph = diamond_graph()
        with pytest.raises(ValidationError):
            AdaptiveController().refresh(graph, {"a": 1.0},
                                         memory_budget=1.0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValidationError):
            AdaptiveController(drift_threshold=0.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            AdaptiveController(check_window=0)

    def test_segments_cover_plan_once(self):
        graph = diamond_graph()
        truth = {v: 1.5 * graph.size_of(v) for v in graph.nodes()}
        report = AdaptiveController(drift_threshold=0.1).refresh(
            graph, truth, memory_budget=1.2)
        executed = report.executed
        assert sorted(executed) == sorted(graph.nodes())
        assert len(executed) == len(set(executed))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), factor=st.floats(0.3, 3.0))
    def test_random_graphs_complete_and_bounded(self, seed, factor):
        problem = make_random_problem(seed, n_nodes=10,
                                      budget_fraction=0.3)
        graph = problem.graph
        truth = {v: factor * max(graph.size_of(v), 1e-6)
                 for v in graph.nodes()}
        controller = AdaptiveController(drift_threshold=0.2)
        report = controller.refresh(graph, truth,
                                    memory_budget=problem.memory_budget)
        assert sorted(report.executed) == sorted(graph.nodes())
        assert report.total_time > 0


class TestAdaptiveWithTieredStore:
    """Adaptive refresh + spill + feedback in one run: the adaptive
    controller re-plans mid-run *while* the tiered store spills, and
    the finished trace still carries feedback-grade telemetry."""

    def _spilling_setup(self, n=10, size=0.8, growth=3.0):
        graph = chain_with_sizes({f"n{i}": size for i in range(n)})
        truth = {v: growth * graph.size_of(v) for v in graph.nodes()}
        return graph, truth

    def _options(self, adapt=None, codec="none"):
        from repro.engine import SimulatorOptions
        from repro.store import SpillConfig, TierSpec

        return SimulatorOptions(spill=SpillConfig(
            tiers=(TierSpec("ssd", 2.0), TierSpec("disk")),
            codec=codec, adapt=adapt))

    def test_replans_and_spills_in_one_run(self):
        graph, truth = self._spilling_setup()
        controller = AdaptiveController(drift_threshold=0.25,
                                        options=self._options())
        report = controller.refresh(graph, truth, memory_budget=1.0)
        assert report.n_replans >= 1
        assert sorted(report.executed) == sorted(graph.nodes())
        tiered = report.trace.extras["tiered_store"]
        assert tiered["spill_count"] > 0
        # the budget invariant survives mid-run re-planning
        assert report.trace.peak_catalog_usage <= 1.0 + 1e-9

    def test_adaptive_trace_feeds_the_planner(self):
        from repro.feedback import CostFeedback
        from repro.store import SpillConfig, TierSpec

        graph, truth = self._spilling_setup()
        controller = AdaptiveController(drift_threshold=0.25,
                                        options=self._options())
        report = controller.refresh(graph, truth, memory_budget=1.0)
        assert report.trace.extras["tiered_store"]["spill_count"] > 0
        feedback = CostFeedback.from_trace(report.trace)
        spilled = [t for t in feedback.tiers
                   if t.spill_write_seconds_per_gb is not None]
        assert spilled, "no tier carried observed spill costs"
        budget = feedback.tier_budget(
            1.0, SpillConfig(tiers=(TierSpec("ssd", 2.0),
                                    TierSpec("disk"))))
        assert budget.effective_budget(sum(truth.values())) >= 1.0

    def test_codec_adaptation_during_adaptive_run(self):
        """All three loops at once: drift re-planning, spilling, and
        mid-run codec re-pricing on an incompressible workload."""
        from repro.store import CodecAdaptConfig

        graph, truth = self._spilling_setup()
        for node_id in graph.nodes():
            graph.node(node_id).meta["compressibility"] = 0.0
        controller = AdaptiveController(
            drift_threshold=0.25,
            options=self._options(adapt=CodecAdaptConfig(samples=1),
                                  codec="zlib"))
        report = controller.refresh(graph, truth, memory_budget=1.0)
        tiered = report.trace.extras["tiered_store"]
        assert tiered["spill_count"] > 0
        assert tiered["observed_codec_ratio"] == pytest.approx(1.0)
        adapt = tiered["codec_adapt"]
        assert adapt["enabled"] is True
        assert any(record["switched_to"] == "none"
                   for record in adapt["tiers"].values())
        assert sorted(report.executed) == sorted(graph.nodes())
