"""Tests for speedup scores and the selection baselines."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.residency import is_feasible
from repro.core.selection_baselines import (
    greedy_selection,
    random_selection,
    ratio_selection,
)
from repro.core.speedup import compute_speedup_scores, speedup_score
from repro.graph.dag import DependencyGraph
from repro.graph.topo import kahn_topological_order
from repro.metadata.costmodel import DeviceProfile
from tests.conftest import make_random_problem


class TestSpeedupScore:
    def test_formula_components(self):
        cost = DeviceProfile()
        size = 1.0
        expected = (
            2 * (cost.read_time_disk(size) - cost.read_time_memory(size))
            + (cost.write_time_disk(size) - cost.create_time_memory(size))
        )
        assert speedup_score(size, 2, cost) == pytest.approx(expected)

    def test_more_consumers_more_score(self):
        cost = DeviceProfile()
        assert speedup_score(1.0, 3, cost) > speedup_score(1.0, 1, cost)

    def test_sink_node_still_saves_write(self):
        cost = DeviceProfile()
        assert speedup_score(1.0, 0, cost) > 0

    def test_zero_size_zero_score(self):
        assert speedup_score(0.0, 5, DeviceProfile()) == pytest.approx(
            5 * DeviceProfile().read_latency)

    def test_compute_scores_annotates_graph(self, diamond_graph):
        scores = compute_speedup_scores(diamond_graph, DeviceProfile())
        for node_id in diamond_graph.nodes():
            assert diamond_graph.score_of(node_id) == scores[node_id]
            assert scores[node_id] > 0
        # a has 2 consumers and the largest size: biggest score
        assert max(scores, key=scores.get) == "a"


class TestSelectionBaselines:
    def test_greedy_takes_first_fitting(self):
        from repro.core.problem import ScProblem

        problem = ScProblem.from_tables(
            edges=[("a", "b"), ("b", "c")],
            sizes={"a": 8.0, "b": 8.0, "c": 1.0},
            scores={"a": 1.0, "b": 100.0, "c": 1.0},
            memory_budget=10.0)
        order = ["a", "b", "c"]
        flagged = greedy_selection(problem, order)
        # a (first in order) blocks b, despite b's far higher score
        assert "a" in flagged
        assert "b" not in flagged

    def test_ratio_prefers_score_density(self):
        from repro.core.problem import ScProblem

        problem = ScProblem.from_tables(
            edges=[("a", "b"), ("b", "c")],
            sizes={"a": 8.0, "b": 8.0, "c": 1.0},
            scores={"a": 1.0, "b": 100.0, "c": 1.0},
            memory_budget=10.0)
        order = ["a", "b", "c"]
        flagged = ratio_selection(problem, order)
        assert "b" in flagged
        assert "a" not in flagged

    def test_the_budget_is_inclusive(self):
        """A node the budget's size fits, and so do overlapping nodes
        whose sizes pass the budget by less than the 1e-9 slack."""
        from repro.core.problem import ScProblem

        whole = ScProblem.from_tables(
            edges=[("a", "b")], sizes={"a": 10.0, "b": 0.0},
            scores={"a": 1.0, "b": 1.0}, memory_budget=10.0)
        assert "a" in greedy_selection(whole, ["a", "b"])
        shared = ScProblem.from_tables(
            edges=[("a", "c"), ("b", "c")],
            sizes={"a": 6.0, "b": 4.0 + 5e-10, "c": 10.0},
            scores={"a": 1.0, "b": 1.0, "c": 1.0}, memory_budget=10.0)
        assert greedy_selection(shared, ["a", "b", "c"]) == {"a", "b"}

    def test_ratio_ranks_by_score_per_size(self):
        """``a`` has the higher ratio (2 against 1), ``b`` the higher
        score times size; only one of them fits beside the other."""
        from repro.core.problem import ScProblem

        problem = ScProblem.from_tables(
            edges=[("a", "c"), ("b", "c")],
            sizes={"a": 1.0, "b": 4.0, "c": 0.0},
            scores={"a": 2.0, "b": 4.0, "c": 0.0}, memory_budget=4.0)
        flagged = ratio_selection(problem, ["a", "b", "c"])
        assert "a" in flagged
        assert "b" not in flagged

    def test_random_is_seeded(self):
        problem = make_random_problem(7, n_nodes=20)
        order = kahn_topological_order(problem.graph)
        a = random_selection(problem, order, rng=random.Random(3))
        b = random_selection(problem, order, rng=random.Random(3))
        assert a == b


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       budget_fraction=st.floats(0.0, 1.0))
def test_property_baselines_always_feasible(seed, budget_fraction):
    problem = make_random_problem(seed, n_nodes=15,
                                  budget_fraction=budget_fraction)
    order = kahn_topological_order(problem.graph)
    for flagged in (
        greedy_selection(problem, order),
        random_selection(problem, order, rng=random.Random(seed)),
        ratio_selection(problem, order),
    ):
        assert is_feasible(problem.graph, order, flagged,
                           problem.memory_budget)
