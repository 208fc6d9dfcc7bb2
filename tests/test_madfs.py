"""Tests for MA-DFS (paper §V-B, Figure 8)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.madfs import actual_memory_consumption, ma_dfs_order
from repro.core.residency import average_memory_usage, peak_memory_usage
from repro.graph.topo import is_topological_order
from tests.conftest import (
    make_fig7_problem,
    make_fig8_problem,
    make_random_problem,
)
from tests.random_dfs import dfs_topological_order


class TestActualMemoryConsumption:
    def test_flagged_nodes_weigh_their_size(self, diamond_graph):
        weights = actual_memory_consumption(diamond_graph, {"b", "c"})
        assert weights == {"a": 0.0, "b": 2.0, "c": 3.0, "d": 0.0}


class TestReleaseLookahead:
    def test_a_node_freeing_a_child_ties_with_a_leaf(self):
        """Equal sizes: ``a`` unblocks its only child ``c`` (lookahead
        0), ``b`` has no child (lookahead 0 too).  The tie falls to
        readiness, and ``a`` was readied last, so it runs first and
        ``c`` follows before ``b``.  A lookahead counted one too high
        for ``a`` would run the leaf ``b`` first."""
        from repro.graph.dag import DependencyGraph

        graph = DependencyGraph()
        for node in ("b", "a", "c"):
            graph.add_node(node, size=1.0)
        graph.add_edge("a", "c")
        assert ma_dfs_order(graph, {"a", "b"}) == ["a", "c", "b"]


class TestFigure7:
    def test_madfs_enables_both_big_nodes(self):
        problem = make_fig7_problem()
        graph = problem.graph
        order = ma_dfs_order(graph, {"v1", "v3"})
        assert is_topological_order(graph, order)
        # the cheap leaf v4 must run before the flagged v3 so v1 releases
        assert order.index("v4") < order.index("v3")
        assert peak_memory_usage(graph, order, {"v1", "v3"}) <= 100


class TestFigure8:
    def test_unflagged_branch_scheduled_before_flagged(self):
        problem = make_fig8_problem()
        graph = problem.graph
        flagged = {"v1", "v3", "v4", "v5"}
        order = ma_dfs_order(graph, flagged)
        assert is_topological_order(graph, order)
        # the paper's tie-break: v2 (unflagged, actual 0) before v3
        # (flagged, actual 80)
        assert order.index("v2") < order.index("v3")

    def test_beats_random_tie_break_on_average(self):
        problem = make_fig8_problem()
        graph = problem.graph
        flagged = {"v1", "v3", "v4", "v5"}
        madfs_cost = average_memory_usage(
            graph, ma_dfs_order(graph, flagged), flagged)
        random_costs = [
            average_memory_usage(
                graph,
                dfs_topological_order(graph, rng=random.Random(seed)),
                flagged)
            for seed in range(12)
        ]
        assert madfs_cost <= min(random_costs) + 1e-9


class TestDeterminism:
    def test_same_inputs_same_order(self):
        problem = make_random_problem(3, n_nodes=25)
        flagged = set(list(problem.graph.nodes())[::2])
        assert ma_dfs_order(problem.graph, flagged) == \
            ma_dfs_order(problem.graph, flagged)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), flag_fraction=st.floats(0.0, 1.0))
def test_property_always_valid_topological_order(seed, flag_fraction):
    problem = make_random_problem(seed, n_nodes=18)
    graph = problem.graph
    rng = random.Random(seed)
    flagged = {v for v in graph.nodes() if rng.random() < flag_fraction}
    order = ma_dfs_order(graph, flagged)
    assert is_topological_order(graph, order)


def test_statistical_beats_random_dfs_on_average_memory():
    """MA-DFS is a heuristic: it can lose on individual adversarial
    instances, but across a population of random workloads it must beat
    random-tie-break DFS both in aggregate cost and in win rate.
    """
    total_madfs = 0.0
    total_random = 0.0
    wins = 0
    instances = 0
    for seed in range(40):
        problem = make_random_problem(seed, n_nodes=15)
        graph = problem.graph
        rng = random.Random(seed)
        flagged = {v for v in graph.nodes() if rng.random() < 0.4}
        if not flagged:
            continue
        instances += 1
        madfs_cost = average_memory_usage(
            graph, ma_dfs_order(graph, flagged), flagged)
        random_costs = [
            average_memory_usage(
                graph, dfs_topological_order(graph, rng=random.Random(s)),
                flagged)
            for s in range(6)
        ]
        mean_random = sum(random_costs) / len(random_costs)
        total_madfs += madfs_cost
        total_random += mean_random
        if madfs_cost <= mean_random + 1e-9:
            wins += 1
    assert instances >= 30
    assert total_madfs < total_random
    assert wins / instances > 0.7, (wins, instances)
