"""Tests for the exact order oracle, and MA-DFS quality measured by it."""

import random

import pytest

from repro.core.madfs import ma_dfs_order
from repro.core.residency import average_memory_usage
from repro.errors import ValidationError
from repro.graph.topo import is_topological_order
from tests.conftest import make_fig7_problem, make_random_problem
from tests.exact_order import minimum_average_memory_order


class TestOracle:
    def test_chain_cost(self, chain_graph):
        order, cost = minimum_average_memory_order(chain_graph,
                                                   {"a", "b", "c"})
        assert is_topological_order(chain_graph, order)
        # a chain has one order; each flagged node resident for 1 step
        assert cost == pytest.approx(3 / 4)
        assert cost == pytest.approx(
            average_memory_usage(chain_graph, order, {"a", "b", "c"}))

    def test_matches_residency_model(self):
        for seed in range(6):
            problem = make_random_problem(seed, n_nodes=9)
            graph = problem.graph
            rng = random.Random(seed)
            flagged = {v for v in graph.nodes() if rng.random() < 0.5}
            order, cost = minimum_average_memory_order(graph, flagged)
            assert is_topological_order(graph, order)
            assert cost == pytest.approx(
                average_memory_usage(graph, order, flagged))

    def test_fig7_optimal_order(self):
        problem = make_fig7_problem()
        order, cost = minimum_average_memory_order(
            problem.graph, {"v1", "v3"})
        # the optimum releases v1 before v3 executes: v4 precedes v3
        assert order.index("v4") < order.index("v3")
        assert cost == pytest.approx(
            average_memory_usage(problem.graph, order, {"v1", "v3"}))

    def test_size_limit(self):
        problem = make_random_problem(0, n_nodes=25)
        with pytest.raises(ValidationError):
            minimum_average_memory_order(problem.graph, set())


class TestMaDfsOptimalityGap:
    def test_madfs_close_to_optimal_on_small_graphs(self):
        """MA-DFS is a heuristic; measure its gap against the true optimum
        across a population of small instances. The paper's claim is that
        its local optima are 'still of high quality' (§V-B)."""
        total_madfs = 0.0
        total_optimal = 0.0
        exact_hits = 0
        instances = 0
        for seed in range(25):
            problem = make_random_problem(seed, n_nodes=10)
            graph = problem.graph
            rng = random.Random(seed)
            flagged = {v for v in graph.nodes() if rng.random() < 0.45}
            if not flagged:
                continue
            instances += 1
            madfs_cost = average_memory_usage(
                graph, ma_dfs_order(graph, flagged), flagged)
            _, optimal_cost = minimum_average_memory_order(graph, flagged)
            assert madfs_cost >= optimal_cost - 1e-9  # oracle is a bound
            total_madfs += madfs_cost
            total_optimal += optimal_cost
            if madfs_cost <= optimal_cost + 1e-9:
                exact_hits += 1
        assert instances >= 20
        # within 25% of optimal in aggregate, exactly optimal often
        assert total_madfs <= 1.25 * total_optimal
        assert exact_hits / instances > 0.4
