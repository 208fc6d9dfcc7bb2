"""Tests for topological orders and tie-breaking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CycleError, GraphError
from repro.graph.dag import DependencyGraph
from repro.graph.generators import generate_random_dag
from repro.graph.topo import (
    check_topological_order,
    is_topological_order,
    kahn_topological_order,
)
from tests.random_dfs import dfs_topological_order


class TestKahn:
    def test_respects_dependencies(self, diamond_graph):
        order = kahn_topological_order(diamond_graph)
        assert is_topological_order(diamond_graph, order)
        assert order[0] == "a" and order[-1] == "d"

    def test_insertion_order_tie_break(self):
        graph = DependencyGraph()
        for name in ("c", "a", "b"):
            graph.add_node(name)
        assert kahn_topological_order(graph) == ["c", "a", "b"]

    def test_cycle_raises(self):
        graph = DependencyGraph.from_edges([("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            kahn_topological_order(graph)


class TestDfs:
    def test_valid_topological_order(self, diamond_graph):
        order = dfs_topological_order(diamond_graph)
        assert is_topological_order(diamond_graph, order)

    def test_finishes_branch_before_starting_new_one(self):
        # two independent chains; DFS must not interleave them
        graph = DependencyGraph.from_edges(
            [("a1", "a2"), ("a2", "a3"), ("b1", "b2"), ("b2", "b3")])
        order = dfs_topological_order(graph)
        a_positions = [order.index(v) for v in ("a1", "a2", "a3")]
        b_positions = [order.index(v) for v in ("b1", "b2", "b3")]
        assert max(a_positions) < min(b_positions) or \
            max(b_positions) < min(a_positions)

    def test_random_tie_break_varies_with_seed(self):
        graph = generate_random_dag(15, edge_probability=0.2, seed=3)
        orders = {
            tuple(dfs_topological_order(graph, rng=random.Random(seed)))
            for seed in range(8)
        }
        assert len(orders) > 1
        for order in orders:
            assert is_topological_order(graph, list(order))

    def test_cycle_raises(self):
        graph = DependencyGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(CycleError):
            dfs_topological_order(graph)


class TestValidation:
    def test_is_topological_order_rejects_wrong_sets(self, diamond_graph):
        assert not is_topological_order(diamond_graph, ["a", "b", "c"])
        assert not is_topological_order(diamond_graph,
                                        ["a", "b", "c", "c"])
        assert not is_topological_order(diamond_graph,
                                        ["d", "a", "b", "c"])

    def test_check_reports_specific_failures(self, diamond_graph):
        with pytest.raises(GraphError, match="entries"):
            check_topological_order(diamond_graph, ["a"])
        with pytest.raises(GraphError, match="unknown"):
            check_topological_order(diamond_graph,
                                    ["a", "b", "c", "ghost"])
        with pytest.raises(GraphError, match="repeats"):
            check_topological_order(diamond_graph, ["a", "b", "c", "c"])
        with pytest.raises(GraphError, match="violates"):
            check_topological_order(diamond_graph, ["d", "a", "b", "c"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
       p=st.floats(0.0, 0.5))
def test_property_both_algorithms_emit_valid_orders(seed, n, p):
    graph = generate_random_dag(n, edge_probability=p, seed=seed)
    assert is_topological_order(graph, kahn_topological_order(graph))
    assert is_topological_order(graph, dfs_topological_order(graph))
    assert is_topological_order(
        graph, dfs_topological_order(graph, rng=random.Random(seed)))
