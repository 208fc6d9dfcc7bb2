"""Tests for graph traversal helpers."""

import pytest

from repro.errors import GraphError
from repro.graph.dag import DependencyGraph
from repro.graph.traversal import (
    ancestors,
    last_consumer_position,
    longest_path_levels,
)


class TestReachability:
    def test_ancestors(self, diamond_graph):
        assert ancestors(diamond_graph, "d") == {"a", "b", "c"}
        assert ancestors(diamond_graph, "a") == set()

    def test_unknown_node(self, diamond_graph):
        with pytest.raises(GraphError):
            ancestors(diamond_graph, "ghost")


class TestLevels:
    def test_diamond_levels(self, diamond_graph):
        levels = longest_path_levels(diamond_graph)
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_chain_levels(self, chain_graph):
        levels = longest_path_levels(chain_graph)
        assert sorted(levels.values()) == [0, 1, 2, 3]

    def test_longest_path_wins(self):
        # a -> b -> c and a -> c: c sits at level 2, not 1
        graph = DependencyGraph.from_edges(
            [("a", "b"), ("b", "c"), ("a", "c")])
        assert longest_path_levels(graph)["c"] == 2

    def test_cycle_rejected(self):
        graph = DependencyGraph.from_edges([("a", "b"), ("b", "a")])
        with pytest.raises(GraphError):
            longest_path_levels(graph)


class TestLastConsumerPosition:
    def test_diamond(self, diamond_graph):
        order = ["a", "b", "c", "d"]
        release = last_consumer_position(diamond_graph, order)
        assert release["a"] == 2  # c is a's last consumer
        assert release["b"] == 3
        assert release["c"] == 3
        assert release["d"] == 3  # no consumers: own position

    def test_requires_full_order(self, diamond_graph):
        with pytest.raises(GraphError):
            last_consumer_position(diamond_graph, ["a", "b"])
