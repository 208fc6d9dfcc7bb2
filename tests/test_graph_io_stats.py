"""Tests for graph serialization."""

import pytest

from repro.errors import GraphError
from repro.graph.dag import DependencyGraph
from repro.graph.io import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    load_graph,
    save_graph,
)


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, diamond_graph):
        diamond_graph.node("a").op = "SCAN"
        diamond_graph.node("b").sql = "SELECT 1"
        diamond_graph.node("c").compute_time = 2.5
        diamond_graph.node("d").meta["base_input_gb"] = 1.25

        restored = graph_from_json(graph_to_json(diamond_graph))
        assert restored.nodes() == diamond_graph.nodes()
        assert restored.edges() == diamond_graph.edges()
        assert restored.node("a").op == "SCAN"
        assert restored.node("b").sql == "SELECT 1"
        assert restored.node("c").compute_time == 2.5
        assert restored.node("d").meta["base_input_gb"] == 1.25

    def test_version_checked(self):
        with pytest.raises(GraphError, match="version"):
            graph_from_dict({"version": 99, "nodes": [], "edges": []})

    def test_file_round_trip(self, tmp_path, diamond_graph):
        path = str(tmp_path / "graph.json")
        save_graph(diamond_graph, path)
        restored = load_graph(path)
        assert restored.edges() == diamond_graph.edges()

    def test_cyclic_payload_rejected(self):
        payload = graph_to_dict(
            DependencyGraph.from_edges([("a", "b")]))
        payload["edges"].append(["b", "a"])
        with pytest.raises(Exception):
            graph_from_dict(payload)
