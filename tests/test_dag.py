"""Unit tests for the dependency graph."""

import pytest

from repro.errors import CycleError, GraphError, ValidationError
from repro.graph.dag import DependencyGraph, Node


class TestNode:
    def test_requires_id(self):
        with pytest.raises(ValidationError):
            Node(node_id="")

    def test_rejects_negative_size(self):
        with pytest.raises(ValidationError):
            Node(node_id="a", size=-1.0)

    def test_rejects_negative_score(self):
        with pytest.raises(ValidationError):
            Node(node_id="a", score=-0.1)

    @pytest.mark.parametrize("field", ["size", "score"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValidationError):
            Node(node_id="a", **{field: float("nan")})


class TestConstruction:
    def test_add_node_and_lookup(self):
        graph = DependencyGraph()
        graph.add_node("mv1", size=2.5, score=1.0, op="JOIN")
        assert "mv1" in graph
        assert graph.node("mv1").op == "JOIN"
        assert graph.size_of("mv1") == 2.5

    def test_duplicate_node_rejected(self):
        graph = DependencyGraph()
        graph.add_node("a")
        with pytest.raises(GraphError, match="duplicate"):
            graph.add_node("a")

    def test_edge_requires_known_nodes(self):
        graph = DependencyGraph()
        graph.add_node("a")
        with pytest.raises(GraphError, match="consumer"):
            graph.add_edge("a", "ghost")
        with pytest.raises(GraphError, match="producer"):
            graph.add_edge("ghost", "a")

    def test_self_edge_rejected(self):
        graph = DependencyGraph()
        graph.add_node("a")
        with pytest.raises(GraphError, match="self-dependency"):
            graph.add_edge("a", "a")

    def test_duplicate_edge_is_idempotent(self):
        graph = DependencyGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        assert graph.m == 1
        assert graph.children("a") == ["b"]

    def test_from_edges_creates_nodes(self):
        graph = DependencyGraph.from_edges(
            [("a", "b"), ("b", "c")], sizes={"a": 5.0},
            scores={"c": 2.0, "isolated": 1.0})
        assert set(graph.nodes()) == {"a", "b", "c", "isolated"}
        assert graph.size_of("a") == 5.0
        assert graph.score_of("c") == 2.0
        assert graph.in_degree("isolated") == 0


class TestInspection:
    def test_degrees_sources_sinks(self, diamond_graph):
        assert diamond_graph.sources() == ["a"]
        assert diamond_graph.sinks() == ["d"]
        assert diamond_graph.out_degree("a") == 2
        assert diamond_graph.in_degree("d") == 2
        assert diamond_graph.parents("d") == ["b", "c"]

    def test_sizes_scores_totals(self, diamond_graph):
        assert diamond_graph.total_size() == pytest.approx(10.0)
        assert diamond_graph.sizes()["c"] == 3.0
        assert diamond_graph.scores()["b"] == 2.0

    def test_iteration_follows_insertion_order(self):
        graph = DependencyGraph()
        for name in ("z", "m", "a"):
            graph.add_node(name)
        assert graph.nodes() == ["z", "m", "a"]
        assert list(graph) == ["z", "m", "a"]

    def test_unknown_node_raises(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.children("nope")
        with pytest.raises(GraphError):
            diamond_graph.node("nope")


class TestCycles:
    def test_acyclic_graph_validates(self, diamond_graph):
        diamond_graph.validate()
        assert diamond_graph.is_acyclic()

    def test_cycle_detected(self):
        graph = DependencyGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a")])
        assert not graph.is_acyclic()
        with pytest.raises(CycleError) as excinfo:
            graph.validate()
        cycle = excinfo.value.cycle
        assert cycle is not None
        assert cycle[0] == cycle[-1] or len(set(cycle)) == len(cycle)
        assert {"a", "b", "c"} >= set(cycle) - {cycle[0]} | {cycle[0]}

    def test_self_contained_two_cycle(self):
        graph = DependencyGraph.from_edges([("a", "b"), ("b", "a")])
        assert graph.find_cycle() is not None

    def test_large_chain_no_recursion_error(self):
        edges = [(f"n{i}", f"n{i + 1}") for i in range(5000)]
        graph = DependencyGraph.from_edges(edges)
        assert graph.is_acyclic()


class TestCopiesAndSubgraphs:
    def test_copy_is_independent(self, diamond_graph):
        clone = diamond_graph.copy()
        clone.node("a").size = 99.0
        clone.add_node("extra")
        assert diamond_graph.size_of("a") == 4.0
        assert "extra" not in diamond_graph
        assert clone.edges() == diamond_graph.edges()

    def test_subgraph_induces_edges(self, diamond_graph):
        sub = diamond_graph.subgraph(["a", "b", "d"])
        assert set(sub.nodes()) == {"a", "b", "d"}
        assert sub.has_edge("a", "b")
        assert sub.has_edge("b", "d")
        assert not sub.has_edge("a", "d")

    def test_subgraph_unknown_node(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.subgraph(["a", "ghost"])
