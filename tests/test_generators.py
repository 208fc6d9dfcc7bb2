"""Tests for the layered DAG generator (Figure 14's sweep axes)."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.graph.generators import (
    LayeredDagConfig,
    generate_layered_dag,
    generate_random_dag,
)
from repro.graph.traversal import longest_path_levels


def height(graph) -> int:
    """Number of levels along the longest chain."""
    return len(set(longest_path_levels(graph).values()))


def width(graph) -> int:
    """Most nodes sharing one level."""
    return max(Counter(longest_path_levels(graph).values()).values())


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            LayeredDagConfig(n_nodes=0)
        with pytest.raises(ValidationError):
            LayeredDagConfig(height_width_ratio=0)
        with pytest.raises(ValidationError):
            LayeredDagConfig(max_outdegree=-1)
        with pytest.raises(ValidationError):
            LayeredDagConfig(stage_stdev=-0.1)
        with pytest.raises(ValidationError):
            LayeredDagConfig(forward_bias=1.5)


class TestLayeredDag:
    def test_exact_node_count(self):
        for n in (1, 2, 7, 25, 100):
            graph = generate_layered_dag(LayeredDagConfig(n_nodes=n),
                                         seed=1)
            assert graph.n == n

    def test_acyclic_and_connected_interior(self):
        graph = generate_layered_dag(LayeredDagConfig(n_nodes=60), seed=2)
        graph.validate()
        stages = {v: graph.node(v).meta["stage"] for v in graph.nodes()}
        for node in graph.nodes():
            if stages[node] > 0:
                assert graph.in_degree(node) >= 1, node

    def test_edges_point_to_later_stages(self):
        graph = generate_layered_dag(LayeredDagConfig(n_nodes=50), seed=3)
        for producer, consumer in graph.edges():
            assert graph.node(producer).meta["stage"] < \
                graph.node(consumer).meta["stage"]

    def test_height_width_ratio_direction(self):
        thin = generate_layered_dag(
            LayeredDagConfig(n_nodes=64, height_width_ratio=4.0), seed=4)
        wide = generate_layered_dag(
            LayeredDagConfig(n_nodes=64, height_width_ratio=0.25), seed=4)
        assert height(thin) > height(wide)
        assert width(thin) < width(wide)

    def test_outdegree_respected_modulo_orphan_repair(self):
        config = LayeredDagConfig(n_nodes=50, max_outdegree=2)
        graph = generate_layered_dag(config, seed=5)
        # orphan repair can add one extra edge per node at most
        assert max(graph.out_degree(v) for v in graph.nodes()) <= \
            config.max_outdegree + 1

    def test_deterministic_per_seed(self):
        a = generate_layered_dag(LayeredDagConfig(n_nodes=30), seed=9)
        b = generate_layered_dag(LayeredDagConfig(n_nodes=30), seed=9)
        assert a.nodes() == b.nodes()
        assert a.edges() == b.edges()
        c = generate_layered_dag(LayeredDagConfig(n_nodes=30), seed=10)
        assert a.edges() != c.edges()


class TestRandomDag:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            generate_random_dag(0)
        with pytest.raises(ValidationError):
            generate_random_dag(5, edge_probability=1.5)

    def test_acyclic(self):
        graph = generate_random_dag(30, edge_probability=0.3, seed=7)
        graph.validate()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 80), ratio=st.floats(0.25, 4.0),
       outdeg=st.integers(0, 6), stdev=st.floats(0.0, 4.0),
       seed=st.integers(0, 999))
def test_property_generator_always_valid(n, ratio, outdeg, stdev, seed):
    config = LayeredDagConfig(n_nodes=n, height_width_ratio=ratio,
                              max_outdegree=outdeg, stage_stdev=stdev)
    graph = generate_layered_dag(config, seed=seed)
    assert graph.n == n
    graph.validate()
