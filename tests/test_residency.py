"""Tests for residency intervals and memory accounting (paper §IV)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.residency import (
    average_memory_usage,
    is_feasible,
    memory_profile,
    peak_memory_usage,
    residency_intervals,
)
from repro.errors import GraphError
from repro.graph.topo import kahn_topological_order
from tests.conftest import make_fig7_problem, make_random_problem
from tests.reference_planner import residency_sets


class TestIntervals:
    def test_diamond(self, diamond_graph):
        intervals = residency_intervals(diamond_graph,
                                        ["a", "b", "c", "d"])
        assert intervals["a"] == (0, 2)   # last consumer c at position 2
        assert intervals["b"] == (1, 3)
        assert intervals["c"] == (2, 3)
        assert intervals["d"] == (3, 3)   # sink: own position only

    def test_order_must_cover_graph(self, diamond_graph):
        with pytest.raises(GraphError):
            residency_intervals(diamond_graph, ["a", "b"])


class TestFigure7:
    """The paper's worked example: order decides what fits."""

    def test_bad_order_limits_flagging(self):
        problem = make_fig7_problem()
        graph = problem.graph
        tau1 = ["v1", "v2", "v3", "v4", "v5", "v6"]
        # v1 resident 0..3 (v4 last), v3 resident 2..4: both -> 200 > 100
        assert peak_memory_usage(graph, tau1, {"v1", "v3"}) == 200
        assert not is_feasible(graph, tau1, {"v1", "v3"}, 100)
        # the paper's τ1 best: v1, v5, v6 = 120 score, feasible
        assert is_feasible(graph, tau1, {"v1", "v5", "v6"}, 100)

    def test_good_order_fits_both_big_nodes(self):
        problem = make_fig7_problem()
        graph = problem.graph
        tau2 = ["v1", "v2", "v4", "v3", "v5", "v6"]
        assert peak_memory_usage(graph, tau2, {"v1", "v3"}) == 100
        assert is_feasible(graph, tau2, {"v1", "v3", "v6"}, 100)

    def test_profile_matches_peak(self):
        problem = make_fig7_problem()
        graph = problem.graph
        tau2 = ["v1", "v2", "v4", "v3", "v5", "v6"]
        flagged = {"v1", "v3", "v6"}
        profile = memory_profile(graph, tau2, flagged)
        assert max(profile) == peak_memory_usage(graph, tau2, flagged)
        assert profile == [100, 100, 100, 100, 100, 10]


def test_feasibility_includes_the_slack():
    """The budget check allows 1e-9 over, inclusive: a peak equal to
    ``budget + 1e-9`` is feasible, one ulp more is not."""
    from repro.graph.dag import DependencyGraph

    edge = 10.0 + 1e-9
    for size, feasible in ((edge, True), (math.nextafter(edge, 11.0), False)):
        graph = DependencyGraph()
        graph.add_node("a", size=size)
        assert is_feasible(graph, ["a"], {"a"}, 10.0) is feasible


class TestAverageMemoryUsage:
    def test_unit_example(self, chain_graph):
        order = ["a", "b", "c", "d"]
        # a resident 0..1 -> duration 1; each node size 1
        assert average_memory_usage(chain_graph, order, {"a"}) == \
            pytest.approx(1 / 4)
        assert average_memory_usage(chain_graph, order, set()) == 0.0

    def test_sink_contributes_zero(self, chain_graph):
        order = ["a", "b", "c", "d"]
        assert average_memory_usage(chain_graph, order, {"d"}) == 0.0

    def test_longer_residency_costs_more(self, diamond_graph):
        good = ["a", "b", "c", "d"]
        # same graph; flagged b resident 1..3 either way, but flagged a is
        # resident longer when its consumers are pushed apart — compare two
        # flag sets instead.
        assert average_memory_usage(diamond_graph, good, {"a"}) < \
            average_memory_usage(diamond_graph, good, {"a", "b"})


class TestResidencySets:
    def test_exclusion(self, diamond_graph):
        order = ["a", "b", "c", "d"]
        sets = residency_sets(diamond_graph, order, exclude={"a"})
        assert all("a" not in s for s in sets)

    def test_diamond_sets(self, diamond_graph):
        order = ["a", "b", "c", "d"]
        sets = residency_sets(diamond_graph, order)
        assert sets[0] == {"a"}
        assert sets[1] == {"a", "b"}
        assert sets[2] == {"a", "b", "c"}
        assert sets[3] == {"b", "c", "d"}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_profile_consistent_with_peak_and_average(seed):
    problem = make_random_problem(seed, n_nodes=15)
    graph = problem.graph
    order = kahn_topological_order(graph)
    rng = random.Random(seed)
    flagged = {v for v in graph.nodes() if rng.random() < 0.5}

    profile = memory_profile(graph, order, flagged)
    assert max(profile, default=0.0) == pytest.approx(
        peak_memory_usage(graph, order, flagged))

    # profile integral equals avg * n + one size per flagged node (the
    # interval is inclusive of the execution position itself)
    total = sum(profile)
    expected = (average_memory_usage(graph, order, flagged) * graph.n
                + sum(graph.size_of(v) for v in flagged))
    assert total == pytest.approx(expected)
