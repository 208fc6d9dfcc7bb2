"""Tests for GetConstraints (Algorithm 1's pruning)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import get_constraints
from repro.core.problem import ScProblem
from repro.graph.topo import kahn_topological_order
from tests.conftest import make_fig7_problem, make_random_problem
from tests.reference_planner import residency_sets


def naive_constraint_sets(problem, order):
    """Reference implementation: all V_i, then filter trivially/maximal."""
    exclude = problem.excluded_nodes()
    raw = residency_sets(problem.graph, order, exclude=exclude)
    nontrivial = [
        s for s in set(raw)
        if sum(problem.size_of(v) for v in s) > problem.memory_budget + 1e-9
    ]
    return {
        s for s in nontrivial
        if not any(s < other for other in nontrivial)
    }


class TestExclusion:
    def test_oversized_and_zero_score_nodes(self):
        problem = ScProblem.from_tables(
            edges=[("big", "mid"), ("mid", "zero")],
            sizes={"big": 100.0, "mid": 5.0, "zero": 1.0},
            scores={"big": 10.0, "mid": 10.0, "zero": 0.0},
            memory_budget=10.0)
        constraints = get_constraints(problem,
                                      ["big", "mid", "zero"])
        assert "big" in constraints.excluded
        assert "zero" in constraints.excluded
        assert constraints.candidates == {"mid"}


class TestPruning:
    def test_trivial_sets_dropped(self, diamond_graph):
        problem = ScProblem(graph=diamond_graph, memory_budget=1000.0)
        constraints = get_constraints(
            problem, kahn_topological_order(diamond_graph))
        assert constraints.sets == ()  # everything fits: all trivial
        # every candidate is then a free node
        assert constraints.free_nodes == constraints.candidates

    def test_fig7_constraints(self):
        problem = make_fig7_problem()
        tau1 = ["v1", "v2", "v3", "v4", "v5", "v6"]
        constraints = get_constraints(problem, tau1)
        # the binding set contains both 100GB nodes
        assert any({"v1", "v3"} <= s for s in constraints.sets)
        for s in constraints.sets:
            assert sum(problem.size_of(v) for v in s) > 100

    def test_maximality(self):
        problem = make_fig7_problem()
        tau1 = ["v1", "v2", "v3", "v4", "v5", "v6"]
        constraints = get_constraints(problem, tau1)
        for a in constraints.sets:
            for b in constraints.sets:
                assert not (a < b), (a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       budget_fraction=st.floats(0.05, 0.9))
def test_property_matches_naive_reference(seed, budget_fraction):
    problem = make_random_problem(seed, n_nodes=14,
                                  budget_fraction=budget_fraction)
    order = kahn_topological_order(problem.graph)
    fast = set(get_constraints(problem, order).sets)
    reference = naive_constraint_sets(problem, order)
    assert fast == reference


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_free_nodes_are_safe(seed):
    """Flagging every free node can never violate any retained set."""
    problem = make_random_problem(seed, n_nodes=14, budget_fraction=0.3)
    order = kahn_topological_order(problem.graph)
    constraints = get_constraints(problem, order)
    for s in constraints.sets:
        free_in_set = constraints.free_nodes & s
        assert not free_in_set
