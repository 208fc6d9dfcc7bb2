"""Tests for SimplifiedMKP node selection (Algorithm 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knapsack_select import build_mkp_instance, select_nodes_mkp
from repro.core.constraints import get_constraints
from repro.core.problem import ScProblem
from repro.core.residency import is_feasible
from repro.graph.topo import kahn_topological_order
from tests.conftest import make_fig7_problem, make_random_problem


class TestFigure7:
    def test_selection_under_tau1(self):
        problem = make_fig7_problem()
        tau1 = ["v1", "v2", "v3", "v4", "v5", "v6"]
        result = select_nodes_mkp(problem, tau1)
        # paper: best under τ1 is 120 = {v1, v5, v6} (+ small extras fit:
        # v2 and v4 are only 10GB each and may coexist with v1)
        assert is_feasible(problem.graph, tau1, result.flagged, 100)
        assert not {"v1", "v3"} <= result.flagged
        assert result.total_score >= 120

    def test_selection_under_tau2(self):
        problem = make_fig7_problem()
        tau2 = ["v1", "v2", "v4", "v3", "v5", "v6"]
        result = select_nodes_mkp(problem, tau2)
        assert {"v1", "v3"} <= result.flagged
        assert is_feasible(problem.graph, tau2, result.flagged, 100)
        assert result.total_score >= 210


class TestMkpLayout:
    def test_weights_follow_membership(self):
        problem = make_fig7_problem()
        tau1 = ["v1", "v2", "v3", "v4", "v5", "v6"]
        constraints = get_constraints(problem, tau1)
        instance, nodes = build_mkp_instance(problem, constraints)
        assert instance.n_items == len(nodes)
        assert instance.n_constraints == len(constraints.sets)
        for row, cset in zip(instance.weights, constraints.sets):
            for weight, node in zip(row, nodes):
                if node in cset:
                    assert weight == problem.size_of(node)
                else:
                    assert weight == 0.0


class TestEdgeCases:
    def test_zero_budget_flags_nothing_sized(self):
        problem = ScProblem.from_tables(
            edges=[("a", "b")], sizes={"a": 1.0, "b": 2.0},
            scores={"a": 5.0, "b": 5.0}, memory_budget=0.0)
        result = select_nodes_mkp(problem, ["a", "b"])
        assert result.flagged == frozenset()

    def test_all_zero_scores(self):
        problem = ScProblem.from_tables(
            edges=[("a", "b")], sizes={"a": 1.0, "b": 2.0},
            scores={"a": 0.0, "b": 0.0}, memory_budget=10.0)
        result = select_nodes_mkp(problem, ["a", "b"])
        assert result.flagged == frozenset()

    def test_everything_fits(self, diamond_graph):
        problem = ScProblem(graph=diamond_graph, memory_budget=1000.0)
        order = kahn_topological_order(diamond_graph)
        result = select_nodes_mkp(problem, order)
        assert result.flagged == frozenset(diamond_graph.nodes())
        assert result.n_constraints == 0  # all sets trivial


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       budget_fraction=st.floats(0.05, 0.8))
def test_property_selection_always_feasible(seed, budget_fraction):
    problem = make_random_problem(seed, n_nodes=16,
                                  budget_fraction=budget_fraction)
    order = kahn_topological_order(problem.graph)
    result = select_nodes_mkp(problem, order)
    assert is_feasible(problem.graph, order, result.flagged,
                       problem.memory_budget)
    # never flags excluded nodes
    assert not (result.flagged & problem.excluded_nodes())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_selection_dominates_greedy(seed):
    """The exact MKP is at least as good as the greedy scan baseline."""
    from repro.core.selection_baselines import greedy_selection

    problem = make_random_problem(seed, n_nodes=14, budget_fraction=0.3)
    order = kahn_topological_order(problem.graph)
    mkp_score = select_nodes_mkp(problem, order).total_score
    greedy_score = problem.total_score(greedy_selection(problem, order))
    assert mkp_score >= greedy_score * 0.99 - 1e-9
