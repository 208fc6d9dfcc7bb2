"""Tests for Plan and ScProblem containers."""

import dataclasses

import pytest

from repro.core.plan import Plan, check_peak
from repro.core.problem import ScProblem
from repro.core.residency import peak_memory_usage
from repro.errors import (
    GraphError,
    InfeasiblePlanError,
    ValidationError,
)
from tests.conftest import make_fig7_problem


class TestPlan:
    def test_flagged_must_be_in_order(self):
        with pytest.raises(GraphError):
            Plan(order=("a", "b"), flagged=frozenset({"ghost"}))

    def test_unoptimized_plan(self):
        plan = Plan.unoptimized(["a", "b"])
        assert plan.flagged == frozenset()
        assert not plan.is_flagged("a")

    def test_positions(self):
        plan = Plan.make(["a", "b", "c"], {"b"})
        assert plan.position("b") == 1
        assert plan.positions() == {"a": 0, "b": 1, "c": 2}
        with pytest.raises(GraphError):
            plan.position("ghost")

    def test_plan_is_immutable(self):
        plan = Plan.make(["a", "b"], {"b"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.order = ("b", "a")

    def test_json_round_trip(self):
        plan = Plan.make(["x", "y", "z"], {"y", "z"})
        restored = Plan.from_json(plan.to_json())
        assert restored == plan

    def test_validate_against_graph(self, diamond_graph):
        plan = Plan.make(["a", "b", "c", "d"], {"a"})
        plan.validate_against(diamond_graph)
        bad = Plan.make(["b", "a", "c", "d"], set())
        with pytest.raises(GraphError):
            bad.validate_against(diamond_graph)

    def test_validate_against_budget(self, diamond_graph):
        plan = Plan.make(["a", "b", "c", "d"], {"a", "b"})
        peak = peak_memory_usage(diamond_graph, plan.order, plan.flagged)
        with pytest.raises(InfeasiblePlanError) as excinfo:
            check_peak(peak, 5.0)
        assert excinfo.value.peak == pytest.approx(6.0)
        assert excinfo.value.budget == 5.0
        check_peak(peak, 6.0)


class TestScProblem:
    def test_negative_budget_rejected(self, diamond_graph):
        with pytest.raises(ValidationError):
            ScProblem(graph=diamond_graph, memory_budget=-1.0)

    def test_nan_budget_and_size_cap_rejected(self, diamond_graph):
        with pytest.raises(ValidationError):
            ScProblem(graph=diamond_graph, memory_budget=float("nan"))
        with pytest.raises(ValidationError):
            ScProblem(graph=diamond_graph, memory_budget=1.0,
                      size_cap=float("nan"))

    def test_infinite_budget_and_size_cap_accepted(self, diamond_graph):
        problem = ScProblem(graph=diamond_graph,
                            memory_budget=float("inf"),
                            size_cap=float("inf"))
        assert problem.memory_budget == float("inf")

    def test_cyclic_graph_rejected(self):
        from repro.graph.dag import DependencyGraph

        graph = DependencyGraph.from_edges([("a", "b"), ("b", "a")])
        with pytest.raises(Exception):
            ScProblem(graph=graph, memory_budget=1.0)

    def test_totals(self):
        problem = make_fig7_problem()
        assert problem.total_score({"v1", "v3"}) == 200
        assert problem.total_size({"v1", "v2"}) == 110
        assert problem.n == 6

    def test_excluded_nodes(self):
        problem = ScProblem.from_tables(
            edges=[("a", "b")],
            sizes={"a": 50.0, "b": 1.0},
            scores={"a": 5.0, "b": 0.0},
            memory_budget=10.0)
        assert problem.excluded_nodes() == {"a", "b"}
