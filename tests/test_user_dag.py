"""Planning a hand-written DAG, as `repro-sc optimize GRAPH.json` does.

The running example is a small extract -> transform -> load pipeline,
written as a graph file: node sizes and compute times by hand, scores
from the device model.  Its two load jobs write to an external sink, so
their scores are zeroed; a zero-score node is never worth flagging, and
the score-driven (MKP) planners must leave it on storage.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.optimizer import OPTIMIZER_METHODS, optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.core.residency import peak_memory_usage, residency_intervals
from repro.core.speedup import compute_speedup_scores
from repro.errors import CycleError, GraphError, ValidationError
from repro.exec import create_backend
from repro.graph.dag import DependencyGraph
from repro.graph.io import graph_from_dict, graph_from_json, graph_to_json
from repro.metadata.costmodel import DeviceProfile

#: (id, output GB, compute s, external input GB)
JOBS = [
    ("extract_orders", 0.8, 2.0, 1.2),
    ("extract_users", 0.3, 1.0, 0.5),
    ("clean_orders", 0.7, 3.0, 0.0),
    ("enrich", 0.9, 4.0, 0.0),
    ("daily_totals", 0.05, 2.0, 0.0),
    ("load_warehouse", 0.9, 1.0, 0.0),
    ("load_dashboard", 0.05, 0.5, 0.0),
]
EDGES = [
    ("extract_orders", "clean_orders"),
    ("clean_orders", "enrich"),
    ("extract_users", "enrich"),
    ("enrich", "daily_totals"),
    ("enrich", "load_warehouse"),
    ("daily_totals", "load_dashboard"),
]
LOADS = ("load_warehouse", "load_dashboard")


def daily_etl() -> DependencyGraph:
    graph = DependencyGraph()
    for job, size, compute, base in JOBS:
        graph.add_node(job, size=size, compute_time=compute,
                       meta={"base_input_gb": base})
    for producer, consumer in EDGES:
        graph.add_edge(producer, consumer)
    compute_speedup_scores(graph)
    for job in LOADS:
        graph.node(job).score = 0.0
    return graph


def plan(memory_gb: float, method: str = "sc") -> Plan:
    problem = ScProblem(graph=daily_etl(), memory_budget=memory_gb)
    return optimize(problem, method=method).plan


def payload(nodes=(("a", 1.0),), edges=(), **extra) -> dict:
    return {"version": 1,
            "nodes": [{"id": node, "size": size} for node, size in nodes],
            "edges": [list(edge) for edge in edges], **extra}


# -- the graph file -----------------------------------------------------

@pytest.mark.parametrize("bad, error", [
    (payload(nodes=[("a", 1.0), ("a", 2.0)]), GraphError),
    (payload(edges=[("a", "ghost")]), GraphError),
    (payload(edges=[("a", "a")]), GraphError),
    (payload(nodes=[("a", 1.0), ("b", 1.0)],
             edges=[("a", "b"), ("b", "a")]), CycleError),
    (payload(nodes=[("a", -1.0)]), ValidationError),
    (payload(version=2), GraphError),
    ({"nodes": []}, GraphError),
], ids=["duplicate-id", "unknown-dependency", "self-dependency", "cycle",
        "negative-size", "future-version", "no-version"])
def test_graph_file_rejects(bad, error):
    with pytest.raises(error):
        graph_from_dict(bad)


def test_graph_file_round_trips_the_pipeline():
    graph = daily_etl()
    clone = graph_from_json(graph_to_json(graph))
    assert clone.edges() == graph.edges()
    assert clone.scores() == graph.scores()
    assert clone.node("extract_orders").meta["base_input_gb"] == \
        pytest.approx(1.2)


def test_consumers_and_zeroed_loads():
    graph = daily_etl()
    assert sorted(graph.children("enrich")) == ["daily_totals",
                                               "load_warehouse"]
    assert all(graph.score_of(job) == 0.0 for job in LOADS)
    assert graph.score_of("enrich") > 0.0


# -- the plan -----------------------------------------------------------

@pytest.mark.parametrize("method", OPTIMIZER_METHODS)
@pytest.mark.parametrize("memory_gb", [0.0, 1.0, 10.0])
def test_plan_is_a_topological_order_within_budget(method, memory_gb):
    graph = daily_etl()
    result = plan(memory_gb, method)
    assert sorted(result.order) == sorted(graph.nodes())
    position = result.positions()
    assert all(position[u] < position[v] for u, v in graph.edges())
    assert peak_memory_usage(graph, result.order, result.flagged) \
        <= memory_gb + 1e-9


#: The methods that select by MKP over scores; the greedy, random and
#: ratio baselines do not look at a score and may flag a load.
MKP_METHODS = [m for m in OPTIMIZER_METHODS if m == "sc" or "mkp" in m]


@pytest.mark.parametrize("method", MKP_METHODS)
def test_zero_score_loads_stay_on_storage(method):
    result = plan(10.0, method)
    assert "enrich" in result.flagged
    assert not result.flagged & set(LOADS)


def test_zero_budget_flags_nothing():
    assert not plan(0.0).flagged


def test_flagged_output_stays_until_its_last_consumer():
    result = plan(10.0)
    start, end = residency_intervals(daily_etl(), result.order)["enrich"]
    assert "enrich" in result.flagged
    assert result.order[start] == "enrich"
    assert end == max(result.position("daily_totals"),
                      result.position("load_warehouse"))


def test_plan_runs_faster_than_the_unoptimized_schedule():
    backend = create_backend("simulator")
    optimized, unoptimized = plan(1.0), plan(1.0, "none")
    fast = backend.run(daily_etl(), optimized, 1.0)
    slow = backend.run(daily_etl(), unoptimized, 1.0)
    assert optimized.flagged and not unoptimized.flagged
    assert fast.end_to_end_time < slow.end_to_end_time


def test_a_child_without_compute_time_computes_over_all_its_inputs():
    """A graph file may leave ``compute_time`` out; the kernel then
    prices compute from the device model over the parents' bytes plus
    the node's own base-table bytes."""
    graph = graph_from_dict({"version": 1, "nodes": [
        {"id": "a", "size": 1.5, "compute_time": 1.0},
        {"id": "b", "size": 0.5, "compute_time": 1.0},
        {"id": "c", "size": 0.25, "meta": {"base_input_gb": 2.0}},
    ], "edges": [["a", "c"], ["b", "c"]]})
    profile = DeviceProfile()
    plan = optimize(ScProblem(graph=graph, memory_budget=10.0),
                    method="none").plan
    trace = create_backend("simulator", profile=profile).run(
        graph, plan, 10.0)
    child = next(node for node in trace.nodes if node.node_id == "c")
    assert child.compute == pytest.approx(
        profile.compute_time(1.5 + 0.5 + 2.0))
    assert child.compute > 0.0


# -- the command line ---------------------------------------------------

@pytest.fixture
def etl_file(tmp_path) -> str:
    path = tmp_path / "daily_etl.json"
    path.write_text(graph_to_json(daily_etl()), encoding="utf-8")
    return str(path)


def test_optimize_prints_the_schedule(etl_file, capsys):
    assert main(["optimize", etl_file, "--memory", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["plan"]["order"]) == sorted(j for j, *_ in JOBS)
    assert "enrich" in out["plan"]["flagged"]
    assert not set(out["plan"]["flagged"]) & set(LOADS)


def test_simulate_runs_the_schedule(etl_file, capsys):
    assert main(["simulate", etl_file, "--memory", "1"]) == 0
    out = capsys.readouterr().out
    assert "end-to-end time" in out
    assert "peak catalog use" in out
