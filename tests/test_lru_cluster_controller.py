"""Tests for the LRU baseline, the cluster model, and the Controller."""

import pytest

from repro.core.plan import Plan
from repro.engine.cluster import simulate_cluster_run
from repro.engine.controller import Controller
from repro.errors import ValidationError
from repro.exec import create_backend
from repro.exec.lru import LruCache
from repro.graph.topo import kahn_topological_order
from repro.metadata.costmodel import ClusterProfile, DeviceProfile
from tests.conftest import make_random_problem


class TestLruCache:
    def test_hit_miss_accounting(self):
        cache = LruCache(capacity=10.0)
        assert not cache.get("a")
        cache.put("a", 4.0)
        assert cache.get("a")
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order(self):
        cache = LruCache(capacity=10.0)
        cache.put("a", 4.0)
        cache.put("b", 4.0)
        cache.get("a")            # a becomes MRU
        cache.put("c", 4.0)       # evicts b (LRU)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_oversized_not_admitted(self):
        cache = LruCache(capacity=5.0)
        cache.put("big", 50.0)
        assert "big" not in cache
        assert cache.usage == 0.0

    def test_refresh_updates_size(self):
        cache = LruCache(capacity=10.0)
        cache.put("a", 4.0)
        cache.put("a", 6.0)
        assert cache.usage == 6.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            LruCache(capacity=-1.0)
        cache = LruCache(capacity=5.0)
        with pytest.raises(ValidationError):
            cache.put("a", -1.0)


def run_lru(graph, cache_size):
    """One LRU baseline run; it visits the nodes in topological order."""
    trace = create_backend("lru").run(graph, None, cache_size)
    assert [n.node_id for n in trace.nodes] == \
        kahn_topological_order(graph)
    return trace


class TestLruSimulator:
    def test_repeated_consumer_hits_cache(self, diamond_graph):
        for node_id in diamond_graph.nodes():
            diamond_graph.node(node_id).compute_time = 1.0
        trace = run_lru(diamond_graph, cache_size=100.0)
        assert [n.node_id for n in trace.nodes] == ["a", "b", "c", "d"]
        # a is read by b (miss -> cached at production) and by c (hit)
        total_hits = sum(n.cache_hits for n in trace.nodes)
        assert total_hits >= 2  # a for b&c from cache; b,c for d
        assert trace.end_to_end_time > 0

    def test_zero_cache_behaves_like_no_opt(self, diamond_graph):
        for node_id in diamond_graph.nodes():
            diamond_graph.node(node_id).compute_time = 1.0
        lru = run_lru(diamond_graph, 0.0)
        assert sum(n.cache_hits for n in lru.nodes) == 0


class TestClusterModel:
    def test_more_workers_faster_but_sublinear(self):
        problem = make_random_problem(4, n_nodes=15)
        plan = Plan.unoptimized(list(problem.graph.nodes()))
        # use a topological order
        from repro.graph.topo import kahn_topological_order

        plan = Plan.unoptimized(kahn_topological_order(problem.graph))
        times = []
        for workers in (1, 2, 4):
            trace = simulate_cluster_run(
                problem.graph, plan, problem.memory_budget,
                ClusterProfile(worker_count=workers))
            times.append(trace.end_to_end_time)
        assert times[0] > times[1] > times[2]
        assert times[0] / times[2] < 4.0  # sub-linear

    def test_speedup_flat_across_workers(self):
        from repro.core.optimizer import optimize

        problem = make_random_problem(6, n_nodes=18, budget_fraction=0.4)
        plan_none = optimize(problem, "none").plan
        plan_sc = optimize(problem, "sc").plan
        speedups = []
        for workers in (1, 3, 5):
            cluster = ClusterProfile(worker_count=workers)
            none_t = simulate_cluster_run(
                problem.graph, plan_none, problem.memory_budget,
                cluster).end_to_end_time
            sc_t = simulate_cluster_run(
                problem.graph, plan_sc, problem.memory_budget,
                cluster).end_to_end_time
            speedups.append(none_t / sc_t)
        assert max(speedups) - min(speedups) < 0.2


class TestController:
    def test_plan_and_refresh(self):
        problem = make_random_problem(8, n_nodes=12, budget_fraction=0.4)
        controller = Controller()
        plan = controller.plan(problem.graph, problem.memory_budget, "sc")
        trace = controller.refresh(problem.graph, problem.memory_budget,
                                   plan=plan, method="sc")
        assert trace.method == "sc"
        assert trace.end_to_end_time > 0

    def test_lru_method_dispatch(self):
        problem = make_random_problem(9, n_nodes=10)
        controller = Controller()
        trace = controller.refresh(problem.graph, problem.memory_budget,
                                   method="lru")
        assert trace.method == "lru"

    def test_lru_rejects_plan(self, diamond_graph):
        controller = Controller()
        with pytest.raises(ValidationError):
            controller.refresh(diamond_graph, 1.0, method="lru",
                               plan=Plan.unoptimized(["a", "b", "c", "d"]))


class TestTraceReporting:
    def test_breakdown_sums_to_one(self):
        problem = make_random_problem(10, n_nodes=10)
        trace = Controller().refresh(problem.graph,
                                     problem.memory_budget, "sc")
        parts = trace.breakdown()
        assert sum(parts.values()) == pytest.approx(1.0)

    def test_gantt_renders(self):
        problem = make_random_problem(11, n_nodes=6)
        trace = Controller().refresh(problem.graph,
                                     problem.memory_budget, "sc")
        art = trace.gantt(width=40)
        assert len(art.splitlines()) == len(trace.nodes) + 1
