"""Tests for the unified execution layer: registry dispatch, the shared
MemoryLedger, and the memory-bounded parallel scheduler."""

import random
import threading

import pytest

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.errors import ValidationError
from repro.exec import MemoryLedger, backend_names, create_backend
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)
from tests.conftest import make_random_problem


def _generated_case(seed, n_nodes=24, ratio=0.5, budget_fraction=0.25):
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=ratio),
        seed=seed)
    budget = budget_fraction * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=seed).plan
    return graph, plan, budget


class TestRegistryDispatch:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown execution"):
            create_backend("presto")

    def test_controller_rejects_unknown_backend(self, diamond_graph):
        with pytest.raises(ValidationError, match="unknown execution"):
            Controller().refresh(diamond_graph, 10.0, backend="presto")

    def test_all_builtin_backends_listed(self):
        names = backend_names()
        for name in ("simulator", "lru", "parallel", "minidb"):
            assert name in names

    def test_lru_method_routes_to_lru_backend(self):
        problem = make_random_problem(9, n_nodes=10)
        trace = Controller().refresh(problem.graph, problem.memory_budget,
                                     method="lru")
        assert trace.method == "lru"

    def test_lru_rejects_plan(self, diamond_graph):
        with pytest.raises(ValidationError, match="does not take a plan"):
            Controller().refresh(diamond_graph, 1.0, method="lru",
                                 plan=Plan.unoptimized(["a", "b", "c", "d"]))

    def test_lru_method_on_other_backend_rejected(self, diamond_graph):
        with pytest.raises(ValidationError, match="'lru' backend"):
            Controller().refresh(diamond_graph, 1.0, method="lru",
                                 backend="parallel")

    def test_optimizing_method_on_plan_free_backend_rejected(self,
                                                             diamond_graph):
        """backend='lru' must not silently drop the optimizer and
        attribute baseline numbers to an S/C method."""
        with pytest.raises(ValidationError, match="plan-free"):
            Controller().refresh(diamond_graph, 10.0, method="sc",
                                 backend="lru")

    def test_simulator_backend_requires_plan_object_or_method(self):
        problem = make_random_problem(3, n_nodes=8)
        backend = create_backend("simulator")
        with pytest.raises(ValidationError, match="requires a plan"):
            backend.run(problem.graph, None, problem.memory_budget)

    def test_memory_catalog_is_a_ledger(self):
        # the serial simulator's Memory Catalog is the shared ledger
        # itself, not a subclass with its own accounting
        problem = make_random_problem(3, n_nodes=8)
        plan = optimize(problem, "sc").plan
        run = create_backend("simulator").prepare(
            problem.graph, plan, problem.memory_budget)
        assert type(run.kernel.ledger) is MemoryLedger


class TestParallelScheduler:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_workers1_trace_equals_serial(self, seed):
        graph, plan, budget = _generated_case(seed)
        controller = Controller()
        serial = controller.refresh(graph, budget, plan=plan, method="sc")
        par = controller.refresh(graph, budget, plan=plan, method="sc",
                                 backend="parallel", workers=1)
        assert [n.node_id for n in par.nodes] == \
            [n.node_id for n in serial.nodes]
        assert par.end_to_end_time == pytest.approx(serial.end_to_end_time)
        assert par.peak_catalog_usage == \
            pytest.approx(serial.peak_catalog_usage)
        for s, p in zip(serial.nodes, par.nodes):
            for attr in ("start", "end", "read_disk", "read_memory",
                         "compute", "write", "create_memory", "stall"):
                assert getattr(p, attr) == pytest.approx(getattr(s, attr)), \
                    (s.node_id, attr)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_more_workers_never_slower_and_budget_safe(self, seed):
        graph, plan, budget = _generated_case(seed, ratio=0.25)
        controller = Controller()
        times = []
        for workers in (1, 2, 4):
            trace = controller.refresh(graph, budget, plan=plan,
                                       method="sc", backend="parallel",
                                       workers=workers)
            assert trace.peak_catalog_usage <= budget + 1e-9
            assert len(trace.nodes) == graph.n
            times.append(trace.end_to_end_time)
        assert times[2] <= times[0] + 1e-9
        assert times[2] < times[0]  # wide DAGs must actually speed up

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_all_nodes_run_and_budget_holds(self, workers):
        graph, plan, budget = _generated_case(1, n_nodes=16)
        trace = Controller().refresh(graph, budget, plan=plan, method="sc",
                                     backend="parallel", workers=workers)
        assert sorted(n.node_id for n in trace.nodes) == \
            sorted(graph.nodes())
        assert trace.peak_catalog_usage <= budget + 1e-9
        assert trace.end_to_end_time > 0

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_dependencies_respected(self, workers):
        graph, plan, budget = _generated_case(3, n_nodes=16)
        trace = Controller().refresh(graph, budget, plan=plan, method="sc",
                                     backend="parallel", workers=workers)
        started = {n.node_id: n.start for n in trace.nodes}
        ended = {n.node_id: n.end for n in trace.nodes}
        for producer, consumer in graph.edges():
            assert started[consumer] >= ended[producer]

    def test_deterministic_given_seed(self):
        graph, plan, budget = _generated_case(4, ratio=0.25)
        controller = Controller()
        runs = [controller.refresh(graph, budget, plan=plan, method="sc",
                                   backend="parallel", workers=4, seed=11)
                for _ in range(2)]
        assert runs[0].end_to_end_time == runs[1].end_to_end_time
        assert [n.node_id for n in runs[0].nodes] == \
            [n.node_id for n in runs[1].nodes]

    def test_tiny_budget_spills_instead_of_deadlocking(self):
        graph, plan, _ = _generated_case(2)
        # a budget smaller than any node forces the spill fallback
        trace = Controller().refresh(graph, 1e-9, plan=plan, method="sc",
                                     backend="parallel", workers=4)
        assert len(trace.nodes) == graph.n
        assert trace.peak_catalog_usage <= 1e-9


class TestLedgerConcurrentAdmission:
    def test_budget_never_exceeded_under_concurrent_admission(self):
        """Property-style hammering: N threads admit/release random-sized
        entries; committed usage must never exceed the budget."""
        budget = 100.0
        ledger = MemoryLedger(budget=budget)
        violations = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                usage = ledger.usage
                if usage > budget + 1e-9:
                    violations.append(usage)

        def hammer(worker_id):
            rng = random.Random(worker_id)
            for i in range(300):
                name = f"t{worker_id}-{i}"
                size = rng.uniform(1.0, 40.0)
                if ledger.try_insert(name, size, n_consumers=1,
                                     materialization_pending=True):
                    ledger.materialized(name)
                    ledger.consumer_done(name)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(8)]
        watcher = threading.Thread(target=sampler)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()
        assert not violations
        assert ledger.peak_usage <= budget + 1e-9
        assert ledger.usage == pytest.approx(0.0)

    def test_reservations_block_admission_but_not_peak(self):
        ledger = MemoryLedger(budget=10.0)
        assert ledger.reserve("a", 6.0)
        assert not ledger.reserve("b", 6.0)  # only 4 admissible
        assert ledger.peak_usage == 0.0      # nothing committed yet
        ledger.commit_reservation("a", n_consumers=0,
                                  materialization_pending=True)
        assert ledger.peak_usage == pytest.approx(6.0)
        assert "a" in ledger
        assert ledger.materialized("a")  # 0 consumers + drained: released
        assert "a" not in ledger
