"""Tests for the discrete-event refresh simulator."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.engine import SimulatorOptions
from repro.engine.storage import StorageDevice
from repro.errors import ValidationError
from repro.exec import create_backend
from repro.graph.io import load_graph
from repro.metadata.costmodel import DeviceProfile
from tests.conftest import make_random_problem


def simulator(profile=None, options=None):
    """The serial backend (``prepare`` -> ``execute_node``* -> ``finish``
    over a ``SerialRun``; ``run`` is that template over the whole
    plan)."""
    return create_backend("simulator", profile=profile, options=options)


def run_segment(backend, run, order, flagged):
    """Execute ``order`` under ``flagged`` on a run left by earlier
    segments — what a mid-run re-plan does."""
    run.plan = Plan.make(order, set(flagged) & set(order))
    for node_id in order:
        backend.execute_node(run, node_id)


def simple_profile() -> DeviceProfile:
    """Round numbers for hand-computable expectations."""
    return DeviceProfile(disk_read_bandwidth=1.0,
                         disk_write_bandwidth=0.5,
                         read_latency=0.0,
                         decode_rate=float("inf"),
                         encode_rate=float("inf"),
                         memory_bandwidth=100.0,
                         compute_rate=1.0,
                         background_interference=0.0,
                         background_parallelism=1.0)


class TestUnoptimizedRun:
    def test_serial_accounting(self, chain_graph):
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 1.0
        plan = Plan.unoptimized(["a", "b", "c", "d"])
        trace = simulator(profile=simple_profile()).run(
            chain_graph, plan, memory_budget=0.0)
        # node a: no parents, compute 1, write 1/0.5 = 2  -> 3
        # b, c, d: read 1 (disk), compute 1, write 2      -> 4 each
        assert trace.end_to_end_time == pytest.approx(3 + 4 * 3)
        assert trace.table_read_latency == pytest.approx(3.0)
        assert trace.write_latency == pytest.approx(8.0)
        assert trace.compute_latency == pytest.approx(4.0)
        assert trace.peak_catalog_usage == 0.0

    def test_base_inputs_charged(self, chain_graph):
        chain_graph.node("a").meta["base_input_gb"] = 5.0
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 0.0
        plan = Plan.unoptimized(["a", "b", "c", "d"])
        trace = simulator(profile=simple_profile()).run(
            chain_graph, plan, memory_budget=0.0)
        assert trace.nodes[0].read_disk == pytest.approx(5.0)


class TestFlaggedRun:
    def test_flagged_skips_blocking_write_and_disk_reads(self, chain_graph):
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 10.0
        plan = Plan.make(["a", "b", "c", "d"], {"a", "b", "c"})
        trace = simulator(profile=simple_profile()).run(
            chain_graph, plan, memory_budget=100.0)
        # all intermediate reads come from memory
        assert trace.table_read_disk_latency == 0.0
        assert trace.write_latency == pytest.approx(2.0)  # only sink d
        # ample compute time: background writes fully hidden
        assert trace.end_to_end_time == pytest.approx(
            trace.compute_finished_at)

    def test_flagged_run_not_slower(self, chain_graph):
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 1.0
        backend = simulator(profile=simple_profile())
        base = backend.run(chain_graph,
                           Plan.unoptimized(["a", "b", "c", "d"]), 0.0)
        flagged = backend.run(
            chain_graph, Plan.make(["a", "b", "c", "d"], {"a", "b", "c"}),
            100.0)
        assert flagged.end_to_end_time < base.end_to_end_time

    def test_run_ends_when_background_drains(self, chain_graph):
        # zero compute: the last background write dominates the tail
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 0.0
        plan = Plan.make(["a", "b", "c", "d"], {"a", "b", "c"})
        trace = simulator(profile=simple_profile()).run(
            chain_graph, plan, memory_budget=100.0)
        assert trace.background_drained_at > trace.compute_finished_at
        assert trace.end_to_end_time == trace.background_drained_at


class TestOverflowPolicies:
    def test_spill_when_budget_too_small(self, chain_graph):
        plan = Plan.make(["a", "b", "c", "d"], {"a"})
        trace = simulator(profile=simple_profile()).run(
            chain_graph, plan, memory_budget=0.5)  # a (1.0) cannot fit
        assert trace.nodes[0].write > 0  # spilled to a blocking write
        assert trace.peak_catalog_usage == 0.0

    def test_invalid_options(self):
        with pytest.raises(ValidationError):
            SimulatorOptions(compute_penalty=-0.1)

    def test_compute_penalty_slows_compute(self, chain_graph):
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 1.0
        plan = Plan.unoptimized(["a", "b", "c", "d"])
        slow = simulator(
            profile=simple_profile(),
            options=SimulatorOptions(compute_penalty=0.5)).run(
                chain_graph, plan, 0.0)
        assert slow.compute_latency == pytest.approx(6.0)

    def test_compute_falls_back_to_the_profile_over_every_input(
            self, tmp_path):
        """A node with no observed ``compute_time`` is charged the
        profile's compute over its parents' bytes plus its base-table
        bytes, slowed by the compute penalty."""
        path = tmp_path / "dag.json"
        path.write_text(json.dumps({
            "version": 1,
            "nodes": [{"id": "a", "size": 2.0}, {"id": "b", "size": 3.0},
                      {"id": "c", "size": 1.0,
                       "meta": {"base_input_gb": 0.5}}],
            "edges": [["a", "c"], ["b", "c"]]}))
        graph = load_graph(str(path))
        assert graph.node("c").compute_time is None
        profile = replace(simple_profile(), compute_rate=2.0)
        trace = simulator(
            profile=profile,
            options=SimulatorOptions(compute_penalty=0.25)).run(
                graph, Plan.unoptimized(["a", "b", "c"]), 0.0)
        computed = {node.node_id: node.compute for node in trace.nodes}
        assert computed["c"] == pytest.approx(
            profile.compute_time(2.0 + 3.0 + 0.5) * 1.25)


class TestStorageDevice:
    def test_background_serialization(self):
        device = StorageDevice(profile=simple_profile())
        first = device.submit_background_write(1.0, now=0.0)
        second = device.submit_background_write(1.0, now=0.0)
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(4.0)  # waits for the first
        assert device.drained_at() == pytest.approx(4.0)

    def test_interference_inflates_foreground(self):
        profile = DeviceProfile(disk_read_bandwidth=1.0,
                                disk_write_bandwidth=1.0,
                                read_latency=0.0,
                                decode_rate=float("inf"),
                                encode_rate=float("inf"),
                                background_interference=0.5,
                                background_parallelism=1.0)
        device = StorageDevice(profile=profile)
        assert device.read_duration(1.0, now=0.0) == pytest.approx(1.0)
        device.submit_background_write(10.0, now=0.0)
        assert device.read_duration(1.0, now=1.0) == pytest.approx(1.5)


class TestInvariants:
    def test_budget_never_exceeded(self):
        for seed in range(10):
            problem = make_random_problem(seed, n_nodes=15,
                                          budget_fraction=0.3)
            plan = optimize(problem, "sc").plan
            trace = simulator().run(problem.graph, plan,
                                    problem.memory_budget)
            assert trace.peak_catalog_usage <= \
                problem.memory_budget + 1e-9

    def test_invalid_order_rejected(self, diamond_graph):
        plan = Plan.unoptimized(["d", "a", "b", "c"])
        with pytest.raises(Exception):
            simulator().run(diamond_graph, plan, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_sc_never_slower_than_unoptimized(seed):
    problem = make_random_problem(seed, n_nodes=14, budget_fraction=0.4)
    graph = problem.graph
    rng = random.Random(seed)
    for node_id in graph.nodes():
        node = graph.node(node_id)
        node.compute_time = rng.uniform(0.0, 3.0)
        node.score = None or node.score
    backend = simulator()
    base = backend.run(graph, optimize(problem, "none").plan,
                       problem.memory_budget)
    sc = backend.run(graph, optimize(problem, "sc").plan,
                     problem.memory_budget)
    assert sc.end_to_end_time <= base.end_to_end_time * 1.02
    assert sc.peak_catalog_usage <= problem.memory_budget + 1e-9


class TestResumableState:
    """Driving the hooks segment by segment must compose to exactly
    one-shot runs."""

    def test_segments_equal_single_run(self, chain_graph):
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 1.0
        plan = Plan.make(["a", "b", "c", "d"], {"a", "b"})
        backend = simulator(profile=simple_profile())
        whole = backend.run(chain_graph, plan, memory_budget=100.0)

        run = backend.prepare(chain_graph, plan, 100.0)
        run_segment(backend, run, ["a", "b"], plan.flagged)
        run_segment(backend, run, ["c", "d"], plan.flagged)
        pieced = backend.finish(run)

        assert pieced.end_to_end_time == pytest.approx(
            whole.end_to_end_time)
        assert pieced.peak_catalog_usage == pytest.approx(
            whole.peak_catalog_usage)
        assert [t.node_id for t in pieced.nodes] == \
            [t.node_id for t in whole.nodes]

    def test_resident_parent_read_from_memory_across_segments(
            self, chain_graph):
        for node_id in chain_graph.nodes():
            chain_graph.node(node_id).compute_time = 0.0
        backend = simulator(profile=simple_profile())
        run = backend.prepare(
            chain_graph, Plan.unoptimized(["a", "b", "c", "d"]), 100.0)
        run_segment(backend, run, ["a"], {"a"})
        assert run.kernel.ledger.usage > 0
        run_segment(backend, run, ["b"], ())
        trace_b = run.kernel.traces[-1]
        assert trace_b.read_memory > 0
        assert trace_b.read_disk == 0

    def test_resident_bytes_drop_after_release(self, chain_graph):
        backend = simulator(profile=simple_profile())
        run = backend.prepare(
            chain_graph, Plan.unoptimized(["a", "b", "c", "d"]), 100.0)
        run_segment(backend, run, ["a"], {"a"})
        before = run.kernel.ledger.usage
        run_segment(backend, run, ["b", "c", "d"], ())
        backend.finish(run)
        assert run.kernel.ledger.usage < before

    def test_negative_budget_rejected_in_prepare(self, chain_graph):
        with pytest.raises(ValidationError):
            simulator(profile=simple_profile()).prepare(
                chain_graph, Plan.unoptimized(["a", "b", "c", "d"]), -1.0)

    def test_flag_changes_between_segments_respected(self, chain_graph):
        # a node flagged by a later segment's plan behaves like any flag
        backend = simulator(profile=simple_profile())
        run = backend.prepare(
            chain_graph, Plan.unoptimized(["a", "b", "c", "d"]), 100.0)
        run_segment(backend, run, ["a"], ())
        run_segment(backend, run, ["b"], {"b"})
        assert run.kernel.traces[0].flagged is False
        assert run.kernel.traces[1].flagged is True

    @given(seed=st.integers(0, 500), cut=st.integers(1, 14))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_cut_equals_whole_run(self, seed, cut):
        problem = make_random_problem(seed, n_nodes=15,
                                      budget_fraction=0.4)
        plan = optimize(problem, "sc").plan
        backend = simulator()
        whole = backend.run(problem.graph, plan, problem.memory_budget)

        run = backend.prepare(problem.graph, plan, problem.memory_budget)
        order = list(plan.order)
        run_segment(backend, run, order[:cut], plan.flagged)
        run_segment(backend, run, order[cut:], plan.flagged)
        pieced = backend.finish(run)
        assert pieced.end_to_end_time == pytest.approx(
            whole.end_to_end_time, rel=1e-9)
