"""RunTrace.extras round-tripping and cross-backend stability.

The tiered store reports per-tier usage, spill/promote counts, and
stall-vs-spill arbitration outcomes through the generic
``RunTrace.extras`` mapping.  These tests pin the serialization
contract: a trace — extras, ``inf`` tier budgets, admission markers and
all — survives JSON serialize/deserialize bit-identically, and the
extras a run reports are stable between the serial simulator and the
parallel scheduler at ``workers=1``.
"""

import math

import pytest

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.engine.trace import NodeTrace, RunTrace
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)


def _tiered_run(seed=0, backend="simulator", workers=1, ram_fraction=0.3,
                codec="none", prefetch=False):
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=24, height_width_ratio=0.5),
        seed=seed)
    budget = 0.25 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=seed).plan
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    options = SimulatorOptions(spill=SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
        codec=codec, prefetch=prefetch))
    return Controller(options=options).refresh(
        graph, ram_fraction * peak, plan=plan, method="sc",
        backend=backend, workers=workers)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_tiered_trace_roundtrips_bit_identically(self, seed):
        trace = _tiered_run(seed)
        assert trace.extras["tiered_store"]["spill_count"] > 0
        restored = RunTrace.from_json(trace.to_json())
        assert restored == trace  # dataclass equality: every field
        assert restored.extras == trace.extras

    def test_inf_tier_budget_survives(self):
        trace = _tiered_run()
        tiers = trace.extras["tiered_store"]["tiers"]
        assert any(math.isinf(t["budget"]) for t in tiers)
        restored = RunTrace.from_json(trace.to_json())
        restored_tiers = restored.extras["tiered_store"]["tiers"]
        assert any(math.isinf(t["budget"]) for t in restored_tiers)

    def test_arbitration_counters_survive(self):
        from repro.core.plan import Plan
        from repro.graph.dag import DependencyGraph

        graph = DependencyGraph()
        for node_id in ("a", "b"):
            graph.add_node(node_id, size=1.9, score=1.9,
                           compute_time=0.1)
        plan = Plan(order=("a", "b"), flagged=frozenset({"a", "b"}))
        options = SimulatorOptions(spill=SpillConfig(
            tiers=(TierSpec("disk"),)))
        trace = Controller(options=options).refresh(
            graph, 2.0, plan=plan, method="sc")
        assert trace.extras["tiered_store"]["arbitration"][
            "stall_wins"] == 1
        restored = RunTrace.from_json(trace.to_json())
        assert restored.extras == trace.extras
        assert restored.stall_avoided_time == trace.stall_avoided_time
        assert [n.admission for n in restored.nodes] == \
            [n.admission for n in trace.nodes]

    def test_codec_and_prefetch_extras_roundtrip(self):
        """The compressed-spill accounting — codec names, stored vs
        logical volumes, per-tier ratios, prefetch outcomes — survives
        the JSON round trip bit-identically."""
        trace = _tiered_run(codec="zlib", prefetch=True)
        report = trace.extras["tiered_store"]
        assert report["codec"] == "zlib"
        assert report["spill_count"] > 0
        assert 0.0 < report["spill_stored_gb"] < report["spill_bytes_gb"]
        assert report["prefetch"]["enabled"] is True
        assert {"count", "bytes_gb", "hidden_seconds", "misses"} <= \
            set(report["prefetch"])
        assert all({"codec", "codec_ratio", "logical"} <= set(tier)
                   for tier in report["tiers"])
        restored = RunTrace.from_json(trace.to_json())
        assert restored == trace
        assert restored.extras["tiered_store"]["prefetch"] == \
            report["prefetch"]
        assert restored.extras["tiered_store"]["spill_stored_gb"] == \
            report["spill_stored_gb"]

    def test_codec_none_reports_inert_codec_extras(self):
        """With the knobs off, the new extras exist but are inert —
        stored equals logical and nothing was prefetched."""
        trace = _tiered_run()
        report = trace.extras["tiered_store"]
        assert report["codec"] == "none"
        assert report["spill_stored_gb"] == report["spill_bytes_gb"]
        assert report["prefetch"] == {
            "enabled": False, "count": 0, "bytes_gb": 0.0,
            "hidden_seconds": 0.0, "misses": 0}

    def test_untiered_trace_roundtrips(self):
        graph = WorkloadGenerator().generate(
            GeneratedWorkloadConfig(n_nodes=12), seed=2)
        budget = 0.5 * graph.total_size()
        trace = Controller().refresh(graph, budget, method="sc")
        assert trace.extras == {}
        restored = RunTrace.from_json(trace.to_json())
        assert restored == trace
        assert restored.stall_avoided_time == 0.0

    def test_node_trace_roundtrip(self):
        node = NodeTrace(node_id="v1", start=1.0, end=2.5, stall=0.25,
                         spill_write=0.1, promote_read=0.05,
                         flagged=True, admission="stall")
        assert NodeTrace.from_dict(node.to_dict()) == node


class TestCrossBackendStability:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_extras_identical_serial_vs_workers1(self, seed):
        serial = _tiered_run(seed, backend="simulator")
        parallel = _tiered_run(seed, backend="parallel", workers=1)
        assert serial.extras == parallel.extras
        # and the serialized forms agree byte for byte
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_extras_identical_with_compression_on(self, seed):
        serial = _tiered_run(seed, backend="simulator",
                             codec="zlib", prefetch=True)
        parallel = _tiered_run(seed, backend="parallel", workers=1,
                               codec="zlib", prefetch=True)
        assert serial.extras == parallel.extras
        assert serial.to_json() == parallel.to_json()
