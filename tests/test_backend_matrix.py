"""Cross-backend equivalence matrix + PR 4/PR 5 golden regressions.

Two contracts pin the new feedback-loop knobs:

* **Matrix** — across (arbitration on/off) x (codec none/zlib) x
  (prefetch on/off) x (feedback replan on/off), every run's ``RunTrace``
  JSON round-trips losslessly and the serial simulator and the parallel
  backend at ``workers=1`` stay bit-equal.

* **Golden file** — with every post-PR 4 knob disabled (no
  compressibility meta, no adaptation, no feedback), the fixed scenario
  in ``tests/data/golden_pr4_trace.json`` (generated from the PR 4
  code, *before* this subsystem existed) must be reproduced exactly:
  node traces bit-for-bit and every report field PR 4 emitted unchanged
  (new report fields may be added next to them, never instead of them).

Regenerate the golden only when a PR deliberately changes the default
pipeline's numbers — and say so in the commit.
"""

import json
import pathlib

import pytest

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.engine.trace import RunTrace
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_pr4_trace.json"
GOLDEN_PR5 = (pathlib.Path(__file__).parent / "data"
              / "golden_pr5_trace.json")


def _fixed_case(n_nodes=28, seed=0):
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=0.5),
        seed=seed)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=seed).plan
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    return graph, plan, peak


def _subset_equal(golden, fresh, path=""):
    """Every key/value the golden carries must appear unchanged in the
    fresh payload; additional fresh keys are allowed (new telemetry)."""
    if isinstance(golden, dict):
        for key, value in golden.items():
            assert key in fresh, f"missing report field {path}{key}"
            _subset_equal(value, fresh[key], f"{path}{key}.")
    elif isinstance(golden, list):
        assert len(golden) == len(fresh), f"length drift at {path}"
        for i, (a, b) in enumerate(zip(golden, fresh)):
            _subset_equal(a, b, f"{path}[{i}].")
    else:
        assert golden == fresh, (path, golden, fresh)


class TestGoldenRegression:
    def test_knobs_off_reproduces_pr4_trace(self):
        """The exact scenario the golden was generated from, re-run with
        the current code and every new knob at its default."""
        graph, plan, peak = _fixed_case()
        ram = 0.4 * peak
        spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                                   TierSpec("disk")))
        trace = Controller(options=SimulatorOptions(spill=spill)).refresh(
            graph, ram, plan=plan, method="sc")
        golden = json.loads(GOLDEN.read_text())
        fresh = trace.to_dict()
        # node timelines: bit-for-bit, no subset tolerance
        assert fresh["nodes"] == golden["nodes"]
        for key in golden:
            if key != "extras":
                assert fresh[key] == golden[key], key
        # report: every PR 4 field unchanged; new fields may ride along
        _subset_equal(golden["extras"], fresh["extras"])

    def test_golden_scenario_still_spills(self):
        """The golden is only a regression anchor while it exercises
        the tiered pipeline; guard against workload drift."""
        golden = json.loads(GOLDEN.read_text())
        assert golden["extras"]["tiered_store"]["spill_count"] > 0

    def test_knobs_off_reproduces_pr5_trace(self):
        """PR 5 anchor: the full feedback-era pipeline (zlib codec,
        prefetch, adaptive re-pricing) with every PR 6 knob off — no
        ram-compressed rung — re-run on current code.  The golden was
        generated from the PR 5 code, so passing proves the rung, the
        new codecs and the demote bypass left the existing pipeline
        bit-equal."""
        from repro.store.config import CodecAdaptConfig

        graph, plan, peak = _fixed_case(n_nodes=26, seed=5)
        ram = 0.4 * peak
        spill = SpillConfig(
            tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
            codec="zlib", prefetch=True,
            adapt=CodecAdaptConfig(samples=2))
        trace = Controller(options=SimulatorOptions(spill=spill)).refresh(
            graph, ram, plan=plan, method="sc")
        golden = json.loads(GOLDEN_PR5.read_text())
        fresh = trace.to_dict()
        assert fresh["nodes"] == golden["nodes"]
        for key in golden:
            if key != "extras":
                assert fresh[key] == golden[key], key
        _subset_equal(golden["extras"], fresh["extras"])

    def test_pr5_golden_scenario_still_exercises_the_pipeline(self):
        report = json.loads(GOLDEN_PR5.read_text())[
            "extras"]["tiered_store"]
        assert report["spill_count"] > 0
        assert report["prefetch"]["count"] > 0
        assert report["codec_adapt"]["tiers"], "adaptation never decided"


class TestBackendMatrix:
    @pytest.mark.parametrize("arbitrate", [True, False])
    @pytest.mark.parametrize("codec", ["none", "zlib"])
    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("feedback", [True, False])
    def test_serial_workers1_bit_equal_and_json_roundtrip(
            self, arbitrate, codec, prefetch, feedback):
        graph, plan, peak = _fixed_case(n_nodes=22, seed=3)
        ram = 0.4 * peak
        spill = SpillConfig(
            tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
            arbitrate=arbitrate, codec=codec, prefetch=prefetch)
        controller = Controller(options=SimulatorOptions(spill=spill))
        if feedback:
            first = controller.refresh(graph, ram, plan=plan,
                                       method="sc")
            plan = controller.replan_from_trace(graph, first, ram)
        serial = controller.refresh(graph, ram, plan=plan, method="sc")
        workers1 = controller.refresh(graph, ram, plan=plan,
                                      method="sc", backend="parallel",
                                      workers=1)
        assert serial.to_dict() == workers1.to_dict()
        for trace in (serial, workers1):
            assert RunTrace.from_json(trace.to_json()).to_dict() \
                == trace.to_dict()
