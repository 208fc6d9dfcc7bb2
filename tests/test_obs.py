"""Tests for the observability subsystem (``repro.obs``).

Four contracts:

* **Metrics** — typed counters/gauges/histograms, overwrite-merge, and
  the descriptor-backed ledger tallies keeping their Python numeric
  types (so ``tier_report()`` serializes exactly as before).
* **Events + exporters** — Chrome-trace output is valid JSON with
  properly nested, per-lane non-overlapping spans; the JSONL log
  round-trips events (args included) losslessly; the text timeline
  renders every lane.
* **Off-by-default** — a run without a bus emits nothing, and the
  PR 5 golden scenario re-run on the instrumented code stays bit-equal
  to ``tests/data/golden_pr5_trace.json``.
* **Attribution report** — ``repro obs report`` reproduces
  ``RunTrace.breakdown()`` within float tolerance, and the trajectory
  gate (schema + regression checks over ``BENCH_*.json``) catches what
  it exists to catch.
"""

import json
import math
import pathlib

import pytest

from repro.bench.trajectory import (
    check_files,
    regression_gate,
    snapshot_date,
    tracked_metrics,
    validate_bench_file,
)
from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.obs.events import NULL_BUS, Event, EventBus, resolve_bus
from repro.obs.export import (
    chrome_trace,
    events_from_jsonl,
    events_to_jsonl,
    text_timeline,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    attribution_table,
    breakdown_from_stages,
    stage_totals,
)
from repro.store import SpillConfig, TierSpec
from repro.store.config import CodecAdaptConfig
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

GOLDEN_PR5 = (pathlib.Path(__file__).parent / "data"
              / "golden_pr5_trace.json")


def _pr5_scenario(bus=None):
    """The exact run ``golden_pr5_trace.json`` was generated from."""
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=26, height_width_ratio=0.5),
        seed=5)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=5).plan
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    spill = SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
        codec="zlib", prefetch=True, adapt=CodecAdaptConfig(samples=2))
    controller = Controller(options=SimulatorOptions(spill=spill),
                            bus=bus)
    return controller.refresh(graph, 0.4 * peak, plan=plan, method="sc")


@pytest.fixture(scope="module")
def traced_run():
    """One instrumented PR 5-scenario run shared by the export tests."""
    bus = EventBus()
    trace = _pr5_scenario(bus=bus)
    return bus, trace


class TestMetricsRegistry:
    def test_counter_keeps_numeric_type(self):
        registry = MetricsRegistry()
        counter = registry.counter("spills")
        assert counter.value == 0 and isinstance(counter.value, int)
        counter.inc()
        counter.inc(2)
        assert counter.value == 3 and isinstance(counter.value, int)
        counter.value += 0.5  # GB-style counters go float on first add
        assert isinstance(counter.value, float)

    def test_create_on_first_use_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("x") is registry.gauge("x")
        assert registry.histogram("x") is registry.histogram("x")

    def test_histogram_buckets_are_powers_of_two(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes")
        for value in (0.0, -1.0, 3.0, 4.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.min == -1.0 and histogram.max == 5.0
        # 0 and -1 -> 0-bucket; 3,4 -> 4; 5 -> 8
        assert histogram.buckets == {0.0: 2, 4.0: 2, 8.0: 1}
        assert histogram.mean == pytest.approx(11.0 / 5.0)

    def test_publish_overwrites_never_double_counts(self):
        """A ledger's run counters land in the run registry under their
        store.* names; a second publish (a --replan second pass reusing
        the bus) reports the latest totals, never a sum."""
        from repro.store.tiered import TieredLedger

        ledger = TieredLedger(10.0)
        ledger.insert("a", 6.0, n_consumers=1)
        ledger.spill_insert("b", 8.0, n_consumers=1)   # demotes a
        registry = MetricsRegistry()
        registry.counter("store.spill.count").value = 99
        ledger.stats.publish(registry)
        ledger.stats.publish(registry)
        counters = registry.snapshot()["counters"]
        assert counters["store.spill.count"] == 1
        assert isinstance(counters["store.spill.count"], int)
        assert counters["store.spill.logical_gb"] == 6.0
        assert counters["store.promote.count"] == 0

    def test_render_empty_and_populated(self):
        registry = MetricsRegistry()
        assert "no metrics" in registry.render()
        registry.counter("a.count").inc()
        assert "a.count" in registry.render()


class TestEventBus:
    def test_null_bus_is_disabled_and_collects_nothing(self):
        assert NULL_BUS.enabled is False
        NULL_BUS.span("n", "node", "worker-0", 0.0, 1.0)
        NULL_BUS.instant("d", "store", "tier:ssd", 0.5)
        NULL_BUS.counter("gb", "tier:ssd", 0.5, 1.0)
        assert NULL_BUS.events == []

    def test_resolve_bus(self):
        assert resolve_bus(None) is NULL_BUS
        bus = EventBus()
        assert resolve_bus(bus) is bus

    def test_clear_drops_events_and_metrics(self):
        bus = EventBus()
        bus.instant("x", "run", "scheduler", 0.0)
        bus.metrics.counter("c").inc()
        bus.clear()
        assert bus.events == []
        assert bus.metrics.snapshot()["counters"] == {}

    def test_event_dict_roundtrip(self):
        event = Event("span", "mv_1", "node", "worker-3", 1.0, 2.5,
                      wall=0.01, args={"flagged": True})
        back = Event.from_dict(event.to_dict())
        assert back.to_dict() == event.to_dict()
        assert back.duration == pytest.approx(1.5)


def _spans_by_lane(events):
    lanes = {}
    for event in events:
        if event.kind == "span":
            lanes.setdefault(event.lane, []).append(event)
    return lanes


class TestInstrumentedRun:
    def test_all_event_kinds_and_lanes_present(self, traced_run):
        bus, trace = traced_run
        kinds = {event.kind for event in bus.events}
        assert kinds == {"span", "instant", "counter"}
        lanes = {event.lane for event in bus.events}
        assert "worker-0" in lanes
        assert any(lane.startswith("tier:") for lane in lanes)
        names = {event.name for event in bus.events}
        assert {"demote", "prefetch-hit", "run-finish"} <= names

    def test_per_lane_spans_nest_and_never_overlap(self, traced_run):
        bus, _ = traced_run
        for lane, spans in _spans_by_lane(bus.events).items():
            nodes = sorted((s for s in spans if s.cat == "node"),
                           key=lambda s: s.t0)
            phases = [s for s in spans if s.cat == "phase"]
            # node spans tile the lane without overlap
            for before, after in zip(nodes, nodes[1:]):
                assert before.t1 <= after.t0 + 1e-9, lane
            # every phase span nests inside exactly its node's span
            for phase in phases:
                owner = next(n for n in nodes
                             if n.name == phase.args["node"])
                assert owner.t0 - 1e-9 <= phase.t0
                assert phase.t1 <= owner.t1 + 1e-9
            # phases within one node are sequential
            for node in nodes:
                mine = sorted((p for p in phases
                               if p.args["node"] == node.name),
                              key=lambda p: p.t0)
                for before, after in zip(mine, mine[1:]):
                    assert before.t1 <= after.t0 + 1e-9

    def test_ledger_metrics_surface_on_the_bus(self, traced_run):
        bus, trace = traced_run
        report = trace.extras["tiered_store"]
        counters = bus.metrics.snapshot()["counters"]
        assert counters["store.spill.count"] == report["spill_count"]
        assert counters["store.prefetch.count"] == (
            report["prefetch"]["count"])
        assert bus.metrics.histogram("node.elapsed_seconds").count == (
            len(trace.nodes))


class TestChromeTraceExport:
    def test_valid_json_with_lane_metadata(self, traced_run, tmp_path):
        bus, _ = traced_run
        path = tmp_path / "run.trace.json"
        write_chrome_trace(bus.events, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events, "empty trace"
        assert {e["ph"] for e in events} <= {"M", "X", "C", "i"}
        meta = {e["args"]["name"]: e["tid"]
                for e in events if e["ph"] == "M"}
        assert "worker-0" in meta
        # every emitted event targets a named lane
        tids = {e["tid"] for e in events}
        assert tids == set(meta.values())

    def test_span_units_are_microseconds(self, traced_run):
        bus, _ = traced_run
        payload = chrome_trace(bus.events)
        span = next(e for e in payload["traceEvents"] if e["ph"] == "X")
        source = next(e for e in bus.events if e.kind == "span")
        assert span["ts"] == pytest.approx(source.t0 * 1e6)
        assert span["dur"] == pytest.approx(source.duration * 1e6)
        assert "wall_s" in span["args"]

    def test_counters_carry_values_and_instants_are_thread_scoped(
            self, traced_run):
        bus, _ = traced_run
        payload = chrome_trace(bus.events)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters and all("value" in e["args"] for e in counters)
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)


class TestJsonlExport:
    def test_roundtrip_is_lossless_including_args(self, traced_run,
                                                  tmp_path):
        bus, _ = traced_run
        path = tmp_path / "events.jsonl"
        events_to_jsonl(bus.events, path)
        back = events_from_jsonl(path)
        assert len(back) == len(bus.events)
        for original, restored in zip(bus.events, back):
            assert restored.to_dict() == original.to_dict()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        events_to_jsonl([], path)
        assert events_from_jsonl(path) == []


class TestTextTimeline:
    def test_renders_every_lane(self, traced_run):
        bus, _ = traced_run
        text = text_timeline(bus.events)
        assert "[worker-0]" in text
        assert "#" in text   # span bars
        assert "|" in text

    def test_no_events(self):
        assert text_timeline([]) == "(no events)"


class TestOffByDefault:
    def test_events_off_run_emits_nothing_and_matches_pr5_golden(self):
        before = len(NULL_BUS.events)
        trace = _pr5_scenario(bus=None)
        assert len(NULL_BUS.events) == before  # nothing emitted
        golden = json.loads(GOLDEN_PR5.read_text())
        fresh = trace.to_dict()
        assert fresh["nodes"] == golden["nodes"]
        for key in golden:
            if key != "extras":
                assert fresh[key] == golden[key], key

    def test_instrumented_run_is_bit_equal_to_uninstrumented(self):
        assert (_pr5_scenario(bus=EventBus()).to_json()
                == _pr5_scenario(bus=None).to_json())


class TestAttributionReport:
    def test_stage_totals_match_trace_properties(self, traced_run):
        _, trace = traced_run
        totals = stage_totals(trace)
        assert totals["compute"] == pytest.approx(trace.compute_latency)
        assert (totals["read (disk)"] + totals["read (memory)"]
                == pytest.approx(trace.table_read_latency))
        assert totals["stall"] == pytest.approx(trace.stall_time)

    def test_breakdown_matches_runtrace_breakdown(self, traced_run):
        _, trace = traced_run
        ours = breakdown_from_stages(stage_totals(trace))
        theirs = trace.breakdown()
        for key in ("read", "compute", "write"):
            assert ours[key] == pytest.approx(theirs[key])

    def test_table_renders_every_stage_and_the_fig3_axes(self,
                                                         traced_run):
        _, trace = traced_run
        text = attribution_table(trace)
        for label in ("read (disk)", "compute", "spill write",
                      "total attributed", "figure-3 axes"):
            assert label in text


class TestTrajectoryGate:
    def _snapshot(self, seconds):
        return {"experiment": "demo", "title": "demo",
                "headers": ["arm", "s"], "rows": [["a", seconds]],
                "data": {"totals": {"a": {"p50": seconds}}}}

    def test_valid_snapshot_passes(self):
        assert validate_bench_file(self._snapshot(1.0)) == []

    def test_missing_keys_and_ragged_rows_flagged(self):
        payload = self._snapshot(1.0)
        del payload["experiment"]
        payload["rows"] = [["only-one-cell"]]
        errors = validate_bench_file(payload, name="bad")
        assert any("experiment" in e for e in errors)
        assert any("cells" in e for e in errors)

    def test_non_finite_numbers_flagged(self):
        payload = self._snapshot(math.nan)
        errors = validate_bench_file(payload)
        assert any("non-finite" in e for e in errors)

    def test_tracked_metrics_flatten_totals(self):
        metrics = tracked_metrics(self._snapshot(2.5))
        assert metrics == {"totals.a.p50": 2.5}

    def test_gate_fails_beyond_noise_and_passes_within(self):
        old = self._snapshot(10.0)
        assert regression_gate(old, self._snapshot(10.4)) == []
        failures = regression_gate(old, self._snapshot(11.0))
        assert len(failures) == 1 and "totals.a.p50" in failures[0]
        # improvements never fail
        assert regression_gate(old, self._snapshot(5.0)) == []

    def test_snapshot_date_parsing(self):
        assert snapshot_date("BENCH_2026-08-07.json") == "2026-08-07"
        assert snapshot_date("/x/BENCH_2026-08-07.json") == "2026-08-07"
        assert snapshot_date("other.json") is None

    def test_check_files_gates_consecutive_dates(self, tmp_path):
        old = tmp_path / "BENCH_2026-01-01.json"
        new = tmp_path / "BENCH_2026-01-02.json"
        old.write_text(json.dumps(self._snapshot(10.0)))
        new.write_text(json.dumps(self._snapshot(20.0)))
        problems = check_files([str(old), str(new)])
        assert len(problems) == 1 and "totals.a.p50" in problems[0]

    def test_repo_snapshots_are_valid(self):
        root = pathlib.Path(__file__).parent.parent
        paths = sorted(str(p) for p in root.glob("BENCH_*.json"))
        assert paths, "no BENCH snapshots at the repo root"
        assert check_files(paths) == []


class TestCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graph.io import save_graph
        from tests.conftest import make_fig7_problem

        path = str(tmp_path / "graph.json")
        save_graph(make_fig7_problem().graph, path)
        return path

    def _simulate(self, graph_file, *extra):
        from repro.cli import main

        return main(["simulate", graph_file, "--tier", "ram:60",
                     "--tier", "ssd:100", "--tier", "disk:inf",
                     *extra])

    def test_events_chrome_trace_written(self, graph_file, tmp_path,
                                         capsys):
        out = str(tmp_path / "run.trace.json")
        assert self._simulate(graph_file, "--events", out) == 0
        payload = json.loads(open(out).read())
        assert payload["traceEvents"]
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_events_jsonl_written(self, graph_file, tmp_path):
        out = str(tmp_path / "run.jsonl")
        assert self._simulate(graph_file, "--events", out) == 0
        events = events_from_jsonl(out)
        assert any(e.kind == "span" for e in events)

    def test_metrics_flag_prints_registry(self, graph_file, capsys):
        assert self._simulate(graph_file, "--metrics") == 0
        out = capsys.readouterr().out
        assert "=== metrics ===" in out
        assert "store.spill.count" in out

    def test_obs_report_subcommand(self, graph_file, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "run.json")
        assert self._simulate(graph_file, "--save-trace",
                              trace_path) == 0
        capsys.readouterr()
        assert main(["obs", "report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "per-stage attribution" in out
        assert "figure-3 axes" in out
