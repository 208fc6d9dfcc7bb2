"""The standing experiment orchestrator, end to end.

Covers the declarative config layer (TOML/JSON parsing, axis
validation), matrix expansion and structural pruning, the matrix driver
(crash isolation, timeouts, incremental persistence), resumability (an
interrupted matrix resumed with ``resume=True`` re-executes nothing and
aggregates bit-identically to an uninterrupted run), cross-backend
determinism (every serial/parallel-workers=1 cell pair has bit-equal
traces), the ``bench matrix`` CLI, and the shared artifact-emission
helper behind the ``bench_*.py`` files.
"""

import json
import pathlib
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench import orchestrator
from repro.bench.experiment import (
    MatrixConfig,
    TrialSpec,
    expand_matrix,
    load_config,
)
from repro.bench.orchestrator import run_matrix
from repro.bench.report import emit_result_json, result_payload
from repro.bench.trajectory import validate_bench_file
from repro.cli import main
from repro.errors import RunCancelledError, ValidationError

REPO_ROOT = pathlib.Path(__file__).parent.parent
SMOKE_CONFIG = REPO_ROOT / "benchmarks" / "matrix_smoke.toml"

TINY_TOML = """\
[experiment]
name = "tiny"
title = "one-cell matrix"

[axes]
backend = ["simulator"]
workload = ["io1"]
ram_fraction = [0.5]
"""


def small_config(**overrides) -> MatrixConfig:
    """A fast simulated-only matrix (4 cells by default)."""
    kwargs = dict(
        name="orch-small", title="small orchestrator matrix",
        backends=("simulator", "parallel"), workloads=("io1",),
        ram_fractions=(0.5,), codecs=("none", "zlib"), jobs=2)
    kwargs.update(overrides)
    return MatrixConfig(**kwargs)


def bench_bytes(run_dir, date="2026-01-01") -> bytes:
    return (pathlib.Path(run_dir) / f"BENCH_{date}.json").read_bytes()


def load_bench(run) -> dict:
    with open(run.bench_path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------
class TestConfigLoading:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text(TINY_TOML, encoding="utf-8")
        config = load_config(str(path))
        assert config.name == "tiny"
        assert config.backends == ("simulator",)
        assert config.codecs == ("none",)  # axis defaults
        assert config.jobs == 2

    def test_load_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "experiment": {"name": "j"},
            "axes": {"backend": ["lru"], "workload": ["io1"],
                     "ram_fraction": [0.25]},
            "run": {"jobs": 4},
        }), encoding="utf-8")
        config = load_config(str(path))
        assert config.title == "j"  # defaults to the name
        assert config.jobs == 4

    def test_malformed_toml_rejected(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text('[axes]\nbackend = ["lru"\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="cannot parse .*m.toml"):
            load_config(str(path))

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="unknown config"):
            MatrixConfig.from_dict({
                "experiment": {"name": "x"}, "bogus": {},
                "axes": {"backend": ["simulator"], "workload": ["io1"],
                         "ram_fraction": [0.5]}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match=r"\[run\]"):
            MatrixConfig.from_dict({
                "experiment": {"name": "x"},
                "axes": {"backend": ["simulator"], "workload": ["io1"],
                         "ram_fraction": [0.5]},
                "run": {"job": 2}})

    def test_missing_required_axis_rejected(self):
        with pytest.raises(ValidationError, match="missing 'workload'"):
            MatrixConfig.from_dict({
                "experiment": {"name": "x"},
                "axes": {"backend": ["simulator"],
                         "ram_fraction": [0.5]}})

    @pytest.mark.parametrize("field,value,match", [
        ("backends", ("turbo",), "unknown backend"),
        ("workloads", ("nope",), "unknown workload"),
        ("codecs", ("lz999",), "unknown codec"),
        ("feedback", ("maybe",), "unknown feedback"),
        ("ram_fractions", (1.5,), "ram_fraction"),
        ("jobs", 0, "jobs"),
        ("trial_timeout_s", -1.0, "trial_timeout_s"),
    ])
    def test_validate_rejects_bad_values(self, field, value, match):
        with pytest.raises(ValidationError, match=match):
            small_config(**{field: value}).validate()


# ----------------------------------------------------------------------
# expansion + pruning
# ----------------------------------------------------------------------
class TestExpansion:
    def test_structural_pruning_rules(self):
        config = MatrixConfig(
            name="p", title="p",
            backends=("simulator", "lru", "minidb"),
            workloads=("io1", "demo"), ram_fractions=(0.5,),
            codecs=("none", "zlib"), feedback=("off", "replan"),
            rung=(False, True))
        trials, pruned = expand_matrix(config)
        by_backend: dict[str, list[TrialSpec]] = {}
        for spec in trials:
            by_backend.setdefault(spec.backend, []).append(spec)
        # lru keeps exactly one plan-free cell per graph workload
        assert [(s.workload, s.codec, s.feedback, s.rung, s.method)
                for s in by_backend["lru"]] == \
            [("io1", "none", "off", False, "lru")]
        # minidb keeps only single-pass demo cells
        assert all(s.workload == "demo" and s.feedback == "off"
                   for s in by_backend["minidb"])
        # graph backends never see the SQL demo
        assert all(s.workload != "demo" for s in by_backend["simulator"])
        reasons = {cell.reason for cell in pruned}
        assert any("no tiers" in reason for reason in reasons)
        assert any("single-pass" in reason for reason in reasons)
        assert any("graph workloads" in reason for reason in reasons)

    def test_trials_sorted_by_id_without_duplicates(self):
        trials, _ = expand_matrix(small_config())
        ids = [spec.trial_id for spec in trials]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids) == 4

    def test_duplicate_axis_values_rejected(self):
        config = small_config(backends=("simulator", "simulator"))
        with pytest.raises(ValidationError, match="duplicate trial id"):
            expand_matrix(config)

    def test_smoke_config_covers_every_backend_and_arm(self):
        """The committed CI smoke matrix really exercises every
        backend plus the codec/feedback/rung arms."""
        config = load_config(str(SMOKE_CONFIG))
        trials, pruned = expand_matrix(config)
        backends = {spec.backend for spec in trials}
        assert backends == {"simulator", "parallel", "lru", "minidb"}
        simulated = [s for s in trials if s.backend == "simulator"]
        assert {s.codec for s in simulated} == {"none", "zlib"}
        assert {s.feedback for s in simulated} == {"off", "replan"}
        assert {s.rung for s in simulated} == {False, True}
        # every simulated cell has a parallel twin for the
        # determinism check, and workers stays 1 so they compare
        assert config.workers == 1
        serial = {s.trial_id for s in simulated}
        twins = {s.trial_id.replace("parallel-", "simulator-", 1)
                 for s in trials if s.backend == "parallel"}
        assert twins == serial
        assert len(trials) == 38 and len(pruned) == 58


# ----------------------------------------------------------------------
# the matrix driver (one shared completed run)
# ----------------------------------------------------------------------
RICH = MatrixConfig(
    name="orch-rich", title="rich orchestrator matrix",
    backends=("simulator", "parallel", "lru"), workloads=("io1",),
    ram_fractions=(0.5,), codecs=("none", "zlib"),
    feedback=("off", "replan"), rung=(False, True), jobs=4)


@pytest.fixture(scope="module")
def rich_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("rich")
    run = run_matrix(RICH, str(run_dir), date="2026-01-01")
    records = orchestrator._load_records(run_dir / "trials")
    return run, records


class TestRunMatrix:
    def test_completes_all_cells(self, rich_run):
        run, _ = rich_run
        assert run.complete and not run.interrupted
        assert run.ok == run.total == 17  # 2*2*2*2 simulated + 1 lru
        assert run.failed == run.timeout == 0

    def test_bench_snapshot_schema_valid(self, rich_run):
        run, _ = rich_run
        payload = load_bench(run)
        assert validate_bench_file(payload, name="rich") == []
        assert payload["experiment"] == "orch-rich"
        totals = payload["data"]["totals"]
        assert "lru+none+fb-off" in totals
        assert "simulator+zlib+fb-replan+rung" in totals
        assert totals["simulator+none+fb-off"]["io1@0.5"] > 0
        assert payload["data"]["failed"] == []
        assert payload["data"]["config"]["name"] == "orch-rich"

    def test_report_has_pivots_and_results(self, rich_run):
        run, _ = rich_run
        report = pathlib.Path(run.report_path).read_text(encoding="utf-8")
        assert "# rich orchestrator matrix" in report
        assert "backend × workload" in report
        assert "codec × RAM fraction" in report
        assert "feedback arm × backend" in report
        assert "rung × backend" in report
        assert "## Failed cells" not in report

    def test_tiered_cells_record_spill_telemetry(self, rich_run):
        _, records = rich_run
        spills = [record["metrics"]["spill_count"]
                  for record in records.values()
                  if record["trial"]["backend"] != "lru"]
        assert any(count > 0 for count in spills)

    def test_replan_cells_record_both_passes(self, rich_run):
        _, records = rich_run
        replanned = [record for record in records.values()
                     if record["trial"]["feedback"] == "replan"]
        assert replanned
        for record in replanned:
            assert record["metrics"]["first_pass_s"] > 0

    def test_serial_parallel_pairs_bit_equal(self, rich_run):
        """Cross-backend determinism: every parallel-workers=1 cell
        must produce a trace dict bit-equal to its serial twin."""
        _, records = rich_run
        pairs = 0
        for trial_id, record in records.items():
            if record["trial"]["backend"] != "parallel":
                continue
            twin = records[trial_id.replace("parallel-", "simulator-", 1)]
            assert record["trace"] == twin["trace"], trial_id
            assert record["metrics"] == twin["metrics"], trial_id
            pairs += 1
        assert pairs == 8


class TestWallClockBackends:
    def test_minidb_arms_aggregate_outside_the_gate(self, tmp_path):
        """MiniDB timings are real wall-clock: they land in
        ``data.wall_clock`` (reported, never regression-gated) so the
        tracked ``data.totals`` stay deterministic across machines."""
        config = small_config(backends=("simulator", "minidb"),
                              workloads=("io1", "demo"),
                              codecs=("none",))
        run = run_matrix(config, str(tmp_path / "run"),
                         date="2026-01-01")
        assert run.complete and run.ok == run.total == 2
        payload = load_bench(run)
        assert validate_bench_file(payload) == []
        assert list(payload["data"]["totals"]) == ["simulator+none+fb-off"]
        assert list(payload["data"]["wall_clock"]) == \
            ["minidb+none+fb-off"]
        assert payload["data"]["wall_clock"]["minidb+none+fb-off"][
            "demo@0.5"] > 0


class TestFailureIsolation:
    def test_injected_failure_never_kills_the_matrix(self, tmp_path):
        run = run_matrix(small_config(), str(tmp_path / "run"),
                         date="2026-01-01", fail_matching=("zlib",))
        assert run.complete
        assert run.ok == 2 and run.failed == 2
        payload = load_bench(run)
        assert validate_bench_file(payload) == []
        assert len(payload["data"]["failed"]) == 2
        assert all("zlib" in trial_id
                   for trial_id in payload["data"]["failed"])
        report = pathlib.Path(run.report_path).read_text(encoding="utf-8")
        assert "## Failed cells" in report
        assert "injected failure" in report

    def test_crash_in_trial_body_marks_cell_failed(self, tmp_path,
                                                   monkeypatch):
        def boom(spec, config, cancel=None):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(orchestrator, "_trial_body", boom)
        run = run_matrix(small_config(), str(tmp_path / "run"),
                         date="2026-01-01")
        assert run.complete and run.failed == run.total
        payload = load_bench(run)
        entry = next(iter(payload["data"]["trials"].values()))
        assert "synthetic crash" in entry["error"]

    def test_hung_trial_trips_the_timeout(self, tmp_path, monkeypatch):
        def hang(spec, config, cancel=None):
            time.sleep(2.0)

        monkeypatch.setattr(orchestrator, "_trial_body", hang)
        config = small_config(backends=("simulator",),
                              codecs=("none",), trial_timeout_s=0.1)
        run = run_matrix(config, str(tmp_path / "run"),
                         date="2026-01-01")
        assert run.complete and run.timeout == run.total == 1
        payload = load_bench(run)
        entry = next(iter(payload["data"]["trials"].values()))
        assert entry["status"] == "timeout"
        assert "exceeded" in entry["error"]

    def test_timed_out_trial_stops_emitting(self, monkeypatch):
        """The cooperative cancel reaches a timed-out body: it stops at
        the next node boundary instead of running to completion in the
        abandoned thread (the pre-fix behavior kept emitting per-node
        records for the rest of the matrix's lifetime)."""
        emitted: list[int] = []
        unwound = threading.Event()

        def slow_trial(cancel):
            for node in range(1000):
                if cancel.is_set():  # what ExecutionBackend.run does
                    unwound.set()
                    raise RunCancelledError("cancelled", node_id=str(node))
                emitted.append(node)
                time.sleep(0.01)

        monkeypatch.setattr(orchestrator, "_CANCEL_GRACE_S", 2.0)
        with pytest.raises(orchestrator.TrialTimeout):
            orchestrator._run_with_timeout(slow_trial, timeout=0.15)
        assert unwound.wait(2.0), "body never observed the cancel event"
        count = len(emitted)
        time.sleep(0.2)  # the pre-fix thread would still be appending
        assert len(emitted) == count

    @pytest.mark.parametrize("backend,workers", [
        ("simulator", 1), ("parallel", 1), ("parallel", 4), ("lru", 1),
        ("minidb", 1)])
    def test_cancel_event_stops_a_real_backend_run(self, backend, workers,
                                                   tmp_path, monkeypatch):
        """End-to-end: a Controller built with a pre-set cancel event
        raises RunCancelledError before starting any node — no modeled
        node is charged, MiniDB runs no query — leaving the trial's
        trace unemitted: the path _run_with_timeout drives."""
        from repro.engine.controller import Controller
        from repro.exec.kernel import NodeKernel
        from repro.workloads.five_workloads import build_workload

        cancel = threading.Event()
        cancel.set()
        controller = Controller(cancel=cancel)
        # every modeled backend charges a started node through this
        # (read_and_compute ends in it; the LRU baseline calls it alone)
        started = []
        charge = NodeKernel.base_read_and_compute

        def counting(kernel, node, *args):
            started.append(node.node_id)
            return charge(kernel, node, *args)

        monkeypatch.setattr(NodeKernel, "base_read_and_compute", counting)
        if backend == "minidb":
            import numpy as np

            from repro.db import MiniDB, SqlWorkload, Table
            from repro.db.engine import MvDefinition

            db = MiniDB(str(tmp_path / "wh"))
            db.register_table("t", Table({"k": np.arange(100)}))
            workload = SqlWorkload(db=db, definitions=[
                MvDefinition("mv", "SELECT k FROM t WHERE k > 3")])
            workload.profile()
            query = db.query

            def counting_query(sql):
                started.append(sql)
                return query(sql)

            monkeypatch.setattr(db, "query", counting_query)
            with pytest.raises(RunCancelledError):
                controller.refresh_on_minidb(workload, 1000.0)
        else:
            graph = build_workload("io1", scale_gb=1.0)
            with pytest.raises(RunCancelledError):
                controller.refresh(
                    graph, graph.total_size(),
                    method="lru" if backend == "lru" else "sc",
                    backend=backend, workers=workers)
        assert started == []


# ----------------------------------------------------------------------
# resumability
# ----------------------------------------------------------------------
class TestResume:
    def test_interrupted_resume_matches_uninterrupted_run(self, tmp_path):
        """Stop after 2 of 4 cells, resume, and get a byte-identical
        BENCH snapshot: completed cells are never re-executed and the
        aggregation carries no wall-clock noise."""
        clean = run_matrix(small_config(), str(tmp_path / "clean"),
                           date="2026-01-01")
        assert clean.complete

        interrupted = run_matrix(small_config(), str(tmp_path / "resumed"),
                                 date="2026-01-01", stop_after=2)
        assert not interrupted.complete
        assert interrupted.bench_path is None
        assert len(interrupted.executed) == 2

        resumed = run_matrix(small_config(), str(tmp_path / "resumed"),
                             date="2026-01-01", resume=True)
        assert resumed.complete
        assert sorted(resumed.skipped) == sorted(interrupted.executed)
        assert not set(resumed.executed) & set(interrupted.executed)
        assert bench_bytes(tmp_path / "clean") == \
            bench_bytes(tmp_path / "resumed")

    def test_resume_executes_nothing_after_completion(self, tmp_path,
                                                      monkeypatch):
        run = run_matrix(small_config(), str(tmp_path / "run"),
                         date="2026-01-01")
        assert run.complete

        def untouchable(spec, config, cancel=None):
            raise AssertionError("a completed cell was re-executed")

        monkeypatch.setattr(orchestrator, "_trial_body", untouchable)
        again = run_matrix(small_config(), str(tmp_path / "run"),
                           date="2026-01-01", resume=True)
        assert again.complete and again.ok == run.total
        assert again.executed == []
        assert len(again.skipped) == run.total

    def test_retry_failed_converges_to_the_clean_snapshot(self, tmp_path):
        clean = run_matrix(small_config(), str(tmp_path / "clean"),
                           date="2026-01-01")
        assert clean.complete

        broken = run_matrix(small_config(), str(tmp_path / "retry"),
                            date="2026-01-01", fail_matching=("zlib",))
        assert broken.complete and broken.failed == 2

        # plain resume keeps terminal failed cells as-is
        kept = run_matrix(small_config(), str(tmp_path / "retry"),
                          date="2026-01-01", resume=True)
        assert kept.executed == [] and kept.failed == 2

        fixed = run_matrix(small_config(), str(tmp_path / "retry"),
                           date="2026-01-01", resume=True,
                           retry_failed=True)
        assert fixed.complete and fixed.failed == 0
        assert len(fixed.executed) == 2  # only the failed cells re-ran
        assert bench_bytes(tmp_path / "clean") == \
            bench_bytes(tmp_path / "retry")

    def test_run_dir_guards(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_matrix(small_config(), run_dir, date="2026-01-01",
                   stop_after=1)
        with pytest.raises(ValidationError, match="resume"):
            run_matrix(small_config(), run_dir, date="2026-01-01")
        with pytest.raises(ValidationError, match="different matrix"):
            run_matrix(small_config(name="other"), run_dir,
                       date="2026-01-01", resume=True)

    def test_torn_trial_file_is_re_executed(self, tmp_path):
        run_dir = tmp_path / "run"
        first = run_matrix(small_config(), str(run_dir),
                           date="2026-01-01")
        victim = sorted((run_dir / "trials").glob("*.json"))[0]
        victim.write_text("{torn", encoding="utf-8")
        again = run_matrix(small_config(), str(run_dir),
                           date="2026-01-01", resume=True)
        assert again.complete and again.ok == first.total
        assert len(again.executed) == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestMatrixCli:
    def write_tiny(self, tmp_path) -> str:
        path = tmp_path / "tiny.toml"
        path.write_text(TINY_TOML, encoding="utf-8")
        return str(path)

    def test_runs_and_reports(self, tmp_path, capsys):
        code = main(["bench", "matrix", self.write_tiny(tmp_path),
                     "--run-dir", str(tmp_path / "run"),
                     "--date", "2026-01-01", "--report"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "1 ok" in captured.out
        assert "snapshot:" in captured.out
        assert "# one-cell matrix" in captured.out
        assert (tmp_path / "run" / "BENCH_2026-01-01.json").exists()

    def test_config_required(self, capsys):
        assert main(["bench", "matrix"]) == 2
        assert "config file is required" in capsys.readouterr().err

    def test_run_dir_and_resume_conflict(self, tmp_path, capsys):
        code = main(["bench", "matrix", self.write_tiny(tmp_path),
                     "--run-dir", "a", "--resume", "b"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(TINY_TOML.replace("simulator", "warpdrive"),
                        encoding="utf-8")
        assert main(["bench", "matrix", str(path)]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_config_rejected_for_named_experiments(self, tmp_path,
                                                   capsys):
        code = main(["bench", "fig2", self.write_tiny(tmp_path)])
        assert code == 2
        assert "bench matrix" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the shared artifact-emission helper
# ----------------------------------------------------------------------
def fake_result() -> SimpleNamespace:
    return SimpleNamespace(
        experiment_id="helper", title="helper test",
        headers=["arm", "s"], rows=[["a", 1.0]],
        data={"totals": {"a": {"p": 1.0}}})


class TestResultPayload:
    def test_payload_passes_the_bench_schema(self):
        payload = result_payload(fake_result())
        assert validate_bench_file(payload, name="helper") == []
        assert payload["experiment"] == "helper"

    def test_extra_keys_ride_along(self):
        payload = result_payload(fake_result(), ratios={"zlib": 2.0})
        assert payload["ratios"] == {"zlib": 2.0}

    def test_shadowing_extra_keys_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            result_payload(fake_result(), data={})

    def test_emit_to_explicit_path(self, tmp_path):
        path = str(tmp_path / "out.json")
        assert emit_result_json(fake_result(), path=path) == path
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["title"] == "helper test"
