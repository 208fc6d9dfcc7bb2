"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.io import graph_to_dict, save_graph
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    generate_workload,
)
from tests.conftest import make_fig7_problem


@pytest.fixture
def graph_file(tmp_path) -> str:
    path = str(tmp_path / "graph.json")
    save_graph(make_fig7_problem().graph, path)
    return path


class TestOptimize:
    def test_prints_plan(self, graph_file, capsys):
        assert main(["optimize", graph_file, "--memory", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total_score"] == 210
        assert set(payload["plan"]["flagged"]) >= {"v1", "v3", "v6"}

    def test_writes_file(self, graph_file, tmp_path):
        out = str(tmp_path / "plan.json")
        main(["optimize", graph_file, "--memory", "100",
              "--output", out])
        payload = json.loads(open(out).read())
        assert payload["plan"]["order"][0] == "v1"

    def test_stdout_is_only_json(self, tmp_path, capfd):
        """On this DAG HiGHS's MIP solver writes a line of its own
        straight to file descriptor 1; none of it may reach stdout."""
        graph = generate_workload(GeneratedWorkloadConfig(n_nodes=20),
                                  seed=6)
        path = str(tmp_path / "g.json")
        save_graph(graph, path)
        assert main(["optimize", path, "--memory",
                     str(0.1 * graph.total_size())]) == 0
        assert json.loads(capfd.readouterr().out)["plan"]["flagged"]

    def test_method_choice_enforced(self, graph_file):
        with pytest.raises(SystemExit):
            main(["optimize", graph_file, "--memory", "100",
                  "--method", "nope"])


class TestSimulate:
    def test_summary_output(self, graph_file, capsys):
        assert main(["simulate", graph_file, "--memory", "100",
                     "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end time" in out
        assert "peak catalog use" in out
        assert "|" in out  # gantt bars

    def test_lru_method(self, graph_file, capsys):
        assert main(["simulate", graph_file, "--memory", "100",
                     "--method", "lru"]) == 0
        assert "lru" in capsys.readouterr().out

    def test_runs_the_plan_file_optimize_wrote(self, tmp_path, capsys):
        """``workload --output`` into ``optimize --output`` into
        ``simulate --plan``: the file optimize writes is the one plan
        file simulate reads, and running it is running the plan
        simulate would have made itself."""
        graph, plan = str(tmp_path / "wl.json"), str(tmp_path / "plan.json")
        assert main(["workload", "io1", "--output", graph]) == 0
        assert main(["optimize", graph, "--memory", "5",
                     "--output", plan]) == 0
        capsys.readouterr()
        assert main(["simulate", graph, "--memory", "5",
                     "--plan", plan]) == 0
        given = capsys.readouterr().out
        assert main(["simulate", graph, "--memory", "5"]) == 0
        assert given == capsys.readouterr().out


_SIM = ["simulate", "{graph}"]
_DB = ["minidb", "--memory", "0.001", "--rows", "2000"]

#: Every rejected flag combination, whichever layer rejects it: argparse
#: (the plan sources are mutually exclusive), the CLI's own flag rules,
#: or the library the command calls.
REJECTED = {
    "no RAM budget": [*_SIM],
    "RAM budget twice": [*_SIM, "--memory", "1", "--tier", "ram:1"],
    "two ram tiers": [*_SIM, "--tier", "ram:1", "--tier", "ram:2"],
    "bad tier budget": [*_SIM, "--memory", "1", "--tier", "ssd:lots"],
    "nothing to adapt": [*_SIM, "--memory", "1", "--tier", "disk:inf",
                         "--adaptive-codec"],
    "lru method with tiers": [*_SIM, "--memory", "1", "--tier", "disk:inf",
                              "--method", "lru"],
    "lru backend with tiers": [*_SIM, "--memory", "1", "--tier",
                               "disk:inf", "--backend", "lru"],
    "lru backend, optimizing method": [*_SIM, "--memory", "1",
                                       "--backend", "lru"],
    "lru method, parallel backend": [*_SIM, "--memory", "1", "--method",
                                     "lru", "--backend", "parallel"],
    "tier-aware plan without tiers": [*_SIM, "--memory", "1",
                                      "--tier-aware-plan"],
    "tier-aware plan and a plan": [*_SIM, "--memory", "1", "--tier",
                                   "disk:inf", "--tier-aware-plan",
                                   "--plan", "{plan}"],
    "feedback and a plan": [*_SIM, "--memory", "1", "--tier", "disk:inf",
                            "--feedback", "{trace}", "--plan", "{plan}"],
    "feedback and tier-aware plan": [*_SIM, "--memory", "1", "--tier",
                                     "disk:inf", "--feedback", "{trace}",
                                     "--tier-aware-plan"],
    "feedback without tiers": [*_SIM, "--memory", "1", "--feedback",
                               "{trace}"],
    "feedback from an untiered trace": [*_SIM, "--memory", "1", "--tier",
                                        "disk:inf", "--feedback",
                                        "{untiered}"],
    "replan without tiers": [*_SIM, "--memory", "1", "--replan"],
    "NaN memory budget": ["optimize", "{graph}", "--memory", "nan"],
    # a run handed its plan builds no ScProblem: the run checks the budget
    "NaN budget, given plan": [*_SIM, "--memory", "nan", "--plan",
                               "{plan}"],
    "NaN budget, lru": [*_SIM, "--memory", "nan", "--method", "lru"],
    "NaN budget, parallel, given plan": [*_SIM, "--memory", "nan",
                                         "--plan", "{plan}", "--backend",
                                         "parallel", "--workers", "4"],
    "NaN budget, minidb": ["minidb", "--memory", "nan", "--plan-memory",
                           "0.01", "--rows", "2000"],
    "negative budget, minidb": ["minidb", "--memory", "-1",
                                "--plan-memory", "0.01", "--rows", "2000"],
    "NaN node size": ["optimize", "{nan_size}", "--memory", "2"],
    "bare plan, not an optimize file": [*_SIM, "--memory", "1", "--plan",
                                        "{bare_plan}"],
    "plan file not JSON": [*_SIM, "--memory", "1", "--plan", "{not_json}"],
    "plan file for another graph": [*_SIM, "--memory", "1", "--plan",
                                    "{other_plan}"],
    "plan tiers without spill dir": [*_DB, "--plan-tiers"],
    "rung without spill dir": [*_DB, "--ram-compressed", "0.001"],
    "negative rung": [*_DB, "--spill-dir", "{spill}", "--ram-compressed",
                      "-1"],
    "NaN rung": [*_DB, "--spill-dir", "{spill}", "--ram-compressed", "nan"],
    "minidb nothing to adapt": [*_DB, "--spill-dir", "{spill}",
                                "--adaptive-codec"],
    "adaptation without spill dir": [*_DB, "--spill-codec", "zlib",
                                     "--adaptive-codec"],
    "config for a named experiment": ["bench", "fig2", "matrix.toml"],
    "matrix without config": ["bench", "matrix"],
    "run dir and resume": ["bench", "matrix", "matrix.toml", "--run-dir",
                           "a", "--resume", "b"],
    "zero jobs": ["bench", "matrix", "{matrix}", "--run-dir",
                  "{run_dir}-zero", "--jobs", "0"],
    "negative jobs": ["bench", "matrix", "{matrix}", "--run-dir",
                      "{run_dir}-negative", "--jobs", "-2"],
    "zero scale, workload": ["workload", "io1", "--scale-gb", "0"],
    "negative scale, workload": ["workload", "io1", "--scale-gb", "-1"],
    "NaN scale, workload": ["workload", "io1", "--scale-gb", "nan"],
    "infinite scale, workload": ["workload", "io1", "--scale-gb", "inf"],
    "zero scale, serve": ["serve", "--scale-gb", "0"],
    "negative rows, minidb": [*_DB[:3], "--rows", "-5"],
    "zero arrival rate": ["serve", "--arrival-rate", "0"],
    "negative arrival rate": ["serve", "--arrival-rate", "-1"],
    "negative requests": ["serve", "--requests", "-1"],
}


class TestRejectedFlags:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory) -> dict:
        root = tmp_path_factory.mktemp("rejected")
        paths = {name: str(root / f"{name}.json")
                 for name in ("graph", "plan", "trace", "untiered",
                              "nan_size", "bare_plan", "not_json",
                              "other_plan")}
        paths["spill"] = str(root / "spill")
        paths["run_dir"] = str(root / "matrix_run")
        paths["matrix"] = str(root / "matrix.toml")
        with open(paths["matrix"], "w") as out:
            out.write('[experiment]\nname = "one-cell"\n'
                      '[axes]\nbackend = ["simulator"]\n'
                      'workload = ["io1"]\nram_fraction = [0.5]\n'
                      '[fixed]\nscale_gb = 1.0\n')
        save_graph(make_fig7_problem().graph, paths["graph"])
        payload = graph_to_dict(make_fig7_problem().graph)
        payload["nodes"][1]["size"] = float("nan")
        with open(paths["nan_size"], "w") as out:
            json.dump(payload, out)
        assert main(["optimize", paths["graph"], "--memory", "100",
                     "--output", paths["plan"]]) == 0
        with open(paths["plan"]) as report:
            payload = json.load(report)
        with open(paths["bare_plan"], "w") as out:
            json.dump(payload["plan"], out)
        with open(paths["not_json"], "w") as out:
            out.write("order: v1 v2\n")
        payload["plan"]["order"].pop()
        with open(paths["other_plan"], "w") as out:
            json.dump(payload, out)
        for key, tiers in (("trace", ["--tier", "disk:inf"]),
                           ("untiered", [])):
            assert main(["simulate", paths["graph"], "--memory", "100",
                         *tiers, "--save-trace", paths[key]]) == 0
        return paths

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_exits_two_with_one_error_line(self, case, files, capsys):
        capsys.readouterr()
        argv = [arg.format(**files) for arg in REJECTED[case]]
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("repro-sc "), \
            captured.err


class TestWorkload:
    def test_emits_graph_json(self, capsys):
        assert main(["workload", "io2", "--scale-gb", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 19

    def test_partitioned_smaller(self, tmp_path):
        regular = str(tmp_path / "r.json")
        partitioned = str(tmp_path / "p.json")
        main(["workload", "io1", "--output", regular])
        main(["workload", "io1", "--partitioned", "--output",
              partitioned])
        size_r = sum(n["size"] for n in
                     json.loads(open(regular).read())["nodes"])
        size_p = sum(n["size"] for n in
                     json.loads(open(partitioned).read())["nodes"])
        assert size_p < size_r


class TestBench:
    @pytest.mark.parametrize("experiment, column", [
        ("fig2", "transformation"),
        ("adaptive_drift", "re-plans"),  # a bench/extensions.py driver
    ])
    def test_prints_the_experiments_table(self, experiment, column,
                                          capsys):
        assert main(["bench", experiment]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"[{experiment}]") and column in out


class TestExplain:
    def test_explains_fig7_plan(self, graph_file, capsys):
        assert main(["explain", graph_file, "--memory", "100"]) == 0
        out = capsys.readouterr().out
        assert "kept" in out
        assert "occupancy" in out

    def test_no_profile_flag(self, graph_file, capsys):
        assert main(["explain", graph_file, "--memory", "100",
                     "--no-profile"]) == 0
        assert "occupancy" not in capsys.readouterr().out
