"""Smoke tests for the experiment drivers (tiny parameterizations).

The full-size assertions live in ``benchmarks/bench_experiments.py``;
here we verify every driver runs, returns well-formed rows, and
renders; that the registry, the claims and the ``bench`` command name
the same experiments; and the below-peak cell the tiered sweeps and
``bench matrix`` share.
"""

import argparse
import dataclasses
import inspect

import pytest

from benchmarks.bench_experiments import CLAIMS
from repro import cli
from repro.bench import EXPERIMENTS, experiments
from repro.bench.below_peak import (
    PLANNING_ARMS,
    CellRun,
    generated_cases,
    run_cell,
    ssd_and_disk,
)
from repro.bench.report import format_table
from repro.errors import ValidationError
from repro.store.config import SpillConfig


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.0], ["long-name", 123456.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "123,456" in text
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header/body aligned

    def test_cell_formats(self):
        from repro.bench.report import format_cell

        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(12.345) == "12.3"
        assert format_cell(10_000.0) == "10,000"
        assert format_cell("x") == "x"


class TestDrivers:
    def test_fig2(self):
        result = experiments.fig2_query_type_breakdown()
        assert len(result.rows) == 10
        assert result.render()

    def test_fig3_tiny(self):
        result = experiments.fig3_io_breakdown(scales_gb=(0.002,))
        assert len(result.rows) == 1
        shares = result.rows[0][1:]
        assert sum(shares) == pytest.approx(100.0)

    def test_table3(self):
        result = experiments.table3_workload_summary()
        assert len(result.rows) == 5

    def test_fig9_small_scale(self):
        result = experiments.fig9_end_to_end(scale_gb=10.0)
        assert len(result.rows) == 10  # 2 datasets x 5 workloads
        for series in result.data["times"].values():
            assert series["sc"] <= series["none"] * 1.0001

    def test_fig10_two_scales(self):
        result = experiments.fig10_scales(scales_gb=(10, 25))
        assert len(result.rows) == 4
        assert all(value > 1.0
                   for value in result.data["speedups"].values())

    def test_fig11_two_points(self):
        result = experiments.fig11_memory_sweep(
            scale_gb=10.0, fractions=(0.008, 0.064))
        speedups = result.data["speedups"]
        assert speedups[0.064]["spare"] >= speedups[0.008]["spare"] - 0.05

    def test_table4_two_points(self):
        result = experiments.table4_latency_breakdown(
            scale_gb=10.0, fractions=(0.008, 0.064))
        assert len(result.rows) == 6  # 2 datasets x 3 metrics

    def test_fig12_small_scale(self):
        result = experiments.fig12_ablation(scale_gb=10.0)
        totals = result.data["totals"]
        for dataset in ("TPC-DS", "TPC-DSp"):
            assert totals[(dataset, "mkp+madfs")] < \
                totals[(dataset, "none")]

    def test_table5_three_clusters(self):
        result = experiments.table5_cluster_scaling(
            scale_gb=10.0, worker_counts=(1, 2, 3))
        totals = result.data["totals"]
        assert totals[1][0] > totals[3][0]

    def test_fig13_tiny(self):
        result = experiments.fig13_optimization_time(
            dag_sizes=(10, 25), n_dags=1)
        assert set(result.data["times"]) == {10, 25}

    def test_fig14_tiny(self):
        result = experiments.fig14_parameter_sweep(n_dags=2)
        assert ("DAG size", "100") in result.data["normalized"]
        assert result.data["normalized"][("DAG size", "100")] == \
            pytest.approx(1.0)


#: Every driver parameter there is: the size knobs a ``TestDrivers``
#: smoke test passes to keep its driver small.  Any other setting is
#: fixed in the driver's body, so a parameter no caller passes fails
#: :meth:`TestRegistry.test_drivers_take_only_the_size_knobs_tests_pass`.
DRIVER_PARAMETERS = {
    "fig3": ("scales_gb",),
    "fig9": ("scale_gb",),
    "fig10": ("scales_gb",),
    "fig11": ("scale_gb", "fractions"),
    "table4": ("scale_gb", "fractions"),
    "fig12": ("scale_gb",),
    "table5": ("scale_gb", "worker_counts"),
    "fig13": ("dag_sizes", "n_dags"),
    "fig14": ("n_dags",),
}


class TestRegistry:
    def test_drivers_take_only_the_size_knobs_tests_pass(self):
        """Each driver is callable with no arguments (how ``repro-sc
        bench`` and CI run it) and has exactly its allowlisted
        parameters."""
        for experiment_id, driver in EXPERIMENTS.items():
            signature = inspect.signature(driver)
            signature.bind()  # every parameter has a default
            assert tuple(signature.parameters) == \
                DRIVER_PARAMETERS.get(experiment_id, ()), experiment_id
        assert sum(map(len, DRIVER_PARAMETERS.values())) == 13

    def test_every_driver_has_claims_and_a_bench_id(self):
        """A driver without claims, claims without a driver, or either
        out of ``repro-sc bench``'s reach fails here."""
        parser = cli._build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        bench_ids = next(action for action in
                         commands.choices["bench"]._actions
                         if action.dest == "experiment").choices
        assert list(CLAIMS) == list(EXPERIMENTS)
        assert list(bench_ids) == [*EXPERIMENTS, "matrix"]
        # bench --help says the first line of each driver's docstring
        assert all(driver.__doc__ for driver in EXPERIMENTS.values())


class TestBelowPeakCell:
    @pytest.fixture(scope="class")
    def case(self):
        return generated_cases(n_dags=1, n_nodes=16, seed=3)[0]

    def test_case_is_planned_at_its_no_spill_peak(self, case):
        assert case.plan.flagged
        assert 0 < case.peak <= 0.3 * case.graph.total_size() + 1e-9

    @pytest.mark.parametrize("planning", PLANNING_ARMS)
    def test_every_arm_runs_within_the_budget(self, case, planning):
        ram = 0.4 * case.peak
        run = run_cell(case.graph, ram,
                       SpillConfig(tiers=ssd_and_disk(case.peak)),
                       planning, plan=case.plan)
        assert len(run.trace.nodes) == case.graph.n
        assert run.within(ram)
        if planning == "given":  # the full-budget plan must spill here
            assert run.plan is case.plan
            assert run.report.spill_count > 0
        if planning == "replan":
            first = run.first
            assert first.first is None and first.plan is not run.plan
            assert first.trace is not run.trace
            assert first.within(ram)
        else:
            assert run.first is None

    def test_budget_check_reads_trace_tier0_and_both_passes(self, case):
        ram = 0.4 * case.peak
        run = run_cell(case.graph, ram,
                       SpillConfig(tiers=ssd_and_disk(case.peak)), "replan")
        tier0_peak = run.report.tiers[0].peak
        assert 0 < tier0_peak <= ram + 1e-9
        quiet = dataclasses.replace(run.trace, peak_catalog_usage=0.0)
        assert not CellRun(run.plan, quiet).within(0.5 * tier0_peak)
        no_report = dataclasses.replace(run.trace, extras={})
        assert CellRun(run.plan, no_report).within(ram)
        assert not CellRun(run.plan, no_report).within(
            0.5 * run.trace.peak_catalog_usage)
        over = dataclasses.replace(run.first.trace,
                                   peak_catalog_usage=2 * ram)
        assert not CellRun(run.plan, run.trace,
                           first=CellRun(run.first.plan, over)).within(ram)

    def test_aware_plans_against_the_tiers(self, case):
        ram = 0.4 * case.peak
        spill = SpillConfig(tiers=ssd_and_disk(case.peak))
        blind = run_cell(case.graph, ram, spill, "blind")
        aware = run_cell(case.graph, ram, spill, "aware")
        assert blind.plan.expected_tiers == ()
        assert aware.plan.expected_tiers
        assert len(aware.plan.flagged) >= len(blind.plan.flagged)

    def test_controller_defines_the_edge_cases(self, case):
        # given, no plan: refresh optimizes tier-blind on its own
        unplanned = run_cell(case.graph, case.peak, None, "given")
        assert unplanned.plan is None and unplanned.report is None
        assert unplanned.within(case.peak)
        # ... or runs a plan-free baseline
        lru = run_cell(case.graph, case.peak, None, "given", method="lru")
        assert lru.trace.method == "lru"
        # tier-aware planning needs tiers to price
        for planning in ("aware", "replan"):
            with pytest.raises(ValidationError, match="spill configuration"):
                run_cell(case.graph, case.peak, None, planning)
        with pytest.raises(ValueError, match="planning"):
            run_cell(case.graph, case.peak, None, "oracle")
