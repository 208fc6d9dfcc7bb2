"""End-to-end integration: the full S/C pipeline on both substrates.

1. MiniDB path — generate TPC-DS-like data, define MVs in SQL, profile a
   run to collect metadata, optimize with S/C, execute the plan with real
   background materialization, and verify correctness + budget.
2. Simulator path — the five paper workloads through every optimizer
   method, verifying the paper's qualitative ordering.
"""

import numpy as np
import pytest

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
from repro.engine.controller import Controller
from repro.workloads.five_workloads import build_workload
from repro.workloads.tpcds import load_tpcds
from tests.conftest import run_workload


@pytest.fixture(scope="module")
def tpcds_workload(tmp_path_factory):
    db = MiniDB(str(tmp_path_factory.mktemp("warehouse")))
    load_tpcds(db, scale_gb=0.01, seed=0)
    definitions = [
        MvDefinition(
            "mv_store_enriched",
            "SELECT ss_item_sk, ss_quantity, ss_sales_price, "
            "ss_net_profit, i_category_id, i_brand_id, d_year "
            "FROM store_sales "
            "JOIN item ON ss_item_sk = i_item_sk "
            "JOIN date_dim ON ss_sold_date_sk = d_date_sk"),
        MvDefinition(
            "mv_category_sales",
            "SELECT i_category_id, d_year, "
            "SUM(ss_sales_price * ss_quantity) AS revenue, "
            "SUM(ss_net_profit) AS profit "
            "FROM mv_store_enriched "
            "GROUP BY i_category_id, d_year"),
        MvDefinition(
            "mv_brand_sales",
            "SELECT i_brand_id, SUM(ss_quantity) AS volume "
            "FROM mv_store_enriched GROUP BY i_brand_id"),
        MvDefinition(
            "mv_profit_report",
            "SELECT i_category_id, profit FROM mv_category_sales "
            "WHERE profit > 0 ORDER BY profit DESC"),
        MvDefinition(
            "mv_web_summary",
            "SELECT ws_item_sk, SUM(ws_sales_price) AS web_revenue "
            "FROM web_sales GROUP BY ws_item_sk"),
        MvDefinition(
            "mv_cross_channel",
            "SELECT i_brand_id, volume, web_revenue "
            "FROM mv_brand_sales "
            "JOIN mv_store_enriched ON i_brand_id = i_brand_id "
            "JOIN mv_web_summary ON ss_item_sk = ws_item_sk "
            "LIMIT 1000"),
    ]
    return SqlWorkload(db=db, definitions=definitions)


class TestMiniDbPipeline:
    def test_full_pipeline(self, tpcds_workload):
        # 1. profile: observe sizes/timings (the paper's past-runs metadata)
        graph = tpcds_workload.profile()
        assert graph.n == 6
        assert all(graph.size_of(v) > 0 for v in graph.nodes())

        # 2. optimize with S/C
        budget = 1.5 * max(graph.sizes().values())
        problem = ScProblem(graph=graph, memory_budget=budget)
        result = optimize(problem, method="sc")
        assert result.plan.flagged  # something worth keeping in memory

        # 3. execute the plan for real
        trace = run_workload(tpcds_workload, result.plan, budget,
                             method="sc")
        assert trace.peak_catalog_usage <= budget + 1e-9
        db = tpcds_workload.db
        for definition in tpcds_workload.definitions:
            assert db.catalog.persisted(definition.name)

        # 4. results identical to an unoptimized run
        reference = {d.name: db.table(d.name)
                     for d in tpcds_workload.definitions}
        for d in tpcds_workload.definitions:
            db.drop(d.name)
        run_workload(tpcds_workload, Plan.unoptimized(result.plan.order),
                     0.0, method="none")
        for d in tpcds_workload.definitions:
            assert db.table(d.name).equals(reference[d.name]), d.name


class TestSimulatorPipeline:
    def test_paper_method_ordering_holds(self):
        graph = build_workload("io1", scale_gb=100.0)
        budget = 1.6
        controller = Controller()
        times = {
            method: controller.refresh(graph, budget, method=method,
                                       seed=3).end_to_end_time
            for method in ("none", "lru", "greedy", "ratio", "sc")
        }
        assert times["sc"] < times["none"]
        assert times["sc"] <= min(times["greedy"], times["ratio"],
                                  times["lru"]) * 1.01
        assert times["lru"] < times["none"]

    def test_partitioned_beats_regular(self):
        controller = Controller()
        speedups = {}
        for partitioned in (False, True):
            graph = build_workload("io2", scale_gb=100.0,
                                   partitioned=partitioned)
            budget = 0.8 if partitioned else 1.6
            none_t = controller.refresh(graph, budget,
                                        method="none").end_to_end_time
            sc_t = controller.refresh(graph, budget,
                                      method="sc").end_to_end_time
            speedups[partitioned] = none_t / sc_t
        assert speedups[True] > speedups[False]
