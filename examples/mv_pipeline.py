"""A real MV pipeline on the MiniDB: profile -> optimize -> refresh.

This is the paper's full loop on genuine data: generate a TPC-DS-like star
schema, define a dbt-style DAG of materialized views in SQL, run one
profiling refresh to collect execution metadata (sizes + timings), let S/C
plan the next refresh, and execute it with real in-memory short-circuiting
and background materialization threads.

Run:  python examples/mv_pipeline.py
"""

import shutil
import tempfile

from repro import ScProblem, optimize
from repro.core.plan import Plan
from repro.db import MiniDB, SqlWorkload
from repro.db.engine import MvDefinition
from repro.exec import create_backend
from repro.workloads.tpcds import load_tpcds

MV_DEFINITIONS = [
    MvDefinition(
        "mv_store_enriched",
        "SELECT ss_item_sk, ss_quantity, ss_sales_price, ss_net_profit, "
        "i_category_id, i_brand_id, d_year "
        "FROM store_sales "
        "JOIN item ON ss_item_sk = i_item_sk "
        "JOIN date_dim ON ss_sold_date_sk = d_date_sk"),
    MvDefinition(
        "mv_category_report",
        "SELECT i_category_id, d_year, "
        "SUM(ss_sales_price * ss_quantity) AS revenue, "
        "SUM(ss_net_profit) AS profit "
        "FROM mv_store_enriched GROUP BY i_category_id, d_year"),
    MvDefinition(
        "mv_brand_volume",
        "SELECT i_brand_id, SUM(ss_quantity) AS volume "
        "FROM mv_store_enriched GROUP BY i_brand_id"),
    MvDefinition(
        "mv_web_summary",
        "SELECT ws_item_sk, SUM(ws_sales_price) AS web_revenue "
        "FROM web_sales GROUP BY ws_item_sk"),
    MvDefinition(
        "mv_top_categories",
        "SELECT i_category_id, profit FROM mv_category_report "
        "WHERE profit > 0 ORDER BY profit DESC LIMIT 100"),
]


def main() -> None:
    directory = tempfile.mkdtemp(prefix="repro_pipeline_")
    try:
        db = MiniDB(directory)
        print("loading TPC-DS-like data (~60 MB)...")
        load_tpcds(db, scale_gb=0.06, seed=0)
        workload = SqlWorkload(db=db, definitions=MV_DEFINITIONS)

        print("profiling run (collects the paper's execution metadata)...")
        graph = workload.profile()
        for node_id in graph.nodes():
            node = graph.node(node_id)
            print(f"  {node_id:20s} size={node.size * 1024:8.2f} MB "
                  f"compute={node.compute_time:6.3f}s "
                  f"score={node.score:6.3f}")

        budget = 1.2 * max(graph.sizes().values())
        problem = ScProblem(graph=graph, memory_budget=budget)
        plan = optimize(problem, method="sc").plan
        print(f"\nMemory Catalog: {budget * 1024:.1f} MB; flagged: "
              f"{sorted(plan.flagged)}")

        print("\nrefresh with S/C (real background materialization):")
        backend = create_backend("minidb", workload=workload)
        sc_trace = backend.run(workload.graph(), plan, budget, method="sc")
        print(f"  end-to-end: {sc_trace.end_to_end_time:.3f}s "
              f"(peak catalog {sc_trace.peak_catalog_usage * 1024:.1f} MB)")

        for definition in MV_DEFINITIONS:
            db.drop(definition.name)

        print("refresh without optimization (serial, all on disk):")
        none_trace = backend.run(
            workload.graph(), Plan.unoptimized(plan.order), 0.0,
            method="none")
        print(f"  end-to-end: {none_trace.end_to_end_time:.3f}s")
        print(f"\nreal speedup: "
              f"{none_trace.end_to_end_time / sc_trace.end_to_end_time:.2f}x")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
