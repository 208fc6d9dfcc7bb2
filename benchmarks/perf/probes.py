"""Layer probes: the cost of single operations of each layer, timed
from outside on small seeded inputs.

Every traced run (``--trace 1``) runs the whole set after its traced
round, whatever the workload, so one run reports every per-layer
metric and set-to-set drift of a layer can be told from drift of the
host.  A probe is a few milliseconds to a few tenths of a second of
work, repeated and reported as a median; rates are operations (or rows,
or MB of table bytes) per second of that median.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from statistics import median

from repro import (
    ScProblem,
    ma_dfs_order,
    optimize,
    peak_memory_usage,
    select_nodes_mkp,
)
from repro.db import MiniDB
from repro.db import columnar_codec, storage_format
from repro.db.sql import parse_select
from repro.engine import Controller, SimulatorOptions
from repro.exec import MemoryLedger, create_backend
from repro.feedback import CostFeedback
from repro.graph import kahn_topological_order
from repro.obs import EventBus, chrome_trace
from repro.serve import RefreshService, ServiceConfig, TenantSpec
from repro.store import SpillConfig, TierSpec, TieredLedger
from repro.workloads import (
    GeneratedWorkloadConfig,
    build_five_workloads,
    build_workload,
    generate_tpcds_tables,
    generate_workload,
)

import inputs
from harness import OUT_DIR, median_time, spin_seconds, timed

MB = 1024.0 ** 2


def _tiered(budget: float) -> TieredLedger:
    return TieredLedger(budget, SpillConfig(
        tiers=(TierSpec("ssd", 4 * budget), TierSpec("disk")),
        codec="zlib", prefetch=True))


def _full_ledger(residents: int, owners=()) -> TieredLedger:
    """A tiered ledger whose RAM holds ``residents`` unit entries."""
    ledger = _tiered(float(residents))
    for tenant in owners:
        ledger.register_tenant(tenant, residents / len(owners))
    for i in range(residents):
        if owners:
            ledger.set_owner(f"e{i}", owners[i % len(owners)])
        ledger.insert(f"e{i}", 1.0, n_consumers=1 + i % 3,
                      materialization_pending=False)
    return ledger


def solver_core(seed: int, quick: bool) -> dict:
    n_small, n_large = (60, 300) if quick else (100, 800)
    small = inputs.generated_dag(n_small, 0, seed)
    problem = ScProblem(graph=small,
                        memory_budget=0.05 * small.total_size())
    order = kahn_topological_order(small)
    large = inputs.generated_dag(n_large, 1, seed)
    budget = 0.3 * large.total_size()
    plan = optimize(ScProblem(graph=large, memory_budget=budget),
                    method="greedy+madfs", seed=0).plan
    controller = Controller(spill=SpillConfig(
        tiers=(TierSpec("ssd", budget), TierSpec("disk")), codec="zlib"))
    return {
        "solver.mkp_select_s": median_time(
            lambda: select_nodes_mkp(problem, order), 2),
        "core.ma_dfs_order_ms": 1e3 * median_time(
            lambda: ma_dfs_order(large, plan.flagged), 5),
        "core.peak_memory_usage_ms": 1e3 * median_time(
            lambda: peak_memory_usage(large, plan.order, plan.flagged), 5),
        "core.optimize_greedy_madfs_ms": 1e3 * median_time(
            lambda: optimize(ScProblem(graph=large, memory_budget=budget),
                             method="greedy+madfs", seed=0), 5),
        "core.plan_tier_aware_ms": 1e3 * median_time(
            lambda: controller.plan(large, 0.1 * budget,
                                    method="greedy+madfs",
                                    tier_aware=True), 5),
        "graph.topo_order_ms": 1e3 * median_time(
            lambda: kahn_topological_order(large), 9),
        "workloads.generate_ms": 1e3 * median_time(
            lambda: generate_workload(
                GeneratedWorkloadConfig(n_nodes=n_large), seed=seed), 5),
        "workloads.build_five_ms": 1e3 * median_time(
            lambda: build_five_workloads(scale_gb=20.0), 5),
    }


def exec_hooks(seed: int, quick: bool) -> dict:
    """The serial simulator's hooks one by one, and the plain ledger."""
    n = 200 if quick else 800
    graph = inputs.generated_dag(n, 1, seed)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="greedy+madfs", seed=0).plan
    peak = Controller().refresh(graph, budget,
                                plan=plan).peak_catalog_usage
    options = SimulatorOptions(spill=SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
        codec="zlib", prefetch=True))
    out: dict = {}
    for cell, ram in (("fit", peak), ("spill", 0.25 * peak)):
        prepare, nodes, finish = [], [], []
        for _ in range(3):
            backend = create_backend("simulator", options=options)
            seconds, ctx = timed(backend.prepare, graph, plan, ram)
            prepare.append(seconds)
            nodes.append(timed(lambda: [backend.execute_node(ctx, v)
                                        for v in plan.order])[0])
            finish.append(timed(backend.finish, ctx)[0])
        out[f"exec.simulator_node_us_{cell}"] = 1e6 * median(nodes) / n
        if cell == "spill":
            out["exec.simulator_prepare_ms"] = 1e3 * median(prepare)
            out["exec.simulator_finish_ms"] = 1e3 * median(finish)

    k = 2000 if quick else 10_000
    ids = [f"e{i}" for i in range(k)]

    def fill(ledger):
        for node_id in ids:
            ledger.insert(node_id, 1.0, 1, materialization_pending=False)

    def drain(ledger):
        for node_id in ids:
            ledger.consumer_done(node_id)

    def reserve_commit(ledger):
        for node_id in ids:
            ledger.reserve(node_id, 1.0)
            ledger.commit_reservation(node_id, 1, False)

    inserts, dones, reserves = [], [], []
    for _ in range(3):
        ledger = MemoryLedger(budget=2.0 * k)
        inserts.append(timed(fill, ledger)[0])
        dones.append(timed(drain, ledger)[0])
        reserves.append(timed(reserve_commit, ledger)[0])
    out["exec.ledger_insert_ops_per_s"] = k / median(inserts)
    out["exec.ledger_consumer_done_ops_per_s"] = k / median(dones)
    out["exec.ledger_reserve_commit_ops_per_s"] = k / median(reserves)
    return out


def store(seed: int, quick: bool) -> dict:
    """A ``TieredLedger`` built from a ``SpillConfig``, driven directly."""
    k = 1000 if quick else 4000
    ids = [f"e{i}" for i in range(k)]
    inserts, dones, spills = [], [], []
    for _ in range(3):
        ledger = _tiered(2.0 * k)
        inserts.append(timed(lambda: [
            ledger.insert(v, 1.0, 1, materialization_pending=False)
            for v in ids])[0])
        dones.append(timed(lambda: [ledger.consumer_done(v)
                                    for v in ids])[0])
        # RAM holds 64 entries, so every further insert demotes a victim
        small = _tiered(64.0)
        spills.append(timed(lambda: [
            small.spill_insert(v, 1.0, 1, materialization_pending=False)
            for v in ids[:512]])[0])
    out = {
        "store.insert_ops_per_s": k / median(inserts),
        "store.consumer_done_ops_per_s": k / median(dones),
        "store.spill_insert_ops_per_s": 512 / median(spills),
    }

    for residents in (100, 1000) if quick else (100, 1000, 10_000):
        ledger = _full_ledger(residents)
        demotes = 10
        seconds = timed(lambda: [ledger.demote_victim()
                                 for _ in range(demotes)])[0]
        out[f"store.demote_victim_r{residents}_ops_per_s"] = \
            demotes / seconds
    ledger = _full_ledger(1000, owners=("alpha", "beta"))
    seconds = timed(lambda: [ledger.demote_victim(owner="alpha")
                             for _ in range(10)])[0]
    out["store.demote_victim_owner_r1000_ops_per_s"] = 10 / seconds

    ledger = _full_ledger(1000)
    out["store.estimate_spill_seconds_us"] = 1e6 * median_time(
        lambda: ledger.estimate_spill_seconds(8.0), 15)
    spilled = [ledger.demote_victim()[0] for _ in range(200)]
    out["store.tier_read_seconds_us"] = 1e6 * timed(
        lambda: [ledger.tier_read_seconds(v) for v in spilled])[0] / 200
    out["store.tier_report_ms"] = 1e3 * median_time(ledger.tier_report, 9)
    out["store.promote_us"] = 1e6 * timed(
        lambda: [ledger.promote(v) for v in spilled[:100]])[0] / 100
    out["store.prefetch_us"] = 1e6 * timed(
        lambda: ledger.prefetch(spilled[100:]))[0] / 100
    return out


def db(seed: int, quick: bool) -> dict:
    """MiniDB operators on the star's base tables, the SQL parser, the
    storage format and the two real codecs."""
    tables = generate_tpcds_tables(0.002 if quick else 0.005, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="probe_", dir=OUT_DIR)
    try:
        minidb = MiniDB(os.path.join(tmp, "db"))
        for name in ("store_sales", "item"):
            minidb.register_table(name, tables[name], persist=False)
        sales = tables["store_sales"]
        rows, size_mb = len(sales), sales.nbytes / MB
        queries = {
            "filter": "SELECT ss_item_sk, ss_sales_price FROM store_sales "
                      "WHERE ss_quantity > 40",
            "join": "SELECT ss_item_sk, ss_sales_price, i_brand_id "
                    "FROM store_sales JOIN item ON ss_item_sk = i_item_sk",
            "groupby": "SELECT ss_customer_sk, SUM(ss_sales_price) AS spend "
                       "FROM store_sales GROUP BY ss_customer_sk",
            "sort_limit": "SELECT ss_customer_sk, ss_sales_price "
                          "FROM store_sales ORDER BY ss_sales_price DESC "
                          "LIMIT 100",
        }
        out = {f"db.query_{name}_rows_per_s":
               rows / median_time(lambda: minidb.query(sql), 5)
               for name, sql in queries.items()}
        out["db.sql_parse_us"] = 1e6 * median_time(
            lambda: [parse_select(sql) for sql in queries.values()],
            9) / len(queries)
        out["db.write_table_mb_per_s"] = size_mb / median_time(
            lambda: storage_format.write_table(sales, tmp, "probe"), 3)
        out["db.read_table_mb_per_s"] = size_mb / median_time(
            lambda: storage_format.read_table(tmp, "probe"), 3)
        for codec in ("zlib1", "columnar"):
            blob = columnar_codec.encode_table(sales, codec)
            out[f"db.encode_{codec}_mb_per_s"] = size_mb / median_time(
                lambda: columnar_codec.encode_table(sales, codec), 3)
            out[f"db.decode_{codec}_mb_per_s"] = size_mb / median_time(
                lambda: columnar_codec.decode_table(blob), 3)
            out[f"db.codec_{codec}_ratio"] = sales.nbytes / len(blob)
        out["workloads.tpcds_tables_ms"] = 1e3 * median_time(
            lambda: generate_tpcds_tables(0.002, seed), 3)
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def serve_feedback_obs(seed: int, quick: bool) -> dict:
    graph = build_workload("io1", scale_gb=20.0)
    budget = 0.25 * graph.total_size()
    plan = Controller().plan(graph, budget, method="sc", seed=0)
    service = RefreshService(
        ServiceConfig(ram_budget_gb=budget, queue_limit=512,
                      max_concurrent=2, time_scale=1e-9),
        [TenantSpec("alpha", 1.0)])

    async def submit_many(n: int = 200):
        async with service:
            seconds, handles = 0.0, []
            for _ in range(n):
                dt, handle = await _timed_await(
                    service.submit(graph, plan, tenant="alpha"))
                seconds += dt
                handles.append(handle)
            for handle in handles:
                await handle
            return seconds / n

    out = {"serve.submit_us": 1e6 * asyncio.run(submit_many())}
    out["serve.audit_ms"] = 1e3 * median_time(service.audit, 9)

    n = 200 if quick else 800
    dag = inputs.generated_dag(n, 1, seed)
    dag_budget = 0.3 * dag.total_size()
    dag_plan = optimize(ScProblem(graph=dag, memory_budget=dag_budget),
                        method="greedy+madfs", seed=0).plan
    spill = SpillConfig(tiers=(TierSpec("ssd", dag_budget),
                               TierSpec("disk")),
                        codec="zlib", prefetch=True)
    ram = 0.1 * dag_budget

    def refresh(bus=None):
        return Controller(spill=spill, bus=bus).refresh(
            dag, ram, plan=dag_plan, method="sc")

    trace = refresh()
    out["feedback.from_trace_ms"] = 1e3 * median_time(
        lambda: CostFeedback.from_trace(trace), 9)
    out["feedback.replan_ms"] = 1e3 * median_time(
        lambda: Controller(spill=spill).replan_from_trace(
            dag, trace, method="greedy+madfs"), 3)
    off = median_time(refresh, 7)
    bus = EventBus()
    on = median_time(lambda: refresh(bus), 7)
    out["obs.bus_on_overhead_pct"] = 100.0 * (on / off - 1.0)
    out["obs.export_perfetto_ms"] = 1e3 * median_time(
        lambda: chrome_trace(bus.events), 3)
    return out


async def _timed_await(awaitable):
    started = time.perf_counter()
    result = await awaitable
    return time.perf_counter() - started, result


def run_all(seed: int, quick: bool) -> dict:
    out = {"host.spin_s": min(spin_seconds() for _ in range(3)),
           "host.nproc": os.cpu_count() or 1}
    for probe in (solver_core, exec_hooks, store, db, serve_feedback_obs):
        out.update(probe(seed, quick))
    return out
