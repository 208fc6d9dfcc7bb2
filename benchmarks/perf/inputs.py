"""Seeded inputs: every DAG, table and arrival order the workloads run
is made here, in the benchmark process, from ``--seed``.

Why the DAG workloads jitter a fixed corpus instead of drawing a fresh
structure per seed: the planner's branch-and-bound either certifies an
instance early or runs into its 60,000-node limit, and the parallel
scheduler's spill cascade depends on which admissions collide, so a
fresh structure moves `optimize` between 0.01 s and 1.4 s at the same
size and parallel/4 between 970 and 6,500 nodes/s.  That is instance
luck, not the program.  The corpus below pins the structures; the seed
scales every node's size, score and compute time by 1 ± 1e-6, which
changes every input value yet leaves the planner's and the ledger's
decisions — and so the work measured — the same.  MiniDB tables and
service arrival orders are drawn from the seed outright.
"""

from __future__ import annotations

import random

from repro.db.engine import MvDefinition
from repro.graph import DependencyGraph
from repro.workloads import GeneratedWorkloadConfig, generate_workload

from harness import digest

JITTER = 1e-6

#: (nodes, generator seed) of the planner corpus: two instances that
#: run into the branch-and-bound node limit and one (400 nodes) that
#: certifies early, so constraint building and MA-DFS weigh in too.
PLAN_CORPUS = ((100, 0), (200, 1), (400, 5))
PLAN_CORPUS_QUICK = ((40, 2), (60, 0), (100, 1))

#: the execution DAG: at a quarter of its no-spill peak it spills 115
#: times serially and 396 times (142 promotes) on four workers
SIM_DAG = (1600, 1)
SIM_DAG_QUICK = (300, 1)


def generated_dag(n_nodes: int, generator_seed: int,
                  seed: int) -> DependencyGraph:
    """Corpus DAG ``(n_nodes, generator_seed)`` jittered by ``seed``."""
    graph = generate_workload(GeneratedWorkloadConfig(n_nodes=n_nodes),
                              seed=generator_seed)
    rng = random.Random(seed)
    for node in graph.node_objects():
        factor = 1.0 + JITTER * rng.uniform(-1.0, 1.0)
        node.size *= factor
        node.score *= factor
        if node.compute_time is not None:
            node.compute_time *= factor
    return graph


def graph_digest(graph: DependencyGraph) -> str:
    return digest([graph.edges(), graph.sizes(), graph.scores()])


def plan_digest(plan) -> str:
    return digest([list(plan.order), sorted(plan.flagged)])


# ----------------------------------------------------------------------
# the MiniDB star: 25 MVs over the TPC-DS-shaped tables
# ----------------------------------------------------------------------
_CHANNELS = (("store", "store_sales", "ss"),
             ("catalog", "catalog_sales", "cs"),
             ("web", "web_sales", "ws"))


def star_definitions() -> list[MvDefinition]:
    """Per channel: join-enrich -> 2 filters -> 3 group-bys -> top-N;
    plus 4 cross-channel joins whose late consumers keep the mid-size
    per-customer roll-ups and two filter outputs resident."""
    mvs: list[tuple[str, str]] = []
    for ch, fact, p in _CHANNELS:
        mvs += [
            (f"{ch}_enrich",
             f"SELECT {p}_item_sk, {p}_customer_sk, {p}_sold_date_sk, "
             f"{p}_quantity, {p}_sales_price, {p}_net_profit, "
             f"i_category_id AS {p}_cat, i_brand_id AS {p}_brand "
             f"FROM {fact} JOIN item ON {p}_item_sk = i_item_sk"),
            (f"{ch}_bulk",
             f"SELECT {p}_item_sk, {p}_customer_sk, {p}_quantity, "
             f"{p}_sales_price, {p}_cat FROM {ch}_enrich "
             f"WHERE {p}_quantity > 40"),
            (f"{ch}_profit",
             f"SELECT {p}_item_sk, {p}_customer_sk, {p}_net_profit, "
             f"{p}_brand FROM {ch}_enrich WHERE {p}_net_profit > 0"),
            (f"{ch}_by_cat",
             f"SELECT {p}_cat, SUM({p}_sales_price * {p}_quantity) "
             f"AS {p}_cat_rev, COUNT(*) AS {p}_cat_n "
             f"FROM {ch}_bulk GROUP BY {p}_cat"),
            (f"{ch}_by_brand",
             f"SELECT {p}_brand, SUM({p}_net_profit) AS {p}_brand_profit "
             f"FROM {ch}_profit GROUP BY {p}_brand"),
            (f"{ch}_by_cust",
             f"SELECT {p}_customer_sk, SUM({p}_sales_price) AS {p}_spend, "
             f"COUNT(*) AS {p}_orders FROM {ch}_enrich "
             f"GROUP BY {p}_customer_sk"),
            (f"{ch}_top",
             f"SELECT {p}_customer_sk, {p}_spend FROM {ch}_by_cust "
             f"ORDER BY {p}_spend DESC LIMIT 100"),
        ]
    mvs += [
        ("x_store_catalog",
         "SELECT ss_customer_sk, ss_spend, cs_spend FROM store_by_cust "
         "JOIN catalog_by_cust ON ss_customer_sk = cs_customer_sk"),
        ("x_store_web",
         "SELECT ss_customer_sk, ss_spend, ws_spend FROM store_by_cust "
         "JOIN web_by_cust ON ss_customer_sk = ws_customer_sk"),
        ("x_bulk_profit",
         "SELECT ss_item_sk, ss_quantity, cs_net_profit FROM store_bulk "
         "JOIN catalog_profit ON ss_item_sk = cs_item_sk "
         "WHERE ss_quantity > 98 AND cs_net_profit > 100"),
        ("x_all",
         "SELECT ss_customer_sk, ss_spend, cs_spend, ws_spend "
         "FROM x_store_catalog JOIN web_by_cust "
         "ON ss_customer_sk = ws_customer_sk"),
    ]
    return [MvDefinition(name, sql) for name, sql in mvs]


# ----------------------------------------------------------------------
# service arrival order
# ----------------------------------------------------------------------
def request_order(kinds, n_requests: int, seed: int) -> list[str]:
    """A balanced, seeded shuffle of request kinds for one client, so
    every seed serves the same mix in another order."""
    order = [kinds[i % len(kinds)] for i in range(n_requests)]
    random.Random(seed).shuffle(order)
    return order
