"""The paper's five MV refresh workloads (Table III).

Each workload is an SPJ decomposition of a TPC-DS query family, merged into
one dependency graph per topic exactly as §VI-A describes ("one node/MV for
each select-project-join unit ... merge graphs of TPC-DS queries that share
similar intermediate nodes and topics"). Node counts and baseline I/O
ratios match Table III:

==========  =====================  =======  =========
workload    TPC-DS queries         # nodes  I/O ratio
==========  =====================  =======  =========
I/O 1       5, 77, 80                   21     51.5 %
I/O 2       2, 59, 74, 75               19     59.0 %
I/O 3       44, 49                      26     46.6 %
Compute 1   33, 56, 60, 61              21      0.9 %
Compute 2   14, 23                      16     28.3 %
==========  =====================  =======  =========

Because the queries in one workload are *merged*, intermediate MVs are
shared: a channel's filtered-sales MV feeds several downstream units from
different queries. This sharing is what gives flagged nodes multiple
consumers and is faithful to how the paper constructs the graphs.

Intermediate sizes derive deterministically from the TPC-DS table census
scaled to the requested dataset size. The **TPC-DSp** variant models the
date-partitioned datasets with two factors:

* :data:`PARTITION_SCAN_FACTOR` — fraction of a fact table's bytes a scan
  actually reads after partition elimination (whole year-partitions are
  skipped);
* :data:`PARTITION_ROW_FACTOR` — fraction of fact rows the MV definitions
  retain. It is larger than the scan factor because several query units
  compare across years (Q2/Q59/Q74 this-year-vs-last-year analyses), so
  the logical working set spans more partitions than a single report
  year.

Compute times are calibrated so the *Polars-profiled* I/O share matches
Table III exactly at the reference 100 GB scale
(:mod:`repro.workloads.calibrate`), then scaled superlinearly with dataset
size (sorts and hash joins degrade once operator state outgrows memory),
which is why the paper's TPC-DSp speedups decline at the 1 TB scale while
small scales optimize almost entirely away. Speedup scores follow the §IV
formula.
"""

from __future__ import annotations

import math

from repro.core.speedup import compute_speedup_scores
from repro.errors import ValidationError, WorkloadError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile, POLARS_PROFILE
from repro.workloads.calibrate import calibrate_compute_times
from repro.workloads.sizes import FACT_TABLES, scaled_table_sizes

#: Workload name -> (TPC-DS queries, expected node count, I/O time share).
WORKLOAD_SUMMARY: dict[str, tuple[tuple[int, ...], int, float]] = {
    "io1": ((5, 77, 80), 21, 0.515),
    "io2": ((2, 59, 74, 75), 19, 0.590),
    "io3": ((44, 49), 26, 0.466),
    "compute1": ((33, 56, 60, 61), 21, 0.009),
    "compute2": ((14, 23), 16, 0.283),
}

WORKLOAD_NAMES: tuple[str, ...] = tuple(WORKLOAD_SUMMARY)

#: Fraction of a fact table's bytes read after partition elimination on the
#: date-partitioned datasets (only whole-year partitions that match the
#: report predicates are scanned; TPC-DS spans ~8 years and the report
#: queries mostly target a single year plus a month window).
PARTITION_SCAN_FACTOR = 0.12

#: Fraction of fact rows the MV definitions retain on the partitioned
#: datasets; larger than the scan factor because cross-year comparison
#: units keep several years in their working set.
PARTITION_ROW_FACTOR = 0.35

#: Columnar projection: an SPJ unit reads only the columns it needs, so a
#: base-table scan touches this fraction of the table's bytes (ORC/Parquet
#: column pruning; TPC-DS queries use a handful of a fact table's ~23
#: columns).
COLUMN_PRUNING_FACTOR = 0.20

#: Aggregate outputs grow sublinearly with dataset scale (group-by
#: cardinality saturates: there are only so many item×store×week cells).
#: An AGG node's size scales as ``input ** AGG_GROWTH_EXPONENT`` relative
#: to the 100 GB reference, so aggregates are relatively larger on small
#: datasets and relatively smaller at 1 TB.
AGG_GROWTH_EXPONENT = 0.80

#: Multiplier on Polars-calibrated compute times, exposed for sensitivity
#: analysis of the warehouse's compute-vs-I/O balance. 1.0 keeps the
#: workload's engine-level I/O share high (Presto-over-NFS pays far more
#: per byte of I/O than the Polars profiling runs did), which is the regime
#: where the paper's speedups arise.
WAREHOUSE_COMPUTE_FACTOR = 1.0

#: Compute grows slightly superlinearly with dataset scale: per-byte
#: operator cost is multiplied by ``(scale / 100GB) ** EXPONENT``. Joins and
#: sorts spill once operator state outgrows the workers' query memory, so a
#: 1 TB run pays more compute per byte than a 10 GB run.
COMPUTE_SCALE_EXPONENT = 0.12

#: Reference scale (GB) at which Table III's I/O ratios were profiled.
REFERENCE_SCALE_GB = 100.0


class _Builder:
    """Accumulates node specs; sizes derive from parents + base tables."""

    def __init__(self, table_sizes: dict[str, float],
                 partitioned: bool, scale_gb: float):
        self.graph = DependencyGraph()
        self.table_sizes = table_sizes
        self.partitioned = partitioned
        self.column_factor = COLUMN_PRUNING_FACTOR
        # Group-by cardinality saturation: AGG outputs shrink relative to
        # their inputs as the dataset grows.
        self.agg_damping = ((scale_gb / REFERENCE_SCALE_GB)
                            ** (AGG_GROWTH_EXPONENT - 1.0))

    def add(self, name: str, op: str, parents: list[str] | None = None,
            base: list[str] | None = None, out: float = 1.0) -> str:
        """Add one SPJ unit.

        ``out`` is the output size as a fraction of total input bytes
        (parents + column-pruned base tables). On partitioned datasets a
        fact-table base input contributes :data:`PARTITION_SCAN_FACTOR` of
        its bytes to the scan cost but :data:`PARTITION_ROW_FACTOR` of them to
        the output-size derivation (cross-year units retain rows from more
        partitions than one report scan touches).
        """
        parents = parents or []
        base = base or []
        scan_gb = 0.0
        row_gb = 0.0
        for table in base:
            if table not in self.table_sizes:
                raise WorkloadError(f"unknown base table {table!r}")
            size = self.table_sizes[table] * self.column_factor
            if self.partitioned and table in FACT_TABLES:
                scan_gb += size * PARTITION_SCAN_FACTOR
                row_gb += size * PARTITION_ROW_FACTOR
            else:
                scan_gb += size
                row_gb += size
        parent_gb = sum(self.graph.size_of(p) for p in parents)
        if op == "AGG":
            out = out * self.agg_damping
        node = self.graph.add_node(
            name, size=max(1e-5, out * (parent_gb + row_gb)), op=op,
            meta={"base_input_gb": scan_gb})
        for parent in parents:
            self.graph.add_edge(parent, name)
        return node.node_id


def _build_io1(b: _Builder) -> None:
    """Profit reports across the three channels (Q5, Q77, Q80).

    The three queries share each channel's filtered sales and joined
    profit detail, so those MVs have several consumers — all within the
    same channel, so a well-chosen execution order can release them
    quickly (the situation Figure 7 rewards).
    """
    b.add("date_sel", "SCAN", base=["date_dim"], out=0.3)
    channels = [("ss", "store_sales", "store_returns"),
                ("cs", "catalog_sales", "catalog_returns"),
                ("ws", "web_sales", "web_returns")]
    for tag, fact, returns in channels:
        b.add(f"{tag}_sales", "FILTER", parents=["date_sel"], base=[fact],
              out=0.15)
        b.add(f"{tag}_returns", "FILTER", parents=["date_sel"],
              base=[returns], out=0.90)
        b.add(f"{tag}_profit", "JOIN",
              parents=[f"{tag}_sales", f"{tag}_returns"], out=0.70)
        b.add(f"{tag}_agg", "AGG", parents=[f"{tag}_profit"], out=0.06)
        # Q80's per-channel promotion detail re-reads the filtered sales
        # and the profit MV (final report for its channel).
        b.add(f"{tag}_q80_report", "JOIN",
              parents=[f"{tag}_sales", f"{tag}_profit"], out=0.45)
    b.add("channel_union", "UNION",
          parents=["ss_agg", "cs_agg", "ws_agg"], out=1.0)
    b.add("q5_rollup", "AGG", parents=["channel_union"], out=0.40)
    b.add("q5_report", "SORT", parents=["q5_rollup"], out=1.0)
    b.add("q77_totals", "AGG", parents=["channel_union"], out=0.40)
    b.add("q77_report", "SORT", parents=["q77_totals"], out=1.0)


def _build_io2(b: _Builder) -> None:
    """Weekly/yearly sales comparisons (Q2, Q59, Q74, Q75).

    All four queries consume the per-channel weekly aggregates; Q74/Q75
    additionally re-read the filtered channel bases for year-over-year item
    comparisons, giving the big filtered MVs three consumers each.
    """
    b.add("date_wk", "SCAN", base=["date_dim"], out=0.5)
    for tag, fact in (("ss", "store_sales"), ("cs", "catalog_sales"),
                      ("ws", "web_sales")):
        b.add(f"{tag}_base", "FILTER", parents=["date_wk"], base=[fact],
              out=0.16)
        b.add(f"{tag}_wk", "AGG", parents=[f"{tag}_base"], out=0.28)
    b.add("wk_union", "UNION", parents=["ss_wk", "cs_wk", "ws_wk"],
          out=1.0)
    b.add("q2_ratio", "PROJECT", parents=["wk_union"], out=0.9)
    b.add("q2_report", "SORT", parents=["q2_ratio"], out=1.0)
    b.add("q59_join", "JOIN", parents=["ss_wk", "wk_union"], out=0.8)
    b.add("q59_report", "SORT", parents=["q59_join"], out=0.6)
    # Q75: current-vs-prior-year item detail across all three channels.
    b.add("q75_detail", "JOIN",
          parents=["ss_base", "cs_base", "ws_base"], out=0.55)
    b.add("q75_report", "AGG", parents=["q75_detail"], out=0.05)
    # Q74: year-over-year customer totals from store + web bases.
    b.add("year_totals", "AGG", parents=["ss_base", "ws_base"], out=0.35)
    b.add("q74_y1", "FILTER", parents=["year_totals"], out=0.5)
    b.add("q74_y2", "FILTER", parents=["year_totals"], out=0.5)
    b.add("q74_join", "JOIN", parents=["q74_y1", "q74_y2"], out=0.6)
    b.add("q74_report", "SORT", parents=["q74_join"], out=1.0)


def _build_io3(b: _Builder) -> None:
    """Best/worst performers and return ratios (Q44, Q49).

    Both queries rank items by return ratios, so each channel's
    sales-returns join and its ratio projection feed multiple ranking MVs.
    """
    channels = [("ss", "store_sales", "store_returns"),
                ("cs", "catalog_sales", "catalog_returns"),
                ("ws", "web_sales", "web_returns")]
    for tag, fact, returns in channels:
        b.add(f"{tag}_sales_scan", "SCAN", base=[fact], out=0.14)
        b.add(f"{tag}_ret_scan", "SCAN", base=[returns], out=0.75)
        b.add(f"{tag}_joined", "JOIN",
              parents=[f"{tag}_sales_scan", f"{tag}_ret_scan"], out=0.70)
        b.add(f"{tag}_ratio", "PROJECT", parents=[f"{tag}_joined"],
              out=0.80)
        b.add(f"{tag}_rank_best", "AGG", parents=[f"{tag}_ratio"],
              out=0.06)
        b.add(f"{tag}_rank_worst", "AGG", parents=[f"{tag}_ratio"],
              out=0.06)
    b.add("q49_union", "UNION",
          parents=["ss_rank_best", "cs_rank_best", "ws_rank_best",
                   "ss_rank_worst", "cs_rank_worst", "ws_rank_worst"],
          out=1.0)
    b.add("q49_report", "SORT", parents=["q49_union"], out=1.0)
    b.add("q44_avg", "AGG", parents=["ss_joined"], out=0.02)
    b.add("q44_best", "JOIN", parents=["ss_rank_best", "q44_avg",
                                       "ss_ratio"], out=0.10)
    b.add("q44_worst", "JOIN", parents=["ss_rank_worst", "q44_avg",
                                        "ss_ratio"], out=0.10)
    b.add("q44_report", "JOIN", parents=["q44_best", "q44_worst"],
          out=0.7)
    b.add("item_dim", "SCAN", base=["item"], out=0.9)
    b.add("q44_named", "JOIN", parents=["q44_report", "item_dim"],
          out=0.8)


def _build_compute1(b: _Builder) -> None:
    """Manufacturer/category reports with tiny outputs (Q33/56/60/61).

    The item-category predicates are highly selective and push down into
    the scans, so every intermediate is small and nearly all time is spent
    in joins/aggregation — Table III reports a 0.9 % I/O share.
    """
    b.column_factor = 0.15  # narrow projections: the scans touch few cols
    for tag, fact in (("ss", "store_sales"), ("cs", "catalog_sales"),
                      ("ws", "web_sales")):
        b.add(f"{tag}_scan", "FILTER", base=[fact], out=0.02)
        b.add(f"{tag}_item", "JOIN", parents=[f"{tag}_scan"],
              base=["item"], out=0.80)
        b.add(f"{tag}_agg1", "AGG", parents=[f"{tag}_item"], out=0.02)
        b.add(f"{tag}_agg2", "AGG", parents=[f"{tag}_agg1"], out=0.50)
    b.add("addr_scan", "SCAN", base=["customer_address"], out=0.5)
    for tag in ("ss", "cs", "ws"):
        b.add(f"{tag}_by_addr", "JOIN",
              parents=[f"{tag}_item", "addr_scan"], out=0.30)
    b.add("union_all", "UNION",
          parents=["ss_agg2", "cs_agg2", "ws_agg2"], out=1.0)
    b.add("q33_report", "AGG", parents=["union_all"], out=0.3)
    b.add("q56_report", "AGG", parents=["union_all"], out=0.3)
    b.add("q60_report", "AGG", parents=["union_all"], out=0.3)
    b.add("q61_promo", "AGG", parents=["ss_by_addr"], out=0.05)


def _build_compute2(b: _Builder) -> None:
    """Cross-channel frequent-item analyses (Q14, Q23).

    Q14 re-reads each channel's filtered base against the frequent-item
    set, so the channel scans are shared by the cross-channel joins and the
    per-channel Q14 branches.
    """
    b.column_factor = 0.20
    b.add("date_scan", "SCAN", base=["date_dim"], out=0.5)
    for tag, fact in (("ss", "store_sales"), ("cs", "catalog_sales"),
                      ("ws", "web_sales")):
        b.add(f"{tag}_scan", "FILTER", parents=["date_scan"], base=[fact],
              out=0.11)
    b.add("cross_items", "JOIN", parents=["ss_scan", "cs_scan"], out=0.5)
    b.add("cross_items2", "JOIN", parents=["cross_items", "ws_scan"],
          out=0.6)
    b.add("freq", "AGG", parents=["cross_items2"], out=0.05)
    b.add("best_cust", "AGG", parents=["ss_scan"], out=0.10)
    b.add("q23_join", "JOIN", parents=["freq", "best_cust"], out=0.5)
    b.add("q23_report", "AGG", parents=["q23_join"], out=0.3)
    b.add("q14_ss", "JOIN", parents=["ss_scan", "freq"], out=0.35)
    b.add("q14_cs", "JOIN", parents=["cs_scan", "freq"], out=0.35)
    b.add("q14_ws", "JOIN", parents=["ws_scan", "freq"], out=0.35)
    b.add("q14_union", "UNION", parents=["q14_ss", "q14_cs", "q14_ws"],
          out=1.0)
    b.add("q14_agg", "AGG", parents=["q14_union"], out=0.05)
    b.add("q14_report", "SORT", parents=["q14_agg"], out=1.0)


_BUILDERS = {
    "io1": _build_io1,
    "io2": _build_io2,
    "io3": _build_io3,
    "compute1": _build_compute1,
    "compute2": _build_compute2,
}


def build_workload(name: str, scale_gb: float = 100.0,
                   partitioned: bool = False,
                   cost_model: DeviceProfile | None = None,
                   ) -> DependencyGraph:
    """Build one of the five workloads at the given dataset scale.

    ``partitioned=True`` yields the TPC-DSp variant (scans pruned to
    :data:`PARTITION_SCAN_FACTOR`, rows retained at
    :data:`PARTITION_ROW_FACTOR`). The returned graph is fully annotated:
    sizes, ``base_input_gb``, calibrated compute times, and speedup
    scores.
    """
    if name not in _BUILDERS:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    if not (math.isfinite(scale_gb) and scale_gb > 0):
        raise ValidationError(
            f"scale_gb must be a positive finite size, got {scale_gb!r}")
    cost_model = cost_model or DeviceProfile()
    builder = _Builder(table_sizes=scaled_table_sizes(scale_gb),
                       partitioned=partitioned, scale_gb=scale_gb)
    _BUILDERS[name](builder)
    graph = builder.graph
    graph.validate()

    _, expected_nodes, io_share = WORKLOAD_SUMMARY[name]
    if graph.n != expected_nodes:
        raise WorkloadError(
            f"workload {name!r} built {graph.n} nodes, expected "
            f"{expected_nodes} (Table III)")
    # Table III's I/O ratios were profiled "with Python Polars" — a fast
    # local engine. Calibrating compute against the Polars profile and then
    # running on the warehouse profile reproduces the paper's setup, where
    # the warehouse's slower per-byte I/O makes runs far more I/O-bound
    # than the Polars-estimated ratio suggests.
    calibrate_compute_times(graph, POLARS_PROFILE, io_share)
    scale_penalty = (scale_gb / REFERENCE_SCALE_GB) ** COMPUTE_SCALE_EXPONENT
    for node_id in graph.nodes():
        node = graph.node(node_id)
        node.compute_time = ((node.compute_time or 0.0)
                             * WAREHOUSE_COMPUTE_FACTOR * scale_penalty)
    compute_speedup_scores(graph, cost_model)
    return graph


def build_five_workloads(scale_gb: float = 100.0,
                         partitioned: bool = False,
                         cost_model: DeviceProfile | None = None,
                         ) -> dict[str, DependencyGraph]:
    """All five Table III workloads keyed by name."""
    return {
        name: build_workload(name, scale_gb=scale_gb,
                             partitioned=partitioned,
                             cost_model=cost_model)
        for name in WORKLOAD_NAMES
    }
