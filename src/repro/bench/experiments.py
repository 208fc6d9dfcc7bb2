"""Experiment drivers — one per table/figure of the paper's evaluation,
plus the repo's own sweeps of the tiered store.

Every driver returns an :class:`ExperimentResult` whose ``rows`` regenerate
the corresponding artifact.  Called with no arguments a driver runs at the
size ``repro-sc bench <id>`` prints and ``benchmarks/bench_experiments.py``
checks its claims on.  Every other setting is fixed in the driver's body.
The only parameters left are size knobs that the tier-1 smoke tests pass
to keep a driver small: ``scales_gb`` (fig3, fig10), ``scale_gb`` (fig9,
fig11, table4, fig12, table5), ``fractions`` (fig11, table4),
``worker_counts`` (table5), ``dag_sizes`` and ``n_dags`` (fig13), and
``n_dags`` (fig14).  The
five tiered sweeps keep only their arms and row shaping: the case (DAG,
plan, no-spill peak) and the planned-and-executed cell are
:mod:`repro.bench.below_peak`'s, shared with ``bench matrix``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.bench.below_peak import (
    Case,
    generated_cases,
    run_cell,
    ssd_and_disk,
)
from repro.bench.methods import (
    FIGURE9_METHODS,
    FIGURE12_METHODS,
    run_method,
)
from repro.bench.report import format_table
from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.cluster import simulate_cluster_run
from repro.exec.base import SimulatorOptions
from repro.metadata.costmodel import (
    ClusterProfile,
    DeviceProfile,
    POLARS_PROFILE,
)
from repro.store.config import (
    RAM_COMPRESSED,
    CodecAdaptConfig,
    SpillConfig,
    TierSpec,
    resolve_codec,
)
from repro.workloads.calibrate import measured_io_share
from repro.workloads.five_workloads import (
    WORKLOAD_NAMES,
    WORKLOAD_SUMMARY,
    build_five_workloads,
    build_workload,
)
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)


@dataclass
class ExperimentResult:
    """Rendered rows plus free-form raw data for programmatic checks."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        return format_table(self.headers, self.rows,
                            title=f"[{self.experiment_id}] {self.title}")


# ----------------------------------------------------------------------
# Figure 2 — runtime breakdown by query type across ten warehouses
# ----------------------------------------------------------------------
def fig2_query_type_breakdown() -> ExperimentResult:
    """Synthetic reproduction of the warehouse-fleet characterization.

    The original data comes from a proprietary fleet analysis [35]; we
    regenerate workloads whose *transformation* (data materialization)
    share spans the reported 2-38 % range, with analytics dominating the
    rest — the motivating shape: materialization is a significant,
    sometimes dominant, cost.
    """
    rng = random.Random(7)
    rows = []
    shares = {}
    for idx in range(1, 11):
        transformation = rng.uniform(0.02, 0.38)
        if idx == 6:  # the paper highlights W6: 2.2x analytics time
            analytics = transformation / 2.2
        else:
            analytics = rng.uniform(0.25, 0.7) * (1 - transformation)
        insert = rng.uniform(0.05, 0.25) * (1 - transformation - analytics)
        other = max(0.0, 1.0 - transformation - analytics - insert)
        shares[f"W{idx}"] = transformation
        rows.append([f"W{idx}", 100 * transformation, 100 * analytics,
                     100 * insert, 100 * other])
    return ExperimentResult(
        experiment_id="fig2",
        title="Runtime share by query type (10 synthetic warehouses, %)",
        headers=["workload", "transformation", "analytics", "insert",
                 "others"],
        rows=rows,
        data={"transformation_shares": shares},
    )


# ----------------------------------------------------------------------
# Figure 3 — read/compute/write breakdown of a 4-table join CTAS
# ----------------------------------------------------------------------
def fig3_io_breakdown(scales_gb: tuple[float, ...] = (0.01, 0.02, 0.05),
                      ) -> ExperimentResult:
    """Real MiniDB timing of the TPC-H Q8 join at increasing scales."""
    import shutil
    import tempfile

    from repro.db.engine import MiniDB
    from repro.workloads.tpch import TPCH_Q8_JOIN_SQL, load_tpch

    rows = []
    raw = {}
    for scale in scales_gb:
        tmp = tempfile.mkdtemp(prefix="repro_fig3_")
        try:
            db = MiniDB(tmp)
            load_tpch(db, scale_gb=scale)
            timing = db.ctas("q8_result", TPCH_Q8_JOIN_SQL)
            total = timing.total_seconds
            rows.append([
                f"{scale:g} GB ({total:.2f}s)",
                100 * timing.read_seconds / total,
                100 * timing.compute_seconds / total,
                100 * timing.write_seconds / total,
            ])
            raw[scale] = timing
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return ExperimentResult(
        experiment_id="fig3",
        title="Q8 4-table join CTAS: runtime share by operation (%)",
        headers=["scale (total time)", "read", "compute", "write"],
        rows=rows,
        data={"timings": raw},
    )


# ----------------------------------------------------------------------
# Table III — workload summary
# ----------------------------------------------------------------------
def table3_workload_summary() -> ExperimentResult:
    """The five workloads: node counts and I/O ratios."""
    rows = []
    for name in WORKLOAD_NAMES:
        queries, n_nodes, io_share = WORKLOAD_SUMMARY[name]
        graph = build_workload(name, scale_gb=100.0)
        measured = measured_io_share(graph, POLARS_PROFILE)
        rows.append([
            name,
            ", ".join(str(q) for q in queries),
            graph.n,
            100 * io_share,
            100 * measured,
        ])
        assert graph.n == n_nodes
    return ExperimentResult(
        experiment_id="table3",
        title="Workload summary (paper Table III)",
        headers=["workload", "TPC-DS queries", "# nodes",
                 "paper I/O %", "measured I/O %"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 9 — end-to-end refresh times, six methods, both datasets
# ----------------------------------------------------------------------
def fig9_end_to_end(scale_gb: float = 100.0) -> ExperimentResult:
    """End-to-end refresh time: six methods x five workloads x two datasets."""
    profile = DeviceProfile()
    rows = []
    raw: dict = {}
    for partitioned, budget in ((False, 0.016 * scale_gb),
                                (True, 0.008 * scale_gb)):
        dataset = "TPC-DSp" if partitioned else "TPC-DS"
        graphs = build_five_workloads(scale_gb=scale_gb,
                                      partitioned=partitioned)
        for workload in WORKLOAD_NAMES:
            graph = graphs[workload]
            times = {}
            for method, _ in FIGURE9_METHODS:
                trace = run_method(graph, budget, method,
                                   profile=profile, seed=2)
                times[method] = trace.end_to_end_time
            raw[(dataset, workload)] = times
            base = times["none"]
            rows.append([
                f"{dataset}/{workload}",
                *(times[m] for m, _ in FIGURE9_METHODS),
                base / times["sc"],
            ])
    return ExperimentResult(
        experiment_id="fig9",
        title=(f"End-to-end MV refresh time (s), {scale_gb:g}GB datasets; "
               "last column = S/C speedup"),
        headers=["dataset/workload",
                 *(label for _, label in FIGURE9_METHODS), "S/C speedup"],
        rows=rows,
        data={"times": raw},
    )


# ----------------------------------------------------------------------
# Figure 10 — speedup across dataset scales
# ----------------------------------------------------------------------
def fig10_scales(scales_gb: tuple[float, ...] = (10, 25, 50, 100, 1000),
                 ) -> ExperimentResult:
    """S/C speedup across dataset scales, catalog fixed at 1.6 % of data."""
    profile = DeviceProfile()
    rows = []
    raw: dict = {}
    for partitioned in (False, True):
        dataset = "TPC-DSp" if partitioned else "TPC-DS"
        for scale in scales_gb:
            budget = 0.016 * scale
            graphs = build_five_workloads(scale_gb=scale,
                                          partitioned=partitioned)
            total_none = 0.0
            total_sc = 0.0
            for graph in graphs.values():
                total_none += run_method(graph, budget, "none",
                                         profile=profile,
                                         seed=2).end_to_end_time
                total_sc += run_method(graph, budget, "sc",
                                       profile=profile,
                                       seed=2).end_to_end_time
            speedup = total_none / total_sc
            raw[(dataset, scale)] = speedup
            rows.append([dataset, f"{scale:g}", total_none, total_sc,
                         speedup])
    return ExperimentResult(
        experiment_id="fig10",
        title="S/C speedup vs dataset scale (Memory Catalog = 1.6% of "
              "data)",
        headers=["dataset", "scale (GB)", "no-opt total (s)",
                 "S/C total (s)", "speedup"],
        rows=rows,
        data={"speedups": raw},
    )


# ----------------------------------------------------------------------
# Figure 11 — Memory Catalog size sweep, spare vs query memory
# ----------------------------------------------------------------------
def fig11_memory_sweep(scale_gb: float = 100.0,
                       fractions: tuple[float, ...] = (
                           0.004, 0.008, 0.016, 0.032, 0.064),
                       ) -> ExperimentResult:
    """Speedup vs catalog size on TPC-DSp, from spare vs query memory.

    Carving the catalog out of 50 GB of query memory slows operators in
    proportion to the memory taken (the paper reports only up to a 0.25x
    speedup loss, i.e. the penalty is mild).
    """
    profile = DeviceProfile()
    graphs = build_five_workloads(scale_gb=scale_gb, partitioned=True)
    rows = []
    raw: dict = {}
    for fraction in fractions:
        budget = fraction * scale_gb
        speedups = {}
        for source in ("spare", "query"):
            penalty = budget / 50.0 if source == "query" else 0.0
            options = SimulatorOptions(compute_penalty=penalty)
            total_none = 0.0
            total_sc = 0.0
            for graph in graphs.values():
                total_none += run_method(graph, budget, "none",
                                         profile=profile, seed=2,
                                         options=options).end_to_end_time
                total_sc += run_method(graph, budget, "sc",
                                       profile=profile, seed=2,
                                       options=options).end_to_end_time
            speedups[source] = total_none / total_sc
        raw[fraction] = speedups
        rows.append([f"{100 * fraction:.1f}%", speedups["spare"],
                     speedups["query"]])
    return ExperimentResult(
        experiment_id="fig11",
        title=f"S/C speedup vs Memory Catalog size ({scale_gb:g}GB "
              "TPC-DSp)",
        headers=["memory (% of data)", "from spare memory",
                 "from query memory"],
        rows=rows,
        data={"speedups": raw},
    )


# ----------------------------------------------------------------------
# Table IV — latency breakdown vs Memory Catalog size
# ----------------------------------------------------------------------
def table4_latency_breakdown(scale_gb: float = 100.0,
                             fractions: tuple[float, ...] = (
                                 0.004, 0.008, 0.016, 0.032, 0.064),
                             ) -> ExperimentResult:
    """Table-read / compute / query latency vs Memory Catalog size."""
    profile = DeviceProfile()
    rows = []
    raw: dict = {}
    for partitioned in (False, True):
        dataset = "TPC-DSp" if partitioned else "TPC-DS"
        graphs = build_five_workloads(scale_gb=scale_gb,
                                      partitioned=partitioned)

        def totals(method: str, budget: float) -> tuple[float, float,
                                                         float]:
            read = compute = query = 0.0
            for graph in graphs.values():
                trace = run_method(graph, budget, method, profile=profile,
                                   seed=2)
                read += trace.table_read_latency
                compute += trace.compute_latency
                query += trace.query_latency
            return read, compute, query

        columns = [totals("none", 0.0)]
        for fraction in fractions:
            columns.append(totals("sc", fraction * scale_gb))
        raw[dataset] = columns
        labels = ["No opt"] + [f"{100 * f:.1f}%" for f in fractions]
        for metric_idx, metric in enumerate(("Table read", "Compute",
                                             "Query")):
            rows.append([f"{dataset} {metric}",
                         *(col[metric_idx] for col in columns)])
    fractions_header = ["No opt"] + [f"{100 * f:.1f}%" for f in fractions]
    return ExperimentResult(
        experiment_id="table4",
        title=f"Latency breakdown (s) vs Memory Catalog size, "
              f"{scale_gb:g}GB datasets",
        headers=["dataset metric", *fractions_header],
        rows=rows,
        data={"columns": raw},
    )


# ----------------------------------------------------------------------
# Figure 12 — ablation of the two subproblem solutions
# ----------------------------------------------------------------------
def fig12_ablation(scale_gb: float = 100.0) -> ExperimentResult:
    """Each subproblem solution swapped for a baseline inside Algorithm 2."""
    profile = DeviceProfile()
    rows = []
    raw: dict = {}
    for partitioned, fraction in ((False, 0.016), (True, 0.008)):
        dataset = "TPC-DSp" if partitioned else "TPC-DS"
        budget = fraction * scale_gb
        graphs = build_five_workloads(scale_gb=scale_gb,
                                      partitioned=partitioned)
        for method, label in FIGURE12_METHODS:
            total = 0.0
            for graph in graphs.values():
                total += run_method(graph, budget, method, profile=profile,
                                    seed=2).end_to_end_time
            raw[(dataset, method)] = total
            rows.append([f"{dataset} {label}", total])
    for partitioned in (False, True):
        dataset = "TPC-DSp" if partitioned else "TPC-DS"
        ours = raw[(dataset, "mkp+madfs")]
        for method, label in FIGURE12_METHODS:
            if method not in ("none", "mkp+madfs"):
                raw[(dataset, f"gain_vs_{method}")] = \
                    raw[(dataset, method)] / ours
    return ExperimentResult(
        experiment_id="fig12",
        title=f"Ablation: total refresh time of 5 workloads (s), "
              f"{scale_gb:g}GB",
        headers=["dataset method", "total time (s)"],
        rows=rows,
        data={"totals": raw},
    )


# ----------------------------------------------------------------------
# Table V — cluster scaling
# ----------------------------------------------------------------------
def table5_cluster_scaling(scale_gb: float = 100.0,
                           worker_counts: tuple[int, ...] = (1, 2, 3, 4, 5),
                           ) -> ExperimentResult:
    """S/C on multi-worker clusters: runtimes and speedup per cluster size."""
    graphs = build_five_workloads(scale_gb=scale_gb, partitioned=False)
    budget = 0.016 * scale_gb
    rows = []
    raw: dict = {}
    no_opt_row: list = ["No opt runtime (s)"]
    sc_row: list = ["S/C runtime (s)"]
    speedup_row: list = ["Speedup"]
    for workers in worker_counts:
        cluster = ClusterProfile(worker_count=workers)
        total_none = 0.0
        total_sc = 0.0
        for graph in graphs.values():
            problem = ScProblem(graph=graph, memory_budget=budget)
            plan_none = optimize(problem, method="none").plan
            plan_sc = optimize(problem, method="sc", seed=2).plan
            total_none += simulate_cluster_run(
                graph, plan_none, budget, cluster).end_to_end_time
            total_sc += simulate_cluster_run(
                graph, plan_sc, budget, cluster).end_to_end_time
        raw[workers] = (total_none, total_sc)
        no_opt_row.append(total_none)
        sc_row.append(total_sc)
        speedup_row.append(total_none / total_sc)
    return ExperimentResult(
        experiment_id="table5",
        title=f"Cluster scaling, {scale_gb:g}GB TPC-DS, 1.6% Memory "
              "Catalog",
        headers=["metric", *(f"{w} node(s)" for w in worker_counts)],
        rows=[no_opt_row, sc_row, speedup_row],
        data={"totals": raw},
    )


# ----------------------------------------------------------------------
# Figure 13 — optimization time vs DAG size
# ----------------------------------------------------------------------
def fig13_optimization_time(dag_sizes: tuple[int, ...] = (10, 25, 50, 100),
                            n_dags: int = 5) -> ExperimentResult:
    """Wall-clock optimizer time per method (mean over generated DAGs).

    The paper generates 1000 DAGs per setting with OR-Tools' C++ solver
    reaching 0.02 s at 100 nodes; ours hands the same MKP to HiGHS, but
    the alternating loop around it is Python — the claims to check are
    the *scaling shape* (roughly linear in DAG size) and the method
    ranking (scan baselines fastest, SA/Separator slowest).
    """
    generator = WorkloadGenerator()
    methods = [m for m, _ in FIGURE12_METHODS if m != "none"]
    rows = []
    raw: dict = {}
    for size in dag_sizes:
        graphs = []
        for i in range(n_dags):
            config = GeneratedWorkloadConfig(n_nodes=size)
            graphs.append(generator.generate(config, seed=i))
        per_method = {}
        for method in methods:
            elapsed = 0.0
            for graph in graphs:
                problem = ScProblem(
                    graph=graph, memory_budget=0.016 * graph.total_size())
                started = time.perf_counter()  # repro-lint: disable=REP001 -- fig13 measures real optimizer wall time
                optimize(problem, method=method)
                elapsed += time.perf_counter() - started  # repro-lint: disable=REP001 -- fig13 measures real optimizer wall time
            per_method[method] = elapsed / len(graphs)
        raw[size] = per_method
        rows.append([str(size),
                     *(1000 * per_method[m] for m in methods)])
    return ExperimentResult(
        experiment_id="fig13",
        title=f"Optimization time (ms), mean of {n_dags} DAGs per size",
        headers=["DAG size", *methods],
        rows=rows,
        data={"times": raw},
    )


# ----------------------------------------------------------------------
# Parallel scaling — the memory-bounded scheduler on wide DAGs
# ----------------------------------------------------------------------
def parallel_scaling() -> ExperimentResult:
    """Measure (don't claim) the parallel backend's speedup on wide DAGs.

    The simulated makespan per worker count (1, 2, 4, 8) over three
    generated 48-node wide DAGs (height/width ratio 0.25, so plenty of
    ready nodes coexist) at a quarter of each DAG's total size: total
    end-to-end time from the deterministic discrete-event scheduler,
    with the ``MemoryLedger`` peak checked against the budget on every
    run.
    """
    generator = WorkloadGenerator()
    config = GeneratedWorkloadConfig(n_nodes=48, height_width_ratio=0.25)
    cases = []
    for i in range(3):
        graph = generator.generate(config, seed=i)
        budget = 0.25 * graph.total_size()
        problem = ScProblem(graph=graph, memory_budget=budget)
        plan = optimize(problem, method="sc").plan
        cases.append((graph, plan, budget))

    from repro.engine.controller import Controller

    controller = Controller()
    worker_counts = (1, 2, 4, 8)
    rows = []
    totals: dict[int, float] = {}
    budget_ok = True
    for workers in worker_counts:
        total = 0.0
        for graph, plan, budget in cases:
            trace = controller.refresh(graph, budget, plan=plan,
                                       method="sc", backend="parallel",
                                       workers=workers)
            total += trace.end_to_end_time
            budget_ok &= trace.peak_catalog_usage <= budget + 1e-9
        totals[workers] = total
    for workers in worker_counts:
        rows.append([str(workers), totals[workers],
                     totals[1] / totals[workers]])

    return ExperimentResult(
        experiment_id="parallel",
        title="Memory-bounded parallel scheduler: 3 wide DAGs "
              "(48 nodes, 25% budget)",
        headers=["workers", "total time (s)", "speedup vs 1 worker"],
        rows=rows,
        data={"totals": totals, "budget_ok": budget_ok},
    )


# ----------------------------------------------------------------------
# Tiered spill store — runtime penalty vs RAM budget below the plan's peak
# ----------------------------------------------------------------------
def spill_tier_sweep() -> ExperimentResult:
    """Sweep RAM budgets *below* an S/C plan's peak with spilling armed.

    Not a paper figure: this measures the repo's own tiered storage
    subsystem (``repro/store/``).  Each generated DAG is planned once;
    the plan's simulated peak residency defines the 100% point.  The
    same plan is then re-executed at shrinking RAM budgets with an
    SSD + unbounded-disk hierarchy: instead of becoming infeasible, the
    run demotes cold intermediates and pays the spill devices' time.
    Reported per budget point: total runtime, the penalty vs the full
    budget, spill/promote counts, and whether the RAM-tier peak stayed
    within its budget on *every* run.
    """
    cases = generated_cases(3, 32, 0)
    budget_fractions = (1.0, 0.75, 0.5, 0.25, 0.1)
    totals: dict[float, float] = {}
    spills: dict[float, int] = {}
    promotes: dict[float, int] = {}
    spilled_gb: dict[float, float] = {}
    budget_ok = True
    for fraction in budget_fractions:
        totals[fraction] = spilled_gb[fraction] = 0.0
        spills[fraction] = promotes[fraction] = 0
        for case in cases:
            ram = fraction * case.peak
            run = run_cell(case.graph, ram,
                           SpillConfig(tiers=ssd_and_disk(case.peak)),
                           "given", plan=case.plan)
            totals[fraction] += run.trace.end_to_end_time
            spills[fraction] += run.report.spill_count
            promotes[fraction] += run.report.promote_count
            spilled_gb[fraction] += run.report.spill_bytes_gb
            budget_ok &= run.within(ram)

    full = totals[1.0]
    rows = [[f"{100 * fraction:g}%", totals[fraction],
             totals[fraction] / full, spills[fraction],
             promotes[fraction], spilled_gb[fraction]]
            for fraction in budget_fractions]
    return ExperimentResult(
        experiment_id="spill",
        title="Tiered spill store (cost policy): 3 DAGs (32 nodes), RAM "
              "swept below the plan's peak",
        headers=["RAM (% of peak)", "total time (s)", "vs full RAM",
                 "spills", "promotes", "spilled GB"],
        rows=rows,
        data={"totals": totals, "spills": spills, "promotes": promotes,
              "spilled_gb": spilled_gb, "budget_ok": budget_ok,
              "fractions": list(budget_fractions)},
    )


# ----------------------------------------------------------------------
# Spill-aware planning — tier-blind vs tier-aware plans below the peak
# ----------------------------------------------------------------------
def spill_planning_sweep() -> ExperimentResult:
    """Does teaching the planner the tier hierarchy pay off?

    Not a paper figure: this measures the repo's own spill-aware
    planning extension.  For each generated DAG a *tier-blind* plan
    (optimized as if RAM were the only tier) and a *tier-aware* plan
    (optimized against the effective budget of RAM plus discounted
    spill-tier capacities, via
    :class:`~repro.core.problem.TierAwareBudget`) are executed under the
    same shrunken RAM budget with an SSD + unbounded-disk hierarchy and
    stall-vs-spill arbitration armed.  Reported per budget point: both
    plans' total modeled runtimes, their flag counts, the tier-aware
    run's spill count, and the stall-avoided seconds arbitration
    banked.  The claim under test: below the plan's peak, tier-aware
    plans beat tier-blind plans because they flag the nodes whose
    warehouse round trip dwarfs a cheap SSD spill.
    """
    cases = generated_cases(3, 32, 0)
    budget_fractions = (0.9, 0.7, 0.5, 0.3)
    blind_totals: dict[float, float] = {}
    aware_totals: dict[float, float] = {}
    blind_flags: dict[float, int] = {}
    aware_flags: dict[float, int] = {}
    aware_spills: dict[float, int] = {}
    stall_avoided: dict[float, float] = {}
    budget_ok = True
    for fraction in budget_fractions:
        blind_totals[fraction] = aware_totals[fraction] = 0.0
        blind_flags[fraction] = aware_flags[fraction] = 0
        aware_spills[fraction] = 0
        stall_avoided[fraction] = 0.0
        for case in cases:
            ram = fraction * case.peak
            spill = SpillConfig(tiers=ssd_and_disk(case.peak))
            blind, aware = (run_cell(case.graph, ram, spill, planning)
                            for planning in ("blind", "aware"))
            budget_ok &= blind.within(ram) and aware.within(ram)
            blind_totals[fraction] += blind.trace.end_to_end_time
            aware_totals[fraction] += aware.trace.end_to_end_time
            blind_flags[fraction] += len(blind.plan.flagged)
            aware_flags[fraction] += len(aware.plan.flagged)
            aware_spills[fraction] += aware.report.spill_count
            stall_avoided[fraction] += aware.trace.stall_avoided_time

    rows = [[f"{100 * fraction:g}%", blind_totals[fraction],
             aware_totals[fraction],
             aware_totals[fraction] / blind_totals[fraction],
             f"{blind_flags[fraction]}/{aware_flags[fraction]}",
             aware_spills[fraction], stall_avoided[fraction]]
            for fraction in budget_fractions]
    return ExperimentResult(
        experiment_id="spillplan",
        title="Spill-aware planning (cost policy): 3 DAGs (32 nodes), "
              "tier-blind vs tier-aware plans",
        headers=["RAM (% of peak)", "blind (s)", "tier-aware (s)",
                 "aware/blind", "flags b/a", "spills", "stall avoided"],
        rows=rows,
        data={"fractions": list(budget_fractions),
              "blind": blind_totals, "aware": aware_totals,
              "blind_flags": blind_flags, "aware_flags": aware_flags,
              "aware_spills": aware_spills,
              "stall_avoided": stall_avoided, "budget_ok": budget_ok},
    )


# ----------------------------------------------------------------------
# Compressed spill pipeline — codec x prefetch below the plan's peak
# ----------------------------------------------------------------------
def compressed_spill_sweep() -> ExperimentResult:
    """Does compressing spill files (and prefetching them back) pay off?

    Not a paper figure: this measures the repo's own compressed spill
    pipeline.  Each generated DAG is planned once; its no-spill peak
    residency defines the 100% RAM point.  The same plan is then
    executed at shrinking RAM budgets over an SSD + unbounded-disk
    hierarchy, once per (codec, prefetch) arm: ``none`` is the PR 3
    baseline (raw dumps), ``zlib`` charges compressed bytes to tier
    capacity plus encode/decode stages on every migration, and the
    prefetch arms additionally promote spilled parents of soon-to-run
    consumers during idle device time.  The claims under test:

    * a codec with ratio >= 2 beats ``none`` on total modeled time at
      at least one RAM-below-peak point (smaller device transfers and
      a bigger effective SSD beat the encode/decode tax once spilling
      is heavy);
    * prefetching never loses (promotions ride the idle window);
    * every run's trace extras carry the per-codec accounting
      (``codec``, ``spill_stored_gb``, ``prefetch`` counters).
    """
    cases = generated_cases(3, 32, 0)
    budget_fractions = (0.75, 0.5, 0.25)
    codecs = ("none", "zlib")
    arms = [(codec, prefetch) for codec in codecs
            for prefetch in (False, True)]
    totals: dict[tuple[str, bool], dict[float, float]] = {
        arm: {} for arm in arms}
    stored_gb: dict[str, float] = {codec: 0.0 for codec in codecs}
    logical_gb: dict[str, float] = {codec: 0.0 for codec in codecs}
    prefetches: dict[float, int] = {}
    budget_ok = True
    extras_ok = True
    for fraction in budget_fractions:
        prefetches[fraction] = 0
        for arm in arms:
            codec, prefetch = arm
            totals[arm][fraction] = 0.0
            for case in cases:
                ram = fraction * case.peak
                run = run_cell(
                    case.graph, ram,
                    SpillConfig(tiers=ssd_and_disk(case.peak), codec=codec,
                                prefetch=prefetch),
                    "given", plan=case.plan)
                totals[arm][fraction] += run.trace.end_to_end_time
                report = run.report
                extras_ok &= (report.codec == codec
                              and report.prefetch.enabled is prefetch)
                stored_gb[codec] += report.spill_stored_gb
                logical_gb[codec] += report.spill_bytes_gb
                if prefetch:
                    prefetches[fraction] += report.prefetch.count
                budget_ok &= run.within(ram)

    rows = []
    for fraction in budget_fractions:
        base = totals[("none", False)][fraction]  # the baseline arm
        row = [f"{100 * fraction:g}%"]
        for arm in arms:
            row.append(totals[arm][fraction])
        row.append(min(totals[arm][fraction] for arm in arms) / base
                   if base else 1.0)
        rows.append(row)
    # None, not 0.0/1.0, when a codec arm never stored a spill byte:
    # "no data" must stay distinguishable from "incompressible"
    ratios = {codec: (logical_gb[codec] / stored_gb[codec]
                      if stored_gb[codec] else None)
              for codec in codecs}
    headers = (["RAM (% of peak)"]
               + [f"{codec}{'+pf' if prefetch else ''} (s)"
                  for codec, prefetch in arms]
               + ["best/none"])
    return ExperimentResult(
        experiment_id="spillcodec",
        title="Compressed spill pipeline (cost policy): 3 DAGs (32 nodes), "
              "codec x prefetch below the peak",
        headers=headers,
        rows=rows,
        data={"fractions": list(budget_fractions),
              "totals": {f"{codec}{'+pf' if prefetch else ''}": times
                         for (codec, prefetch), times in totals.items()},
              "arm_totals": totals,
              "observed_ratio": ratios,
              "codec_ratios": {codec: resolve_codec(codec).ratio
                               for codec in codecs},
              "prefetches": prefetches,
              "budget_ok": budget_ok, "extras_ok": extras_ok},
    )


# ----------------------------------------------------------------------
# Compressed-in-RAM rung — same physical RAM, three ways to spend it
# ----------------------------------------------------------------------
def ram_compression_sweep() -> ExperimentResult:
    """Is a compressed-in-RAM rung the best way to spend scarce RAM?

    Not a paper figure: this measures the repo's own ``ram-compressed``
    tier.  Each generated DAG is planned once; its no-spill peak
    residency defines the 100% RAM point.  Every sweep point fixes the
    same *physical* RAM budget ``R`` (a below-peak fraction of that
    peak) and spends it three ways:

    * ``nospill`` — all of ``R`` holds uncompressed tables and there is
      no spill hierarchy: whatever does not fit loses its flag and pays
      the warehouse's blocking write (the pre-PR-3 baseline);
    * ``ssd`` — all of ``R`` holds uncompressed tables and cold victims
      are demoted straight to an SSD + unbounded-disk hierarchy with
      raw dumps (the PR 3/4 pipeline);
    * ``rung`` — 35 % of ``R`` is re-dedicated to a
      ``ram-compressed`` tier (budgeted in *stored* bytes, so the
      physical footprint is identical): victims are encoded in place at
      codec cost only — no device transfer — and the rung's zlib1
      default turns its slice into ~2.1x its size in logical capacity,
      so fewer bytes ever reach the SSD.

    Every arm plans for the hierarchy it actually has (tier-aware via
    :class:`~repro.core.problem.TierAwareBudget` when tiers exist) —
    each deployment optimizes with the storage it owns, and the rung's
    near-RAM round trip earns it the deepest capacity discount, so the
    rung arm plans against the largest effective budget for the same
    physical RAM.  The claim under test (the PR's acceptance bar): the
    rung arm is strictly faster than *both* baselines at every
    below-peak point.
    """
    cases = generated_cases(3, 32, 0)
    budget_fractions = (0.75, 0.5, 0.35)
    rung_fraction = 0.35
    arms = ("nospill", "ssd", "rung")
    totals: dict[str, dict[float, float]] = {arm: {} for arm in arms}
    rung_spills: dict[float, int] = {}
    rung_promotes: dict[float, int] = {}
    rung_ratio_gb = [0.0, 0.0]  # logical, stored — over all rung spills
    budget_ok = True
    for fraction in budget_fractions:
        rung_spills[fraction] = rung_promotes[fraction] = 0
        for arm in arms:
            totals[arm][fraction] = 0.0
            for case in cases:
                ram = fraction * case.peak
                tiers = None if arm == "nospill" else ssd_and_disk(case.peak)
                if arm == "rung":
                    rung_gb = rung_fraction * ram
                    ram -= rung_gb
                    tiers = (TierSpec(RAM_COMPRESSED, rung_gb), *tiers)
                run = run_cell(
                    case.graph, ram,
                    SpillConfig(tiers=tiers) if tiers else None,
                    "aware" if tiers else "blind")
                totals[arm][fraction] += run.trace.end_to_end_time
                budget_ok &= run.within(ram)
                if arm == "rung":
                    rung_tier = run.report.tiers[1]
                    budget_ok &= rung_tier.peak <= rung_gb + 1e-9
                    rung_spills[fraction] += run.report.spill_count
                    rung_promotes[fraction] += run.report.promote_count
                    rung_ratio_gb[0] += rung_tier.observed.spill_in_gb
                    rung_ratio_gb[1] += rung_tier.observed.spill_in_stored_gb

    rows = []
    for fraction in budget_fractions:
        best_baseline = min(totals["nospill"][fraction],
                            totals["ssd"][fraction])
        rows.append([f"{100 * fraction:g}%",
                     totals["nospill"][fraction],
                     totals["ssd"][fraction],
                     totals["rung"][fraction],
                     totals["rung"][fraction] / best_baseline
                     if best_baseline else 1.0,
                     rung_spills[fraction], rung_promotes[fraction]])
    observed_ratio = (rung_ratio_gb[0] / rung_ratio_gb[1]
                      if rung_ratio_gb[1] else None)
    return ExperimentResult(
        experiment_id="ramcodec",
        title="Compressed-in-RAM rung (cost policy): 3 DAGs (32 nodes), "
              "same physical RAM spent three ways",
        headers=["RAM (% of peak)", "nospill (s)", "ssd (s)", "rung (s)",
                 "rung/best-base", "rung spills", "rung promotes"],
        rows=rows,
        data={"fractions": list(budget_fractions),
              "totals": totals, "rung_fraction": rung_fraction,
              "rung_spills": rung_spills, "rung_promotes": rung_promotes,
              "rung_observed_ratio": observed_ratio,
              "budget_ok": budget_ok},
    )


# ----------------------------------------------------------------------
# Feedback loop — observed-cost replanning + adaptive codec re-pricing
# ----------------------------------------------------------------------
def _mixed_compressibility(graph, seed: int, lean_fraction: float) -> None:
    """Stamp per-node codec compressibility multipliers onto ``graph``.

    ``lean_fraction`` of the nodes get the lean multiplier 0.05 (barely
    compressible), the rest 1.0 — a mixed-compressibility workload
    whose realized spill ratios genuinely diverge from the codec
    preset, the regime the feedback loop exists for.
    """
    rng = random.Random(seed)
    for node_id in sorted(graph.nodes()):
        graph.node(node_id).meta["compressibility"] = (
            0.05 if rng.random() < lean_fraction else 1.0)


def feedback_loop_sweep() -> ExperimentResult:
    """Does closing the model-vs-runtime loop pay off?

    Not a paper figure: this measures the repo's own observed-cost
    feedback subsystem on mixed-compressibility workloads (per-node
    ``meta["compressibility"]``), where the codec preset's ratio is a
    bad guess and the static tier-aware budget therefore mis-prices the
    hierarchy.  Two questions, per below-peak RAM point:

    * **Replanning** — pass 1 executes the *static* tier-aware plan
      (modeled device/codec costs); its trace is distilled into a
      :class:`~repro.feedback.CostFeedback` and pass 2 executes the
      *replanned* plan (observed costs).  Claim: the replanned run is
      never worse, and strictly better on at least one below-peak
      point — observed ratios/penalties stop the planner from
      over-flagging into tiers that are smaller and dearer than the
      model thought.

    * **Adaptive codec** — fixed ``none`` and fixed ``zlib`` arms race
      an adaptive arm (``zlib`` + :class:`~repro.store.config.
      CodecAdaptConfig`) on two mixes: a *lean* mix (mostly
      incompressible tables, where zlib's encode/decode tax buys
      almost nothing) and a *rich* mix (tables matching the preset,
      where dropping the codec would forfeit real transfer savings).
      Claim: the adaptive arm matches (within the few sampled spills'
      tuition) or beats the best fixed codec on both mixes — it drops
      the codec on the lean mix and keeps it on the rich mix.
    """
    def build_cases(lean_fraction: float) -> list[Case]:
        return generated_cases(
            3, 32, 0,
            stamp=lambda graph, i: _mixed_compressibility(
                graph, seed=i, lean_fraction=lean_fraction))

    def spill_config(peak: float, codec: str, adapt: bool = False,
                     cold: bool = False) -> SpillConfig:
        # the cold last tier (network/object-store class) is dear
        # enough that whether its bytes are worth flagging depends on
        # the codec ratio actually realized — the regime where a wrong
        # preset makes the static planner over-flag
        last = TierSpec("cold") if cold else TierSpec("disk")
        return SpillConfig(
            tiers=(TierSpec("ssd", 0.4 * peak), last), codec=codec,
            adapt=CodecAdaptConfig(samples=3) if adapt else None)

    # ---- replanning: static tier-aware plan vs feedback replan ----
    static_totals: dict[float, float] = {}
    replan_totals: dict[float, float] = {}
    static_flags: dict[float, int] = {}
    replan_flags: dict[float, int] = {}
    observed_ratios: list[float] = []
    budget_ok = True
    budget_fractions = (0.75, 0.5, 0.35)
    cases = build_cases(lean_fraction=0.7)
    for fraction in budget_fractions:
        static_totals[fraction] = replan_totals[fraction] = 0.0
        static_flags[fraction] = replan_flags[fraction] = 0
        for case in cases:
            ram = fraction * case.peak
            second = run_cell(
                case.graph, ram,
                spill_config(case.peak, codec="zlib", cold=True),
                "replan")
            first = second.first
            observed_ratios += [  # of the spill tiers, as the replan saw them
                tier.observed.observed_ratio
                for tier in first.report.tiers[1:]
                if tier.observed.observed_ratio is not None]
            static_totals[fraction] += first.trace.end_to_end_time
            replan_totals[fraction] += second.trace.end_to_end_time
            static_flags[fraction] += len(first.plan.flagged)
            replan_flags[fraction] += len(second.plan.flagged)
            budget_ok &= second.within(ram)

    # ---- adaptive codec vs fixed codecs, lean and rich mixes ----
    # each case's plan was built for the full 0.3*total budget; running
    # it below its peak forces heavy spilling, where the codec choice
    # actually matters (same pattern as compressed_spill_sweep)
    mixes = {"lean": build_cases(lean_fraction=0.85),
             "rich": build_cases(lean_fraction=0.0)}
    codec_fraction = min(budget_fractions)
    codec_totals: dict[str, dict[str, float]] = {}
    adapt_events: dict[str, dict] = {}
    for mix, mix_cases in mixes.items():
        arms = {"none": 0.0, "zlib": 0.0, "adaptive": 0.0}
        events: dict = {}
        for case in mix_cases:
            ram = codec_fraction * case.peak
            for arm in arms:
                run = run_cell(
                    case.graph, ram,
                    spill_config(case.peak,
                                 codec="none" if arm == "none" else "zlib",
                                 adapt=arm == "adaptive"),
                    "given", plan=case.plan)
                arms[arm] += run.trace.end_to_end_time
                budget_ok &= run.within(ram)
                if arm == "adaptive":
                    for name, record in run.report.codec_adapt.tiers.items():
                        tally = events.setdefault(
                            name, {"repriced": 0, "switched": 0})
                        tally["repriced"] += bool(record.repriced)
                        tally["switched"] += bool(record.switched_to)
        codec_totals[mix] = arms
        adapt_events[mix] = events

    rows = []
    for fraction in budget_fractions:
        rows.append([
            f"{100 * fraction:g}%", static_totals[fraction],
            replan_totals[fraction],
            replan_totals[fraction] / static_totals[fraction]
            if static_totals[fraction] else 1.0,
            f"{static_flags[fraction]}/{replan_flags[fraction]}"])
    for mix, arms in codec_totals.items():
        rows.append([f"codec[{mix}]", arms["none"], arms["zlib"],
                     arms["adaptive"] / min(arms["none"], arms["zlib"]),
                     f"adaptive {arms['adaptive']:.1f}"])
    mean_observed = (sum(observed_ratios) / len(observed_ratios)
                     if observed_ratios else None)
    return ExperimentResult(
        experiment_id="feedback",
        title="Feedback loop (cost policy): 3 DAGs (32 nodes), "
              "observed-cost replanning + adaptive codec, mixed "
              "compressibility",
        headers=["RAM (% of peak) / mix", "static|none (s)",
                 "replan|zlib (s)", "ratio vs best", "flags s/r"],
        rows=rows,
        data={"fractions": list(budget_fractions),
              "static": static_totals, "replan": replan_totals,
              "static_flags": static_flags, "replan_flags": replan_flags,
              "codec_totals": codec_totals,
              "adapt_events": adapt_events,
              "codec_fraction": codec_fraction,
              "mean_observed_ratio": mean_observed,
              "budget_ok": budget_ok},
    )


# ----------------------------------------------------------------------
# Figure 14 — DAG-shape parameter sweeps vs predicted savings
# ----------------------------------------------------------------------
def fig14_parameter_sweep(n_dags: int = 10) -> ExperimentResult:
    """Normalized predicted savings across the four generation axes.

    Savings = total speedup score of the flagged set found by S/C divided
    by the DAG's total size (leaf sizes are sampled from the heavy-tailed
    TPC-DS census, so per-DAG normalization removes scale noise that would
    otherwise need the paper's 1000-DAG samples to average out), normalized
    to the reference configuration (100 nodes, ratio 1, out-degree 4,
    StDev 1 — the black-marked parameters of Figure 13).
    """
    generator = WorkloadGenerator()

    def mean_savings(config: GeneratedWorkloadConfig) -> float:
        total = 0.0
        for i in range(n_dags):
            graph = generator.generate(config, seed=i)
            problem = ScProblem(graph=graph,
                                memory_budget=0.016 * graph.total_size())
            total += (optimize(problem, method="sc").total_score
                      / graph.total_size())
        return total / n_dags

    reference = mean_savings(GeneratedWorkloadConfig(n_nodes=100))
    rows = []
    raw: dict = {}

    sweeps: list[tuple[str, str, list, GeneratedWorkloadConfig]] = []
    for value in (25, 50, 100):
        sweeps.append(("DAG size", str(value), [],
                       GeneratedWorkloadConfig(n_nodes=value)))
    for value in (4.0, 2.0, 1.0, 0.5, 0.25):
        sweeps.append(("height/width", f"{value:g}", [],
                       GeneratedWorkloadConfig(
                           n_nodes=100, height_width_ratio=value)))
    for value in (1, 2, 3, 4, 5):
        sweeps.append(("max outdegree", str(value), [],
                       GeneratedWorkloadConfig(
                           n_nodes=100, max_outdegree=value)))
    for value in (0.0, 1.0, 2.0, 3.0, 4.0):
        sweeps.append(("stage StDev", f"{value:g}", [],
                       GeneratedWorkloadConfig(
                           n_nodes=100, stage_stdev=value)))

    for axis, label, _, config in sweeps:
        normalized = mean_savings(config) / reference
        raw[(axis, label)] = normalized
        rows.append([axis, label, normalized])

    return ExperimentResult(
        experiment_id="fig14",
        title=f"Normalized predicted savings vs DAG shape "
              f"(mean of {n_dags} DAGs; 1.0 = reference config)",
        headers=["axis", "value", "normalized savings"],
        rows=rows,
        data={"normalized": raw},
    )
