"""The benchmark's workloads.  Each stresses another layer of
``src/repro`` and is measured from outside, by timing calls into public
functions; README.md says why each was chosen.

A workload object is set up from the seed (three times before the first
round and, where set-up is cheap, again before every timed round, for
the ``setup_s`` median), then asked for rounds.  A round runs the
workload once, returns the latencies of its *primary operation* (what
``latency_p50_ms`` reports) and the DAG nodes it completed, and checks
its own outputs.  With a live :class:`harness.Recorder` the same round
is driven span by span — serial backends hook by hook — so each call
into a layer is a span; the untraced round uses the calls a user makes.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import DeviceProfile, ScProblem, optimize, peak_memory_usage
from repro.db import MiniDB, SqlWorkload
from repro.engine import Controller, SimulatorOptions
from repro.exec import ExecutionBackend, create_backend
from repro.graph import is_topological_order, kahn_topological_order
from repro.serve import RefreshService, ServiceConfig, TenantSpec
from repro.store import SpillConfig, TierSpec
from repro.workloads import build_workload, generate_tpcds_tables

import inputs
from harness import OUT_DIR, NullRecorder, digest, percentile, timed


@dataclass
class Round:
    """What one round hands back to the runner."""

    ops: list[float]                 # primary-operation latencies, s
    nodes: int                       # DAG nodes completed
    facts: dict = field(default_factory=dict)   # per-layer raw numbers


def run_backend(rec, label: str, name: str, graph, plan, budget: float,
                *, options=None, workers: int = 1, **extra):
    """One refresh on a freshly created backend, as a run of spans.

    Serial backends are driven ``prepare`` -> ``execute_node``* ->
    ``finish`` so every node is a child span of its run; schedulers own
    their dispatch loop, so ``run`` is one span.
    """
    backend = create_backend(name, profile=DeviceProfile(), options=options,
                             workers=workers, seed=0, **extra)
    with rec.span(label, "harness", run=label):
        if type(backend).run is not ExecutionBackend.run:   # a scheduler
            with rec.span("run", "exec"):
                return backend.run(graph, plan, budget, method="sc")
        with rec.span("prepare", "exec"):
            ctx = backend.prepare(graph, plan, budget, method="sc")
        order = (plan.order if plan is not None
                 else kahn_topological_order(graph))
        for node_id in order:
            with rec.span(node_id, "exec"):
                backend.execute_node(ctx, node_id)
        with rec.span("finish", "exec"):
            return backend.finish(ctx)


def store_facts(trace) -> dict:
    """Counters of a tiered run, read from its returned ``RunTrace``."""
    report = trace.extras.get("tiered_store")
    if report is None:
        return {}
    prefetch = report["prefetch"]
    attempts = prefetch["count"] + prefetch["misses"]
    return {
        "store.spill_count": report["spill_count"],
        "store.promote_count": report["promote_count"],
        "store.spill_gb": report["spill_bytes_gb"],
        "store.arbitration_stalls": report["arbitration"]["stall_wins"],
        "store.arbitration_spills": report["arbitration"]["spill_wins"],
        "store.demote_bypass_count": report["demote_bypass_count"],
        "store.prefetch_hit_pct":
            100.0 * prefetch["count"] / attempts if attempts else 0.0,
    }


# ----------------------------------------------------------------------
class PlanScale:
    """The planner does the work; execution next to none."""

    name = "plan_scale"
    setup_every_round = True

    def __init__(self, quick: bool) -> None:
        self.corpus = (inputs.PLAN_CORPUS_QUICK if quick
                       else inputs.PLAN_CORPUS)
        self.first: list[str] | None = None

    def setup(self, seed: int) -> None:
        self.problems = []
        for n_nodes, generator_seed in self.corpus:
            graph = inputs.generated_dag(n_nodes, generator_seed, seed)
            self.problems.append(ScProblem(
                graph=graph, memory_budget=0.05 * graph.total_size()))

    def teardown(self) -> None:
        pass

    def digests(self) -> dict:
        return {f"dag_n{p.graph.n}": inputs.graph_digest(p.graph)
                for p in self.problems}

    def round(self, rec, checks, verify: bool = False) -> Round:
        plans = []
        modeled = iterations = flagged = 0
        over_budget = sim_seconds = 0.0
        for problem in self.problems:
            graph, budget = problem.graph, problem.memory_budget
            label = f"n{graph.n}"
            with rec.span(f"optimize {label}", "core", run=label):
                seconds, result = timed(optimize, problem, method="sc",
                                        seed=0)
            ops = [seconds]     # primary operation: the largest DAG
            plan = result.plan
            plans.append(inputs.plan_digest(plan))
            seconds, trace = timed(run_backend, rec, f"simulate {label}",
                                   "simulator", graph, plan, budget)
            sim_seconds += seconds
            modeled += trace.end_to_end_time
            iterations += result.iterations
            flagged += len(plan.flagged)
            peak = peak_memory_usage(graph, plan.order, plan.flagged)
            over_budget = max(over_budget, peak / budget)
            checks.expect(is_topological_order(graph, list(plan.order)),
                          f"{label}: plan order is not topological")
            checks.expect(peak <= budget * (1 + 1e-9),
                          f"{label}: planned peak {peak} > budget {budget}")
            checks.expect(trace.peak_catalog_usage <= budget * (1 + 1e-9),
                          f"{label}: executed peak over budget")
            if verify:
                none = Controller().refresh(graph, budget, method="none")
                checks.expect(
                    trace.end_to_end_time <= none.end_to_end_time,
                    f"{label}: sc modeled time worse than no optimization")
        if self.first is None:
            self.first = plans
        checks.expect(plans == self.first,
                      "optimize returned another plan for the same input")
        nodes = sum(p.graph.n for p in self.problems)
        return Round(ops=ops, nodes=nodes, facts={
            "exec.modeled_refresh_s": modeled,
            "core.iterations": iterations,
            "core.flagged_nodes": flagged,
            "core.peak_over_budget": over_budget,
            "exec.serial_nodes_per_s": nodes / sim_seconds,
            "plan_digest": digest(plans),
        })

    def layer_cells(self, checks) -> dict:
        return {}


# ----------------------------------------------------------------------
class SimTiers:
    """Execution and store do the work; the planner none (the plan is
    made in set-up).  ``fit`` runs at the no-spill peak P (ledger
    insert / consumer_done / release only); ``spill`` at a quarter of
    it (victim ranking, demotion, promotion, prefetch)."""

    setup_every_round = True

    def __init__(self, name: str, ram_fraction: float, quick: bool) -> None:
        self.name = name
        self.ram_fraction = ram_fraction
        self.dag = inputs.SIM_DAG_QUICK if quick else inputs.SIM_DAG
        self.reps = 2 if quick else 5
        self.first: float | None = None

    def setup(self, seed: int) -> None:
        self.graph = inputs.generated_dag(*self.dag, seed)
        budget = 0.3 * self.graph.total_size()
        self.plan = optimize(
            ScProblem(graph=self.graph, memory_budget=budget),
            method="greedy+madfs", seed=0).plan
        peak = Controller().refresh(self.graph, budget, plan=self.plan,
                                    method="sc").peak_catalog_usage
        self.spill = SpillConfig(
            tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
            codec="zlib", prefetch=True)
        self.controller = Controller(spill=self.spill)
        self.ram = self.ram_fraction * peak

    def teardown(self) -> None:
        pass

    def digests(self) -> dict:
        return {"dag": inputs.graph_digest(self.graph),
                "plan": inputs.plan_digest(self.plan)}

    def refresh(self, rec, label: str, backend: str, workers: int = 1):
        """One refresh of the cell: the user's call when untraced, the
        same backend hook by hook when traced."""
        if not rec.enabled:
            return self.controller.refresh(
                self.graph, self.ram, plan=self.plan, method="sc",
                backend=backend, workers=workers)
        return run_backend(
            rec, label, backend, self.graph, self.plan, self.ram,
            options=SimulatorOptions(spill=self.spill), workers=workers)

    def round(self, rec, checks, verify: bool = False) -> Round:
        n = self.graph.n
        ops, seconds = [], {}
        for label, backend, workers, reps in (
                ("serial", "simulator", 1, self.reps),
                ("parallel1", "parallel", 1, self.reps),
                ("parallel4", "parallel", 4, 1)):
            took = []
            for i in range(reps):
                dt, trace = timed(self.refresh, rec, f"{label}#{i}",
                                  backend, workers)
                took.append(dt)
                checks.expect(
                    trace.peak_catalog_usage <= self.ram * (1 + 1e-9),
                    f"{label}: RAM peak over budget")
            seconds[label] = took
            if label == "serial":
                ops, serial = took, trace
            elif label == "parallel1":
                checks.expect(
                    trace.end_to_end_time == serial.end_to_end_time,
                    "serial and parallel workers=1 modeled time differ")
        facts = store_facts(serial)
        spills = facts["store.spill_count"]
        checks.expect(spills == 0 if self.ram_fraction >= 1.0
                      else spills > 0,
                      f"{self.name}: {spills} spills in the serial cell")
        if self.first is None:
            self.first = serial.end_to_end_time
        checks.expect(serial.end_to_end_time == self.first,
                      "modeled refresh time changed between rounds")
        facts.update({
            "exec.modeled_refresh_s": serial.end_to_end_time,
            "core.flagged_nodes": len(self.plan.flagged),
            "exec.serial_nodes_per_s": n / np.median(seconds["serial"]),
            "exec.parallel1_nodes_per_s":
                n / np.median(seconds["parallel1"]),
            "exec.parallel4_nodes_per_s": n / seconds["parallel4"][0],
        })
        return Round(ops=ops, nodes=n * (2 * self.reps + 1), facts=facts)

    def layer_cells(self, checks) -> dict:
        """Cells only the parallelism table and the LRU baseline need
        (one untraced run each: parallel/2 takes seconds when spilling)."""
        n = self.graph.n
        parallel2 = timed(self.refresh, NullRecorder(), "parallel2",
                          "parallel", 2)[0]
        lru = timed(Controller().refresh, self.graph, self.ram,
                    method="lru")[0]
        return {"exec.parallel2_nodes_per_s": n / parallel2,
                "exec.lru_nodes_per_s": n / lru}


# ----------------------------------------------------------------------
class MinidbStar:
    """``db`` operators, codecs and real file I/O do the work; the
    planner about a millisecond.  RAM is 0.35 x the profiled total while
    the plan is made for 1.0 x — the README's documented way to force
    real spills."""

    name = "minidb_star"
    setup_every_round = False       # loading and profiling take 1.7 s
    #: (cell, spill codec, ram-compressed rung as a share of RAM)
    cells = (("raw", "none", 0.0), ("packed", "zlib", 0.25))

    def __init__(self, quick: bool) -> None:
        self.scale_gb = 0.003 if quick else 0.01
        self.tmp: str | None = None

    def setup(self, seed: int) -> None:
        self.teardown()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="minidb_", dir=OUT_DIR)
        self.spill_dir = os.path.join(self.tmp, "spill")
        os.makedirs(self.spill_dir)
        db = MiniDB(os.path.join(self.tmp, "db"))
        tables = generate_tpcds_tables(self.scale_gb, seed)
        for name, table in tables.items():
            db.register_table(name, table)
        self.rows = {name: len(table) for name, table in tables.items()}
        self.checksum = float(
            tables["store_sales"].columns()["ss_sales_price"].sum())
        self.workload = SqlWorkload(
            db=db, definitions=inputs.star_definitions())
        self.graph = self.workload.profile()
        self.total = self.graph.total_size()
        self.ram = 0.35 * self.total

    def teardown(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def digests(self) -> dict:
        return {"table_rows": self.rows,
                "store_sales_price_sum": self.checksum}

    def controller(self, codec: str, rung: float) -> Controller:
        return Controller(spill=SpillConfig(codec=codec),
                          spill_dir=self.spill_dir,
                          ram_compressed_gb=rung * self.ram)

    def refresh(self, rec, cell: str, codec: str, rung: float):
        """plan -> refresh of one cell."""
        controller = self.controller(codec, rung)
        with rec.span(f"plan {cell}", "core", run=cell):
            plan = controller.plan_for_minidb(self.graph, self.total,
                                              method="sc")
        if not rec.enabled:
            return plan, controller.refresh_on_minidb(
                self.workload, self.ram, plan=plan)
        return plan, run_backend(
            rec, cell, "minidb", self.graph, plan, self.ram,
            options=SimulatorOptions(), workload=self.workload,
            spill_dir=self.spill_dir, spill_policy="cost",
            spill_codec=controller.spill.codec, spill_adapt=None,
            ram_compressed_gb=controller.ram_compressed_gb)

    def verify_mvs(self, checks, cell: str) -> None:
        """Every MV equals its SQL run through plain ``MiniDB.query``
        over the materialized parents (so, by induction along the
        topological order, over the base tables)."""
        db = self.workload.db
        by_name = {d.name: d for d in self.workload.definitions}
        for name in kahn_topological_order(self.graph):
            expected, _ = db.query(by_name[name].sql)
            actual = db.table(name).columns()
            same = (list(actual) == list(expected.columns())
                    and all(np.array_equal(actual[c], column)
                            for c, column in expected.columns().items()))
            checks.expect(same, f"{cell}: MV {name} differs from its SQL")

    def round(self, rec, checks, verify: bool = False) -> Round:
        ops, facts = [], {}
        for cell, codec, rung in self.cells:
            plan, trace = self.refresh(rec, cell, codec, rung)
            # primary operation: the star's largest join, first in the
            # plan, so it runs before any drain thread competes with it
            ops.append(trace.nodes[0].elapsed)
            checks.expect(trace.nodes[0].node_id == "store_enrich",
                          f"{cell}: plan starts at {trace.nodes[0].node_id}")
            report = trace.extras["tiered_store"]
            spills, promotes = report["spill_count"], report["promote_count"]
            # the drains race the next query, so the packed cell's counts
            # move by one between runs; the floors below always hold
            checks.expect(spills >= (3 if cell == "raw" else 1),
                          f"{cell}: only {spills} spills")
            if cell == "raw":
                checks.expect(promotes >= 1, f"{cell}: no promote")
            left = os.listdir(self.spill_dir)
            checks.expect(not left, f"{cell}: spill files left {left}")
            checks.expect(trace.peak_catalog_usage <= self.ram * (1 + 1e-9),
                          f"{cell}: RAM peak over budget")
            if verify:
                self.verify_mvs(checks, cell)
            with rec.span(f"drop {cell}", "db", run=cell):
                for name in self.workload.mv_names():
                    self.workload.db.drop(name)
            facts.update(self.cell_facts(cell, trace, report, left, plan))
        return Round(ops=ops, nodes=self.graph.n * len(self.cells),
                     facts=facts)

    def cell_facts(self, cell: str, trace, report, left, plan) -> dict:
        if cell != "packed":        # the packed cell uses every layer
            return {"exec.minidb_spill_files_left": len(left)}
        busy = sum(node.elapsed for node in trace.nodes) or 1.0
        logical = report["spill_bytes_gb"]
        facts = store_facts(trace)
        facts.update({
            "exec.modeled_refresh_s": trace.end_to_end_time,
            "core.flagged_nodes": len(plan.flagged),
            "exec.minidb_read_pct":
                100.0 * trace.table_read_disk_latency / busy,
            "exec.minidb_compute_pct": 100.0 * trace.compute_latency / busy,
            "exec.minidb_write_pct": 100.0 * trace.write_latency / busy,
            "exec.minidb_stall_pct": 100.0 * trace.stall_time / busy,
            "exec.minidb_spill_promote_pct":
                100.0 * trace.spill_time / busy,
            "exec.minidb_drain_wait_pct":
                100.0 * (trace.end_to_end_time - trace.compute_finished_at)
                / trace.end_to_end_time,
            "exec.minidb_stored_per_logical":
                report["spill_stored_gb"] / logical if logical else 0.0,
            "exec.minidb_spill_files_left": len(left),
        })
        return facts

    def layer_cells(self, checks) -> dict:
        return {}


# ----------------------------------------------------------------------
class ServiceMixed:
    """The ``serve`` event loop and the shared-ledger tenant path do the
    work.  Closed loop: one client coroutine per tenant, each awaiting
    its reply before it submits again, as callers of
    ``Controller.refresh_concurrent`` do."""

    name = "service_mixed"
    setup_every_round = True
    kinds = ("io1", "compute1")
    tenants = (TenantSpec("alpha", 0.5, priority=1),
               TenantSpec("beta", 0.5, priority=0))

    def __init__(self, quick: bool) -> None:
        self.n_requests = 200 if quick else 1000
        self.long_requests = 600 if quick else 4000

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.graphs = {kind: build_workload(kind, scale_gb=20.0)
                       for kind in self.kinds}
        self.budget = 0.25 * self.graphs["io1"].total_size()
        self.plans = {kind: Controller().plan(graph, self.budget,
                                              method="sc", seed=0)
                      for kind, graph in self.graphs.items()}

    def teardown(self) -> None:
        pass

    def digests(self) -> dict:
        return {"plans": {kind: inputs.plan_digest(plan)
                          for kind, plan in self.plans.items()},
                "order": digest(inputs.request_order(
                    self.kinds, self.n_requests // 2, self.seed))}

    def session(self, rec, n_requests: int, clients: int = 2):
        """A fresh service serving ``n_requests``; returns
        ``(wall seconds, results in completion order, service)``."""
        config = ServiceConfig(
            ram_budget_gb=self.budget,
            spill=SpillConfig(tiers=(TierSpec("disk"),)),
            queue_limit=64, max_concurrent=2, time_scale=1e-9)
        service = RefreshService(config, list(self.tenants))
        per_client = n_requests // clients

        async def client(index: int):
            tenant = self.tenants[index % len(self.tenants)].name
            order = inputs.request_order(
                self.kinds, per_client, self.seed * 1000 + index)
            results = []
            for i, kind in enumerate(order):
                with rec.span("request", "serve", run=f"c{index}r{i}"):
                    with rec.span("submit", "serve"):
                        handle = await service.submit(
                            self.graphs[kind], self.plans[kind],
                            tenant=tenant)
                    with rec.span("await", "serve"):
                        results.append(await handle)
            return results

        async def serve():
            async with service:
                return await timed_gather(
                    [client(i) for i in range(clients)])

        seconds, per = asyncio.run(serve())
        return seconds, [r for results in per for r in results], service

    def round(self, rec, checks, verify: bool = False) -> Round:
        with rec.span("session", "harness", run="session"):
            seconds, results, service = self.session(rec, self.n_requests)
        not_ok = 0
        for result in results:
            not_ok += not checks.expect(
                result.status == "ok",
                f"request {result.request_id}: {result.status}")
        violations = {k: v for k, v in service.audit().items() if v}
        checks.expect(not violations, f"audit: {violations}")
        waits = [r.queue_wait_s for r in results
                 if r.queue_wait_s is not None]
        ops = [r.latency_s for r in results]
        nodes = sum(len(r.trace.nodes) for r in results if r.trace)
        facts = {
            "core.flagged_nodes":
                sum(len(plan.flagged) for plan in self.plans.values()),
            "serve.req_per_s": len(results) / seconds,
            "serve.nodes_per_s": nodes / seconds,
            "serve.queue_wait_pct":
                100.0 * percentile(waits, 50) / percentile(ops, 50)
                if waits else 0.0,
            "serve.not_ok_count": not_ok,
            "serve.shed_count": self.n_requests - len(results),
        }
        return Round(ops=ops, nodes=nodes, facts=facts)

    def layer_cells(self, checks) -> dict:
        """One client alone (the degrade base of the parallelism table)
        and one long session, whose last requests against its first
        show a per-request cost that grows with the session."""
        off = NullRecorder()
        seconds, results, _ = self.session(off, self.n_requests, clients=1)
        solo = len(results) / seconds
        _, results, service = self.session(off, self.long_requests)
        checks.expect(all(r.status == "ok" for r in results),
                      "long session: a request was not ok")
        chunk = len(results) // 4
        done = sorted(r.finished_s for r in results)
        early = chunk / (done[chunk - 1] - min(r.queued_s for r in results))
        late = chunk / (done[-1] - done[-chunk - 1])
        serial = np.median([
            timed(Controller().refresh, self.graphs[kind], self.budget,
                  plan=self.plans[kind])[0]
            for _ in range(20) for kind in self.kinds])
        per_request = 1.0 / solo
        return {"serve.clients1_req_per_s": solo,
                "serve.late_over_early": late / early,
                "serve.framework_pct":
                    100.0 * max(0.0, 1.0 - serial / per_request)}


async def timed_gather(coroutines):
    """``(seconds, results)`` of awaiting all ``coroutines`` together."""
    started = time.perf_counter()
    results = await asyncio.gather(*coroutines)
    return time.perf_counter() - started, results


def make(name: str, quick: bool = False):
    """The workload object for a ``BENCHMARK.json`` workload name."""
    if name == "plan_scale":
        return PlanScale(quick)
    if name == "sim_fit":
        return SimTiers(name, 1.0, quick)
    if name == "sim_spill":
        return SimTiers(name, 0.25, quick)
    if name == "minidb_star":
        return MinidbStar(quick)
    if name == "service_mixed":
        return ServiceMixed(quick)
    raise SystemExit(f"unknown workload {name!r}")
