"""Command-line interface: ``repro-sc <subcommand>``.

Subcommands:

* ``optimize`` — read a dependency-graph JSON, write/print the S/C plan.
* ``simulate`` — run a plan (or optimize first) through the refresh
  simulator and print the timing summary + Gantt chart; ``--tier``
  arms the tiered spill store (``--tier ram:4 --tier ssd:8 --tier
  disk:inf``), ``--spill-codec zlib`` compresses the spill files (with
  decode-aware costing), ``--prefetch`` promotes spilled parents ahead
  of their consumers, and ``--tier-aware-plan`` lets the optimizer
  price flagging against those tiers.  The feedback loop:
  ``--adaptive-codec`` re-prices (or drops) the codec mid-run from
  measured spill ratios, ``--save-trace out.json`` persists the run,
  ``--feedback out.json`` plans the next run against that trace's
  *observed* tier costs, and ``--replan`` does both passes in one
  command (run, observe, re-plan, run again).
* ``workload`` — emit one of the paper's five workloads as graph JSON.
* ``bench`` — run one experiment driver by its id in
  :data:`repro.bench.EXPERIMENTS` (``bench --help`` lists them), or
  ``bench matrix CONFIG`` — the standing experiment orchestrator
  (:mod:`repro.bench.orchestrator`): expand a declarative TOML/JSON
  benchmark matrix, run every cell with bounded parallelism, per-trial
  timeout and crash isolation into a resumable run directory
  (``--resume DIR``, ``--retry-failed``), and aggregate it into a
  schema-valid ``BENCH_<date>.json`` plus a markdown report
  (``--report`` prints it).
* ``minidb`` — refresh a demo SQL workload on the real MiniDB backend;
  ``--spill-dir`` arms real spill-to-disk (``--spill-codec zlib``
  compresses the dumps for real), ``--ram-compressed GB`` inserts the
  compressed-in-RAM rung between the catalog and the disk tier
  (victims are encoded in memory, reads decode lazily), and
  ``--plan-tiers`` plans tier-aware against it.

* ``obs`` — observability reports: ``obs report TRACE`` itemizes a
  saved trace's seconds per stage (the Figure 3 axes plus the
  bounded-memory mechanics).

``simulate`` and ``minidb`` both accept ``--events PATH`` (record
span/instant/counter events; ``.jsonl`` gets the event log, anything
else a Chrome-trace JSON for ui.perfetto.dev), ``--metrics`` (print
the run's counters/gauges/histograms), and ``--profile PATH`` to dump
a cProfile of the whole run for offline analysis (``python -m
pstats``; a top-10 cumulative summary also lands on stderr).
The simulated tier stack accepts the same rung as a first tier:
``--tier ram-compressed:2 --tier ssd:8`` prices demotions at encode
cost only (no device transfer) and defaults the rung codec to the
fast ``zlib1`` preset.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from repro.bench import EXPERIMENTS
from repro.core.optimizer import OPTIMIZER_METHODS, optimize, plan_summary
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.errors import ValidationError
from repro.exec.base import SimulatorOptions, backend_names
from repro.graph.io import graph_from_json, graph_to_json
from repro.store.config import (
    SPILL_CODECS,
    CodecAdaptConfig,
    SpillConfig,
    parse_tier,
    resolve_codec,
)
from repro.store.policy import policy_help, policy_names
from repro.workloads.five_workloads import WORKLOAD_NAMES, build_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sc",
        description="S/C: speeding up data materialization with bounded "
                    "memory (ICDE 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="compute a refresh plan")
    p_opt.add_argument("graph", help="path to dependency-graph JSON")
    p_opt.add_argument("--memory", type=float, required=True,
                       help="Memory Catalog size (same unit as sizes)")
    p_opt.add_argument("--method", default="sc",
                       choices=sorted(OPTIMIZER_METHODS))
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--output", help="write plan JSON here "
                                        "(default: stdout)")

    p_sim = sub.add_parser("simulate", help="simulate a refresh run")
    p_sim.add_argument("graph", help="path to dependency-graph JSON")
    p_sim.add_argument("--memory", type=float,
                       help="RAM budget (or pass --tier ram:SIZE)")
    p_sim.add_argument("--method", default="sc",
                       choices=sorted(OPTIMIZER_METHODS) + ["lru"])
    p_sim.add_argument("--plan", help="optional pre-computed plan JSON")
    p_sim.add_argument("--seed", type=int, default=0)
    # minidb is excluded: it needs a SqlWorkload, which simulate's
    # graph-JSON input cannot provide (see the 'minidb' subcommand)
    graph_backends = sorted(set(backend_names()) - {"minidb"})
    p_sim.add_argument("--backend", choices=graph_backends,
                       help="execution backend (default: serial simulator;"
                            " 'parallel' runs the memory-bounded scheduler)")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker count for the parallel backend")
    p_sim.add_argument("--tier", action="append", default=[],
                       metavar="NAME:GB",
                       help="storage tier; repeat the flag once per tier, "
                            "hottest first (e.g. --tier ram:4 --tier ssd:8 "
                            "--tier disk:inf); any tier besides 'ram' arms "
                            "spill-to-disk")
    p_sim.add_argument("--spill-policy", default="cost",
                       choices=sorted(policy_names()),
                       help=f"victim-selection policy for spilling — "
                            f"{policy_help()}")
    p_sim.add_argument("--spill-codec", default="none",
                       choices=sorted(SPILL_CODECS),
                       help="compress spill files with this codec: tier "
                            "capacity is charged compressed bytes, "
                            "demotions pay an encode stage, read-backs "
                            "a decode stage (default: none; per-tier "
                            "override via --tier NAME:GB:CODEC)")
    p_sim.add_argument("--prefetch", action="store_true",
                       help="promote-ahead prefetching: promote spilled "
                            "parents of soon-to-run consumers back to "
                            "RAM during idle device time")
    p_sim.add_argument("--adaptive-codec", action="store_true",
                       help="mid-run codec re-pricing: measure the "
                            "realized compression of the first few "
                            "spills per tier, re-price the arbitration "
                            "cost model with the observed ratio, and "
                            "drop a codec that stops paying for itself")
    p_sim.add_argument("--adapt-samples", type=int, default=4,
                       metavar="K",
                       help="spilled tables to measure per tier before "
                            "the adaptive-codec decision (default: 4)")
    p_sim.add_argument("--feedback", metavar="TRACE.json",
                       help="plan against the observed tier costs of a "
                            "previous run's trace JSON (written with "
                            "--save-trace) instead of the modeled "
                            "presets; requires --tier")
    p_sim.add_argument("--save-trace", metavar="PATH",
                       help="write the run's RunTrace JSON here (the "
                            "input format of --feedback)")
    p_sim.add_argument("--replan", action="store_true",
                       help="two-pass feedback mode: execute the plan, "
                            "distill its observed tier costs, re-plan "
                            "against them, execute again, and report "
                            "both passes (requires --tier)")
    p_sim.add_argument("--no-promote", action="store_true",
                       help="leave spilled tables in their tier instead "
                            "of promoting them back to RAM after a read")
    p_sim.add_argument("--no-arbitration", action="store_true",
                       help="disable stall-vs-spill cost arbitration "
                            "(spill always wins, the pre-arbitration "
                            "behavior)")
    p_sim.add_argument("--tier-aware-plan", action="store_true",
                       help="price flagging against the spill tiers: the "
                            "optimizer fills an effective budget of RAM "
                            "plus each tier's capacity discounted by its "
                            "spill+promote cost per byte, and the plan "
                            "records each node's expected tier (requires "
                            "--tier)")
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII execution timeline")
    p_sim.add_argument("--events", metavar="PATH",
                       help="record span/instant/counter events and "
                            "write them here: a .jsonl suffix gets the "
                            "line-per-event log, anything else the "
                            "Chrome-trace JSON (load in ui.perfetto.dev "
                            "or chrome://tracing); with --replan only "
                            "the second pass is recorded")
    p_sim.add_argument("--metrics", action="store_true",
                       help="print the run's metrics registry "
                            "(counters/gauges/histograms) after the "
                            "summary")
    p_sim.add_argument("--profile", metavar="PATH",
                       help="dump a cProfile of the whole run to PATH "
                            "(inspect with python -m pstats)")

    p_wl = sub.add_parser("workload",
                          help="emit one of the paper's workloads")
    p_wl.add_argument("name", choices=sorted(WORKLOAD_NAMES))
    p_wl.add_argument("--scale-gb", type=float, default=100.0)
    p_wl.add_argument("--partitioned", action="store_true")
    p_wl.add_argument("--output", help="write graph JSON here")

    p_bench = sub.add_parser(
        "bench", help="run one paper experiment, or a benchmark matrix")
    p_bench.add_argument(
        "experiment", choices=[*EXPERIMENTS, "matrix"], metavar="ID",
        help=" ".join(
            [f"'{name}': {inspect.getdoc(driver).splitlines()[0]}"
             for name, driver in EXPERIMENTS.items()]
            + ["'matrix': run a declarative benchmark matrix from a "
               "config file."]).replace("%", "%%"))
    p_bench.add_argument("config", nargs="?",
                         help="matrix config (TOML or JSON; required "
                              "for 'matrix', e.g. "
                              "benchmarks/matrix_smoke.toml)")
    p_bench.add_argument("--run-dir", metavar="DIR",
                         help="matrix run directory (default: "
                              "matrix_runs/<config name>); holds "
                              "per-trial results, BENCH_<date>.json "
                              "and report.md")
    p_bench.add_argument("--resume", metavar="DIR",
                         help="continue an interrupted matrix in DIR: "
                              "cells with a stored terminal result are "
                              "not re-executed")
    p_bench.add_argument("--report", action="store_true",
                         help="print the matrix's markdown report "
                              "after the run")
    p_bench.add_argument("--jobs", type=int, metavar="N",
                         help="bounded trial parallelism (default: the "
                              "config's [run] jobs)")
    p_bench.add_argument("--date", metavar="YYYY-MM-DD",
                         help="snapshot date for BENCH_<date>.json "
                              "(default: today)")
    p_bench.add_argument("--inject-fail", action="append", default=[],
                         metavar="PATTERN",
                         help="fail every trial whose id contains "
                              "PATTERN (exercises crash isolation: the "
                              "cell reports failed, the run completes)")
    p_bench.add_argument("--retry-failed", action="store_true",
                         help="with --resume: re-execute failed/timeout "
                              "cells (ok cells are never re-run)")

    p_db = sub.add_parser(
        "minidb", help="refresh a demo SQL workload on the real MiniDB")
    p_db.add_argument("--memory", type=float, required=True,
                      help="RAM budget in GB for the memory catalog")
    p_db.add_argument("--rows", type=int, default=120_000,
                      help="base-table rows of the demo workload")
    p_db.add_argument("--data-dir",
                      help="MiniDB storage directory (default: a "
                           "temporary directory)")
    p_db.add_argument("--spill-dir",
                      help="arm real spill-to-disk into this directory")
    p_db.add_argument("--ram-compressed", type=float, default=0.0,
                      metavar="GB",
                      help="insert a compressed-in-RAM rung of this many "
                           "GB (of stored, compressed bytes) between the "
                           "catalog and the disk tier: victims are "
                           "encoded in memory (default codec zlib1) and "
                           "decoded lazily on first read; requires "
                           "--spill-dir for the overflow tier")
    p_db.add_argument("--spill-policy", default="cost",
                      choices=sorted(policy_names()),
                      help=f"victim-selection policy for spilling — "
                           f"{policy_help()}")
    p_db.add_argument("--spill-codec", default="none",
                      choices=sorted(SPILL_CODECS),
                      help="compress the spill dumps for real and charge "
                           "the spill tier the measured on-disk bytes: "
                           "a victim whose background write already "
                           "encoded it is dumped as that blob, one "
                           "still queued is encoded with this codec, "
                           "once, for dump and warehouse both "
                           "(default: none — stream the raw columns)")
    p_db.add_argument("--adaptive-codec", action="store_true",
                      help="mid-run codec re-pricing from the measured "
                           "on-disk ratios of the first dumps; a codec "
                           "that stops paying for itself is dropped "
                           "for the rest of the run")
    p_db.add_argument("--plan-memory", type=float,
                      help="optimize the plan for this budget instead of "
                           "--memory (a bigger machine's plan, executed "
                           "under the smaller RAM budget)")
    p_db.add_argument("--plan-tiers", action="store_true",
                      help="tier-aware planning: price flagging against "
                           "the spill tier and print each flagged MV's "
                           "expected tier (requires --spill-dir)")
    p_db.add_argument("--method", default="sc",
                      choices=sorted(OPTIMIZER_METHODS))
    p_db.add_argument("--seed", type=int, default=0)
    p_db.add_argument("--events", metavar="PATH",
                      help="record span/instant/counter events and "
                           "write them here (.jsonl: event log; "
                           "otherwise Chrome-trace JSON for "
                           "ui.perfetto.dev / chrome://tracing)")
    p_db.add_argument("--metrics", action="store_true",
                      help="print the run's metrics registry after "
                           "the summary")
    p_db.add_argument("--profile", metavar="PATH",
                      help="dump a cProfile of the whole run to PATH "
                           "(inspect with python -m pstats)")

    p_obs = sub.add_parser(
        "obs", help="observability reports over saved run traces")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report",
        help="per-stage attribution table (the Figure 3 axes itemized) "
             "from a RunTrace JSON written with simulate --save-trace")
    p_obs_report.add_argument("trace",
                              help="path to a RunTrace JSON")

    p_exp = sub.add_parser(
        "explain", help="explain a plan's flag decisions node by node")
    p_exp.add_argument("graph", help="path to dependency-graph JSON")
    p_exp.add_argument("--memory", type=float, required=True)
    p_exp.add_argument("--method", default="sc",
                       choices=sorted(OPTIMIZER_METHODS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--no-profile", action="store_true",
                       help="skip the occupancy chart")

    p_pipe = sub.add_parser(
        "pipeline", help="optimize a generic ETL pipeline spec")
    p_pipe.add_argument("spec", help="path to pipeline-spec JSON")
    p_pipe.add_argument("--memory", type=float, required=True)
    p_pipe.add_argument("--method", default="sc",
                        choices=sorted(OPTIMIZER_METHODS))
    p_pipe.add_argument("--simulate", action="store_true",
                        help="also simulate the optimized schedule")

    p_srv = sub.add_parser(
        "serve",
        help="open-loop multi-tenant serving demo over one shared "
             "ledger: Poisson request arrivals, per-tenant p50/p99, "
             "shared-ledger invariant audit (non-zero exit on any "
             "violation — this is the CI smoke gate)")
    p_srv.add_argument("--workload", default="io1",
                       choices=sorted(WORKLOAD_NAMES))
    p_srv.add_argument("--scale-gb", type=float, default=20.0,
                       help="workload scale in GB (default 20)")
    p_srv.add_argument("--ram-fraction", type=float, default=0.25,
                       help="RAM budget as a fraction of the workload's "
                            "total size (default 0.25)")
    p_srv.add_argument("--tenants", type=int, default=2,
                       help="tenant count; RAM shares split evenly, "
                            "priorities descend (default 2)")
    p_srv.add_argument("--requests", type=int, default=12,
                       help="total requests across all tenants")
    p_srv.add_argument("--arrival-rate", type=float, default=4.0,
                       help="Poisson arrival rate, requests per wall "
                            "second (default 4)")
    p_srv.add_argument("--max-concurrent", type=int, default=8)
    p_srv.add_argument("--time-scale", type=float, default=1e-4,
                       help="wall seconds per modeled second")
    p_srv.add_argument("--deadline", type=float, default=None,
                       help="per-request wall deadline in seconds")
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--method", default="sc",
                       choices=sorted(OPTIMIZER_METHODS))

    return parser


def _load_graph(path: str):
    with open(path, encoding="utf-8") as handle:
        return graph_from_json(handle.read())


def _cmd_optimize(args) -> int:
    graph = _load_graph(args.graph)
    problem = ScProblem(graph=graph, memory_budget=args.memory)
    result = optimize(problem, method=args.method, seed=args.seed)
    payload = {
        "plan": result.plan.to_dict(),
        "summary": plan_summary(problem, result),
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def _spill_setup(args) -> tuple[float, SpillConfig | None]:
    """Resolve (ram_budget, spill config) from --memory/--tier flags."""
    specs = [parse_tier(text) for text in args.tier]
    ram = [spec for spec in specs if spec.name == "ram"]
    lower = tuple(spec for spec in specs if spec.name != "ram")
    if len(ram) > 1:
        raise ValidationError("pass at most one 'ram' tier")
    if ram and args.memory is not None:
        raise ValidationError(
            "pass the RAM budget once: either --memory or --tier ram:SIZE")
    if ram:
        memory = ram[0].budget
    elif args.memory is not None:
        memory = args.memory
    else:
        raise ValidationError(
            "a RAM budget is required: --memory or --tier ram:SIZE")
    if not lower:
        return memory, None
    adapt = (CodecAdaptConfig(samples=args.adapt_samples)
             if args.adaptive_codec else None)
    # the rung counts: a ram-compressed tier defaults to zlib1 even
    # without an explicit codec, so resolve per-tier before deciding
    # that there is "nothing to adapt"
    config_default = resolve_codec(args.spill_codec)
    if adapt is not None and not any(
            spec.resolved_codec(config_default).ratio > 1.0
            for spec in lower):
        raise ValidationError(
            "--adaptive-codec has nothing to adapt: every tier stores "
            "raw; add --spill-codec zlib (or a per-tier NAME:GB:CODEC)")
    return memory, SpillConfig(tiers=lower, policy=args.spill_policy,
                               promote=not args.no_promote,
                               arbitrate=not args.no_arbitration,
                               codec=args.spill_codec,
                               prefetch=args.prefetch,
                               adapt=adapt)


def _make_bus(args):
    """An EventBus when --events/--metrics asked for one, else None
    (backends then default to the zero-overhead NULL_BUS)."""
    if not (getattr(args, "events", None) or getattr(args, "metrics",
                                                     False)):
        return None
    from repro.obs.events import EventBus

    return EventBus()


def _emit_observability(args, bus) -> None:
    """Write --events output (format by extension) and print --metrics."""
    if bus is None:
        return
    if args.events:
        if args.events.endswith(".jsonl"):
            from repro.obs.export import events_to_jsonl

            events_to_jsonl(bus.events, args.events)
            note = "JSONL event log"
        else:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(bus.events, args.events)
            note = "Chrome trace; load in ui.perfetto.dev"
        print(f"events:            {args.events} "
              f"({len(bus.events)} events, {note})", file=sys.stderr)
    if args.metrics:
        print()
        print("=== metrics ===")
        print(bus.metrics.render())


def _print_spill_stats(trace) -> None:
    report = trace.extras.get("tiered_store")
    if not report:
        return
    print(f"spills:            {report['spill_count']} "
          f"({report['spill_bytes_gb']:.3f} GB) "
          f"[policy {report['policy']}]")
    bypasses = report.get("demote_bypass_count", 0)
    if bypasses:
        print(f"demote bypasses:   {bypasses} "
              f"(demotions that skipped past a full middle tier)")
    codec = report.get("codec", "none")
    if codec != "none":
        observed = report.get("observed_codec_ratio")
        # None means no spill carried ratio data — print n/a, never
        # 0.0, so "no data" stays distinct from "incompressible" (1.0)
        note = "n/a (no spills)" if observed is None else f"{observed:.2f}x"
        print(f"spill codec:       {codec} "
              f"({report['spill_stored_gb']:.3f} GB stored of "
              f"{report['spill_bytes_gb']:.3f} GB logical, "
              f"observed ratio {note})")
    for record in report.get("codec_adapt", {}).get("tiers", {}).values():
        action = (f"switched to {record['switched_to']}"
                  if record["switched_to"] else
                  "repriced" if record["repriced"] else "kept")
        print(f"codec adapt:       tier {record['tier']} {record['codec']} "
              f"x{record['nominal_ratio']:g} -> observed "
              f"x{record['observed_ratio']:.2f} after "
              f"{record['samples']} spills: {action}")
    print(f"promotes:          {report['promote_count']} "
          f"({report['promote_bytes_gb']:.3f} GB)")
    print(f"spill/promote t:   {trace.spill_time:.3f} s")
    arbitration = report.get("arbitration", {})
    if arbitration.get("enabled"):
        print(f"arbitration:       {arbitration['stall_wins']} stalls / "
              f"{arbitration['spill_wins']} spills chosen "
              f"(avoided {arbitration['avoided_spill_seconds']:.3f} s "
              f"of spill)")
    prefetch = report.get("prefetch", {})
    if prefetch.get("enabled"):
        print(f"prefetch:          {prefetch['count']} hits / "
              f"{prefetch['misses']} misses "
              f"({prefetch['bytes_gb']:.3f} GB promoted ahead, "
              f"{prefetch['hidden_seconds']:.3f} s hidden in idle "
              f"time)")
    for tier in report["tiers"]:
        budget = ("unbounded" if tier["budget"] == float("inf")
                  else f"{tier['budget']:.3f}")
        codec_note = (f" [{tier['codec']} x{tier['codec_ratio']:g}]"
                      if tier.get("codec", "none") != "none" else "")
        print(f"  tier {tier['name']:<10s} peak {tier['peak']:9.3f} "
              f"/ {budget}{codec_note}")


def _print_run_summary(args, plan, trace) -> None:
    print(f"method:            {args.method}")
    if plan is not None and plan.expected_tiers:
        from collections import Counter

        counts = Counter(plan.tier_map().values())
        planned = ", ".join(f"{name}: {n}"
                            for name, n in sorted(counts.items()))
        print(f"planned tiers:     {planned} "
              f"({len(plan.flagged)}/{len(plan.order)} flagged)")
    if args.backend:
        print(f"backend:           {args.backend} "
              f"(workers={args.workers})")
    print(f"end-to-end time:   {trace.end_to_end_time:.3f} s")
    print(f"table read:        {trace.table_read_latency:.3f} s "
          f"(disk {trace.table_read_disk_latency:.3f} s)")
    print(f"compute:           {trace.compute_latency:.3f} s")
    print(f"blocking write:    {trace.write_latency:.3f} s")
    print(f"stall:             {trace.stall_time:.3f} s")
    print(f"peak catalog use:  {trace.peak_catalog_usage:.3f} "
          f"/ {trace.memory_budget:.3f}")
    _print_spill_stats(trace)


def _cmd_simulate(args) -> int:
    graph = _load_graph(args.graph)
    try:
        memory, spill = _spill_setup(args)
        if spill is not None and ("lru" in (args.method, args.backend)):
            raise ValidationError(
                "the LRU baseline does not support storage tiers; drop "
                "--tier or pick another method/backend")
        if args.tier_aware_plan and spill is None:
            raise ValidationError(
                "--tier-aware-plan needs spill tiers; add --tier "
                "(e.g. --tier ssd:8 --tier disk:inf)")
        if args.tier_aware_plan and args.plan:
            raise ValidationError(
                "--tier-aware-plan optimizes a fresh plan; drop --plan "
                "or pass a plan that was already tier-aware")
        if (args.feedback or args.replan) and spill is None:
            raise ValidationError(
                "feedback planning needs spill tiers; add --tier "
                "(e.g. --tier ssd:8 --tier disk:inf)")
        if args.feedback and args.plan:
            raise ValidationError(
                "--feedback optimizes a fresh plan from observed "
                "costs; drop --plan")
        if args.feedback and args.tier_aware_plan:
            raise ValidationError(
                "--feedback already plans tier-aware (against observed "
                "costs); drop --tier-aware-plan")
    except ValidationError as exc:
        # bad flag combinations keep argparse's usage-error contract
        print(f"repro-sc simulate: error: {exc}", file=sys.stderr)
        return 2
    bus = _make_bus(args)
    controller = Controller(options=SimulatorOptions(spill=spill),
                            bus=bus)
    plan = None
    if args.plan:
        with open(args.plan, encoding="utf-8") as handle:
            plan = Plan.from_json(handle.read())
    elif args.feedback:
        from repro.engine.trace import RunTrace
        from repro.feedback import CostFeedback

        with open(args.feedback, encoding="utf-8") as handle:
            observed = RunTrace.from_json(handle.read())
        try:
            feedback = CostFeedback.from_trace(observed)
        except ValidationError as exc:
            print(f"repro-sc simulate: error: {exc}", file=sys.stderr)
            return 2
        plan = controller.plan(graph, memory, method=args.method,
                               seed=args.seed, feedback=feedback)
    elif args.tier_aware_plan:
        plan = controller.plan(graph, memory, method=args.method,
                               seed=args.seed, tier_aware=True)
    trace = controller.refresh(graph, memory, method=args.method,
                               seed=args.seed, plan=plan,
                               backend=args.backend, workers=args.workers)
    if args.replan:
        print("=== pass 1 (pre-feedback) ===")
    _print_run_summary(args, plan, trace)
    if args.replan:
        plan = controller.replan_from_trace(graph, trace, memory,
                                            method=args.method,
                                            seed=args.seed)
        first = trace
        if bus is not None:
            # record only the replanned pass: one bus spans one run
            bus.clear()
            bus.rebase()
        trace = controller.refresh(graph, memory, method=args.method,
                                   seed=args.seed, plan=plan,
                                   backend=args.backend,
                                   workers=args.workers)
        print()
        print("=== pass 2 (replanned from observed costs) ===")
        _print_run_summary(args, plan, trace)
        delta = first.end_to_end_time - trace.end_to_end_time
        print(f"replan gain:       {delta:+.3f} s "
              f"({100 * delta / first.end_to_end_time:.1f}% of pass 1)"
              if first.end_to_end_time > 0 else "replan gain:       n/a")
    if args.save_trace:
        with open(args.save_trace, "w", encoding="utf-8") as handle:
            handle.write(trace.to_json())
    _emit_observability(args, bus)
    if args.gantt:
        print()
        print(trace.gantt())
    return 0


def _cmd_workload(args) -> int:
    graph = build_workload(args.name, scale_gb=args.scale_gb,
                           partitioned=args.partitioned)
    text = graph_to_json(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def _cmd_bench(args) -> int:
    if args.experiment == "matrix":
        return _cmd_bench_matrix(args)
    if args.config:
        print("repro-sc bench: error: a config file only applies to "
              "'bench matrix'", file=sys.stderr)
        return 2
    result = EXPERIMENTS[args.experiment]()
    print(result.render())
    return 0


def _cmd_bench_matrix(args) -> int:
    import pathlib

    from repro.bench.experiment import load_config
    from repro.bench.orchestrator import run_matrix

    if not args.config:
        print("repro-sc bench matrix: error: a config file is required "
              "(e.g. benchmarks/matrix_smoke.toml)", file=sys.stderr)
        return 2
    if args.run_dir and args.resume:
        print("repro-sc bench matrix: error: pass --run-dir for a "
              "fresh run or --resume DIR to continue one, not both",
              file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
        if args.resume:
            run_dir = args.resume
        elif args.run_dir:
            run_dir = args.run_dir
        else:
            run_dir = str(pathlib.Path("matrix_runs") / config.name)
        run = run_matrix(
            config, run_dir, jobs=args.jobs, resume=bool(args.resume),
            date=args.date, fail_matching=tuple(args.inject_fail),
            retry_failed=args.retry_failed,
            progress=lambda message: print(message, file=sys.stderr))
    except ValidationError as exc:
        print(f"repro-sc bench matrix: error: {exc}", file=sys.stderr)
        return 2
    print(run.summary())
    if run.bench_path:
        print(f"snapshot: {run.bench_path}")
        print(f"report:   {run.report_path}")
    if args.report and run.report_path:
        print()
        with open(run.report_path, encoding="utf-8") as handle:
            print(handle.read())
    if run.interrupted:
        return 130
    return 0


def _run_minidb(args, data_dir: str, bus=None):
    from repro.db.engine import demo_workload

    workload = demo_workload(data_dir, rows=args.rows, seed=args.seed)
    profiled = workload.profile()
    adapt = CodecAdaptConfig() if args.adaptive_codec else None
    controller = Controller(spill_dir=args.spill_dir,
                            ram_compressed_gb=args.ram_compressed,
                            spill=SpillConfig(policy=args.spill_policy,
                                              codec=args.spill_codec,
                                              adapt=adapt),
                            bus=bus)
    plan_memory = (args.memory if args.plan_memory is None
                   else args.plan_memory)
    plan = controller.plan_for_minidb(profiled, plan_memory,
                                      method=args.method, seed=args.seed,
                                      tier_aware=args.plan_tiers)
    trace = controller.refresh_on_minidb(
        workload, args.memory, method=args.method, seed=args.seed,
        plan=plan)
    return plan, trace


def _cmd_minidb(args) -> int:
    if args.plan_tiers and not args.spill_dir:
        print("repro-sc minidb: error: --plan-tiers needs --spill-dir "
              "(the extra flags would degrade to blocking writes)",
              file=sys.stderr)
        return 2
    if args.ram_compressed and not args.spill_dir:
        print("repro-sc minidb: error: --ram-compressed needs "
              "--spill-dir (the rung overflows into the disk tier)",
              file=sys.stderr)
        return 2
    # a rung always has a codec (default zlib1), so with --ram-compressed
    # there is something to adapt even under --spill-codec none
    if (args.adaptive_codec and args.spill_codec == "none"
            and not args.ram_compressed):
        print("repro-sc minidb: error: --adaptive-codec has nothing to "
              "adapt with --spill-codec none; add --spill-codec zlib "
              "or arm the rung with --ram-compressed",
              file=sys.stderr)
        return 2
    if args.adaptive_codec and not args.spill_dir:
        print("repro-sc minidb: error: --adaptive-codec needs "
              "--spill-dir (without it the run never spills, so there "
              "is nothing to measure)", file=sys.stderr)
        return 2
    bus = _make_bus(args)
    if args.data_dir:
        plan, trace = _run_minidb(args, args.data_dir, bus=bus)
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            plan, trace = _run_minidb(args, f"{scratch}/warehouse",
                                      bus=bus)
    print(f"method:            {args.method} "
          f"({len(plan.flagged)}/{len(plan.order)} MVs flagged)")
    if plan.expected_tiers:
        for node, tier in plan.expected_tiers:
            print(f"  planned tier:    {node:<16s} -> {tier}")
    print(f"end-to-end time:   {trace.end_to_end_time:.3f} s")
    print(f"table read:        {trace.table_read_latency:.3f} s")
    print(f"compute:           {trace.compute_latency:.3f} s")
    print(f"blocking write:    {trace.write_latency:.3f} s")
    print(f"stall:             {trace.stall_time:.3f} s")
    print(f"peak catalog use:  {trace.peak_catalog_usage:.6f} "
          f"/ {trace.memory_budget:.6f} GB")
    _print_spill_stats(trace)
    _emit_observability(args, bus)
    return 0


def _cmd_obs(args) -> int:
    from repro.engine.trace import RunTrace
    from repro.obs.report import attribution_table

    with open(args.trace, encoding="utf-8") as handle:
        trace = RunTrace.from_json(handle.read())
    print(attribution_table(trace))
    return 0


def _cmd_explain(args) -> int:
    from repro.viz.explain import explain_plan

    graph = _load_graph(args.graph)
    problem = ScProblem(graph=graph, memory_budget=args.memory)
    result = optimize(problem, method=args.method, seed=args.seed)
    print(explain_plan(problem, result.plan,
                       include_profile=not args.no_profile))
    return 0


def _cmd_pipeline(args) -> int:
    from repro.etl.planner import plan_pipeline, simulate_schedule
    from repro.etl.spec import PipelineSpec

    with open(args.spec, encoding="utf-8") as handle:
        spec = PipelineSpec.from_json(handle.read())
    schedule = plan_pipeline(spec, memory_budget_gb=args.memory,
                             method=args.method)
    print(schedule.render())
    if args.simulate:
        trace = simulate_schedule(spec, schedule)
        print()
        print(f"simulated end-to-end time: "
              f"{trace.end_to_end_time:.3f} s")
    return 0


def _cmd_serve(args) -> int:
    """Open-loop serving demo + the CI smoke gate (exit 1 on any
    shared-ledger invariant violation)."""
    import asyncio
    import random

    from repro.serve.service import TenantSpec, percentile
    from repro.store.config import TierSpec

    graph = build_workload(args.workload, scale_gb=args.scale_gb)
    memory = args.ram_fraction * graph.total_size()
    controller = Controller(spill=SpillConfig(tiers=(TierSpec("disk"),)))
    plan = controller.plan(graph, memory, method=args.method,
                           seed=args.seed)
    names = [f"tenant-{i}" for i in range(args.tenants)]
    tenants = [TenantSpec(name, share=1.0 / args.tenants,
                          priority=args.tenants - i)
               for i, name in enumerate(names)]
    service = controller.create_service(
        memory, tenants, queue_limit=max(args.requests, 1),
        max_concurrent=args.max_concurrent, time_scale=args.time_scale,
        deadline_s=args.deadline)
    rng = random.Random(args.seed)

    async def _open_loop():
        async with service as svc:
            handles = []
            for i in range(args.requests):
                await asyncio.sleep(
                    rng.expovariate(args.arrival_rate))
                handles.append(await svc.submit(
                    graph, plan, tenant=names[i % len(names)]))
            return [await handle for handle in handles]

    results = asyncio.run(_open_loop())
    print(f"workload {args.workload} @ {args.scale_gb:g} GB, "
          f"RAM {memory:.2f} GB ({args.ram_fraction:g} of total), "
          f"{args.tenants} tenants, {len(results)} requests")
    print(f"{'tenant':<12} {'ok':>3} {'other':>5} "
          f"{'p50 (s)':>9} {'p99 (s)':>9}")
    for name in names:
        latencies = [r.latency_s for r in results
                     if r.tenant == name and r.status == "ok"]
        other = sum(1 for r in results
                    if r.tenant == name and r.status != "ok")
        p50 = f"{percentile(latencies, 50):9.3f}" if latencies else "        -"
        p99 = f"{percentile(latencies, 99):9.3f}" if latencies else "        -"
        print(f"{name:<12} {len(latencies):>3} {other:>5} {p50} {p99}")
    violations = service.audit()
    bad = {key: value for key, value in violations.items() if value}
    if bad:
        print(f"INVARIANT VIOLATIONS: {bad}", file=sys.stderr)
        return 1
    print("shared-ledger audit: clean (no leaked holds, no negative "
          "balances, tenant usage sums to ledger usage)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "optimize": _cmd_optimize,
        "simulate": _cmd_simulate,
        "workload": _cmd_workload,
        "bench": _cmd_bench,
        "minidb": _cmd_minidb,
        "obs": _cmd_obs,
        "explain": _cmd_explain,
        "pipeline": _cmd_pipeline,
        "serve": _cmd_serve,
    }
    handler = handlers[args.command]
    profile_path = getattr(args, "profile", None)
    if not profile_path:
        return handler(args)
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = handler(args)
    finally:
        profiler.disable()
        profiler.dump_stats(profile_path)
        import pstats

        print(f"profile:           {profile_path} "
              f"(python -m pstats {profile_path})", file=sys.stderr)
        print("top 10 by cumulative time:", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(10)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
