"""Command-line interface: ``repro-sc <subcommand>`` (``--help`` lists
them, ``<subcommand> --help`` their flags).

A thin shell over :class:`~repro.engine.controller.Controller`: each
subcommand parses its flags, calls the library and prints the result.
The library owns the run-configuration rules; the
:class:`~repro.errors.ValidationError` one of them raises is printed as
``repro-sc <command>: error: <message>`` and exits with status 2.  What
stays here are the rules about the flags themselves: one RAM budget
(``--memory`` or ``--tier ram:SIZE``), a config file only for ``bench
matrix``, and ``--adaptive-codec`` only over a hierarchy with a tier
that compresses.
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys
from collections import Counter
from functools import partial

from repro.bench import EXPERIMENTS
from repro.core.optimizer import OPTIMIZER_METHODS, optimize, plan_summary
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.errors import GraphError, ValidationError
from repro.exec.base import backend_names
from repro.graph.io import graph_from_json, graph_to_json
from repro.store.config import (
    SPILL_CODECS,
    CodecAdaptConfig,
    SpillConfig,
    minidb_spill_config,
    parse_tier,
)
from repro.store.policy import POLICIES
from repro.workloads.five_workloads import WORKLOAD_NAMES, build_workload


def _run_flags(methods: list[str]) -> argparse.ArgumentParser:
    """The flags ``simulate`` and ``minidb`` share, as an argparse
    parent (only ``simulate`` offers the plan-free ``lru`` method)."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--method", default="sc", choices=methods)
    run.add_argument("--seed", type=int, default=0)
    policies = "; ".join(f"'{name}': {summary}"
                         for name, (_, summary) in sorted(POLICIES.items()))
    run.add_argument("--spill-policy", default="cost",
                     choices=sorted(POLICIES),
                     help=f"victim-selection policy for spilling — "
                          f"{policies}")
    run.add_argument("--spill-codec", default="none",
                     choices=sorted(SPILL_CODECS),
                     help="compress what spills with this codec: the "
                          "tier is charged the stored bytes, a demotion "
                          "pays an encode, a read-back a decode "
                          "(default: none — raw dumps; simulate: "
                          "per-tier override via --tier NAME:GB:CODEC)")
    run.add_argument("--adaptive-codec", action="store_true",
                     help="mid-run codec re-pricing: measure the "
                          "realized compression of the first spills per "
                          "tier, re-price the stall-vs-spill cost model "
                          "with the observed ratio, and drop a codec "
                          "that stops paying for itself")
    run.add_argument("--events", metavar="PATH",
                     help="record span/instant/counter events and write "
                          "them here: a .jsonl suffix gets the "
                          "line-per-event log, anything else the "
                          "Chrome-trace JSON (load in ui.perfetto.dev or "
                          "chrome://tracing); with --replan only the "
                          "second pass is recorded")
    run.add_argument("--metrics", action="store_true",
                     help="print the run's metrics "
                          "(counters/gauges/histograms) after the "
                          "summary")
    run.add_argument("--profile", metavar="PATH",
                     help="dump a cProfile of the whole run to PATH "
                          "(inspect with python -m pstats)")
    return run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sc",
        description="S/C: speeding up data materialization with bounded "
                    "memory (ICDE 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="compute a refresh plan")
    p_opt.set_defaults(handler=_cmd_optimize)
    p_opt.add_argument("graph", help="path to dependency-graph JSON")
    p_opt.add_argument("--memory", type=float, required=True,
                       help="Memory Catalog size (same unit as sizes)")
    p_opt.add_argument("--method", default="sc",
                       choices=sorted(OPTIMIZER_METHODS))
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--output", help="write plan JSON here "
                                        "(default: stdout)")

    p_sim = sub.add_parser(
        "simulate", help="simulate a refresh run",
        parents=[_run_flags(sorted(OPTIMIZER_METHODS) + ["lru"])])
    p_sim.set_defaults(handler=_cmd_simulate)
    p_sim.add_argument("graph", help="path to dependency-graph JSON")
    p_sim.add_argument("--memory", type=float,
                       help="RAM budget (or pass --tier ram:SIZE)")
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
                            "spill-to-disk; a first 'ram-compressed' tier "
                            "is the compressed-in-RAM rung (codec zlib1 "
                            "unless one is given)")
    p_sim.add_argument("--prefetch", action="store_true",
                       help="promote-ahead prefetching: promote spilled "
                            "parents of soon-to-run consumers back to "
                            "RAM during idle device time")
    p_sim.add_argument("--adapt-samples", type=int, default=4,
                       metavar="K",
                       help="spilled tables to measure per tier before "
                            "the adaptive-codec decision (default: 4)")
    sources = p_sim.add_mutually_exclusive_group()
    sources.add_argument("--plan", help="optional pre-computed plan JSON")
    sources.add_argument("--feedback", metavar="TRACE.json",
                         help="plan against the observed tier costs of a "
                              "previous run's trace JSON (written with "
                              "--save-trace) instead of the modeled "
                              "presets; requires --tier")
    sources.add_argument("--tier-aware-plan", action="store_true",
                         help="price flagging against the spill tiers: "
                              "the optimizer fills an effective budget of "
                              "RAM plus each tier's capacity discounted by "
                              "its spill+promote cost per byte, and the "
                              "plan records each node's expected tier "
                              "(requires --tier)")
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
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII execution timeline")

    p_wl = sub.add_parser("workload",
                          help="emit one of the paper's workloads")
    p_wl.set_defaults(handler=_cmd_workload)
    p_wl.add_argument("name", choices=sorted(WORKLOAD_NAMES))
    p_wl.add_argument("--scale-gb", type=float, default=100.0)
    p_wl.add_argument("--partitioned", action="store_true")
    p_wl.add_argument("--output", help="write graph JSON here")

    p_bench = sub.add_parser(
        "bench", help="run one paper experiment, or a benchmark matrix")
    p_bench.set_defaults(handler=_cmd_bench)
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
        "minidb", help="refresh a demo SQL workload on the real MiniDB",
        parents=[_run_flags(sorted(OPTIMIZER_METHODS))])
    p_db.set_defaults(handler=_cmd_minidb)
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
    p_db.add_argument("--plan-memory", type=float,
                      help="optimize the plan for this budget instead of "
                           "--memory (a bigger machine's plan, executed "
                           "under the smaller RAM budget)")
    p_db.add_argument("--plan-tiers", action="store_true",
                      help="tier-aware planning: price flagging against "
                           "the spill tier and print each flagged MV's "
                           "expected tier (requires --spill-dir)")

    p_obs = sub.add_parser(
        "obs", help="observability reports over saved run traces")
    p_obs.set_defaults(handler=_cmd_obs)
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report",
        help="per-stage attribution table (the Figure 3 axes itemized) "
             "from a RunTrace JSON written with simulate --save-trace")
    p_obs_report.add_argument("trace",
                              help="path to a RunTrace JSON")

    p_exp = sub.add_parser(
        "explain", help="explain a plan's flag decisions node by node")
    p_exp.set_defaults(handler=_cmd_explain)
    p_exp.add_argument("graph", help="path to dependency-graph JSON")
    p_exp.add_argument("--memory", type=float, required=True)
    p_exp.add_argument("--method", default="sc",
                       choices=sorted(OPTIMIZER_METHODS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--no-profile", action="store_true",
                       help="skip the occupancy chart")

    p_srv = sub.add_parser(
        "serve",
        help="open-loop multi-tenant serving demo over one shared "
             "ledger: Poisson request arrivals, per-tenant p50/p99, "
             "shared-ledger invariant audit (non-zero exit on any "
             "violation — this is the CI smoke gate)")
    p_srv.set_defaults(handler=_cmd_serve)
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


def _read(path: str) -> str:
    return pathlib.Path(path).read_text(encoding="utf-8")


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    else:
        print(text)


def _read_plan(path: str, graph) -> Plan:
    """The plan in ``path``, a file ``optimize --output`` wrote for
    ``graph``: ``{"plan": ..., "summary": ...}`` is the one plan-file
    format."""
    try:
        plan = Plan.from_dict(json.loads(_read(path))["plan"])
        plan.validate_against(graph)
    except (ValueError, LookupError, TypeError, AttributeError,
            GraphError) as exc:
        raise ValidationError(
            f"{path} is not a plan `optimize --output` wrote for this "
            f"graph ({type(exc).__name__}: {exc})") from None
    return plan


def _cmd_optimize(args) -> int:
    problem = ScProblem(graph=graph_from_json(_read(args.graph)),
                        memory_budget=args.memory)
    result = optimize(problem, method=args.method, seed=args.seed)
    _write_or_print(json.dumps({"plan": result.plan.to_dict(),
                                "summary": plan_summary(problem, result)},
                               indent=2), args.output)
    return 0


def _check_adaptable(spill: SpillConfig) -> None:
    """``--adaptive-codec`` needs a tier of the hierarchy that will run
    which compresses (a ``ram-compressed`` rung does by default).  A
    usage rule, not a library one: a raw hierarchy may arm adaptation."""
    if spill.adapt is not None and all(
            tier.resolved_codec(spill.codec).ratio <= 1.0
            for tier in spill.tiers):
        raise ValidationError(
            "--adaptive-codec has nothing to adapt: every tier stores "
            "raw; pick a compressing --spill-codec (e.g. zlib)")


def _spill_setup(args) -> tuple[float, SpillConfig | None]:
    """Resolve (ram_budget, spill config) from --memory/--tier flags."""
    specs = [parse_tier(text) for text in args.tier]
    ram = [spec.budget for spec in specs if spec.name == "ram"]
    lower = tuple(spec for spec in specs if spec.name != "ram")
    if len(ram) + (args.memory is not None) != 1:
        raise ValidationError(
            "pass the RAM budget once: --memory or --tier ram:SIZE")
    memory = ram[0] if ram else args.memory
    if not lower:
        return memory, None
    spill = SpillConfig(
        tiers=lower, policy=args.spill_policy, promote=not args.no_promote,
        arbitrate=not args.no_arbitration, codec=args.spill_codec,
        prefetch=args.prefetch,
        adapt=(CodecAdaptConfig(samples=args.adapt_samples)
               if args.adaptive_codec else None))
    _check_adaptable(spill)
    return memory, spill


def _make_bus(args):
    """An EventBus when --events/--metrics asked for one, else None
    (backends then default to the zero-overhead NULL_BUS)."""
    if not (args.events or args.metrics):
        return None
    from repro.obs.events import EventBus

    return EventBus()


def _emit_observability(args, bus, trace) -> None:
    """Write --events output (format by extension) and print --metrics
    (read off ``trace`` and the bus's events)."""
    if bus is None:
        return
    if args.events:
        from repro.obs.export import events_to_jsonl, write_chrome_trace

        if args.events.endswith(".jsonl"):
            events_to_jsonl(bus.events, args.events)
            note = "JSONL event log"
        else:
            write_chrome_trace(bus.events, args.events)
            note = "Chrome trace; load in ui.perfetto.dev"
        print(f"events:            {args.events} "
              f"({len(bus.events)} events, {note})", file=sys.stderr)
    if args.metrics:
        from repro.obs.report import metrics_table

        print()
        print("=== metrics ===")
        print(metrics_table(trace, bus.events))


def _print_spill_stats(trace) -> None:
    report = trace.tier_report()
    if report is None:
        return
    print(f"spills:            {report.spill_count} "
          f"({report.spill_bytes_gb:.3f} GB) "
          f"[policy {report.policy}]")
    if report.demote_bypass_count:
        print(f"demote bypasses:   {report.demote_bypass_count} "
              f"(demotions that skipped past a full middle tier)")
    if report.codec != "none":
        observed = report.observed_codec_ratio
        # None means no spill carried ratio data — print n/a, never
        # 0.0, so "no data" stays distinct from "incompressible" (1.0)
        note = "n/a (no spills)" if observed is None else f"{observed:.2f}x"
        print(f"spill codec:       {report.codec} "
              f"({report.spill_stored_gb:.3f} GB stored of "
              f"{report.spill_bytes_gb:.3f} GB logical, "
              f"observed ratio {note})")
    for record in report.codec_adapt.tiers.values():
        action = (f"switched to {record.switched_to}"
                  if record.switched_to else
                  "repriced" if record.repriced else "kept")
        print(f"codec adapt:       tier {record.tier} {record.codec} "
              f"x{record.nominal_ratio:g} -> observed "
              f"x{record.observed_ratio:.2f} after "
              f"{record.samples} spills: {action}")
    print(f"promotes:          {report.promote_count} "
          f"({report.promote_bytes_gb:.3f} GB)")
    print(f"spill/promote t:   {trace.spill_time:.3f} s")
    arbitration = report.arbitration
    if arbitration.enabled:
        print(f"arbitration:       {arbitration.stall_wins} stalls / "
              f"{arbitration.spill_wins} spills chosen "
              f"(avoided {arbitration.avoided_spill_seconds:.3f} s "
              f"of spill)")
    prefetch = report.prefetch
    if prefetch.enabled:
        print(f"prefetch:          {prefetch.count} hits / "
              f"{prefetch.misses} misses "
              f"({prefetch.bytes_gb:.3f} GB promoted ahead, "
              f"{prefetch.hidden_seconds:.3f} s hidden in idle "
              f"time)")
    for tier in report.tiers:
        budget = ("unbounded" if tier.budget == float("inf")
                  else f"{tier.budget:.3f}")
        codec_note = (f" [{tier.codec} x{tier.codec_ratio:g}]"
                      if tier.codec != "none" else "")
        print(f"  tier {tier.name:<10s} peak {tier.peak:9.3f} "
              f"/ {budget}{codec_note}")


def _print_summary(head: list[str], trace,
                   peak: str = "{:.3f} / {:.3f}") -> None:
    """The run summary of ``simulate`` and ``minidb``: the command's
    ``head`` lines, the Figure 3 time axes, the RAM peak against its
    budget (formatted by ``peak``), then what the run spilled."""
    print(*head, sep="\n")
    print(f"end-to-end time:   {trace.end_to_end_time:.3f} s")
    print(f"table read:        {trace.table_read_latency:.3f} s "
          f"(disk {trace.table_read_disk_latency:.3f} s)")
    print(f"compute:           {trace.compute_latency:.3f} s")
    print(f"blocking write:    {trace.write_latency:.3f} s")
    print(f"stall:             {trace.stall_time:.3f} s")
    print("peak catalog use:  "
          + peak.format(trace.peak_catalog_usage, trace.memory_budget))
    _print_spill_stats(trace)


def _simulate_head(args, plan) -> list[str]:
    head = [f"method:            {args.method}"]
    if plan is not None and plan.expected_tiers:
        counts = Counter(plan.tier_map().values())
        planned = ", ".join(f"{name}: {n}"
                            for name, n in sorted(counts.items()))
        head.append(f"planned tiers:     {planned} "
                    f"({len(plan.flagged)}/{len(plan.order)} flagged)")
    if args.backend:
        head.append(f"backend:           {args.backend} "
                    f"(workers={args.workers})")
    return head


def _cmd_simulate(args) -> int:
    graph = graph_from_json(_read(args.graph))
    memory, spill = _spill_setup(args)
    bus = _make_bus(args)
    controller = Controller(spill=spill, bus=bus)
    if args.replan:
        controller.tier_budget(memory)  # no tiers: fail before pass 1
    plan = None
    if args.plan:
        plan = _read_plan(args.plan, graph)
    elif args.feedback or args.tier_aware_plan:
        feedback = None
        if args.feedback:
            from repro.engine.trace import RunTrace
            from repro.feedback import CostFeedback

            feedback = CostFeedback.from_trace(
                RunTrace.from_json(_read(args.feedback)))
        plan = controller.plan(graph, memory, method=args.method,
                               seed=args.seed,
                               tier_aware=args.tier_aware_plan,
                               feedback=feedback)
    refresh = partial(controller.refresh, graph, memory,
                      method=args.method, seed=args.seed,
                      backend=args.backend, workers=args.workers)
    trace = refresh(plan=plan)
    if args.replan:
        print("=== pass 1 (pre-feedback) ===")
    _print_summary(_simulate_head(args, plan), trace)
    if args.replan:
        first = trace
        plan = controller.replan_from_trace(graph, first, memory,
                                            method=args.method,
                                            seed=args.seed)
        if bus is not None:
            # record only the replanned pass: one bus spans one run
            bus.clear()
            bus.rebase()
        trace = refresh(plan=plan)
        print()
        print("=== pass 2 (replanned from observed costs) ===")
        _print_summary(_simulate_head(args, plan), trace)
        delta = first.end_to_end_time - trace.end_to_end_time
        print(f"replan gain:       {delta:+.3f} s "
              f"({100 * delta / first.end_to_end_time:.1f}% of pass 1)"
              if first.end_to_end_time > 0 else "replan gain:       n/a")
    if args.save_trace:
        pathlib.Path(args.save_trace).write_text(trace.to_json(),
                                                 encoding="utf-8")
    _emit_observability(args, bus, trace)
    if args.gantt:
        print()
        print(trace.gantt())
    return 0


def _cmd_workload(args) -> int:
    graph = build_workload(args.name, scale_gb=args.scale_gb,
                           partitioned=args.partitioned)
    _write_or_print(graph_to_json(graph), args.output)
    return 0


def _cmd_bench(args) -> int:
    if args.experiment != "matrix":
        if args.config:
            raise ValidationError(
                "a config file only applies to 'bench matrix'")
        print(EXPERIMENTS[args.experiment]().render())
        return 0
    from repro.bench.experiment import load_config
    from repro.bench.orchestrator import run_matrix

    if not args.config:
        raise ValidationError("a config file is required for 'bench "
                              "matrix' (e.g. benchmarks/matrix_smoke.toml)")
    if args.run_dir and args.resume:
        raise ValidationError("pass --run-dir for a fresh run or --resume "
                              "DIR to continue one, not both")
    config = load_config(args.config)
    run = run_matrix(
        config, args.resume or args.run_dir or f"matrix_runs/{config.name}",
        jobs=args.jobs, resume=bool(args.resume), date=args.date,
        fail_matching=tuple(args.inject_fail),
        retry_failed=args.retry_failed,
        progress=lambda message: print(message, file=sys.stderr))
    print(run.summary())
    if run.bench_path:
        print(f"snapshot: {run.bench_path}")
        print(f"report:   {run.report_path}")
    if args.report and run.report_path:
        print()
        print(_read(run.report_path))
    return 130 if run.interrupted else 0


def _cmd_minidb(args) -> int:
    import tempfile

    from repro.db.engine import demo_workload

    spill = SpillConfig(
        policy=args.spill_policy, codec=args.spill_codec,
        adapt=CodecAdaptConfig() if args.adaptive_codec else None)
    _check_adaptable(minidb_spill_config(args.ram_compressed, spill.policy,
                                         spill.codec, spill.adapt))
    bus = _make_bus(args)
    controller = Controller(spill=spill, spill_dir=args.spill_dir,
                            ram_compressed_gb=args.ram_compressed, bus=bus)
    with tempfile.TemporaryDirectory() as scratch:
        workload = demo_workload(args.data_dir or f"{scratch}/warehouse",
                                 rows=args.rows, seed=args.seed)
        plan = controller.plan_for_minidb(
            workload.profile(),
            args.memory if args.plan_memory is None else args.plan_memory,
            method=args.method, seed=args.seed, tier_aware=args.plan_tiers)
        trace = controller.refresh_on_minidb(
            workload, args.memory, method=args.method, seed=args.seed,
            plan=plan)
    head = [f"method:            {args.method} "
            f"({len(plan.flagged)}/{len(plan.order)} MVs flagged)"]
    head += [f"  planned tier:    {node:<16s} -> {tier}"
             for node, tier in plan.expected_tiers]
    _print_summary(head, trace, peak="{:.6f} / {:.6f} GB")
    _emit_observability(args, bus, trace)
    return 0


def _cmd_obs(args) -> int:
    from repro.engine.trace import RunTrace
    from repro.obs.report import attribution_table

    print(attribution_table(RunTrace.from_json(_read(args.trace))))
    return 0


def _cmd_explain(args) -> int:
    from repro.viz.explain import explain_plan

    problem = ScProblem(graph=graph_from_json(_read(args.graph)),
                        memory_budget=args.memory)
    result = optimize(problem, method=args.method, seed=args.seed)
    print(explain_plan(problem, result.plan,
                       include_profile=not args.no_profile))
    return 0


def _cmd_serve(args) -> int:
    """Open-loop serving demo + the CI smoke gate (exit 1 on any
    shared-ledger invariant violation)."""
    from repro.serve import TenantSpec, run_open_loop
    from repro.serve.service import percentile

    graph = build_workload(args.workload, scale_gb=args.scale_gb)
    memory = args.ram_fraction * graph.total_size()
    controller = Controller(spill=SpillConfig())   # one unbounded disk
    plan = controller.plan(graph, memory, method=args.method,
                           seed=args.seed)
    tenants = [TenantSpec(f"tenant-{i}", share=1.0 / args.tenants,
                          priority=args.tenants - i)
               for i in range(args.tenants)]
    service = controller.create_service(
        memory, tenants, queue_limit=max(args.requests, 1),
        max_concurrent=args.max_concurrent, time_scale=args.time_scale,
        deadline_s=args.deadline)
    results = run_open_loop(service, graph, plan, args.requests,
                            args.arrival_rate, seed=args.seed)
    print(f"workload {args.workload} @ {args.scale_gb:g} GB, "
          f"RAM {memory:.2f} GB ({args.ram_fraction:g} of total), "
          f"{args.tenants} tenants, {len(results)} requests")
    print(f"{'tenant':<12} {'ok':>3} {'other':>5} "
          f"{'p50 (s)':>9} {'p99 (s)':>9}")
    for name, ok in service.latencies_by_tenant().items():
        other = sum(r.tenant == name and r.status != "ok" for r in results)
        p50, p99 = (f"{percentile(ok, q):9.3f}" if ok else "        -"
                    for q in (50, 99))
        print(f"{name:<12} {len(ok):>3} {other:>5} {p50} {p99}")
    bad = {key: value for key, value in service.audit().items() if value}
    if bad:
        print(f"INVARIANT VIOLATIONS: {bad}", file=sys.stderr)
        return 1
    print("shared-ledger audit: clean (no leaked holds, no negative "
          "balances, tenant usage sums to ledger usage)")
    return 0


def _profiled(args) -> int:
    """Run the command under cProfile: stats to ``--profile``, the top
    10 by cumulative time to stderr."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(args.handler, args)
    finally:
        profiler.dump_stats(args.profile)
        print(f"profile:           {args.profile} "
              f"(python -m pstats {args.profile})", file=sys.stderr)
        print("top 10 by cumulative time:", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(10)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "profile", None):
            return _profiled(args)
        return args.handler(args)
    except ValidationError as exc:
        print(f"repro-sc {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
