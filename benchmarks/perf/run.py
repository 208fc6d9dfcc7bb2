#!/usr/bin/env python3
"""The wall-clock benchmark of the S/C reproduction (ISSUE 12).

    python3 benchmarks/perf/run.py                  # every workload, report
    python3 benchmarks/perf/run.py --trace          # ... plus traced runs
    python3 benchmarks/perf/run.py --quick          # 1 round, small sizes
    python3 benchmarks/perf/run.py --selftest       # compare.py on synthetic results
    python3 benchmarks/perf/run.py --workload sim_spill --seed 3 \\
        --seconds 15 --trace 0                      # one run, result line

One workload runs in one child process (``PYTHONHASHSEED=0``, plans
depend on the hash seed), so ``peak_rss_mb`` and lazy imports belong to
that workload alone.  With ``--workload`` the last line of standard
output is the result object the driver of ``BENCHMARK.json`` reads:
``--trace 0`` carries every end-to-end metric, ``--trace 1`` every
per-layer metric.  Without it, every workload is run and every metric
printed by name with unit, median, quartiles and sample count.

The program under test is ``src/repro`` of this checkout; inputs are
made from ``--seed`` here (inputs.py) and the program sees only them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time

from harness import (
    HERE,
    OUT_DIR,
    ROOT,
    Checks,
    NullRecorder,
    Recorder,
    load_manifest,
    percentile,
    quartiles,
    timed,
)

MIN_ROUNDS = 3
SETUP_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="exactly this many timed rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="report mode: runs per workload, seeds "
                             "SEED..SEED+RUNS-1 (a 'set' for compare.py)")
    parser.add_argument("--out", default=None,
                        help="report mode: result file "
                             "(default benchmarks/perf/out/result.json)")
    parser.add_argument("--quick", action="store_true",
                        help="1 round, shrunken sizes, same checks")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process (the child)
# ----------------------------------------------------------------------
def measure_rounds(workload, checks, seed: int, setups: list[float],
                   seconds: float, rounds: int | None):
    """Timed rounds: exactly ``rounds``, else for ``seconds`` (and at
    least MIN_ROUNDS).  Returns the round walls, each round's median
    operation latency, all operation latencies, the rounds' facts and
    the nodes one round completes.

    A workload whose set-up is cheap is set up afresh before every
    round, so the set-up samples (appended to ``setups``) are spread
    over the run like the rounds are and one burst of interference at
    the start cannot carry ``setup_s``."""
    off = NullRecorder()
    walls, medians, ops, facts = [], [], [], []
    started = time.perf_counter()
    while True:
        if workload.setup_every_round:
            setups.append(timed(workload.setup, seed)[0])
        gc.collect()            # so no round pays for another's garbage
        wall, result = timed(workload.round, off, checks)
        walls.append(wall)
        medians.append(quartiles(result.ops)[1])
        ops.extend(result.ops)
        facts.append(result.facts)
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif (len(walls) >= MIN_ROUNDS
              and time.perf_counter() - started >= seconds):
            break
    return walls, medians, ops, facts, result.nodes


def median_facts(facts: list[dict]) -> dict:
    """Per fact, the median over the rounds (counts repeat exactly;
    rates do not)."""
    out = {}
    for key in facts[-1]:
        values = [f[key] for f in facts if key in f]
        out[key] = (quartiles(values)[1]
                    if isinstance(values[0], (int, float)) else values[-1])
    return out


def traced_part(workload, checks, args, walls) -> tuple[dict, dict]:
    """The traced round, the cells only per-layer metrics need, and the
    layer probes.  Returns (per-layer values, detail)."""
    import probes

    recorder = Recorder()
    with recorder.span("round", "harness", run="round"):
        workload.round(recorder, checks)
    root = recorder.spans[0]
    traced_wall = root[6] - root[5]
    untraced = min(walls)               # what wall_s reports
    shares = recorder.shares()
    values = {f"share.{layer}_pct": pct for layer, pct in shares.items()}
    values.update({
        "trace.spans": len(recorder.spans),
        "trace.round_s": traced_wall,
        "host.trace_overhead_pct": 100.0 * (traced_wall / untraced - 1.0),
    })
    values.update(workload.layer_cells(checks))
    values.update(probes.run_all(args.seed, args.quick))

    trace_path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
    recorder.write_chrome_trace(trace_path)
    table = recorder.self_time_table()
    with open(os.path.join(OUT_DIR, f"selftime_{workload.name}.txt"),
              "w") as handle:
        handle.write(table + "\n")
    detail = {"trace_file": os.path.relpath(trace_path, ROOT),
              "self_time_table": table,
              "self_times": recorder.self_times()}
    return values, detail


def run_workload(args) -> int:
    manifest = load_manifest()
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("benchmarks/perf: src/repro is not in this checkout; the "
              "benchmark measures the checkout's own source",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    seconds = (args.seconds if args.seconds is not None
               else float(manifest["run_seconds"]))
    rounds = 1 if args.quick and args.rounds is None else args.rounds
    workload = workloads.make(args.workload, quick=args.quick)
    checks = Checks()
    off = NullRecorder()
    try:
        setups = [timed(workload.setup, args.seed)[0]
                  for _ in range(1 if args.quick else SETUP_REPS)]
        workload.round(off, checks, verify=True)        # warm-up, untimed
        if args.trace:
            seconds *= 0.35
        walls, medians, ops, facts, nodes = measure_rounds(
            workload, checks, args.seed, setups, seconds, rounds)
        q1, median, q3 = quartiles(walls)
        # the run's value is its fastest round: interference from the
        # host's other tenants only ever adds time (README, "Noise")
        measured = {
            "setup_s": quartiles(setups)[1],
            "wall_s": min(walls),
            "latency_p50_ms": 1e3 * min(medians),
            "op.round_median_s": median,
            "op.round_spread_pct": 100.0 * (q3 - q1) / median,
            "op.latency_p95_ms": 1e3 * percentile(ops, 95),
            "op.latency_p99_ms": 1e3 * percentile(ops, 99),
            "op.nodes_per_s": nodes / min(walls),
        }
        measured.update(median_facts(facts))
        detail = {"digests": workload.digests()}
        if args.trace:
            values, trace_detail = traced_part(workload, checks, args, walls)
            measured.update(values)
            detail.update(trace_detail)
    finally:
        workload.teardown()
    measured["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    section = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in section:
        if spec["name"] not in measured and not args.trace:
            print(f"end-to-end metric {spec['name']} was not measured",
                  file=sys.stderr)
            return 3
        # a per-layer metric this workload does not exercise reads 0
        metrics[spec["name"]] = {
            "value": float(measured.get(spec["name"], 0.0)),
            "unit": spec["unit"]}
    for failure in checks.failures:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    if args.detail:
        detail.update({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "quick": args.quick,
            "result": result, "failures": checks.failures,
            "samples": {"setup_s": setups, "wall_s": walls,
                        "latency_p50_ms": [1e3 * m for m in medians]},
            "unlisted": {k: v for k, v in measured.items()
                         if k not in metrics},
        })
        with open(args.detail, "w") as handle:
            json.dump(detail, handle, indent=1, default=float)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: child processes, report, result file
# ----------------------------------------------------------------------
def spawn(args, workload: str, seed: int, trace: int,
          detail: str | None = None) -> subprocess.CompletedProcess:
    """Run one workload in a child process and wait for it."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.quick:
        command.append("--quick")
    if detail:
        command += ["--detail", detail]
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True)


def run_one(args) -> int:
    """``--workload W``: relay the child's result line and exit code."""
    done = spawn(args, args.workload, args.seed, args.trace, args.detail)
    sys.stdout.write(done.stdout)
    return done.returncode


def summarize(values: list[float], samples=None) -> dict:
    """Median and quartiles over the runs of a set; with one run, the
    run's value and the quartiles of its own samples (rounds, or
    set-ups) where it has them."""
    if len(values) > 1 or samples is None:
        q1, median, q3 = quartiles(values)
        return {"median": median, "q1": q1, "q3": q3, "n": len(values),
                "of": "runs"}
    q1, _, q3 = quartiles(samples)
    return {"median": values[0], "q1": q1, "q3": q3, "n": len(samples),
            "of": "samples"}


def report(args) -> int:
    manifest = load_manifest()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = [w["name"] for w in manifest["workloads"]]
    result = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": args.seed, "runs": args.runs, "quick": args.quick,
        "seconds": args.seconds or manifest["run_seconds"],
        "workloads": {}}
    status = 0
    for name in names:
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0,
                 "failed": 0, "correct": True}
        plans = [(seed, 0) for seed in range(args.seed,
                                             args.seed + args.runs)]
        if args.trace:
            plans.append((args.seed, 1))
        per_run: dict[tuple[int, str], list[float]] = {}
        details = {}
        for seed, trace in plans:
            detail_path = os.path.join(
                OUT_DIR, f"detail_{name}_t{trace}_s{seed}.json")
            print(f"[{name}] seed {seed} trace {trace} ...",
                  file=sys.stderr, flush=True)
            done = spawn(args, name, seed, trace, detail_path)
            if done.returncode != 0:
                print(f"[{name}] child exited {done.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            line = json.loads(done.stdout.strip().splitlines()[-1])
            entry["attempted"] += line["attempted"]
            entry["failed"] += line["failed"]
            entry["correct"] &= line["correct"]
            for metric, cell in line["metrics"].items():
                per_run.setdefault((trace, metric), []).append(cell["value"])
            with open(detail_path) as handle:
                details[trace] = json.load(handle)
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            for spec in manifest[section]:
                values = per_run.get((trace, spec["name"]))
                if not values:
                    continue
                samples = details[trace]["samples"].get(spec["name"])
                entry[section][spec["name"]] = dict(
                    spec, values=values, **summarize(values, samples))
        if 0 in details:
            entry["digests"] = details[0]["digests"]
        if 1 in details:
            entry["self_time_table"] = details[1]["self_time_table"]
            entry["trace_file"] = details[1]["trace_file"]
        entry["failed_share"] = (entry["failed"] / entry["attempted"]
                                 if entry["attempted"] else 1.0)
        if not entry["correct"]:
            status = 1
        result["workloads"][name] = entry
    print(render(result))
    out = args.out or os.path.join(OUT_DIR, "result.json")
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nresult file: {os.path.relpath(out)}")
    return status


def render(result: dict) -> str:
    lines = []
    # value: the median over the set's runs (with one run, that run's
    # value); q1, q3, n: over the runs, or over that run's rounds
    head = (f"{'metric':<42}{'unit':>9}{'value':>14}{'q1':>14}"
            f"{'q3':>14}{'n':>7} of")
    for name, entry in result["workloads"].items():
        lines += ["", f"== {name}   attempted {entry['attempted']}  "
                  f"failed {entry['failed']}  "
                  f"failed_share {entry['failed_share']:.4f}", head]
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                bound = (f"  bound {cell['bound']:.0%} {cell['better']}"
                         if "bound" in cell else "")
                lines.append(
                    f"{metric:<42}{cell['unit']:>9}{cell['median']:>14.6g}"
                    f"{cell['q1']:>14.6g}{cell['q3']:>14.6g}"
                    f"{cell['n']:>7d} {cell['of']}{bound}")
        if "self_time_table" in entry:
            lines += ["", f"-- {name}: layer self time of the traced "
                      f"round ({entry['trace_file']})",
                      entry["self_time_table"]]
    table = parallelism_table(result)
    if table:
        lines += ["", table]
    return "\n".join(lines)


def parallelism_table(result: dict, threshold: float = 10.0) -> str:
    """Workers 1/2/4 and service clients 1/2 against level 1, from the
    per-layer metrics of the traced runs."""
    sweeps = []
    for workload in ("sim_fit", "sim_spill"):
        sweeps.append((f"{workload}: parallel workers, nodes/s", workload,
                       [(level, f"exec.parallel{level}_nodes_per_s")
                        for level in (1, 2, 4)]))
    sweeps.append(("service_mixed: closed-loop clients, requests/s",
                   "service_mixed", [(1, "serve.clients1_req_per_s"),
                                     (2, "serve.req_per_s")]))
    lines = []
    for title, workload, levels in sweeps:
        layer = result["workloads"].get(workload, {}).get("per_layer", {})
        rates = [(level, layer[metric]["median"])
                 for level, metric in levels if metric in layer]
        if len(rates) < 2 or not rates[0][1]:
            continue
        base = rates[0][1]
        safe = max(level for level, rate in rates
                   if 100.0 * (1.0 - rate / base) <= threshold)
        lines += [f"-- {title} (degrade % against level 1; "
                  f"max safe level at <= {threshold:.0f} %: {safe})",
                  f"{'level':>7}{'rate':>14}{'degrade %':>12}"]
        lines += [f"{level:>7d}{rate:>14.1f}"
                  f"{100.0 * (1.0 - rate / base):>12.2f}"
                  for level, rate in rates]
    return "\n".join(lines)


# ----------------------------------------------------------------------
def selftest() -> int:
    """compare.py on synthetic results, and the manifest's own rules."""
    import compare

    def result_file(values):
        return {"workloads": {"w": {"end_to_end": {
            "wall_s": {"unit": "s", "better": "lower", "bound": 0.10,
                       "values": values}}}}}

    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.1, 0.95, 1.15]
    cases = [
        ("ok", steady, [v * 1.03 for v in steady]),
        ("worse", steady, [v * 1.20 for v in steady]),
        ("ok", steady, [v * 0.70 for v in steady]),
        ("unresolved", noisy, [v * 1.05 for v in noisy]),
        ("ok", noisy, [v * 0.50 for v in noisy]),
    ]
    failures = 0
    for expected, a, b in cases:
        rows = compare.compare(result_file(a), result_file(b))
        got = rows[0]["verdict"]
        print(f"compare: expected {expected:<11} got {got}")
        failures += got != expected
    manifest = load_manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]
             + manifest["workloads"]]
    failures += len(names) != len(set(names))
    failures += not any(m["name"] == "setup_s" and m["unit"] == "s"
                        for m in manifest["end_to_end"])
    failures += any(m["bound"] > 0.25 for m in manifest["end_to_end"])
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.selftest:
        return selftest()
    if args.child:
        return run_workload(args)
    if args.workload != "all":
        return run_one(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
