"""Standing experiment orchestrator: run a declared benchmark matrix.

:func:`run_matrix` executes every cell of an expanded
:class:`~repro.bench.experiment.MatrixConfig` through the existing
``Controller``/backend-registry path, with

* **bounded parallelism** — at most ``jobs`` trials in flight (each
  trial is one independent Controller run with its own ledger);
* **crash isolation** — an exception inside a trial marks that cell
  ``failed`` and the matrix keeps going; a hung trial trips the
  per-trial timeout and is marked ``timeout``;
* **incremental persistence** — every finished cell is written
  atomically to ``RUN_DIR/trials/<trial_id>.json`` the moment it
  completes, so an interrupted matrix resumes (``resume=True``)
  without re-running completed cells.

A completed run aggregates the per-trial ``RunTrace`` totals and tier
report counters into a schema-valid
``BENCH_<date>.json`` (validated by :mod:`repro.bench.trajectory`) and
a markdown report with per-axis pivot tables under the run directory.

A graph cell runs the same code as a point of the sweep drivers,
:func:`repro.bench.below_peak.run_cell`: each workload's no-spill peak
defines the 100% RAM point, every cell runs under
``ram_fraction * peak`` with an SSD + unbounded-disk hierarchy (plus
the compressed-in-RAM rung when the ``rung`` axis arms it), plans are
tier-aware for the hierarchy they run on, and the ``replan`` feedback
arm reports the second pass of the observed-cost loop.  MiniDB cells
run the real SQL demo workload with real spills under a temporary
directory; their timings are wall-clock.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.bench.experiment import (
    MatrixConfig,
    PrunedCell,
    TrialSpec,
    expand_matrix,
)
from repro.errors import ValidationError

#: Terminal trial statuses; a resumed run re-executes none of them
#: unless ``retry_failed`` re-opens the non-``ok`` ones.
TERMINAL_STATUSES = ("ok", "failed", "timeout")

#: Backends whose trial timings are real wall-clock: their arms
#: aggregate under ``data.wall_clock`` (reported, never regression-
#: gated) so ``data.totals`` stays deterministic across machines.
WALL_CLOCK_BACKENDS = ("minidb",)

#: Columns of the aggregated ``BENCH_<date>.json`` table.
BENCH_HEADERS = ["backend", "workload", "RAM frac", "codec", "feedback",
                 "rung", "seed", "status", "end-to-end (s)", "spills",
                 "promotes"]


class TrialTimeout(Exception):
    """A trial exceeded the configured per-trial timeout."""


@dataclass
class MatrixRun:
    """What one :func:`run_matrix` invocation did."""

    run_dir: str
    total: int = 0
    ok: int = 0
    failed: int = 0
    timeout: int = 0
    pruned: int = 0
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    complete: bool = False
    interrupted: bool = False
    bench_path: str | None = None
    report_path: str | None = None

    def summary(self) -> str:
        parts = [f"{self.ok} ok"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.timeout:
            parts.append(f"{self.timeout} timeout")
        note = ("" if self.complete else
                " [incomplete — resume to finish]")
        return (f"cells: {self.total} total ({', '.join(parts)}), "
                f"{self.pruned} pruned; ran {len(self.executed)}, "
                f"resumed past {len(self.skipped)}{note}")


# ----------------------------------------------------------------------
# per-trial execution
# ----------------------------------------------------------------------
_PEAK_CACHE: dict[tuple, float] = {}
_PEAK_LOCK = threading.Lock()


def _baseline_peak(workload: str, scale_gb: float, method: str,
                   seed: int) -> float:
    """The workload's no-spill peak catalog usage — the 100% RAM point
    every cell's ``ram_fraction`` is relative to.  Cached per process;
    recomputing after a resume is deterministic."""
    from repro.engine.controller import Controller
    from repro.workloads.five_workloads import build_workload

    key = (workload, scale_gb, method, seed)
    with _PEAK_LOCK:
        if key in _PEAK_CACHE:
            return _PEAK_CACHE[key]
    graph = build_workload(workload, scale_gb=scale_gb)
    trace = Controller().refresh(graph, graph.total_size(),
                                 method=method, seed=seed)
    with _PEAK_LOCK:
        _PEAK_CACHE.setdefault(key, trace.peak_catalog_usage)
        return _PEAK_CACHE[key]


def _run_graph_trial(spec: TrialSpec, config: MatrixConfig,
                     cancel: threading.Event | None = None) -> dict:
    from repro.bench.below_peak import run_cell
    from repro.store.config import RAM_COMPRESSED, SpillConfig, TierSpec
    from repro.workloads.five_workloads import build_workload

    plan_method = "sc" if spec.method == "lru" else spec.method
    peak = _baseline_peak(spec.workload, config.scale_gb, plan_method,
                          spec.seed)
    ram = spec.ram_fraction * peak
    graph = build_workload(spec.workload, scale_gb=config.scale_gb)
    if spec.backend == "lru":  # plan-free and tier-free
        return _metrics(run_cell(graph, ram, None, "given", method="lru",
                                 seed=spec.seed, cancel=cancel))
    tiers = [TierSpec("ssd", config.ssd_fraction * peak),
             TierSpec("disk")]
    if spec.rung:
        tiers.insert(0, TierSpec(RAM_COMPRESSED,
                                 config.rung_fraction * peak))
    return _metrics(run_cell(
        graph, ram,
        SpillConfig(tiers=tuple(tiers), policy=config.policy,
                    codec=spec.codec),
        "replan" if spec.feedback == "replan" else "aware",
        method=spec.method, seed=spec.seed, backend=spec.backend,
        workers=spec.workers, cancel=cancel))


def _run_minidb_trial(spec: TrialSpec, config: MatrixConfig,
                      cancel: threading.Event | None = None) -> dict:
    import tempfile

    from repro.bench.below_peak import CellRun
    from repro.db.engine import demo_workload
    from repro.engine.controller import Controller
    from repro.store.config import SpillConfig

    with tempfile.TemporaryDirectory() as scratch:
        workload = demo_workload(f"{scratch}/warehouse",
                                 rows=config.minidb_rows, seed=spec.seed)
        profiled = workload.profile()
        ram = spec.ram_fraction * profiled.total_size()
        rung_gb = config.rung_fraction * ram if spec.rung else 0.0
        controller = Controller(
            spill_dir=f"{scratch}/spill", ram_compressed_gb=rung_gb,
            spill=SpillConfig(policy=config.policy, codec=spec.codec),
            cancel=cancel)
        plan = controller.plan_for_minidb(profiled, ram,
                                          method=spec.method,
                                          seed=spec.seed, tier_aware=True)
        trace = controller.refresh_on_minidb(workload, ram,
                                             method=spec.method,
                                             seed=spec.seed, plan=plan)
    return _metrics(CellRun(plan, trace))


def _metrics(run) -> dict:
    trace, report = run.trace, run.report
    metrics = {
        "end_to_end_s": trace.end_to_end_time,
        "peak_catalog": trace.peak_catalog_usage,
        "memory_budget": trace.memory_budget,
        "spill_count": report.spill_count if report else 0,
        "promote_count": report.promote_count if report else 0,
    }
    if run.first is not None:
        metrics["first_pass_s"] = run.first.trace.end_to_end_time
    return {"metrics": metrics, "trace": trace.to_dict()}


def _trial_body(spec: TrialSpec, config: MatrixConfig,
                cancel: threading.Event | None = None) -> dict:
    """Execute one cell and return its result payload (metrics +
    serialized trace).  Module-level so tests can monkeypatch it.
    ``cancel`` is threaded into every Controller the cell builds, so a
    timed-out trial stops at its next node boundary instead of running
    (and emitting) to completion in an abandoned thread."""
    if spec.backend == "minidb":
        return _run_minidb_trial(spec, config, cancel=cancel)
    return _run_graph_trial(spec, config, cancel=cancel)


#: Seconds a timed-out trial gets to observe its cancel event and
#: unwind before the thread is abandoned — the grace only needs to
#: cover one node's execution, not the whole trial.
_CANCEL_GRACE_S = 5.0


def _run_with_timeout(fn, timeout: float | None):
    """Run ``fn(cancel)`` bounded by ``timeout`` seconds.

    The body runs in a daemon thread.  On timeout the cooperative
    ``cancel`` event is set, so the body stops emitting (metric/bus
    writes, trial records) and frees its executor slot at the next node
    boundary — the backends raise
    :class:`~repro.errors.RunCancelledError` between nodes.  After a
    short grace the thread is abandoned regardless (a body stuck
    *inside* one node holds no external resources), and
    :class:`TrialTimeout` is raised so the cell records as ``timeout``
    instead of wedging the whole matrix.
    """
    cancel = threading.Event()
    if timeout is None:
        return fn(cancel)
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn(cancel)
        except BaseException as exc:  # crash isolation: captured, not raised
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True,
                              name="matrix-trial")
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        cancel.set()
        thread.join(_CANCEL_GRACE_S)
        raise TrialTimeout(f"trial exceeded {timeout:g}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _execute_trial(spec: TrialSpec, config: MatrixConfig,
                   fail_matching: tuple[str, ...]) -> dict:
    """One cell, crash-isolated: always returns a terminal record."""
    started = time.perf_counter()
    record = {"trial_id": spec.trial_id, "trial": spec.to_dict(),
              "status": "failed", "error": None, "metrics": None,
              "trace": None}
    try:
        for pattern in fail_matching:
            if pattern in spec.trial_id:
                raise RuntimeError(
                    f"injected failure (--inject-fail {pattern!r})")
        result = _run_with_timeout(
            lambda cancel: _trial_body(spec, config, cancel=cancel),
            config.trial_timeout_s)
        record.update(status="ok", **result)
    except TrialTimeout as exc:
        record.update(status="timeout", error=str(exc))
    except BaseException as exc:
        record.update(status="failed",
                      error="".join(traceback.format_exception_only(
                          type(exc), exc)).strip())
    record["wall_s"] = time.perf_counter() - started
    return record


# ----------------------------------------------------------------------
# run directory persistence
# ----------------------------------------------------------------------
def _write_json_atomic(path: pathlib.Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


def _load_records(trials_dir: pathlib.Path) -> dict[str, dict]:
    records: dict[str, dict] = {}
    if not trials_dir.is_dir():
        return records
    for path in sorted(trials_dir.glob("*.json")):
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue  # a torn write from a killed run: re-execute it
        if record.get("status") in TERMINAL_STATUSES:
            records[record["trial_id"]] = record
    return records


def _check_run_dir(run_path: pathlib.Path, config: MatrixConfig,
                   resume: bool) -> None:
    """Guard the run directory: a fresh run must not silently mix with
    an existing one, and a resume must use the identical config."""
    marker = run_path / "config.json"
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    if marker.exists():
        stored = json.dumps(json.loads(marker.read_text(encoding="utf-8")),
                            sort_keys=True)
        if stored != canonical:
            raise ValidationError(
                f"{run_path} holds a different matrix config; resuming "
                f"would mix cells from two experiments — use a fresh "
                f"run directory")
        if not resume:
            raise ValidationError(
                f"{run_path} already holds this matrix; pass "
                f"resume=True (--resume) to continue it or use a "
                f"fresh run directory")
    else:
        run_path.mkdir(parents=True, exist_ok=True)
        (run_path / "trials").mkdir(exist_ok=True)
        _write_json_atomic(marker, config.to_dict())


# ----------------------------------------------------------------------
# the matrix driver
# ----------------------------------------------------------------------
def run_matrix(config: MatrixConfig, run_dir: str, *,
               jobs: int | None = None, resume: bool = False,
               date: str | None = None, stop_after: int | None = None,
               fail_matching: tuple[str, ...] = (),
               retry_failed: bool = False,
               progress=None) -> MatrixRun:
    """Execute (or resume) a benchmark matrix into ``run_dir``.

    Args:
        config: the parsed matrix config.
        run_dir: run directory; created if missing.  Holds
            ``config.json``, ``trials/<trial_id>.json`` per finished
            cell, and — once every cell is terminal — the aggregated
            ``BENCH_<date>.json`` and ``report.md``.
        jobs: bounded trial parallelism (default: the config's).
        resume: continue an existing run directory, skipping cells
            that already hold a terminal result.
        date: the snapshot date for ``BENCH_<date>.json`` (default:
            today).
        stop_after: execute at most this many pending cells, then
            return an incomplete run (test hook for interruption).
        fail_matching: trial-id substrings to fail on purpose —
            exercises the crash-isolation path end to end.
        retry_failed: with ``resume``, re-execute cells whose stored
            status is ``failed``/``timeout`` (``ok`` cells never
            re-run).
        progress: optional ``callable(str)`` for per-cell progress.

    Returns:
        A :class:`MatrixRun` summary.

    Raises:
        ValidationError: bad config, ``jobs`` below 1, or a
            run-dir/config mismatch.
    """
    run_path = pathlib.Path(run_dir)
    config.validate()
    workers = config.jobs if jobs is None else jobs
    if workers < 1:
        raise ValidationError(f"jobs must be >= 1, got {workers}")
    _check_run_dir(run_path, config, resume=resume)
    trials_dir = run_path / "trials"
    trials_dir.mkdir(exist_ok=True)
    say = progress or (lambda message: None)

    trials, pruned = expand_matrix(config)
    if not trials:
        raise ValidationError("the matrix expands to zero runnable "
                              "cells; check the axes")
    records = _load_records(trials_dir)
    run = MatrixRun(run_dir=str(run_path), total=len(trials),
                    pruned=len(pruned))
    pending: list[TrialSpec] = []
    for spec in trials:
        stored = records.get(spec.trial_id)
        if stored is None:
            pending.append(spec)
        elif retry_failed and stored["status"] != "ok":
            pending.append(spec)
        else:
            run.skipped.append(spec.trial_id)
    if stop_after is not None:
        pending = pending[:stop_after]

    if pending:
        say(f"matrix {config.name}: {len(pending)} cell(s) to run, "
            f"{len(run.skipped)} already done, {len(pruned)} pruned")
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_execute_trial, spec, config, fail_matching):
                spec for spec in pending}
            for future in as_completed(futures):
                spec = futures[future]
                record = future.result()
                _write_json_atomic(trials_dir / f"{spec.trial_id}.json",
                                   record)
                records[spec.trial_id] = record
                run.executed.append(spec.trial_id)
                note = ("" if record["status"] == "ok"
                        else f" ({record['error']})")
                say(f"  [{len(run.executed)}/{len(pending)}] "
                    f"{spec.trial_id}: {record['status']} "
                    f"{record['wall_s']:.2f}s{note}")
    except KeyboardInterrupt:
        run.interrupted = True
        say(f"matrix {config.name}: interrupted — finished cells are "
            f"saved; resume with --resume {run_path}")

    for record in records.values():
        status = record["status"]
        if status == "ok":
            run.ok += 1
        elif status == "timeout":
            run.timeout += 1
        else:
            run.failed += 1
    run.complete = all(spec.trial_id in records for spec in trials)
    run.executed.sort()
    run.skipped.sort()
    if run.complete:
        payload = aggregate(config, records, pruned)
        when = date or datetime.date.today().isoformat()
        bench_path = run_path / f"BENCH_{when}.json"
        _write_json_atomic(bench_path, payload)
        report_path = run_path / "report.md"
        report_path.write_text(
            render_report(config, records, pruned, payload, date=when),
            encoding="utf-8")
        run.bench_path = str(bench_path)
        run.report_path = str(report_path)
        say(f"matrix {config.name}: {run.summary()}")
        say(f"  snapshot: {bench_path}")
        say(f"  report:   {report_path}")
    return run


# ----------------------------------------------------------------------
# aggregation: BENCH_<date>.json + markdown report
# ----------------------------------------------------------------------
def _ordered(records: dict[str, dict]) -> list[dict]:
    return [records[key] for key in sorted(records)]


def aggregate(config: MatrixConfig, records: dict[str, dict],
              pruned: list[PrunedCell]) -> dict:
    """Fold terminal trial records into the ``BENCH_<date>.json``
    payload :mod:`repro.bench.trajectory` validates and gates.

    ``data.totals`` maps ``<backend>+<codec>+fb-<arm>[+rung]`` arms to
    ``<workload>@<fraction>`` points (mean seconds across seeds —
    lower is better, the regression gate's tracked metrics).  Only
    deterministic metrics go in it — never dispatch overhead, and
    wall-clock backends (MiniDB) aggregate under ``data.wall_clock``
    instead, which the gate does not track — so a matrix aggregates
    bit-identically across resumes and machines.
    """
    rows: list[list] = []
    trials_data: dict[str, dict] = {}
    failed: list[str] = []
    sums: dict[str, dict[str, list[float]]] = {}
    wall_sums: dict[str, dict[str, list[float]]] = {}
    for record in _ordered(records):
        spec = TrialSpec.from_dict(record["trial"])
        metrics = record.get("metrics") or {}
        status = record["status"]
        seconds = metrics.get("end_to_end_s")
        rows.append([
            spec.backend, spec.workload, f"{spec.ram_fraction:g}",
            spec.codec, spec.feedback, "yes" if spec.rung else "no",
            spec.seed, status,
            seconds if status == "ok" else "-",
            metrics.get("spill_count", "-") if status == "ok" else "-",
            metrics.get("promote_count", "-") if status == "ok" else "-",
        ])
        entry = {"status": status}
        if status == "ok":
            entry.update(metrics)
        else:
            failed.append(record["trial_id"])
            entry["error"] = record.get("error")
        trials_data[record["trial_id"]] = entry
        if status == "ok":
            arm = f"{spec.backend}+{spec.codec}+fb-{spec.feedback}"
            if spec.rung:
                arm += "+rung"
            point = f"{spec.workload}@{spec.ram_fraction:g}"
            bucket = (wall_sums if spec.backend in WALL_CLOCK_BACKENDS
                      else sums)
            bucket.setdefault(arm, {}).setdefault(point, []).append(
                seconds)

    def fold(buckets: dict) -> dict:
        return {arm: {point: sum(values) / len(values)
                      for point, values in sorted(points.items())}
                for arm, points in sorted(buckets.items())}

    totals, wall_clock = fold(sums), fold(wall_sums)
    return {
        "experiment": config.name,
        "title": config.title,
        "headers": list(BENCH_HEADERS),
        "rows": rows,
        "data": {
            "totals": totals,
            "wall_clock": wall_clock,
            "trials": trials_data,
            "failed": failed,
            "pruned": len(pruned),
            "config": config.to_dict(),
        },
    }


def _md_table(headers: list[str], rows: list[list]) -> str:
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(cell(c) for c in row) + " |"
              for row in rows]
    return "\n".join(lines)


def _pivot(records: dict[str, dict], row_of, col_of
           ) -> tuple[list[str], list[str], dict]:
    """Mean end-to-end seconds of ``ok`` cells, grouped two ways."""
    cells: dict[tuple[str, str], list[float]] = {}
    for record in _ordered(records):
        if record["status"] != "ok":
            continue
        spec = TrialSpec.from_dict(record["trial"])
        key = (str(row_of(spec)), str(col_of(spec)))
        cells.setdefault(key, []).append(
            record["metrics"]["end_to_end_s"])
    row_keys = sorted({row for row, _ in cells})
    col_keys = sorted({col for _, col in cells})
    means = {key: sum(values) / len(values)
             for key, values in cells.items()}
    return row_keys, col_keys, means


def _pivot_section(title: str, records: dict[str, dict], row_of, col_of,
                   row_header: str) -> str:
    row_keys, col_keys, means = _pivot(records, row_of, col_of)
    if not row_keys:
        return ""
    rows = [[row] + [means.get((row, col), "-") for col in col_keys]
            for row in row_keys]
    return (f"## {title}\n\n"
            + _md_table([row_header] + col_keys, rows) + "\n")


def render_report(config: MatrixConfig, records: dict[str, dict],
                  pruned: list[PrunedCell], payload: dict,
                  date: str) -> str:
    """The run's markdown report: summary, failures, full results,
    and per-axis pivot tables (mean seconds of ``ok`` cells)."""
    ordered = _ordered(records)
    ok = [r for r in ordered if r["status"] == "ok"]
    bad = [r for r in ordered if r["status"] != "ok"]
    wall = sum(r.get("wall_s", 0.0) for r in ordered)
    lines = [
        f"# {config.title}",
        "",
        f"Experiment `{config.name}` — {date}",
        "",
        f"Cells: **{len(ordered)}** ({len(ok)} ok, {len(bad)} "
        f"failed/timeout), {len(pruned)} pruned as structurally "
        f"impossible; {wall:.1f}s of trial wall-clock.",
        "",
    ]
    if bad:
        lines += ["## Failed cells", "",
                  _md_table(["trial", "status", "error"],
                            [[r["trial_id"], r["status"],
                              (r.get("error") or "").replace("|", "\\|")]
                             for r in bad]), ""]
    lines += ["## Results", "",
              _md_table(payload["headers"], payload["rows"]), ""]
    for section in (
            _pivot_section(
                "Mean end-to-end seconds: backend × workload", records,
                lambda s: s.backend, lambda s: s.workload, "backend"),
            _pivot_section(
                "Mean end-to-end seconds: codec × RAM fraction", records,
                lambda s: s.codec, lambda s: f"{s.ram_fraction:g}",
                "codec"),
            _pivot_section(
                "Mean end-to-end seconds: feedback arm × backend",
                records, lambda s: s.feedback, lambda s: s.backend,
                "feedback"),
            _pivot_section(
                "Mean end-to-end seconds: rung × backend", records,
                lambda s: "rung" if s.rung else "no rung",
                lambda s: s.backend, "arm")):
        if section:
            lines += [section]
    if pruned:
        lines += ["## Pruned cells", "",
                  _md_table(["cell", "reason"],
                            [[cell.spec.trial_id, cell.reason]
                             for cell in pruned]), ""]
    return "\n".join(lines)
