"""Shared plumbing of the wall-clock benchmark: the manifest, order
statistics, the correctness tally, and the in-memory span recorder.

Nothing here imports ``repro`` — the recorder is the benchmark's own
(ISSUE 12: spans come from the benchmark's files, around the calls into
each layer; spans inside the program are a later change).
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def load_manifest() -> dict:
    """``BENCHMARK.json`` at the checkout root is the single list of
    workloads, metric names, units, directions and bounds; the
    benchmark reads it instead of repeating it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the acceptance check applies."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ranked = sorted(values)
    return ranked[max(0, min(len(ranked) - 1,
                             round(q / 100.0 * (len(ranked) - 1))))]


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def median_time(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn()``."""
    return statistics.median(timed(fn)[0] for _ in range(reps))


def digest(payload) -> str:
    """Short stable digest of a JSON-compatible value (input hygiene:
    recorded in the result file so an input drift is visible)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def spin_seconds(n: int = 2_000_000) -> float:
    """Fixed pure-Python calibration loop (``host.spin_s``): explains
    set-to-set drift of the host, never gated."""
    started = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# correctness tally
# ----------------------------------------------------------------------
class Checks:
    """Counts what was attempted and what failed; the failure texts go
    to the detail file and stderr, the counts to the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return bool(ok)


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """The recorder of untraced runs: every span is one shared no-op."""

    enabled = False
    _span = _NoSpan()

    def span(self, name: str, layer: str, run=None):
        return self._span

    def count(self, name: str, value: float) -> None:
        pass


class _Span:
    __slots__ = ("recorder", "record", "token")

    def __init__(self, recorder, record):
        self.recorder = recorder
        self.record = record

    def __enter__(self):
        self.token = self.recorder._current.set(self.record)
        self.record[5] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[6] = time.perf_counter()
        self.recorder._current.reset(self.token)
        return False


class Recorder:
    """In-memory span recorder, written out once when the run ends.

    A span is ``[id, parent id, name, layer, run id, start, end]``; the
    parent is whichever span is open in the current context (a
    ``contextvars`` variable, so concurrent asyncio clients each keep
    their own stack), and a span inherits its parent's run id unless
    given one — every span of one request / one refresh run shares it.
    Counters are recorded at the same boundaries as ``(name, t, value)``.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: list[tuple[str, float, float]] = []
        self._current = contextvars.ContextVar("perf_span", default=None)

    def span(self, name: str, layer: str, run=None) -> _Span:
        parent = self._current.get()
        if run is None and parent is not None:
            run = parent[4]
        record = [len(self.spans), None if parent is None else parent[0],
                  name, layer, run, 0.0, 0.0]
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, time.perf_counter(), value))

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, dict]:
        """Per-layer ``{"self_s", "spans"}``: a span's self time is its
        duration minus the part of it its child spans cover (children of
        concurrent clients overlap, so covered time is a union)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        layers: dict[str, dict] = {}
        for sid, _, _, layer, _, start, end in self.spans:
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = layers.setdefault(layer, {"self_s": 0.0, "spans": 0})
            entry["self_s"] += (end - start) - covered
            entry["spans"] += 1
        return layers

    def shares(self) -> dict[str, float]:
        """Each layer's self time as a percentage of the total."""
        layers = self.self_times()
        total = sum(entry["self_s"] for entry in layers.values())
        return {layer: 100.0 * entry["self_s"] / total if total else 0.0
                for layer, entry in layers.items()}

    def self_time_table(self) -> str:
        layers = self.self_times()
        total = sum(entry["self_s"] for entry in layers.values()) or 1.0
        lines = [f"{'layer':<12}{'self s':>12}{'share %':>10}{'spans':>9}"]
        for layer, entry in sorted(layers.items(),
                                   key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{layer:<12}{entry['self_s']:>12.6f}"
                         f"{100.0 * entry['self_s'] / total:>10.2f}"
                         f"{entry['spans']:>9d}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / ui.perfetto.dev):
        one complete event per span, one lane per run id."""
        origin = min((s[5] for s in self.spans), default=0.0)
        lanes: dict = {}
        events = []
        for sid, parent, name, layer, run, start, end in self.spans:
            lane = lanes.setdefault(run, len(lanes))
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1,
                "tid": lane, "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent, "run": run}})
        for name, t, value in self.counters:
            events.append({"name": name, "ph": "C", "pid": 1,
                           "ts": (t - origin) * 1e6,
                           "args": {"value": value}})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
