"""Schema validation and regression gating for ``BENCH_*.json`` files.

The repo tracks its performance trajectory as dated snapshots at the
repository root (``BENCH_2026-08-07.json`` ...), each the serialized
result of one benchmark experiment.  CI runs this module over every
snapshot to catch two failure modes before they land:

* a **malformed snapshot** — missing keys, ragged rows, NaN/inf
  timings — which would silently poison later comparisons; and
* a **perf regression** — a tracked metric (the per-arm end-to-end
  seconds under ``data.totals``, lower is better) worse than the
  previous dated snapshot by more than a noise threshold.

Usage (the CI entry point)::

    PYTHONPATH=src python -m repro.bench.trajectory BENCH_*.json

Exit status is non-zero on any schema error or gated regression.
"""

from __future__ import annotations

import json
import math
import re
import sys

from repro.errors import ValidationError

#: Keys every snapshot must carry (``data`` holds the machine-readable
#: metrics; ``headers``/``rows`` the human-readable table).
REQUIRED_KEYS = ("experiment", "title", "headers", "rows", "data")

#: Tolerated relative slowdown between consecutive snapshots before the
#: gate fails — simulated timings are deterministic, but arms whose
#: inputs legitimately changed (rescaled workloads, new cost presets)
#: need slack; 5% also covers wall-clock-derived metrics.
DEFAULT_NOISE = 0.05

_DATE_PATTERN = re.compile(r"BENCH_(\d{4}-\d{2}-\d{2})\.json$")


def _check_finite(value, where: str, errors: list[str]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)) and not math.isfinite(value):
        errors.append(f"{where}: non-finite number {value!r}")


def validate_bench_file(payload: dict, name: str = "snapshot"
                        ) -> list[str]:
    """All schema violations in one pass (empty list == valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"{name}: top level must be an object"]
    for key in REQUIRED_KEYS:
        if key not in payload:
            errors.append(f"{name}: missing required key {key!r}")
    headers = payload.get("headers")
    rows = payload.get("rows")
    if headers is not None and not (
            isinstance(headers, list)
            and all(isinstance(h, str) for h in headers)):
        errors.append(f"{name}: headers must be a list of strings")
    if isinstance(headers, list) and isinstance(rows, list):
        for index, row in enumerate(rows):
            if not isinstance(row, list):
                errors.append(f"{name}: rows[{index}] is not a list")
                continue
            if len(row) != len(headers):
                errors.append(
                    f"{name}: rows[{index}] has {len(row)} cells for "
                    f"{len(headers)} headers")
            for cell in row:
                _check_finite(cell, f"{name}: rows[{index}]", errors)
    data = payload.get("data")
    if data is not None and not isinstance(data, dict):
        errors.append(f"{name}: data must be an object")
    for key, value in tracked_metrics(payload).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{name}: {key}: not a number: {value!r}")
        else:
            _check_finite(value, f"{name}: {key}", errors)
    return errors


def tracked_metrics(payload: dict) -> dict[str, float]:
    """Flatten ``data.totals`` (arm -> {point: seconds}, lower is
    better) into ``totals.<arm>.<point>`` gate keys."""
    totals = payload.get("data", {}).get("totals", {})
    metrics: dict[str, float] = {}
    if not isinstance(totals, dict):
        return metrics
    for arm, points in totals.items():
        if isinstance(points, dict):
            for point, seconds in points.items():
                metrics[f"totals.{arm}.{point}"] = seconds
        else:  # an arm may also be a flat scalar
            metrics[f"totals.{arm}"] = points
    return metrics


def regression_gate(old: dict, new: dict,
                    noise: float = DEFAULT_NOISE) -> list[str]:
    """Tracked metrics of ``new`` worse than ``old`` beyond the noise
    threshold (metrics present on only one side are skipped — arms come
    and go as experiments evolve)."""
    before = tracked_metrics(old)
    after = tracked_metrics(new)
    failures: list[str] = []
    for key in sorted(set(before) & set(after)):
        baseline, current = before[key], after[key]
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in (baseline, current)):
            continue
        if baseline <= 0:
            continue
        if current > baseline * (1.0 + noise):
            slower = 100.0 * (current / baseline - 1.0)
            failures.append(
                f"{key}: {current:.3f}s vs {baseline:.3f}s baseline "
                f"(+{slower:.1f}% > {100 * noise:.0f}% threshold)")
    return failures


def snapshot_date(path: str) -> str | None:
    """The YYYY-MM-DD embedded in a ``BENCH_*.json`` filename."""
    match = _DATE_PATTERN.search(path)
    return match.group(1) if match else None


def check_files(paths: list[str]) -> list[str]:
    """Validate every snapshot, then gate each consecutive dated pair at
    the default noise threshold.

    Raises :class:`ValidationError` on unreadable input; returns the
    combined list of schema errors and regression failures.
    """
    problems: list[str] = []
    loaded: list[tuple[str, str, dict]] = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
        problems.extend(validate_bench_file(payload, name=path))
        date = snapshot_date(path)
        if date is not None:
            loaded.append((date, path, payload))
    loaded.sort(key=lambda item: item[:2])
    seen: dict[tuple, str] = {}
    for date, path, payload in loaded:
        key = (date, payload.get("experiment"))
        if key in seen:
            # two snapshots of one experiment on one date leave the
            # gate without an unambiguous baseline ordering
            problems.append(
                f"{path}: duplicate snapshot date {date} for experiment "
                f"{payload.get('experiment')!r} (also {seen[key]})")
        else:
            seen[key] = path
    for (_, old_path, old), (_, new_path, new) in zip(loaded, loaded[1:]):
        if old.get("experiment") != new.get("experiment"):
            continue
        for failure in regression_gate(old, new):
            problems.append(f"{new_path} (vs {old_path}): {failure}")
    return problems


def main(argv: list[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.bench.trajectory BENCH_*.json",
              file=sys.stderr)
        return 2
    try:
        problems = check_files(paths)
    except ValidationError as exc:
        print(f"trajectory: error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"trajectory: {problem}", file=sys.stderr)
    if problems:
        return 1
    count = len(paths)
    print(f"trajectory: {count} snapshot{'s' if count != 1 else ''} "
          f"valid, no tracked-metric regressions")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
