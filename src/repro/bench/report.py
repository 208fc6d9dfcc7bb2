"""Plain-text rendering of experiment results + artifact emission."""

from __future__ import annotations

import json
from typing import Sequence


def format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None) -> str:
    """Aligned monospace table (first column left, the rest right)."""
    rendered = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cell.rjust(width)
                  for cell, width in zip(cells[1:], widths[1:])]
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in rendered)
    return "\n".join(lines)


def _string_keys(value):
    """``value`` with every tuple dict key (``("TPC-DS", "io1")``, a
    driver's natural index) joined into the string JSON needs."""
    if isinstance(value, dict):
        return {("/".join(map(str, key)) if isinstance(key, tuple) else key):
                _string_keys(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_string_keys(item) for item in value]
    return value


def result_payload(result, **extra) -> dict:
    """The canonical JSON shape of one experiment's data — the
    ``BENCH_*.json``/artifact schema :mod:`repro.bench.trajectory`
    validates (``experiment``/``title``/``headers``/``rows``/``data``),
    plus any ``extra`` side-band keys.

    ``result`` is an :class:`~repro.bench.experiments.ExperimentResult`
    (or anything with the same attributes).
    """
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "data": _string_keys(result.data),
    }
    overlap = set(payload) & set(extra)
    if overlap:
        raise ValueError(f"extra keys {sorted(overlap)} would shadow "
                         f"the schema's required keys")
    payload.update(extra)
    return payload


def emit_result_json(result, path: str, **extra) -> str:
    """Write :func:`result_payload` as JSON to ``path`` and return it —
    the one helper behind every ``bench_*.py`` artifact dump."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_payload(result, **extra), handle, indent=2,
                  default=str)
    return path
