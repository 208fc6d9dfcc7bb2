"""The sorting operators as they stood before dense keys were radix-sorted
— test-only.

``aggregate`` and ``hash_join`` below are the parent commit's
``repro.db.operators`` functions of those names, bodies verbatim but
for ``aggregate``'s ungrouped case, which the change left alone and
which is not kept here: a group-by orders its rows with ``np.lexsort``
whatever the keys are, and a join orders its build side with
``np.argsort(kind="stable")``.
``mask`` is the parent's ``Table.mask`` as a function: every column
boolean-indexed by the predicate.  What the change left alone — the
per-group reductions, the direct-address join runs, the output names —
is imported from the live module.

``repro.db.operators`` and ``Table.mask`` must return bit-identical
tables (names, dtypes, rows, in the same order);
``tests/test_operator_parity.py`` holds them to that.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.db.expressions import AggSpec
from repro.db.operators import (
    _direct_runs,
    _grouped_reduce,
    join_output_names,
)
from repro.db.table import Table
from repro.errors import SqlError, ValidationError


def mask(table: Table, predicate: np.ndarray) -> Table:
    """Row subset by boolean mask."""
    if predicate.dtype != np.bool_:
        raise ValidationError("mask requires a boolean array")
    if len(predicate) != len(table):
        raise ValidationError(
            f"mask length {len(predicate)} != table length "
            f"{len(table)}")
    return Table({name: col[predicate]
                  for name, col in table.columns().items()})


def hash_join(left: Table, right: Table, left_key: str, right_key: str,
              right_prefix: str | None = None, *,
              left_columns: Sequence[str] | None = None,
              right_columns: Mapping[str, str] | None = None) -> Table:
    """Inner equi-join."""
    left_values = left[left_key]
    right_values = right[right_key]
    if left_values.dtype.kind != right_values.dtype.kind:
        raise SqlError(
            f"join key dtype mismatch: {left_key}={left_values.dtype} vs "
            f"{right_key}={right_values.dtype}")
    if left_columns is None:
        left_columns = left.column_names
    if right_columns is None:
        right_columns = join_output_names(left_columns, right.column_names,
                                           right_key, right_prefix)

    order = np.argsort(right_values, kind="stable")
    runs = _direct_runs(left_values, right_values)
    if runs is None:
        sorted_values = right_values[order]
        lo = np.searchsorted(sorted_values, left_values, side="left")
        counts = np.searchsorted(sorted_values, left_values,
                                 side="right") - lo
    else:
        lo, counts = runs

    if len(counts) and counts.min() == 1 == counts.max():
        columns = {name: left[name] for name in left_columns}
        right_idx = order[lo]
    else:
        total = int(counts.sum())
        left_idx = np.repeat(np.arange(len(left_values)), counts)
        # For each left row, enumerate its run [lo, lo + count) in sorted
        # space.
        ends = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(ends - counts, counts)
        right_idx = order[np.repeat(lo, counts) + offsets]
        columns = {name: left[name][left_idx] for name in left_columns}
    for name, out_name in right_columns.items():
        columns[out_name] = right[name][right_idx]
    return Table(columns)


def aggregate(table: Table, group_by: list[str],
              aggs: list[AggSpec]) -> Table:
    """Group-by aggregation via lexsort + ``reduceat``."""
    if not group_by:
        raise ValueError("the reference covers grouped aggregates only")
    n = len(table)

    keys = [table[name] for name in group_by]
    if n == 0:
        columns = {name: table[name] for name in group_by}
        for spec in aggs:
            if spec.func == "COUNT":
                dtype = np.int64
            elif spec.func == "AVG":
                dtype = np.float64
            else:
                dtype = spec.arg.evaluate(table).dtype
            columns[spec.alias] = np.zeros(0, dtype=dtype)
        return Table(columns)

    order = np.lexsort(keys[::-1])
    sorted_keys = [k[order] for k in keys]
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for key in sorted_keys:
        change[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, n))

    columns = {name: key[starts]
               for name, key in zip(group_by, sorted_keys)}
    for spec in aggs:
        if spec.alias in columns:
            raise SqlError(f"duplicate output column {spec.alias!r}")
        values = (spec.arg.evaluate(table)[order]
                  if spec.arg is not None else None)
        columns[spec.alias] = _grouped_reduce(spec, values, starts, counts)
    return Table(columns)
