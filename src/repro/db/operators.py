"""Relational operators over columnar tables (vectorized numpy kernels).

Each operator is a pure function ``Table -> Table``. The join is a
sort-merge-expanded equi-join: one stable sort of the build side, each
probe key's run of matches located either through a direct-address
count/offset table (dense integer keys) or by binary search (anything
else), then a vectorized range expansion — skipped altogether when every
probe row matches exactly once. The aggregate is a stable sort of the
group keys + ``reduceat``. All standard columnar techniques that keep
everything in C loops.

A single dense integer key — a build key, a group key — is sorted as
``uint16`` offsets from its minimum, which numpy radix-sorts in two
passes where a wider key takes a merge sort (:func:`_stable_order`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.db.expressions import AggSpec, Expr, Projection
from repro.db.table import Table
from repro.errors import SqlError, ValidationError


def filter_rows(table: Table, predicate: Expr) -> Table:
    """Keep rows where ``predicate`` evaluates to True."""
    mask = predicate.evaluate(table)
    if mask.dtype != np.bool_:
        raise SqlError("WHERE predicate must be boolean")
    return table.mask(mask)


def project(table: Table, projections: list[Projection]) -> Table:
    """Evaluate SELECT expressions into output columns."""
    if not projections:
        raise ValidationError("projection list must be non-empty")
    columns: dict[str, np.ndarray] = {}
    for item in projections:
        if item.alias in columns:
            raise SqlError(f"duplicate output column {item.alias!r}")
        columns[item.alias] = item.expr.evaluate(table)
    return Table(columns)


#: A key whose values span at most this many integers is sorted as
#: ``uint16`` offsets.
_RADIX_SPAN = 1 << 16


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, radix-sorted for a dense
    integer key.

    A stable sort has exactly one result, so sorting each key's offset
    from the minimum instead of the key gives the same permutation.  The
    offsets are taken in the *unsigned* arithmetic of the key's width,
    where they cannot overflow: in int8, ``127 - (-128)`` wraps to -1,
    in uint8 it is 255.
    """
    if keys.dtype.kind in "iu" and len(keys):
        low = keys.min()
        if int(keys.max()) - int(low) < _RADIX_SPAN:
            unsigned = np.dtype(f"u{keys.itemsize}")
            offsets = keys.view(unsigned) - low.astype(unsigned)
            return np.argsort(offsets.astype(np.uint16, copy=False),
                              kind="stable")
    return np.argsort(keys, kind="stable")


#: Direct addressing is used while the build side's key span is at most
#: this many times ``len(left) + len(right)``: the count/offset table
#: then costs no more than a few passes over the inputs themselves.
_DIRECT_SPAN_FACTOR = 4


def _direct_runs(left_keys: np.ndarray, right_keys: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Each left key's run in the sorted right keys — ``(start, count)``
    — from a table addressed by ``key - min(right)``; ``None`` when the
    keys do not lend themselves to one.

    That is decided by the input alone: integer keys that convert to
    int64 exactly (so not uint64) and a right-side span within
    :data:`_DIRECT_SPAN_FACTOR` of the rows involved — every surrogate
    key of a star schema.  Where a key has matches, ``start`` is what
    ``searchsorted(side="left")`` returns.
    """
    for keys in (left_keys, right_keys):
        if keys.dtype.kind not in "iu" or keys.dtype == np.uint64:
            return None
    if not len(left_keys) or not len(right_keys):
        return None
    low, high = int(right_keys.min()), int(right_keys.max())
    span = high - low + 1
    if span > _DIRECT_SPAN_FACTOR * (len(left_keys) + len(right_keys)):
        return None
    per_key = np.bincount(right_keys.astype(np.int64, copy=False) - low,
                          minlength=span)
    first = np.cumsum(per_key) - per_key
    probe = left_keys.astype(np.int64, copy=False)
    inside = (probe >= low) & (probe <= high)
    if inside.all():
        slot = probe - low
        return first[slot], per_key[slot]
    slot = np.where(inside, probe - low, 0)
    return first[slot], np.where(inside, per_key[slot], 0)


def hash_join(left: Table, right: Table, left_key: str, right_key: str,
              right_prefix: str | None = None, *,
              left_columns: Sequence[str] | None = None,
              right_columns: Mapping[str, str] | None = None) -> Table:
    """Inner equi-join.

    Implementation: sort the right key once, find each left key's run of
    matches in that order, then expand the variable-length runs fully
    vectorized.  The runs come from one of two lookups, chosen by the
    keys alone — a direct-address count/offset table for integer keys
    with a dense span (:func:`_direct_runs`), two ``searchsorted`` calls
    for everything else — and both use the same stable order, so the
    output rows are the same.  When every left row has exactly one match
    (a foreign key into a primary key) the left columns pass through as
    they are.

    Output keeps all left columns plus the right columns; the right join
    key is dropped (it equals the left's), and any other name collision
    is disambiguated with ``right_prefix``.  A caller that knows what it
    needs names it instead: ``left_columns`` to carry over and
    ``right_columns`` as ``{name in right: name in the output}`` — only
    those are gathered.
    """
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

    order = _stable_order(right_values)
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


def join_output_names(left_names: Sequence[str], right_names: Sequence[str],
                       right_key: str, right_prefix: str | None
                       ) -> dict[str, str]:
    """``{right column: its name in the join output}`` — every right
    column but the key, renamed ``<prefix>_<name>`` where it would
    collide with a column already in the output."""
    taken = set(left_names)
    names: dict[str, str] = {}
    for name in right_names:
        if name == right_key:
            continue  # equal to the left key by construction
        out_name = name
        if out_name in taken:
            out_name = f"{right_prefix or 'r'}_{name}"
            if out_name in taken:
                raise SqlError(
                    f"cannot disambiguate column {name!r} in join output")
        taken.add(out_name)
        names[name] = out_name
    return names


def _grouped_reduce(spec: AggSpec, values: np.ndarray | None,
                    starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    if spec.func == "COUNT":
        return counts.astype(np.int64)
    assert values is not None
    if spec.func == "SUM":
        return np.add.reduceat(values, starts)
    if spec.func == "AVG":
        return np.add.reduceat(values, starts) / counts
    if spec.func == "MIN":
        return np.minimum.reduceat(values, starts)
    if spec.func == "MAX":
        return np.maximum.reduceat(values, starts)
    raise ValidationError(f"unknown aggregate {spec.func!r}")


def aggregate(table: Table, group_by: list[str],
              aggs: list[AggSpec]) -> Table:
    """Group-by aggregation via a stable sort + ``reduceat``: a single
    key by :func:`_stable_order`, several by ``np.lexsort``.

    With an empty ``group_by`` this is a full-table aggregate producing one
    row (zero rows in → one row with COUNT 0 / neutral sums, matching SQL
    semantics for COUNT but returning empty for MIN/MAX-only queries).
    """
    if not aggs and not group_by:
        raise ValidationError("aggregate needs group keys or aggregates")
    n = len(table)

    if not group_by:
        columns: dict[str, np.ndarray] = {}
        for spec in aggs:
            values = (spec.arg.evaluate(table)
                      if spec.arg is not None else None)
            if spec.func == "COUNT":
                columns[spec.alias] = np.array([n], dtype=np.int64)
            elif n == 0:
                # neutral element in the argument's own dtype, so empty
                # inputs don't silently promote integer columns to float
                dtype = values.dtype if values is not None else np.float64
                dtype = np.float64 if spec.func == "AVG" else dtype
                columns[spec.alias] = np.zeros(1, dtype=dtype)
            elif spec.func == "SUM":
                columns[spec.alias] = np.array([values.sum()])
            elif spec.func == "AVG":
                columns[spec.alias] = np.array([values.mean()])
            elif spec.func == "MIN":
                columns[spec.alias] = np.array([values.min()])
            elif spec.func == "MAX":
                columns[spec.alias] = np.array([values.max()])
        return Table(columns)

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

    order = (_stable_order(keys[0]) if len(keys) == 1
             else np.lexsort(keys[::-1]))
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


def sort_rows(table: Table, keys: list[str],
              ascending: list[bool] | None = None) -> Table:
    """Stable multi-key sort."""
    if not keys:
        raise ValidationError("sort needs at least one key")
    ascending = ascending or [True] * len(keys)
    if len(ascending) != len(keys):
        raise ValidationError("ascending flags must match keys")
    # lexsort treats the LAST key as primary; feed keys reversed. Descending
    # numeric keys are negated; other dtypes fall back to argsort reversal.
    arrays = []
    for name, asc in zip(reversed(keys), reversed(ascending)):
        col = table[name]
        if not asc:
            if col.dtype.kind in "if":
                col = -col
            else:
                # rank-based inversion for non-numeric dtypes
                ranks = np.argsort(np.argsort(col, kind="stable"))
                col = -ranks
        arrays.append(col)
    order = np.lexsort(arrays)
    return table.take(order)


def limit(table: Table, n: int) -> Table:
    if n < 0:
        raise ValidationError("LIMIT must be >= 0")
    return table.take(np.arange(min(n, len(table))))


def union_all(tables: list[Table]) -> Table:
    """Row union; schemas must match exactly."""
    return Table.concat(tables)
