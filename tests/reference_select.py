"""MiniDB's SELECT executor as it stood before ISSUE 20 — test-only.

``execute_select`` below is the parent commit's
``repro.db.planner.execute_select``, body verbatim: purely syntactic —
every source is loaded whole through ``resolver(name) -> Table``, all of
their columns are joined, the WHERE runs on the join output, and a
column reference is resolved against whatever columns happen to be
present after each operator.  With it come the two things under it that
ISSUE 20 also changed, as they were: the parent's ``hash_join`` (two
binary searches, every column gathered) and the parent's literal
semantics (``np.full`` per literal — ``_ParentSemantics`` evaluates an
expression tree that way and is what this executor hands to the
operators it shares with the live code: ``filter_rows``, ``project``,
``aggregate``, ``sort_rows``, ``limit``, none of which ISSUE 20
touched beyond that).  The three lines marked ``not verbatim`` are the
only departures from the parent's text.

``repro.db.planner`` must produce the same table — column order,
dtypes, values, row order — for every statement both accept, and reject
with the same exception type what both reject;
``tests/test_select_parity.py`` holds it to that and lists the one
intended difference (a qualified reference now reads the table it
names).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.db.expressions import _ARITH, _BOOL, _COMPARE, AggSpec, BinOp, \
    Col, Expr, Lit, Not, Projection
from repro.db.operators import (
    aggregate,
    filter_rows,
    limit,
    project,
    sort_rows,
)
from repro.db.sql import SelectStatement
from repro.db.table import Table
from repro.errors import PlanningError, SqlError

TableResolver = Callable[[str], Table]


class _ParentSemantics(Expr):
    """``expr`` evaluated the way the parent's ``Expr.evaluate`` methods
    did: a literal is a full column of itself."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def evaluate(self, table: Table) -> np.ndarray:
        return self._evaluate(self.expr, table)

    def _evaluate(self, expr: Expr, table: Table) -> np.ndarray:
        if isinstance(expr, Col):
            return table[expr.name]
        if isinstance(expr, Lit):
            return np.full(len(table), expr.value)
        if isinstance(expr, Not):
            values = self._evaluate(expr.operand, table)
            if values.dtype != np.bool_:
                raise SqlError("NOT requires a boolean operand")
            return np.logical_not(values)
        assert isinstance(expr, BinOp)
        left = self._evaluate(expr.left, table)
        right = self._evaluate(expr.right, table)
        if expr.op in _ARITH:
            func = _ARITH[expr.op]
        elif expr.op in _COMPARE:
            func = _COMPARE[expr.op]
        else:
            func = _BOOL[expr.op]
            if left.dtype != np.bool_ or right.dtype != np.bool_:
                raise SqlError(
                    f"{expr.op} requires boolean operands")
        return func(left, right)


def hash_join(left: Table, right: Table, left_key: str, right_key: str,
              right_prefix: str | None = None) -> Table:
    """Inner equi-join.

    Implementation: sort the right key once, locate each left key's match
    range with two ``searchsorted`` calls, then expand the variable-length
    ranges fully vectorized. Output keeps all left columns plus the right
    columns; the right join key is dropped (it equals the left's), and any
    other name collision is disambiguated with ``right_prefix``.
    """
    left_values = left[left_key]
    right_values = right[right_key]
    if left_values.dtype.kind != right_values.dtype.kind:
        raise SqlError(
            f"join key dtype mismatch: {left_key}={left_values.dtype} vs "
            f"{right_key}={right_values.dtype}")

    order = np.argsort(right_values, kind="stable")
    sorted_values = right_values[order]
    lo = np.searchsorted(sorted_values, left_values, side="left")
    hi = np.searchsorted(sorted_values, left_values, side="right")
    counts = hi - lo
    total = int(counts.sum())

    left_idx = np.repeat(np.arange(len(left_values)), counts)
    # For each left row, enumerate its match range [lo, hi) in sorted space.
    ends = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(ends - counts, counts)
    right_idx = order[np.repeat(lo, counts) + offsets]

    columns: dict[str, np.ndarray] = {
        name: col[left_idx] for name, col in left.columns().items()
    }
    for name, col in right.columns().items():
        if name == right_key:
            continue  # equal to the left key by construction
        out_name = name
        if out_name in columns:
            prefix = right_prefix or "r"
            out_name = f"{prefix}_{name}"
            if out_name in columns:
                raise SqlError(
                    f"cannot disambiguate column {name!r} in join output")
        columns[out_name] = col[right_idx]
    return Table(columns)



def _resolve_col(col: Col, available: set[str]) -> Col:
    """Map a (possibly qualified) reference onto an actual column name."""
    if col.name in available:
        return Col(name=col.name)
    if col.qualifier is not None:
        renamed = f"{col.qualifier}_{col.name}"
        if renamed in available:
            return Col(name=renamed)
    raise PlanningError(
        f"unknown column {col.display()}; available: {sorted(available)}")


def _resolve_expr(expr: Expr, available: set[str]) -> Expr:
    if isinstance(expr, Col):
        return _resolve_col(expr, available)
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(op=expr.op,
                     left=_resolve_expr(expr.left, available),
                     right=_resolve_expr(expr.right, available))
    if isinstance(expr, Not):
        return Not(operand=_resolve_expr(expr.operand, available))
    raise PlanningError(f"cannot resolve expression of type {type(expr)}")


def execute_select(statement: SelectStatement,
                   resolver: TableResolver) -> Table:
    """Run a parsed SELECT against tables supplied by ``resolver``."""
    current = resolver(statement.from_table)

    for join in statement.joins:
        right = resolver(join.table)
        available_left = set(current.column_names)
        available_right = set(right.column_names)
        left_key = _resolve_col(join.left, available_left)
        right_key = _resolve_col(join.right, available_right)
        current = hash_join(current, right,
                            left_key.name, right_key.name,
                            right_prefix=join.table)

    if statement.where is not None:
        predicate = _resolve_expr(statement.where,
                                  set(current.column_names))
        current = filter_rows(current,
                              _ParentSemantics(predicate))  # not verbatim

    available = set(current.column_names)
    has_aggregates = any(item.agg is not None
                         for item in statement.projections)

    if statement.group_by or has_aggregates:
        group_cols = [_resolve_col(c, available).name
                      for c in statement.group_by]
        aggs: list[AggSpec] = []
        passthrough: list[str] = []
        for item in statement.projections:
            if item.agg is not None:
                arg = (None if item.agg.arg is None
                       else _ParentSemantics(  # not verbatim
                           _resolve_expr(item.agg.arg, available)))
                aggs.append(AggSpec(func=item.agg.func, arg=arg,
                                    alias=item.alias))
            else:
                resolved = _resolve_expr(item.expr, available)
                if not isinstance(resolved, Col) or \
                        resolved.name not in group_cols:
                    raise PlanningError(
                        f"non-aggregate output {item.alias!r} must be a "
                        "GROUP BY column")
                passthrough.append(resolved.name)
        current = aggregate(current, group_cols, aggs)
        # Order output columns as written: group keys + aggregates are all
        # present; select down to what the query asked for.
        wanted = []
        for item in statement.projections:
            if item.agg is not None:
                wanted.append(item.alias)
            else:
                wanted.append(_resolve_col(item.expr,
                                           set(current.column_names)).name)
        if statement.star:
            raise PlanningError("SELECT * cannot be combined with GROUP BY")
        current = current.select(wanted)
    elif statement.star:
        if statement.projections:
            raise PlanningError("SELECT * cannot be mixed with expressions")
    else:
        projections = [
            Projection(expr=_ParentSemantics(  # not verbatim
                           _resolve_expr(item.expr, available)),
                       alias=item.alias)
            for item in statement.projections
        ]
        current = project(current, projections)

    if statement.order_by:
        keys = []
        ascending = []
        out_cols = set(current.column_names)
        for name, asc in statement.order_by:
            if name not in out_cols:
                raise PlanningError(
                    f"ORDER BY column {name!r} not in output")
            keys.append(name)
            ascending.append(asc)
        current = sort_rows(current, keys, ascending)

    if statement.limit is not None:
        current = limit(current, statement.limit)

    return current


