"""Binder + executor: SQL AST → bound plan → result table.

A statement is *bound* before anything is read. :func:`bind_select`
resolves it against the sources' schemas — column names only, which a
Memory-Catalog resident answers from its live table and a persisted
table from its blob header — into one small :class:`BoundSelect`: per
source the columns its scan must produce and the ``AND``-conjuncts of
the WHERE that mention that source alone (they run on the scan, before
any join), per join the resolved keys and the columns worth gathering,
the residual predicate, and the output stage. :func:`execute_select`
then runs it: pruned scan → pushed filters → join → residual → group-by
or projection → ORDER BY / LIMIT. A source never decodes a column no
clause uses, and a join never carries one.

Two things stay as written. Join *order* is syntactic (our workload
definitions are authored with sensible orders, mirroring how dbt/LookML
compile to SQL the warehouse executes as given). And output naming is
computed from the sources' **full** schemas, so the collision renames of
:func:`repro.db.operators.hash_join` (``<table>_<column>``) do not
depend on what a statement happens to read.

Column references: an unqualified name is looked up among the join
output's names (renamed ones included); ``t.c`` is column ``c`` of the
source named ``t`` under whatever name the output gives it — the right
key of a join, which the output drops, is the left key it equals — and
a qualifier that names no source of the statement is a
:class:`~repro.errors.PlanningError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Protocol, Sequence

from repro.db.expressions import AggSpec, BinOp, Col, Expr, Lit, Not, \
    Projection
from repro.db.operators import (
    aggregate,
    filter_rows,
    hash_join,
    join_output_names,
    limit,
    project,
    sort_rows,
)
from repro.db.sql import SelectStatement, parse_select
from repro.db.table import Table
from repro.errors import PlanningError


class TableSource(Protocol):
    """Where a statement's tables come from (the engine puts the memory
    catalog and the warehouse behind it, and its read clock)."""

    def column_names(self, name: str) -> Sequence[str]:
        """The table's full schema, in stored order; reads no column."""

    def scan(self, name: str, columns: Sequence[str]) -> Table:
        """The table restricted to ``columns``, in that order."""


@dataclass(frozen=True)
class WholeTables:
    """A :class:`TableSource` over a ``name -> Table`` lookup that can
    only hand out whole tables; pruning is then a zero-copy select."""

    lookup: Callable[[str], Table]

    def column_names(self, name: str) -> Sequence[str]:
        return self.lookup(name).column_names

    def scan(self, name: str, columns: Sequence[str]) -> Table:
        return self.lookup(name).select(columns)


# ----------------------------------------------------------------------
# The bound plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundScan:
    """One source: what to read of it and what to keep of what is read."""

    table: str
    columns: tuple[str, ...]    # stored names, stored order
    filter: Expr | None         # over the stored names; None = keep all


@dataclass(frozen=True)
class BoundJoin:
    """Joins the running output (left) with the next scan (right)."""

    left_key: str                       # a name in the running output
    right_key: str                      # a stored name of the right scan
    left_columns: tuple[str, ...]       # carried over from the left
    right_columns: dict[str, str]       # {stored name: name in the output}


@dataclass(frozen=True)
class BoundSelect:
    """A statement with every name resolved; see the module docstring.

    The output stage is ``grouping`` (GROUP BY and/or aggregates), else
    ``projections``, else — both ``None`` — ``SELECT *``.
    """

    scans: tuple[BoundScan, ...]        # FROM, then one per JOIN
    joins: tuple[BoundJoin, ...]
    residual: Expr | None               # WHERE minus the pushed conjuncts
    grouping: tuple[list[str], list[AggSpec], list[str]] | None
    projections: list[Projection] | None
    order_by: tuple[list[str], list[bool]] | None
    limit: int | None


# ----------------------------------------------------------------------
# Binding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Column:
    """One column of the join output, traced back to where it is stored."""

    name: str       # in the join output
    source: int     # index of the scan that owns it
    origin: str     # its stored name there


class _Scope:
    """The join output's full schema as it grows source by source."""

    def __init__(self) -> None:
        self.tables: list[str] = []
        self.columns: dict[str, _Column] = {}       # by output name
        # a join's right key is not in the output: (source, stored name)
        # -> the left key column it equals
        self.dropped: dict[tuple[int, str], _Column] = {}

    def add(self, table: str, names: dict[str, str]) -> None:
        """A new source contributing ``{stored name: output name}``."""
        source = len(self.tables)
        self.tables.append(table)
        for origin, name in names.items():
            self.columns[name] = _Column(name, source, origin)

    def resolve(self, col: Col) -> _Column:
        if col.qualifier is None:
            if col.name in self.columns:
                return self.columns[col.name]
        else:
            owners = [source for source, table in enumerate(self.tables)
                      if table == col.qualifier]
            if not owners:
                raise PlanningError(
                    f"column {col.display()} names table "
                    f"{col.qualifier!r}, which this statement does not "
                    f"read (sources: {self.tables})")
            for column in self.columns.values():
                if column.source in owners and column.origin == col.name:
                    return column
            for source in owners:
                if (source, col.name) in self.dropped:
                    return self.dropped[source, col.name]
        raise PlanningError(
            f"unknown column {col.display()}; available: "
            f"{sorted(self.columns)}")


def _rewrite(expr: Expr, name_of: Callable[[Col], str]) -> Expr:
    """``expr`` with every column reference replaced by ``name_of`` it."""
    if isinstance(expr, Col):
        return Col(name=name_of(expr))
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(op=expr.op, left=_rewrite(expr.left, name_of),
                     right=_rewrite(expr.right, name_of))
    if isinstance(expr, Not):
        return Not(operand=_rewrite(expr.operand, name_of))
    raise PlanningError(f"cannot resolve expression of type {type(expr)}")


def _references(expr: Expr) -> Iterator[Col]:
    """Every column reference in ``expr``."""
    if isinstance(expr, Col):
        yield expr
    elif isinstance(expr, BinOp):
        yield from _references(expr.left)
        yield from _references(expr.right)
    elif isinstance(expr, Not):
        yield from _references(expr.operand)


def _conjuncts(expr: Expr) -> Iterator[Expr]:
    """The operands of the top-level ``AND`` tree, left to right."""
    if isinstance(expr, BinOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _conjunction(parts: list[Expr]) -> Expr | None:
    """``parts`` ``AND``-ed left to right; ``None`` for none."""
    if not parts:
        return None
    return reduce(lambda left, right: BinOp("AND", left, right), parts)


def bind_select(statement: SelectStatement,
                column_names: Callable[[str], Sequence[str]]) -> BoundSelect:
    """Resolve ``statement`` against the schemas ``column_names`` gives.

    Raises :class:`PlanningError` for a reference that resolves to
    nothing (and lets ``column_names``' own error through for a table
    that does not exist) — before any column has been read.
    """
    scope = _Scope()
    schemas = [list(column_names(statement.from_table))]
    scope.add(statement.from_table, {name: name for name in schemas[0]})
    keys: list[tuple[_Column, str]] = []
    for join in statement.joins:
        schema = list(column_names(join.table))
        left_key = scope.resolve(join.left)
        if join.right.name not in schema or \
                join.right.qualifier not in (None, join.table):
            raise PlanningError(
                f"unknown column {join.right.display()}; available in "
                f"{join.table!r}: {sorted(schema)}")
        right_key = join.right.name
        scope.add(join.table,
                  join_output_names(list(scope.columns), schema, right_key,
                                    right_prefix=join.table))
        scope.dropped[len(schemas), right_key] = left_key
        schemas.append(schema)
        keys.append((left_key, right_key))

    # Everything below the joins reads the join output; ``used`` collects
    # the columns it reads, which is what the joins have to deliver.
    used: set[_Column] = set()

    def output_name(col: Col) -> str:
        column = scope.resolve(col)
        used.add(column)
        return column.name

    pushed: list[list[Expr]] = [[] for _ in schemas]
    filter_columns: list[set[str]] = [set() for _ in schemas]
    residual: list[Expr] = []
    if statement.where is not None:
        for conjunct in _conjuncts(statement.where):
            columns = {scope.resolve(col) for col in _references(conjunct)}
            sources = {column.source for column in columns}
            if len(sources) == 1:
                (source,) = sources
                pushed[source].append(_rewrite(
                    conjunct, lambda col: scope.resolve(col).origin))
                filter_columns[source].update(c.origin for c in columns)
            else:
                residual.append(_rewrite(conjunct, output_name))

    grouping = projections = None
    has_aggregates = any(item.agg is not None
                         for item in statement.projections)
    if statement.group_by or has_aggregates:
        group_cols = [output_name(col) for col in statement.group_by]
        aggs: list[AggSpec] = []
        wanted: list[str] = []
        for item in statement.projections:
            if item.agg is not None:
                arg = (None if item.agg.arg is None
                       else _rewrite(item.agg.arg, output_name))
                aggs.append(AggSpec(func=item.agg.func, arg=arg,
                                    alias=item.alias))
                wanted.append(item.alias)
            else:
                bound = _rewrite(item.expr, output_name)
                if not isinstance(bound, Col) or \
                        bound.name not in group_cols:
                    raise PlanningError(
                        f"non-aggregate output {item.alias!r} must be a "
                        "GROUP BY column")
                wanted.append(bound.name)
        if statement.star:
            raise PlanningError("SELECT * cannot be combined with GROUP BY")
        grouping = (group_cols, aggs, wanted)
        output = wanted
    elif statement.star:
        if statement.projections:
            raise PlanningError("SELECT * cannot be mixed with expressions")
        used.update(scope.columns.values())
        output = list(scope.columns)
    else:
        projections = [Projection(expr=_rewrite(item.expr, output_name),
                                  alias=item.alias)
                       for item in statement.projections]
        output = [item.alias for item in projections]

    order_by = None
    if statement.order_by:
        for name, _ in statement.order_by:
            if name not in output:
                raise PlanningError(
                    f"ORDER BY column {name!r} not in output")
        order_by = ([name for name, _ in statement.order_by],
                    [asc for _, asc in statement.order_by])

    # What each join must deliver: the columns read below the joins plus
    # the left keys of the joins still to come.
    joins: list[BoundJoin] = []
    needed = set(used)
    for source in range(len(keys), 0, -1):
        left_key, right_key = keys[source - 1]
        left = tuple(c.name for c in scope.columns.values()
                     if c.source < source and c in needed)
        right = {c.origin: c.name for c in scope.columns.values()
                 if c.source == source and c in needed}
        if not left and not right:
            left = (left_key.name,)     # a table needs a column
        joins.append(BoundJoin(left_key.name, right_key, left, right))
        needed.add(left_key)
    joins.reverse()

    scans: list[BoundScan] = []
    for source, schema in enumerate(schemas):
        read = filter_columns[source] | {
            c.origin for c in needed if c.source == source}
        if source:
            read.add(keys[source - 1][1])
        columns = tuple(name for name in schema if name in read)
        scans.append(BoundScan(
            table=scope.tables[source],
            columns=columns or (schema[0],),    # COUNT(*) reads one
            filter=_conjunction(pushed[source])))

    return BoundSelect(
        scans=tuple(scans), joins=tuple(joins),
        residual=_conjunction(residual), grouping=grouping,
        projections=projections, order_by=order_by, limit=statement.limit)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _scan(scan: BoundScan, source: TableSource) -> Table:
    table = source.scan(scan.table, scan.columns)
    if scan.filter is not None:
        table = filter_rows(table, scan.filter)
    return table


def execute_select(statement: SelectStatement,
                   source: TableSource) -> Table:
    """Bind a parsed SELECT against ``source``'s schemas, then run it."""
    plan = bind_select(statement, source.column_names)

    current = _scan(plan.scans[0], source)
    for join, scan in zip(plan.joins, plan.scans[1:]):
        current = hash_join(current, _scan(scan, source),
                            join.left_key, join.right_key,
                            left_columns=join.left_columns,
                            right_columns=join.right_columns)
    if plan.residual is not None:
        current = filter_rows(current, plan.residual)

    if plan.grouping is not None:
        group_cols, aggs, wanted = plan.grouping
        # group keys + aggregates are all present; select down to what
        # the query asked for, in the order written
        current = aggregate(current, group_cols, aggs).select(wanted)
    elif plan.projections is not None:
        current = project(current, plan.projections)

    if plan.order_by is not None:
        current = sort_rows(current, *plan.order_by)
    if plan.limit is not None:
        current = limit(current, plan.limit)
    return current


def execute_sql(sql: str, source: TableSource) -> Table:
    """Parse + execute one SELECT statement."""
    return execute_select(parse_select(sql), source)
