"""Differential test: the binding executor against the syntactic one.

``repro.db.planner`` binds a statement before it scans: it prunes
columns, pushes single-source WHERE conjuncts below the joins and lets
``hash_join`` pick a lookup by key dtype and span.  None of that may
show in a result.  Hypothesis draws small tables and statements — 0–2
joins over colliding column names, qualified and unqualified
references, WHERE trees of ``AND`` / ``OR`` / ``NOT`` over any side,
``SELECT *``, arithmetic projections, GROUP BY with every aggregate,
``COUNT(*)`` alone, ORDER BY / LIMIT, empty inputs, join keys that are
dense, sparse or negative ints, floats or strings, probe keys outside
the build side's range, many-to-many and exactly-once matches, and now
and then one deliberate mistake — and each statement runs three times:
on ``tests/reference_select.py`` (the parent's executor, whole tables),
and on ``MiniDB.query`` from persisted blobs and from the Memory
Catalog.  Column order, dtypes and values (``np.array_equal``) must be
the same, and so must the exception type of what both reject.

Intended differences — the whole list:

1. *A qualified reference reads the table it names.*  The parent tested
   ``name in available`` before looking at the qualifier, so ``b.x``
   read ``a.x`` whenever the join had renamed ``b``'s column to ``b_x``.
   Where a drawn statement qualifies a renamed column, the reference is
   given the same statement with that reference spelled as the renamed
   name (``b_x``), which it resolves correctly — the equivalence the
   binder implements.  (The parent's wrong answer itself, a qualifier
   that names no source — accepted by the parent, a ``PlanningError``
   now — and ``b.key`` for a join's dropped right key are pinned by
   example in ``tests/test_select_binder.py``; the generator does not
   draw them.)
2. *Binding comes first.*  A statement with both a binding mistake and
   an execution-time one (say an unknown column and a non-boolean
   WHERE) reports the binding one, where the parent reported whichever
   its operator order met first.  The generator plants at most one
   mistake per statement, so this never shows here.

Example budgets come from the Hypothesis profile (``tests/conftest.py``):
tier-1 runs the derandomized default, CI's seeded ``random-invariants``
matrix runs the same tests under ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.db.engine import MiniDB
from repro.db.sql import parse_select
from repro.db.table import Table

from tests import reference_select

NAMES = ("a", "b", "c")


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def key_pool(kind: str, size: int) -> np.ndarray:
    """``size`` distinct, ascending join-key values of one family."""
    steps = np.arange(size)
    return {
        "dense": steps + 3,
        "negative": steps - size - 2,
        "sparse": steps * 1_000_003 - 5,        # span >> rows
        "float": steps * 0.5 - 1.0,
        "string": np.array([f"k{i:02d}" for i in steps]),
    }[kind]


def key_column(rng, kind: str, pool: np.ndarray, n_rows: int,
               role: str) -> np.ndarray:
    """A join-key column.  A ``unique`` build side holds each key at
    most once (with a probe drawn from it: every row matches exactly
    once); a ``window`` holds only the middle of the pool, so probes
    fall outside its range on both sides."""
    if role == "unique":
        picks = rng.permutation(len(pool))[:n_rows]
    else:
        low, high = (len(pool) // 3, 2 * len(pool) // 3 + 1) \
            if role == "window" else (0, len(pool))
        picks = rng.integers(low, high, n_rows)
    column = pool[picks]
    if kind in ("dense", "negative"):
        column = column.astype(rng.choice([np.int64, np.int32]))
    return column


VALUE_COLUMNS = {
    # name -> (dtypes, values)
    "x": ([np.int64, np.int32, np.int8], np.arange(-5, 6)),
    "y": ([np.float64, np.float32],
          np.array([-1.5, -0.25, 0.0, 0.5, 1.0, 2.75, 8.0])),
    "g": ([np.int64, np.int16], np.arange(3)),
    "s": (["<U2"], np.array(["aa", "ab", "b", "c"])),
    "f": ([np.bool_], np.array([False, True])),
}


@dataclass
class Column:
    """A column of the join output as the generator tracks it."""

    table: str
    origin: str         # name in its table
    name: str           # name in the join output
    kind: str           # numeric | string | bool
    is_key: bool = False


def kind_of(array: np.ndarray) -> str:
    return {"b": "bool", "U": "string"}.get(array.dtype.kind, "numeric")


@st.composite
def databases(draw):
    """Three tables ``a`` / ``b`` / ``c`` over one key family; every
    table draws its value columns (and ``j``, a second key) from the
    same names, so joins collide on most of them.  Hypothesis draws the
    shapes; the cell values come from a drawn seed (a draw per cell
    costs more than running the statement)."""
    kind = draw(st.sampled_from(
        ["dense", "negative", "sparse", "float", "string"]))
    pool = key_pool(kind, draw(st.integers(2, 8)))
    shared_key_name = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = {}
    for name in NAMES:
        n_rows = draw(st.sampled_from([6, 12, 3, 1, 0]))
        role = draw(st.sampled_from(["any", "any", "unique", "window"]))
        if role == "unique":
            n_rows = min(n_rows, len(pool))
        columns = {"k" if shared_key_name else f"k{name}":
                   key_column(rng, kind, pool, n_rows, role)}
        if draw(st.booleans()):     # a foreign key, for chains of joins
            columns["j"] = key_column(rng, kind, pool, n_rows, "any")
        for column in draw(st.lists(st.sampled_from(sorted(VALUE_COLUMNS)),
                                    min_size=1, max_size=4, unique=True)):
            dtypes, values = VALUE_COLUMNS[column]
            columns[column] = rng.choice(values, n_rows).astype(
                draw(st.sampled_from(dtypes)))
        tables[name] = Table(columns)
    return tables


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass
class Sql:
    """One text for the binder, one for the reference (they differ only
    where intended difference 1 applies)."""

    new: str = ""
    ref: str = ""

    def __add__(self, other: "Sql | str") -> "Sql":
        if isinstance(other, str):
            other = Sql(other, other)
        return Sql(self.new + other.new, self.ref + other.ref)

    @staticmethod
    def join(parts: list["Sql"], separator: str) -> "Sql":
        return Sql(separator.join(p.new for p in parts),
                   separator.join(p.ref for p in parts))


@dataclass
class Scope:
    columns: list[Column] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[Column]:
        return [c for c in self.columns if c.kind == kind]


@st.composite
def references(draw, scope: Scope, column: Column):
    """``column`` by its output name, or — where its table is in the
    statement once — as ``table.origin``."""
    renamed = column.name != column.origin
    if scope.tables.count(column.table) == 1 and \
            draw(st.integers(0, 3 if renamed else 1)):
        qualified = f"{column.table}.{column.origin}"
        # intended difference 1: a renamed column is spelled by its
        # output name for the reference
        return Sql(qualified,
                   column.name if renamed else qualified)
    return Sql(column.name, column.name)


@st.composite
def numeric_exprs(draw, scope: Scope, depth: int = 2):
    columns = scope.of_kind("numeric")
    leaf = draw(st.integers(0, 3 if depth else 1))
    if leaf == 0 and columns:
        return draw(references(scope, draw(st.sampled_from(columns))))
    if leaf <= 1:
        text = draw(st.sampled_from(["0", "1", "2", "3", "0.5", "2.5",
                                     "100", "300"]))
        return Sql(text, text)
    if leaf == 2:
        return Sql("-", "-") + draw(numeric_exprs(scope, depth - 1))
    op = draw(st.sampled_from([" + ", " - ", " * ", " / "]))
    return Sql("(", "(") + draw(numeric_exprs(scope, depth - 1)) + op \
        + draw(numeric_exprs(scope, depth - 1)) + ")"


@st.composite
def predicates(draw, scope: Scope, depth: int = 2):
    leaves = ["compare", "string", "flag"]
    shape = draw(st.sampled_from(["or", "and", "not"] + leaves if depth
                                 else leaves))
    if shape == "string" and scope.of_kind("string"):
        column = draw(st.sampled_from(scope.of_kind("string")))
        other = draw(st.sampled_from(
            ["'aa'", "'b'", "'k03'", "'zz'"]
            + [None] * (len(scope.of_kind("string")) > 1)))
        right = Sql(other, other) if other else draw(references(
            scope, draw(st.sampled_from(scope.of_kind("string")))))
        return draw(references(scope, column)) \
            + draw(st.sampled_from([" = ", " != ", " < ", " >= "])) + right
    if shape == "flag" and scope.of_kind("bool"):
        return draw(references(
            scope, draw(st.sampled_from(scope.of_kind("bool")))))
    if shape == "not":
        return Sql("NOT ", "NOT ") + draw(predicates(scope, depth - 1))
    if shape in ("and", "or"):
        return Sql("(", "(") + draw(predicates(scope, depth - 1)) \
            + f" {shape.upper()} " + draw(predicates(scope, depth - 1)) + ")"
    op = draw(st.sampled_from([" = ", " != ", " < ", " <= ", " > ", " >= "]))
    return draw(numeric_exprs(scope, depth=1)) + op \
        + draw(numeric_exprs(scope, depth=1))


MISTAKES = ("unknown_column", "order_by_missing", "not_grouped",
            "string_vs_number", "where_not_boolean")


@st.composite
def statements(draw, tables: dict[str, Table], shape: str):
    """``(sql for the binder, sql for the reference)`` of one SELECT of
    the given output ``shape``: star | project | group."""
    mistake = draw(st.sampled_from((None,) * 20 + MISTAKES))
    scope = Scope()

    def enter(name: str, skip: str | None = None) -> None:
        taken = {c.name for c in scope.columns}
        scope.tables.append(name)
        for origin, array in tables[name].columns().items():
            if origin == skip:
                continue
            out = origin if origin not in taken else f"{name}_{origin}"
            taken.add(out)
            scope.columns.append(Column(
                name, origin, out, kind_of(array),
                is_key=origin[0] in "kj"))

    first = draw(st.sampled_from(NAMES))
    enter(first)
    sql = Sql() + f" FROM {first}"
    for _ in range(draw(st.integers(0, 2))):
        # a table may come twice: a self-join renames every column, a
        # third copy runs out of names (both executors say so)
        right = draw(st.sampled_from(NAMES))
        right_key = next(iter(tables[right].columns()))
        left = draw(st.sampled_from([c for c in scope.columns if c.is_key]))
        spelled = right_key if draw(st.booleans()) \
            else f"{right}.{right_key}"
        sql = sql + f" JOIN {right} ON " \
            + draw(references(scope, left)) + f" = {spelled}"
        enter(right, skip=right_key)

    if draw(st.integers(0, 3)):
        where = draw(predicates(scope))
        if mistake == "string_vs_number" and scope.of_kind("string"):
            where = where + " AND " + scope.of_kind("string")[0].name \
                + " > 3"
        elif mistake == "where_not_boolean":
            where = draw(numeric_exprs(scope)) + " + 1"
        sql = sql + " WHERE " + where

    output: list[str] = []
    if shape == "star":
        select = Sql("*", "*")
        output = [c.name for c in scope.columns]
    elif shape == "project":
        items = []
        for index in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                column = draw(st.sampled_from(scope.columns))
                if draw(st.booleans()):     # bare, default alias
                    items.append(Sql(column.name, column.name))
                    output.append(column.name)
                    continue
                expr = draw(references(scope, column))
            else:
                expr = draw(numeric_exprs(scope))
            items.append(expr + f" AS o{index}")
            output.append(f"o{index}")
        if mistake == "unknown_column":
            items.append(Sql("ghost", "ghost"))
        select = Sql.join(items, ", ")
    else:
        keys = draw(st.lists(st.sampled_from(scope.columns), max_size=2,
                             unique_by=lambda c: c.name))
        items = []
        for column in keys:
            if draw(st.integers(0, 3)):     # a key may stay unselected
                # an alias on a group key is parsed and ignored
                items.append(draw(references(scope, column))
                             + draw(st.sampled_from(["", " AS alias"])))
                output.append(column.name)
        for index in range(draw(st.integers(0 if items else 1, 4))):
            func = draw(st.sampled_from(
                ["SUM", "COUNT", "AVG", "MIN", "MAX", "COUNT(*)"]))
            if func == "COUNT(*)":
                items.append(Sql(func, func) + f" AS n{index}")
            else:
                items.append(Sql(func + "(", func + "(")
                             + draw(numeric_exprs(scope))
                             + f") AS n{index}")
            output.append(f"n{index}")
        if mistake == "not_grouped":
            items.append(Sql("ghost", "ghost") if not scope.columns
                         else Sql(scope.columns[-1].name + " + 1 AS bad",
                                  scope.columns[-1].name + " + 1 AS bad"))
        select = Sql.join(items, ", ")
        if keys:
            sql = sql + " GROUP BY " + Sql.join(
                [draw(references(scope, column)) for column in keys], ", ")

    sql = Sql("SELECT ", "SELECT ") + select + sql
    if draw(st.booleans()) or mistake == "order_by_missing":
        order = draw(st.lists(st.sampled_from(output), min_size=1,
                              max_size=2, unique=True))
        if mistake == "order_by_missing":
            order.append("ghost")
        sql = sql + " ORDER BY " + ", ".join(
            name + draw(st.sampled_from(["", " ASC", " DESC"]))
            for name in order)
    if draw(st.integers(0, 2)) == 2:
        sql = sql + f" LIMIT {draw(st.sampled_from([3, 5, 1, 0]))}"
    return sql


@st.composite
def cases(draw, shape: str):
    tables = draw(databases())
    return tables, draw(statements(tables, shape))


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def outcome(run):
    try:
        with np.errstate(all="ignore"):
            return run()
    except Exception as exc:    # noqa: BLE001 - the type is the outcome
        return type(exc)


def assert_same(actual, expected, context: str) -> None:
    if isinstance(expected, type) or isinstance(actual, type):
        assert actual is expected, (
            f"{context}: binder gave {actual!r}, reference {expected!r}")
        return
    assert actual.column_names == expected.column_names, context
    for name in expected.column_names:
        assert actual[name].dtype == expected[name].dtype, (
            f"{context}: column {name!r} is {actual[name].dtype}, "
            f"reference {expected[name].dtype}")
        assert np.array_equal(
            actual[name], expected[name],
            equal_nan=expected[name].dtype.kind == "f"), (
            f"{context}: column {name!r} differs")


def check(tables: dict[str, Table], sql: Sql) -> None:
    expected = outcome(lambda: reference_select.execute_select(
        parse_select(sql.ref), tables.__getitem__))
    with tempfile.TemporaryDirectory() as directory:
        db = MiniDB(directory)
        for name, table in tables.items():
            db.register_table(name, table)
        assert_same(outcome(lambda: db.query(sql.new)[0]), expected,
                    f"persisted: {sql.new}")
        for name, table in tables.items():
            db.catalog.put_memory(name, table)
        assert_same(outcome(lambda: db.query(sql.new)[0]), expected,
                    f"memory catalog: {sql.new}")


@settings(deadline=None)
@given(case=cases("star"))
def test_star_statements_agree(case):
    check(*case)


@settings(deadline=None)
@given(case=cases("project"))
def test_projections_agree(case):
    check(*case)


@settings(deadline=None)
@given(case=cases("group"))
def test_grouped_statements_agree(case):
    check(*case)
