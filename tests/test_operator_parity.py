"""Differential test: the sorting operators against their parent.

``repro.db.operators`` orders a single group key and a join's build key
by :func:`~repro.db.operators._stable_order`, and ``Table.mask``
gathers every column by one index array; ``tests/reference_operators.py``
(the parent's code) lexsorts, argsorts and boolean-indexes.  A stable
sort has one result, and a gather by the mask's indices picks the rows
the mask picks, so nothing may show:

* ``_stable_order`` equals ``np.argsort(kind="stable")`` for every
  integer width, spans on both sides of the 65,536 bound, keys pinned
  at the dtype's own minimum and maximum, and any other dtype;
* ``aggregate``, ``hash_join`` and ``mask`` return bit-identical tables;
* the 25 MVs of the benchmark's star equal the parent operators' MVs,
  column by column.

Example budgets come from the Hypothesis profile (``tests/conftest.py``):
tier-1 runs the derandomized default, CI's seeded ``random-invariants``
matrix runs this file under ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.db import operators, planner
from repro.db.engine import MiniDB
from repro.db.expressions import AggSpec, Col
from repro.db.table import Table
from repro.workloads import generate_tpcds_tables

from tests import reference_operators
from tests.test_codec_parity import integer_columns
from tests.test_select_binder import star_definitions
from tests.test_table_format import (
    FLOAT_DTYPES,
    INT_DTYPES,
    _column,
    assert_same_table,
    tables,
)

OTHER_DTYPES = FLOAT_DTYPES + [np.dtype(bool), np.dtype("<U3")]


def picks(draw, column: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` row numbers of a non-empty ``column``, repeats allowed."""
    return np.array(draw(st.lists(st.integers(0, len(column) - 1),
                                  min_size=rows, max_size=rows)),
                    dtype=np.intp)


@st.composite
def keys(draw, rows: int | None = None):
    """A key column: an integer one from ``integer_columns`` (any width,
    spans around the radix bound, pinned at the dtype's ends), or one of
    a float, bool or string dtype; ``rows`` long when given."""
    if draw(st.booleans()):
        column = draw(integer_columns())
        return column if rows is None else column[picks(draw, column, rows)]
    dtype = draw(st.sampled_from(OTHER_DTYPES))
    if rows is None:
        rows = draw(st.integers(0, 60))
    return draw(_column(dtype, rows))


# ----------------------------------------------------------------------
# _stable_order
# ----------------------------------------------------------------------
def assert_stable_argsort(column: np.ndarray) -> None:
    order = operators._stable_order(column)
    expected = np.argsort(column, kind="stable")
    assert order.dtype == expected.dtype
    assert order.tobytes() == expected.tobytes()


@given(column=keys())
def test_stable_order_is_a_stable_argsort(column):
    assert_stable_argsort(column)


def test_stable_order_at_the_edges_of_every_integer_dtype():
    """Empty and one-row keys, keys pinned at the dtype's ends (where a
    signed offset overflows) and spans of 65,536 and 65,537."""
    for dtype in INT_DTYPES:
        info = np.iinfo(dtype)
        cases = [[], [info.min], [info.max], [info.max, info.min] * 3,
                 [info.min, 0, info.min + 1, 0, info.min],
                 [info.max, info.max - 1, 0] * 3]
        if info.bits > 16:
            for low in (info.min, info.max - (1 << 16), max(info.min, -7)):
                for span in (1 << 16, (1 << 16) + 1):
                    cases.append([low + span - 1, low, low + 7, low,
                                  low + span - 1, low + 1])
        for values in cases:
            assert_stable_argsort(np.array(values, dtype=dtype))


@pytest.fixture
def sorted_dtypes(monkeypatch) -> list[np.dtype]:
    """Dtypes of the arrays ``np.argsort`` and ``np.lexsort`` sort."""
    dtypes: list[np.dtype] = []
    argsort, lexsort = np.argsort, np.lexsort

    def counting_argsort(array, *args, **kwargs):
        dtypes.append(np.asarray(array).dtype)
        return argsort(array, *args, **kwargs)

    def counting_lexsort(arrays, *args, **kwargs):
        dtypes.extend(np.asarray(array).dtype for array in arrays)
        return lexsort(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    return dtypes


@pytest.mark.parametrize("span, sorted_as", [
    (1 << 16, np.uint16), ((1 << 16) + 1, np.int64)])
def test_dense_keys_are_sorted_as_uint16(sorted_dtypes, span, sorted_as):
    """The join's build key and a single group key: radix-sorted while
    their span fits 16 bits, sorted as they are past it."""
    key = np.random.default_rng(7).integers(0, span, 5_000) - 2**62
    key[:2] = (-2**62, -2**62 + span - 1)
    table = Table({"k": key, "v": np.arange(len(key))})
    operators.hash_join(table, table.rename({"k": "k2", "v": "w"}),
                        "k", "k2")
    operators.aggregate(table, ["k"], AGGS)
    assert sorted_dtypes == [np.dtype(sorted_as)] * 2


# ----------------------------------------------------------------------
# aggregate
# ----------------------------------------------------------------------
AGGS = [AggSpec(func, Col("v"), f"{func.lower()}_v")
        for func in ("SUM", "AVG", "MIN", "MAX", "COUNT")]


@given(data=st.data(), two_keys=st.booleans())
def test_aggregate_is_bit_equal(data, two_keys):
    key = data.draw(keys())
    rows = len(key)
    columns = {"k": key}
    if two_keys:
        columns["k2"] = data.draw(keys(rows))
    value_dtype = data.draw(st.sampled_from(
        [np.dtype("i1"), np.dtype("i8"), np.dtype("f8")]))
    columns["v"] = data.draw(_column(value_dtype, rows))
    table = Table(columns)
    group_by = list(columns)[:-1]
    with np.errstate(all="ignore"):
        actual = operators.aggregate(table, group_by, AGGS)
        expected = reference_operators.aggregate(table, group_by, AGGS)
    assert_same_table(actual, expected)


# ----------------------------------------------------------------------
# hash_join
# ----------------------------------------------------------------------
@given(data=st.data())
def test_hash_join_is_bit_equal(data):
    """Left keys that hit the build side once, many times or not at
    all, in any order."""
    right_key = data.draw(keys())
    hits = (right_key[picks(data.draw, right_key,
                            data.draw(st.integers(0, 60)))]
            if len(right_key) else right_key)
    misses = data.draw(_column(right_key.dtype,
                               data.draw(st.integers(0, 10))))
    left_key = np.concatenate([hits, misses])
    left_key = left_key[data.draw(st.permutations(range(len(left_key))))]
    left = Table({"lk": left_key, "l": np.arange(len(left_key))})
    right = Table({"rk": right_key, "r": np.arange(len(right_key)) * 0.5})
    assert_same_table(
        operators.hash_join(left, right, "lk", "rk"),
        reference_operators.hash_join(left, right, "lk", "rk"))


# ----------------------------------------------------------------------
# Table.mask
# ----------------------------------------------------------------------
@given(data=st.data(), table=tables())
def test_mask_is_bit_equal(data, table):
    predicate = data.draw(hnp.arrays(np.bool_, len(table)))
    assert_same_table(table.mask(predicate),
                      reference_operators.mask(table, predicate))


# ----------------------------------------------------------------------
# the 25-MV star
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 20])
def test_star_mvs_equal_the_parent_operators(tmp_path, monkeypatch, seed):
    """The benchmark's star at its own scale, each MV run twice over the
    same parents — live, then with the parent's operators patched in."""
    db = MiniDB(str(tmp_path))
    for name, table in generate_tpcds_tables(0.01, seed).items():
        db.register_table(name, table, persist=False)
    for definition in star_definitions():
        actual, _ = db.query(definition.sql)
        with monkeypatch.context() as parent:
            parent.setattr(planner, "aggregate",
                           reference_operators.aggregate)
            parent.setattr(planner, "hash_join",
                           reference_operators.hash_join)
            parent.setattr(Table, "mask", reference_operators.mask)
            expected, _ = db.query(definition.sql)
        assert len(actual), definition.name
        assert_same_table(actual, expected)
        db.register_table(definition.name, actual, persist=False)
