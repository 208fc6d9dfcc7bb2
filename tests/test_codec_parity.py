"""Differential test: the table encoder against its parent.

``repro.db.columnar_codec`` deflates a large chunk only when a sample of
it shrinks and builds the dictionary of dense integer keys by direct
addressing; ``tests/reference_codec.py`` (the parent's encoder) deflates
everything and sorts everything.  Neither shortcut may show anywhere it
does not have to:

* ``_dictionary`` returns bit-identical arrays — values, codes, their
  dtypes, and ``None`` in the same cases — for every integer width, with
  spans on both sides of the 65,536 bound and columns pinned at the
  dtype's own minimum and maximum (where a signed offset overflows);
* a table the encoder stores no chunk of — any table whose chunks are
  all below the probe's floor, and any larger one the probe found worth
  deflating throughout — encodes to the parent's exact bytes (``none``
  blobs: the parent's bytes plus the per-chunk ``crc`` list);
* a blob the parent wrote decodes to the table it was made from.

The two counters at the end hold the *work* to the claim without a
clock: an incompressible megabyte hands deflate its sample and nothing
more, and dense keys never reach ``np.unique``.

Example budgets come from the Hypothesis profile (``tests/conftest.py``):
tier-1 runs the derandomized default, CI's seeded ``random-invariants``
matrix runs this file under ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import columnar_codec
from repro.db.table import Table

from tests import reference_codec
from tests.test_table_format import (
    CODECS,
    INT_DTYPES,
    _column,
    assert_same_table,
    split,
    tables,
)

DEFLATING = tuple(codec for codec in CODECS if codec != "none")
BOUND = columnar_codec._DICT_MAX_CARDINALITY


# ----------------------------------------------------------------------
# _dictionary
# ----------------------------------------------------------------------
@st.composite
def integer_columns(draw):
    """A column of one integer dtype whose ``max - min + 1`` is exactly
    ``span``, sitting at the bottom, the top or the middle of the dtype's
    range, over few enough distinct values for a dictionary to pay — or
    not."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    width = info.max - info.min + 1
    span = min(width, draw(st.one_of(
        st.sampled_from([1, 2, 255, 256, 257, BOUND - 1, BOUND, BOUND + 1,
                         2 * BOUND]),
        st.integers(1, 2 * BOUND))))
    low = draw(st.sampled_from([
        info.min, info.max - span + 1,
        max(info.min, min(0, info.max - span + 1)),
        max(info.min, -(span // 2))]))
    inner = draw(st.lists(st.integers(0, span - 1), max_size=30))
    distinct = sorted({0, span - 1, *inner})
    rows = draw(st.integers(0, 4 * len(distinct)))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=rows,
                          max_size=rows))
    # both ends present, so the span is what was drawn
    offsets = distinct + picks
    order = draw(st.permutations(range(len(offsets))))
    return np.array([low + offsets[i] for i in order], dtype=dtype)


def assert_same_dictionary(actual, expected) -> None:
    assert (actual is None) == (expected is None)
    if expected is None:
        return
    assert len(actual) == len(expected) == 2
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(column=integer_columns())
def test_dictionary_of_integer_keys_is_bit_equal(column):
    assert_same_dictionary(columnar_codec._dictionary(column),
                           reference_codec._dictionary(column))


@given(data=st.data(), rows=st.integers(1, 40))
def test_dictionary_of_any_small_column_is_bit_equal(data, rows):
    dtype = data.draw(st.sampled_from(
        INT_DTYPES + [np.dtype("f2"), np.dtype("f4"), np.dtype("f8"),
                      np.dtype(bool), np.dtype("<U3"), np.dtype("c16")]))
    if dtype.kind == "c":
        column = np.zeros(rows, dtype=dtype)    # never dictionary-encoded
    else:
        column = data.draw(_column(dtype, rows))
    assert_same_dictionary(columnar_codec._dictionary(column),
                           reference_codec._dictionary(column))


def test_dictionary_at_the_edges_of_every_integer_dtype():
    """The cases the first direct-addressing draft got wrong, by name."""
    for dtype in INT_DTYPES:
        info = np.iinfo(dtype)
        for values in ([info.min, 0, 0, 0], [info.max, 0, 0, 0],
                       [info.min, info.min + 1] * 3,
                       [info.max, info.max - 1] * 3,
                       [info.min, info.max] * 4):
            column = np.array(values, dtype=dtype)
            assert_same_dictionary(columnar_codec._dictionary(column),
                                   reference_codec._dictionary(column))


# ----------------------------------------------------------------------
# blobs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codec", DEFLATING)
@given(table=tables())
def test_a_table_with_no_stored_chunk_encodes_to_the_parents_bytes(
        codec, table):
    blob = columnar_codec.encode_table(table, codec)
    header, _ = split(blob)
    stored = ["stored" in entry for entry in header["columns"]]
    if all(column.nbytes < columnar_codec._PROBE_FLOOR
           for column in table.columns().values()):
        assert not any(stored)
    if not any(stored):
        assert all("crc" not in entry for entry in header["columns"])
        assert blob == reference_codec.encode_table(table, codec)


@given(table=tables())
def test_a_none_blob_is_the_parents_plus_its_crcs(table):
    header, payload = split(
        columnar_codec.encode_table(table, "none"))
    theirs, their_payload = split(
        reference_codec.encode_table(table, "none"))
    assert payload == their_payload
    for entry in header["columns"]:
        assert entry.pop("crc") == [
            zlib.crc32(table[entry["name"]].tobytes())]
    assert header == theirs


@pytest.mark.parametrize("codec", CODECS)
@given(table=tables())
def test_a_parent_written_blob_still_decodes(codec, table):
    assert_same_table(columnar_codec.decode_table(
        reference_codec.encode_table(table, codec)), table)


# ----------------------------------------------------------------------
# clock-free counters
# ----------------------------------------------------------------------
@pytest.fixture
def deflated(monkeypatch) -> list[int]:
    """Sizes of everything handed to ``zlib.compress``."""
    sizes: list[int] = []
    real = zlib.compress

    def counting(data, *args, **kwargs):
        sizes.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(zlib, "compress", counting)
    return sizes


MEBIBYTE_ROWS = (1 << 20) // 8


@pytest.mark.parametrize("codec", DEFLATING)
def test_an_incompressible_megabyte_costs_only_its_sample(codec, deflated):
    table = Table({"x": np.random.default_rng(3).random(MEBIBYTE_ROWS)})
    blob = columnar_codec.encode_table(table, codec)
    assert 0 < sum(deflated) <= 3 * columnar_codec._PROBE_SLICE \
        <= columnar_codec._PROBE_FLOOR
    assert len(blob) < table.nbytes + 400       # stored: header + bytes
    assert_same_table(columnar_codec.decode_table(blob), table)


@pytest.mark.parametrize("codec", DEFLATING)
def test_a_compressible_megabyte_is_deflated_whole(codec, deflated):
    # all distinct: no dictionary, the column's own bytes are the chunk
    table = Table({"x": np.arange(MEBIBYTE_ROWS) * 0.5})
    blob = columnar_codec.encode_table(table, codec)
    assert sum(deflated) >= table.nbytes
    assert len(blob) < table.nbytes // 4
    assert blob == reference_codec.encode_table(table, codec)


@pytest.fixture
def sorted_columns(monkeypatch) -> list[np.dtype]:
    """Dtypes of the columns ``np.unique`` was called on."""
    dtypes: list[np.dtype] = []
    real = np.unique

    def counting(array, *args, **kwargs):
        dtypes.append(np.asarray(array).dtype)
        return real(array, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return dtypes


def test_dense_keys_are_counted_and_floats_are_sorted(sorted_columns):
    rng = np.random.default_rng(5)
    keys = Table({"k": rng.integers(-2_000, 3_000, 100_000)})
    blob = columnar_codec.encode_table(keys, "columnar")
    assert sorted_columns == []
    # uniform codes sample at ~0.12 and are stored, so the blob is not
    # the parent's: hold the dictionary and the round trip instead
    assert_same_dictionary(columnar_codec._dictionary(keys["k"]),
                           reference_codec._dictionary(keys["k"]))
    assert_same_table(columnar_codec.decode_table(blob), keys)

    wide = Table({"k": rng.integers(0, 10 * BOUND, 1_000)})
    measures = Table({"m": rng.integers(0, 50, 100_000) * 0.25})
    for table, sorted_as in ((wide, np.int64), (measures, np.uint64)):
        del sorted_columns[:]
        blob = columnar_codec.encode_table(table, "columnar")
        assert sorted_columns == [np.dtype(sorted_as)]      # floats by bits
        assert blob == reference_codec.encode_table(table, "columnar")
