"""Round trip of the one table format (RCB1), as a blob and as a file.

Every codec must give back the table it was given — same column order,
same dtypes, same bits — whatever the columns look like: every integer
width (deltas that wrap around included), floats with NaN / ±inf / -0.0,
bools, fixed-width unicode, zero rows, one distinct value, and more
distinct values than a dictionary may hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.db import columnar_codec, storage_format
from repro.db.table import Table

CODECS = ("none", "zlib", "zlib1", "columnar")

INT_DTYPES = [np.dtype(f"{kind}{width}")
              for kind in "iu" for width in (1, 2, 4, 8)]
FLOAT_DTYPES = [np.dtype("f2"), np.dtype("f4"), np.dtype("f8")]


def _column(dtype: np.dtype, rows: int):
    """``rows`` values of ``dtype``: a handful of distinct ones (the
    dictionary case) or anything the dtype holds (wrap-around deltas,
    NaN payloads)."""
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        anything = st.integers(info.min, info.max)
        # the extremes make consecutive differences overflow the dtype
        few = st.sampled_from([info.min, info.max, 0, 1])
    elif dtype.kind == "f":
        anything = st.floats(width=8 * dtype.itemsize, allow_nan=True,
                             allow_infinity=True)
        few = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                               float("-inf"), 1.5])
    elif dtype.kind == "b":
        anything = few = st.booleans()
    else:
        anything = st.text(alphabet="abcxyz é中",
                           max_size=dtype.itemsize // 4)
        few = st.sampled_from(["", "a", "abc"])
    return st.one_of(
        hnp.arrays(dtype, rows, elements=anything),
        hnp.arrays(dtype, rows, elements=few))


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 40))
    dtypes = draw(st.lists(
        st.sampled_from(INT_DTYPES + FLOAT_DTYPES
                        + [np.dtype(bool), np.dtype("<U3")]),
        min_size=1, max_size=5))
    # reversed names: a format that sorted its columns would be caught
    names = [f"c{i}" for i in reversed(range(len(dtypes)))]
    return Table({name: draw(_column(dtype, rows))
                  for name, dtype in zip(names, dtypes)})


def assert_same_table(actual: Table, expected: Table) -> None:
    assert actual.column_names == expected.column_names
    assert len(actual) == len(expected)
    for name, column in expected.columns().items():
        got = actual[name]
        assert got.dtype == column.dtype, name
        # bit equality: NaN payloads and the sign of zero included
        assert got.tobytes() == column.tobytes(), name


@pytest.mark.parametrize("codec", CODECS)
@given(table=tables())
@settings(max_examples=60, deadline=None)
def test_blob_round_trip(codec, table):
    blob = columnar_codec.encode_table(table, codec)
    assert columnar_codec.is_blob(blob)
    assert blob == b"".join(columnar_codec.encode_chunks(table, codec))
    assert_same_table(columnar_codec.decode_table(blob), table)


@pytest.mark.parametrize("codec", CODECS)
@given(table=tables())
@settings(max_examples=25, deadline=None)
def test_file_round_trip(tmp_path_factory, codec, table):
    directory = str(tmp_path_factory.mktemp("fmt"))
    size = storage_format.write_table(table, directory, "t", codec=codec)
    assert size == storage_format.on_disk_size(directory, "t")
    assert size == len(columnar_codec.encode_table(table, codec))
    assert_same_table(storage_format.read_table(directory, "t"), table)


@pytest.mark.parametrize("codec", CODECS)
def test_large_columns(codec):
    """The cases 40 rows cannot reach: a dictionary that overflows
    (> 65,536 distinct values falls back to delta / raw), one distinct
    value repeated, near-sorted keys, wrap-around at scale."""
    rng = np.random.default_rng(7)
    n = 140_000
    table = Table({
        "distinct": rng.permutation(n).astype(np.int64),     # no dict
        "distinct_f": rng.permutation(n).astype(np.float64),
        "constant": np.full(n, 42, dtype=np.int32),
        "sequence": np.arange(n, dtype=np.uint32) * 3 + 7,
        "wrapping": rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64),
        "codes": rng.integers(0, 300, n).astype(np.int16),   # u2 codes
        "label": rng.choice(np.array(["a", "bb", "ccc"]), n),
        "flag": rng.integers(0, 2, n).astype(bool),
    })
    blob = columnar_codec.encode_table(table, codec)
    assert_same_table(columnar_codec.decode_table(blob), table)
    if codec == "columnar":
        assert len(blob) < len(columnar_codec.encode_table(table, "zlib1"))


def test_float_dictionary_keeps_the_bits():
    """-0.0 == 0.0 and NaN payloads collapse under value equality; the
    dictionary is keyed by bits, so neither is lost."""
    quiet, payload = np.array([0x7FF8000000000000, 0x7FF8000000000123],
                              dtype=np.uint64).view(np.float64)
    column = np.array([0.0, -0.0, quiet, payload] * 50)
    back = columnar_codec.decode_table(columnar_codec.encode_table(
        Table({"x": column}), "columnar"))["x"]
    assert back.tobytes() == column.tobytes()
    assert np.signbit(back[1]) and not np.signbit(back[0])


def test_decoded_columns_are_writable_and_own_their_bytes():
    table = Table({"a": np.arange(10), "b": np.full(10, 2.5)})
    for codec in CODECS:
        back = columnar_codec.decode_table(
            columnar_codec.encode_table(table, codec))
        for column in back.columns().values():
            assert column.flags.writeable, codec
