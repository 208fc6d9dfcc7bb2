"""Round trip of the one table format (RCB1), as a blob and as a file.

Every codec must give back the table it was given — same column order,
same dtypes, same bits — whatever the columns look like: every integer
width (deltas that wrap around included), floats with NaN / ±inf / -0.0,
bools, fixed-width unicode, zero rows, one distinct value, more distinct
values than a dictionary may hold, and columns large enough for the
encoder to sample them and store what does not deflate.  A stored chunk
— and every chunk of a ``none`` blob — carries a CRC-32 in the header;
whatever is wrong with either header list or the bytes they cover is an
``ExecutionError``.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.db import columnar_codec, storage_format
from repro.db.table import Table
from repro.errors import ExecutionError

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


#: Rows of a large table: 8-byte columns of it sit on both sides of the
#: size from which the encoder samples a chunk before deflating it.
LARGE_ROWS = st.integers(columnar_codec._PROBE_FLOOR // 8 - 40,
                         columnar_codec._PROBE_FLOOR // 8 + 40)
LARGE_SHAPES = ("random", "constant", "half", "sorted", "keys")


def large_column(shape: str, rows: int, seed: int) -> np.ndarray:
    """A column the probe has something to decide about: float64 noise
    (stored), one value (deflated), noise then one value (the sample
    must look past the head), sorted int64 (delta-encoded to noise under
    ``columnar``), dense int64 keys (a dictionary)."""
    rng = np.random.default_rng(seed)
    if shape == "random":
        return rng.random(rows)
    if shape == "constant":
        return np.full(rows, rng.random())
    if shape == "half":
        column = rng.random(rows)
        column[rows // 2:] = 1.5
        return column
    if shape == "sorted":
        return np.sort(rng.integers(-2**62, 2**62, rows))
    return rng.integers(-20, 20, rows)


@st.composite
def tables(draw):
    if draw(st.booleans()):
        rows = draw(LARGE_ROWS)
        shapes = draw(st.lists(st.sampled_from(LARGE_SHAPES),
                               min_size=1, max_size=4))
        seed = draw(st.integers(0, 2**16))
        return Table({f"c{i}": large_column(shape, rows, seed + i)
                      for i, shape in reversed(list(enumerate(shapes)))})
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
@given(table=tables(), cut=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_every_strict_prefix_is_an_execution_error(codec, table, cut):
    blob = columnar_codec.encode_table(table, codec)
    for end in (int(cut * len(blob)), len(blob) - 1):
        with pytest.raises(ExecutionError):
            columnar_codec.decode_table(blob[:end])


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
        # the two shapes the codec exists for — a low-cardinality
        # column (dictionary) and a near-sequence (delta) — by a margin
        shaped = Table({"status": rng.integers(0, 8, n),
                        "order_id": np.arange(n, dtype=np.int64) * 3})
        assert 2 * len(columnar_codec.encode_table(shaped, codec)) < \
            len(columnar_codec.encode_table(shaped, "zlib"))


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


# ----------------------------------------------------------------------
# stored chunks and their checksums
# ----------------------------------------------------------------------
def stored_table() -> Table:
    """``noise`` does not deflate and is stored by every codec; ``key``
    is dictionary-encoded under ``columnar`` and deflated by all."""
    rng = np.random.default_rng(11)
    return Table({"key": rng.integers(0, 12, 20_000),
                  "noise": rng.random(20_000)})


def split(blob: bytes) -> tuple[dict, bytes]:
    size = columnar_codec.header_size(blob)
    return json.loads(blob[columnar_codec.HEADER_PREFIX:size]), blob[size:]


def join(header: dict, payload: bytes) -> bytes:
    meta = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return columnar_codec.MAGIC + struct.pack(">I", len(meta)) + meta \
        + payload


@pytest.mark.parametrize("codec", ["zlib", "zlib1", "columnar"])
def test_what_does_not_deflate_is_stored_with_its_crc(codec):
    table = stored_table()
    header, payload = split(columnar_codec.encode_table(table, codec))
    key, noise = header["columns"]
    assert "stored" not in key and "crc" not in key
    assert noise["stored"] == [True]
    assert noise["lengths"] == [table["noise"].nbytes]
    assert noise["crc"] == [zlib.crc32(table["noise"].tobytes())]
    assert payload.endswith(table["noise"].tobytes())


def test_dictionary_codes_that_do_not_deflate_are_stored():
    """Per chunk, not per column: the 256 distinct values deflate, their
    uniformly drawn one-byte codes do not."""
    column = np.random.default_rng(13).integers(1000, 1256, 70_000)
    blob = columnar_codec.encode_table(Table({"k": column}), "columnar")
    header, payload = split(blob)
    (entry,) = header["columns"]
    assert entry["encoding"] == "dict" and entry["code_dtype"] == "|u1"
    assert entry["stored"] == [False, True]
    assert entry["crc"] == [None, zlib.crc32(payload[-70_000:])]
    assert columnar_codec.decode_table(blob)["k"].tobytes() \
        == column.tobytes()
    damaged = bytearray(blob)
    damaged[-1] ^= 0x80
    with pytest.raises(ExecutionError, match="'k'.*crc"):
        columnar_codec.decode_table(bytes(damaged))


def test_none_blob_records_a_crc_per_chunk():
    table = stored_table()
    header, _ = split(columnar_codec.encode_table(table, "none"))
    for entry in header["columns"]:
        assert "stored" not in entry
        assert entry["crc"] == [zlib.crc32(table[entry["name"]].tobytes())]


@pytest.mark.parametrize("codec", ["none", "zlib1", "columnar"])
def test_flipped_bit_in_a_stored_chunk_names_the_column(codec):
    table = stored_table()
    blob = bytearray(columnar_codec.encode_table(table, codec))
    blob[-1000] ^= 0x04                 # inside the trailing noise chunk
    with pytest.raises(ExecutionError, match="'noise'.*crc"):
        columnar_codec.decode_table(bytes(blob))
    # a column that is skipped is not checked, exactly like a deflated one
    assert columnar_codec.decode_table(bytes(blob), columns=["key"])[
        "key"].tobytes() == table["key"].tobytes()


def short_chunk(drop: int):
    """Cut ``drop`` bytes off the stored chunk and make lengths and crc
    agree with what is left: only the row count can tell."""
    def damage(header, payload):
        noise = header["columns"][1]
        noise["lengths"] = [noise["lengths"][0] - drop]
        payload = payload[:-drop]
        noise["crc"] = [zlib.crc32(payload[-noise["lengths"][0]:])]
        return payload
    return damage


def set_field(key, value):
    def damage(header, payload):
        header["columns"][1][key] = value
        return payload
    return damage


def drop_field(key):
    def damage(header, payload):
        del header["columns"][1][key]
        return payload
    return damage


DAMAGE = {
    "stored: too short": set_field("stored", []),
    "stored: too long": set_field("stored", [True, False]),
    "stored: an int": set_field("stored", [1]),
    "stored: not a list": set_field("stored", 7),
    "stored: raw bytes handed to inflate": set_field("stored", [False]),
    "crc: too short": set_field("crc", []),
    "crc: a string": set_field("crc", ["0"]),
    "crc: a float": set_field("crc", [1.5]),
    "crc: a bool": set_field("crc", [True]),
    "crc: null for a stored chunk": set_field("crc", [None]),
    "crc: not a list": set_field("crc", None),
    "crc: missing": drop_field("crc"),
    "chunk: a row short": short_chunk(8),
    "chunk: not whole items": short_chunk(3),
}


@pytest.mark.parametrize("codec", ["zlib1", "columnar"])
@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_malformed_stored_or_crc_is_an_execution_error(codec, damage):
    header, payload = split(
        columnar_codec.encode_table(stored_table(), codec))
    payload = damage(header, payload)
    with pytest.raises(ExecutionError, match="corrupt or truncated"):
        columnar_codec.decode_table(join(header, payload))
