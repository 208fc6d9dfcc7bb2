"""Real columnar-aware table codecs (in-memory blobs).

MiniDB tables are plain numpy column dicts (:class:`repro.db.table.Table`),
which makes layout-aware encoding cheap and genuinely effective: a
star-schema intermediate is mostly low-cardinality dimension keys (a
dictionary's worth of distinct values repeated millions of times) and
monotone-ish sequence columns (delta-encoding leaves small residuals a
byte compressor crushes).  Generic deflate over the raw column bytes
cannot see either structure; the ``columnar`` codec here encodes it away
*before* the byte compressor runs (cf. the layout-aware encodings of
*Optimised Storage for Datalog Reasoning*).

The blob format (``RCB1``) is self-describing — magic, JSON header
(column names, dtypes, per-column encoding, payload lengths), then the
payload bytes — so :func:`decode_table` needs nothing but the blob.  It
is the repo's *only* table format: warehouse files and spill files
(:mod:`repro.db.storage_format`) are this blob on disk, the
``ram-compressed`` rung keeps it in memory, and a blob moves between the
three verbatim.  Four codecs map to the
:data:`~repro.store.config.SPILL_CODECS` presets:

* ``none`` — raw column bytes, no compression (framing and a checksum);
* ``zlib`` — raw column bytes, deflate level 6;
* ``zlib1`` — raw column bytes, deflate level 1 (the fast preset the
  compressed-in-RAM rung defaults to);
* ``columnar`` — per-column dictionary/delta pre-encoding, then
  deflate level 1 (the warehouse default: faster *and* smaller than
  deflate-6 on star-schema tables).

The encoder pays only for work that shrinks bytes.  A deflating codec
samples a chunk of 64 KiB or more first (three 16 KiB slices at its own
level) and, unless the sample loses a tenth, *stores* the chunk as it
is — float measures deflate to 0.95 of their size at a tenth of the
speed of everything else.  The column's header entry then carries
``"stored"`` (a bool per chunk) and ``"crc"`` (the CRC-32 of each stored
chunk, ``null`` for a deflated one, which zlib's Adler-32 covers); an
entry with no stored chunk has neither, and such a blob is byte for
byte what the format always was.  ``none`` stores every chunk by
definition and records the same ``"crc"`` list.  The decoder checks a
stored chunk before it uses a byte of it; a column nobody asked for is
neither inflated nor checked.  Dense integer keys get their dictionary
by direct addressing over their span instead of a sort — same arrays,
same blob.

These run for real in the MiniDB backend: every materialization and
every demotion into a compressing tier goes through
:func:`encode_table` (once per table and refresh — see
:mod:`repro.exec.minidb`), a read-back calls :func:`decode_table`
lazily, and the measured blob sizes feed the ledger's observed-ratio
telemetry and the adaptive codec loop.  Simulated backends charge the
corresponding :class:`~repro.store.config.CodecProfile` presets instead.
"""

from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.db.table import Table
from repro.errors import ExecutionError, ValidationError

#: Blob magic: "repro columnar blob, format 1".
MAGIC = b"RCB1"

#: Bytes before the JSON header: the magic and the header's length word.
HEADER_PREFIX = len(MAGIC) + 4

_LEVELS = {"none": None, "zlib": 6, "zlib1": 1, "columnar": 1}

#: Dictionary encoding pays off while the distinct values fit a narrow
#: code array; past this many distinct values fall back to delta/raw.
_DICT_MAX_CARDINALITY = 65536

#: A chunk this large is deflated only if a sample of it shrinks; below
#: it the sample would cost about what it could save.
_PROBE_FLOOR = 64 * 1024

#: Bytes of each of the three sample slices (head, middle, tail).
_PROBE_SLICE = 16 * 1024

#: Share of its size the sample must lose for the chunk to be deflated:
#: float measures deflate to ~0.95 at 11-23 MB/s, keys and flags to
#: under a third - nothing real sits near the line.
_PROBE_MIN_SAVING = 0.10


def codec_names() -> tuple[str, ...]:
    """Codec names :func:`encode_table` accepts."""
    return tuple(sorted(_LEVELS))


def is_blob(data: bytes) -> bool:
    """True when ``data`` starts with the blob magic."""
    return data[: len(MAGIC)] == MAGIC


def _deflate_pays(raw: memoryview, level: int) -> bool:
    """Whether deflating ``raw`` is worth its CPU, judged on a sample.

    A chunk under :data:`_PROBE_FLOOR` always deflates.  Above it, three
    fixed slices — head, middle, tail, so a column that is not uniform
    is seen where it differs — are deflated at the codec's own level,
    and the chunk deflates only if they shrink by
    :data:`_PROBE_MIN_SAVING`.  A pure function of the chunk's bytes:
    the same table always encodes to the same blob.
    """
    size = len(raw)
    if size < _PROBE_FLOOR:
        return True
    starts = (0, (size - _PROBE_SLICE) // 2, size - _PROBE_SLICE)
    sample = sum(len(zlib.compress(raw[start:start + _PROBE_SLICE], level))
                 for start in starts)
    return sample <= (1.0 - _PROBE_MIN_SAVING) * len(starts) * _PROBE_SLICE


def _compress(column: np.ndarray,
              level: int | None) -> tuple[bytes | memoryview, int | None]:
    """One payload chunk and, when it is the column's raw bytes, their
    CRC-32 — a deflated chunk is covered by zlib's own Adler-32."""
    raw = memoryview(column.view(np.uint8))     # in place: no copy
    if level is not None and _deflate_pays(raw, level):
        return zlib.compress(raw, level), None
    return raw, zlib.crc32(raw)


def _column_bytes(entry: dict, chunks: list[memoryview],
                  level: int | None) -> list[bytes | memoryview]:
    """The column bytes each chunk of ``entry`` holds: inflated, or — a
    stored chunk — as they are, once they match their recorded CRC-32.

    ``stored`` and ``crc`` are per-chunk header lists.  A blob written
    before they existed has neither: every chunk of a deflating codec is
    deflated, and the raw chunks of a ``none`` blob go unchecked.
    """
    name = entry["name"]
    stored = entry.get("stored", [level is None] * len(chunks))
    crcs = entry.get("crc", [None] * len(chunks))
    if len(stored) != len(chunks) or len(crcs) != len(chunks):
        raise ValueError(f"column {name!r}: stored / crc lists do not "
                         f"match its {len(chunks)} chunks")
    column_bytes: list[bytes | memoryview] = []
    for chunk, is_stored, crc in zip(chunks, stored, crcs):
        if type(is_stored) is not bool or type(crc) not in (int, type(None)):
            raise ValueError(f"column {name!r}: malformed stored / crc entry")
        if not is_stored:
            column_bytes.append(zlib.decompress(chunk))
            continue
        if crc is None and level is not None:
            raise ValueError(f"column {name!r}: stored chunk has no crc")
        if crc is not None and zlib.crc32(chunk) != crc:
            raise ValueError(f"column {name!r}: stored chunk fails its crc")
        column_bytes.append(chunk)
    return column_bytes


def _code_dtype(cardinality: int) -> np.dtype:
    if cardinality <= 1 << 8:
        return np.dtype(np.uint8)
    if cardinality <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def _dense_dictionary(column: np.ndarray) -> list[np.ndarray] | None:
    """The values ``np.unique(column, return_inverse=True)`` returns and
    its per-row ranks (already in their narrow code dtype), for a
    non-empty integer column whose values span at most
    :data:`_DICT_MAX_CARDINALITY` — by direct addressing, not by a sort;
    ``None`` for a wider span.

    Offsets from the minimum are taken in the *unsigned* arithmetic of
    the column's width, where they cannot overflow: in int8,
    ``0 - (-128)`` wraps to -128, in uint8 it is 128.
    """
    low, high = column.min(), column.max()
    span = int(high) - int(low) + 1
    if span > _DICT_MAX_CARDINALITY:
        return None
    unsigned = np.dtype(f"u{column.itemsize}")
    base = low.astype(unsigned)         # same bits
    offsets = (column.view(unsigned) - base).astype(np.intp)
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    distinct = np.flatnonzero(present)
    values = (distinct.astype(unsigned) + base).view(column.dtype)
    # a rank per offset, read only where a value is present
    ranks = np.empty(span, dtype=_code_dtype(distinct.size))
    ranks[distinct] = np.arange(distinct.size)
    return [values, ranks[offsets]]


def _dictionary(column: np.ndarray) -> list[np.ndarray] | None:
    """``[distinct values, narrow per-row codes]`` where that pays.

    Two keys may share a code only when they are bit-equal: floats are
    keyed by their bits (so -0.0 and NaN payloads survive), kinds without
    that guarantee (complex, long double) are not dictionary-encoded.
    Dense integer keys are counted, everything else is sorted.
    """
    kind = column.dtype.kind
    if kind == "f" and column.itemsize <= 8:
        column = column.view(f"u{column.itemsize}")
    elif kind not in "iubUS":
        return None
    pair = _dense_dictionary(column) if kind in "iu" else None
    values, codes = pair or np.unique(column, return_inverse=True)
    if values.size > _DICT_MAX_CARDINALITY or values.size * 2 > column.size:
        return None
    return [values, codes.astype(_code_dtype(values.size), copy=False)]


def _encode_column(column: np.ndarray, codec: str) -> tuple[dict, list]:
    """Encode one column; returns (header entry, payload chunks)."""
    level = _LEVELS[codec]
    entry: dict = {"dtype": column.dtype.str, "encoding": "raw"}
    parts = [column]
    if codec == "columnar" and column.size:
        dictionary = _dictionary(column)
        if dictionary is not None:
            entry["encoding"] = "dict"
            entry["code_dtype"] = dictionary[1].dtype.str
            parts = dictionary
        elif column.dtype.kind in "iu":
            # delta: residuals of near-sorted keys deflate far better
            # than the raw values (wraparound on overflow is lossless —
            # cumsum with the same dtype wraps back)
            deltas = np.empty_like(column)
            deltas[0] = column[0]
            np.subtract(column[1:], column[:-1], out=deltas[1:])
            entry["encoding"] = "delta"
            parts = [deltas]
    chunks, crcs = zip(*(_compress(part, level) for part in parts))
    entry["lengths"] = [len(chunk) for chunk in chunks]
    if any(crc is not None for crc in crcs):
        if level is not None:       # ``none`` stores every chunk anyway
            entry["stored"] = [crc is not None for crc in crcs]
        entry["crc"] = list(crcs)
    return entry, list(chunks)


def _decode_column(entry: dict, chunks: list[memoryview],
                   codec: str) -> np.ndarray:
    parts = _column_bytes(entry, chunks, _LEVELS[codec])
    dtype = np.dtype(entry["dtype"])
    encoding = entry["encoding"]
    if encoding == "dict":
        values = np.frombuffer(parts[0], dtype=dtype)
        codes = np.frombuffer(parts[1], dtype=np.dtype(entry["code_dtype"]))
        return values[codes]
    data = np.frombuffer(parts[0], dtype=dtype)
    if encoding == "delta":
        with np.errstate(over="ignore"):
            return np.cumsum(data, dtype=dtype)
    if encoding != "raw":
        raise ExecutionError(f"unknown column encoding {encoding!r}")
    return data.copy()      # own the bytes: frombuffer views are read-only


def encode_chunks(table: Table, codec: str = "zlib1") -> list:
    """The blob of :func:`encode_table` as a list of buffers.

    Header first, then one buffer per payload chunk — with ``none`` the
    chunks are views of the table's own columns, so a writer can stream
    them (``writelines``) without assembling the blob.  The views are
    valid while ``table`` is alive.
    """
    if codec not in _LEVELS:
        raise ValidationError(
            f"unknown table codec {codec!r}; choose from {codec_names()}")
    header: dict = {"codec": codec, "length": len(table), "columns": []}
    payloads: list = []
    for name, column in table.columns().items():
        entry, chunks = _encode_column(np.ascontiguousarray(column), codec)
        entry["name"] = name
        header["columns"].append(entry)
        payloads.extend(chunks)
    meta = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return [MAGIC + struct.pack(">I", len(meta)) + meta, *payloads]


def encode_table(table: Table, codec: str = "zlib1") -> bytes:
    """Serialize ``table`` into a self-describing compressed blob."""
    return b"".join(encode_chunks(table, codec))


@contextmanager
def _corruption_as_execution_error():
    """Whatever a damaged blob makes the parser raise is one error."""
    try:
        yield
    except (struct.error, zlib.error, ValueError, KeyError, TypeError,
            IndexError, ValidationError) as exc:
        raise ExecutionError(
            f"corrupt or truncated columnar blob: {exc!r}") from exc


@dataclass(frozen=True)
class BlobHeader:
    """What a blob says about its table before any column is decoded."""

    codec: str
    length: int                     # rows
    columns: tuple[dict, ...]       # name, dtype, encoding, chunk lengths
    column_names: tuple[str, ...]   # in stored order
    decoded_nbytes: int             # ``Table.nbytes`` of the decoded table
    size: int                       # header bytes; the payload starts here


def header_size(prefix: bytes) -> int:
    """Bytes the header occupies (magic and length word included), from
    the blob's first :data:`HEADER_PREFIX` bytes — what a reader needs to
    fetch a file's header without its payload."""
    if not is_blob(prefix):
        raise ExecutionError("not a columnar blob (bad magic)")
    with _corruption_as_execution_error():
        (meta_len,) = struct.unpack_from(">I", prefix, len(MAGIC))
    return HEADER_PREFIX + meta_len


def read_header(blob: bytes) -> BlobHeader:
    """Parse a blob's header; needs only its first :func:`header_size`
    bytes.  A header that is short, garbled or names an unknown codec is
    an :class:`ExecutionError`."""
    size = header_size(blob)
    with _corruption_as_execution_error():
        if size > len(blob):
            raise ValueError("header is short")
        meta = json.loads(bytes(blob[HEADER_PREFIX:size]))
        if meta["codec"] not in _LEVELS:
            raise ExecutionError(
                f"blob written with unknown codec {meta['codec']!r}")
        columns = tuple(meta["columns"])
        if not columns:
            raise ValueError("header lists no columns")
        return BlobHeader(
            codec=meta["codec"], length=meta["length"], columns=columns,
            column_names=tuple(entry["name"] for entry in columns),
            decoded_nbytes=meta["length"] * sum(
                np.dtype(entry["dtype"]).itemsize for entry in columns),
            size=size)


def decode_table(blob: bytes, columns: Sequence[str] | None = None) -> Table:
    """Inverse of :func:`encode_table`; with ``columns``, of its
    restriction to those columns (in the order given).

    Columns that are not asked for are neither inflated nor decoded —
    their chunks are stepped over by the lengths the header records, so
    a blob that ends early is still caught.  Raises
    :class:`ExecutionError` for anything that is not a complete,
    well-formed blob (bad magic, truncated, corrupt header or payload)
    and :class:`ValidationError` for a column the blob does not have.
    """
    header = read_header(blob)
    if columns is None:
        columns = header.column_names
    wanted = set(columns)
    if not wanted <= set(header.column_names):
        raise ValidationError(
            f"unknown columns {sorted(wanted.difference(header.column_names))}"
            f"; available: {list(header.column_names)}")
    with _corruption_as_execution_error():
        decoded = _decode_payload(memoryview(blob), header, wanted)
    return Table({name: decoded[name] for name in columns})


def _decode_payload(blob: memoryview, header: BlobHeader,
                    wanted: set[str]) -> dict[str, np.ndarray]:
    offset = header.size
    decoded: dict[str, np.ndarray] = {}
    for entry in header.columns:
        chunks = []
        for length in entry["lengths"]:
            chunks.append(blob[offset:offset + length])
            offset += length
        if offset > len(blob):
            raise ValueError(f"payload of column {entry['name']!r} is short")
        if entry["name"] not in wanted:
            continue
        column = _decode_column(entry, chunks, header.codec)
        if len(column) != header.length:
            raise ValueError(
                f"column {entry['name']!r} decodes to {len(column)} rows, "
                f"header says {header.length}")
        decoded[entry["name"]] = column
    return decoded
