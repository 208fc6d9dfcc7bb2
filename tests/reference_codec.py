"""The table encoder as it stood before ISSUE 22 — test-only.

``_compress``, ``_dictionary`` and ``_encode_column`` below are the
parent commit's ``repro.db.columnar_codec`` functions of those names,
bodies verbatim: every chunk of a deflating codec is deflated whatever
it shrinks to, every dictionary comes from ``np.unique`` (a sort), and a
``none`` blob records no checksum.  ``encode_table`` is the parent's
``encode_chunks`` joined, so a blob made here *is* a parent-written
blob.  What ISSUE 22 left alone — the levels, the cardinality bound, the
code widths, the magic — is imported from the live module.

``repro.db.columnar_codec`` must build bit-identical dictionaries
(arrays, dtypes, ``None``-ness), must encode every table it stores no
chunk of to these exact bytes, and must decode every blob made here;
``tests/test_codec_parity.py`` holds it to that.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.db.columnar_codec import (
    _DICT_MAX_CARDINALITY,
    _LEVELS,
    MAGIC,
    _code_dtype,
)
from repro.db.table import Table


def _compress(column: np.ndarray, level: int | None) -> bytes | memoryview:
    raw = memoryview(column.view(np.uint8))     # in place: no copy
    return raw if level is None else zlib.compress(raw, level)


def _dictionary(column: np.ndarray) -> list[np.ndarray] | None:
    """``[distinct values, narrow per-row codes]`` where that pays.

    Two keys may share a code only when they are bit-equal: floats are
    keyed by their bits (so -0.0 and NaN payloads survive), kinds without
    that guarantee (complex, long double) are not dictionary-encoded.
    """
    kind = column.dtype.kind
    if kind == "f" and column.itemsize <= 8:
        column = column.view(f"u{column.itemsize}")
    elif kind not in "iubUS":
        return None
    values, codes = np.unique(column, return_inverse=True)
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
    chunks = [_compress(part, level) for part in parts]
    entry["lengths"] = [len(chunk) for chunk in chunks]
    return entry, chunks


def encode_table(table: Table, codec: str = "zlib1") -> bytes:
    """The parent's ``b"".join(encode_chunks(table, codec))``."""
    header: dict = {"codec": codec, "length": len(table), "columns": []}
    payloads: list = []
    for name, column in table.columns().items():
        entry, chunks = _encode_column(np.ascontiguousarray(column), codec)
        entry["name"] = name
        header["columns"].append(entry)
        payloads.extend(chunks)
    meta = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([MAGIC + struct.pack(">I", len(meta)) + meta, *payloads])
