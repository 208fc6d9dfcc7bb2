"""The on-disk table format: one RCB1 blob per table.

A persisted table is the self-describing blob of
:mod:`repro.db.columnar_codec` in a file — columnar layout, per-column
encoding and compression, nothing else.  Warehouse files, spill files
and the in-memory rung all hold that same blob, so bytes encoded once
move between them verbatim: :func:`write_table` takes either a
:class:`Table` (encoded with ``codec``) or the blob somebody already
encoded.  The (de)serialization and deflate work is what gives the
MiniDB its genuine read/write costs for the Figure 3 breakdown.

Writes stream the header and the column chunks into ``<name>.tmp`` and
rename it over the final path, so a reader — or a restarted catalog —
never sees a torn file; :func:`stored_tables` removes the ``.tmp``
leftovers of an interrupted write.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Sequence

from repro.db import columnar_codec
from repro.db.table import Table
from repro.errors import ExecutionError

_SUFFIX = ".rcb"
_TMP_SUFFIX = ".tmp"

#: What the warehouse is written with: on star-schema tables ``columnar``
#: is both faster and smaller than deflate-6 over the raw columns.
DEFAULT_CODEC = "columnar"


def table_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}{_SUFFIX}")


def write_table(table: Table | bytes, directory: str, name: str,
                codec: str = DEFAULT_CODEC) -> int:
    """Persist ``table`` — or its already-encoded blob, verbatim — and
    return the on-disk size in bytes."""
    os.makedirs(directory, exist_ok=True)
    path = table_path(directory, name)
    tmp = os.path.join(directory, f"{name}{_TMP_SUFFIX}")
    chunks = ([table] if isinstance(table, bytes)
              else columnar_codec.encode_chunks(table, codec))
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise ExecutionError(f"failed to write table {name!r}: {exc}") \
            from exc
    return os.path.getsize(path)


@contextmanager
def _reading(directory: str, name: str):
    """Open a persisted table's file; what goes wrong while it is read
    or decoded is an :class:`ExecutionError` naming the table."""
    path = table_path(directory, name)
    if not os.path.exists(path):
        raise ExecutionError(f"no persisted table {name!r} at {path}")
    try:
        with open(path, "rb") as handle:
            yield handle
    except OSError as exc:
        raise ExecutionError(f"failed to read table {name!r}: {exc}") \
            from exc
    except ExecutionError as exc:
        raise ExecutionError(f"table {name!r} at {path}: {exc}") from exc


def read_header(directory: str, name: str) -> columnar_codec.BlobHeader:
    """Schema, row count and decoded size of a persisted table, from the
    head of its file — no column is fetched or decoded."""
    with _reading(directory, name) as handle:
        prefix = handle.read(columnar_codec.HEADER_PREFIX)
        rest = columnar_codec.header_size(prefix) - len(prefix)
        return columnar_codec.read_header(prefix + handle.read(rest))


def read_table(directory: str, name: str,
               columns: Sequence[str] | None = None) -> Table:
    """Load a persisted table — or just ``columns`` of it — into memory."""
    with _reading(directory, name) as handle:
        return columnar_codec.decode_table(handle.read(), columns)


def stored_tables(directory: str) -> set[str]:
    """Names of the tables persisted under ``directory``.

    A ``.tmp`` file is what an interrupted :func:`write_table` left
    behind — never a table — and is removed.
    """
    names = set()
    for entry in os.listdir(directory):
        if entry.endswith(_SUFFIX):
            names.add(entry[:-len(_SUFFIX)])
        elif entry.endswith(_TMP_SUFFIX):
            os.remove(os.path.join(directory, entry))
    return names


def delete_table(directory: str, name: str) -> None:
    path = table_path(directory, name)
    if os.path.exists(path):
        os.remove(path)


def on_disk_size(directory: str, name: str) -> int:
    """Bytes occupied by the persisted table (0 when absent)."""
    path = table_path(directory, name)
    return os.path.getsize(path) if os.path.exists(path) else 0
