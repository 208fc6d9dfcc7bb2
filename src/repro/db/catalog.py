"""Database catalog: which tables live where.

Mirrors the paper's Presto setup (§VI-A): tables exist either in the
*physical catalog* (persisted via :mod:`repro.db.storage_format`, the Hive/
NFS analogue) or in the *memory catalog* (a live :class:`Table`, the Presto
memory-connector analogue). The same table may be in both — that is exactly
the state of a flagged MV between its creation and its release.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.db import storage_format
from repro.db.columnar_codec import BlobHeader
from repro.db.table import Table
from repro.errors import CatalogError


@dataclass
class DatabaseCatalog:
    """Table registry over a storage directory plus an in-memory store."""

    directory: str
    _memory: dict[str, Table] = field(default_factory=dict)
    _persisted: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self._persisted.update(storage_format.stored_tables(self.directory))

    # ------------------------------------------------------------------
    def exists(self, name: str) -> bool:
        return name in self._memory or name in self._persisted

    def in_memory(self, name: str) -> bool:
        return name in self._memory

    def persisted(self, name: str) -> bool:
        return name in self._persisted

    def tables(self) -> list[str]:
        return sorted(self._persisted | set(self._memory))

    def memory_bytes(self) -> int:
        return sum(t.nbytes for t in self._memory.values())

    # ------------------------------------------------------------------
    def put_memory(self, name: str, table: Table) -> None:
        if name in self._memory:
            raise CatalogError(f"table {name!r} already in memory catalog")
        self._memory[name] = table

    def get_memory(self, name: str) -> Table:
        if name not in self._memory:
            raise CatalogError(f"table {name!r} not in memory catalog")
        return self._memory[name]

    def evict_memory(self, name: str) -> None:
        if name not in self._memory:
            raise CatalogError(f"table {name!r} not in memory catalog")
        del self._memory[name]

    # ------------------------------------------------------------------
    def persist(self, name: str, table: Table | bytes) -> int:
        """Write ``table`` (or its already-encoded blob) to the physical
        catalog; returns on-disk bytes."""
        size = storage_format.write_table(table, self.directory, name)
        self._persisted.add(name)
        return size

    def load_persisted(self, name: str,
                       columns: Sequence[str] | None = None) -> Table:
        """Decode a persisted table, or only ``columns`` of it."""
        self._require_persisted(name)
        return storage_format.read_table(self.directory, name, columns)

    def _require_persisted(self, name: str) -> None:
        if name not in self._persisted:
            raise CatalogError(f"table {name!r} not persisted")

    # ------------------------------------------------------------------
    # What a reader can learn without decoding a column: a resident
    # answers from the live Table, a persisted table from its blob header.
    def _header(self, name: str) -> BlobHeader:
        self._require_persisted(name)
        return storage_format.read_header(self.directory, name)

    def column_names(self, name: str) -> list[str]:
        if name in self._memory:
            return self._memory[name].column_names
        return list(self._header(name).column_names)

    def decoded_bytes(self, name: str) -> int:
        """``Table.nbytes`` of the table wherever it lives."""
        if name in self._memory:
            return self._memory[name].nbytes
        return self._header(name).decoded_nbytes

    def drop(self, name: str) -> None:
        """Remove a table from both catalogs (missing is fine)."""
        self._memory.pop(name, None)
        if name in self._persisted:
            storage_format.delete_table(self.directory, name)
            self._persisted.discard(name)
