"""Columnar table: named numpy arrays of equal length.

Deliberately minimal — enough relational surface for the operators in
:mod:`repro.db.operators` while staying a thin, predictable wrapper that
tests can reason about.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import ValidationError


class Table:
    """An immutable-by-convention columnar table."""

    def __init__(self, columns: Mapping[str, np.ndarray]):
        if not columns:
            raise ValidationError("a table needs at least one column")
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in columns.items():
            array = np.asarray(values)
            if array.ndim != 1:
                raise ValidationError(
                    f"column {name!r} must be 1-D, got shape {array.shape}")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValidationError(
                    f"column {name!r} has {len(array)} rows, expected "
                    f"{length}")
            self._columns[name] = array
        self._length = length or 0
        self._nbytes: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable]) -> "Table":
        return cls({name: np.asarray(list(values))
                    if not isinstance(values, np.ndarray) else values
                    for name, values in data.items()})

    @classmethod
    def empty_like(cls, other: "Table") -> "Table":
        return cls({name: col[:0] for name, col in other._columns.items()})

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ValidationError(
                f"unknown column {name!r}; available: "
                f"{list(self._columns)}") from None

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    def columns(self) -> dict[str, np.ndarray]:
        return dict(self._columns)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of all column buffers.

        Computed once and cached — this sits on the ledger's admission
        hot path, and columns never change after construction
        (``with_column`` / ``rename`` build a *new* table, whose cache
        starts empty, so the cache can never go stale).
        """
        if self._nbytes is None:
            self._nbytes = int(sum(col.nbytes
                                   for col in self._columns.values()))
        return self._nbytes

    @property
    def size_gb(self) -> float:
        return self.nbytes / (1024.0 ** 3)

    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Row subset/reorder by integer indices."""
        return Table({name: col[indices]
                      for name, col in self._columns.items()})

    def mask(self, predicate: np.ndarray) -> "Table":
        """Row subset by boolean mask."""
        if predicate.dtype != np.bool_:
            raise ValidationError("mask requires a boolean array")
        if len(predicate) != self._length:
            raise ValidationError(
                f"mask length {len(predicate)} != table length "
                f"{self._length}")
        # one pass over the mask, then a gather per column: boolean
        # indexing would scan the mask once per column
        return self.take(np.flatnonzero(predicate))

    def select(self, names: Iterable[str]) -> "Table":
        """Column subset (order follows ``names``)."""
        return Table({name: self[name] for name in names})

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        return Table({mapping.get(name, name): col
                      for name, col in self._columns.items()})

    def with_column(self, name: str, values: np.ndarray) -> "Table":
        if len(values) != self._length:
            raise ValidationError(
                f"new column {name!r} has {len(values)} rows, expected "
                f"{self._length}")
        columns = dict(self._columns)
        columns[name] = np.asarray(values)
        return Table(columns)

    # ------------------------------------------------------------------
    @staticmethod
    def concat(tables: list["Table"]) -> "Table":
        """Row-wise union of same-schema tables."""
        if not tables:
            raise ValidationError("concat needs at least one table")
        first = tables[0]
        for other in tables[1:]:
            if other.column_names != first.column_names:
                raise ValidationError(
                    "concat requires identical schemas: "
                    f"{first.column_names} vs {other.column_names}")
        return Table({
            name: np.concatenate([t[name] for t in tables])
            for name in first.column_names
        })

    def equals(self, other: "Table") -> bool:
        if self.column_names != other.column_names:
            return False
        return all(np.array_equal(self[name], other[name])
                   for name in self.column_names)

    def to_pylist(self) -> list[dict]:
        """Rows as dicts (tests and small result inspection only)."""
        names = self.column_names
        return [
            {name: self._columns[name][i].item()
             if hasattr(self._columns[name][i], "item")
             else self._columns[name][i]
             for name in names}
            for i in range(self._length)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Table(rows={self._length}, "
                f"cols={self.column_names})")
