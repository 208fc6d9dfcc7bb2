"""Expression trees evaluated over columnar tables.

Scalar expressions (column refs, literals, arithmetic, comparisons, boolean
connectives) evaluate to numpy arrays; aggregate specs describe SUM/COUNT/
AVG/MIN/MAX over an input expression and are consumed by the group-by
operator rather than evaluated directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.table import Table
from repro.errors import SqlError, ValidationError


class Expr:
    """Base class for scalar expressions."""

    def evaluate(self, table: Table) -> np.ndarray:
        """One value per row of ``table``."""
        values = self.broadcast(table)
        return values if values.ndim else np.full(len(table), values)

    def broadcast(self, table: Table) -> np.ndarray:
        """:meth:`evaluate`, except that a subtree made of literals only
        stays the 0-d value NumPy broadcasts — ``col > 40`` compares
        against one scalar, not against a column of 40s.  The 0-d value
        carries the dtype ``np.full`` would give the column (NumPy
        scalars and 0-d arrays promote by dtype, like arrays), so
        results are the same arrays either way."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names this expression references."""
        raise NotImplementedError


@dataclass(frozen=True)
class Col(Expr):
    """A column reference; ``qualifier`` is the optional ``table.`` prefix."""

    name: str
    qualifier: str | None = None

    def broadcast(self, table: Table) -> np.ndarray:
        return table[self.name]

    def columns(self) -> set[str]:
        return {self.name}

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Lit(Expr):
    """A literal constant (int, float, or str)."""

    value: object

    def broadcast(self, table: Table) -> np.ndarray:
        return np.asarray(self.value)

    def columns(self) -> set[str]:
        return set()


_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}
_COMPARE = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}
_BOOL = {"AND": np.logical_and, "OR": np.logical_or}


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation: arithmetic, comparison, or boolean connective."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if (self.op not in _ARITH and self.op not in _COMPARE
                and self.op not in _BOOL):
            raise ValidationError(f"unknown operator {self.op!r}")

    def broadcast(self, table: Table) -> np.ndarray:
        left = self.left.broadcast(table)
        right = self.right.broadcast(table)
        if self.op in _ARITH:
            func = _ARITH[self.op]
        elif self.op in _COMPARE:
            func = _COMPARE[self.op]
        else:
            func = _BOOL[self.op]
            if left.dtype != np.bool_ or right.dtype != np.bool_:
                raise SqlError(
                    f"{self.op} requires boolean operands")
        return func(left, right)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation."""

    operand: Expr

    def broadcast(self, table: Table) -> np.ndarray:
        values = self.operand.broadcast(table)
        if values.dtype != np.bool_:
            raise SqlError("NOT requires a boolean operand")
        return np.logical_not(values)

    def columns(self) -> set[str]:
        return self.operand.columns()


_AGG_FUNCS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``func(arg) AS alias``.

    ``arg is None`` encodes ``COUNT(*)``.
    """

    func: str
    arg: Expr | None
    alias: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ValidationError(
                f"unknown aggregate {self.func!r}; "
                f"choose from {_AGG_FUNCS}")
        if self.arg is None and self.func != "COUNT":
            raise ValidationError(f"{self.func} requires an argument")

    def columns(self) -> set[str]:
        return self.arg.columns() if self.arg is not None else set()


@dataclass(frozen=True)
class Projection:
    """One SELECT output column: expression plus output name."""

    expr: Expr
    alias: str

    def columns(self) -> set[str]:
        return self.expr.columns()
