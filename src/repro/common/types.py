"""Column types for the vectorized engine.

VectorH stores data column-wise; each column has a fixed logical type. We
map logical types onto numpy physical representations:

* ``INT32`` / ``INT64`` -- numpy int32/int64
* ``FLOAT64``           -- numpy float64
* ``DECIMAL``           -- fixed-point, stored as int64 scaled by 10**scale
  (the paper notes business queries cannot tolerate float rounding)
* ``DATE``              -- days since 1970-01-01, stored as int32
* ``STRING``            -- numpy object array of python str
* ``BOOL``              -- numpy bool_
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

_EPOCH = datetime.date(1970, 1, 1)


@dataclass(frozen=True)
class ColumnType:
    """A logical column type with its numpy physical representation."""

    name: str
    dtype: np.dtype
    width: int  # bytes per value for fixed-width types; estimate for strings
    scale: int = 0  # decimal digits after the point (DECIMAL only)

    @property
    def is_integer(self) -> bool:
        return self.name in ("int32", "int64", "date", "decimal")

    @property
    def is_string(self) -> bool:
        return self.name == "string"

    def with_scale(self, scale: int) -> "ColumnType":
        """Return a DECIMAL type with the given scale."""
        if self.name != "decimal":
            raise ValueError("with_scale only applies to DECIMAL")
        return ColumnType("decimal", self.dtype, self.width, scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.name == "decimal" and self.scale:
            return f"decimal({self.scale})"
        return self.name


INT32 = ColumnType("int32", np.dtype(np.int32), 4)
INT64 = ColumnType("int64", np.dtype(np.int64), 8)
FLOAT64 = ColumnType("float64", np.dtype(np.float64), 8)
DECIMAL = ColumnType("decimal", np.dtype(np.int64), 8, scale=2)
DATE = ColumnType("date", np.dtype(np.int32), 4)
STRING = ColumnType("string", np.dtype(object), 16)
BOOL = ColumnType("bool", np.dtype(np.bool_), 1)


def date_to_days(value: str | datetime.date) -> int:
    """Convert ``YYYY-MM-DD`` (or a date) to days since the epoch."""
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    return (value - _EPOCH).days


def days_to_date(days: int) -> datetime.date:
    """Convert days since the epoch back to a date."""
    return _EPOCH + datetime.timedelta(days=int(days))
