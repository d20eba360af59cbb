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

``dtype`` is the storage representation. The engine sees a DECIMAL as
float64 (``engine_dtype``); every other type as stored. This class is the
only code that converts between the two: writes take engine values (what
a SELECT returns) and the table converts each once with :meth:`to_storage`;
scans convert back with :meth:`from_storage`; partition ids, MinMax, the
scan filter and PDT entries see the storage representation only.
"""

from __future__ import annotations

import datetime
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

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

    @property
    def _is_decimal(self) -> bool:
        return self.name == "decimal"

    @property
    def engine_dtype(self) -> np.dtype:
        """The dtype a scan hands the engine."""
        return np.dtype(np.float64) if self._is_decimal else self.dtype

    def to_storage(self, values):
        """Engine values as stored. A DECIMAL's integers are multiplied by
        ``10**scale`` in int64, its floats rounded to the nearest stored
        unit; any other type's values come back as they are (no copy)."""
        if not self._is_decimal:
            return values
        values = np.asarray(values)
        if values.dtype.kind in "iu":
            return values.astype(np.int64) * 10 ** self.scale
        return np.round(values * 10 ** self.scale).astype(np.int64)

    def from_storage(self, values: np.ndarray):
        """Stored values as the engine sees them."""
        if not self._is_decimal:
            return values
        return np.divide(values, 10 ** self.scale, dtype=np.float64)

    def engine_array(self, values: Sequence) -> np.ndarray:
        """Python values (SQL literals, CSV fields, snapshot rows) as one
        engine column."""
        if self.is_string:
            arr = np.empty(len(values), dtype=object)
            arr[:] = [str(v) for v in values]
            return arr
        return np.asarray(values, dtype=self.engine_dtype)

    def storage_literal(self, op: str, literal):
        """``literal`` as the storage representation compares it, or None
        when no storage-side term is both possible and at least as loose.

        Integer-like storage (ints, dates, fixed-point decimals) compares
        whole numbers, the engine compares ``stored / 10**scale`` with the
        literal as floats; the threshold returned keeps exactly the stored
        values the engine would keep -- ``qty < 0.025`` at scale 2 becomes
        ``< 3``, never ``< 2``. ``in`` takes the values: their sorted
        distinct array, None when one cannot be held exactly.
        """
        if op == "in":
            held = [self.storage_literal("=", value) for value in literal]
            if any(value is None for value in held):
                return None
            return np.array(sorted(set(held)),
                            dtype=object if self.is_string else None)
        if self.is_string:
            return literal if isinstance(literal, str) else None
        is_bool = isinstance(literal, (bool, np.bool_))
        if is_bool or not isinstance(literal, numbers.Real):
            return literal if is_bool and self.name == "bool" else None
        if not self.is_integer:
            return literal
        scale = 10 ** self.scale  # 1 for every type but DECIMAL
        if isinstance(literal, numbers.Integral):
            return int(literal) * scale
        if not abs(literal * scale) < 2 ** 53:  # also NaN
            return None
        # smallest stored value the engine sees as >= literal
        least = math.floor(literal * scale)
        while least / scale < literal:
            least += 1
        while (least - 1) / scale >= literal:
            least -= 1
        if op in ("<", ">=") or least / scale == literal:
            return least
        return None if op == "=" else least - 1

    def with_scale(self, scale: int) -> "ColumnType":
        """Return a DECIMAL type with the given scale."""
        if not self._is_decimal:
            raise ValueError("with_scale only applies to DECIMAL")
        return ColumnType("decimal", self.dtype, self.width, scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._is_decimal and self.scale:
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
