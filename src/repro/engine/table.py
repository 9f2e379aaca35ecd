"""The Table: an ordered collection of equal-length typed columns."""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.engine.column import (
    BooleanColumn,
    CategoricalColumn,
    Column,
    NumericColumn,
    column_from_values,
)
from repro.engine.types import ColumnType
from repro.errors import SchemaError, UnknownColumnError


class Table:
    """An immutable in-memory table.

    Construction validates that column names are unique and lengths agree.
    All row-level operations (``select``, ``sort_by``, ``head``) return new
    tables; columns themselves are shared, never copied, when possible.
    """

    def __init__(self, columns: Sequence[Column], name: str = "table"):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {', '.join(dupes)}")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have mismatched lengths: {sorted(lengths)}")
        self.name = name
        self._columns: tuple[Column, ...] = tuple(columns)
        self._index: dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        self._n_rows = lengths.pop() if lengths else 0
        self._fingerprint: str | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence], name: str = "table") -> "Table":
        """Build a table from ``{column_name: values}``.

        Numpy float/int arrays become numeric columns; bool arrays become
        boolean; anything else goes through type sniffing.
        """
        cols: list[Column] = []
        for cname, values in data.items():
            if isinstance(values, np.ndarray):
                if values.dtype == np.bool_:
                    cols.append(BooleanColumn(cname, values))
                elif np.issubdtype(values.dtype, np.number):
                    cols.append(NumericColumn(cname, values.astype(np.float64)))
                else:
                    cols.append(CategoricalColumn(cname, list(values)))
            else:
                cols.append(column_from_values(cname, list(values)))
        return cls(cols, name=name)

    @classmethod
    def from_rows(cls, column_names: Sequence[str],
                  rows: Iterable[Sequence], name: str = "table") -> "Table":
        """Build a table from a row-major iterable."""
        buffers: list[list] = [[] for _ in column_names]
        for r, row in enumerate(rows):
            if len(row) != len(column_names):
                raise SchemaError(
                    f"row {r} has {len(row)} values, expected {len(column_names)}")
            for buf, value in zip(buffers, row):
                buf.append(value)
        cols = [column_from_values(cname, buf)
                for cname, buf in zip(column_names, buffers)]
        return cls(cols, name=name)

    # -- shape / lookup -------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_columns)``."""
        return (self._n_rows, len(self._columns))

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return tuple(c.name for c in self._columns)

    @property
    def columns(self) -> tuple[Column, ...]:
        """The column objects in schema order."""
        return self._columns

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> Column:
        """Look up a column by name; raises :class:`UnknownColumnError`."""
        idx = self._index.get(name)
        if idx is None:
            raise UnknownColumnError(name, self.column_names)
        return self._columns[idx]

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def fingerprint(self) -> str:
        """A stable content hash of this table (name, schema and data).

        Tables are immutable, so the digest is computed once and memoized.
        The runtime layer keys cross-client state (one shared statistics
        cache per table) on this value: two tables with equal content
        share one fingerprint even across separate loads, while
        same-named tables with different rows never collide — unlike
        ``id(table)``, the fingerprint survives the table object itself,
        so caches keyed on it hold no reference to the data.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(f"{self.name}\x00{self._n_rows}".encode())
            for col in self._columns:
                digest.update(f"\x00{col.name}\x00{col.ctype.name}\x00".encode())
                if isinstance(col, CategoricalColumn):
                    digest.update("\x1f".join(col.labels).encode())
                    digest.update(np.ascontiguousarray(col.codes).tobytes())
                else:
                    digest.update(np.ascontiguousarray(
                        col.numeric_values()).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the column data, in bytes.

        :class:`~repro.runtime.ZiggyRuntime` counts it against its byte
        budget while the table's statistics stay cached; label storage
        of categoricals is estimated, not measured.
        """
        total = 0
        for col in self._columns:
            if isinstance(col, CategoricalColumn):
                total += col.codes.nbytes
                total += sum(len(label) for label in col.labels)
            else:
                total += col.numeric_values().nbytes
        return total

    def numeric_column_names(self) -> tuple[str, ...]:
        """Names of numeric and boolean columns, in schema order."""
        return tuple(c.name for c in self._columns if c.ctype.is_numeric)

    def categorical_column_names(self) -> tuple[str, ...]:
        """Names of categorical columns, in schema order."""
        return tuple(c.name for c in self._columns
                     if c.ctype is ColumnType.CATEGORICAL)

    def numeric_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Float64 matrix (rows x selected numeric columns), stacked on
        each call.

        Not memoized: table-derived data belongs in the
        :class:`~repro.core.stats_cache.StatsCache`, whose byte budget
        counts it.
        """
        if names is None:
            names = self.numeric_column_names()
        arrays = [self.column(n).numeric_values() for n in names]
        if not arrays:
            return np.empty((self._n_rows, 0), dtype=np.float64)
        return np.column_stack(arrays)

    # -- row operations -------------------------------------------------------

    def select(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """New table with the rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self._n_rows,):
            raise ValueError(
                f"mask must be a boolean array of length {self._n_rows}")
        return Table([c.take(mask) for c in self._columns],
                     name=name or self.name)

    def take(self, indices: np.ndarray, name: str | None = None) -> "Table":
        """New table with rows gathered by integer indices (in order)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Table([c.take(idx) for c in self._columns],
                     name=name or self.name)

    def project(self, names: Sequence[str], name: str | None = None) -> "Table":
        """New table restricted to the given columns, in the given order."""
        return Table([self.column(n) for n in names], name=name or self.name)

    def head(self, n: int = 10) -> "Table":
        """First ``n`` rows."""
        idx = np.arange(min(n, self._n_rows))
        return self.take(idx)

    def sort_by(self, column_name: str, descending: bool = False) -> "Table":
        """Stable sort by one column (missing values last)."""
        col = self.column(column_name)
        if col.ctype.is_numeric:
            keys = col.numeric_values()
            order = np.argsort(keys, kind="mergesort")
            nan_count = int(np.isnan(keys).sum())
            if descending:
                valid = order[: keys.size - nan_count][::-1]
                nans = order[keys.size - nan_count:]
                order = np.concatenate([valid, nans])
        else:
            labels = col.values()
            sentinel = "￿"  # sorts after any real label
            keys = np.array([sentinel if v is None else str(v) for v in labels])
            order = np.argsort(keys, kind="mergesort")
            if descending:
                missing = keys[order] == sentinel
                order = np.concatenate([order[~missing][::-1], order[missing]])
        return self.take(order)

    def with_column(self, column: Column) -> "Table":
        """New table with ``column`` appended (or replaced if the name exists)."""
        if len(column) != self._n_rows and self._n_rows:
            raise SchemaError(
                f"column {column.name!r} has {len(column)} rows, table has "
                f"{self._n_rows}")
        cols = [c for c in self._columns if c.name != column.name]
        cols.append(column)
        return Table(cols, name=self.name)

    def rows(self) -> list[tuple]:
        """Materialize as a list of row tuples (labels for categoricals)."""
        raw = [c.values() for c in self._columns]
        out = []
        for i in range(self._n_rows):
            row = []
            for c, vals in zip(self._columns, raw):
                v = vals[i]
                if c.ctype.is_numeric and isinstance(v, float) and v != v:
                    v = None
                row.append(v)
            out.append(tuple(row))
        return out

    # -- display --------------------------------------------------------------

    def preview(self, n: int = 8, max_width: int = 14) -> str:
        """A fixed-width textual preview of the first ``n`` rows."""
        names = [str(c)[:max_width] for c in self.column_names]
        lines = [" | ".join(f"{c:>{max_width}}" for c in names)]
        lines.append("-+-".join("-" * max_width for _ in names))
        for row in self.head(n).rows():
            cells = []
            for v in row:
                if v is None:
                    s = "·"
                elif isinstance(v, float):
                    s = f"{v:.4g}"
                else:
                    s = str(v)
                cells.append(f"{s[:max_width]:>{max_width}}")
            lines.append(" | ".join(cells))
        if self._n_rows > n:
            lines.append(f"... ({self._n_rows} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Table {self.name!r} {self._n_rows}x{len(self._columns)}>"
