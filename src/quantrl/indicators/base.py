"""Feature column containers."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import atomic_open


@dataclass(frozen=True)
class FeatureColumn:
    """One per-bar indicator column with an explicit warm-up prefix.

    values[:warmup] are NaN, values[warmup:] are finite; the defined region
    is a contiguous suffix.
    """

    name: str
    values: np.ndarray
    warmup: int
    kind: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"{self.name}: values must be 1-D")
        if not 0 <= self.warmup <= len(values):
            raise ValueError(f"{self.name}: warmup {self.warmup} out of range")
        if not np.isnan(values[: self.warmup]).all():
            raise ValueError(f"{self.name}: warm-up region contains defined values")
        if not np.isfinite(values[self.warmup :]).all():
            raise ValueError(f"{self.name}: defined region contains NaN/inf")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def defined(self) -> np.ndarray:
        return self.values[self.warmup :]


@dataclass(frozen=True)
class FeatureMatrix:
    """Ordered feature columns sharing one time axis."""

    columns: tuple[FeatureColumn, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValueError("feature matrix needs at least one column")
        lengths = {len(c) for c in self.columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have mixed lengths: {sorted(lengths)}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names: {dupes}")

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def warmup(self) -> int:
        """First row index at which every column is defined."""
        return max(c.warmup for c in self.columns)

    @property
    def width(self) -> int:
        return len(self.columns)

    def to_array(self) -> np.ndarray:
        """(n_bars, n_columns) float array, NaN in warm-up cells."""
        return np.column_stack([c.values for c in self.columns])

    def to_csv(self, path: str | Path, dates) -> None:
        """Export with a leading Date column; warm-up (NaN) cells are empty.
        ``\\r\\n`` line ends and ``repr`` floats; the header is quoted as
        ``csv.writer`` quotes it, since a column name may contain a comma."""
        if len(dates) != len(self):
            raise ValueError(f"{len(dates)} dates for {len(self)} rows")
        header = io.StringIO()
        csv.writer(header).writerow(["Date"] + self.names)
        with atomic_open(path, newline="") as handle:
            handle.write(header.getvalue())
            for day, row in zip(dates, self.to_array()):
                day = day.isoformat() if hasattr(day, "isoformat") else str(day)
                cells = ["" if math.isnan(v) else repr(v) for v in row.tolist()]
                handle.write(",".join([day, *cells]) + "\r\n")
