"""Feature column containers and indicator parameter specs."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = (
    "SMA", "OBV", "MOM", "STOCH_K", "STOCH_D", "MACD", "MACD_SIGNAL",
    "CCI", "ADX", "TRIX", "ROC", "SAR", "TEMA", "TRIMA", "WMA", "DEMA",
    "MFI", "CMO", "STOCHRSI", "UO", "BOP", "ATR", "RSI",
)

# Default periods for indicators used without explicit parameters.
DEFAULT_PERIODS = {
    "RSI": 14, "ATR": 14, "ADX": 14, "MFI": 14, "CMO": 14,
    "STOCH_K": 14, "STOCH_D": 14, "STOCHRSI": 14, "CCI": 14,
    "MOM": 10, "ROC": 10, "TRIX": 10,
    "SMA": 30, "WMA": 30, "DEMA": 30, "TEMA": 30, "TRIMA": 30,
}


@dataclass(frozen=True)
class IndicatorSpec:
    """Parameters for one indicator column.

    ``period`` defaults per kind (DEFAULT_PERIODS). MACD uses fast/slow/signal,
    STOCH_D adds d_period, UO uses three strictly increasing periods, SAR uses
    the acceleration start/step/max triple.
    """

    kind: str
    period: int | None = None
    fast: int = 12
    slow: int = 26
    signal: int = 9
    d_period: int = 3
    periods: tuple[int, int, int] = (7, 14, 28)
    accel_start: float = 0.02
    accel_step: float = 0.02
    accel_max: float = 0.2
    name: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown indicator kind {self.kind!r}")
        if self.period is None and self.kind in DEFAULT_PERIODS:
            object.__setattr__(self, "period", DEFAULT_PERIODS[self.kind])
        if self.period is not None and self.period < 1:
            raise ValueError(f"{self.kind}: period must be >= 1, got {self.period}")
        if self.kind in ("MACD", "MACD_SIGNAL"):
            if min(self.fast, self.slow, self.signal) < 1:
                raise ValueError(f"{self.kind}: periods must be >= 1")
            if self.fast >= self.slow:
                raise ValueError(f"{self.kind}: fast {self.fast} must be < slow {self.slow}")
        if self.kind == "STOCH_D" and self.d_period < 1:
            raise ValueError(f"STOCH_D: d_period must be >= 1, got {self.d_period}")
        if self.kind == "UO":
            p1, p2, p3 = self.periods
            if not (1 <= p1 < p2 < p3):
                raise ValueError(f"UO: periods must be strictly increasing and >= 1, got {self.periods}")

    @property
    def column_name(self) -> str:
        if self.name is not None:
            return self.name
        if self.kind in ("OBV", "BOP", "SAR"):
            return self.kind
        if self.kind == "MACD":
            return f"MACD_{self.fast}_{self.slow}"
        if self.kind == "MACD_SIGNAL":
            return f"MACD_SIGNAL_{self.fast}_{self.slow}_{self.signal}"
        if self.kind == "STOCH_D":
            return f"STOCH_D_{self.period}_{self.d_period}"
        if self.kind == "UO":
            return "UO_{}_{}_{}".format(*self.periods)
        return f"{self.kind}_{self.period}"


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

    def column(self, name: str) -> FeatureColumn:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_csv(self, path: str | Path, dates) -> None:
        """Export with a leading Date column; warm-up cells are empty."""
        if len(dates) != len(self):
            raise ValueError(f"{len(dates)} dates for {len(self)} rows")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Date"] + self.names)
            for i, day in enumerate(dates):
                row = [day.isoformat() if hasattr(day, "isoformat") else str(day)]
                for col in self.columns:
                    row.append("" if i < col.warmup else repr(float(col.values[i])))
                writer.writerow(row)
