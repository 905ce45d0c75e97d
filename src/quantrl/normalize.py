"""Feature normalization schemes and the indicator correlation analysis.

Five schemes: min-max, z-score (population standard deviation), sigmoid,
L2 and the windowed log transform log(s_ij / s_00) * 10 (natural log).
Degenerate inputs follow the documented rules: zero-range min-max and
zero-sigma z-score map to 0, zero-sigma sigmoid maps to 0.5.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_open
from .errors import EmptyInput, NonPositiveValue, ZeroVector
from .indicators import FeatureMatrix


class NormalizationKind(str, Enum):
    MIN_MAX = "MinMax"
    Z_SCORE = "ZScore"
    SIGMOID = "Sigmoid"
    L2 = "L2"
    WINDOW_LOG = "WindowLog"


@dataclass(frozen=True)
class NormalizationStats:
    """Mean/std/min/max and Euclidean norm of the fitted segment (population std)."""

    mean: float
    std: float
    min: float
    max: float
    norm: float


def fit(values) -> NormalizationStats:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("cannot fit on an empty sequence")
    if not np.isfinite(values).all():
        raise ValueError("fit input contains NaN/inf; exclude warm-up first")
    return NormalizationStats(
        mean=float(values.mean()),
        std=float(values.std()),
        min=float(values.min()),
        max=float(values.max()),
        norm=float(np.sqrt(np.sum(values * values))),
    )


def min_max(x, stats: NormalizationStats):
    """(x - min) / (max - min); constant fitted column maps to 0."""
    x = np.asarray(x, dtype=float)
    span = stats.max - stats.min
    if span == 0.0:
        result = np.zeros_like(x)
    else:
        result = (x - stats.min) / span
    return float(result) if result.ndim == 0 else result


def z_score(x, stats: NormalizationStats):
    """(x - mean) / std; zero-sigma column maps to 0."""
    x = np.asarray(x, dtype=float)
    if stats.std == 0.0:
        result = np.zeros_like(x)
    else:
        result = (x - stats.mean) / stats.std
    return float(result) if result.ndim == 0 else result


def sigmoid_norm(x, stats: NormalizationStats):
    """1 / (1 + exp(-(x - mean)/std)); zero-sigma column maps to 0.5.

    The exact value never reaches 0 or 1; outputs are kept strictly inside
    (0, 1) at float resolution even where exp() saturates.
    """
    x = np.asarray(x, dtype=float)
    if stats.std == 0.0:
        result = np.full_like(x, 0.5)
    else:
        z = np.clip((x - stats.mean) / stats.std, -700.0, 700.0)
        result = np.clip(
            1.0 / (1.0 + np.exp(-z)),
            np.nextafter(0.0, 1.0),
            np.nextafter(1.0, 0.0),
        )
    return float(result) if result.ndim == 0 else result


def _l2_scale(x, stats: NormalizationStats):
    """x / norm with the fitted column norm; a zero norm maps to 0."""
    return x / stats.norm if stats.norm > 0.0 else np.zeros_like(x)


def l2_normalize(values) -> np.ndarray:
    """values / sqrt(sum(values^2)); output has unit Euclidean norm."""
    values = np.asarray(values, dtype=float)
    norm = float(np.sqrt(np.sum(values * values)))
    if norm == 0.0:
        raise ZeroVector("cannot L2-normalize an all-zero vector")
    return values / norm


def window_log(windows) -> np.ndarray:
    """log(s_ij / s_00) * 10 (natural log), s_00 the first cell of each window.

    A window is the last two axes of ``windows``, batched over any leading axes;
    a 1-D input is one window.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.size == 0:
        raise EmptyInput("empty window")
    if np.any(windows <= 0.0):
        cell = np.argwhere(windows <= 0.0)[0]
        raise NonPositiveValue(f"cell {tuple(int(i) for i in cell)}: value {windows[tuple(cell)]} <= 0")
    anchors = windows[..., :1, :1] if windows.ndim > 1 else windows[:1]
    return np.log(windows / anchors) * 10.0


_SCALERS = {
    NormalizationKind.MIN_MAX: min_max,
    NormalizationKind.Z_SCORE: z_score,
    NormalizationKind.SIGMOID: sigmoid_norm,
    NormalizationKind.L2: _l2_scale,
}


def normalize(kind: NormalizationKind, columns, names, first_row: int,
              stats: list[NormalizationStats] | None = None, window: int | None = None) -> np.ndarray:
    """Scale each column of the (rows, width) feature block ``columns`` by ``kind``.

    MinMax, ZScore, Sigmoid and L2 scale a column by its stats: the frozen
    ``stats`` given, one per column, or else stats fitted on the column with 1-D
    reductions. A zero range or sigma maps to 0 (Sigmoid: 0.5), a zero norm to 0.
    WindowLog is stateless (``stats`` go unread): ``window_log`` anchors each
    window at its first cell, and a value <= 0 raises NonPositiveValue naming its
    column (from ``names``) and row (``first_row`` plus its row in ``columns``).

    With ``window``, the result is every run of ``window`` consecutive rows,
    shape (rows - window + 1, window, width); otherwise the whole block is one
    window and the result has its shape.
    """
    columns = np.asarray(columns, dtype=float)
    width = columns.shape[1]
    if stats is not None and len(stats) != width:
        raise ValueError(f"{len(stats)} stats for {width} columns")

    def windows(block):
        return block if window is None else sliding_window_view(block, (window, width))[:, 0]

    if kind == NormalizationKind.WINDOW_LOG:
        try:
            return window_log(windows(columns))
        except NonPositiveValue:
            row, col = np.argwhere(columns <= 0.0)[0]
            raise NonPositiveValue(
                f"column {names[col]} row {first_row + row}: WindowLog needs strictly positive features"
            ) from None
    scale = _SCALERS[kind]
    out = np.empty_like(columns)
    for j in range(width):
        out[:, j] = scale(columns[:, j], fit(columns[:, j]) if stats is None else stats[j])
    return windows(out)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix with unit diagonal.

    Columns with zero variance are reported in ``degenerate`` and carry 0
    off-diagonal.
    """

    names: tuple[str, ...]
    values: np.ndarray
    degenerate: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "degenerate", tuple(self.degenerate))
        k = len(self.names)
        if values.shape != (k, k):
            raise ValueError(f"matrix shape {values.shape} for {k} names")
        if not np.allclose(values, values.T, atol=1e-12):
            raise ValueError("matrix not symmetric")
        if not np.allclose(np.diag(values), 1.0, atol=1e-12):
            raise ValueError("diagonal not 1")
        if values.min() < -1.0 or values.max() > 1.0:
            raise ValueError("entries outside [-1, 1]")

    def to_csv(self, path: str | Path) -> None:
        with atomic_open(path) as handle:
            writer = csv.writer(handle)
            writer.writerow([""] + list(self.names))
            for name, row in zip(self.names, self.values):
                writer.writerow([name] + [repr(float(v)) for v in row])

    @classmethod
    def read_csv(cls, path: str | Path) -> "CorrelationMatrix":
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        names = tuple(rows[0][1:])
        values = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
        return cls(names=names, values=values)


def pearson_corr_matrix(
    features: FeatureMatrix,
    kind: NormalizationKind = NormalizationKind.MIN_MAX,
    overrides: dict[str, NormalizationKind] | None = None,
) -> CorrelationMatrix:
    """Pearson matrix on the commonly defined rows after per-column scaling.

    ``overrides`` maps indicator kinds to a different scheme (the per-family
    mode); unlisted columns use ``kind``. Each column is scaled on its own, so a
    WindowLog column is one window anchored at its first commonly defined row.
    """
    start = features.warmup
    raw = features.to_array()[start:]
    if raw.shape[0] < 2:
        raise EmptyInput(f"only {raw.shape[0]} commonly defined rows, need >= 2")
    names = tuple(features.names)
    # a raw-constant column is degenerate before any scaling, which keeps
    # L2 and WindowLog away from it
    constant = np.ptp(raw, axis=0) == 0.0
    transformed = np.zeros_like(raw)
    for j in np.flatnonzero(~constant):
        col = features.columns[j]
        col_kind = (overrides or {}).get(col.kind, kind)
        transformed[:, j] = normalize(col_kind, raw[:, j : j + 1], (col.name,), start)[:, 0]
    # a nonlinear transform can flatten a non-constant column; recheck
    flattened = ~constant & (np.ptp(transformed, axis=0) == 0.0)
    live = np.flatnonzero(~constant & ~flattened)
    matrix = np.eye(len(names))
    if len(live) >= 2:
        sub = np.corrcoef(transformed[:, live], rowvar=False)
        sub = np.clip((sub + sub.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(sub, 1.0)
        matrix[np.ix_(live, live)] = sub
        # identical (or exactly negated) columns must correlate at exactly +-1,
        # not at corrcoef's rounding of it, so the duplicate-drop rule holds
        for j in live:
            transformed[:, j] -= transformed[:, j].mean()
        rows, cols = np.triu_indices(len(live), 1)
        for ja, jb in zip(live[rows], live[cols]):
            za, zb = transformed[:, ja], transformed[:, jb]
            if np.array_equal(za, zb):
                matrix[ja, jb] = matrix[jb, ja] = 1.0
            elif np.array_equal(za, -zb):
                matrix[ja, jb] = matrix[jb, ja] = -1.0
    degenerate = [names[j] for j in np.flatnonzero(constant)] + [names[j] for j in np.flatnonzero(flattened)]
    return CorrelationMatrix(names=names, values=matrix, degenerate=tuple(degenerate))


def select_uncorrelated(matrix: CorrelationMatrix, threshold: float) -> list[str]:
    """Greedy pass in column order: keep a column iff |corr| with every
    already-kept column is strictly below the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    kept: list[int] = []
    for j in range(len(matrix.names)):
        if all(abs(matrix.values[i, j]) < threshold for i in kept):
            kept.append(j)
    return [matrix.names[j] for j in kept]
