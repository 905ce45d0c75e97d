"""Moving-average family: SMA, EMA, WMA, TRIMA, DEMA, TEMA, TRIX, MACD."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import PeriodTooLong
from .base import FeatureColumn


def _as_close(close) -> np.ndarray:
    arr = np.asarray(close, dtype=float)
    if arr.ndim != 1:
        raise ValueError("close must be 1-D")
    return arr


def _check_period(n: int, length: int, first_defined: int, kind: str) -> None:
    if n < 1:
        raise ValueError(f"{kind}: period must be >= 1, got {n}")
    if first_defined >= length:
        raise PeriodTooLong(f"{kind}({n}): needs {first_defined + 1} bars, series has {length}")


def _padded(length: int, values) -> np.ndarray:
    """A ``length``-cell column ending in ``values``, NaN before them (the warm-up)."""
    out = np.full(length, np.nan)
    out[length - len(values) :] = values
    return out


def _ratio(num, den) -> np.ndarray:
    """num / den where den > 0, else 0: the rule for a degenerate denominator."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den > 0.0)


def _sma_array(x: np.ndarray, n: int) -> np.ndarray:
    """Trailing n-mean, NaN for the first n-1 entries."""
    return _padded(len(x), sliding_window_view(x, n).mean(axis=1) if n <= len(x) else [])


def _wma_array(x: np.ndarray, n: int) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float)
    return _padded(len(x), sliding_window_view(x, n) @ weights / weights.sum() if n <= len(x) else [])


def _ema_array(x: np.ndarray, n: int) -> np.ndarray:
    """EMA with k = 2/(n+1), seeded by the SMA of the first n values."""
    if n > len(x):
        return _padded(len(x), [])
    k = 2.0 / (n + 1.0)
    value = float(x[:n].mean())
    values = [value]
    for xt in x[n:].tolist():
        value = k * xt + (1.0 - k) * value
        values.append(value)
    return _padded(len(x), values)


def sma(close, n: int, name: str | None = None) -> FeatureColumn:
    close = _as_close(close)
    _check_period(n, len(close), n - 1, "SMA")
    return FeatureColumn(name or f"SMA_{n}", _sma_array(close, n), n - 1, "SMA")


def wma(close, n: int, name: str | None = None) -> FeatureColumn:
    """Weighted moving average, weights 1..n with the newest bar weighted n."""
    close = _as_close(close)
    _check_period(n, len(close), n - 1, "WMA")
    return FeatureColumn(name or f"WMA_{n}", _wma_array(close, n), n - 1, "WMA")


def ema(close, n: int, name: str | None = None) -> FeatureColumn:
    """Building block for the MACD/DEMA/TEMA/TRIX family."""
    close = _as_close(close)
    _check_period(n, len(close), n - 1, "EMA")
    return FeatureColumn(name or f"EMA_{n}", _ema_array(close, n), n - 1, "EMA")


def trima(close, n: int, name: str | None = None) -> FeatureColumn:
    """Triangular MA: SMA(ceil((n+1)/2)) smoothed by SMA(floor((n+1)/2))."""
    close = _as_close(close)
    _check_period(n, len(close), n - 1, "TRIMA")
    n1 = math.ceil((n + 1) / 2)
    n2 = math.floor((n + 1) / 2)
    first = _sma_array(close, n1)
    out = _padded(len(close), _sma_array(first[n1 - 1 :], n2)[n2 - 1 :])
    return FeatureColumn(name or f"TRIMA_{n}", out, n - 1, "TRIMA")


def _ema_chain(close: np.ndarray, n: int, depth: int) -> list[np.ndarray]:
    """EMA, EMA(EMA), ... up to ``depth`` levels, each aligned to ``close``;
    level k (from 1) is first defined at k*(n-1)."""
    chain = [_ema_array(close, n)]
    for k in range(1, depth):
        chain.append(_padded(len(close), _ema_array(chain[-1][k * (n - 1) :], n)[n - 1 :]))
    return chain


def dema(close, n: int, name: str | None = None) -> FeatureColumn:
    """2*EMA - EMA(EMA); first defined after 2n-1 bars."""
    close = _as_close(close)
    _check_period(n, len(close), 2 * (n - 1), "DEMA")
    e1, e2 = _ema_chain(close, n, 2)
    return FeatureColumn(name or f"DEMA_{n}", 2.0 * e1 - e2, 2 * (n - 1), "DEMA")


def tema(close, n: int, name: str | None = None) -> FeatureColumn:
    """3*EMA - 3*EMA(EMA) + EMA(EMA(EMA)); first defined after 3n-2 bars."""
    close = _as_close(close)
    _check_period(n, len(close), 3 * (n - 1), "TEMA")
    e1, e2, e3 = _ema_chain(close, n, 3)
    return FeatureColumn(name or f"TEMA_{n}", 3.0 * e1 - 3.0 * e2 + e3, 3 * (n - 1), "TEMA")


def trix(close, n: int, name: str | None = None) -> FeatureColumn:
    """One-period percent rate of change of the triple EMA."""
    close = _as_close(close)
    _check_period(n, len(close), 3 * (n - 1) + 1, "TRIX")
    e3 = _ema_chain(close, n, 3)[2]
    lo = 3 * (n - 1)
    out = _padded(len(close), 100.0 * (e3[lo + 1 :] - e3[lo:-1]) / e3[lo:-1])
    return FeatureColumn(name or f"TRIX_{n}", out, lo + 1, "TRIX")


def macd(close, fast: int = 12, slow: int = 26, signal: int = 9,
         names: tuple[str, str] | None = None) -> tuple[FeatureColumn, FeatureColumn]:
    """MACD line = EMA(fast) - EMA(slow); signal = EMA(MACD, signal)."""
    close = _as_close(close)
    if fast >= slow:
        raise ValueError(f"MACD: fast {fast} must be < slow {slow}")
    _check_period(signal, len(close), slow + signal - 2, "MACD_SIGNAL")
    _check_period(slow, len(close), slow - 1, "MACD")
    line = _ema_array(close, fast) - _ema_array(close, slow)
    sig = _padded(len(close), _ema_array(line[slow - 1 :], signal)[signal - 1 :])
    line_name, sig_name = names or (f"MACD_{fast}_{slow}", f"MACD_SIGNAL_{fast}_{slow}_{signal}")
    return (
        FeatureColumn(line_name, line, slow - 1, "MACD"),
        FeatureColumn(sig_name, sig, slow + signal - 2, "MACD_SIGNAL"),
    )
