"""Momentum family: MOM, ROC, RSI, CMO, STOCHRSI and the stochastic oscillator.

RSI smooths gains and losses with ``trend._wilder_smooth`` (seeded by the
simple average of the first n, then avg_t = (avg_{t-1}*(n-1) + x_t)/n).
Degenerate windows follow the documented rules: flat window -> 0, all-gain
window -> RSI 100.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import FeatureColumn
from .moving import _as_close, _check_period, _padded, _ratio, _sma_array
from .trend import _wilder_smooth


def mom(close, n: int, name: str | None = None) -> FeatureColumn:
    close = _as_close(close)
    _check_period(n, len(close), n, "MOM")
    return FeatureColumn(name or f"MOM_{n}", _padded(len(close), close[n:] - close[:-n]), n, "MOM")


def roc(close, n: int, name: str | None = None) -> FeatureColumn:
    """100 * (p_t - p_{t-n}) / p_{t-n}."""
    close = _as_close(close)
    _check_period(n, len(close), n, "ROC")
    out = _padded(len(close), 100.0 * (close[n:] - close[:-n]) / close[:-n])
    return FeatureColumn(name or f"ROC_{n}", out, n, "ROC")


def _rsi_array(close: np.ndarray, n: int) -> np.ndarray:
    diffs = np.diff(close)
    avg_gains = _wilder_smooth(np.maximum(diffs, 0.0), n)[n - 1 :].tolist()
    avg_losses = _wilder_smooth(np.maximum(-diffs, 0.0), n)[n - 1 :].tolist()
    return _padded(len(close), list(map(_rsi_value, avg_gains, avg_losses)))


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 100.0 if avg_gain > 0.0 else 0.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def rsi(close, n: int, name: str | None = None) -> FeatureColumn:
    close = _as_close(close)
    _check_period(n, len(close), n, "RSI")
    return FeatureColumn(name or f"RSI_{n}", _rsi_array(close, n), n, "RSI")


def cmo(close, n: int, name: str | None = None) -> FeatureColumn:
    """100 * (sum gains - sum losses) / (sum gains + sum losses) over trailing n."""
    close = _as_close(close)
    _check_period(n, len(close), n, "CMO")
    diffs = np.diff(close)
    gain_sum = sliding_window_view(np.maximum(diffs, 0.0), n).sum(axis=1)
    loss_sum = sliding_window_view(np.maximum(-diffs, 0.0), n).sum(axis=1)
    out = _padded(len(close), _ratio(100.0 * (gain_sum - loss_sum), gain_sum + loss_sum))
    return FeatureColumn(name or f"CMO_{n}", out, n, "CMO")


def _stoch_percent(values: np.ndarray, lows: np.ndarray, highs: np.ndarray, n: int, scale: float) -> np.ndarray:
    """(x - lowest low) / (highest high - lowest low) over trailing n, degenerate -> 0."""
    low_n = sliding_window_view(lows, n).min(axis=1)
    high_n = sliding_window_view(highs, n).max(axis=1)
    return _padded(len(values), _ratio(scale * (values[n - 1 :] - low_n), high_n - low_n))


def stochrsi(close, n: int, name: str | None = None) -> FeatureColumn:
    """Stochastic formula applied to the n-period RSI, output in [0, 1]."""
    close = _as_close(close)
    _check_period(n, len(close), 2 * n - 1, "STOCHRSI")
    rsi_vals = _rsi_array(close, n)[n:]
    out = _padded(len(close), _stoch_percent(rsi_vals, rsi_vals, rsi_vals, n, 1.0)[n - 1 :])
    return FeatureColumn(name or f"STOCHRSI_{n}", out, 2 * n - 1, "STOCHRSI")


def stochastic(high, low, close, n: int, d: int = 3,
               names: tuple[str, str] | None = None) -> tuple[FeatureColumn, FeatureColumn]:
    """%K = 100 * (close - lowest low) / (highest high - lowest low); %D = SMA(%K, d)."""
    high = _as_close(high)
    low = _as_close(low)
    close = _as_close(close)
    if d < 1:
        raise ValueError(f"STOCH_D: d must be >= 1, got {d}")
    _check_period(n, len(close), n - 1, "STOCH_K")
    _check_period(d, len(close), n + d - 2, "STOCH_D")
    k_vals = _stoch_percent(close, low, high, n, 100.0)
    d_vals = _padded(len(close), _sma_array(k_vals[n - 1 :], d)[d - 1 :])
    k_name, d_name = names or (f"STOCH_K_{n}", f"STOCH_D_{n}_{d}")
    return (
        FeatureColumn(k_name, k_vals, n - 1, "STOCH_K"),
        FeatureColumn(d_name, d_vals, n + d - 2, "STOCH_D"),
    )
