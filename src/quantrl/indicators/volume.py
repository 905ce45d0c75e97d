"""Volume family: OBV and MFI."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import FeatureColumn
from .moving import _as_close, _check_period, _padded, _ratio


def obv(close, volume, name: str | None = None) -> FeatureColumn:
    """Cumulative volume signed by the close-to-close direction, OBV_0 = 0."""
    close = _as_close(close)
    volume = _as_close(volume)
    if len(volume) != len(close):
        raise ValueError("close and volume lengths differ")
    signed = np.sign(np.diff(close)) * volume[1:]
    out = np.empty(close.shape)
    out[0] = 0.0
    out[1:] = np.cumsum(signed)
    return FeatureColumn(name or "OBV", out, 0, "OBV")


def mfi(high, low, close, volume, n: int, name: str | None = None) -> FeatureColumn:
    """Money flow index over typical price (h+l+c)/3.

    One-signed flow windows hit the documented degenerate rule: all-positive
    -> 100, all-negative -> 0, fully flat -> 0.
    """
    high = _as_close(high)
    low = _as_close(low)
    close = _as_close(close)
    volume = _as_close(volume)
    _check_period(n, len(close), n, "MFI")
    tp = (high + low + close) / 3.0
    raw_flow = tp[1:] * volume[1:]
    direction = np.sign(np.diff(tp))
    pos = sliding_window_view(np.where(direction > 0, raw_flow, 0.0), n).sum(axis=1)
    neg = sliding_window_view(np.where(direction < 0, raw_flow, 0.0), n).sum(axis=1)
    value = np.where(neg > 0.0, 100.0 - 100.0 / (1.0 + _ratio(pos, neg)), np.where(pos > 0.0, 100.0, 0.0))
    return FeatureColumn(name or f"MFI_{n}", _padded(len(close), value), n, "MFI")
