"""Technical-indicator feature columns with explicit warm-up handling."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import QuantrlError
from ..market_data import OhlcvSeries
from .base import FeatureColumn, FeatureMatrix
from .moving import dema, ema, macd, sma, tema, trima, trix, wma
from .momentum import cmo, mom, roc, rsi, stochastic, stochrsi
from .trend import adx, atr, bop, cci, sar, uo
from .volume import mfi, obv

__all__ = [
    "DEFAULT_PERIODS", "KINDS", "FeatureColumn", "FeatureMatrix", "IndicatorSpec",
    "adx", "atr", "bop", "cci", "cmo", "compute_feature_matrix", "default_specs",
    "dema", "ema", "macd", "mfi", "mom", "obv", "roc", "rsi", "sar", "sma",
    "stochastic", "stochrsi", "tema", "trima", "trix", "uo", "wma",
]


class _Indicator(NamedTuple):
    """How a config kind computes its column: ``function(*inputs, *params,
    name=...)``, or ``function(*inputs, *params, names=...)[pair]`` when the
    function returns a pair of columns. ``inputs`` are OhlcvSeries accessors,
    ``params`` IndicatorSpec fields, ``name`` the default column name as a
    format string over the spec's fields, and ``period`` the default period."""

    function: Callable
    inputs: tuple[str, ...]
    params: tuple[str, ...]
    name: str
    pair: int | None = None
    period: int | None = None


_C = ("closes",)
_HLC = ("highs", "lows", "closes")
_N = ("period",)
_BY_N = "{kind}_{period}"
_MACD = ("fast", "slow", "signal")

_INDICATORS = {
    "SMA": _Indicator(sma, _C, _N, _BY_N, period=30),
    "OBV": _Indicator(obv, ("closes", "volumes"), (), "OBV"),
    "MOM": _Indicator(mom, _C, _N, _BY_N, period=10),
    "STOCH_K": _Indicator(stochastic, _HLC, ("period", "d_period"), _BY_N, 0, 14),
    "STOCH_D": _Indicator(stochastic, _HLC, ("period", "d_period"), "STOCH_D_{period}_{d_period}", 1, 14),
    "MACD": _Indicator(macd, _C, _MACD, "MACD_{fast}_{slow}", 0),
    "MACD_SIGNAL": _Indicator(macd, _C, _MACD, "MACD_SIGNAL_{fast}_{slow}_{signal}", 1),
    "CCI": _Indicator(cci, _HLC, _N, _BY_N, period=14),
    "ADX": _Indicator(adx, _HLC, _N, _BY_N, period=14),
    "TRIX": _Indicator(trix, _C, _N, _BY_N, period=10),
    "ROC": _Indicator(roc, _C, _N, _BY_N, period=10),
    "SAR": _Indicator(sar, _HLC, ("accel_start", "accel_step", "accel_max"), "SAR"),
    "TEMA": _Indicator(tema, _C, _N, _BY_N, period=30),
    "TRIMA": _Indicator(trima, _C, _N, _BY_N, period=30),
    "WMA": _Indicator(wma, _C, _N, _BY_N, period=30),
    "DEMA": _Indicator(dema, _C, _N, _BY_N, period=30),
    "MFI": _Indicator(mfi, (*_HLC, "volumes"), _N, _BY_N, period=14),
    "CMO": _Indicator(cmo, _C, _N, _BY_N, period=14),
    "STOCHRSI": _Indicator(stochrsi, _C, _N, _BY_N, period=14),
    "UO": _Indicator(uo, _HLC, ("periods",), "UO_{periods[0]}_{periods[1]}_{periods[2]}"),
    "BOP": _Indicator(bop, ("opens", *_HLC), (), "BOP"),
    "ATR": _Indicator(atr, _HLC, _N, _BY_N, period=14),
    "RSI": _Indicator(rsi, _C, _N, _BY_N, period=14),
}

KINDS = tuple(_INDICATORS)

# Default periods for indicators used without explicit parameters.
DEFAULT_PERIODS = {kind: ind.period for kind, ind in _INDICATORS.items() if ind.period is not None}


@dataclass(frozen=True)
class IndicatorSpec:
    """Parameters for one indicator column.

    ``period`` defaults per kind (DEFAULT_PERIODS). MACD uses fast/slow/signal,
    STOCH_K and STOCH_D add d_period (both come from one ``stochastic`` call),
    UO uses three strictly increasing periods, SAR uses the acceleration
    start/step/max triple.
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
        ints = [self.fast, self.slow, self.signal, self.d_period, *self.periods]
        ints += [] if self.period is None else [self.period]
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in ints) or len(self.periods) != 3:
            raise ValueError(f"{self.kind}: period, fast, slow, signal, d_period and three periods must be integers")
        accels = (self.accel_start, self.accel_step, self.accel_max)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
                   for v in accels):
            raise ValueError(f"{self.kind}: accel_start, accel_step and accel_max must be finite numbers")
        if not isinstance(self.name, (str, type(None))) or self.name == "":
            raise ValueError(f"{self.kind}: name must be a non-empty string or null, got {self.name!r:.40}")
        if self.period is None and self.kind in DEFAULT_PERIODS:
            object.__setattr__(self, "period", DEFAULT_PERIODS[self.kind])
        if self.period is not None and self.period < 1:
            raise ValueError(f"{self.kind}: period must be >= 1, got {self.period}")
        if self.kind in ("MACD", "MACD_SIGNAL"):
            if min(self.fast, self.slow, self.signal) < 1:
                raise ValueError(f"{self.kind}: periods must be >= 1")
            if self.fast >= self.slow:
                raise ValueError(f"{self.kind}: fast {self.fast} must be < slow {self.slow}")
        if self.kind in ("STOCH_K", "STOCH_D") and self.d_period < 1:
            raise ValueError(f"{self.kind}: d_period must be >= 1, got {self.d_period}")
        if self.kind == "UO":
            p1, p2, p3 = self.periods
            if not (1 <= p1 < p2 < p3):
                raise ValueError(f"UO: periods must be strictly increasing and >= 1, got {self.periods}")
        if self.kind == "SAR" and not (0.0 < self.accel_start <= self.accel_max and self.accel_step > 0.0):
            raise ValueError("SAR: need 0 < accel_start <= accel_max and accel_step > 0")

    @property
    def column_name(self) -> str:
        if self.name is not None:
            return self.name
        return _INDICATORS[self.kind].name.format(**vars(self))


def default_specs() -> list[IndicatorSpec]:
    """The 20-indicator feature set used as the default RL input block."""
    return [
        IndicatorSpec("SMA"),
        IndicatorSpec("OBV"),
        IndicatorSpec("MOM"),
        IndicatorSpec("STOCH_K"),
        IndicatorSpec("MACD"),
        IndicatorSpec("CCI"),
        IndicatorSpec("ADX"),
        IndicatorSpec("TRIX"),
        IndicatorSpec("ROC"),
        IndicatorSpec("SAR"),
        IndicatorSpec("TEMA"),
        IndicatorSpec("TRIMA"),
        IndicatorSpec("WMA"),
        IndicatorSpec("DEMA"),
        IndicatorSpec("MFI"),
        IndicatorSpec("CMO"),
        IndicatorSpec("STOCHRSI"),
        IndicatorSpec("UO"),
        IndicatorSpec("BOP"),
        IndicatorSpec("ATR"),
    ]


def compute_column(series: OhlcvSeries, spec: IndicatorSpec) -> FeatureColumn:
    """Compute one indicator column from a validated series."""
    ind = _INDICATORS[spec.kind]
    args = [getattr(series, accessor)() for accessor in ind.inputs]
    args += [getattr(spec, param) for param in ind.params]
    name = spec.column_name
    if ind.pair is None:
        return ind.function(*args, name=name)
    return ind.function(*args, names=(name, name))[ind.pair]


def compute_feature_matrix(series: OhlcvSeries, specs: list[IndicatorSpec]) -> FeatureMatrix:
    """One column per spec on a shared time axis.

    Per-indicator errors are re-raised with the offending spec named;
    duplicate column names are rejected by the matrix constructor.
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    columns = []
    for spec in specs:
        try:
            columns.append(compute_column(series, spec))
        except QuantrlError as exc:
            raise type(exc)(f"{spec.column_name}: {exc}") from exc
    return FeatureMatrix(tuple(columns))
