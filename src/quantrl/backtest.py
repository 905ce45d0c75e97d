"""Greedy policy evaluation, trade extraction and performance metrics.

Metric conventions, pinned for oracle agreement: population standard
deviation, risk-free rate 0 by default, 252 daily periods per year,
geometric annualization, and degenerate ratios (zero volatility, zero
drawdown, no trades) reported as 0 rather than infinity. A trade with
return exactly 0 counts as a loss.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .agents.common import row_values
from .agents.mlp import MlpPolicy, mlp_forward
from .atomic import atomic_open
from .errors import ShapeMismatch, TooFewSamples
from .trading_env import _BITS, _SIDE_AFTER, Action, EpisodeLedger, Position, TradingEnv

TRADES_HEADER = "direction,entry_idx,entry_px,exit_idx,exit_px,ret,win"


class _TradeFields(NamedTuple):
    direction: Position
    entry_idx: int
    entry_px: float
    exit_idx: int
    exit_px: float
    ret: float
    win: bool


class Trade(_TradeFields):
    """One closed position segment. ``ret`` is the commission-adjusted
    fractional return; the final open position is force-closed at the last
    bar without commission, for reporting. ``Trade(...)`` checks the record;
    ``run_policy`` checks its columns once and builds records with ``_make``."""

    __slots__ = ()

    def __new__(cls, direction, entry_idx, entry_px, exit_idx, exit_px, ret, win):
        if exit_idx <= entry_idx:
            raise ValueError(f"exit index {exit_idx} not after entry {entry_idx}")
        if entry_px <= 0 or exit_px <= 0:
            raise ValueError("trade prices must be positive")
        return super().__new__(cls, direction, entry_idx, entry_px, exit_idx, exit_px, ret, win)


@dataclass(frozen=True)
class EquityCurve:
    """Per-step equity, initial cash first; length = episode length + 1."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if len(values) < 2 or values.min() <= 0.0:
            raise ValueError("equity curve must be positive with >= 2 points")

    @property
    def initial_cash(self) -> float:
        return float(self.values[0])

    def __len__(self) -> int:
        return len(self.values)

    def period_returns(self) -> np.ndarray:
        return self.values[1:] / self.values[:-1] - 1.0


def greedy_path(env: TradingEnv, policy: MlpPolicy) -> list[int]:
    """The actions (0 Sell, 1 Buy) a greedy episode takes from the env's
    current state to the last bar, without stepping the env.

    The frozen policy's greedy action (argmax, ties to Sell) is read once for
    every observation row the rest of the episode can reach
    (``env.rows_ahead``), by ``row_values``; ``env.walk`` then picks the row
    each step acts from, so the path is those rows' actions.
    """
    lo, hi = env.rows_ahead(env.steps_left)
    actions = row_values(env, lambda rows: np.argmax(mlp_forward(policy, rows), axis=1), lo, hi)
    return actions[env.walk(actions)].tolist()


def run_policy(env: TradingEnv, policy: MlpPolicy):
    """Run one greedy episode (argmax actions, ties to Sell) from reset to the
    last bar: ``greedy_path`` reads the actions, ``env.replay`` writes the
    ledger in closed form, bit-equal to stepping the env bar by bar.

    Returns (ledger, equity curve, trades). Consecutive flips pair into
    trades; a same-bar reversal produces no trade record (commission still
    applies to equity).
    """
    env.reset()
    if policy.input_size != env.observation_size:
        raise ShapeMismatch(
            f"policy input {policy.input_size} != observation size {env.observation_size}"
        )
    if policy.output_size != len(Action):
        raise ShapeMismatch(f"policy output {policy.output_size} != {len(Action)} actions (Sell, Buy)")
    path = greedy_path(env, policy)
    env.replay(path)
    start, last = env.start_cursor, env.cursor
    sides = np.array(path, dtype=np.intp)
    # The position is Short before the first step; a segment runs from one
    # flip bar (or the start) to the next (or the last bar), and the only
    # empty one is the Short segment a flip on the first bar closes.
    flips = np.flatnonzero(np.diff(sides, prepend=Position.SHORT))
    bounds = np.concatenate(([start], flips + start, [last]))
    directions = np.concatenate(([Position.SHORT], sides[flips]))
    kept = bounds[1:] > bounds[:-1]
    entries, exits, directions = bounds[:-1][kept], bounds[1:][kept], directions[kept]
    closes = env.series.closes()
    entry_px, exit_px = closes[entries], closes[exits]
    if (entry_px <= 0.0).any() or (exit_px <= 0.0).any():
        raise ValueError("trade prices must be positive")
    # Elementwise float64 operations round as Python floats do; the segment
    # force-closed at the last bar pays no commission (x * 1.0 == x).
    gross = np.where(directions == Position.LONG, exit_px / entry_px, entry_px / exit_px)
    ret = gross * np.where(exits == last, 1.0, 1.0 - env.config.commission) - 1.0
    columns = (map(_SIDE_AFTER.__getitem__, directions.tolist()), entries.tolist(), entry_px.tolist(),
               exits.tolist(), exit_px.tolist(), ret.tolist(), (ret > 0.0).tolist())
    trades = list(map(Trade._make, zip(*columns)))
    curve = EquityCurve(np.array([env.config.initial_cash, *env.ledger.equity]))
    return env.ledger, curve, trades


def sharpe(period_returns, risk_free_per_period: float = 0.0, periods_per_year: int = 252) -> float:
    """(mean excess * P) / (population std * sqrt(P)); zero-sigma -> 0."""
    returns = np.asarray(period_returns, dtype=float)
    if len(returns) < 2:
        raise TooFewSamples(f"need >= 2 returns, got {len(returns)}")
    excess = returns - risk_free_per_period
    sigma = float(excess.std())
    if sigma == 0.0:
        return 0.0
    return float(excess.mean() * periods_per_year / (sigma * math.sqrt(periods_per_year)))


def sortino(period_returns, risk_free_per_period: float = 0.0, periods_per_year: int = 252) -> float:
    """Like sharpe with downside deviation (returns below rf) in the
    denominator; zero downside deviation -> 0."""
    returns = np.asarray(period_returns, dtype=float)
    if len(returns) < 2:
        raise TooFewSamples(f"need >= 2 returns, got {len(returns)}")
    excess = returns - risk_free_per_period
    downside = np.minimum(excess, 0.0)
    dd = float(np.sqrt(np.mean(downside * downside)))
    if dd == 0.0:
        return 0.0
    return float(excess.mean() * periods_per_year / (dd * math.sqrt(periods_per_year)))


def max_drawdown(curve_values) -> float:
    """max over t of (running peak - equity_t) / running peak, as a fraction."""
    values = np.asarray(curve_values, dtype=float)
    peaks = np.maximum.accumulate(values)
    return float(((peaks - values) / peaks).max())


def calmar(annual_return_fraction: float, max_drawdown_fraction: float) -> float:
    """Annualized return over max drawdown; zero drawdown reports 0."""
    if max_drawdown_fraction <= 0.0:
        return 0.0
    return annual_return_fraction / max_drawdown_fraction


def annualize(total_return_fraction: float, n_periods: int, periods_per_year: int = 252) -> float:
    """Geometric annualized return, in percent."""
    if n_periods < 1:
        raise TooFewSamples("need >= 1 period")
    return ((1.0 + total_return_fraction) ** (periods_per_year / n_periods) - 1.0) * 100.0


def win_rate(trades: list[Trade]) -> float:
    """Percent of trades with strictly positive return; no trades -> 0."""
    if not trades:
        return 0.0
    return 100.0 * sum(1 for t in trades if t.win) / len(trades)


@dataclass(frozen=True)
class PerformanceReport:
    return_pct: float
    return_ann_pct: float
    vol_ann_pct: float
    sharpe: float
    sortino: float
    calmar: float
    win_rate_pct: float
    n_trades: int
    max_drawdown_pct: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PerformanceReport":
        """The report ``to_dict`` gave; TypeError unless ``data`` holds exactly
        the report's keys, an int or float for each float and an int for
        ``n_trades`` (a bool is neither)."""
        report = cls(**data)
        for field in fields(cls):
            value = getattr(report, field.name)
            if type(value) not in ((int, float) if field.type == "float" else (int,)):
                raise TypeError(f"{field.name}: expected {field.type}, got {value!r:.40}")
        return report


def compute_report(curve: EquityCurve, trades: list[Trade], risk_free: float = 0.0,
                   periods_per_year: int = 252) -> PerformanceReport:
    returns = curve.period_returns()
    total = float(curve.values[-1] / curve.values[0] - 1.0)
    vol = float((returns - risk_free).std()) * math.sqrt(periods_per_year) * 100.0
    ann_pct = annualize(total, len(returns), periods_per_year)
    mdd = max_drawdown(curve.values)
    return PerformanceReport(
        return_pct=total * 100.0,
        return_ann_pct=ann_pct,
        vol_ann_pct=vol,
        sharpe=sharpe(returns, risk_free, periods_per_year),
        sortino=sortino(returns, risk_free, periods_per_year),
        calmar=calmar(ann_pct / 100.0, mdd),
        win_rate_pct=win_rate(trades),
        n_trades=len(trades),
        max_drawdown_pct=mdd * 100.0,
    )


def _equity_svg(curve: EquityCurve, trades: list[Trade], start_cursor: int,
                width: int = 800, height: int = 400, pad: int = 20) -> str:
    values = curve.values
    lo, hi = float(values.min()), float(values.max())
    span = (hi - lo) or 1.0
    n = len(values)
    # Evaluated in the order the formulas read; elementwise float64 operations round
    # as Python floats do, so every point keeps its bytes.
    xs = (pad + (width - 2 * pad) * (np.arange(n) / max(n - 1, 1))).tolist()
    ys = ((height - pad) - (height - 2 * pad) * ((values - lo) / span)).tolist()
    points = list(map("{:.2f},{:.2f}".format, xs, ys))
    markers = []
    for trade in trades:
        # A marker sits on its entry bar's point and reuses that point's text.
        x, y = points[min(max(trade.entry_idx - start_cursor, 0), n - 1)].split(",")
        color = "#2a7" if trade.direction is Position.LONG else "#c33"
        markers.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>')
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline fill="none" stroke="#246" stroke-width="1.5" points="{" ".join(points)}"/>'
        + "".join(markers)
        + "</svg>"
    )


def _trades_csv(trades: list[Trade], price_text: dict[float, str]) -> str:
    """trades.csv, one format per row. A price takes its text from ``price_text``
    when an equal price is there and is formatted with ``repr`` otherwise."""
    if not trades:
        return TRADES_HEADER + "\n"
    directions, entries, entry_px, exits, exit_px, rets, wins = zip(*trades)

    def prices(column):
        return [price_text.get(price) or repr(price) for price in column]

    rows = map(",".join, zip([d.name for d in directions], map(str, entries), prices(entry_px),
                             map(str, exits), prices(exit_px), map(repr, rets), map(_BITS.__getitem__, wins)))
    return "\n".join([TRADES_HEADER, *rows, ""])


def render_report(report: PerformanceReport, ledger: EpisodeLedger, curve: EquityCurve,
                  trades: list[Trade], out_dir: str | Path, start_cursor: int = 0) -> dict[str, Path]:
    """Write report.json, equity.csv, trades.csv, ledger.csv and equity.svg.

    Each shared number is formatted once. The curve's text fills the ledger's
    equity column when ``curve.values[1:]`` equals it, and a trade's price
    reuses the text of an equal ledger price. Keying text by value is exact
    for these positive columns: the only equal floats whose ``repr`` differs
    are 0.0 and -0.0."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "equity": out / "equity.csv",
        "trades": out / "trades.csv",
        "ledger": out / "ledger.csv",
        "svg": out / "equity.svg",
    }
    values = curve.values.tolist()
    value_text = list(map(repr, values))
    price_text = list(map(repr, ledger.prices))
    with atomic_open(paths["report"]) as handle:
        handle.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    with atomic_open(paths["equity"]) as handle:
        handle.write("\n".join(["step,equity", *map(",".join, zip(map(str, range(len(values))), value_text)), ""]))
    with atomic_open(paths["trades"]) as handle:
        handle.write(_trades_csv(trades, dict(zip(ledger.prices, price_text))))
    with atomic_open(paths["ledger"], newline="") as handle:
        handle.write(ledger.csv_text(price_text, value_text[1:] if values[1:] == ledger.equity else None))
    with atomic_open(paths["svg"]) as handle:
        handle.write(_equity_svg(curve, trades, start_cursor))
    return paths
