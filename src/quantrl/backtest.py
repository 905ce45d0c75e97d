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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .agents.mlp import MlpPolicy, mlp_forward
from .errors import ShapeMismatch, TooFewSamples
from .trading_env import EpisodeLedger, Position, TradingEnv

TRADES_HEADER = "direction,entry_idx,entry_px,exit_idx,exit_px,ret,win"


@dataclass(frozen=True)
class Trade:
    """One closed position segment. ``ret`` is the commission-adjusted
    fractional return; the final open position is force-closed at the last
    bar without commission, for reporting."""

    direction: Position
    entry_idx: int
    entry_px: float
    exit_idx: int
    exit_px: float
    ret: float
    win: bool

    def __post_init__(self):
        if self.exit_idx <= self.entry_idx:
            raise ValueError(f"exit index {self.exit_idx} not after entry {self.entry_idx}")
        if self.entry_px <= 0 or self.exit_px <= 0:
            raise ValueError("trade prices must be positive")


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


def _gross(direction: Position, entry_px: float, exit_px: float) -> float:
    return exit_px / entry_px if direction is Position.LONG else entry_px / exit_px


def run_policy(env: TradingEnv, policy: MlpPolicy, seed: int | None = None):
    """Run one greedy episode (argmax actions, ties to Sell).

    Returns (ledger, equity curve, trades). Consecutive flips pair into
    trades; a same-bar reversal produces no trade record (commission still
    applies to equity).
    """
    window = env.reset(seed)
    if policy.input_size != env.observation_size:
        raise ShapeMismatch(
            f"policy input {policy.input_size} != observation size {env.observation_size}"
        )
    commission = env.config.commission
    closes = env.series.closes()
    entry_idx = env.start_cursor
    entry_px = float(closes[entry_idx])
    direction = env.position
    trades: list[Trade] = []
    obs = np.empty(env.observation_size)
    done = False
    while not done:
        action = int(np.argmax(mlp_forward(policy, window.flatten(obs))))
        flip_at = env.cursor
        result = env.step(action)
        if result.info["trade_executed"]:
            exit_px = float(closes[flip_at])
            if flip_at > entry_idx:
                ret = _gross(direction, entry_px, exit_px) * (1.0 - commission) - 1.0
                trades.append(Trade(direction, entry_idx, entry_px, flip_at, exit_px, ret, ret > 0.0))
            direction = env.position
            entry_idx, entry_px = flip_at, exit_px
        window = result.observation
        done = result.done
    last_idx = env.cursor
    if last_idx > entry_idx:
        exit_px = float(closes[last_idx])
        ret = _gross(direction, entry_px, exit_px) - 1.0
        trades.append(Trade(direction, entry_idx, entry_px, last_idx, exit_px, ret, ret > 0.0))
    curve = EquityCurve(np.concatenate([[env.config.initial_cash], env.ledger.equities()]))
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
        return cls(**data)


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

    def x(i: float) -> float:
        return pad + (width - 2 * pad) * (i / max(n - 1, 1))

    def y(v: float) -> float:
        return height - pad - (height - 2 * pad) * ((v - lo) / span)

    points = " ".join(f"{x(i):.2f},{y(v):.2f}" for i, v in enumerate(values))
    markers = []
    for trade in trades:
        i = trade.entry_idx - start_cursor
        i = min(max(i, 0), n - 1)
        color = "#2a7" if trade.direction is Position.LONG else "#c33"
        markers.append(
            f'<circle cx="{x(i):.2f}" cy="{y(float(values[i])):.2f}" r="3" fill="{color}"/>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline fill="none" stroke="#246" stroke-width="1.5" points="{points}"/>'
        + "".join(markers)
        + "</svg>"
    )


def render_report(report: PerformanceReport, ledger: EpisodeLedger, curve: EquityCurve,
                  trades: list[Trade], out_dir: str | Path, start_cursor: int = 0) -> dict[str, Path]:
    """Write report.json, equity.csv, trades.csv, ledger.csv and equity.svg."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "equity": out / "equity.csv",
        "trades": out / "trades.csv",
        "ledger": out / "ledger.csv",
        "svg": out / "equity.svg",
    }
    paths["report"].write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    with open(paths["equity"], "w") as handle:
        handle.write("step,equity\n")
        for i, v in enumerate(curve.values):
            handle.write(f"{i},{float(v)!r}\n")
    with open(paths["trades"], "w") as handle:
        handle.write(TRADES_HEADER + "\n")
        for t in trades:
            handle.write(
                f"{t.direction.name},{t.entry_idx},{t.entry_px!r},{t.exit_idx},{t.exit_px!r},{t.ret!r},{int(t.win)}\n"
            )
    ledger.to_csv(paths["ledger"])
    paths["svg"].write_text(_equity_svg(curve, trades, start_cursor))
    return paths
