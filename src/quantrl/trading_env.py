"""Discrete always-in-market trading MDP.

The agent is Long or Short at every step; there is no hold state. A Buy
while Short (or Sell while Long) flips the position at the current bar's
close and pays proportional commission. Equity compounds per bar:
p_i/p_{i-1} while Long, p_{i-1}/p_i while Short, times (1 - commission)
on each flip. Three reward variants: per-step signed log return, log
return realized on flips, and a single terminal equity log ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    NonPositiveEquity,
    NonPositivePrice,
    NonPositiveValue,
    SeriesTooShort,
    SteppedAfterDone,
)
from .indicators import FeatureMatrix
from .market_data import OhlcvSeries
from .normalize import NormalizationKind, NormalizationStats, apply_kind, fit


class Action(IntEnum):
    SELL = 0
    BUY = 1


class Position(IntEnum):
    SHORT = 0
    LONG = 1


# TradingEnv.step's lookups: the member for each action value, and the side an
# action leaves the agent on (always in the market, so Buy ends Long, Sell Short).
_ACTIONS = {int(a): a for a in Action}
_SIDE_AFTER = (Position.SHORT, Position.LONG)


class RewardKind(str, Enum):
    IMMEDIATE = "ImmediateLogReturn"
    ON_FLIP = "FlipLogReturn"
    TERMINAL = "TerminalEquity"


@dataclass(frozen=True)
class EnvConfig:
    window_size: int = 10
    commission: float = 0.0
    reward_kind: RewardKind = RewardKind.IMMEDIATE
    normalization: NormalizationKind = NormalizationKind.MIN_MAX
    include_position_flag: bool = True
    initial_cash: float = 10_000.0

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0.0 <= self.commission < 1.0:
            raise ValueError(f"commission must be in [0, 1), got {self.commission}")
        if self.initial_cash <= 0.0:
            raise ValueError(f"initial_cash must be > 0, got {self.initial_cash}")


@dataclass(frozen=True)
class ObservationWindow:
    """window_size x n_features block of normalized values, newest row last,
    plus the optional trailing position flag (0 = Short, 1 = Long). From an
    env, ``values`` is a read-only view of its window table."""

    values: np.ndarray
    position_flag: float | None = None

    def flatten(self, out: np.ndarray | None = None) -> np.ndarray:
        """The observation as one vector: the window row-major, then the flag.
        Written into ``out`` and returned as ``out`` when given."""
        flat = np.asarray(self.values, dtype=float).ravel()
        if out is None:
            return flat if self.position_flag is None else np.append(flat, self.position_flag)
        out[: flat.size] = flat
        if self.position_flag is not None:
            out[-1] = self.position_flag
        return out


@dataclass(frozen=True)
class StepResult:
    observation: ObservationWindow
    reward: float
    done: bool
    info: dict


@dataclass(frozen=True)
class LedgerRecord:
    step: int
    action: Action
    position: Position
    price: float
    reward: float
    equity: float


@dataclass
class EpisodeLedger:
    initial_cash: float
    records: list[LedgerRecord] = field(default_factory=list)

    def append(self, record: LedgerRecord) -> None:
        if record.equity <= 0.0:
            raise NonPositiveEquity(f"step {record.step}: equity {record.equity}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def equities(self) -> np.ndarray:
        return np.array([r.equity for r in self.records], dtype=float)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "action", "position", "price", "reward", "equity"])
            for r in self.records:
                writer.writerow([r.step, int(r.action), int(r.position), repr(r.price), repr(r.reward), repr(r.equity)])


def reward_immediate(position: Position, p_prev: float, p_curr: float) -> float:
    """Signed per-bar log return: +log(p_curr/p_prev) Long, negated Short."""
    if p_prev <= 0.0 or p_curr <= 0.0:
        raise NonPositivePrice(f"prices must be > 0, got {p_prev}, {p_curr}")
    logret = math.log(p_curr / p_prev)
    return logret if position is Position.LONG else -logret


def reward_on_flip(flipped: bool, closed_position: Position, p_at_last_flip: float, p_curr: float) -> float:
    """0 without a flip; on a flip, log(p_curr / p_at_last_flip) signed by
    the side being closed (Long closed -> +, Short closed -> -)."""
    if not flipped:
        return 0.0
    if p_at_last_flip <= 0.0 or p_curr <= 0.0:
        raise NonPositivePrice(f"prices must be > 0, got {p_at_last_flip}, {p_curr}")
    logret = math.log(p_curr / p_at_last_flip)
    return logret if closed_position is Position.LONG else -logret


def reward_terminal(done: bool, equity_initial: float, equity_final: float) -> float:
    """0 until the terminal step, then log(equity_final / equity_initial)."""
    if equity_initial <= 0.0 or equity_final <= 0.0:
        raise NonPositiveEquity(f"equities must be > 0, got {equity_initial}, {equity_final}")
    if not done:
        return 0.0
    return math.log(equity_final / equity_initial)


class TradingEnv:
    """Always-in-market trading MDP over one series and its feature matrix.

    Deterministic: the same series, features, config and action sequence
    produce a bit-identical ledger. The position initializes to Short at
    reset, as if entered at the reset bar's close.
    """

    def __init__(
        self,
        series: OhlcvSeries,
        features: FeatureMatrix,
        config: EnvConfig | None = None,
        stats: list[NormalizationStats] | None = None,
    ):
        self.config = config or EnvConfig()
        if len(features) != len(series):
            raise ValueError(f"features rows {len(features)} != series bars {len(series)}")
        self.series = series
        self.features = features
        self._closes = series.closes()
        self._warmup = features.warmup
        self._start = self._warmup + self.config.window_size - 1
        if self._start + 1 > len(series) - 1:
            raise SeriesTooShort(
                f"warm-up {self._warmup} + window {self.config.window_size} needs "
                f"more than {len(series)} bars"
            )
        self._last = len(series) - 1
        self._flagged = self.config.include_position_flag
        self._reward_kind = self.config.reward_kind
        self._norm = self._normalized_features(stats)
        self._windows = self._window_table()
        self._blocks = self._windows.reshape(len(self._windows), self.config.window_size, features.width)
        self._cursor = self._start
        self._done = True
        self._position = Position.SHORT
        self._equity = self.config.initial_cash
        self._last_trade_price = self._closes[self._start]
        self._step_index = 0
        self.ledger = EpisodeLedger(initial_cash=self.config.initial_cash)

    def _normalized_features(self, stats: list[NormalizationStats] | None) -> np.ndarray:
        kind = self.config.normalization
        raw = self.features.to_array()
        defined = raw[self._warmup :]
        if kind == NormalizationKind.WINDOW_LOG:
            if stats is not None:
                raise ValueError("WindowLog takes no frozen stats")
            if np.any(defined <= 0.0):
                row, col = map(int, np.argwhere(defined <= 0.0)[0])
                raise NonPositiveValue(
                    f"column {self.features.names[col]} row {row + self._warmup}: "
                    "WindowLog needs strictly positive features"
                )
            return raw
        out = np.full_like(raw, np.nan)
        if kind == NormalizationKind.L2:
            if stats is not None:
                raise ValueError("L2 takes no frozen stats")
            for j in range(raw.shape[1]):
                column = defined[:, j]
                norm = float(np.sqrt(np.sum(column * column)))
                out[self._warmup :, j] = column / norm if norm > 0.0 else 0.0
            return out
        if stats is None:
            stats = [fit(defined[:, j]) for j in range(raw.shape[1])]
        if len(stats) != raw.shape[1]:
            raise ValueError(f"{len(stats)} stats for {raw.shape[1]} columns")
        for j, st in enumerate(stats):
            out[self._warmup :, j] = apply_kind(kind, defined[:, j], st)
        return out

    def _window_table(self) -> np.ndarray:
        """Read-only table of every cursor's normalized window, flattened row-major,
        one row per cursor from start_cursor to the last bar.

        A window's rows are contiguous in ``_norm``, so the table is a view of it,
        except for WindowLog, whose values depend on the window's first cell.
        """
        window = self.config.window_size
        table = np.lib.stride_tricks.sliding_window_view(
            self._norm[self._start - window + 1 :], (window, self.features.width)
        )[:, 0].reshape(len(self.series) - self._start, -1)
        if self.config.normalization == NormalizationKind.WINDOW_LOG:
            table = np.log(table / table[:, :1]) * 10.0
        table.flags.writeable = False
        return table

    def observation_table(self) -> np.ndarray:
        """Every observation the env can produce, one flattened observation per
        row, indexed by ``observation_index``: per cursor, the Short-flag row then
        the Long-flag row, or the window alone when the flag is off."""
        if not self.config.include_position_flag:
            return self._windows.copy()
        table = np.empty((len(self._windows), 2, self.observation_size))
        table[:, :, :-1] = self._windows[:, None]
        table[:, :, -1] = (Position.SHORT, Position.LONG)
        return table.reshape(2 * len(self._windows), -1)

    @property
    def observation_index(self) -> int:
        """Row of ``observation_table()`` equal to the current observation."""
        row = self._cursor - self._start
        return 2 * row + int(self._position) if self.config.include_position_flag else row

    @property
    def done(self) -> bool:
        return self._done

    @property
    def position(self) -> Position:
        return self._position

    @property
    def equity(self) -> float:
        return self._equity

    @property
    def start_cursor(self) -> int:
        return self._start

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def observation_size(self) -> int:
        base = self.config.window_size * self.features.width
        return base + 1 if self.config.include_position_flag else base

    def _observe(self) -> ObservationWindow:
        values = self._blocks[self._cursor - self._start]
        return ObservationWindow(values, float(self._position) if self._flagged else None)

    def reset(self, seed: int | None = None) -> ObservationWindow:
        self._cursor = self._start
        self._done = False
        self._position = Position.SHORT
        self._equity = self.config.initial_cash
        self._last_trade_price = float(self._closes[self._start])
        self._step_index = 0
        self.ledger = EpisodeLedger(initial_cash=self.config.initial_cash)
        return self._observe()

    def step(self, action: Action | int) -> StepResult:
        if self._done:
            raise SteppedAfterDone("episode finished; call reset()")
        try:
            action = _ACTIONS[action]
        except (KeyError, TypeError):
            action = Action(action)  # raises ValueError on an invalid action
        position = _SIDE_AFTER[action]
        flipped = position is not self._position
        price_now = float(self._closes[self._cursor])
        flip_reward = 0.0
        if flipped:
            flip_reward = reward_on_flip(True, self._position, self._last_trade_price, price_now)
            self._position = position
            self._last_trade_price = price_now
            self._equity *= 1.0 - self.config.commission
        self._cursor += 1
        price_next = float(self._closes[self._cursor])
        if position is Position.LONG:
            self._equity *= price_next / price_now
        else:
            self._equity *= price_now / price_next
        self._done = self._cursor == self._last
        kind = self._reward_kind
        if kind == RewardKind.IMMEDIATE:
            reward = reward_immediate(position, price_now, price_next)
        elif kind == RewardKind.ON_FLIP:
            reward = flip_reward
        else:
            reward = reward_terminal(self._done, self.config.initial_cash, self._equity)
        self._step_index += 1
        self.ledger.append(LedgerRecord(self._step_index, action, position, price_next, reward, self._equity))
        info = {
            "equity": self._equity,
            "position": position,
            "last_trade_price": self._last_trade_price,
            "trade_executed": flipped,
        }
        return StepResult(self._observe(), reward, self._done, info)
