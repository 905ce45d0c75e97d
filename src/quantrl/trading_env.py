"""Discrete always-in-market trading MDP.

The agent is Long or Short at every step; there is no hold state. A Buy
while Short (or Sell while Long) flips the position at the current bar's
close and pays proportional commission. Equity compounds per bar:
p_i/p_{i-1} while Long, p_{i-1}/p_i while Short, times (1 - commission)
on each flip. Three reward variants: per-step signed log return, log
return realized on flips, and a single terminal equity log ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveEquity, NonPositivePrice, SchemaError, SeriesTooShort, SteppedAfterDone
from .indicators import FeatureMatrix
from .market_data import OhlcvSeries
from .normalize import NormalizationKind, NormalizationStats, normalize


class Action(IntEnum):
    SELL = 0
    BUY = 1


class Position(IntEnum):
    SHORT = 0
    LONG = 1


# The member for each action value, and the side an action leaves the agent on
# (always in the market, so Buy ends Long, Sell Short); the values line up, so
# the second is also the member for each position value.
_ACTIONS = {int(a): a for a in Action}
_SIDE_AFTER = (Position.SHORT, Position.LONG)
# The text of a 0/1 column's values, by lookup.
_BITS = ("0", "1")


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
            raise SchemaError("window_size", f"must be >= 1, got {self.window_size!r:.40}")
        if not 0.0 <= self.commission < 1.0:
            raise SchemaError("commission", f"must be in [0, 1), got {self.commission!r:.40}")
        if self.initial_cash <= 0.0:
            raise SchemaError("initial_cash", f"must be > 0, got {self.initial_cash!r:.40}")


@dataclass(frozen=True)
class ObservationWindow:
    """window_size x n_features block of normalized values, newest row last,
    plus the optional trailing position flag (0 = Short, 1 = Long). The env
    builds none: agents read observation rows (``TradingEnv.observation_index``)
    through ``observation_rows`` and ``observations``. The benchmark traces
    ``flatten`` by name, so the class stays until that trace goes."""

    values: np.ndarray
    position_flag: float | None = None

    def flatten(self) -> np.ndarray:
        """The observation as one vector: the window row-major, then the flag."""
        flat = np.asarray(self.values, dtype=float).ravel()
        return flat if self.position_flag is None else np.append(flat, self.position_flag)


class StepResult(NamedTuple):
    reward: float
    done: bool


class LedgerRecord(NamedTuple):
    step: int
    action: Action
    position: Position
    price: float
    reward: float
    equity: float


class EpisodeLedger:
    """One episode as columns, one entry per step: the action taken (0/1), the
    close it was marked at, the reward and the equity after it. Steps are
    numbered from 1. The env is always in the market, so the position an
    action leaves equals the action's value and is read from ``actions``.
    ``TradingEnv.step`` appends one row, ``TradingEnv.replay`` extends every
    column at once; ``records`` builds the rows as ``LedgerRecord``s on access."""

    def __init__(self):
        self.actions: list[int] = []
        self.prices: list[float] = []
        self.rewards: list[float] = []
        self.equity: list[float] = []

    def append(self, action: int, price: float, reward: float, equity: float) -> None:
        if equity <= 0.0:
            raise NonPositiveEquity(f"step {len(self.equity) + 1}: equity {equity}")
        self.actions.append(action)
        self.prices.append(price)
        self.rewards.append(reward)
        self.equity.append(equity)

    def extend(self, actions: list[int], prices: list[float], rewards: list[float], equity: list[float]) -> None:
        """Append several steps; all columns have the same length."""
        if equity and min(equity) <= 0.0:
            bad = next(k for k, value in enumerate(equity) if value <= 0.0)
            raise NonPositiveEquity(f"step {len(self.equity) + bad + 1}: equity {equity[bad]}")
        self.actions += actions
        self.prices += prices
        self.rewards += rewards
        self.equity += equity

    def __len__(self) -> int:
        return len(self.equity)

    @property
    def records(self) -> list[LedgerRecord]:
        return list(map(LedgerRecord, range(1, len(self) + 1), map(_ACTIONS.__getitem__, self.actions),
                        map(_SIDE_AFTER.__getitem__, self.actions), self.prices, self.rewards, self.equity))

    def csv_text(self, prices: list[str] | None = None, equity: list[str] | None = None) -> str:
        """The ledger as CSV text, with ``\\r\\n`` line ends and ``repr`` floats.
        ``prices`` and ``equity`` are those columns' ``repr`` texts, when the
        caller has already formatted them."""
        sides = list(map(_BITS.__getitem__, self.actions))
        rows = map(",".join, zip(map(str, range(1, len(self) + 1)), sides, sides, prices or map(repr, self.prices),
                                 map(repr, self.rewards), equity or map(repr, self.equity)))
        return "\r\n".join(["step,action,position,price,reward,equity", *rows, ""])


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
        self._windows = self._window_table(stats)
        self._cursor = self._start
        self._done = True
        self._position = Position.SHORT
        self._equity = self.config.initial_cash
        self._last_trade_price = self._closes[self._start]
        self.ledger = EpisodeLedger()

    def _window_table(self, stats: list[NormalizationStats] | None) -> np.ndarray:
        """Read-only table of every cursor's normalized window, flattened row-major,
        one row per cursor from start_cursor to the last bar. Stats are fitted on
        the defined rows unless frozen ``stats`` are given."""
        windows = normalize(
            self.config.normalization, self.features.to_array()[self._warmup :],
            self.features.names, self._warmup, stats, self.config.window_size,
        )
        table = windows.reshape(len(windows), -1)
        table.flags.writeable = False
        return table

    def observation_rows(self, lo: int, hi: int) -> np.ndarray:
        """Observation rows ``lo..hi-1`` (see ``observation_index``), clipped at
        the last row like a slice, built from the window table as a new array."""
        if not self._flagged:
            return self._windows[lo:hi].copy()
        first = lo // 2
        windows = self._windows[first : (hi + 1) // 2]
        rows = np.empty((len(windows), 2, self.observation_size))
        rows[:, :, :-1] = windows[:, None]
        rows[:, :, -1] = (Position.SHORT, Position.LONG)
        return rows.reshape(2 * len(windows), -1)[lo - 2 * first : hi - 2 * first]

    def observations(self, rows, out: np.ndarray | None = None) -> np.ndarray:
        """Observation rows ``rows`` (see ``observation_index``; any order,
        repeats allowed, one int for a single row), gathered from the window
        table into ``out`` when given, else into a new C-contiguous array.
        Returns the array written."""
        rows = np.asarray(rows, dtype=np.intp)
        if out is None:
            out = np.empty((*rows.shape, self.observation_size))
        if self._flagged:
            windows, flags = np.divmod(rows, 2)
            out[..., :-1] = self._windows[windows]
            out[..., -1] = flags
        else:
            out[...] = self._windows[rows]
        return out

    @property
    def observation_index(self) -> int:
        """The current observation's row in the env's observation row space,
        which ``observation_rows`` and ``observations`` read: per cursor from
        ``start_cursor`` to the last bar, the window then the Short flag (row
        2k) and the window then the Long flag (row 2k + 1), or the window alone
        (row k) when the flag is off. No path builds the whole space."""
        row = self._cursor - self._start
        return 2 * row + int(self._position) if self.config.include_position_flag else row

    @property
    def observation_count(self) -> int:
        """The number of rows in the observation row space (see ``observation_index``)."""
        return len(self._windows) * (2 if self._flagged else 1)

    def rows_ahead(self, n: int) -> tuple[int, int]:
        """The observation rows ``lo..hi-1`` the next ``n`` steps can act from:
        every row of the ``n`` cursors from the current one, cursor by cursor,
        the same number of rows for each (see ``observation_index``)."""
        per_cursor = 2 if self._flagged else 1
        first = self._cursor - self._start
        return per_cursor * first, per_cursor * (first + n)

    def walk(self, decisions) -> np.ndarray:
        """The offsets into a ``rows_ahead`` block of the rows a path visits,
        one per step, when ``decisions[i]`` (0 Sell, 1 Buy) is the action taken
        from the block's row i: from the env's position, each step acts from
        its cursor's row for the position the step before left. The path is
        ``decisions`` at the offsets."""
        if not self._flagged:
            return np.arange(len(decisions))
        decisions = np.asarray(decisions).tolist()
        offsets = []
        offset = int(self._position)
        for next_cursor in range(2, len(decisions) + 2, 2):
            offsets.append(offset)
            offset = next_cursor + decisions[offset]
        return np.array(offsets, dtype=np.intp)

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
    def steps_left(self) -> int:
        return self._last - self._cursor

    @property
    def observation_size(self) -> int:
        base = self.config.window_size * self.features.width
        return base + 1 if self.config.include_position_flag else base

    def reset(self) -> None:
        self._cursor = self._start
        self._done = False
        self._position = Position.SHORT
        self._equity = self.config.initial_cash
        self._last_trade_price = float(self._closes[self._start])
        self.ledger = EpisodeLedger()

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
        self.ledger.append(int(action), price_next, reward, self._equity)
        return StepResult(reward, self._done)

    def replay(self, path) -> None:
        """Take the actions in ``path`` (0 Sell, 1 Buy) as that many ``step``
        calls would, without observations: the ledger rows are computed in closed
        form, and the ledger and the env's state afterwards are bit-equal to
        stepping. Equity is one running product of the same factors ``step``
        multiplies by, in the same order (1.0 stands for "no commission"), and
        rewards go through the same ``math.log`` calls. Raises before changing
        anything when ``path`` holds another value or outruns the episode."""
        path = np.asarray(path)
        if path.ndim != 1 or not ((path == 0) | (path == 1)).all():
            raise ValueError("a replayed path is a 1-D sequence of actions 0 and 1")
        n = len(path)
        if n == 0:
            return
        if self._done or n > self._last - self._cursor:
            raise SteppedAfterDone(f"{n} actions from cursor {self._cursor}, the episode ends at {self._last}")
        sides = path.astype(np.intp).tolist()
        long = path == 1
        flipped = np.empty(n, dtype=bool)
        flipped[0] = sides[0] != self._position
        np.not_equal(long[1:], long[:-1], out=flipped[1:])
        closes = self._closes[self._cursor : self._cursor + n + 1]
        now, nxt = closes[:-1], closes[1:]
        factors = np.empty(2 * n + 1)
        factors[0] = self._equity
        factors[1::2] = np.where(flipped, 1.0 - self.config.commission, 1.0)
        factors[2::2] = np.where(long, nxt / now, now / nxt)
        equity = np.multiply.accumulate(factors)[2::2].tolist()
        flips = np.flatnonzero(flipped).tolist()
        flip_prices = now[flips].tolist()
        done = self._cursor + n == self._last
        kind = self._reward_kind
        if kind == RewardKind.IMMEDIATE:
            rewards = [r if side else -r for r, side in zip(map(math.log, (nxt / now).tolist()), sides)]
        else:
            rewards = [0.0] * n
            if kind == RewardKind.ON_FLIP:
                last_price = self._last_trade_price
                for t, price in zip(flips, flip_prices):
                    rewards[t] = reward_on_flip(True, _SIDE_AFTER[1 - sides[t]], last_price, price)
                    last_price = price
            elif done:
                rewards[-1] = reward_terminal(True, self.config.initial_cash, equity[-1])
        self.ledger.extend(sides, nxt.tolist(), rewards, equity)
        self._cursor += n
        self._done = done
        self._position = _SIDE_AFTER[sides[-1]]
        self._equity = equity[-1]
        if flips:
            self._last_trade_price = flip_prices[-1]
