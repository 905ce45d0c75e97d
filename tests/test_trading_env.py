import math

import numpy as np
import pytest

from conftest import make_series, random_walk_series
from oracles import observation_table, observe
from quantrl import (
    Action,
    EnvConfig,
    IndicatorSpec,
    NormalizationKind,
    Position,
    RewardKind,
    TradingEnv,
    compute_feature_matrix,
    default_specs,
    reward_immediate,
    reward_on_flip,
    reward_terminal,
)
from quantrl.errors import (
    NonPositiveEquity,
    NonPositivePrice,
    SeriesTooShort,
    SteppedAfterDone,
)


def build_env(closes=None, series=None, specs=None, **config_kwargs) -> TradingEnv:
    if series is None:
        series = make_series(closes)
    specs = specs or [IndicatorSpec("SMA", 1, name="close")]
    features = compute_feature_matrix(series, specs)
    return TradingEnv(series, features, EnvConfig(**config_kwargs))


# --- reward operations --------------------------------------------------------


def test_reward_immediate_long():
    assert reward_immediate(Position.LONG, 100.0, 101.0) == pytest.approx(math.log(1.01), abs=1e-15)


def test_reward_immediate_flat_price():
    assert reward_immediate(Position.LONG, 100.0, 100.0) == 0.0
    assert reward_immediate(Position.SHORT, 100.0, 100.0) == 0.0


def test_reward_immediate_short_antisymmetric():
    assert reward_immediate(Position.SHORT, 100.0, 99.0) == pytest.approx(math.log(100.0 / 99.0), abs=1e-15)
    assert reward_immediate(Position.SHORT, 100.0, 101.0) == -reward_immediate(Position.LONG, 100.0, 101.0)


def test_reward_immediate_nonpositive_price():
    with pytest.raises(NonPositivePrice):
        reward_immediate(Position.LONG, 0.0, 1.0)


def test_reward_on_flip():
    assert reward_on_flip(False, Position.LONG, 100.0, 110.0) == 0.0
    assert reward_on_flip(True, Position.LONG, 100.0, 110.0) == pytest.approx(math.log(1.1), abs=1e-15)
    assert reward_on_flip(True, Position.SHORT, 100.0, 110.0) == pytest.approx(-math.log(1.1), abs=1e-15)
    with pytest.raises(NonPositivePrice):
        reward_on_flip(True, Position.LONG, -1.0, 1.0)


def test_reward_terminal():
    assert reward_terminal(False, 10_000.0, 12_000.0) == 0.0
    assert reward_terminal(True, 10_000.0, 10_000.0) == 0.0
    assert reward_terminal(True, 10_000.0, 11_000.0) == pytest.approx(math.log(1.1), abs=1e-15)
    with pytest.raises(NonPositiveEquity):
        reward_terminal(True, 0.0, 1.0)


# --- reset / step mechanics ----------------------------------------------------


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(window_size=0)
    with pytest.raises(ValueError):
        EnvConfig(commission=1.0)
    with pytest.raises(ValueError):
        EnvConfig(initial_cash=0.0)


def test_reset_cursor_and_state():
    env = build_env(closes=np.linspace(100, 110, 30), window_size=5)
    env.reset()
    obs = observe(env)
    assert env.start_cursor == 0 + 5 - 1
    assert obs.values.shape == (5, 1)
    assert obs.position_flag == 0.0
    assert env.position is Position.SHORT
    assert env.equity == 10_000.0


def test_reset_window_one_single_row():
    env = build_env(closes=np.linspace(100, 101, 5), window_size=1)
    env.reset()
    obs = observe(env)
    assert obs.values.shape == (1, 1)
    assert env.start_cursor == 0


def test_reset_cursor_505_default_specs():
    series = random_walk_series(505, seed=11)
    features = compute_feature_matrix(series, default_specs())
    env = TradingEnv(series, features, EnvConfig(window_size=10))
    env.reset()
    # first fully defined window ends at warm-up + window - 1
    assert env.start_cursor == features.warmup + 10 - 1
    assert not np.isnan(observe(env).values).any()


def test_series_too_short():
    series = make_series(np.linspace(100, 101, 12))
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 3)])
    with pytest.raises(SeriesTooShort):
        TradingEnv(series, features, EnvConfig(window_size=10))


def test_step_long_reward_and_equity():
    env = build_env(closes=[100.0, 101.0], window_size=1)
    env.reset()
    # Buy flips Short->Long at close 100, then the bar moves 100 -> 101
    before = env.position
    result = env.step(Action.BUY)
    assert result.reward == pytest.approx(math.log(1.01), abs=1e-12)
    assert env.position is Position.LONG
    assert env.position is not before  # the Buy traded
    assert env.equity == pytest.approx(10_000.0 * 1.01, abs=1e-9)


def test_step_flat_price_zero_reward():
    env = build_env(closes=[100.0, 100.0, 100.0], window_size=1)
    env.reset()
    assert env.step(Action.SELL).reward == 0.0


def test_flip_commission_on_flat_prices():
    env = build_env(closes=[100.0, 100.0, 100.0], window_size=1, commission=0.001)
    env.reset()
    env.step(Action.BUY)
    assert env.equity == pytest.approx(10_000.0 * 0.999, abs=1e-9)


def test_step_after_done():
    env = build_env(closes=[100.0, 101.0, 102.0], window_size=1)
    env.reset()
    env.step(Action.BUY)
    result = env.step(Action.BUY)
    assert result.done
    with pytest.raises(SteppedAfterDone):
        env.step(Action.BUY)


def test_done_exactly_at_final_bar():
    env = build_env(closes=np.linspace(100, 105, 10), window_size=1)
    env.reset()
    steps = 0
    done = False
    while not done:
        done = env.step(Action.BUY).done
        steps += 1
    assert steps == 9
    assert env.cursor == 9


def test_position_always_binary():
    env = build_env(closes=np.linspace(100, 110, 40), window_size=2)
    env.reset()
    rng = np.random.default_rng(0)
    done = False
    while not done:
        result = env.step(int(rng.integers(2)))
        assert env.position in (Position.SHORT, Position.LONG)
        done = result.done


def test_accounting_identity_random_policies():
    series = random_walk_series(60, seed=9)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2)])
    env = TradingEnv(series, features, EnvConfig(window_size=3, commission=0.0))
    rng = np.random.default_rng(42)
    for _ in range(50):
        env.reset()
        total = 0.0
        done = False
        while not done:
            result = env.step(int(rng.integers(2)))
            total += result.reward
            done = result.done
        assert total == pytest.approx(math.log(env.equity / 10_000.0), abs=1e-9)


def test_flip_rewards_tie_to_equity():
    series = random_walk_series(50, seed=13)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 1)])
    config = EnvConfig(window_size=1, commission=0.0, reward_kind=RewardKind.ON_FLIP)
    env = TradingEnv(series, features, config)
    rng = np.random.default_rng(5)
    closes = series.closes()
    for _ in range(25):
        env.reset()
        realized = 0.0
        last_flip_price = closes[env.start_cursor]
        last_flip_equity = 10_000.0
        done = False
        while not done:
            before_equity, before_position = env.equity, env.position
            result = env.step(int(rng.integers(2)))
            realized += result.reward
            if env.position is not before_position:  # a flip trades at the close the step started on
                last_flip_price = closes[env.cursor - 1]
                last_flip_equity = before_equity
            done = result.done
        # realized flips alone equal ln(equity at last flip / initial)
        assert realized == pytest.approx(math.log(last_flip_equity / 10_000.0), abs=1e-9)
        # plus the unrealized closing term equals the full equity ratio
        sign = 1.0 if env.position is Position.LONG else -1.0
        unrealized = sign * math.log(closes[-1] / last_flip_price)
        assert realized + unrealized == pytest.approx(math.log(env.equity / 10_000.0), abs=1e-9)


def test_terminal_reward_only_at_end():
    series = random_walk_series(30, seed=2)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 1)])
    env = TradingEnv(series, features, EnvConfig(window_size=1, reward_kind=RewardKind.TERMINAL))
    env.reset()
    rewards = []
    done = False
    rng = np.random.default_rng(3)
    while not done:
        result = env.step(int(rng.integers(2)))
        rewards.append(result.reward)
        done = result.done
    assert all(r == 0.0 for r in rewards[:-1])
    assert rewards[-1] == pytest.approx(math.log(env.equity / 10_000.0), abs=1e-12)


def test_monotone_series_long_short_mirror():
    closes = 100.0 * 1.01 ** np.arange(30)
    env = build_env(closes=closes, window_size=1)
    env.reset()
    total_long = 0.0
    done = False
    while not done:
        result = env.step(Action.BUY)
        total_long += result.reward
        done = result.done
    env.reset()
    total_short = 0.0
    done = False
    while not done:
        result = env.step(Action.SELL)
        total_short += result.reward
        done = result.done
    assert total_long > 0.0
    assert total_short == pytest.approx(-total_long, abs=1e-9)


def test_determinism_bit_identical_ledgers():
    series = random_walk_series(80, seed=21)
    features = compute_feature_matrix(series, [IndicatorSpec("RSI", 5), IndicatorSpec("SMA", 3)])
    actions = np.random.default_rng(1).integers(2, size=200)

    def run():
        env = TradingEnv(series, features, EnvConfig(window_size=4))
        env.reset()
        done = False
        for action in actions:
            result = env.step(int(action))
            if result.done:
                break
        return env.ledger

    first, second = run(), run()
    assert len(first) == len(second)
    for a, b in zip(first.records, second.records):
        assert a == b


def test_observation_normalization_min_max_bounds():
    series = random_walk_series(60, seed=8)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2), IndicatorSpec("RSI", 5)])
    env = TradingEnv(series, features, EnvConfig(window_size=3))
    env.reset()
    obs = observe(env)
    done = False
    while not done:
        assert (obs.values >= 0.0).all() and (obs.values <= 1.0).all()
        result = env.step(Action.BUY)
        obs = observe(env)
        done = result.done


def test_observation_window_log():
    closes = 100.0 * 1.01 ** np.arange(20)
    env = build_env(closes=closes, window_size=3, normalization=NormalizationKind.WINDOW_LOG)
    env.reset()
    obs = observe(env)
    assert obs.values[0, 0] == 0.0
    expected = 10.0 * math.log(closes[1] / closes[0])
    assert obs.values[1, 0] == pytest.approx(expected, abs=1e-12)


def test_window_log_rejects_nonpositive_features():
    from quantrl.errors import NonPositiveValue

    # MOM(1) goes negative on the declining leg
    closes = np.concatenate([np.linspace(100, 90, 15), np.linspace(90, 120, 15)])
    series = make_series(closes)
    features = compute_feature_matrix(series, [IndicatorSpec("MOM", 1)])
    with pytest.raises(NonPositiveValue):
        TradingEnv(series, features, EnvConfig(window_size=2, normalization=NormalizationKind.WINDOW_LOG))


def test_frozen_stats_reused_for_evaluation():
    # stats fitted on a training segment, applied frozen to a later segment
    from quantrl import OhlcvSeries, fit, min_max

    series = random_walk_series(120, seed=30)
    train = OhlcvSeries(series.symbol, series.bars[:80])
    evaluation = OhlcvSeries(series.symbol, series.bars[80:])
    spec = [IndicatorSpec("SMA", 2)]
    train_features = compute_feature_matrix(train, spec)
    eval_features = compute_feature_matrix(evaluation, spec)
    stats = [fit(col.defined) for col in train_features.columns]
    env = TradingEnv(evaluation, eval_features, EnvConfig(window_size=2), stats=stats)
    env.reset()
    obs = observe(env)
    raw = eval_features.to_array()
    expected = min_max(raw[env.cursor, 0], stats[0])
    assert obs.values[-1, 0] == pytest.approx(expected, abs=1e-15)
    # frozen stats come from a different segment, so values may leave [0, 1]
    fresh = TradingEnv(evaluation, eval_features, EnvConfig(window_size=2))
    fresh.reset()
    assert not np.array_equal(observe(fresh).values, obs.values)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("kind, frozen", [
    (NormalizationKind.MIN_MAX, False), (NormalizationKind.Z_SCORE, False),
    (NormalizationKind.SIGMOID, False), (NormalizationKind.L2, False),
    (NormalizationKind.WINDOW_LOG, False), (NormalizationKind.MIN_MAX, True),
    (NormalizationKind.Z_SCORE, True), (NormalizationKind.SIGMOID, True),
])
def test_observation_table_rows_equal_observations(kind, frozen, flag):
    import oracles
    from quantrl import OhlcvSeries, fit

    series = random_walk_series(70, seed=12)
    # WindowLog needs strictly positive features
    specs = [IndicatorSpec("SMA", 2), IndicatorSpec("WMA", 3)]
    if kind != NormalizationKind.WINDOW_LOG:
        specs.append(IndicatorSpec("RSI", 5))
    features = compute_feature_matrix(series, specs)
    stats = None
    if frozen:
        fitted = compute_feature_matrix(OhlcvSeries(series.symbol, series.bars[:40]), specs)
        stats = [fit(col.defined) for col in fitted.columns]
    window = 4
    env = TradingEnv(series, features, EnvConfig(window_size=window, normalization=kind,
                                                 include_position_flag=flag), stats=stats)
    table = observation_table(env)
    reference_stats = None if stats is None else [(s.mean, s.std, s.min, s.max) for s in stats]
    normalized = oracles.o_normalized_features(features.to_array(), features.warmup, kind.value, reference_stats)
    windows = oracles.o_observation_table(normalized, env.start_cursor, window, kind.value)

    def reference(cursor, position):
        row = windows[cursor - env.start_cursor]
        return np.append(row, float(position)) if flag else row

    cursors = range(env.start_cursor, len(series))
    assert table.shape == ((2 if flag else 1) * len(cursors), env.observation_size)
    for row, cursor in enumerate(cursors):
        for position in (Position.SHORT, Position.LONG) if flag else (Position.SHORT,):
            index = 2 * row + int(position) if flag else row
            assert np.array_equal(table[index], reference(cursor, position))

    actions = np.random.default_rng(4).integers(2, size=len(series))
    env.reset()
    obs = observe(env)
    with pytest.raises(ValueError):
        obs.values[0, 0] = 0.0
    for action in actions:
        expected = reference(env.cursor, env.position)
        assert np.array_equal(obs.flatten(), expected)
        assert np.array_equal(table[env.observation_index], expected)
        result = env.step(int(action))
        obs = observe(env)
        if result.done:
            break
    assert np.array_equal(obs.flatten(), reference(env.cursor, env.position))


@pytest.mark.parametrize("flag", [True, False])
def test_observation_count_is_the_table_length(flag):
    series = random_walk_series(40, seed=13)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2), IndicatorSpec("WMA", 3)])
    env = TradingEnv(series, features, EnvConfig(window_size=3, include_position_flag=flag))
    assert env.observation_count == len(observation_table(env))


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("kind", list(NormalizationKind))
def test_observation_rows_equal_table_slices(kind, flag):
    series = random_walk_series(40, seed=13)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2), IndicatorSpec("WMA", 3)])
    env = TradingEnv(series, features, EnvConfig(window_size=3, normalization=kind, include_position_flag=flag))
    table = observation_table(env)
    n = len(table)
    assert n == (2 if flag else 1) * (len(series) - env.start_cursor)
    for lo in range(n):
        for hi in range(lo + 1, n + 3):  # past the end, rows are clipped like a slice
            rows = env.observation_rows(lo, hi)
            assert rows.shape == table[lo:hi].shape
            assert rows.tobytes() == table[lo:hi].tobytes()
    # a gather takes rows in any order, with repeats, into a new array or ``out``
    rng = np.random.default_rng(14)
    for size in (0, 1, 7, 3 * n):
        rows = rng.integers(n, size=size)
        gathered = env.observations(rows)
        assert gathered.flags.c_contiguous and gathered.shape == table[rows].shape
        assert gathered.tobytes() == table[rows].tobytes()
        out = np.full(table[rows].shape, np.nan)
        assert env.observations(rows, out=out) is out
        assert out.tobytes() == table[rows].tobytes()
    for row in range(n):
        single = env.observations(row)
        assert single.shape == table[row].shape and single.tobytes() == table[row].tobytes()


def test_position_flag_toggle():
    env = build_env(closes=np.linspace(100, 110, 20), window_size=2, include_position_flag=True)
    env.reset()
    assert observe(env).position_flag == 0.0
    env.step(Action.BUY)
    assert observe(env).position_flag == 1.0
    env2 = build_env(closes=np.linspace(100, 110, 20), window_size=2, include_position_flag=False)
    env2.reset()
    assert observe(env2).position_flag is None
    assert env2.observation_size == 2


def test_ledger_csv_export():
    env = build_env(closes=np.linspace(100, 110, 15), window_size=1)
    env.reset()
    done = False
    while not done:
        done = env.step(Action.BUY).done
    lines = env.ledger.csv_text().splitlines()
    assert lines[0] == "step,action,position,price,reward,equity"
    assert len(lines) == len(env.ledger) + 1


# --- replay ---------------------------------------------------------------------


def _state(env):
    """Everything a later step depends on, floats as bit patterns."""
    return (env.cursor, env.done, env.position, np.float64(env.equity).tobytes(), len(env.ledger))


def _ledger_columns(ledger):
    return (ledger.actions, list(map(repr, ledger.prices)),
            list(map(repr, ledger.rewards)), list(map(repr, ledger.equity)), list(map(repr, ledger.records)))


@pytest.mark.parametrize("flip_prob", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("commission", [0.0, 0.002])
@pytest.mark.parametrize("reward_kind", list(RewardKind))
def test_replay_bit_equal_to_step(reward_kind, commission, flip_prob):
    series = random_walk_series(120, seed=41)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2), IndicatorSpec("RSI", 5)])
    config = EnvConfig(window_size=3, commission=commission, reward_kind=reward_kind)
    rng = np.random.default_rng(int(flip_prob * 100))
    for trial in range(4):
        stepped, replayed = TradingEnv(series, features, config), TradingEnv(series, features, config)
        stepped.reset(), replayed.reset()
        n = len(series) - 1 - stepped.start_cursor
        flips = rng.random(n) < flip_prob
        path = (np.cumsum(flips) % 2).tolist()
        # trial 0 replays the whole episode at once; the others alternate between
        # replayed and stepped stretches, so each side continues from the other's state
        cuts = [0, n] if trial == 0 else [0, *sorted(rng.choice(np.arange(1, n), 4, replace=False).tolist()), n]
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            for action in path[lo:hi]:
                stepped.step(action)
            if k % 2 == 0:
                replayed.replay(path[lo:hi])
            else:
                for action in path[lo:hi]:
                    replayed.step(action)
            assert _state(replayed) == _state(stepped)
        assert replayed.done
        assert _ledger_columns(replayed.ledger) == _ledger_columns(stepped.ledger)


def test_replay_rejects_bad_paths_without_changing_state():
    env = build_env(closes=np.linspace(100.0, 120.0, 20), window_size=2, reward_kind=RewardKind.ON_FLIP)
    env.reset()
    env.step(Action.BUY)
    left = len(env.series) - 1 - env.cursor
    before = _state(env)
    with pytest.raises(ValueError):
        env.replay([0, 2])
    with pytest.raises(ValueError):
        env.replay([[0, 1]])
    with pytest.raises(SteppedAfterDone):
        env.replay([0] * (left + 1))
    assert _state(env) == before
    env.replay([])
    assert _state(env) == before
    env.replay([0] * left)
    assert env.done and env.position is Position.SHORT
    with pytest.raises(SteppedAfterDone):
        env.replay([1])
