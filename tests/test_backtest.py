import functools
import json
import math

import numpy as np
import pytest

import oracles
from conftest import random_walk_series
from quantrl import (
    EnvConfig,
    EquityCurve,
    IndicatorSpec,
    MlpPolicy,
    Position,
    RewardKind,
    TradingEnv,
    annualize,
    calmar,
    compute_feature_matrix,
    compute_report,
    max_drawdown,
    render_report,
    run_policy,
    sharpe,
    sortino,
    win_rate,
)
import quantrl.backtest as backtest_module
from quantrl.agents import init_mlp, mlp_forward
from quantrl.agents.common import BLOCK_ROWS, row_values
from quantrl.backtest import PerformanceReport, Trade
from quantrl.errors import TooFewSamples


def constant_policy(obs_size: int, buy_bias: float) -> MlpPolicy:
    """Zero weights; bias selects the action (positive -> Buy)."""
    return MlpPolicy([np.zeros((obs_size, 2))], [np.array([0.0, buy_bias])])


def alternating_policy(obs_size: int) -> MlpPolicy:
    """Argmax follows the trailing position flag: flips every step."""
    w = np.zeros((obs_size, 2))
    w[-1, 0] = 1.0  # flag=1 (Long) -> Sell wins; flag=0 -> tie... need bias
    b = np.array([0.0, 0.5])
    # flag 0 (Short): values (0, 0.5) -> Buy; flag 1 (Long): (1, 0.5) -> Sell
    return MlpPolicy([w], [b])


def build_env(n=40, seed=5, **config_kwargs) -> TradingEnv:
    series = random_walk_series(n, seed=seed)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2)])
    return TradingEnv(series, features, EnvConfig(window_size=2, **config_kwargs))


def test_always_buy_single_trade_spanning_episode():
    env = build_env()
    ledger, curve, trades = run_policy(env, constant_policy(env.observation_size, 1.0))
    assert len(trades) == 1
    trade = trades[0]
    assert trade.direction is Position.LONG
    assert trade.entry_idx == env.start_cursor
    assert trade.exit_idx == len(env.series) - 1
    assert len(curve) == len(ledger) + 1


def test_tie_policy_always_sell_zero_flips():
    env = build_env()
    ledger, curve, trades = run_policy(env, constant_policy(env.observation_size, 0.0))
    # tie -> action 0 (Sell) while Short: no flips; single forced short trade
    assert len(trades) == 1
    assert trades[0].direction is Position.SHORT
    assert not any(r.action != 0 for r in ledger.records)


def test_alternating_policy_trade_count():
    # every step flips: the first reversal happens on the entry bar (no
    # record), each later flip closes a 1-bar trade, and the final open
    # position is force-closed, so the trades tile the episode span exactly
    env = build_env()
    policy = alternating_policy(env.observation_size)
    ledger, _, trades = run_policy(env, policy)
    steps = len(ledger)
    assert all(t.exit_idx - t.entry_idx == 1 for t in trades)
    assert len(trades) == steps
    assert trades[0].entry_idx == env.start_cursor
    assert trades[-1].exit_idx == len(env.series) - 1


def test_trade_product_matches_equity():
    env = build_env(n=60, seed=8, commission=0.0)
    policy = alternating_policy(env.observation_size)
    _, curve, trades = run_policy(env, policy)
    product = 1.0
    for trade in trades:
        product *= 1.0 + trade.ret
    assert product == pytest.approx(curve.values[-1] / curve.values[0], abs=1e-9)


def test_trade_product_matches_equity_with_commission():
    env = build_env(n=60, seed=8, commission=0.002)
    policy = alternating_policy(env.observation_size)
    _, curve, trades = run_policy(env, policy)
    product = 1.0
    for trade in trades:
        product *= 1.0 + trade.ret
    # the first same-bar reversal pays commission but yields no trade record
    assert product * (1.0 - 0.002) == pytest.approx(curve.values[-1] / curve.values[0], rel=1e-9)


def test_sharpe_example():
    value = sharpe([0.01, 0.02, 0.03], 0.0, 1)
    assert value == pytest.approx(0.02 / math.sqrt(2e-4 / 3.0), abs=1e-9)
    assert value == pytest.approx(2.449489742783178, abs=1e-9)


def test_sharpe_degenerate_and_errors():
    assert sharpe([0.01, 0.01, 0.01], 0.0, 252) == 0.0
    assert sharpe([0.02, 0.02], 0.02, 252) == 0.0
    with pytest.raises(TooFewSamples):
        sharpe([0.01], 0.0, 252)


def test_sharpe_scale_invariance():
    rng = np.random.default_rng(0)
    values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100)))
    for scale in (0.5, 7.0, 1e4):
        a = EquityCurve(values)
        b = EquityCurve(values * scale)
        assert sharpe(a.period_returns()) == pytest.approx(sharpe(b.period_returns()), abs=1e-12)


def test_max_drawdown_example():
    assert max_drawdown([1.0, 1.2, 0.9, 1.1]) == pytest.approx(0.25, abs=1e-15)


def test_monotone_curve_zero_drawdown_zero_calmar():
    values = np.linspace(100.0, 200.0, 50)
    assert max_drawdown(values) == 0.0
    assert calmar(0.5, 0.0) == 0.0


def test_annualize_doubling():
    assert annualize(1.0, 252, 252) == pytest.approx(100.0, abs=1e-9)


def test_report_doubling_curve_over_one_year():
    values = 10_000.0 * 2.0 ** (np.arange(253) / 252.0)
    report = compute_report(EquityCurve(values), [])
    assert report.return_pct == pytest.approx(100.0, abs=1e-9)
    assert report.return_ann_pct == pytest.approx(100.0, abs=1e-9)


def test_win_rate_rules():
    def trade(ret):
        return Trade(Position.LONG, 0, 100.0, 1, 100.0 * (1 + ret), ret, ret > 0.0)

    assert win_rate([]) == 0.0
    assert win_rate([trade(0.1)]) == 100.0
    assert win_rate([trade(0.1), trade(-0.1)]) == 50.0
    # boundary return = 0 is a loss
    assert win_rate([trade(0.0), trade(0.2)]) == 50.0


def test_compute_report_flat_curve():
    curve = EquityCurve(np.full(10, 100.0))
    report = compute_report(curve, [])
    assert report.return_pct == 0.0
    assert report.sharpe == 0.0
    assert report.sortino == 0.0
    assert report.calmar == 0.0
    assert report.win_rate_pct == 0.0
    assert report.n_trades == 0
    assert report.max_drawdown_pct == 0.0


def test_compute_report_against_oracle():
    rng = np.random.default_rng(3)
    values = 10_000.0 * np.exp(np.cumsum(rng.normal(0.0005, 0.01, 120)))
    values = np.concatenate([[10_000.0], values])
    report = compute_report(EquityCurve(values), [])
    expected = oracles.o_metrics(list(values))
    for key, value in expected.items():
        assert getattr(report, key) == pytest.approx(value, abs=1e-9), key


def test_return_pct_exact():
    values = np.array([10_000.0, 10_500.0, 11_000.0])
    report = compute_report(EquityCurve(values), [])
    assert report.return_pct == 100.0 * (values[-1] / values[0] - 1.0)


def test_render_report_files(tmp_path):
    env = build_env(n=50, seed=9, commission=0.001)
    policy = alternating_policy(env.observation_size)
    ledger, curve, trades = run_policy(env, policy)
    report = compute_report(curve, trades)
    paths = render_report(report, ledger, curve, trades, tmp_path / "out", env.start_cursor)
    data = json.loads(paths["report"].read_text())
    assert set(data) == {
        "return_pct", "return_ann_pct", "vol_ann_pct", "sharpe", "sortino",
        "calmar", "win_rate_pct", "n_trades", "max_drawdown_pct",
    }
    assert PerformanceReport.from_dict(data) == report
    equity_lines = paths["equity"].read_text().splitlines()
    assert equity_lines[0] == "step,equity"
    assert len(equity_lines) == len(curve) + 1
    assert [float(line.split(",")[1]) for line in equity_lines[1:]] == list(curve.values)
    trade_lines = paths["trades"].read_text().splitlines()
    assert trade_lines[0] == "direction,entry_idx,entry_px,exit_idx,exit_px,ret,win"
    assert len(trade_lines) == len(trades) + 1
    svg = paths["svg"].read_text()
    assert svg.count("<circle") == len(trades)


def test_render_report_empty_trades(tmp_path):
    env = build_env()
    _, curve, _ = run_policy(env, constant_policy(env.observation_size, 0.0))
    report = compute_report(curve, [])
    paths = render_report(report, env.ledger, curve, [], tmp_path / "out2")
    assert paths["trades"].read_text().splitlines() == ["direction,entry_idx,entry_px,exit_idx,exit_px,ret,win"]
    assert paths["svg"].read_text().count("<circle") == 0


def test_trade_validation():
    with pytest.raises(ValueError):
        Trade(Position.LONG, 5, 100.0, 5, 101.0, 0.01, True)
    with pytest.raises(ValueError):
        Trade(Position.LONG, 1, -1.0, 2, 101.0, 0.01, True)


def zero_policy(obs_size: int) -> MlpPolicy:
    """A 2-layer net of zeros: q0 == q1 on every row."""
    return MlpPolicy([np.zeros((obs_size, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)])


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("net", ["seeded0", "seeded2", "zero"])
def test_run_policy_actions_equal_per_row_argmax(flag, net):
    series = random_walk_series(600, seed=8)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2), IndicatorSpec("RSI", 5)])
    env = TradingEnv(series, features, EnvConfig(window_size=3, include_position_flag=flag))
    if net == "zero":
        policy = zero_policy(env.observation_size)
    else:
        rng = np.random.default_rng(int(net[-1]))
        policy = init_mlp([env.observation_size, 16, 16, 2], rng)
        policy.flat[:] = rng.normal(0.0, 1.0, policy.flat.size)
    ledger, _, _ = run_policy(env, policy)
    # several blocks of observation rows are evaluated
    assert len(ledger) > 2 * BLOCK_ROWS
    replay = TradingEnv(series, features, EnvConfig(window_size=3, include_position_flag=flag))
    replay.reset()
    for record in ledger.records:
        expected = int(np.argmax(mlp_forward(policy, oracles.observe(replay).flatten())))
        assert int(record.action) == expected
        replay.step(expected)
    actions = {int(r.action) for r in ledger.records}
    if net == "zero":
        assert actions == {0}  # ties go to Sell
    else:
        assert actions == {0, 1}


def _row_wise_bundle(ledger, curve, trades, start_cursor):
    """equity.csv, ledger.csv and equity.svg written one row and one point at a time."""
    import csv
    import io

    equity = "step,equity\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(curve.values))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["step", "action", "position", "price", "reward", "equity"])
    for r in ledger.records:
        writer.writerow([r.step, int(r.action), int(r.position), repr(r.price), repr(r.reward), repr(r.equity)])
    width, height, pad = 800, 400, 20
    values = curve.values
    lo, hi = float(values.min()), float(values.max())
    span = (hi - lo) or 1.0
    n = len(values)

    def x(i):
        return pad + (width - 2 * pad) * (i / max(n - 1, 1))

    def y(v):
        return height - pad - (height - 2 * pad) * ((v - lo) / span)

    points = " ".join(f"{x(i):.2f},{y(v):.2f}" for i, v in enumerate(values))
    markers = ""
    for trade in trades:
        i = min(max(trade.entry_idx - start_cursor, 0), n - 1)
        color = "#2a7" if trade.direction is Position.LONG else "#c33"
        markers += f'<circle cx="{x(i):.2f}" cy="{y(float(values[i])):.2f}" r="3" fill="{color}"/>'
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
           f'<rect width="{width}" height="{height}" fill="white"/>'
           f'<polyline fill="none" stroke="#246" stroke-width="1.5" points="{points}"/>' + markers + "</svg>")
    return {"equity": equity.encode(), "ledger": buffer.getvalue().encode(), "svg": svg.encode()}


@pytest.mark.parametrize("n, seed", [(50, 9), (300, 2), (120, 14)])
def test_render_report_bytes_equal_row_wise_formatting(tmp_path, n, seed):
    env = build_env(n=n, seed=seed, commission=0.001)
    rng = np.random.default_rng(seed)
    policy = MlpPolicy([rng.normal(0.0, 1.0, (env.observation_size, 2))], [np.zeros(2)])
    ledger, curve, trades = run_policy(env, policy)
    assert trades
    paths = render_report(compute_report(curve, trades), ledger, curve, trades, tmp_path, env.start_cursor)
    expected = _row_wise_bundle(ledger, curve, trades, env.start_cursor)
    for name, data in expected.items():
        assert paths[name].read_bytes() == data, name


@pytest.mark.parametrize("case", ["prices_not_closes", "curve_not_ledger", "entry_at_start", "no_trades"])
def test_render_report_cases_equal_row_wise_formatting(tmp_path, case):
    """The shared-text shortcuts fall back to formatting on their own: a trade
    price that is no ledger price, a curve whose tail is not the ledger's equity,
    the entry close at start_cursor (never a ledger price) and no trades."""
    env = build_env(n=120, seed=14, commission=0.001)
    rng = np.random.default_rng(14)
    policy = MlpPolicy([rng.normal(0.0, 1.0, (env.observation_size, 2))], [np.zeros(2)])
    ledger, curve, trades = run_policy(env, policy)
    if case == "prices_not_closes":
        trades = [Trade(t.direction, t.entry_idx, t.entry_px * 1.001, t.exit_idx, t.exit_px + 0.25, t.ret, t.win)
                  for t in trades]
        assert not {t.entry_px for t in trades} & set(ledger.prices)
    elif case == "curve_not_ledger":
        values = curve.values.copy()
        values[len(values) // 2] = np.nextafter(values[len(values) // 2], np.inf)
        curve = EquityCurve(values)
    elif case == "entry_at_start":
        ledger, curve, trades = run_policy(env, constant_policy(env.observation_size, 1.0))
        assert trades[0].entry_idx == env.start_cursor
        assert trades[0].entry_px not in ledger.prices
    else:
        trades = []
    paths = render_report(compute_report(curve, trades), ledger, curve, trades, tmp_path, env.start_cursor)
    for name, data in _row_wise_bundle(ledger, curve, trades, env.start_cursor).items():
        assert paths[name].read_bytes() == data, name
    assert paths["ledger"].read_bytes() == oracles.o_ledger_csv(ledger.records).encode()
    assert paths["trades"].read_bytes() == oracles.o_trades_csv(trades).encode()


@functools.cache
def _grid_data():
    series = random_walk_series(600, seed=8)
    return series, compute_feature_matrix(series, [IndicatorSpec("SMA", 2), IndicatorSpec("RSI", 5)])


def _grid_env(reward_kind, commission, flag) -> TradingEnv:
    series, features = _grid_data()
    config = EnvConfig(window_size=3, commission=commission, reward_kind=reward_kind, include_position_flag=flag)
    return TradingEnv(series, features, config)


def _grid_policy(net, obs_size) -> MlpPolicy:
    """A seeded 2-hidden-layer net with unit-normal parameters, or the all-zero tie net."""
    if net == "zero":
        return zero_policy(obs_size)
    rng = np.random.default_rng(int(net[-1]))
    policy = init_mlp([obs_size, 16, 16, 2], rng)
    policy.flat[:] = rng.normal(0.0, 1.0, policy.flat.size)
    return policy


@pytest.mark.parametrize("net", ["seeded0", "seeded2", "zero"])
@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("commission", [0.0, 0.002])
@pytest.mark.parametrize("reward_kind", list(RewardKind))
def test_run_policy_bit_equal_to_per_bar_backtest(tmp_path, reward_kind, commission, flag, net):
    env = _grid_env(reward_kind, commission, flag)
    policy = _grid_policy(net, env.observation_size)
    ledger, curve, trades = run_policy(env, policy)
    assert len(ledger) > 2 * BLOCK_ROWS
    reference = _grid_env(reward_kind, commission, flag)
    o_ledger, o_curve, o_trades = oracles.o_run_policy(reference, policy)
    assert list(map(repr, ledger.records)) == list(map(repr, o_ledger.records))
    assert curve.values.tobytes() == o_curve.values.tobytes()
    assert list(map(repr, trades)) == list(map(repr, o_trades))
    assert (env.cursor, env.done, env.position, repr(env.equity)) == (
        reference.cursor, reference.done, reference.position, repr(reference.equity))
    paths = render_report(compute_report(curve, trades), ledger, curve, trades, tmp_path / "new", env.start_cursor)
    o_paths = render_report(compute_report(o_curve, o_trades), o_ledger, o_curve, o_trades, tmp_path / "ref",
                            reference.start_cursor)
    for name, path in paths.items():
        assert path.read_bytes() == o_paths[name].read_bytes(), name
    assert paths["ledger"].read_bytes() == oracles.o_ledger_csv(o_ledger.records).encode()
    assert paths["trades"].read_bytes() == oracles.o_trades_csv(o_trades).encode()
    for name, data in _row_wise_bundle(o_ledger, o_curve, o_trades, reference.start_cursor).items():
        assert paths[name].read_bytes() == data, name


@pytest.mark.parametrize("flag", [True, False])
def test_run_policy_never_steps_and_forwards_once_per_block(monkeypatch, flag):
    env = _grid_env(RewardKind.IMMEDIATE, 0.001, flag)
    policy = _grid_policy("seeded0", env.observation_size)
    calls = {"step": 0, "forward": 0}
    step, forward = TradingEnv.step, backtest_module.mlp_forward

    def counting_step(self, action):
        calls["step"] += 1
        return step(self, action)

    def counting_forward(policy, x):
        calls["forward"] += 1
        return forward(policy, x)

    monkeypatch.setattr(TradingEnv, "step", counting_step)
    monkeypatch.setattr(backtest_module, "mlp_forward", counting_forward)
    ledger, _, _ = run_policy(env, policy)
    rows = len(ledger) * (2 if flag else 1)
    assert calls == {"step": 0, "forward": math.ceil(rows / BLOCK_ROWS)}


@pytest.mark.parametrize("flag", [True, False])
def test_greedy_path_of_a_finished_episode_is_empty(flag):
    env = _grid_env(RewardKind.IMMEDIATE, 0.001, flag)
    policy = _grid_policy("seeded0", env.observation_size)
    env.reset()
    env.replay(backtest_module.greedy_path(env, policy))
    assert env.done
    assert backtest_module.greedy_path(env, policy) == []
    lo, hi = env.rows_ahead(env.steps_left)
    assert lo == hi
    assert len(row_values(env, lambda rows: mlp_forward(policy, rows).max(axis=1), lo, hi)) == 0
