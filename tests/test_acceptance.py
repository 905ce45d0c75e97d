"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s`. The slow learnability
criteria (5, 6, 7) train real agents and together take a few minutes.
"""

import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import oracles
from conftest import make_series, random_walk_series
from quantrl import (
    EnvConfig,
    EquityCurve,
    Hyperparams,
    IndicatorSpec,
    NormalizationKind,
    Position,
    TradingEnv,
    compute_feature_matrix,
    compute_report,
    default_specs,
    dqn_train,
    fit,
    l2_normalize,
    min_max,
    pearson_corr_matrix,
    run_policy,
    save_csv,
    select_uncorrelated,
    sigmoid_norm,
    window_log,
    z_score,
)
from quantrl.agents import init_mlp, policy_gradient_loss, ppo_policy_loss, td_loss_and_grads, value_loss
from quantrl.agents.replay import Batch
from quantrl.backtest import Trade
from quantrl.runner.cli import cli

from test_agents_mlp import central_difference, flatten_grads, relative_error


def _passed(n: int, detail: str = "") -> None:
    print(f"[acceptance] criterion {n:02d} PASS {detail}")


WORKER_TIMEOUT_S = 900.0


def in_two_workers(fn, *iterables) -> list:
    """fn mapped over the iterables in two spawned worker processes, results in
    order. If every result is not back within WORKER_TIMEOUT_S, the workers are
    killed and TimeoutError fails the caller."""
    pool = ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(pool.map(fn, *iterables, timeout=WORKER_TIMEOUT_S))
    except BaseException:
        for worker in pool._processes.values():  # Python < 3.14 has no public way to stop a hung worker
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


# --- 1. indicator oracle suite ---------------------------------------------------


def test_criterion_01_indicator_oracles():
    start = time.time()
    walk = random_walk_series(500, seed=7)
    close = list(walk.closes())
    high, low = list(walk.highs()), list(walk.lows())
    opens, volume = list(walk.opens()), list(walk.volumes())
    from quantrl.indicators import (
        adx, atr, bop, cci, cmo, dema, ema, macd, mfi, mom, obv, roc, rsi,
        sar, sma, stochastic, stochrsi, tema, trima, trix, uo, wma,
    )

    macd_line, macd_sig = macd(walk.closes(), 12, 26, 9)
    stoch_k, stoch_d = stochastic(walk.highs(), walk.lows(), walk.closes(), 14, 3)
    pairs = [
        (sma(walk.closes(), 30), oracles.o_sma(close, 30)),
        (ema(walk.closes(), 30), oracles.o_ema(close, 30)),
        (wma(walk.closes(), 30), oracles.o_wma(close, 30)),
        (trima(walk.closes(), 30), oracles.o_trima(close, 30)),
        (dema(walk.closes(), 30), oracles.o_dema(close, 30)),
        (tema(walk.closes(), 30), oracles.o_tema(close, 30)),
        (trix(walk.closes(), 10), oracles.o_trix(close, 10)),
        (macd_line, oracles.o_macd(close, 12, 26, 9)[0]),
        (macd_sig, oracles.o_macd(close, 12, 26, 9)[1]),
        (mom(walk.closes(), 10), oracles.o_mom(close, 10)),
        (roc(walk.closes(), 10), oracles.o_roc(close, 10)),
        (rsi(walk.closes(), 14), oracles.o_rsi(close, 14)),
        (cmo(walk.closes(), 14), oracles.o_cmo(close, 14)),
        (stochrsi(walk.closes(), 14), oracles.o_stochrsi(close, 14)),
        (stoch_k, oracles.o_stoch_k(high, low, close, 14)),
        (stoch_d, oracles.o_stoch_d(high, low, close, 14, 3)),
        (obv(walk.closes(), walk.volumes()), oracles.o_obv(close, volume)),
        (mfi(walk.highs(), walk.lows(), walk.closes(), walk.volumes(), 14), oracles.o_mfi(high, low, close, volume, 14)),
        (atr(walk.highs(), walk.lows(), walk.closes(), 14), oracles.o_atr(high, low, close, 14)),
        (bop(walk.opens(), walk.highs(), walk.lows(), walk.closes()), oracles.o_bop(opens, high, low, close)),
        (cci(walk.highs(), walk.lows(), walk.closes(), 14), oracles.o_cci(high, low, close, 14)),
        (adx(walk.highs(), walk.lows(), walk.closes(), 14), oracles.o_adx(high, low, close, 14)),
        (uo(walk.highs(), walk.lows(), walk.closes(), (7, 14, 28)), oracles.o_uo(high, low, close, 7, 14, 28)),
        (sar(walk.highs(), walk.lows(), walk.closes()), oracles.o_sar(high, low, close)),
    ]
    worst = 0.0
    for column, expected in pairs:
        defined = [i for i, v in enumerate(expected) if v is not None]
        assert column.warmup == defined[0], column.name
        err = max(abs(column.values[i] - expected[i]) for i in defined)
        assert err <= 1e-9, f"{column.name}: max abs err {err}"
        worst = max(worst, err)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"oracle suite took {elapsed:.1f}s"
    _passed(1, f"({len(pairs)} indicators, worst err {worst:.2e}, {elapsed:.2f}s)")


# --- 2. normalization invariants --------------------------------------------------


def test_criterion_02_normalization_invariants():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        values = rng.normal(loc=rng.uniform(-100, 100), scale=rng.uniform(1e-3, 1e3),
                            size=int(rng.integers(2, 40)))
        stats = fit(values)
        mm = min_max(values, stats)
        assert (mm >= 0.0).all() and (mm <= 1.0).all()
        if stats.std > 0.0:
            z = z_score(values, stats)
            assert abs(z.mean()) <= 1e-9
            assert abs(z.std() - 1.0) <= 1e-9
        sig = sigmoid_norm(values * rng.uniform(1.0, 50.0), stats)
        assert (sig > 0.0).all() and (sig < 1.0).all()
        if np.any(values):
            assert abs(np.linalg.norm(l2_normalize(values)) - 1.0) <= 1e-12
        window = rng.uniform(0.05, 500.0, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        assert window_log(window)[0, 0] == 0.0
    _passed(2, "(5 invariants x 1000 generated inputs)")


# --- 3. accounting identity --------------------------------------------------------


def test_criterion_03_accounting_identity():
    series = random_walk_series(60, seed=33)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2)])
    env = TradingEnv(series, features, EnvConfig(window_size=3, commission=0.0))
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(1000):
        env.reset()
        total = 0.0
        done = False
        while not done:
            result = env.step(int(rng.integers(2)))
            total += result.reward
            done = result.done
        gap = abs(total - math.log(env.equity / env.config.initial_cash))
        worst = max(worst, gap)
        assert gap <= 1e-9
    _passed(3, f"(1000 random action sequences, worst gap {worst:.2e})")


# --- 4. gradient checks -------------------------------------------------------------


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(404)
    checked = 0
    worst = 0.0

    def check(policy, loss_fn, analytic):
        nonlocal checked, worst
        numeric = central_difference(policy, loss_fn)
        err = relative_error(flatten_grads(analytic), numeric)
        worst = max(worst, err)
        assert err <= 1e-4
        checked += 1

    for _ in range(5):
        sizes = [int(rng.integers(2, 6)), int(rng.integers(3, 8)), 2]
        online = init_mlp(sizes, rng)
        target = init_mlp(sizes, rng)
        batch = Batch(
            states=rng.normal(size=(6, sizes[0])),
            actions=rng.integers(2, size=6),
            rewards=rng.normal(size=6),
            next_states=rng.normal(size=(6, sizes[0])),
            dones=rng.integers(2, size=6).astype(bool),
        )
        _, grads = td_loss_and_grads(online, target, batch, 0.95)
        check(online, lambda: td_loss_and_grads(online, target, batch, 0.95)[0], grads)

        actor = init_mlp(sizes, rng)
        states = rng.normal(size=(6, sizes[0]))
        actions = rng.integers(2, size=6)
        advantages = rng.normal(size=6)
        _, grads = policy_gradient_loss(actor, states, actions, advantages, 0.01)
        check(actor, lambda: policy_gradient_loss(actor, states, actions, advantages, 0.01)[0], grads)

        critic = init_mlp([sizes[0], sizes[1], 1], rng)
        returns = rng.normal(size=6)
        _, grads = value_loss(critic, states, returns)
        check(critic, lambda: value_loss(critic, states, returns)[0], grads)

        clip_actor = init_mlp(sizes, rng)
        logp_old = np.log(rng.uniform(0.2, 0.8, size=6))
        _, grads = ppo_policy_loss(clip_actor, states, actions, logp_old, advantages, 0.2, 0.01)
        check(clip_actor, lambda: ppo_policy_loss(clip_actor, states, actions, logp_old, advantages, 0.2, 0.01)[0], grads)

    assert checked == 20
    _passed(4, f"(20 networks, worst rel err {worst:.2e})")


# --- 5. DQN learnability on a deterministic uptrend ---------------------------------


def uptrend_env() -> TradingEnv:
    closes = 100.0 * 1.001 ** np.arange(600)
    series = make_series(closes)
    # RSI is exactly 100 on a strict uptrend: a scale-free, stationary input.
    # (A price-level feature would leak episode progress into the state and
    # make the value target non-stationary for no behavioral gain.)
    features = compute_feature_matrix(series, [IndicatorSpec("RSI", 14)])
    return TradingEnv(series, features, EnvConfig(window_size=10, include_position_flag=False))


@pytest.mark.slow
def test_criterion_05_dqn_uptrend():
    start = time.time()
    hyperparams = Hyperparams(total_timesteps=50_000)  # Table-1 defaults otherwise
    policy, _ = dqn_train(uptrend_env, hyperparams, seed=0)
    env = uptrend_env()
    ledger, curve, _ = run_policy(env, policy)
    elapsed = time.time() - start
    long_frac = np.mean([r.position is Position.LONG for r in ledger.records])
    ret = curve.values[-1] / curve.values[0] - 1.0
    buy_hold = 1.001 ** len(ledger.records) - 1.0
    assert long_frac >= 0.95, f"long on {100 * long_frac:.1f}% of steps"
    assert abs(ret - buy_hold) <= 0.01 * buy_hold, f"return {ret:.4f} vs buy-and-hold {buy_hold:.4f}"
    assert elapsed < 300.0
    _passed(5, f"(long {100 * long_frac:.1f}%, return {100 * ret:.2f}% vs B&H {100 * buy_hold:.2f}%, {elapsed:.0f}s)")


# --- 6. oracle-optimal synthetic market ----------------------------------------------


ZIGZAG_COMMISSION = 5e-4


def zigzag_closes(n: int = 40, p0: float = 100.0) -> np.ndarray:
    closes = [p0]
    for t in range(1, n):
        closes.append(closes[-1] * (1.01 if (t - 1) % 5 < 3 else 0.99))
    return np.array(closes)


def zigzag_env() -> TradingEnv:
    series = make_series(zigzag_closes())
    features = compute_feature_matrix(series, [IndicatorSpec("ROC", 1)])
    return TradingEnv(series, features, EnvConfig(window_size=19, commission=ZIGZAG_COMMISSION))


def exhaustive_best_log_return(closes: np.ndarray, start: int, commission: float) -> float:
    """Enumerate every always-in-market position sequence (2^steps)."""
    steps = len(closes) - 1 - start
    log_factors = np.log(closes[start + 1 :] / closes[start:-1])
    flip_cost = math.log(1.0 - commission)
    best = -np.inf
    chunk = 1 << 16
    for lo in range(0, 1 << steps, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << steps), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(steps)) & 1
        signs = 2.0 * bits - 1.0
        flips = bits[:, 0] + np.abs(np.diff(bits, axis=1)).sum(axis=1)
        best = max(best, float((signs @ log_factors + flips * flip_cost).max()))
    return best


def zigzag_log_return(seed: int) -> float:
    """The log return of a greedy backtest of DQN trained on the zigzag with this seed."""
    hyperparams = Hyperparams(
        total_timesteps=100_000, optimizer="adam", learning_rate=1e-3,
        buffer_size=10_000, batch_size=64, target_update_interval=500,
        exploration_fraction=0.2,
    )
    policy, _ = dqn_train(zigzag_env, hyperparams, seed=seed)
    _, curve, _ = run_policy(zigzag_env(), policy)
    return math.log(curve.values[-1] / curve.values[0])


@pytest.mark.slow
def test_criterion_06_oracle_optimal_market():
    env = zigzag_env()
    steps = len(env.series) - 1 - env.start_cursor
    assert steps == 20
    oracle = exhaustive_best_log_return(zigzag_closes(), env.start_cursor, ZIGZAG_COMMISSION)
    assert oracle > 0.0
    achieved = in_two_workers(zigzag_log_return, range(5))
    mean_fraction = float(np.mean(achieved) / oracle)
    assert mean_fraction >= 0.70, f"mean fraction {mean_fraction:.3f}"
    _passed(6, f"(oracle logret {oracle:.4f}, DQN mean fraction {mean_fraction:.2f} over 5 seeds)")


# --- 7. learning-rate contrast --------------------------------------------------------


def lr_contrast_trades(lr: float, seed: int) -> int:
    """The trades of a greedy backtest of DQN trained with this learning rate and seed."""
    series = random_walk_series(505, seed=11)
    features = compute_feature_matrix(series, default_specs())

    def env_factory():
        return TradingEnv(series, features, EnvConfig(window_size=10))

    hyperparams = Hyperparams(
        learning_rate=lr, total_timesteps=10_000, buffer_size=10_000,
        batch_size=32, optimizer="adam",
    )
    policy, _ = dqn_train(env_factory, hyperparams, seed=seed)
    _, _, trades = run_policy(env_factory(), policy)
    return len(trades)


@pytest.mark.slow
def test_criterion_07_learning_rate_contrast():
    counts = in_two_workers(lr_contrast_trades, [1e-4] * 5 + [1e-2] * 5, [*range(5)] * 2)
    small_lr, large_lr = float(np.mean(counts[:5])), float(np.mean(counts[5:]))
    assert large_lr <= 0.25 * small_lr, f"lr 1e-2 mean {large_lr} vs lr 1e-4 mean {small_lr}"
    _passed(7, f"(mean trades: lr 1e-2 {large_lr:.1f} vs lr 1e-4 {small_lr:.1f})")


# --- 8. metrics oracle -------------------------------------------------------------------


def test_criterion_08_metrics_oracle():
    curves = [
        np.array([10_000.0, 10_100.0, 10_050.0, 10_200.0, 10_150.0, 10_400.0]),
        10_000.0 * np.exp(np.cumsum(np.concatenate([[0.0], np.random.default_rng(88).normal(0.0004, 0.012, 252)]))),
        np.array([10_000.0, 9_000.0, 9_500.0, 8_000.0, 9_800.0, 11_000.0, 10_500.0]),
    ]
    for values in curves:
        report = compute_report(EquityCurve(values), [])
        expected = oracles.o_metrics(list(values))
        for key, value in expected.items():
            assert abs(getattr(report, key) - value) <= 1e-9, key
    # the single-winning-trade shape reports a win rate of exactly 100.0
    trade = Trade(Position.LONG, 0, 100.0, 10, 192.3, 0.923, True)
    report = compute_report(EquityCurve(np.linspace(10_000.0, 19_230.0, 12)), [trade])
    assert report.win_rate_pct == 100.0
    assert report.n_trades == 1
    _passed(8, "(3 synthetic curves vs spreadsheet oracle, single-trade win rate 100.0)")


# --- 9. correlation properties --------------------------------------------------------


def test_criterion_09_correlation_properties():
    series = random_walk_series(505, seed=11)
    features = compute_feature_matrix(series, default_specs())
    matrix = pearson_corr_matrix(features, NormalizationKind.MIN_MAX)
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.allclose(np.diag(matrix.values), 1.0)
    assert matrix.values.min() >= -1.0 and matrix.values.max() <= 1.0
    raw = features.to_array()[features.warmup :]
    assert np.abs(matrix.values - np.corrcoef(raw, rowvar=False)).max() <= 1e-9
    # duplicated column always dropped by the greedy selection
    dup = compute_feature_matrix(series, [
        IndicatorSpec("RSI", 14, name="A"),
        IndicatorSpec("RSI", 14, name="B"),
        IndicatorSpec("SMA", 5, name="C"),
    ])
    dup_matrix = pearson_corr_matrix(dup, NormalizationKind.MIN_MAX)
    for threshold in (0.1, 0.5, 0.9, 1.0):
        kept = select_uncorrelated(dup_matrix, threshold)
        assert "B" not in kept and "A" in kept
    _passed(9, "(symmetry, unit diagonal, range, min-max invariance, duplicate drop)")


# --- 10. end-to-end determinism ---------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    series = random_walk_series(140, seed=55)
    data_path = tmp_path / "data.csv"
    save_csv(series, data_path)
    config = {
        "data": {"path": str(data_path)},
        "features": {"specs": [{"kind": "SMA", "period": 2}, {"kind": "RSI", "period": 5}]},
        "env": {"window_size": 3},
        "agent": {"total_timesteps": 400, "buffer_size": 512, "batch_size": 16,
                  "target_update_interval": 50},
        "seed": 9,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert cli(["backtest", "--config", str(config_path), "--out", str(out)]) == 0
        outputs.append(out)
    report_a = (outputs[0] / "report.json").read_bytes()
    report_b = (outputs[1] / "report.json").read_bytes()
    assert report_a == report_b
    hash_a = json.loads((outputs[0] / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((outputs[1] / "manifest.json").read_text())["config_hash"]
    assert hash_a == hash_b
    assert (outputs[0] / "policy.bin").read_bytes() == (outputs[1] / "policy.bin").read_bytes()
    _passed(10, "(byte-identical report.json, equal manifest hashes)")
