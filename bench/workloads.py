"""The benchmark's three workloads: inputs made from the seed, stage plans, checks.

Each workload writes its OHLCV CSV files and JSON configs, then describes one
round as a list of ``quantrl`` CLI invocations (ingest -> features -> corr ->
train -> backtest -> compare) and a check of the round's artifacts. Sizes are
fixed here so that every seed does the same amount of work. Each policy is
backtested right after it is trained, so a round's backtest timings are
spread over the round instead of falling within one second of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Plan:
    stages: list[list[str]]
    check: Callable[[], dict]
    # label -> file whose sha256 each run prints (policy, log, report of each trained policy)
    digests: dict[str, Path]
    # files whose bytes must be equal in every round of a run
    repeated: list[Path]


def business_days(first: date, n: int) -> list[str]:
    days, day = [], first
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += timedelta(days=1)
    return days


def random_walk(rng: np.random.Generator, n: int, drift: float, vol: float, p0: float = 100.0) -> dict:
    """Geometric random walk with a consistent OHLC envelope and integer volumes."""
    closes = p0 * np.exp(np.cumsum(rng.normal(drift, vol, n)))
    opens = np.concatenate([[p0], closes[:-1]]) * (1.0 + rng.normal(0.0, vol / 5.0, n))
    highs = np.maximum(opens, closes) * (1.0 + np.abs(rng.normal(0.0, vol / 2.0, n)))
    lows = np.minimum(opens, closes) * (1.0 - np.abs(rng.normal(0.0, vol / 2.0, n)))
    volumes = rng.integers(10_000, 1_000_000, n).astype(float)
    return {"open": opens, "high": highs, "low": lows, "close": closes, "volume": volumes}


def zigzag(n: int, p0: float = 100.0) -> dict:
    """The acceptance criterion-6 market: three bars up 1%, two bars down 1%, repeating."""
    closes = [p0]
    for t in range(1, n):
        closes.append(closes[-1] * (1.01 if (t - 1) % 5 < 3 else 0.99))
    closes = np.array(closes)
    opens = np.concatenate([[closes[0]], closes[:-1]])
    return {"open": opens, "high": np.maximum(opens, closes) * 1.001,
            "low": np.minimum(opens, closes) * 0.999, "close": closes, "volume": np.full(n, 1000.0)}


def write_csv(path: Path, dates: list[str], bars: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["Date,Open,High,Low,Close,Volume"]
    for i, day in enumerate(dates):
        lines.append(",".join([day] + [repr(float(bars[k][i])) for k in ("open", "high", "low", "close", "volume")]))
    path.write_text("\n".join(lines) + "\n")


def write_config(path: Path, data: Path, start: str | None, end: str | None, **sections) -> Path:
    config = {"data": {"path": str(data), "start": start, "end": end}, **sections}
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def stage(command: str, config: Path, out: Path, seed: int | None = None, *extra: str) -> list[str]:
    argv = [command, "--config", str(config), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv + list(extra)


def _trained(label: str, train_out: Path, test_out: Path) -> dict[str, Path]:
    return {f"{label}/policy.bin": train_out / "policy.bin",
            f"{label}/training_log.csv": train_out / "training_log.csv",
            f"{label}/report.json": test_out / "report.json"}


def _repeated(*dirs: Path) -> list[Path]:
    names = ("data.csv", "features.csv", "corr.csv", "selected.json", "policy.bin", "training_log.csv",
             "report.json", "equity.csv", "ledger.csv", "trades.csv", "compare.csv")
    return [d / n for d in dirs for n in names]


# --- dqn_default ----------------------------------------------------------------------

DQN_TRAIN_BARS = 505      # about two years of trading days
DQN_TEST_BARS = 360       # the next year plus the default set's 96-bar warm-up and window
DQN_SEEDS = 3
DQN_STEPS = 3_000         # scaled down from the default 1M
DEFAULT_LAYERS = [201, 64, 64, 2]


def dqn_default(work: Path, seed: int, steps: int = DQN_STEPS, n_seeds: int = DQN_SEEDS) -> Plan:
    """Default DQN block on one seeded walk: train on two years, backtest the next."""
    rng = np.random.default_rng([1, seed])
    n = DQN_TRAIN_BARS + DQN_TEST_BARS
    dates = business_days(date(2015, 1, 2), n)
    data = work / "inputs" / "WALK.csv"
    write_csv(data, dates, random_walk(rng, n, drift=2e-4, vol=0.012))
    split = dates[DQN_TRAIN_BARS]
    agent = {"agent": {"total_timesteps": steps}}
    train_cfg = write_config(work / "inputs" / "train.json", data, dates[0], split, **agent)
    test_cfg = write_config(work / "inputs" / "test.json", data, split, None, **agent)
    seeds = [n_seeds * seed + k for k in range(n_seeds)]
    trains = [work / f"train_{s}" for s in seeds]
    tests = [work / f"test_{s}" for s in seeds]
    stages = [stage("ingest", train_cfg, work / "ingest"), stage("features", train_cfg, work / "features")]
    for s, tr, te in zip(seeds, trains, tests):
        stages += [stage("train", train_cfg, tr, s), stage("backtest", test_cfg, te, s, "--policy", str(tr / "policy.bin"))]
    stages.append(["compare", *[str(t / "report.json") for t in tests], "--out", str(work / "compare")])

    def check() -> dict:
        train_bars = checks.read_ohlcv(data, end=split)
        closes = checks.read_ohlcv(data, start=split)["close"]
        checks.check_ingest(work / "ingest" / "data.csv", train_bars)
        reports = []
        for tr, te in zip(trains, tests):
            checks.check_policy(tr / "policy.bin", DEFAULT_LAYERS)
            checks.check_training_log(tr / "training_log.csv", steps, DQN_TRAIN_BARS)
            checks.check_backtest(te, closes, 0.0, 10_000.0)
            reports.append(json.loads((te / "report.json").read_text()))
        checks.check_compare(work / "compare" / "compare.csv", reports)
        return {}

    digests = {}
    for s, tr, te in zip(seeds, trains, tests):
        digests.update(_trained(f"dqn_seed{s}", tr, te))
    return Plan(stages, check, digests, _repeated(work / "ingest", work / "features", *trains, *tests, work / "compare"))


# --- universe_onpolicy -------------------------------------------------------------------

UNIVERSE_SYMBOLS = 3
UNIVERSE_BARS = 1_260     # five years of trading days per symbol
UNIVERSE_TRAIN_BARS = 504
UNIVERSE_STEPS = 6_000    # per A2C and per PPO training call
CORR_THRESHOLD = 0.9


def universe_onpolicy(work: Path, seed: int, steps: int = UNIVERSE_STEPS,
                      n_symbols: int = UNIVERSE_SYMBOLS) -> Plan:
    """A2C and PPO on each symbol of a small seeded universe, with corr selection."""
    rng = np.random.default_rng([2, seed])
    dates = business_days(date(2012, 1, 2), UNIVERSE_BARS)
    split = dates[UNIVERSE_TRAIN_BARS]
    inputs = work / "inputs"
    stages, digests, symbols, params = [], {}, [], {}
    for k in range(n_symbols):
        name = f"SYM{k}"
        drift, vol, p0 = (float(x) for x in (rng.uniform(-3e-4, 6e-4), rng.uniform(0.008, 0.025), rng.uniform(20, 200)))
        params[name] = {"drift": drift, "vol": vol, "p0": p0}
        data = inputs / f"{name}.csv"
        write_csv(data, dates, random_walk(rng, UNIVERSE_BARS, drift, vol, p0))
        d = {key: work / name / key for key in ("ingest", "features", "corr")}
        cfg = {"full": write_config(inputs / f"{name}_full.json", data, None, None)}
        for a in ("A2C", "PPO"):
            agent = {"agent": {"algorithm": a, "total_timesteps": steps}}
            d[f"train_{a}"], d[f"test_{a}"] = work / name / f"train_{a}", work / name / f"test_{a}"
            cfg[f"train_{a}"] = write_config(inputs / f"{name}_{a}_train.json", data, dates[0], split, **agent)
            cfg[f"test_{a}"] = write_config(inputs / f"{name}_{a}_test.json", data, split, None, **agent)
        stages += [stage("ingest", cfg["full"], d["ingest"]), stage("features", cfg["train_A2C"], d["features"]),
                   stage("corr", cfg["train_A2C"], d["corr"], None, "--threshold", str(CORR_THRESHOLD))]
        for a in ("A2C", "PPO"):
            tr, te = d[f"train_{a}"], d[f"test_{a}"]
            stages += [stage("train", cfg[f"train_{a}"], tr, seed),
                       stage("backtest", cfg[f"test_{a}"], te, seed, "--policy", str(tr / "policy.bin"))]
            digests.update(_trained(f"{name}_{a}", tr, te))
        symbols.append((data, d))
    tests = [d[f"test_{a}"] for _, d in symbols for a in ("A2C", "PPO")]
    stages.append(["compare", *[str(t / "report.json") for t in tests], "--out", str(work / "compare")])

    def check() -> dict:
        reports = []
        for i, (data, d) in enumerate(symbols):
            checks.check_ingest(d["ingest"] / "data.csv", checks.read_ohlcv(data))
            if i == 0:
                checks.check_features(d["features"] / "features.csv", checks.read_ohlcv(data, end=split))
            checks.check_corr(d["corr"] / "corr.csv", d["features"] / "features.csv", d["corr"] / "selected.json")
            closes = checks.read_ohlcv(data, start=split)["close"]
            for a in ("A2C", "PPO"):
                checks.check_policy(d[f"train_{a}"] / "policy.bin", DEFAULT_LAYERS)
                checks.check_training_log(d[f"train_{a}"] / "training_log.csv", steps, UNIVERSE_TRAIN_BARS)
                checks.check_backtest(d[f"test_{a}"], closes, 0.0, 10_000.0)
                reports.append(json.loads((d[f"test_{a}"] / "report.json").read_text()))
        checks.check_compare(work / "compare" / "compare.csv", reports)
        return {"universe_symbols": params}

    return Plan(stages, check, digests, _repeated(*[p for _, d in symbols for p in d.values()], work / "compare"))


# --- zigzag_oracle -------------------------------------------------------------------------

ZIGZAG_BARS = 40
ZIGZAG_COMMISSION = 5e-4
ZIGZAG_OPTIMUM = 0.195806  # exhaustive best log return of acceptance criterion 6, to 6 digits
ZIGZAG_LONG_BARS = 2_000
ZIGZAG_SEEDS = range(5)    # the criterion-6 seeds; see README for why they are fixed
ZIGZAG_STEPS = 10_500      # shortened from 100k; above the 10k buffer so it wraps


def zigzag_oracle(work: Path, seed: int, steps: int = ZIGZAG_STEPS) -> Plan:
    """Criterion-6 DQN on the 40-bar zigzag; backtest on a long zigzag whose start price comes from the seed."""
    rng = np.random.default_rng([3, seed])
    short_data, long_data = work / "inputs" / "ZIGZAG.csv", work / "inputs" / "ZIGZAG_LONG.csv"
    write_csv(short_data, business_days(date(2020, 1, 2), ZIGZAG_BARS), zigzag(ZIGZAG_BARS))
    p0 = float(rng.uniform(20.0, 200.0))
    write_csv(long_data, business_days(date(2010, 1, 4), ZIGZAG_LONG_BARS), zigzag(ZIGZAG_LONG_BARS, p0))
    sections = {
        "features": {"specs": [{"kind": "ROC", "period": 1}]},
        "env": {"window_size": 19, "commission": ZIGZAG_COMMISSION},
        "agent": {"total_timesteps": steps, "optimizer": "adam", "learning_rate": 1e-3,
                  "buffer_size": 10_000, "batch_size": 64, "target_update_interval": 500,
                  "exploration_fraction": 0.2},
    }
    train_cfg = write_config(work / "inputs" / "train.json", short_data, None, None, **sections)
    test_cfg = write_config(work / "inputs" / "test.json", long_data, None, None, **sections)
    trains = [work / f"train_{s}" for s in ZIGZAG_SEEDS]
    tests = [work / f"test_{s}" for s in ZIGZAG_SEEDS]
    stages = [stage("ingest", train_cfg, work / "ingest"), stage("features", train_cfg, work / "features")]
    for s, tr, te in zip(ZIGZAG_SEEDS, trains, tests):
        stages += [stage("train", train_cfg, tr, s), stage("backtest", test_cfg, te, s, "--policy", str(tr / "policy.bin"))]
    stages.append(["compare", *[str(t / "report.json") for t in tests], "--out", str(work / "compare")])

    def check() -> dict:
        short_closes = checks.read_ohlcv(short_data)["close"]
        start = 19  # ROC(1) warm-up of one bar plus a 19-bar window
        _, best_short = checks.log_return_bounds(short_closes[start:], ZIGZAG_COMMISSION)
        exhaustive = checks.exhaustive_best_log_return(short_closes[start:], ZIGZAG_COMMISSION)
        if abs(best_short - exhaustive) > 1e-12 or abs(best_short - ZIGZAG_OPTIMUM) > 5e-7:
            raise checks.CheckFailed(f"40-bar optimum: DP {best_short!r}, exhaustive {exhaustive!r}")
        checks.check_ingest(work / "ingest" / "data.csv", checks.read_ohlcv(short_data))
        closes = checks.read_ohlcv(long_data)["close"]
        achieved, reports = [], []
        for tr, te in zip(trains, tests):
            checks.check_policy(tr / "policy.bin", [20, 64, 64, 2])
            checks.check_training_log(tr / "training_log.csv", steps, ZIGZAG_BARS)
            got, best = checks.check_backtest(te, closes, ZIGZAG_COMMISSION, 10_000.0)
            achieved.append(got)
            reports.append(json.loads((te / "report.json").read_text()))
        if abs(max(achieved) - best) > 1e-9:
            raise checks.CheckFailed(f"best seed log return {max(achieved)!r}, long-zigzag optimum {best!r}")
        checks.check_compare(work / "compare" / "compare.csv", reports)
        return {"zigzag_mean_fraction_of_optimum": float(np.mean(achieved) / best),
                "zigzag_optimum_log_return": best, "zigzag_40bar_optimum": best_short}

    digests = {}
    for s, tr, te in zip(ZIGZAG_SEEDS, trains, tests):
        digests.update(_trained(f"zigzag_seed{s}", tr, te))
    return Plan(stages, check, digests, _repeated(work / "ingest", work / "features", *trains, *tests, work / "compare"))


WORKLOADS = {"dqn_default": dqn_default, "universe_onpolicy": universe_onpolicy, "zigzag_oracle": zigzag_oracle}
