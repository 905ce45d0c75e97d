"""Seeded fuzz of config resolution.

A valid config that spells out every section is mutated by replacing one to
three of its leaves with seeded junk: null, bools, NaN, infinities, negatives,
huge integers, floats where integers are expected, strings, lists and objects.
``resolve_config`` must either raise SchemaError, or return a config whose
parts all build: the seed's generator, the networks, the env config, finite
float fields and the feature matrix of a small series (where a period longer
than the series is the data error PeriodTooLong, exit 3). A few rejected
configs also go through the CLI, which must exit 2 with one JSON line.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import random_walk_series
from quantrl import EnvConfig, compute_feature_matrix
from quantrl.agents import Hyperparams, init_mlp
from quantrl.errors import PeriodTooLong, SchemaError
from quantrl.runner import resolve_config
from quantrl.runner.cli import EXIT_CONFIG, cli

VALID = {
    "data": {"path": "walk.csv", "start": "2020-01-01", "end": "2021-01-01"},
    "features": {"specs": [
        {"kind": "SMA", "period": 2},
        {"kind": "RSI", "period": 5, "name": "rsi"},
        {"kind": "MACD", "fast": 3, "slow": 6, "signal": 2},
        {"kind": "STOCH_D", "period": 4, "d_period": 2},
        {"kind": "UO", "periods": [2, 3, 5]},
        {"kind": "SAR", "accel_start": 0.02, "accel_step": 0.02, "accel_max": 0.2},
    ]},
    "normalization": {"kind": "ZScore", "per_family": {"RSI": "Sigmoid"}},
    "env": {"window_size": 3, "commission": 0.001, "reward_kind": "FlipLogReturn",
            "include_position_flag": True, "initial_cash": 5000.0},
    "agent": {"algorithm": "PPO", "learning_rate": 1e-3, "buffer_size": 64, "batch_size": 8, "gamma": 0.9,
              "target_update_interval": 10, "total_timesteps": 100, "exploration_initial": 1.0,
              "exploration_final": 0.05, "exploration_fraction": 0.1, "n_steps": 8, "clip_range": 0.2,
              "entropy_coef": 0.01, "value_coef": 0.5, "gae_lambda": 0.95, "n_epochs": 2, "optimizer": "adam",
              "hidden_sizes": [8, 4]},
    "seed": 3,
    "output_dir": "runs/fuzz",
}
JUNK = [None, True, False, math.nan, math.inf, -math.inf, -1, -(10**9), 0, 10**18, 2**63, 10**400,
        2.5, -0.5, 1e308, "x", "", "NaN", [], [1], [2, 3, 5], {}, {"a": 1}]
CASES = 400


def leaves(node, path=()):
    """Paths to every non-container value of a nested dict/list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from leaves(child, (*path, key))


def mutated(rng):
    config = copy.deepcopy(VALID)
    paths = list(leaves(config))
    for k in rng.choice(len(paths), size=int(rng.integers(1, 4)), replace=False):
        *parents, last = paths[k]
        node = config
        for key in parents:
            node = node[key]
        node[last] = copy.deepcopy(JUNK[int(rng.integers(len(JUNK)))])
    return config


def build_parts(cfg, series):
    np.random.default_rng(cfg.seed)
    init_mlp([4, *cfg.hyperparams.hidden_sizes, 2], np.random.default_rng(0))
    EnvConfig(**{f.name: getattr(cfg.env, f.name) for f in dataclasses.fields(EnvConfig)})
    for f in dataclasses.fields(Hyperparams):
        value = getattr(cfg.hyperparams, f.name)
        assert not isinstance(value, float) or math.isfinite(value), f.name
    assert math.isfinite(cfg.env.commission) and math.isfinite(cfg.env.initial_cash)
    try:
        compute_feature_matrix(series, cfg.specs)
    except PeriodTooLong:
        pass


def test_valid_config_resolves_and_builds():
    build_parts(resolve_config(copy.deepcopy(VALID)), random_walk_series(120, seed=5))


def test_mutated_configs_are_refused_or_build(tmp_path, capsys):
    rng = np.random.default_rng(20)
    series = random_walk_series(120, seed=5)
    refused = []
    for case in range(CASES):
        config = mutated(rng)
        try:
            cfg = resolve_config(config)
        except SchemaError:
            refused.append(config)
            continue
        try:
            build_parts(cfg, series)
        except Exception as exc:
            pytest.fail(f"case {case}: {json.dumps(config)} resolved but does not build: {exc!r}")
    assert len(refused) > CASES // 2
    for k, config in enumerate(refused[:: len(refused) // 6][:6]):
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert cli(["train", "--config", str(path)]) == EXIT_CONFIG, json.dumps(config)
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
