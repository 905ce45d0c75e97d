import json
import os
import struct
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import quantrl
import quantrl.runner.manifest as manifest_module
from conftest import random_walk_series
from quantrl import IndicatorSpec, NormalizationKind, RewardKind, compute_feature_matrix, save_csv
from quantrl.agents import TrainingLog, TrainingRecord, init_mlp, save_policy
from quantrl.atomic import atomic_open
from quantrl.errors import SchemaError
from quantrl.runner import config_hash, load_config, resolve_config
from quantrl.runner.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, cli


@pytest.fixture()
def data_csv(tmp_path):
    series = random_walk_series(140, seed=17)
    path = tmp_path / "walk.csv"
    save_csv(series, path)
    return path


def write_config(tmp_path, data_path, **overrides):
    config = {
        "data": {"path": str(data_path)},
        "features": {"specs": [{"kind": "SMA", "period": 2}, {"kind": "RSI", "period": 5}]},
        "env": {"window_size": 3},
        "agent": {
            "total_timesteps": 300,
            "buffer_size": 256,
            "batch_size": 16,
            "target_update_interval": 50,
        },
        "seed": 7,
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# --- config loading ---------------------------------------------------------------


def test_empty_config_full_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    cfg = load_config(path)
    assert cfg.hyperparams.learning_rate == 1e-4
    assert cfg.hyperparams.buffer_size == 100_000
    assert cfg.hyperparams.batch_size == 128
    assert cfg.hyperparams.gamma == 0.99
    assert cfg.hyperparams.target_update_interval == 1000
    assert cfg.hyperparams.total_timesteps == 1_000_000
    assert cfg.env.window_size == 10
    assert cfg.env.commission == 0.0
    assert cfg.env.reward_kind is RewardKind.IMMEDIATE
    assert cfg.normalization is NormalizationKind.MIN_MAX
    assert cfg.algorithm == "DQN"
    assert cfg.seed == 0
    assert len(cfg.specs) == 20


DEFAULT_EXPERIMENT = {
    "data": {"path": None, "start": None, "end": None},
    "features": {"specs": None},
    "normalization": {"kind": "MinMax", "per_family": {}},
    "env": {"window_size": 10, "commission": 0.0, "reward_kind": "ImmediateLogReturn",
            "include_position_flag": True, "initial_cash": 10_000.0},
    "agent": {"algorithm": "DQN", "learning_rate": 1e-4, "buffer_size": 100_000, "batch_size": 128, "gamma": 0.99,
              "target_update_interval": 1000, "total_timesteps": 1_000_000, "exploration_initial": 1.0,
              "exploration_final": 0.05, "exploration_fraction": 0.10, "n_steps": 64, "clip_range": 0.2,
              "entropy_coef": 0.01, "value_coef": 0.5, "gae_lambda": 0.95, "n_epochs": 10, "optimizer": "sgd",
              "hidden_sizes": [64, 64]},
    "seed": 0,
    "output_dir": "runs/default",
}


def test_empty_config_resolves_to_the_literal_defaults():
    """The defaults are derived from Hyperparams and EnvConfig; a literal copy
    pins the resolved dict, its key order and its hash."""
    resolved = resolve_config({}).resolved
    assert resolved == DEFAULT_EXPERIMENT
    assert json.dumps(resolved) == json.dumps(DEFAULT_EXPERIMENT)
    assert config_hash(resolved) == "3f5db9d927fed74678167c6ae34af524091cae6093d1b8e1b982ef0dd9d2917b"


def test_learning_rate_override(tmp_path):
    path = tmp_path / "lr.json"
    path.write_text(json.dumps({"agent": {"learning_rate": 1e-2}}))
    cfg = load_config(path)
    assert cfg.hyperparams.learning_rate == 1e-2
    assert cfg.hyperparams.buffer_size == 100_000  # rest unchanged


def test_gamma_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"agent": {"gamma": 1.5}}))
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert "gamma" in err.value.key


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"agnet": {}}))
    with pytest.raises(SchemaError, match="unknown key"):
        load_config(path)


def test_unknown_per_family_key_rejected(tmp_path, data_csv, capsys):
    with pytest.raises(SchemaError) as err:
        resolve_config({"normalization": {"per_family": {"NOPE": "ZScore", "RSI": "Sigmoid"}}})
    assert err.value.key == "normalization.per_family.NOPE"
    # keys are config indicator kinds, case included; EMA is a library function, not a kind
    for key in ("rsi", "EMA"):
        with pytest.raises(SchemaError):
            resolve_config({"normalization": {"per_family": {key: "ZScore"}}})
    assert resolve_config({"normalization": {"per_family": {"RSI": "Sigmoid"}}}).per_family == {
        "RSI": NormalizationKind.SIGMOID}
    cfg = write_config(tmp_path, data_csv, normalization={"per_family": {"NOPE": "ZScore"}})
    assert cli(["corr", "--config", str(cfg)]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().err.strip())
    assert (payload["error"], payload["type"]) == ("config", "SchemaError")
    assert payload["message"].startswith("normalization.per_family.NOPE:")


def test_nested_unknown_key_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"env": {"window": 5}}))
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert err.value.key == "env.window"


def test_bad_reward_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"env": {"reward_kind": "Bogus"}}))
    with pytest.raises(SchemaError):
        load_config(path)


def test_config_hash_stable_under_reordering():
    a = resolve_config({"seed": 3, "agent": {"gamma": 0.5, "learning_rate": 1e-3}})
    b = resolve_config({"agent": {"learning_rate": 1e-3, "gamma": 0.5}, "seed": 3})
    assert config_hash(a.resolved) == config_hash(b.resolved)
    c = resolve_config({"seed": 4})
    assert config_hash(a.resolved) != config_hash(c.resolved)


def test_missing_config_file():
    with pytest.raises(SchemaError, match="not found"):
        load_config("/nonexistent/config.json")


# --- CLI ---------------------------------------------------------------------------


def test_cli_missing_config_exit_code(capsys):
    code = cli(["train", "--config", "/nonexistent/config.json"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "/nonexistent/config.json" in payload["message"]


@pytest.mark.parametrize("key, value", [
    ("exploration_initial", 1.5), ("exploration_final", -0.1), ("learning_rate", float("nan")),
    ("clip_range", float("nan")), ("entropy_coef", float("nan")), ("gamma", float("inf")),
    ("batch_size", 0), ("batch_size", 512), ("n_steps", 0), ("total_timesteps", 0), ("target_update_interval", 0),
])
def test_cli_exploration_out_of_range_is_config_error(tmp_path, data_csv, capsys, key, value):
    cfg = write_config(tmp_path, data_csv, agent={key: value})  # buffer_size is 256
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config"
    assert payload["message"].startswith(f"agent.{key}:")


@pytest.mark.parametrize("key, value", [
    ("window_size", 0), ("commission", 1.5), ("initial_cash", -1), ("reward_kind", 5), ("reward_kind", "Bogus"),
])
def test_cli_env_fault_names_its_key_once(tmp_path, data_csv, capsys, key, value):
    cfg = write_config(tmp_path, data_csv, env={key: value})
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["message"]
    assert message.startswith(f"env.{key}: ") and message.count(key) == 1, message


@pytest.mark.parametrize("key, value, expected", [
    ("learning_rate", "x", "expected int or float, got str"),
    ("n_epochs", 2.5, "expected int, got float"),
    ("optimizer", 1, "expected str, got int"),
    ("batch_size", True, "expected int, got bool"),
], ids=["float-field", "int-field", "str-field", "bool-for-int"])
def test_cli_type_fault_names_types(tmp_path, data_csv, capsys, key, value, expected):
    cfg = write_config(tmp_path, data_csv, agent={key: value})
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err.strip())["message"] == f"agent.{key}: {expected}"


@pytest.mark.parametrize("algorithm, n_steps, total", [("A2C", 10**18, 300), ("PPO", 100, 50)])
def test_cli_rollout_longer_than_training_is_config_error(tmp_path, data_csv, capsys, algorithm, n_steps, total):
    cfg = write_config(tmp_path, data_csv,
                       agent={"algorithm": algorithm, "n_steps": n_steps, "total_timesteps": total})
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"].startswith("agent.n_steps: ")
    # DQN does not roll out, so the same n_steps resolves for it
    assert resolve_config({"agent": {"n_steps": n_steps, "total_timesteps": total}}).hyperparams.n_steps == n_steps


def test_cli_dqn_buffer_larger_than_training_trains(tmp_path, data_csv, capsys):
    """The replay ring holds at most total_timesteps transitions, so a buffer_size
    that could never be allocated does not have to be, and trains as a buffer of
    exactly total_timesteps (300) transitions."""
    cfg = write_config(tmp_path, data_csv, agent={"buffer_size": 10**18})
    assert cli(["train", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == EXIT_OK
    cfg = write_config(tmp_path, data_csv, agent={"buffer_size": 300})
    assert cli(["train", "--config", str(cfg), "--out", str(tmp_path / "small")]) == EXIT_OK
    assert (tmp_path / "huge" / "policy.bin").read_bytes() == (tmp_path / "small" / "policy.bin").read_bytes()


def test_cli_dqn_batch_larger_than_training_trains(tmp_path, data_csv):
    """A batch larger than total_timesteps (300) is never sampled, so the learn-step
    workspace holds at most 300 rows: a batch_size that could never be allocated
    trains like any other batch over 300 steps, and neither ever learns."""
    cfg = write_config(tmp_path, data_csv, agent={"buffer_size": 10**18, "batch_size": 10**18})
    assert cli(["train", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == EXIT_OK
    cfg = write_config(tmp_path, data_csv, agent={"buffer_size": 301, "batch_size": 301})
    assert cli(["train", "--config", str(cfg), "--out", str(tmp_path / "small")]) == EXIT_OK
    assert (tmp_path / "huge" / "policy.bin").read_bytes() == (tmp_path / "small" / "policy.bin").read_bytes()


@pytest.mark.parametrize("agent, key", [
    ({"algorithm": "DQN", "buffer_size": 10**18}, "buffer_size"),
    ({"algorithm": "A2C", "n_steps": 10**18}, "n_steps"),
    ({"algorithm": "PPO", "n_steps": 10**18}, "n_steps"),
], ids=["DQN", "A2C", "PPO"])
def test_cli_unallocatable_buffer_is_config_error(tmp_path, data_csv, capsys, agent, key):
    """A replay ring or rollout numpy cannot allocate names its key. Only sizes
    far past any address space are used: a smaller one may be mapped lazily and
    would then train for a very long time."""
    cfg = write_config(tmp_path, data_csv, agent={**agent, "total_timesteps": 10**18})
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("config", "SchemaError")
    assert payload["message"].startswith(f"agent.{key}: ")


@pytest.mark.parametrize("section, key, value", [
    ("agent", "batch_size", 10**400), ("agent", "n_epochs", -(10**400)), ("agent", "optimizer", "x" * 1000),
    ("env", "window_size", -(10**400)),
], ids=["batch_size", "n_epochs", "optimizer", "window_size"])
def test_range_fault_message_is_bounded(section, key, value):
    with pytest.raises(SchemaError) as err:
        resolve_config({section: {key: value}})
    assert err.value.key == f"{section}.{key}"
    assert len(str(err.value)) < 120


@pytest.mark.parametrize("section, key, value", [
    ("env", "initial_cash", float("inf")), ("env", "commission", float("nan")),
    ("agent", "value_coef", 10**400), ("agent", "gae_lambda", float("-inf")),
])
def test_cli_non_finite_number_is_config_error(tmp_path, data_csv, capsys, section, key, value):
    cfg = write_config(tmp_path, data_csv, **{section: {key: value}})
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"].startswith(f"{section}.{key}: must be a finite number")


@pytest.mark.parametrize("args, overrides", [([], {"seed": -1}), (["--seed", "-1"], {})], ids=["config", "flag"])
def test_cli_negative_seed_is_config_error(tmp_path, data_csv, capsys, args, overrides):
    cfg = write_config(tmp_path, data_csv, **overrides)
    assert cli(["train", "--config", str(cfg), *args]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"] == "seed: must be >= 0, got -1"


@pytest.mark.parametrize("spec, detail", [
    ({"kind": "SMA", "period": 2.5}, "must be integers"),
    ({"kind": "SMA", "period": True}, "must be integers"),
    ({"kind": "MACD", "fast": False}, "must be integers"),
    ({"kind": "UO", "periods": [7, 14]}, "must be integers"),
    ({"kind": "UO", "periods": 7}, "not iterable"),
    ({"kind": "UO", "periods": None}, "not iterable"),
    ({"kind": "SMA", "period": 2, "name": 5}, "name must be a non-empty string"),
    ({"kind": "MACD", "name": ""}, "name must be a non-empty string"),
    ({"kind": "SAR", "accel_start": float("nan")}, "must be finite numbers"),
    ({"kind": "SAR", "accel_step": "0.02"}, "must be finite numbers"),
    ({"kind": "SAR", "accel_start": 0.3}, "0 < accel_start <= accel_max"),
    ({"kind": "WMA", "period": 3, "name": "SMA_2"}, "duplicate column name 'SMA_2'"),
], ids=["float-period", "bool-period", "bool-fast", "two-periods", "int-periods", "null-periods", "int-name",
        "empty-name", "nan-accel", "str-accel", "sar-rule", "duplicate-name"])
def test_cli_bad_indicator_spec_is_config_error(tmp_path, data_csv, capsys, spec, detail):
    cfg = write_config(tmp_path, data_csv, features={"specs": [{"kind": "SMA", "period": 2}, spec]})
    assert cli(["features", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["message"]
    assert message.startswith("features.specs[1]: ") and detail in message


@pytest.mark.parametrize("hidden", [[0], [64, -1], [2.5], [], [True]], ids=["zero", "negative", "float", "empty", "bool"])
def test_cli_bad_hidden_sizes_is_config_error(tmp_path, data_csv, capsys, hidden):
    cfg = write_config(tmp_path, data_csv, agent={"hidden_sizes": hidden})
    with pytest.raises(SchemaError) as err:
        load_config(cfg)
    assert err.value.key == "agent.hidden_sizes"
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config"
    assert payload["message"].startswith("agent.hidden_sizes:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverged_training_is_named(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv, agent={"learning_rate": 1.0})
    assert cli(["train", "--config", str(cfg)]) == EXIT_RUNTIME
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "runtime"
    assert payload["type"] == "TrainingDiverged"


@pytest.mark.parametrize("command, specs, column", [
    ("train", None, "OBV"),
    ("corr", [{"kind": "SMA", "period": 2}, {"kind": "MOM", "period": 1}], "MOM_1"),
])
def test_cli_window_log_on_nonpositive_feature_is_data_error(tmp_path, data_csv, capsys, command, specs, column):
    cfg = write_config(tmp_path, data_csv, normalization={"kind": "WindowLog"},
                       features={"specs": specs}, env={"window_size": 2})
    assert cli([command, "--config", str(cfg)]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("data", "NonPositiveValue")
    assert payload["message"].startswith(f"column {column} row ")
    assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())


@pytest.mark.parametrize("command, overrides, error", [
    ("features", {"features": {"specs": [{"kind": "SMA", "period": 80}]}}, "PeriodTooLong"),
    ("train", {"env": {"window_size": 58}}, "SeriesTooShort"),
])
def test_cli_data_too_short_is_data_error(tmp_path, capsys, command, overrides, error):
    path = tmp_path / "short.csv"
    save_csv(random_walk_series(60, seed=17), path)
    cfg = write_config(tmp_path, path, **overrides)
    assert cli([command, "--config", str(cfg)]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == error


@pytest.mark.parametrize("bars, error", [(4, "SeriesTooShort"), (5, "TooFewSamples")])
def test_cli_backtest_of_at_most_one_step_is_data_error(tmp_path, capsys, bars, error):
    """With ROC(1) and window 3, a 5-bar segment evaluates one step: one return, too few for the report."""
    series = random_walk_series(60, seed=17)
    path = tmp_path / "walk.csv"
    save_csv(series, path)
    features = {"specs": [{"kind": "ROC", "period": 1}]}
    assert cli(["train", "--config", str(write_config(tmp_path, path, features=features))]) == EXIT_OK
    dates = series.dates()
    segment = {"start": dates[30].isoformat(), "end": dates[30 + bars].isoformat()}  # the end date is excluded
    cfg = write_config(tmp_path, path, features=features, data=segment)
    capsys.readouterr()
    assert cli(["backtest", "--config", str(cfg)]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("data", error)
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_stoch_k_d_period_is_config_error(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv, features={"specs": [{"kind": "STOCH_K", "d_period": 0}]})
    assert cli(["features", "--config", str(cfg)]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["message"] == "features.specs[0]: STOCH_K: d_period must be >= 1, got 0"


def test_cli_unknown_flag_rejected():
    assert cli(["train", "--config", "x.json", "--bogus"]) == EXIT_CONFIG


@pytest.mark.parametrize("outputs", [1, 3])
def test_cli_backtest_refuses_policy_output_width(tmp_path, data_csv, capsys, outputs):
    cfg = write_config(tmp_path, data_csv)
    policy = tmp_path / "policy.bin"
    # window 3 x (SMA, RSI) + the position flag: the input width fits, the output does not
    save_policy(init_mlp([7, 8, outputs], np.random.default_rng(0)), policy)
    assert cli(["backtest", "--config", str(cfg), "--policy", str(policy)]) == EXIT_RUNTIME
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["type"], payload["message"]) == ("ShapeMismatch", f"policy output {outputs} != 2 actions (Sell, Buy)")


def test_cli_missing_data_file(tmp_path):
    cfg = write_config(tmp_path, tmp_path / "missing.csv")
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_DATA


@pytest.mark.parametrize("fault, error", [
    ("missing", "FileNotFoundError"), ("truncated", "CorruptFile"), ("zero-layers", "CorruptFile"),
    ("zero-sized-layer", "CorruptFile"), ("directory", "IsADirectoryError"), ("non-finite", "CorruptFile"),
])
def test_cli_bad_policy_file_is_data_error(tmp_path, data_csv, capsys, fault, error):
    cfg = write_config(tmp_path, data_csv, agent={"total_timesteps": 50})
    policy = tmp_path / "run" / "policy.bin"
    if fault in ("truncated", "non-finite"):
        assert cli(["train", "--config", str(cfg)]) == EXIT_OK
        last = struct.pack("<d", float("nan")) if fault == "non-finite" else b""
        policy.write_bytes(policy.read_bytes()[:-8] + last)
    elif fault == "directory":
        policy.mkdir(parents=True)
    elif fault != "missing":
        policy.parent.mkdir()
        header = struct.pack("<II", 1, 0) if fault == "zero-layers" else struct.pack("<IIII", 1, 1, 0, 2)
        policy.write_bytes(b"QRLP" + header)
    capsys.readouterr()
    assert cli(["backtest", "--config", str(cfg), "--policy", str(policy)]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("data", error)
    assert str(policy) in payload["message"]


@pytest.mark.parametrize("bound", [{"start": "2035-01-01"}, {"end": "1990-01-01"}])
def test_cli_range_beyond_the_data_is_empty_series(tmp_path, data_csv, capsys, bound):
    cfg = write_config(tmp_path, data_csv, data=bound)
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("data", "EmptySeries")
    assert payload["message"].startswith("walk: 0 bars in [")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["start", "end"])
@pytest.mark.parametrize("value", [20200102, "20200102", "2020-W01-1"])
def test_cli_date_other_than_yyyy_mm_dd_is_config_error(tmp_path, data_csv, capsys, key, value):
    """Config dates follow the data loader's rule on every Python: date.fromisoformat
    takes all three values from Python 3.11 on."""
    cfg = write_config(tmp_path, data_csv, data={key: value})
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("config", "SchemaError")
    assert payload["message"].startswith(f"data.{key}: ")
    assert not (tmp_path / "run").exists()


def test_cli_malformed_data(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("Date,Open,High,Low,Close,Volume\n2020-01-01,1,2,0.5,oops,100\n")
    cfg = write_config(tmp_path, bad)
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_DATA


def test_cli_ingest_canonical_roundtrip(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "run" / "data.csv"
    assert out.exists()
    assert out.read_text() == data_csv.read_text()


def test_cli_features(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["features", "--config", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "run" / "features.csv").read_text().splitlines()
    assert lines[0] == "Date,SMA_2,RSI_5"
    assert len(lines) == 141


def test_cli_corr_matrix_shape(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["corr", "--config", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "run" / "corr.csv").read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[1:] == ["SMA_2", "RSI_5"]
    # unit diagonal
    assert float(lines[1].split(",")[1]) == 1.0
    assert float(lines[2].split(",")[2]) == 1.0
    selected = json.loads((tmp_path / "run" / "selected.json").read_text())
    assert set(selected) == {"threshold", "selected", "degenerate"}


@pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan", "inf"])
def test_cli_corr_threshold_outside_unit_interval_is_config_error(tmp_path, data_csv, capsys, threshold):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["corr", "--config", str(cfg), f"--threshold={threshold}"]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("config", "SchemaError")
    assert payload["message"].startswith("--threshold: must be in [0, 1]")
    assert not (tmp_path / "run").exists()


def test_cli_corr_default_20_specs(tmp_path):
    series = random_walk_series(505, seed=11)
    data = tmp_path / "long.csv"
    save_csv(series, data)
    config = {"data": {"path": str(data)}, "output_dir": str(tmp_path / "run20")}
    cfg = tmp_path / "c20.json"
    cfg.write_text(json.dumps(config))
    assert cli(["corr", "--config", str(cfg)]) == EXIT_OK
    from quantrl import CorrelationMatrix

    matrix = CorrelationMatrix.read_csv(tmp_path / "run20" / "corr.csv")
    assert matrix.values.shape == (20, 20)
    assert np.allclose(np.diag(matrix.values), 1.0)


def test_cli_train_backtest_deterministic(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cli(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert cli(["backtest", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    manifest_b = json.loads((out_b / "manifest.json").read_text())
    assert manifest_a["config_hash"] == manifest_b["config_hash"]
    assert (out_a / "policy.bin").read_bytes() == (out_b / "policy.bin").read_bytes()


def test_cli_train_backtest_bytes_do_not_depend_on_blas_threads(tmp_path):
    """With one OpenBLAS kernel pinned, DQN training and its backtest write the
    same bytes at one and at two BLAS threads. The run has the default 201-wide
    observation, 64x64 net and batch 128, so the learn step's gemms and the
    128-row target blocks are large enough for OpenBLAS to split across threads."""
    corename = manifest_module.blas_corename()
    if not corename:
        pytest.skip("numpy does not run on OpenBLAS here")
    data = tmp_path / "walk.csv"
    save_csv(random_walk_series(300, seed=17), data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"data": {"path": str(data)}, "seed": 3,
                               "agent": {"total_timesteps": 600, "target_update_interval": 200}}))
    paths = [str(Path(quantrl.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_CORETYPE": corename, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(paths)}
        for command in ("train", "backtest"):
            subprocess.run([sys.executable, "-c", "import sys; from quantrl.runner.cli import cli; sys.exit(cli(sys.argv[1:]))",
                            command, "--config", str(cfg), "--out", str(out)], env=env, check=True, timeout=600)
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        assert environment["blas"]["corename"] == corename
        assert environment["variables"]["OPENBLAS_NUM_THREADS"] == threads
        artifacts.append([(out / name).read_bytes() for name in ("policy.bin", "training_log.csv", "report.json")])
    assert artifacts[0] == artifacts[1]


def test_cli_seed_override_changes_hash(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    out_a = tmp_path / "s1"
    out_b = tmp_path / "s2"
    assert cli(["train", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == EXIT_OK
    assert cli(["train", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == EXIT_OK
    hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert hash_a != hash_b


def test_cli_backtest_artifacts_round_trip(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["train", "--config", str(cfg)]) == EXIT_OK
    assert cli(["backtest", "--config", str(cfg)]) == EXIT_OK
    run = tmp_path / "run"
    report = json.loads((run / "report.json").read_text())
    assert set(report.keys()) == {
        "return_pct", "return_ann_pct", "vol_ann_pct", "sharpe", "sortino",
        "calmar", "win_rate_pct", "n_trades", "max_drawdown_pct",
    }
    from quantrl import load_policy

    policy = load_policy(run / "policy.bin")
    assert policy.output_size == 2
    equity_lines = (run / "equity.csv").read_text().splitlines()
    assert equity_lines[0] == "step,equity"
    assert (run / "equity.svg").read_text().startswith("<svg")


def test_cli_backtest_keeps_train_manifest(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["train", "--config", str(cfg)]) == EXIT_OK
    assert cli(["backtest", "--config", str(cfg)]) == EXIT_OK
    run = tmp_path / "run"
    train_manifest = json.loads((run / "manifest.json").read_text())
    backtest_manifest = json.loads((run / "backtest_manifest.json").read_text())
    assert set(train_manifest["artifacts"]) == {"policy", "training_log"}
    assert "report" in backtest_manifest["artifacts"]
    assert train_manifest["config_hash"] == backtest_manifest["config_hash"]


def test_manifest_environment_outside_config_hash(tmp_path, data_csv, monkeypatch):
    cfg = write_config(tmp_path, data_csv)
    manifests = []
    for name, threads, coretype in (("a", "1", None), ("b", "2", "Prescott")):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        if coretype is None:
            monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        assert cli(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    a, b = manifests
    assert a["config_hash"] == b["config_hash"]
    assert a["environment"]["numpy"] == np.__version__
    assert a["environment"]["python"] and "blas" in a["environment"]
    assert a["environment"]["variables"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "OPENBLAS_CORETYPE" not in a["environment"]["variables"]
    assert b["environment"]["variables"]["OPENBLAS_NUM_THREADS"] == "2"
    assert b["environment"]["variables"]["OPENBLAS_CORETYPE"] == "Prescott"
    assert (tmp_path / "a" / "policy.bin").read_bytes() == (tmp_path / "b" / "policy.bin").read_bytes()


def test_manifest_records_blas_corename_outside_config_hash(tmp_path, data_csv, monkeypatch):
    cfg = write_config(tmp_path, data_csv)
    manifests = []
    for name, corename in (("a", None), ("b", "Prescott")):
        if corename is not None:
            monkeypatch.setattr(manifest_module, "blas_corename", lambda: corename)
        assert cli(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    a, b = manifests
    assert isinstance(a["environment"]["blas"]["corename"], str)
    assert b["environment"]["blas"]["corename"] == "Prescott"
    assert a["config_hash"] == b["config_hash"]


@pytest.mark.parametrize("algorithm", ["A2C", "PPO"])
def test_cli_train_other_algorithms(tmp_path, data_csv, algorithm):
    cfg = write_config(
        tmp_path, data_csv,
        agent={"algorithm": algorithm, "total_timesteps": 200, "n_steps": 16,
               "batch_size": 8, "n_epochs": 2},
    )
    assert cli(["train", "--config", str(cfg)]) == EXIT_OK
    assert cli(["backtest", "--config", str(cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert "sharpe" in report


def test_cli_log_env_var(tmp_path, data_csv, monkeypatch):
    monkeypatch.setenv("QUANTRL_LOG", "debug")
    cfg = write_config(tmp_path, data_csv)
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_OK


def test_cli_report_and_compare(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv)
    assert cli(["train", "--config", str(cfg)]) == EXIT_OK
    assert cli(["backtest", "--config", str(cfg)]) == EXIT_OK
    report_path = tmp_path / "run" / "report.json"
    assert cli(["report", str(report_path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "sharpe" in printed and "win_rate_pct" in printed
    assert cli(["compare", str(report_path), str(report_path), "--out", str(tmp_path / "cmp")]) == EXIT_OK
    lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("metric,")
    assert len(lines) == 10


PINNED_REPORTS = {
    "a": {"return_pct": -3.25, "return_ann_pct": -12.5, "vol_ann_pct": 20.1234567, "sharpe": -0.5, "sortino": 0.0,
          "calmar": 1e-07, "win_rate_pct": 50.0, "n_trades": 4, "max_drawdown_pct": 7.0},
    "long_run": {"return_pct": 12.0, "return_ann_pct": 100.25, "vol_ann_pct": 0.0, "sharpe": 1.75, "sortino": -2.0,
                 "calmar": 0.0, "win_rate_pct": 0.0, "n_trades": 0, "max_drawdown_pct": 0.0},
}


def write_reports(tmp_path) -> list[str]:
    paths = []
    for name, report in PINNED_REPORTS.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text(json.dumps(report))
        paths.append(str(tmp_path / name / "report.json"))
    return paths


def test_cli_report_and_compare_bytes_are_pinned(tmp_path, capsys):
    paths = write_reports(tmp_path)
    assert cli(["report", paths[0]]) == EXIT_OK
    assert capsys.readouterr().out == (
        "metric            value\n"
        "return_pct        -3.250000\n"
        "return_ann_pct    -12.500000\n"
        "vol_ann_pct       20.123457\n"
        "sharpe            -0.500000\n"
        "sortino           0.000000\n"
        "calmar            0.000000\n"
        "win_rate_pct      50.000000\n"
        "n_trades          4\n"
        "max_drawdown_pct  7.000000\n"
    )
    out = tmp_path / "cmp"
    assert cli(["compare", *paths, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "metric            a           long_run\n"
        "return_pct        -3.250000   12.000000\n"
        "return_ann_pct    -12.500000  100.250000\n"
        "vol_ann_pct       20.123457   0.000000\n"
        "sharpe            -0.500000   1.750000\n"
        "sortino           0.000000    -2.000000\n"
        "calmar            0.000000    0.000000\n"
        "win_rate_pct      50.000000   0.000000\n"
        "n_trades          4           0\n"
        "max_drawdown_pct  7.000000    0.000000\n"
        f"wrote {out / 'compare.csv'}\n"
    )
    assert (out / "compare.csv").read_bytes() == (
        b"metric,a,long_run\n"
        b"return_pct,-3.250000,12.000000\n"
        b"return_ann_pct,-12.500000,100.250000\n"
        b"vol_ann_pct,20.123457,0.000000\n"
        b"sharpe,-0.500000,1.750000\n"
        b"sortino,0.000000,-2.000000\n"
        b"calmar,0.000000,0.000000\n"
        b"win_rate_pct,50.000000,0.000000\n"
        b"n_trades,4,0\n"
        b"max_drawdown_pct,7.000000,0.000000\n"
    )


def test_cli_compare_lengthens_colliding_headings(tmp_path, capsys):
    """Two reports in directories of one name are told apart by their parents; equal paths stay equal."""
    paths = []
    for parent, name in (("x", "a"), ("y", "long_run")):
        (tmp_path / parent / "run").mkdir(parents=True)
        (tmp_path / parent / "run" / "report.json").write_text(json.dumps(PINNED_REPORTS[name]))
        paths.append(str(tmp_path / parent / "run" / "report.json"))
    out = tmp_path / "cmp"
    assert cli(["compare", *paths, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "metric            x/run       y/run"
    assert (out / "compare.csv").read_text().splitlines()[0] == "metric,x/run,y/run"
    assert cli(["compare", paths[0], paths[0], paths[1], "--out", str(out)]) == EXIT_OK
    whole = "/".join((tmp_path / "x" / "run").parts[1:])
    assert (out / "compare.csv").read_text().splitlines()[0] == f"metric,{whole},{whole},y/run"


@pytest.mark.parametrize("content, named", [
    (b"{not json", ""), (b"[1, 2]", ""), (b'{"sharpe": 1.5}', ""), (b'{"sharpe": 1.5\xff}', ""),
    (json.dumps({**PINNED_REPORTS["a"], "alpha": 1.0}).encode(), ""),
    *((json.dumps({**PINNED_REPORTS["a"], key: value}).encode(), f": {key}: ")
      for key, value in [("sharpe", "abc"), ("n_trades", [1]), ("n_trades", True), ("n_trades", 1.5)]),
], ids=["bad-json", "not-an-object", "missing-metrics", "bad-utf8", "unknown-metric",
        "sharpe-str", "n_trades-list", "n_trades-bool", "n_trades-float"])
@pytest.mark.parametrize("command", ["report", "compare"])
def test_cli_corrupt_report_is_data_error(tmp_path, capsys, command, content, named):
    """compare reads every report before it prints, so a corrupt second report prints no table.
    A metric of the wrong type is named."""
    path = tmp_path / "corrupt" / "report.json"
    path.parent.mkdir()
    path.write_bytes(content)
    argv = ["report", str(path)] if command == "report" else ["compare", write_reports(tmp_path)[0], str(path)]
    assert cli(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == ("data", "CorruptFile")
    assert payload["message"].startswith(f"{path}: ")
    assert named in payload["message"]


@pytest.mark.parametrize("command", ["report", "compare", "data", "config"])
def test_cli_unreadable_input_is_named(tmp_path, data_csv, capsys, command):
    """An input path that names a directory is a data error under the OS error's
    type; a config path, a config error."""
    directory = tmp_path / "a_directory"
    directory.mkdir()
    argv = {
        "report": lambda: ["report", str(directory)],
        "compare": lambda: ["compare", write_reports(tmp_path)[0], str(directory)],
        "data": lambda: ["ingest", "--config", str(write_config(tmp_path, directory))],
        "config": lambda: ["train", "--config", str(directory)],
    }[command]()
    code, kind, error = (EXIT_CONFIG, "config", "SchemaError") if command == "config" else (
        EXIT_DATA, "data", "IsADirectoryError")
    assert cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["type"]) == (kind, error)
    assert str(directory) in payload["message"]


def test_cli_unwritable_output_is_runtime_error(tmp_path, data_csv, capsys):
    """An OSError while writing an artifact is not a data error."""
    cfg = write_config(tmp_path, data_csv)
    (tmp_path / "run").write_text("a file where the output directory goes")
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_RUNTIME
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (payload["error"], payload["type"]) == ("runtime", "FileExistsError")


# --- atomic artifact writes -------------------------------------------------------


class _FailingRepr(float):
    def __repr__(self):
        raise OSError("device full")


def test_atomic_open_keeps_previous_file_when_writer_fails(tmp_path):
    path = tmp_path / "artifact.txt"
    with atomic_open(path) as handle:
        handle.write("old\n")
    with pytest.raises(OSError, match="device full"):
        with atomic_open(path) as handle:
            handle.write("new, first half\n")
            raise OSError("device full")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]


def test_training_log_failing_mid_file_leaves_previous_log(tmp_path):
    path = tmp_path / "training_log.csv"
    log = TrainingLog()
    log.append(TrainingRecord(5, 1.0, 0.5))
    log.to_csv(path)
    before = path.read_bytes()
    log.append(TrainingRecord(9, 2.0, _FailingRepr(0.25)))
    with pytest.raises(OSError, match="device full"):
        log.to_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["training_log.csv"]


class _FailingDate(date):
    def isoformat(self):
        raise OSError("device full")


def test_features_csv_failing_mid_file_leaves_previous_file(tmp_path):
    series = random_walk_series(30, seed=3)
    matrix = compute_feature_matrix(series, [IndicatorSpec("SMA", 2)])
    path = tmp_path / "features.csv"
    matrix.to_csv(path, series.dates())
    before = path.read_bytes()
    dates = series.dates()
    day = dates[20]
    dates[20] = _FailingDate(day.year, day.month, day.day)
    with pytest.raises(OSError, match="device full"):
        matrix.to_csv(path, dates)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
