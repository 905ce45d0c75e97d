import json

import numpy as np
import pytest

from conftest import random_walk_series
from quantrl import NormalizationKind, RewardKind, save_csv
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


@pytest.mark.parametrize("key, value", [("exploration_initial", 1.5), ("exploration_final", -0.1)])
def test_cli_exploration_out_of_range_is_config_error(tmp_path, data_csv, capsys, key, value):
    cfg = write_config(tmp_path, data_csv, agent={key: value})
    assert cli(["train", "--config", str(cfg)]) == EXIT_CONFIG
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config"
    assert payload["message"].startswith(f"agent.{key}:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverged_training_is_named(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv, agent={"learning_rate": 1.0})
    assert cli(["train", "--config", str(cfg)]) == EXIT_RUNTIME
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "runtime"
    assert payload["type"] == "TrainingDiverged"


def test_cli_unknown_flag_rejected():
    assert cli(["train", "--config", "x.json", "--bogus"]) == EXIT_CONFIG


def test_cli_missing_data_file(tmp_path):
    cfg = write_config(tmp_path, tmp_path / "missing.csv")
    assert cli(["ingest", "--config", str(cfg)]) == EXIT_DATA


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
