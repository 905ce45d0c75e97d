"""The benchmark's hooks look up every traced name with getattr, even in
untraced runs, so a refactor that removes or renames one breaks the benchmark.
They also replace functions in module namespaces by identity, so a CLI that
reaches a trainer or a backtest call by another route hides it from them."""

import importlib
import json
from pathlib import Path

import pytest

from conftest import random_walk_series
from quantrl import save_csv
from quantrl.runner.cli import EXIT_OK, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def import_instrument(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("instrument")


def test_every_traced_name_resolves(monkeypatch):
    instrument = import_instrument(monkeypatch)
    missing = [f"{name} ({attr})" for name, owner, attr in instrument.TRACED if not hasattr(owner, attr)]
    assert instrument.TRACED and not missing


@pytest.mark.parametrize("algorithm", ["DQN", "A2C", "PPO"])
def test_clock_sees_one_pipeline_round(monkeypatch, tmp_path, capsys, algorithm):
    """The clock sees the trainer, every episode end (TrainingLog.append), the
    set-up calls and the backtest."""
    instrument = import_instrument(monkeypatch)
    data = tmp_path / "walk.csv"
    save_csv(random_walk_series(120, seed=3), data)
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"path": str(data)},
        "features": {"specs": [{"kind": "SMA", "period": 2}, {"kind": "RSI", "period": 5}]},
        "env": {"window_size": 3},
        "agent": {"algorithm": algorithm, "total_timesteps": 200, "buffer_size": 64, "batch_size": 8,
                  "target_update_interval": 50, "n_steps": 16, "n_epochs": 2},
        "output_dir": str(out),
    }))
    with instrument.Clock() as clock:
        for argv in (["ingest"], ["train"], ["backtest"]):
            assert cli([*argv, "--config", str(config)]) == EXIT_OK
        assert cli(["compare", str(out / "report.json"), "--out", str(tmp_path / "cmp")]) == EXIT_OK
    capsys.readouterr()
    assert [call[:2] for call in clock.train_calls] == [(algorithm, 200)]
    logged = [int(line.split(",")[0]) for line in (out / "training_log.csv").read_text().splitlines()[1:]]
    assert [timestep for _, timestep in clock.episodes] == logged and logged
    assert clock.bars == len((out / "ledger.csv").read_text().splitlines()) - 1 > 0
    assert clock.setup_s > 0 and clock.backtest_s > 0
