"""Experiment configuration: a single JSON document with full defaults.

Every run is seeded explicitly; an empty JSON object resolves to the
documented default experiment (DQN, lr 1e-4, buffer 100k, batch 128,
gamma 0.99, target sync every 1000 steps, one million timesteps,
window 10, commission 0).
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from ..agents import Hyperparams
from ..errors import SchemaError
from ..indicators import KINDS, IndicatorSpec, default_specs
from ..normalize import NormalizationKind
from ..trading_env import EnvConfig, RewardKind

ALGORITHMS = ("DQN", "A2C", "PPO")

DEFAULTS: dict = {
    "data": {"path": None, "start": None, "end": None},
    "features": {"specs": None},
    "normalization": {"kind": "MinMax", "per_family": {}},
    "env": {
        "window_size": 10,
        "commission": 0.0,
        "reward_kind": "ImmediateLogReturn",
        "include_position_flag": True,
        "initial_cash": 10_000.0,
    },
    "agent": {
        "algorithm": "DQN",
        "learning_rate": 1e-4,
        "buffer_size": 100_000,
        "batch_size": 128,
        "gamma": 0.99,
        "target_update_interval": 1000,
        "total_timesteps": 1_000_000,
        "exploration_initial": 1.0,
        "exploration_final": 0.05,
        "exploration_fraction": 0.10,
        "n_steps": 64,
        "clip_range": 0.2,
        "entropy_coef": 0.01,
        "value_coef": 0.5,
        "gae_lambda": 0.95,
        "n_epochs": 10,
        "optimizer": "sgd",
        "hidden_sizes": [64, 64],
    },
    "seed": 0,
    "output_dir": "runs/default",
}


@dataclass(frozen=True)
class DataConfig:
    path: str | None
    start: date | None
    end: date | None


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    specs: list[IndicatorSpec]
    normalization: NormalizationKind
    per_family: dict[str, NormalizationKind]
    env: EnvConfig
    algorithm: str
    hyperparams: Hyperparams
    seed: int
    output_dir: str
    resolved: dict


def config_hash(resolved: dict) -> str:
    """sha256 of the canonical JSON form; stable under key reordering.

    output_dir is excluded: the hash identifies the experiment, not where
    its artifacts land.
    """
    hashable = {key: value for key, value in resolved.items() if key != "output_dir"}
    canonical = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _merge(defaults: dict, overrides: dict, prefix: str) -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        path = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
        if key not in defaults:
            raise SchemaError(path, "unknown key")
        if isinstance(defaults[key], dict) and key != "per_family":
            if not isinstance(value, dict):
                raise SchemaError(path, f"expected object, got {type(value).__name__}")
            merged[key] = _merge(defaults[key], value, path)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _require(section: dict, key: str, types, path: str, allow_none: bool = False):
    value = section[key]
    if value is None:
        if allow_none:
            return None
        raise SchemaError(path, "must not be null")
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise SchemaError(path, "expected a number, got a boolean")
    if not isinstance(value, types):
        raise SchemaError(path, f"expected {types}, got {type(value).__name__}")
    return value


def _finite(section: dict, key: str, path: str) -> float:
    """A number field as a float. Python's json reads NaN and Infinity; they are
    refused, as are integers beyond the float range."""
    value = _require(section, key, (int, float), path)
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(path, f"must be a finite number, got {value!r:.40}")
    return float(value)


def _parse_date(value, path: str) -> date | None:
    if value is None:
        return None
    try:
        return date.fromisoformat(str(value))
    except ValueError as exc:
        raise SchemaError(path, f"bad date {value!r}: {exc}") from exc


def _parse_specs(raw_specs, path: str) -> list[IndicatorSpec]:
    if raw_specs is None:
        return default_specs()
    if not isinstance(raw_specs, list) or not raw_specs:
        raise SchemaError(path, "expected a non-empty list of indicator specs")
    specs = []
    for i, entry in enumerate(raw_specs):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SchemaError(f"{path}[{i}]", "expected an object with a 'kind' field")
        fields = dict(entry)
        if "periods" in fields:
            fields["periods"] = tuple(fields["periods"])
        try:
            specs.append(IndicatorSpec(**fields))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}[{i}]", str(exc)) from exc
        if specs[-1].column_name in [spec.column_name for spec in specs[:-1]]:
            raise SchemaError(f"{path}[{i}]", f"duplicate column name {specs[-1].column_name!r}")
    return specs


def _parse_kind(value, path: str) -> NormalizationKind:
    try:
        return NormalizationKind(value)
    except ValueError as exc:
        raise SchemaError(path, f"unknown normalization kind {value!r}") from exc


def resolve_config(raw: dict) -> ExperimentConfig:
    """Merge ``raw`` over the defaults and validate every field."""
    if not isinstance(raw, dict):
        raise SchemaError("<root>", "config must be a JSON object")
    merged = _merge(DEFAULTS, raw, "")

    data_sec = merged["data"]
    path = _require(data_sec, "path", str, "data.path", allow_none=True)
    start = _parse_date(data_sec["start"], "data.start")
    end = _parse_date(data_sec["end"], "data.end")
    if start is not None and end is not None and start > end:
        raise SchemaError("data.start", f"start {start} after end {end}")

    specs = _parse_specs(merged["features"]["specs"], "features.specs")

    norm_kind = _parse_kind(merged["normalization"]["kind"], "normalization.kind")
    per_family_raw = merged["normalization"]["per_family"]
    if not isinstance(per_family_raw, dict):
        raise SchemaError("normalization.per_family", "expected an object")
    per_family = {}
    for key, value in per_family_raw.items():
        if key not in KINDS:
            raise SchemaError(f"normalization.per_family.{key}", f"unknown indicator kind {key!r}")
        per_family[key] = _parse_kind(value, f"normalization.per_family.{key}")

    env_sec = merged["env"]
    try:
        reward_kind = RewardKind(_require(env_sec, "reward_kind", str, "env.reward_kind"))
    except ValueError as exc:
        raise SchemaError("env.reward_kind", str(exc)) from exc
    env_fields = {
        "window_size": _require(env_sec, "window_size", int, "env.window_size"),
        "commission": _finite(env_sec, "commission", "env.commission"),
        "reward_kind": reward_kind,
        "normalization": norm_kind,
        "include_position_flag": _require(env_sec, "include_position_flag", bool, "env.include_position_flag"),
        "initial_cash": _finite(env_sec, "initial_cash", "env.initial_cash"),
    }
    try:
        env_config = EnvConfig(**env_fields)
    except ValueError as exc:
        raise SchemaError("env", str(exc)) from exc

    agent_sec = merged["agent"]
    algorithm = _require(agent_sec, "algorithm", str, "agent.algorithm")
    if algorithm not in ALGORITHMS:
        raise SchemaError("agent.algorithm", f"must be one of {ALGORITHMS}, got {algorithm!r}")
    int_fields = ("buffer_size", "batch_size", "target_update_interval", "total_timesteps", "n_steps", "n_epochs")
    float_fields = ("learning_rate", "gamma", "exploration_initial", "exploration_final",
                    "exploration_fraction", "clip_range", "entropy_coef", "value_coef", "gae_lambda")
    hp_fields: dict = {}
    for key in int_fields:
        hp_fields[key] = _require(agent_sec, key, int, f"agent.{key}")
    for key in float_fields:
        hp_fields[key] = _finite(agent_sec, key, f"agent.{key}")
    hp_fields["optimizer"] = _require(agent_sec, "optimizer", str, "agent.optimizer")
    hp_fields["hidden_sizes"] = tuple(_require(agent_sec, "hidden_sizes", list, "agent.hidden_sizes"))
    try:
        hyperparams = Hyperparams(**hp_fields)
    except ValueError as exc:
        message = str(exc)
        offending = next((k for k in hp_fields if k in message), "")
        key = f"agent.{offending}" if offending else "agent"
        raise SchemaError(key, message) from exc

    seed = _require(merged, "seed", int, "seed")
    if seed < 0:
        raise SchemaError("seed", f"must be >= 0, got {seed}")
    output_dir = _require(merged, "output_dir", str, "output_dir")
    return ExperimentConfig(
        data=DataConfig(path, start, end),
        specs=specs,
        normalization=norm_kind,
        per_family=per_family,
        env=env_config,
        algorithm=algorithm,
        hyperparams=hyperparams,
        seed=seed,
        output_dir=output_dir,
        resolved=merged,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and resolve a JSON config file."""
    file_path = Path(path)
    if not file_path.exists():
        raise SchemaError("<config>", f"config file not found: {file_path}")
    try:
        raw = json.loads(file_path.read_text())
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer longer than Python parses
        raise SchemaError("<config>", f"invalid JSON in {file_path}: {exc}") from exc
    return resolve_config(raw)
