"""Experiment configuration: a single JSON document with full defaults.

Every run is seeded explicitly; an empty JSON object resolves to the
default experiment. The ``env`` and ``agent`` sections are the fields of
``EnvConfig`` and ``Hyperparams`` (plus ``agent.algorithm``): their
defaults, types and range rules are stated there and nowhere else.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path

from ..agents import Hyperparams
from ..errors import SchemaError
from ..indicators import KINDS, IndicatorSpec, default_specs
from ..market_data import parse_date
from ..normalize import NormalizationKind
from ..trading_env import EnvConfig

ALGORITHMS = ("DQN", "A2C", "PPO")


def _defaults(cls, skip=()) -> dict:
    """The field defaults of a config dataclass as JSON values."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name not in skip:
            value = f.default.value if isinstance(f.default, Enum) else f.default
            values[f.name] = list(value) if isinstance(value, tuple) else value
    return values


DEFAULTS: dict = {
    "data": {"path": None, "start": None, "end": None},
    "features": {"specs": None},
    "normalization": {"kind": EnvConfig.normalization.value, "per_family": {}},
    "env": _defaults(EnvConfig, skip=("normalization",)),
    "agent": {"algorithm": "DQN", **_defaults(Hyperparams)},
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
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise SchemaError(path, f"expected {' or '.join(t.__name__ for t in types)}, got {type(value).__name__}")
    return value


def _finite(section: dict, key: str, path: str) -> float:
    """A number field as a float. Python's json reads NaN and Infinity; they are
    refused, as are integers beyond the float range."""
    value = _require(section, key, (int, float), path)
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(path, f"must be a finite number, got {value!r:.40}")
    return float(value)


def _parse_enum(cls, value, path: str):
    try:
        return cls(value)
    except ValueError as exc:
        raise SchemaError(path, f"{value!r:.40} is not one of {[member.value for member in cls]}") from exc


def _build(cls, section: dict, prefix: str, **given):
    """``cls`` from the fields of ``section``, each read as its annotated type
    (fields in ``given`` are passed as they are). A range fault names its key."""
    values = dict(given)
    for name, hint in typing.get_type_hints(cls).items():
        if name in given:
            continue
        path = f"{prefix}.{name}"
        if hint is float:
            values[name] = _finite(section, name, path)
        elif typing.get_origin(hint) is tuple:
            values[name] = tuple(_require(section, name, list, path))
        elif issubclass(hint, Enum):
            values[name] = _parse_enum(hint, _require(section, name, str, path), path)
        else:
            values[name] = _require(section, name, hint, path)
    try:
        return cls(**values)
    except SchemaError as exc:
        raise SchemaError(f"{prefix}.{exc.key}", exc.detail) from exc


def _parse_date(section: dict, key: str, path: str) -> date | None:
    value = _require(section, key, str, path, allow_none=True)
    try:
        return None if value is None else parse_date(value)
    except ValueError as exc:
        raise SchemaError(path, f"expected a YYYY-MM-DD date, got {value!r:.40}") from exc


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
        try:
            if "periods" in fields:
                fields["periods"] = tuple(fields["periods"])
            specs.append(IndicatorSpec(**fields))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}[{i}]", str(exc)) from exc
        if specs[-1].column_name in [spec.column_name for spec in specs[:-1]]:
            raise SchemaError(f"{path}[{i}]", f"duplicate column name {specs[-1].column_name!r}")
    return specs


def resolve_config(raw: dict) -> ExperimentConfig:
    """Merge ``raw`` over the defaults and validate every field."""
    if not isinstance(raw, dict):
        raise SchemaError("<root>", "config must be a JSON object")
    merged = _merge(DEFAULTS, raw, "")

    data_sec = merged["data"]
    path = _require(data_sec, "path", str, "data.path", allow_none=True)
    start = _parse_date(data_sec, "start", "data.start")
    end = _parse_date(data_sec, "end", "data.end")
    if start is not None and end is not None and start > end:
        raise SchemaError("data.start", f"start {start} after end {end}")

    specs = _parse_specs(merged["features"]["specs"], "features.specs")

    norm_kind = _parse_enum(NormalizationKind, merged["normalization"]["kind"], "normalization.kind")
    per_family_raw = merged["normalization"]["per_family"]
    if not isinstance(per_family_raw, dict):
        raise SchemaError("normalization.per_family", "expected an object")
    per_family = {}
    for key, value in per_family_raw.items():
        if key not in KINDS:
            raise SchemaError(f"normalization.per_family.{key}", f"unknown indicator kind {key!r}")
        per_family[key] = _parse_enum(NormalizationKind, value, f"normalization.per_family.{key}")

    env_config = _build(EnvConfig, merged["env"], "env", normalization=norm_kind)

    agent_sec = merged["agent"]
    algorithm = _require(agent_sec, "algorithm", str, "agent.algorithm")
    if algorithm not in ALGORITHMS:
        raise SchemaError("agent.algorithm", f"must be one of {ALGORITHMS}, got {algorithm!r}")
    hyperparams = _build(Hyperparams, agent_sec, "agent")
    if algorithm != "DQN" and hyperparams.n_steps > hyperparams.total_timesteps:
        raise SchemaError("agent.n_steps", f"{hyperparams.n_steps} > total_timesteps {hyperparams.total_timesteps}: "
                                           f"no {algorithm} rollout would fill")

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
    try:
        raw = json.loads(file_path.read_text())
    except FileNotFoundError:
        raise SchemaError("<config>", f"config file not found: {file_path}") from None
    except OSError as exc:  # a directory, no permission
        raise SchemaError("<config>", f"config file not readable: {file_path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer longer than Python parses
        raise SchemaError("<config>", f"invalid JSON in {file_path}: {exc}") from exc
    return resolve_config(raw)
