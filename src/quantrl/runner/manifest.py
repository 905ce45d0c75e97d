"""Run manifest: config hash, artifact paths, timestamps, software version and
the numerical environment the artifacts were computed in."""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

BLAS_FIELDS = ("name", "version", "openblas configuration")


def numerical_environment() -> dict:
    """What the artifacts' bytes can depend on besides the config and seed: the
    Python and numpy versions, the BLAS build, and OPENBLAS_CORETYPE and the
    *_NUM_THREADS variables when they are set. Never part of the config hash."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 prints its config and has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas[key] for key in BLAS_FIELDS if key in blas},
        "variables": {
            key: value for key, value in sorted(os.environ.items())
            if key == "OPENBLAS_CORETYPE" or key.endswith("_NUM_THREADS")
        },
    }


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    artifacts: dict[str, str]
    created_at: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    version: str = ""
    environment: dict = field(default_factory=numerical_environment)

    def write(self, path: str | Path) -> None:
        data = {
            "config_hash": self.config_hash,
            "artifacts": self.artifacts,
            "created_at": self.created_at,
            "version": self.version,
            "environment": self.environment,
        }
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        return cls(
            config_hash=data["config_hash"],
            artifacts=data["artifacts"],
            created_at=data["created_at"],
            version=data.get("version", ""),
            environment=data.get("environment", {}),
        )
