"""Run manifest: config hash, artifact paths, timestamps, software version and
the numerical environment the artifacts were computed in."""

from __future__ import annotations

import ctypes
import json
import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..atomic import atomic_open

BLAS_FIELDS = ("name", "version", "openblas configuration")


CORENAME_FUNCTIONS = tuple(
    f"{prefix}_get_corename{suffix}" for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


def blas_corename() -> str:
    """The kernel OpenBLAS picked at run time (e.g. "SkylakeX"), which can differ
    from the one its build string names; read through ctypes from the OpenBLAS
    library this process loaded (found in /proc/self/maps). Empty when there is
    no such library or it exports none of CORENAME_FUNCTIONS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    except OSError:
        return ""
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in CORENAME_FUNCTIONS:
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return (corename() or b"").decode()
    return ""


def numerical_environment() -> dict:
    """What the artifacts' bytes can depend on besides the config and seed: the
    Python and numpy versions, the BLAS build and runtime kernel, and
    OPENBLAS_CORETYPE and the *_NUM_THREADS variables when they are set. Never
    part of the config hash."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 prints its config and has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**{key: blas[key] for key in BLAS_FIELDS if key in blas}, "corename": blas_corename()},
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
        with atomic_open(path) as handle:
            handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
