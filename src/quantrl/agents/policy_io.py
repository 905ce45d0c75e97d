"""Binary policy persistence.

Layout (all little-endian): 4-byte magic ``QRLP``, uint32 format version,
uint32 layer count L, (L+1) uint32 layer sizes, then the policy's flat
parameter vector as float64 (layout in the ``mlp`` module docstring).
The round trip is bit-exact on parameters.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from ..errors import CorruptFile
from .mlp import MlpPolicy, param_count

MAGIC = b"QRLP"
FORMAT_VERSION = 1


def save_policy(policy: MlpPolicy, path: str | Path) -> None:
    sizes = policy.layer_sizes
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(policy.weights))]
    parts.append(struct.pack(f"<{len(sizes)}I", *sizes))
    parts.append(policy.flat.astype("<f8").tobytes())
    with atomic_open(path, "wb") as handle:
        handle.write(b"".join(parts))


def load_policy(path: str | Path) -> MlpPolicy:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version, n_layers = struct.unpack_from("<II", data, 4)
    if version != FORMAT_VERSION:
        raise CorruptFile(f"{path}: unsupported format version {version}")
    if n_layers < 1:
        raise CorruptFile(f"{path}: header declares {n_layers} layers")
    offset = 12
    if len(data) < offset + 4 * (n_layers + 1):
        raise CorruptFile(f"{path}: truncated header")
    sizes = struct.unpack_from(f"<{n_layers + 1}I", data, offset)
    offset += 4 * (n_layers + 1)
    if any(s < 1 for s in sizes):
        raise CorruptFile(f"{path}: zero-sized layer in header {sizes}")
    expected = offset + 8 * param_count(sizes)
    if len(data) != expected:
        raise CorruptFile(f"{path}: payload {len(data)} bytes, header implies {expected}")
    flat = np.frombuffer(data, dtype="<f8", offset=offset)
    if not np.isfinite(flat).all():
        raise CorruptFile(f"{path}: non-finite parameters")
    return MlpPolicy.from_flat(sizes, flat)
