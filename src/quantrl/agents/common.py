"""Shared training plumbing: hyperparameters, learners, exploration, training log."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from ..errors import SchemaError
from .mlp import MlpPolicy, Workspace
from .optim import make_optimizer


@dataclass(frozen=True)
class Hyperparams:
    """Tuning knobs for DQN/A2C/PPO.

    The field defaults are the reference experiment block and the config's
    ``agent`` defaults. Epsilon anneals from exploration_initial to
    exploration_final over the first exploration_fraction of training.
    """

    learning_rate: float = 1e-4
    buffer_size: int = 100_000
    batch_size: int = 128
    gamma: float = 0.99
    target_update_interval: int = 1000
    total_timesteps: int = 1_000_000
    exploration_initial: float = 1.0
    exploration_final: float = 0.05
    exploration_fraction: float = 0.10
    n_steps: int = 64
    clip_range: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    gae_lambda: float = 0.95
    n_epochs: int = 10
    optimizer: str = "sgd"
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise SchemaError("learning_rate", f"must be > 0, got {self.learning_rate!r:.40}")
        for name in ("buffer_size", "batch_size", "target_update_interval", "total_timesteps", "n_steps", "n_epochs"):
            if getattr(self, name) < 1:
                raise SchemaError(name, f"must be >= 1, got {getattr(self, name)!r:.40}")
        if self.batch_size > self.buffer_size:
            raise SchemaError("batch_size", f"{self.batch_size!r:.40} > buffer_size {self.buffer_size!r:.40}")
        for name in ("gamma", "exploration_initial", "exploration_final", "exploration_fraction", "gae_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise SchemaError(name, f"must be in [0, 1], got {getattr(self, name)!r:.40}")
        if self.clip_range <= 0.0:
            raise SchemaError("clip_range", f"must be > 0, got {self.clip_range!r:.40}")
        if self.optimizer not in ("sgd", "adam"):
            raise SchemaError("optimizer", f"must be 'sgd' or 'adam', got {self.optimizer!r:.40}")
        if not self.hidden_sizes or not all(type(h) is int and 1 <= h <= 4096 for h in self.hidden_sizes):
            raise SchemaError("hidden_sizes", f"must be non-empty ints in [1, 4096], got {self.hidden_sizes!r:.60}")


class Learner:
    """One network's optimizer and the workspace its loss runs in."""

    def __init__(self, net: MlpPolicy, hp: Hyperparams, rows: int):
        self.net = net
        self.optimizer = make_optimizer(hp.optimizer, hp.learning_rate)
        self.workspace = Workspace(net, rows)

    def step(self, grads: np.ndarray) -> None:
        self.optimizer.update(self.net.flat, grads)


def linear_epsilon(step: int, total_timesteps: int, initial: float, final: float, fraction: float) -> float:
    """Linear anneal: epsilon(0) = initial, epsilon(t >= fraction*T) = final."""
    decay_steps = fraction * total_timesteps
    if step >= decay_steps or decay_steps == 0:
        return final
    return initial + (final - initial) * (step / decay_steps)


def exploratory_action(epsilon: float, n_actions: int, rng: np.random.Generator) -> int | None:
    """The uniform random action of an epsilon-greedy step, or None when
    the step is greedy. Draws rng.random() only for epsilon > 0."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return None


def epsilon_greedy(action_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Uniform random action with probability epsilon, else argmax
    (ties resolve to the lowest index)."""
    values = np.asarray(action_values, dtype=float).ravel()
    action = exploratory_action(epsilon, len(values), rng)
    return int(np.argmax(values)) if action is None else action


BLOCK_ROWS = 128  # rows per forward pass of a frozen network: whole 8-row gemm tiles


def row_values(env, evaluate, lo: int, hi: int) -> np.ndarray:
    """``evaluate`` (a frozen network's per-row values) over the env's
    observation rows ``lo..hi-1``, clipped at the last row like a slice, in
    ``BLOCK_ROWS``-row blocks. Each block is gathered by ``env.observations``
    into the leading rows of one zero-filled buffer, its rows past the range
    are zeroed, and its rows rounded up to a multiple of 8 are evaluated, so
    every row sits in a whole gemm row tile and its value is the same bits
    whichever block, or padded table, it is evaluated in. An empty range gives
    an empty array. Greedy backtests and on-policy rollout segments pass
    ``env.rows_ahead``."""
    hi = max(lo, min(hi, env.observation_count))
    buffer = np.zeros((min(BLOCK_ROWS, -(-(hi - lo) // 8) * 8), env.observation_size))
    values = []
    for start in range(lo, hi, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, hi - start)
        env.observations(np.arange(start, start + rows), out=buffer[:rows])
        tiles = -(-rows // 8) * 8
        buffer[rows:tiles] = 0.0
        values.append(evaluate(buffer[:tiles])[:rows])
    return np.concatenate(values) if values else np.empty(0)


@dataclass(frozen=True)
class TrainingRecord:
    timestep: int
    episode_return: float
    loss: float
    epsilon: float | None = None
    eval_return: float | None = None


@dataclass
class TrainingLog:
    records: list[TrainingRecord] = field(default_factory=list)

    def append(self, record: TrainingRecord) -> None:
        if self.records and record.timestep <= self.records[-1].timestep:
            raise ValueError("timesteps must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path: str | Path) -> None:
        with atomic_open(path) as handle:
            writer = csv.writer(handle)
            writer.writerow(["timestep", "episode_return", "loss", "epsilon", "eval_return"])
            for r in self.records:
                writer.writerow([
                    r.timestep,
                    repr(r.episode_return),
                    repr(r.loss),
                    "" if r.epsilon is None else repr(r.epsilon),
                    "" if r.eval_return is None else repr(r.eval_return),
                ])
