"""Shared training plumbing: hyperparameters, exploration, training log."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Hyperparams:
    """Tuning knobs for DQN/A2C/PPO.

    Defaults follow the reference experiment block: lr 1e-4, buffer 100k,
    batch 128, gamma 0.99, target update every 1000 steps, one million
    total steps, epsilon 1.0 -> 0.05 over the first 10% of training.
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
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.buffer_size < 1:
            raise ValueError("batch_size and buffer_size must be >= 1")
        if self.batch_size > self.buffer_size:
            raise ValueError(f"batch_size {self.batch_size} > buffer_size {self.buffer_size}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.target_update_interval < 1 or self.total_timesteps < 1 or self.n_steps < 1:
            raise ValueError("intervals and step counts must be >= 1")
        if self.clip_range <= 0.0:
            raise ValueError(f"clip_range must be > 0, got {self.clip_range}")
        if not 0.0 <= self.exploration_initial <= 1.0:
            raise ValueError(f"exploration_initial must be in [0, 1], got {self.exploration_initial}")
        if not 0.0 <= self.exploration_final <= 1.0:
            raise ValueError(f"exploration_final must be in [0, 1], got {self.exploration_final}")
        if not 0.0 <= self.exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must be in [0, 1]")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")


def linear_epsilon(step: int, total_timesteps: int, initial: float = 1.0,
                   final: float = 0.05, fraction: float = 0.10) -> float:
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


@dataclass(frozen=True)
class Transition:
    """One env step; a state is an observation vector or an observation index."""

    state: np.ndarray | int
    action: int
    reward: float
    next_state: np.ndarray | int
    done: bool


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
        with open(path, "w", newline="") as handle:
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
