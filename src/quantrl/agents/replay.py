"""Fixed-capacity experience replay with uniform seeded sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BufferTooSmall


@dataclass(frozen=True)
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray


class ReplayBuffer:
    """Ring buffer of transitions; the oldest entry is evicted at capacity.

    Sampling is uniform with replacement from the stored transitions,
    driven by the caller's generator. States are observation rows
    (``TradingEnv.observation_index``).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.insertions = 0
        self._states = np.zeros(capacity, dtype=np.intp)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=float)
        self._next_states = np.zeros(capacity, dtype=np.intp)
        self._dones = np.zeros(capacity, dtype=bool)

    def __len__(self) -> int:
        return min(self.insertions, self.capacity)

    def push(self, state: int, action: int, reward: float, next_state: int, done: bool) -> None:
        slot = self.insertions % self.capacity
        self._states[slot] = state
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._next_states[slot] = next_state
        self._dones[slot] = done
        self.insertions += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        size = len(self)
        if size < batch_size:
            raise BufferTooSmall(f"buffer holds {size} < batch {batch_size}")
        idx = rng.integers(size, size=batch_size)
        return Batch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
            dones=self._dones[idx],
        )
