"""Deep Q-learning with experience replay and a periodically synced target.

One gradient step per env step once the buffer holds batch_size
transitions; the target network is copied from the online network every
target_update_interval env steps.

An observation is a function of the env's cursor and position, so the
replay buffer stores observation rows (``env.observation_index``) and no
observation is kept: each batch is gathered with ``env.observations`` into
one preallocated buffer, and max_a Q_target is evaluated for every row once
per target sync, by ``common.row_values``, instead of over each batch.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SchemaError, TrainingDiverged
from .common import Hyperparams, Learner, TrainingLog, TrainingRecord, exploratory_action, linear_epsilon, row_values
from .losses import squared_error_loss
from .mlp import MlpPolicy, init_mlp, mlp_forward
from .replay import Batch, ReplayBuffer


def td_targets(rewards: np.ndarray, dones: np.ndarray, next_q_max: np.ndarray, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'), cut off at episode ends."""
    return rewards + gamma * np.where(dones, 0.0, next_q_max)


def td_loss_and_grads(online: MlpPolicy, target: MlpPolicy, batch: Batch, gamma: float):
    """Mean squared TD error and its gradients w.r.t. the online network."""
    next_q_max = mlp_forward(target, batch.next_states).max(axis=1)
    y = td_targets(batch.rewards, batch.dones, next_q_max, gamma)
    return squared_error_loss(online, batch.states, batch.actions, y)


class DqnTrainer:
    """Stepwise DQN driver; exposes the online/target networks for tests."""

    def __init__(self, env, hyperparams: Hyperparams, seed: int):
        self.env = env
        self.hp = hyperparams
        self.rng = np.random.default_rng(seed)
        sizes = [env.observation_size, *hyperparams.hidden_sizes, 2]
        self.policy = init_mlp(sizes, self.rng)
        self.target = self.policy.copy()
        self._target_q_max()
        # The ring never holds more than total_timesteps transitions, so a larger
        # batch is never sampled. numpy refuses an array too large with
        # MemoryError or ValueError.
        try:
            self.buffer = ReplayBuffer(min(hyperparams.buffer_size, hyperparams.total_timesteps))
        except (MemoryError, ValueError) as exc:
            raise SchemaError("agent.buffer_size", f"the replay ring cannot be allocated: {exc}") from exc
        try:
            batch_rows = min(hyperparams.batch_size, hyperparams.total_timesteps)
            self.learner = Learner(self.policy, hyperparams, batch_rows)
            self._states = np.empty((batch_rows, env.observation_size))
        except (MemoryError, ValueError) as exc:
            raise SchemaError("agent.batch_size", f"the learn-step workspace cannot be allocated: {exc}") from exc
        self.log = TrainingLog()
        self.step_count = 0
        self.last_loss = float("nan")
        self._episode_return = 0.0
        env.reset()
        self._obs_index = env.observation_index

    @property
    def epsilon(self) -> float:
        return linear_epsilon(
            self.step_count,
            self.hp.total_timesteps,
            self.hp.exploration_initial,
            self.hp.exploration_final,
            self.hp.exploration_fraction,
        )

    def _target_q_max(self) -> None:
        """Set ``next_q_max`` to max_a Q_target(s, a) for every observation row."""
        self.next_q_max = row_values(self.env, lambda rows: mlp_forward(self.target, rows).max(axis=1),
                                     0, self.env.observation_count)

    def train_step(self) -> None:
        eps = self.epsilon
        action = exploratory_action(eps, self.policy.output_size, self.rng)
        if action is None:
            action = int(mlp_forward(self.policy, self.env.observations(self._obs_index)).argmax())
        result = self.env.step(action)
        next_index = self.env.observation_index
        self.buffer.push(self._obs_index, action, result.reward, next_index, result.done)
        self._episode_return += result.reward
        self._obs_index = next_index
        self.step_count += 1
        if len(self.buffer) >= self.hp.batch_size:
            batch = self.buffer.sample(self.hp.batch_size, self.rng)
            y = td_targets(batch.rewards, batch.dones, self.next_q_max[batch.next_states], self.hp.gamma)
            states = self.env.observations(batch.states, out=self._states)
            loss, grads = squared_error_loss(self.policy, states, batch.actions, y, self.learner.workspace)
            if not math.isfinite(loss):
                raise TrainingDiverged(self.step_count, loss)
            self.learner.step(grads)
            self.last_loss = loss
        if self.step_count % self.hp.target_update_interval == 0:
            self.target = self.policy.copy()
            self._target_q_max()
        if result.done:
            self.log.append(TrainingRecord(self.step_count, self._episode_return, self.last_loss, eps))
            self._episode_return = 0.0
            self.env.reset()
            self._obs_index = self.env.observation_index

    def run(self) -> TrainingLog:
        while self.step_count < self.hp.total_timesteps:
            self.train_step()
        return self.log


def dqn_train(env_factory, hyperparams: Hyperparams, seed: int) -> tuple[MlpPolicy, TrainingLog]:
    """Train for total_timesteps env steps, looping episodes as needed."""
    trainer = DqnTrainer(env_factory(), hyperparams, seed)
    log = trainer.run()
    return trainer.policy, log
