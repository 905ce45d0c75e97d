"""Deep Q-learning with experience replay and a periodically synced target.

One gradient step per env step once the buffer holds batch_size
transitions; the target network is copied from the online network every
target_update_interval env steps.

An observation is a function of the env's cursor and position, so the
trainer keeps the env's table of every observation, the replay buffer
stores row indices into it, and max_a Q_target is evaluated over the whole
table once per target sync instead of over each batch.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SchemaError, TrainingDiverged
from .common import Hyperparams, TrainingLog, TrainingRecord, exploratory_action, linear_epsilon
from .mlp import MlpPolicy, Workspace, forward_cached, init_mlp, mlp_backward, mlp_forward
from .optim import make_optimizer
from .replay import Batch, ReplayBuffer


def td_targets(rewards: np.ndarray, dones: np.ndarray, next_q_max: np.ndarray, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'), cut off at episode ends."""
    return rewards + gamma * np.where(dones, 0.0, next_q_max)


def q_loss_and_grads(online: MlpPolicy, states: np.ndarray, actions: np.ndarray, targets: np.ndarray,
                     workspace: Workspace | None = None):
    """Mean squared error of Q_online(s, a) against fixed targets y, and its
    gradients w.r.t. the online network. Given a ``workspace``, the gradients
    are its gradient buffer, valid until its next call."""
    q_all, cache = forward_cached(online, states, workspace)
    rows = np.arange(len(actions))
    delta = q_all[rows, actions] - targets
    loss = float(np.add.reduce(delta * delta) / len(delta))
    grad_out = np.zeros_like(q_all)
    grad_out[rows, actions] = 2.0 * delta / len(actions)
    return loss, mlp_backward(online, cache, grad_out, workspace)


def td_loss_and_grads(online: MlpPolicy, target: MlpPolicy, batch: Batch, gamma: float):
    """Mean squared TD error and its gradients w.r.t. the online network."""
    next_q_max = mlp_forward(target, batch.next_states).max(axis=1)
    y = td_targets(batch.rewards, batch.dones, next_q_max, gamma)
    return q_loss_and_grads(online, batch.states, batch.actions, y)


class DqnTrainer:
    """Stepwise DQN driver; exposes the online/target networks for tests."""

    def __init__(self, env, hyperparams: Hyperparams, seed: int):
        self.env = env
        self.hp = hyperparams
        self.rng = np.random.default_rng(seed)
        sizes = [env.observation_size, *hyperparams.hidden_sizes, 2]
        self.policy = init_mlp(sizes, self.rng)
        self.target = self.policy.copy()
        table = env.observation_table()
        # Zero rows pad the table to a multiple of 8 rows so that every real row
        # sits in a full gemm row tile; rows of a partial tile can round
        # differently from the same rows in a per-batch forward pass.
        self.observations = np.pad(table, ((0, -len(table) % 8), (0, 0)))
        self.next_q_max = self._target_q_max()
        # The ring never holds more than total_timesteps transitions, so a larger
        # batch is never sampled. numpy refuses an array too large with
        # MemoryError or ValueError.
        try:
            self.buffer = ReplayBuffer(min(hyperparams.buffer_size, hyperparams.total_timesteps))
        except (MemoryError, ValueError) as exc:
            raise SchemaError("agent.buffer_size", f"the replay ring cannot be allocated: {exc}") from exc
        try:
            self.workspace = Workspace(self.policy, min(hyperparams.batch_size, hyperparams.total_timesteps))
        except (MemoryError, ValueError) as exc:
            raise SchemaError("agent.batch_size", f"the learn-step workspace cannot be allocated: {exc}") from exc
        self.optimizer = make_optimizer(hyperparams.optimizer, hyperparams.learning_rate)
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

    def _target_q_max(self) -> np.ndarray:
        """max_a Q_target(s, a) for every row of the observation table."""
        return mlp_forward(self.target, self.observations).max(axis=1)

    def train_step(self) -> None:
        eps = self.epsilon
        action = exploratory_action(eps, self.policy.output_size, self.rng)
        if action is None:
            action = int(mlp_forward(self.policy, self.observations[self._obs_index]).argmax())
        result = self.env.step(action)
        next_index = self.env.observation_index
        self.buffer.push(self._obs_index, action, result.reward, next_index, result.done)
        self._episode_return += result.reward
        self._obs_index = next_index
        self.step_count += 1
        if len(self.buffer) >= self.hp.batch_size:
            batch = self.buffer.sample(self.hp.batch_size, self.rng)
            y = td_targets(batch.rewards, batch.dones, self.next_q_max[batch.next_states], self.hp.gamma)
            loss, grads = q_loss_and_grads(
                self.policy, self.observations[batch.states], batch.actions, y, self.workspace
            )
            if not math.isfinite(loss):
                raise TrainingDiverged(self.step_count, loss)
            self.optimizer.update(self.policy.flat, grads)
            self.last_loss = loss
        if self.step_count % self.hp.target_update_interval == 0:
            self.target = self.policy.copy()
            self.next_q_max = self._target_q_max()
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
