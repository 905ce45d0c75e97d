"""Deep Q-learning with experience replay and a periodically synced target.

One gradient step per env step once the buffer holds batch_size
transitions; the target network is copied from the online network every
target_update_interval env steps.
"""

from __future__ import annotations

import numpy as np

from .common import Hyperparams, TrainingLog, TrainingRecord, Transition, exploratory_action, linear_epsilon
from .mlp import MlpPolicy, forward_cached, init_mlp, mlp_backward, mlp_forward
from .optim import make_optimizer
from .replay import Batch, ReplayBuffer


def td_targets(rewards: np.ndarray, dones: np.ndarray, next_q_max: np.ndarray, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'), cut off at episode ends."""
    return rewards + gamma * np.where(dones, 0.0, next_q_max)


def td_loss_and_grads(online: MlpPolicy, target: MlpPolicy, batch: Batch, gamma: float):
    """Mean squared TD error and its gradients w.r.t. the online network."""
    q_all, cache = forward_cached(online, batch.states)
    q_taken = q_all[np.arange(len(batch.actions)), batch.actions]
    next_q_max = mlp_forward(target, batch.next_states).max(axis=1)
    y = td_targets(batch.rewards, batch.dones, next_q_max, gamma)
    delta = q_taken - y
    loss = float(np.mean(delta * delta))
    grad_out = np.zeros_like(q_all)
    grad_out[np.arange(len(batch.actions)), batch.actions] = 2.0 * delta / len(batch.actions)
    return loss, mlp_backward(online, cache, grad_out)


class DqnTrainer:
    """Stepwise DQN driver; exposes the online/target networks for tests."""

    def __init__(self, env, hyperparams: Hyperparams, seed: int):
        self.env = env
        self.hp = hyperparams
        self.rng = np.random.default_rng(seed)
        sizes = [env.observation_size, *hyperparams.hidden_sizes, 2]
        self.policy = init_mlp(sizes, self.rng)
        self.target = self.policy.copy()
        self.buffer = ReplayBuffer(hyperparams.buffer_size)
        self.optimizer = make_optimizer(hyperparams.optimizer, hyperparams.learning_rate)
        self.log = TrainingLog()
        self.step_count = 0
        self.last_loss = float("nan")
        self._episode_return = 0.0
        self._seed = seed
        self._obs = env.reset(seed).flatten()

    @property
    def epsilon(self) -> float:
        return linear_epsilon(
            self.step_count,
            self.hp.total_timesteps,
            self.hp.exploration_initial,
            self.hp.exploration_final,
            self.hp.exploration_fraction,
        )

    def train_step(self) -> None:
        eps = self.epsilon
        action = exploratory_action(eps, self.policy.output_size, self.rng)
        if action is None:
            action = int(np.argmax(mlp_forward(self.policy, self._obs)))
        result = self.env.step(action)
        next_obs = result.observation.flatten()
        self.buffer.push(Transition(self._obs, action, result.reward, next_obs, result.done))
        self._episode_return += result.reward
        self._obs = next_obs
        self.step_count += 1
        if len(self.buffer) >= self.hp.batch_size:
            batch = self.buffer.sample(self.hp.batch_size, self.rng)
            loss, grads = td_loss_and_grads(self.policy, self.target, batch, self.hp.gamma)
            self.optimizer.update(self.policy.flat, grads)
            self.last_loss = loss
        if self.step_count % self.hp.target_update_interval == 0:
            self.target = self.policy.copy()
        if result.done:
            self.log.append(TrainingRecord(self.step_count, self._episode_return, self.last_loss, eps))
            self._episode_return = 0.0
            self._obs = self.env.reset(self._seed).flatten()

    def run(self) -> TrainingLog:
        while self.step_count < self.hp.total_timesteps:
            self.train_step()
        return self.log


def dqn_train(env_factory, hyperparams: Hyperparams, seed: int) -> tuple[MlpPolicy, TrainingLog]:
    """Train for total_timesteps env steps, looping episodes as needed."""
    trainer = DqnTrainer(env_factory(), hyperparams, seed)
    log = trainer.run()
    return trainer.policy, log
