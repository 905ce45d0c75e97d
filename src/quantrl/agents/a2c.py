"""Synchronous advantage actor-critic with n-step rollouts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import Hyperparams, TrainingLog, TrainingRecord
from .losses import policy_gradient_loss, value_loss
from .mlp import MlpPolicy, init_mlp, mlp_forward, softmax
from .optim import make_optimizer


@dataclass
class ActorCritic:
    """Policy network plus a separate value head."""

    actor: MlpPolicy
    critic: MlpPolicy


def n_step_returns(rewards: np.ndarray, dones: np.ndarray, bootstrap: float, gamma: float) -> np.ndarray:
    """Discounted returns over a rollout, bootstrapped with V(s_T) and cut
    at episode boundaries."""
    returns = np.empty(len(rewards))
    running = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * (0.0 if dones[t] else running)
        returns[t] = running
    return returns


def sample_action(actor: MlpPolicy, obs: np.ndarray, rng: np.random.Generator) -> int:
    probs = softmax(mlp_forward(actor, obs))
    return int(rng.choice(len(probs), p=probs))


class _Rollout:
    def __init__(self, n_steps: int, obs_size: int):
        self.states = np.zeros((n_steps, obs_size))
        self.actions = np.zeros(n_steps, dtype=np.int64)
        self.rewards = np.zeros(n_steps)
        self.dones = np.zeros(n_steps, dtype=bool)
        self.fill = 0

    def add(self, state, action, reward, done) -> None:
        self.states[self.fill] = state
        self.actions[self.fill] = action
        self.rewards[self.fill] = reward
        self.dones[self.fill] = done
        self.fill += 1

    @property
    def full(self) -> bool:
        return self.fill == len(self.states)

    def clear(self) -> None:
        self.fill = 0


def train_on_policy(env_factory, hp: Hyperparams, seed: int, update) -> tuple[ActorCritic, TrainingLog]:
    """Shared A2C/PPO loop: build the nets, sample actions into n_steps
    rollouts and log episodes. Each full rollout goes to
    ``update(nets, actor_opt, critic_opt, rollout, obs, rng)``, which returns
    the loss to log; ``obs`` is the observation after the rollout."""
    env = env_factory()
    rng = np.random.default_rng(seed)
    actor = init_mlp([env.observation_size, *hp.hidden_sizes, 2], rng)
    critic = init_mlp([env.observation_size, *hp.hidden_sizes, 1], rng)
    nets = ActorCritic(actor, critic)
    actor_opt = make_optimizer(hp.optimizer, hp.learning_rate)
    critic_opt = make_optimizer(hp.optimizer, hp.learning_rate)
    log = TrainingLog()
    rollout = _Rollout(hp.n_steps, env.observation_size)
    obs = env.reset(seed).flatten()
    episode_return = 0.0
    last_loss = float("nan")
    steps = 0
    while steps < hp.total_timesteps:
        action = sample_action(actor, obs, rng)
        result = env.step(action)
        rollout.add(obs, action, result.reward, result.done)
        episode_return += result.reward
        obs = result.observation.flatten()
        steps += 1
        if result.done:
            log.append(TrainingRecord(steps, episode_return, last_loss))
            episode_return = 0.0
            obs = env.reset(seed).flatten()
        if rollout.full:
            last_loss = update(nets, actor_opt, critic_opt, rollout, obs, rng)
            rollout.clear()
    return nets, log


def a2c_train(env_factory, hyperparams: Hyperparams, seed: int) -> tuple[ActorCritic, TrainingLog]:
    """Collect n_steps transitions, then one synchronous update of both nets."""
    hp = hyperparams

    def update(nets, actor_opt, critic_opt, rollout, obs, rng) -> float:
        bootstrap = float(mlp_forward(nets.critic, obs)[0])
        returns = n_step_returns(rollout.rewards, rollout.dones, bootstrap, hp.gamma)
        values = mlp_forward(nets.critic, rollout.states)[:, 0]
        advantages = returns - values
        actor_loss, actor_grads = policy_gradient_loss(
            nets.actor, rollout.states, rollout.actions, advantages, hp.entropy_coef
        )
        critic_loss, critic_grads = value_loss(nets.critic, rollout.states, returns)
        actor_opt.update(nets.actor.flat, actor_grads)
        critic_opt.update(nets.critic.flat, critic_grads * hp.value_coef)
        return actor_loss + hp.value_coef * critic_loss

    return train_on_policy(env_factory, hp, seed, update)
