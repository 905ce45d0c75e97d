"""Proximal policy optimization: clipped surrogate over GAE advantages."""

from __future__ import annotations

import numpy as np

from .a2c import ActorCritic, actor_critic_step, train_on_policy
from .common import Hyperparams, TrainingLog
from .losses import ppo_policy_loss
from .mlp import log_softmax, mlp_forward


def gae_advantages(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                   last_value: float, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation; returns (advantages, value targets)."""
    n = len(rewards)
    advantages = np.empty(n)
    running = 0.0
    for t in range(n - 1, -1, -1):
        next_value = last_value if t == n - 1 else values[t + 1]
        not_done = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        running = delta + gamma * lam * not_done * running
        advantages[t] = running
    return advantages, advantages + values


def ppo_train(env_factory, hyperparams: Hyperparams, seed: int) -> tuple[ActorCritic, TrainingLog]:
    """n_steps rollouts optimized for n_epochs of shuffled minibatches."""
    hp = hyperparams
    minibatch = min(hp.batch_size, hp.n_steps)

    def update(actor, critic, rollout, obs, rng) -> float:
        values = mlp_forward(critic.net, rollout.states)[:, 0]
        last_value = float(mlp_forward(critic.net, obs)[0])
        advantages, returns = gae_advantages(
            rollout.rewards, values, rollout.dones, last_value, hp.gamma, hp.gae_lambda
        )
        logp_old = log_softmax(mlp_forward(actor.net, rollout.states))[
            np.arange(hp.n_steps), rollout.actions
        ]
        for _ in range(hp.n_epochs):
            order = rng.permutation(hp.n_steps)
            for lo in range(0, hp.n_steps, minibatch):
                idx = order[lo : lo + minibatch]
                states = rollout.states[idx]
                actor_update = ppo_policy_loss(
                    actor.net, states, rollout.actions[idx],
                    logp_old[idx], advantages[idx], hp.clip_range, hp.entropy_coef, actor.workspace,
                )
                loss = actor_critic_step(actor, critic, actor_update, states, returns[idx], hp.value_coef)
        return loss

    return train_on_policy(env_factory, hp, seed, update, minibatch)
