"""Synchronous advantage actor-critic with n-step rollouts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError, TrainingDiverged
from .common import Hyperparams, Learner, TrainingLog, TrainingRecord, row_values
from .losses import policy_gradient_loss, value_loss
from .mlp import MlpPolicy, init_mlp, mlp_forward, softmax


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
    """Draw Sell (0) or Buy (1) from softmax(actor(obs)) with one rng.random().

    This is the inverse-CDF rule of ``rng.choice(2, p=probs)`` (cumsum, divide
    by the last entry, searchsorted right), so actions and generator state match
    it draw for draw. Raises ValueError when the probabilities are not finite.
    ``train_on_policy`` applies the same rule to a rollout segment at once.
    """
    threshold = float(sell_thresholds(actor, obs[None])[0])
    if math.isnan(threshold):
        raise ValueError("action probabilities are not finite")
    return int(rng.random() >= threshold)


def sell_thresholds(actor: MlpPolicy, rows: np.ndarray) -> np.ndarray:
    """Per observation row, the threshold p0 / (p0 + p1) of softmax(actor(row)):
    a draw u in [0, 1) picks Buy (1) when u >= threshold."""
    probs = softmax(mlp_forward(actor, rows))
    return probs[:, 0] / (probs[:, 0] + probs[:, 1])


class _Rollout:
    """n_steps transitions, written a segment at a time: the observation row
    each step acted from and, last, the row of the observation after the
    rollout; the steps' actions, rewards and episode ends; and, once the
    rollout is full, ``states``, the steps' observations gathered at once."""

    def __init__(self, n_steps: int):
        self.rows = np.zeros(n_steps + 1, dtype=np.intp)
        self.actions = np.zeros(n_steps, dtype=np.int64)
        self.rewards = np.zeros(n_steps)
        self.dones = np.zeros(n_steps, dtype=bool)
        self.states = None


def train_on_policy(env_factory, hp: Hyperparams, seed: int, update,
                    batch_rows: int | None = None) -> tuple[ActorCritic, TrainingLog]:
    """Shared A2C/PPO loop: build the nets, sample actions into n_steps
    rollouts and log episodes. Each full rollout goes to
    ``update(actor, critic, rollout, obs, rng)``, which returns the loss to
    log; ``actor`` and ``critic`` are the nets' Learners, whose workspaces take
    batches of up to ``batch_rows`` rows (default n_steps), and ``obs`` is
    the observation after the rollout. Non-finite action probabilities on a
    row a step acts from, or a non-finite loss, raise TrainingDiverged.

    The actor is frozen between updates, so a rollout is collected like a
    greedy backtest, in segments that end at the rollout's end, the episode's
    end or total_timesteps. Per segment of n steps, ``row_values`` evaluates
    ``sell_thresholds`` once over ``env.rows_ahead(n)``, ``rng.random(n)``
    draws the steps' values, ``env.walk`` follows ``sample_action``'s rule
    and ``env.replay`` takes the path."""
    env = env_factory()
    rng = np.random.default_rng(seed)
    actor = init_mlp([env.observation_size, *hp.hidden_sizes, 2], rng)
    critic = init_mlp([env.observation_size, *hp.hidden_sizes, 1], rng)
    rows = hp.n_steps if batch_rows is None else batch_rows
    try:  # the rollout, and A2C's workspaces, hold n_steps rows
        rollout = _Rollout(hp.n_steps)
        actor_learner, critic_learner = Learner(actor, hp, rows), Learner(critic, hp, rows)
    except (MemoryError, ValueError) as exc:  # numpy's refusals of an array too large
        raise SchemaError("agent.n_steps", f"the rollout cannot be allocated: {exc}") from exc
    log = TrainingLog()
    env.reset()
    episode_return = 0.0
    last_loss = float("nan")
    steps = fill = 0
    while steps < hp.total_timesteps:
        n = min(hp.n_steps - fill, env.steps_left, hp.total_timesteps - steps)
        lo, hi = env.rows_ahead(n)
        thresholds = row_values(env, lambda block: sell_thresholds(actor, block), lo, hi)
        decisions = np.repeat(rng.random(n), (hi - lo) // n) >= thresholds
        visited = env.walk(decisions)
        diverged = np.isnan(thresholds[visited])
        if diverged.any():
            raise TrainingDiverged(steps + int(diverged.argmax()) + 1, float("nan"))
        path = decisions[visited]
        env.replay(path)
        rewards = env.ledger.rewards[-n:]
        end = fill + n
        rollout.rows[fill:end] = lo + visited
        rollout.actions[fill:end] = path
        rollout.rewards[fill:end] = rewards
        rollout.dones[fill:end] = False
        rollout.dones[end - 1] = env.done
        steps, fill = steps + n, end
        for reward in rewards:  # not sum(): it is compensated from Python 3.12 on
            episode_return += reward
        if env.done:
            log.append(TrainingRecord(steps, episode_return, last_loss))
            episode_return = 0.0
            env.reset()
        if fill == hp.n_steps:
            rollout.rows[fill] = env.observation_index
            observations = env.observations(rollout.rows)
            rollout.states = observations[:-1]
            last_loss = update(actor_learner, critic_learner, rollout, observations[-1], rng)
            if not math.isfinite(last_loss):
                raise TrainingDiverged(steps, last_loss)
            fill = 0
    return ActorCritic(actor, critic), log


def actor_critic_step(actor: Learner, critic: Learner, actor_update: tuple[float, np.ndarray],
                      states: np.ndarray, returns: np.ndarray, value_coef: float) -> float:
    """Apply the actor's (loss, gradients), fit the critic to ``returns`` with
    its gradients scaled by value_coef, and return the combined loss."""
    actor_loss, actor_grads = actor_update
    critic_loss, critic_grads = value_loss(critic.net, states, returns, critic.workspace)
    actor.step(actor_grads)
    critic_grads *= value_coef
    critic.step(critic_grads)
    return actor_loss + value_coef * critic_loss


def a2c_train(env_factory, hyperparams: Hyperparams, seed: int) -> tuple[ActorCritic, TrainingLog]:
    """Collect n_steps transitions, then one synchronous update of both nets."""
    hp = hyperparams

    def update(actor, critic, rollout, obs, rng) -> float:
        bootstrap = float(mlp_forward(critic.net, obs)[0])
        returns = n_step_returns(rollout.rewards, rollout.dones, bootstrap, hp.gamma)
        advantages = returns - mlp_forward(critic.net, rollout.states)[:, 0]
        actor_update = policy_gradient_loss(
            actor.net, rollout.states, rollout.actions, advantages, hp.entropy_coef, actor.workspace
        )
        return actor_critic_step(actor, critic, actor_update, rollout.states, returns, hp.value_coef)

    return train_on_policy(env_factory, hp, seed, update)
