"""Differentiable losses for the policy-gradient algorithms.

Each function returns (scalar loss, parameter gradients) and is a pure
function of the network parameters and its fixed inputs, so the analytic
gradients can be validated against central finite differences. Given a
``workspace``, the forward and backward passes run in its buffers and the
returned gradients are its gradient buffer, valid until its next call.
"""

from __future__ import annotations

import numpy as np

from .mlp import MlpPolicy, Workspace, forward_cached, log_softmax, mlp_backward


def policy_gradient_loss(actor: MlpPolicy, states: np.ndarray, actions: np.ndarray,
                         advantages: np.ndarray, entropy_coef: float, workspace: Workspace | None = None):
    """-mean(log pi(a|s) * A) - entropy_coef * mean(H); advantages fixed."""
    logits, cache = forward_cached(actor, states, workspace)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    batch = len(actions)
    rows = np.arange(batch)
    logp_taken = logp[rows, actions]
    entropy = -(probs * logp).sum(axis=1)
    loss = float(-(logp_taken * advantages).mean() - entropy_coef * entropy.mean())
    one_hot = np.zeros_like(logits)
    one_hot[rows, actions] = 1.0
    grad_logits = -(advantages[:, None] * (one_hot - probs)) / batch
    grad_logits += entropy_coef * probs * (logp + entropy[:, None]) / batch
    return loss, mlp_backward(actor, cache, grad_logits, workspace)


def value_loss(critic: MlpPolicy, states: np.ndarray, returns: np.ndarray, workspace: Workspace | None = None):
    """Mean squared error between the value head and the target returns."""
    values, cache = forward_cached(critic, states, workspace)
    delta = values[:, 0] - returns
    loss = float(np.add.reduce(delta * delta) / len(delta))
    grad_out = np.zeros_like(values)
    grad_out[:, 0] = 2.0 * delta / len(returns)
    return loss, mlp_backward(critic, cache, grad_out, workspace)


def ppo_policy_loss(actor: MlpPolicy, states: np.ndarray, actions: np.ndarray,
                    logp_old: np.ndarray, advantages: np.ndarray,
                    clip_range: float, entropy_coef: float, workspace: Workspace | None = None):
    """Clipped-surrogate loss: -mean(min(rho*A, clip(rho)*A)) - entropy bonus.

    rho = pi_new(a|s) / pi_old(a|s); gradients flow through rho only where
    the unclipped branch is active (surr1 <= surr2).
    """
    logits, cache = forward_cached(actor, states, workspace)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    batch = len(actions)
    rows = np.arange(batch)
    ratio = np.exp(logp[rows, actions] - logp_old)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * advantages
    entropy = -(probs * logp).sum(axis=1)
    loss = float(-np.minimum(surr1, surr2).mean() - entropy_coef * entropy.mean())
    active = surr1 <= surr2
    one_hot = np.zeros_like(logits)
    one_hot[rows, actions] = 1.0
    grad_ratio = np.where(active, advantages, 0.0) * ratio
    grad_logits = -(grad_ratio[:, None] * (one_hot - probs)) / batch
    grad_logits += entropy_coef * probs * (logp + entropy[:, None]) / batch
    return loss, mlp_backward(actor, cache, grad_logits, workspace)
