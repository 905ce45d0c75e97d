"""Differentiable losses for DQN and the policy-gradient algorithms.

Two rules: the squared error of one chosen output per row (the DQN Q-value
and the critic's value) and the softmax-policy loss (A2C's policy gradient
and PPO's clipped surrogate). Each function returns (scalar loss, parameter
gradients) and is a pure function of the network parameters and its fixed
inputs, so the analytic gradients can be validated against central finite
differences. Given a ``workspace``, the forward and backward passes, the
row index and the output gradient use its buffers and the returned gradients
are its gradient buffer, valid until its next call; without one, each call
builds a fresh workspace.
"""

from __future__ import annotations

import numpy as np

from .mlp import MlpPolicy, Workspace, forward_cached, log_softmax, mlp_backward


def squared_error_loss(net: MlpPolicy, states: np.ndarray, columns, targets: np.ndarray,
                       workspace: Workspace | None = None):
    """mean((net(s)[row, columns[row]] - y)^2) against fixed targets y; ``columns``
    is an array with one output column per row, or one column for every row."""
    workspace = workspace or Workspace(net, len(targets))
    outputs, cache = forward_cached(net, states, workspace)
    rows, grad_out = workspace.leading(workspace.loss_buffers, len(targets))
    delta = outputs[rows, columns] - targets
    loss = float(np.add.reduce(delta * delta) / len(delta))
    grad_out.fill(0.0)
    grad_out[rows, columns] = 2.0 * delta / len(targets)
    return loss, mlp_backward(net, cache, grad_out, workspace)


def value_loss(critic: MlpPolicy, states: np.ndarray, returns: np.ndarray, workspace: Workspace | None = None):
    """Mean squared error between the value head and the target returns."""
    return squared_error_loss(critic, states, 0, returns, workspace)


def _softmax_policy_loss(actor: MlpPolicy, states: np.ndarray, actions: np.ndarray, objective,
                         entropy_coef: float, workspace: Workspace | None):
    """-mean(J) - entropy_coef * mean(H), where ``objective(log pi(a|s))``
    returns each row's objective J and W = dJ/dlog pi(a|s), so that the
    logits' gradient of -mean(J) is -W (onehot(a) - pi) / batch."""
    batch = len(actions)
    workspace = workspace or Workspace(actor, batch)
    logits, cache = forward_cached(actor, states, workspace)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    rows, one_hot = workspace.leading(workspace.loss_buffers, batch)
    gain, weight = objective(logp[rows, actions])
    entropy = -(probs * logp).sum(axis=1)
    loss = float(-gain.mean() - entropy_coef * entropy.mean())
    one_hot.fill(0.0)
    one_hot[rows, actions] = 1.0
    grad_logits = -(weight[:, None] * (one_hot - probs)) / batch
    grad_logits += entropy_coef * probs * (logp + entropy[:, None]) / batch
    return loss, mlp_backward(actor, cache, grad_logits, workspace)


def policy_gradient_loss(actor: MlpPolicy, states: np.ndarray, actions: np.ndarray,
                         advantages: np.ndarray, entropy_coef: float, workspace: Workspace | None = None):
    """-mean(log pi(a|s) * A) - entropy_coef * mean(H); advantages fixed."""
    return _softmax_policy_loss(
        actor, states, actions, lambda logp: (logp * advantages, advantages), entropy_coef, workspace
    )


def ppo_policy_loss(actor: MlpPolicy, states: np.ndarray, actions: np.ndarray,
                    logp_old: np.ndarray, advantages: np.ndarray,
                    clip_range: float, entropy_coef: float, workspace: Workspace | None = None):
    """Clipped-surrogate loss: -mean(min(rho*A, clip(rho)*A)) - entropy bonus.

    rho = pi_new(a|s) / pi_old(a|s); gradients flow through rho only where
    the unclipped branch is active (surr1 <= surr2).
    """

    def clipped_surrogate(logp):
        ratio = np.exp(logp - logp_old)
        surr1 = ratio * advantages
        surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * advantages
        return np.minimum(surr1, surr2), np.where(surr1 <= surr2, advantages, 0.0) * ratio

    return _softmax_policy_loss(actor, states, actions, clipped_surrogate, entropy_coef, workspace)
