"""The learn step runs in preallocated workspaces and in-place optimizers: its
results equal the allocating textbook expressions bit for bit, and a step
allocates little beyond its batch gather."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_walk_series
from oracles import (
    o_forward_cached,
    o_mlp_backward,
    o_policy_gradient_loss,
    o_ppo_policy_loss,
    o_q_loss_and_grads,
    o_value_loss,
)
from quantrl import EnvConfig, TradingEnv, compute_feature_matrix
from quantrl.agents import (
    DqnTrainer,
    Hyperparams,
    forward_cached,
    init_mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    policy_gradient_loss,
    ppo_policy_loss,
    td_loss_and_grads,
    td_targets,
    value_loss,
)
from quantrl.agents.losses import squared_error_loss
from quantrl.agents.mlp import Workspace
from quantrl.agents.optim import Adam, Sgd
from quantrl.agents.replay import Batch
from quantrl.errors import ShapeMismatch
from quantrl.indicators import default_specs

# --- optimizers ---------------------------------------------------------------------


def assert_views_of_flat(policy):
    for p in (*policy.weights, *policy.biases):
        assert np.shares_memory(p, policy.flat)
    assert np.array_equal(np.concatenate([p.ravel() for pair in zip(policy.weights, policy.biases) for p in pair]),
                          policy.flat)


def gradient_stream(size, n=300, seed=0):
    rng = np.random.default_rng(seed)
    for k in range(n):
        g = rng.normal(size=size) * (1.0 + k % 7)
        g[k % size] = -0.0  # signed zeros must not change the bits either
        yield g


def test_sgd_bit_equal_to_closed_form():
    policy = init_mlp([5, 7, 2], np.random.default_rng(1))
    reference = policy.flat.copy()
    opt = Sgd(3e-3)
    for g in gradient_stream(policy.flat.size):
        opt.update(policy.flat, g)
        reference = reference - 3e-3 * g
        assert np.array_equal(policy.flat, reference)
    assert_views_of_flat(policy)


def test_adam_bit_equal_to_closed_form():
    policy = init_mlp([5, 7, 2], np.random.default_rng(2))
    reference = policy.flat.copy()
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    opt = Adam(lr, b1, b2, eps)
    m, v = 0.0, 0.0
    for t, g in enumerate(gradient_stream(policy.flat.size, seed=3), start=1):
        opt.update(policy.flat, g)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        reference = reference - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
        assert opt.t == t
        assert np.array_equal(policy.flat, reference), f"update {t}"
    assert_views_of_flat(policy)


# --- workspaces ---------------------------------------------------------------------


@pytest.mark.parametrize("sizes", [[6, 3], [6, 9, 2], [6, 9, 5, 2]], ids=["1-layer", "2-layer", "3-layer"])
def test_workspace_passes_bit_equal_to_allocating_reference(sizes):
    rng = np.random.default_rng(len(sizes))
    policy = init_mlp(sizes, rng)
    workspace = Workspace(policy, 16)
    for n in (16, 5, 16, 1):
        x = rng.normal(size=(n, sizes[0]))
        grad_out = rng.normal(size=(n, sizes[-1]))
        out, cache = forward_cached(policy, x, workspace)
        ref_out, ref_cache = o_forward_cached(policy, x)
        assert np.array_equal(out, ref_out)
        assert all(np.array_equal(a, b) for a, b in zip(cache, ref_cache))
        grads = mlp_backward(policy, cache, grad_out, workspace)
        assert grads is workspace.grad
        assert np.array_equal(grads, o_mlp_backward(policy, ref_cache, grad_out))
    assert np.array_equal(mlp_backward(policy, ref_cache, grad_out), o_mlp_backward(policy, ref_cache, grad_out))


def test_workspace_rejects_oversized_batch():
    policy = init_mlp([3, 4, 2], np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        forward_cached(policy, np.zeros((5, 3)), Workspace(policy, 4))


def test_ppo_remainder_minibatch_uses_leading_rows():
    """n_steps=100 with batch_size=64 ends each epoch on a 36-row minibatch in
    the 64-row workspaces; both sizes equal the allocating reference."""
    rng = np.random.default_rng(7)
    actor = init_mlp([8, 16, 16, 2], rng)
    critic = init_mlp([8, 16, 16, 1], rng)
    actor_ws, critic_ws = Workspace(actor, 64), Workspace(critic, 64)
    states = rng.normal(size=(100, 8))
    actions = rng.integers(2, size=100)
    logp_old = np.log(rng.uniform(0.2, 0.8, size=100))
    advantages, returns = rng.normal(size=100), rng.normal(size=100)
    order = rng.permutation(100)
    for lo in range(0, 100, 64):
        idx = order[lo : lo + 64]
        args = (states[idx], actions[idx], logp_old[idx], advantages[idx], 0.2, 0.01)
        loss, grads = ppo_policy_loss(actor, *args, workspace=actor_ws)
        ref_loss, ref_grads = ppo_policy_loss(actor, *args)
        assert loss == ref_loss and np.array_equal(grads, ref_grads)
        loss, grads = value_loss(critic, states[idx], returns[idx], critic_ws)
        ref_loss, ref_grads = value_loss(critic, states[idx], returns[idx])
        assert loss == ref_loss and np.array_equal(grads, ref_grads)
        values, cache = o_forward_cached(critic, states[idx])
        grad_out = np.zeros_like(values)
        grad_out[:, 0] = 2.0 * (values[:, 0] - returns[idx]) / len(idx)
        assert np.array_equal(grads, o_mlp_backward(critic, cache, grad_out))


def test_actor_then_critic_gradients_stay_intact():
    """Each network's gradient is its own workspace's buffer, so computing the
    critic's does not touch the actor's."""
    rng = np.random.default_rng(9)
    actor = init_mlp([4, 8, 2], rng)
    critic = init_mlp([4, 8, 1], rng)
    states = rng.normal(size=(12, 4))
    actions = rng.integers(2, size=12)
    advantages, returns = rng.normal(size=12), rng.normal(size=12)
    _, actor_grads = policy_gradient_loss(actor, states, actions, advantages, 0.01, Workspace(actor, 12))
    kept = actor_grads.copy()
    _, critic_grads = value_loss(critic, states, returns, Workspace(critic, 12))
    assert np.array_equal(actor_grads, kept)
    assert np.array_equal(actor_grads, policy_gradient_loss(actor, states, actions, advantages, 0.01)[1])
    assert np.array_equal(critic_grads, value_loss(critic, states, returns)[1])


# --- the shared loss bodies against the four bodies they replaced -------------------

LOSS_ROWS = 15
COLUMNS = {"sell": np.zeros(LOSS_ROWS, dtype=np.int64), "buy": np.ones(LOSS_ROWS, dtype=np.int64),
           "mixed": np.arange(LOSS_ROWS) % 2}
ADVANTAGE_SIGNS = {"zero": 0.0, "negative": -1.0, "positive": 1.0}


def loss_inputs(seed):
    rng = np.random.default_rng(seed)
    return rng, init_mlp([6, 8, 8, 2], rng), init_mlp([6, 8, 8, 1], rng), rng.normal(size=(LOSS_ROWS, 6))


def assert_same_arithmetic(loss, oracle, net, *args):
    """Equal loss floats and gradient bytes without a workspace, and with one each."""
    for workspace, oracle_workspace in ((None, None), (Workspace(net, LOSS_ROWS), Workspace(net, LOSS_ROWS))):
        got_loss, got_grads = loss(net, *args, workspace=workspace)
        ref_loss, ref_grads = oracle(net, *args, workspace=oracle_workspace)
        assert got_loss == ref_loss and np.array_equal(got_grads, ref_grads)


@pytest.mark.parametrize("columns", COLUMNS.values(), ids=COLUMNS.keys())
def test_squared_error_loss_is_the_q_loss(columns):
    rng, online, _, states = loss_inputs(1)
    assert_same_arithmetic(squared_error_loss, o_q_loss_and_grads, online, states, columns, rng.normal(size=LOSS_ROWS))


def test_td_loss_is_the_q_loss_on_td_targets():
    rng, online, _, states = loss_inputs(2)
    target = init_mlp([6, 8, 8, 2], rng)
    batch = Batch(states, COLUMNS["mixed"], rng.normal(size=LOSS_ROWS), rng.normal(size=(LOSS_ROWS, 6)),
                  np.arange(LOSS_ROWS) % 4 == 0)
    y = td_targets(batch.rewards, batch.dones, mlp_forward(target, batch.next_states).max(axis=1), 0.9)
    loss, grads = td_loss_and_grads(online, target, batch, 0.9)
    ref_loss, ref_grads = o_q_loss_and_grads(online, batch.states, batch.actions, y)
    assert loss == ref_loss and np.array_equal(grads, ref_grads)


def test_value_loss_is_its_one_body():
    rng, _, critic, states = loss_inputs(3)
    assert_same_arithmetic(value_loss, o_value_loss, critic, states, rng.normal(size=LOSS_ROWS))


@pytest.mark.parametrize("sign", ADVANTAGE_SIGNS.values(), ids=ADVANTAGE_SIGNS.keys())
@pytest.mark.parametrize("columns", COLUMNS.values(), ids=COLUMNS.keys())
def test_policy_gradient_loss_is_its_one_body(columns, sign):
    rng, actor, _, states = loss_inputs(4)
    advantages = sign * np.abs(rng.normal(size=LOSS_ROWS))
    assert_same_arithmetic(policy_gradient_loss, o_policy_gradient_loss, actor, states, columns, advantages, 0.01)


@pytest.mark.parametrize("sign", ADVANTAGE_SIGNS.values(), ids=ADVANTAGE_SIGNS.keys())
@pytest.mark.parametrize("columns", COLUMNS.values(), ids=COLUMNS.keys())
def test_ppo_policy_loss_is_its_one_body(columns, sign):
    """Ratios run from 0.5 to 1.5 around a clip range of 0.2: rows below, inside
    (where surr1 == surr2) and above the clip."""
    rng, actor, _, states = loss_inputs(5)
    advantages = sign * np.abs(rng.normal(size=LOSS_ROWS))
    logp = log_softmax(mlp_forward(actor, states))[np.arange(LOSS_ROWS), columns]
    logp_old = logp - np.log(np.linspace(0.5, 1.5, LOSS_ROWS))
    ratio = np.exp(logp - logp_old)
    clipped = np.clip(ratio, 0.8, 1.2)
    assert (ratio < 0.8).any() and (ratio > 1.2).any() and (ratio * advantages == clipped * advantages).any()
    assert_same_arithmetic(ppo_policy_loss, o_ppo_policy_loss, actor, states, columns, logp_old, advantages, 0.2, 0.01)


# --- allocation tripwire ------------------------------------------------------------


def test_dqn_learn_step_allocates_little_beyond_its_gather():
    """On the default shapes (201-wide observation, 64x64, batch 128, SGD), a
    training step holds its batch gather and less than one parameter-sized
    vector more. Allocating activations, gradients and update temporaries on
    every step peaks near 690 KB here, twice the bound."""
    series = random_walk_series(300, seed=7)
    env = TradingEnv(series, compute_feature_matrix(series, default_specs()), EnvConfig())
    hp = Hyperparams(batch_size=128, buffer_size=1000, total_timesteps=10_000, hidden_sizes=(64, 64))
    trainer = DqnTrainer(env, hp, seed=0)
    assert trainer.policy.input_size == 201
    while trainer.step_count < hp.batch_size + 16:
        trainer.train_step()
    tracemalloc.start()
    try:
        for _ in range(50):
            trainer.train_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather_bytes = hp.batch_size * trainer.policy.input_size * 8
    param_bytes = trainer.policy.flat.nbytes
    assert peak < gather_bytes + param_bytes, f"traced peak {peak} B"
