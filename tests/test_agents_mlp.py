import numpy as np
import pytest

from quantrl.agents import (
    Batch,
    MlpPolicy,
    epsilon_greedy,
    forward_cached,
    init_mlp,
    linear_epsilon,
    mlp_backward,
    mlp_forward,
    policy_gradient_loss,
    ppo_policy_loss,
    softmax,
    td_loss_and_grads,
    td_targets,
    value_loss,
)
from quantrl.errors import ShapeMismatch


def flatten_params(policy):
    return policy.flat


def set_params(policy, flat):
    policy.flat[...] = flat


def central_difference(policy, loss_fn, h=1e-6):
    base = flatten_params(policy).copy()
    grad = np.empty_like(base)
    for i in range(len(base)):
        perturbed = base.copy()
        perturbed[i] = base[i] + h
        set_params(policy, perturbed)
        up = loss_fn()
        perturbed[i] = base[i] - h
        set_params(policy, perturbed)
        down = loss_fn()
        grad[i] = (up - down) / (2.0 * h)
    set_params(policy, base)
    return grad


def relative_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def flatten_grads(grads):
    return np.ravel(grads)


def test_zero_network_outputs_zero():
    policy = MlpPolicy(
        [np.zeros((3, 4)), np.zeros((4, 2))],
        [np.zeros(4), np.zeros(2)],
    )
    out = mlp_forward(policy, np.ones(3))
    assert np.array_equal(out, np.zeros(2))


def test_single_layer_affine_map():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])
    policy = MlpPolicy([w], [b])
    x = np.array([2.0, 1.0])
    assert np.allclose(mlp_forward(policy, x), x @ w + b, atol=1e-15)


def test_weights_and_biases_are_views_of_flat():
    rng = np.random.default_rng(4)
    policy = init_mlp([3, 5, 2], rng)
    x = rng.normal(size=3)
    assert mlp_forward(policy, x).any()
    policy.flat[:] = 0.0
    policy.flat[-1] = 2.5  # last bias entry
    assert np.array_equal(mlp_forward(policy, x), [0.0, 2.5])


def test_copy_shares_no_memory():
    policy = init_mlp([3, 5, 2], np.random.default_rng(5))
    clone = policy.copy()
    assert np.array_equal(clone.flat, policy.flat)
    assert not np.shares_memory(clone.flat, policy.flat)
    clone.flat += 1.0
    assert not np.array_equal(clone.flat, policy.flat)
    assert not any(np.shares_memory(c, p) for c, p in zip(clone.weights + clone.biases, policy.weights + policy.biases))


def test_forward_finite_on_random_inputs():
    rng = np.random.default_rng(0)
    policy = init_mlp([8, 16, 16, 2], rng)
    for _ in range(50):
        out = mlp_forward(policy, rng.normal(scale=100.0, size=8))
        assert np.isfinite(out).all()


def test_forward_shape_mismatch():
    policy = init_mlp([4, 8, 2], np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        mlp_forward(policy, np.ones(5))


def test_batch_forward_matches_single():
    rng = np.random.default_rng(1)
    policy = init_mlp([5, 8, 2], rng)
    batch = rng.normal(size=(6, 5))
    stacked = mlp_forward(policy, batch)
    for i in range(6):
        assert np.allclose(stacked[i], mlp_forward(policy, batch[i]), atol=1e-15)


def test_backward_linear_unit_hand_derivative():
    # single linear unit, squared error: dL/dw = 2*(y_hat - y)*x
    w = np.array([[0.7]])
    b = np.array([0.1])
    policy = MlpPolicy([w], [b])
    x = np.array([[2.0]])
    target = 1.5
    out, cache = forward_cached(policy, x)
    delta = out[0, 0] - target
    grads = mlp_backward(policy, cache, np.array([[2.0 * delta]]))
    assert grads[0] == pytest.approx(2.0 * delta * 2.0, abs=1e-12)
    assert grads[1] == pytest.approx(2.0 * delta, abs=1e-12)


def test_constant_loss_zero_gradient():
    rng = np.random.default_rng(2)
    policy = init_mlp([3, 6, 2], rng)
    out, cache = forward_cached(policy, rng.normal(size=(4, 3)))
    grads = mlp_backward(policy, cache, np.zeros_like(out))
    assert np.array_equal(grads, np.zeros_like(grads))


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    policy = init_mlp([4, 7, 5, 2], rng)
    x = rng.normal(size=(6, 4))
    target = rng.normal(size=(6, 2))

    def loss_fn():
        out = mlp_forward(policy, x)
        return float(np.mean((out - target) ** 2))

    out, cache = forward_cached(policy, x)
    grad_out = 2.0 * (out - target) / out.size
    analytic = flatten_grads(mlp_backward(policy, cache, grad_out))
    numeric = central_difference(policy, loss_fn)
    assert relative_error(analytic, numeric) <= 1e-6


# --- TD loss -------------------------------------------------------------------


def test_td_targets_rules():
    assert td_targets(np.array([1.0]), np.array([True]), np.array([5.0]), 0.99)[0] == 1.0
    assert td_targets(np.array([1.0]), np.array([False]), np.array([5.0]), 0.0)[0] == 1.0
    assert td_targets(np.array([1.0]), np.array([False]), np.array([2.0]), 0.99)[0] == pytest.approx(2.98, abs=1e-12)


def make_batch(rng, obs_dim, size=8):
    return Batch(
        states=rng.normal(size=(size, obs_dim)),
        actions=rng.integers(2, size=size),
        rewards=rng.normal(size=size),
        next_states=rng.normal(size=(size, obs_dim)),
        dones=rng.integers(2, size=size).astype(bool),
    )


@pytest.mark.parametrize("seed", range(5))
def test_td_loss_gradcheck(seed):
    rng = np.random.default_rng(seed)
    online = init_mlp([4, 6, 2], rng)
    target = init_mlp([4, 6, 2], rng)
    batch = make_batch(rng, 4)

    def loss_fn():
        loss, _ = td_loss_and_grads(online, target, batch, 0.9)
        return loss

    _, grads = td_loss_and_grads(online, target, batch, 0.9)
    numeric = central_difference(online, loss_fn)
    assert relative_error(flatten_grads(grads), numeric) <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_actor_loss_gradcheck(seed):
    rng = np.random.default_rng(100 + seed)
    actor = init_mlp([3, 5, 2], rng)
    states = rng.normal(size=(8, 3))
    actions = rng.integers(2, size=8)
    advantages = rng.normal(size=8)

    def loss_fn():
        loss, _ = policy_gradient_loss(actor, states, actions, advantages, 0.01)
        return loss

    _, grads = policy_gradient_loss(actor, states, actions, advantages, 0.01)
    numeric = central_difference(actor, loss_fn)
    assert relative_error(flatten_grads(grads), numeric) <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_critic_loss_gradcheck(seed):
    rng = np.random.default_rng(200 + seed)
    critic = init_mlp([3, 5, 1], rng)
    states = rng.normal(size=(8, 3))
    returns = rng.normal(size=8)

    def loss_fn():
        loss, _ = value_loss(critic, states, returns)
        return loss

    _, grads = value_loss(critic, states, returns)
    numeric = central_difference(critic, loss_fn)
    assert relative_error(flatten_grads(grads), numeric) <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_ppo_loss_gradcheck(seed):
    rng = np.random.default_rng(300 + seed)
    actor = init_mlp([3, 5, 2], rng)
    states = rng.normal(size=(8, 3))
    actions = rng.integers(2, size=8)
    advantages = rng.normal(size=8)
    logp_old = np.log(rng.uniform(0.2, 0.8, size=8))

    def loss_fn():
        loss, _ = ppo_policy_loss(actor, states, actions, logp_old, advantages, 0.2, 0.01)
        return loss

    _, grads = ppo_policy_loss(actor, states, actions, logp_old, advantages, 0.2, 0.01)
    numeric = central_difference(actor, loss_fn)
    assert relative_error(flatten_grads(grads), numeric) <= 1e-4


def test_ppo_clip_arithmetic():
    # rho = 1.5, clip 0.2, A > 0 -> objective uses 1.2 * A
    rng = np.random.default_rng(4)
    actor = init_mlp([2, 2], rng)
    state = rng.normal(size=(1, 2))
    probs = softmax(mlp_forward(actor, state[0]))
    action = 0
    advantage = np.array([2.0])
    logp_old = np.array([np.log(probs[action] / 1.5)])  # makes rho = 1.5
    loss, _ = ppo_policy_loss(actor, state, np.array([action]), logp_old, advantage, 0.2, 0.0)
    assert loss == pytest.approx(-1.2 * 2.0, abs=1e-9)


def test_ppo_ratio_one_matches_unclipped():
    rng = np.random.default_rng(5)
    actor = init_mlp([2, 4, 2], rng)
    states = rng.normal(size=(4, 2))
    actions = rng.integers(2, size=4)
    from quantrl.agents import log_softmax

    logp_old = log_softmax(mlp_forward(actor, states))[np.arange(4), actions]
    advantages = rng.normal(size=4)
    loss, _ = ppo_policy_loss(actor, states, actions, logp_old, advantages, 0.2, 0.0)
    assert loss == pytest.approx(float(-advantages.mean()), abs=1e-12)


def test_ppo_zero_advantage_zero_surrogate():
    rng = np.random.default_rng(6)
    actor = init_mlp([2, 4, 2], rng)
    states = rng.normal(size=(4, 2))
    loss, grads = ppo_policy_loss(actor, states, np.zeros(4, dtype=int), np.full(4, -0.7),
                                  np.zeros(4), 0.2, 0.0)
    assert loss == 0.0
    assert np.allclose(grads, 0.0)


def test_ppo_clipping_bounds_property():
    # the taken surrogate is pessimistic: it never exceeds the unclipped
    # objective, equals it inside the clip band, and gains are capped at
    # the favorable boundary ((1+eps)A for A > 0, (1-eps)A for A < 0)
    rng = np.random.default_rng(7)
    eps = 0.2
    for _ in range(500):
        ratio = rng.uniform(0.0, 3.0)
        advantage = rng.normal()
        unclipped = ratio * advantage
        taken = min(unclipped, np.clip(ratio, 1.0 - eps, 1.0 + eps) * advantage)
        assert taken <= unclipped + 1e-15
        if 1.0 - eps <= ratio <= 1.0 + eps:
            assert taken == pytest.approx(unclipped, abs=1e-15)
        cap = (1.0 + eps) * advantage if advantage > 0 else (1.0 - eps) * advantage
        assert taken == pytest.approx(min(unclipped, cap), abs=1e-12)


def test_actor_zero_advantage_no_policy_gradient():
    rng = np.random.default_rng(8)
    actor = init_mlp([2, 4, 2], rng)
    states = rng.normal(size=(4, 2))
    actions = rng.integers(2, size=4)
    loss, grads = policy_gradient_loss(actor, states, actions, np.zeros(4), 0.0)
    assert loss == 0.0
    assert np.allclose(grads, 0.0)


# --- exploration -----------------------------------------------------------------


def test_epsilon_greedy_rules():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([1.0, 2.0]), 0.0, rng) == 1
    assert epsilon_greedy(np.array([2.0, 2.0]), 0.0, rng) == 0  # tie -> lowest index


def test_epsilon_greedy_uniform_at_one():
    rng = np.random.default_rng(1)
    counts = np.zeros(2)
    for _ in range(10_000):
        counts[epsilon_greedy(np.array([5.0, -5.0]), 1.0, rng)] += 1
    freq = counts / counts.sum()
    assert abs(freq[0] - 0.5) <= 0.02
    assert abs(freq[1] - 0.5) <= 0.02


def test_linear_epsilon_schedule_exact():
    total = 1000
    assert linear_epsilon(0, total, 1.0, 0.05, 0.1) == 1.0
    assert linear_epsilon(50, total, 1.0, 0.05, 0.1) == pytest.approx(1.0 + (0.05 - 1.0) * 0.5, abs=1e-15)
    assert linear_epsilon(100, total, 1.0, 0.05, 0.1) == 0.05
    assert linear_epsilon(999, total, 1.0, 0.05, 0.1) == 0.05
    assert linear_epsilon(5, total, 1.0, 0.05, 0.0) == 0.05
