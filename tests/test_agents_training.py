import math

import numpy as np
import pytest

import quantrl.agents.a2c as a2c_module
import quantrl.agents.ppo as ppo_module
from conftest import random_walk_series
from oracles import o_train_on_policy, observation_table, observe
from quantrl import (
    EnvConfig,
    IndicatorSpec,
    NormalizationKind,
    RewardKind,
    TradingEnv,
    compute_feature_matrix,
    default_specs,
)
from quantrl.agents import (
    ActorCritic,
    DqnTrainer,
    Hyperparams,
    MlpPolicy,
    ReplayBuffer,
    a2c_train,
    dqn_train,
    gae_advantages,
    init_mlp,
    load_policy,
    mlp_forward,
    n_step_returns,
    policy_gradient_loss,
    ppo_train,
    sample_action,
    save_policy,
    softmax,
    value_loss,
)
from quantrl.agents.a2c import train_on_policy
from quantrl.agents.common import BLOCK_ROWS, row_values
from quantrl.backtest import run_policy
from quantrl.errors import BufferTooSmall, CorruptFile, TrainingDiverged


def tiny_env(n=60, seed=3, **config_kwargs) -> TradingEnv:
    series = random_walk_series(n, seed=seed)
    features = compute_feature_matrix(series, [IndicatorSpec("SMA", 2)])
    return TradingEnv(series, features, EnvConfig(window_size=2, **config_kwargs))


def tiny_hp(**overrides) -> Hyperparams:
    base = dict(
        learning_rate=1e-3, buffer_size=64, batch_size=8, gamma=0.9,
        target_update_interval=7, total_timesteps=300,
        exploration_fraction=0.5, n_steps=8, n_epochs=2, hidden_sizes=(8,),
    )
    base.update(overrides)
    return Hyperparams(**base)


# --- replay buffer ---------------------------------------------------------------


def transition(value: float) -> tuple:
    """``ReplayBuffer.push``'s arguments: state, action, reward, next state, done."""
    return int(value), 0, value, int(value), False


def test_replay_evicts_oldest():
    buf = ReplayBuffer(2)
    for v in (1.0, 2.0, 3.0):
        buf.push(*transition(v))
    assert len(buf) == 2
    assert buf.insertions == 3
    stored = {buf._rewards[i] for i in range(2)}
    assert stored == {2.0, 3.0}


def test_replay_sample_too_small():
    buf = ReplayBuffer(10)
    buf.push(*transition(1.0))
    with pytest.raises(BufferTooSmall):
        buf.sample(2, np.random.default_rng(0))


def test_replay_uniformity():
    buf = ReplayBuffer(4)
    for v in (0.0, 1.0, 2.0, 3.0):
        buf.push(*transition(v))
    rng = np.random.default_rng(1)
    draws = np.concatenate([buf.sample(4, rng).rewards for _ in range(25_000)])
    for v in (0.0, 1.0, 2.0, 3.0):
        freq = np.mean(draws == v)
        assert abs(freq - 0.25) <= 0.25 * 0.05


def test_replay_sampling_seeded():
    buf = ReplayBuffer(8)
    for v in range(8):
        buf.push(*transition(float(v)))
    a = buf.sample(8, np.random.default_rng(9)).rewards
    b = buf.sample(8, np.random.default_rng(9)).rewards
    assert np.array_equal(a, b)


def test_replay_integer_states_round_trip():
    buf = ReplayBuffer(8)
    for i in range(8):
        buf.push(i, i % 2, float(i), i + 1, i == 7)
    batch = buf.sample(8, np.random.default_rng(0))
    assert np.issubdtype(batch.states.dtype, np.integer) and batch.states.shape == (8,)
    assert np.issubdtype(batch.next_states.dtype, np.integer) and batch.next_states.shape == (8,)
    assert np.array_equal(batch.next_states, batch.states + 1)
    assert np.array_equal(batch.actions, batch.states % 2)
    assert np.array_equal(batch.rewards, batch.states.astype(float))
    assert np.array_equal(batch.dones, batch.states == 7)


# --- policy persistence -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    policy = init_mlp([6, 8, 2], rng)
    path = tmp_path / "policy.bin"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert loaded.layer_sizes == policy.layer_sizes
    assert np.array_equal(policy.flat, loaded.flat)
    x = rng.normal(size=(5, 6))
    assert np.array_equal(mlp_forward(policy, x), mlp_forward(loaded, x))


def test_policy_bin_payload_is_flat_vector(tmp_path):
    policy = init_mlp([6, 8, 2], np.random.default_rng(3))
    path = tmp_path / "policy.bin"
    save_policy(policy, path)
    header = 12 + 4 * len(policy.layer_sizes)
    assert path.read_bytes()[header:] == policy.flat.astype("<f8").tobytes()


def test_load_truncated_file(tmp_path):
    rng = np.random.default_rng(1)
    policy = init_mlp([4, 4, 2], rng)
    path = tmp_path / "p.bin"
    save_policy(policy, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(CorruptFile):
        load_policy(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CorruptFile):
        load_policy(path)


def test_header_sizes_cross_checked(tmp_path):
    import struct

    rng = np.random.default_rng(2)
    policy = init_mlp([3, 4, 2], rng)
    path = tmp_path / "p.bin"
    save_policy(policy, path)
    data = bytearray(path.read_bytes())
    # corrupt a header size field: payload length no longer matches
    struct.pack_into("<I", data, 12, 99)
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFile):
        load_policy(path)


def test_zero_layer_header_rejected(tmp_path):
    import struct

    path = tmp_path / "z.bin"
    path.write_bytes(b"QRLP" + struct.pack("<II", 1, 0))
    with pytest.raises(CorruptFile):
        load_policy(path)


# --- DQN --------------------------------------------------------------------------


def test_dqn_target_sync_only_at_interval():
    trainer = DqnTrainer(tiny_env(), tiny_hp(), seed=0)
    interval = trainer.hp.target_update_interval

    reference = trainer.target.flat.copy()
    for _ in range(3 * interval):
        trainer.train_step()
        same = np.array_equal(trainer.target.flat, reference)
        if trainer.step_count % interval == 0:
            reference = trainer.target.flat.copy()
        else:
            assert same, f"target changed off-interval at step {trainer.step_count}"


def test_dqn_next_q_max_lookup_matches_batch_forward():
    env = tiny_env()
    next_observations = []
    step = env.step

    def recording_step(action):
        result = step(action)
        next_observations.append(observe(env).flatten())
        return result

    env.step = recording_step
    trainer = DqnTrainer(env, tiny_hp(buffer_size=128), seed=0)
    episode_steps = len(env.series) - 1 - env.start_cursor
    while trainer.step_count < episode_steps + 2 * trainer.hp.target_update_interval:
        trainer.train_step()
        n = len(trainer.buffer)
        looked_up = trainer.next_q_max[trainer.buffer._next_states[:n]]
        reference = mlp_forward(trainer.target, np.array(next_observations)).max(axis=1)
        np.testing.assert_allclose(looked_up, reference, rtol=1e-12, atol=0.0)
    assert trainer.buffer._dones[: len(trainer.buffer)].any()


@pytest.mark.parametrize("flag", [True, False])
def test_dqn_target_blocks_equal_padded_table_forward(flag):
    """max_a Q_target is evaluated in BLOCK_ROWS-row blocks, the last one
    zero-padded to a multiple of 8 rows. Each row's value is byte-equal to the
    row's in one forward pass over every observation row padded to a multiple
    of 8 rows, at construction and after a target sync."""
    series = random_walk_series(227, seed=5)
    env = TradingEnv(series, compute_feature_matrix(series, default_specs()), EnvConfig(include_position_flag=flag))
    assert len(series) - env.start_cursor == 131
    hp = tiny_hp(batch_size=32, buffer_size=1000, target_update_interval=50, total_timesteps=1000,
                 hidden_sizes=(64, 64))
    trainer = DqnTrainer(env, hp, seed=0)
    table = observation_table(env)
    rows = len(table)
    assert rows > BLOCK_ROWS and rows % 8 and rows % BLOCK_ROWS
    padded = np.pad(table, ((0, -rows % 8), (0, 0)))

    def reference():
        return mlp_forward(trainer.target, padded).max(axis=1)[:rows]

    assert trainer.next_q_max[:rows].tobytes() == reference().tobytes()
    first = trainer.target.flat.copy()
    while trainer.step_count < hp.target_update_interval:
        trainer.train_step()
    assert not np.array_equal(trainer.target.flat, first)
    assert trainer.next_q_max[:rows].tobytes() == reference().tobytes()


def test_dqn_epsilon_anneals():
    trainer = DqnTrainer(tiny_env(), tiny_hp(), seed=0)
    assert trainer.epsilon == 1.0
    while trainer.step_count < 150:
        trainer.train_step()
    assert trainer.epsilon == 0.05


def test_dqn_explore_steps_skip_greedy_forward(monkeypatch):
    import quantrl.agents.dqn as dqn

    single_calls = []
    forward = dqn.mlp_forward

    def counting_forward(policy, x):
        if np.ndim(x) == 1:
            single_calls.append(x)
        return forward(policy, x)

    monkeypatch.setattr(dqn, "mlp_forward", counting_forward)
    explorer = DqnTrainer(tiny_env(), tiny_hp(exploration_final=1.0), seed=0)
    for _ in range(40):
        explorer.train_step()
    assert explorer.epsilon == 1.0
    assert single_calls == []
    greedy = DqnTrainer(tiny_env(), tiny_hp(exploration_initial=0.0, exploration_final=0.0), seed=0)
    for _ in range(40):
        greedy.train_step()
    assert len(single_calls) == 40


def test_dqn_determinism():
    def run():
        policy, log = dqn_train(lambda: tiny_env(), tiny_hp(), seed=11)
        return policy, log

    p1, l1 = run()
    p2, l2 = run()
    assert np.array_equal(p1.flat, p2.flat)
    assert len(l1) == len(l2)
    for r1, r2 in zip(l1.records, l2.records):
        assert r1 == r2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("train, learning_rate", [(dqn_train, 1.0), (a2c_train, 1e6), (ppo_train, 1e6)],
                         ids=["dqn", "a2c", "ppo"])
def test_divergence_raises_training_diverged(train, learning_rate):
    with pytest.raises(TrainingDiverged) as err:
        train(lambda: tiny_env(), tiny_hp(learning_rate=learning_rate), seed=0)
    assert not math.isfinite(err.value.loss)
    assert 0 < err.value.step <= 300


def test_dqn_different_seeds_differ():
    p1, _ = dqn_train(lambda: tiny_env(), tiny_hp(), seed=1)
    p2, _ = dqn_train(lambda: tiny_env(), tiny_hp(), seed=2)
    assert not np.array_equal(p1.flat, p2.flat)


def test_training_log_csv(tmp_path):
    _, log = dqn_train(lambda: tiny_env(), tiny_hp(total_timesteps=120), seed=5)
    assert len(log) >= 1
    steps = [r.timestep for r in log.records]
    assert steps == sorted(set(steps))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestep,episode_return,loss,epsilon,eval_return"
    assert len(lines) == len(log) + 1


# --- A2C / PPO ---------------------------------------------------------------------


def test_n_step_returns_single_step_gamma_zero():
    returns = n_step_returns(np.array([2.0]), np.array([False]), bootstrap=9.0, gamma=0.0)
    assert returns[0] == 2.0


def test_n_step_returns_hand_rollout():
    rewards = np.array([1.0, 2.0, 3.0])
    dones = np.array([False, False, False])
    returns = n_step_returns(rewards, dones, bootstrap=4.0, gamma=0.5)
    # R2 = 3 + 0.5*4 = 5; R1 = 2 + 0.5*5 = 4.5; R0 = 1 + 0.5*4.5 = 3.25
    assert returns.tolist() == [3.25, 4.5, 5.0]


def test_n_step_returns_cut_at_done():
    rewards = np.array([1.0, 2.0])
    dones = np.array([True, False])
    returns = n_step_returns(rewards, dones, bootstrap=10.0, gamma=0.9)
    assert returns[1] == pytest.approx(2.0 + 0.9 * 10.0)
    assert returns[0] == 1.0


def test_a2c_loss_hand_value():
    # one transition, tiny linear nets: verify the assembled loss by hand
    actor = MlpPolicy([np.array([[0.3, -0.1], [-0.2, 0.4]])], [np.array([0.1, 0.0])])
    critic = MlpPolicy([np.array([[0.5], [0.5]])], [np.array([0.0])])
    state = np.array([[1.0, 2.0]])
    logits = state @ actor.weights[0] + actor.biases[0]
    probs = np.exp(logits[0]) / np.exp(logits[0]).sum()
    advantage = np.array([0.7])
    expected_entropy = -(probs * np.log(probs)).sum()
    expected = -np.log(probs[1]) * 0.7 - 0.01 * expected_entropy
    loss, _ = policy_gradient_loss(actor, state, np.array([1]), advantage, 0.01)
    assert loss == pytest.approx(float(expected), abs=1e-12)
    v = float((state @ critic.weights[0] + critic.biases[0])[0, 0])
    vloss, _ = value_loss(critic, state, np.array([2.0]))
    assert vloss == pytest.approx((v - 2.0) ** 2, abs=1e-12)


def test_gae_reduces_to_td_for_lambda_zero():
    rewards = np.array([1.0, 2.0])
    values = np.array([0.5, 0.25])
    dones = np.array([False, False])
    adv, returns = gae_advantages(rewards, values, dones, last_value=3.0, gamma=0.9, lam=0.0)
    assert adv[0] == pytest.approx(1.0 + 0.9 * 0.25 - 0.5)
    assert adv[1] == pytest.approx(2.0 + 0.9 * 3.0 - 0.25)
    assert np.allclose(returns, adv + values)


def test_gae_matches_n_step_for_lambda_one():
    rng = np.random.default_rng(0)
    rewards = rng.normal(size=6)
    values = rng.normal(size=6)
    dones = np.zeros(6, dtype=bool)
    adv, _ = gae_advantages(rewards, values, dones, last_value=0.3, gamma=0.95, lam=1.0)
    returns = n_step_returns(rewards, dones, bootstrap=0.3, gamma=0.95)
    assert np.allclose(adv, returns - values, atol=1e-12)


def test_a2c_train_runs_and_is_deterministic():
    hp = tiny_hp(total_timesteps=150)
    ac1, log1 = a2c_train(lambda: tiny_env(), hp, seed=4)
    ac2, log2 = a2c_train(lambda: tiny_env(), hp, seed=4)
    assert isinstance(ac1, ActorCritic)
    assert np.array_equal(ac1.actor.flat, ac2.actor.flat)
    assert [r.timestep for r in log1.records] == [r.timestep for r in log2.records]


def test_ppo_train_runs_and_is_deterministic():
    hp = tiny_hp(total_timesteps=150, n_steps=16, batch_size=8)
    ac1, log1 = ppo_train(lambda: tiny_env(), hp, seed=4)
    ac2, log2 = ppo_train(lambda: tiny_env(), hp, seed=4)
    assert np.array_equal(ac1.actor.flat, ac2.actor.flat)
    assert len(log1) == len(log2)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(batch_size=200, buffer_size=100)
    with pytest.raises(ValueError):
        Hyperparams(gamma=1.5)
    with pytest.raises(ValueError):
        Hyperparams(clip_range=0.0)
    with pytest.raises(ValueError):
        Hyperparams(optimizer="rmsprop")
    with pytest.raises(ValueError, match="exploration_initial"):
        Hyperparams(exploration_initial=1.5)
    with pytest.raises(ValueError, match="exploration_final"):
        Hyperparams(exploration_final=-0.1)


@pytest.mark.parametrize("hidden", [(0,), (64, -1), (2.5,), (), (True,), (10**18,)],
                         ids=["zero", "negative", "float", "empty", "bool", "huge"])
def test_hyperparams_rejects_bad_hidden_sizes(hidden):
    with pytest.raises(ValueError, match="hidden_sizes"):
        Hyperparams(hidden_sizes=hidden)


# --- on-policy acting path --------------------------------------------------------


def logit_pairs(seed: int = 0) -> np.ndarray:
    """100 000 seeded logit pairs: spreads up to +-40, exact and one-ulp ties, signed zeros."""
    rng = np.random.default_rng(seed)
    ties = np.repeat(rng.uniform(-40.0, 40.0, size=(10_000, 1)), 2, axis=1)
    near = ties[:5_000].copy()
    near[:, 1] = np.nextafter(near[:, 0], np.inf)
    edges = rng.choice([0.0, -0.0, 40.0, -40.0, 1e-300, -1e-300], size=(5_000, 2))
    return np.concatenate([
        rng.uniform(-40.0, 40.0, size=(70_000, 2)), rng.normal(size=(10_000, 2)), ties, near, edges,
    ])


def test_sample_action_matches_generator_choice(monkeypatch):
    monkeypatch.setattr(a2c_module, "mlp_forward", lambda actor, obs: obs)
    ours, reference = np.random.default_rng(11), np.random.default_rng(11)
    pairs = logit_pairs(seed=1)
    actions = [sample_action(None, logits, ours) for logits in pairs]
    expected = [int(reference.choice(2, p=softmax(logits))) for logits in pairs]
    assert actions == expected
    assert 0 < sum(actions) < len(actions)
    assert ours.bit_generator.state == reference.bit_generator.state


class SegmentRecorder:
    """Records, per step of a ``train_on_policy`` run in ``env``, what the step
    acted on. ``acted`` (the observation) and ``rows`` (its observation row)
    come from replaying each segment's path one action at a time, which is
    bit-equal to replaying it at once. ``looked_up`` (the threshold the step's
    draw was compared with) is the segment's ``sell_thresholds`` values at the
    offsets ``env.walk`` returns, and ``actors`` the actor they came from, one
    copy per segment."""

    def __init__(self, monkeypatch, env: TradingEnv):
        self.acted, self.rows, self.looked_up, self.actors = [], [], [], []
        blocks = []
        thresholds, walk, replay = a2c_module.sell_thresholds, env.walk, env.replay

        def recording_thresholds(net, rows):
            self.actor = net
            blocks.append(thresholds(net, rows))
            return blocks[-1]

        def recording_walk(decisions):
            offsets = walk(decisions)
            # Only a segment's last block is padded, so its rows lead the concatenation.
            segment = np.concatenate(blocks)[: len(decisions)]
            blocks.clear()
            self.looked_up.extend(segment[offsets].tolist())
            self.actors.extend([self.actor.copy()] * len(offsets))
            return offsets

        def recording_replay(path):
            for action in path:
                self.acted.append(observe(env).flatten())
                self.rows.append(env.observation_index)
                replay([action])

        monkeypatch.setattr(a2c_module, "sell_thresholds", recording_thresholds)
        monkeypatch.setattr(env, "walk", recording_walk)
        monkeypatch.setattr(env, "replay", recording_replay)


@pytest.mark.parametrize("normalization", [NormalizationKind.MIN_MAX, NormalizationKind.WINDOW_LOG])
@pytest.mark.parametrize("flag", [True, False])
def test_rollout_states_equal_observations(monkeypatch, normalization, flag):
    env = tiny_env(normalization=normalization, include_position_flag=flag)
    recorder = SegmentRecorder(monkeypatch, env)
    seen = []

    def update(actor, critic, rollout, obs, rng) -> float:
        seen.append((rollout.states.copy(), obs.copy(), observe(env).flatten()))
        return 0.0

    hp = tiny_hp(total_timesteps=200, n_steps=8)
    train_on_policy(lambda: env, hp, seed=2, update=update)
    assert len(seen) == 25 and len(recorder.acted) == 200
    for k, (states, obs, after) in enumerate(seen):
        assert np.array_equal(states, np.array(recorder.acted[8 * k : 8 * (k + 1)]))
        assert np.array_equal(obs, after)
    assert recorder.acted[0].shape == (env.observation_size,)


def greedy_backtest(env_factory, hyperparams: Hyperparams, seed: int):
    """run_policy over a fresh env with a seeded untrained actor."""
    env = env_factory()
    return run_policy(env, init_mlp([env.observation_size, *hyperparams.hidden_sizes, 2], np.random.default_rng(seed)))


@pytest.mark.parametrize("train", [a2c_train, ppo_train, dqn_train, greedy_backtest],
                         ids=["a2c", "ppo", "dqn", "run_policy"])
def test_on_policy_training_never_flattens_a_window(monkeypatch, train):
    """Training and the backtest read observation-table rows: no env step
    builds an ObservationWindow, and nothing flattens one."""
    from quantrl.trading_env import ObservationWindow

    calls = []
    init, flatten = ObservationWindow.__init__, ObservationWindow.flatten
    monkeypatch.setattr(ObservationWindow, "__init__", lambda self, *args: calls.append("build") or init(self, *args))
    monkeypatch.setattr(ObservationWindow, "flatten", lambda self, *args: calls.append("flatten") or flatten(self, *args))
    train(lambda: tiny_env(), tiny_hp(total_timesteps=100), seed=0)
    assert calls == []
    ObservationWindow(np.zeros((2, 1)), 0.0).flatten()
    assert calls == ["build", "flatten"]


@pytest.mark.parametrize("flag", [True, False])
def test_block_thresholds_match_per_row_rule(monkeypatch, flag):
    """Each step's threshold, read from its segment's thresholds (evaluated
    once per segment) at the row env.walk visits, matches sample_action's
    per-row threshold, and the action is the rule int(u >= threshold) on the
    step's draw."""
    env = tiny_env(include_position_flag=flag)
    recorder = SegmentRecorder(monkeypatch, env)
    actors, actions = [], []

    def update(actor, critic, rollout, obs, rng) -> float:
        actions.extend(rollout.actions.tolist())
        actor.net.flat += 0.3 * np.sin(np.arange(actor.net.flat.size) + len(actors))
        actors.append(actor.net.copy())
        return 0.0

    seed, hp = 5, tiny_hp(total_timesteps=400, n_steps=8)
    train_on_policy(lambda: env, hp, seed=seed, update=update)
    rng = np.random.default_rng(seed)
    actors.insert(0, init_mlp([env.observation_size, *hp.hidden_sizes, 2], rng))
    init_mlp([env.observation_size, *hp.hidden_sizes, 1], rng)
    assert len(recorder.looked_up) == len(actions) == len(recorder.acted) == 400
    for step, (obs, threshold, action) in enumerate(zip(recorder.acted, recorder.looked_up, actions)):
        p0, p1 = softmax(mlp_forward(actors[step // hp.n_steps], obs[None]))[0].tolist()
        assert abs(threshold - p0 / (p0 + p1)) <= 1e-15
        assert action == int(rng.random() >= threshold)
    assert set(actions) == {0, 1}


def padded_table(env) -> np.ndarray:
    """Every observation row of ``env``, zero-padded to a multiple of 8 rows."""
    table = observation_table(env)
    return np.pad(table, ((0, -len(table) % 8), (0, 0)))


@pytest.mark.parametrize("flag", [True, False])
def test_block_thresholds_equal_padded_table_forward(monkeypatch, flag):
    """On a default-width env, each step's looked-up threshold is byte-equal to
    its row's in one sell_thresholds pass over every observation row padded to
    a multiple of 8 rows, segments clipped at an episode end included. Blocks
    whose partial tile went unpadded broke this on 1-3 of 1,280 steps per seed."""
    series = random_walk_series(300, seed=3)
    env = TradingEnv(series, compute_feature_matrix(series, default_specs()), EnvConfig(include_position_flag=flag))
    rows = env.observation_count
    padded = padded_table(env)
    hp = tiny_hp(total_timesteps=1280, n_steps=64, hidden_sizes=(64, 64))
    thresholds = a2c_module.sell_thresholds
    for seed in range(3):
        with monkeypatch.context() as patch:
            recorder = SegmentRecorder(patch, env)
            a2c_train(lambda: env, hp, seed=seed)
        expected, actor = [], None
        for net, row in zip(recorder.actors, recorder.rows):
            if net is not actor:  # the actor changes only between segments
                actor, reference = net, thresholds(net, padded)[:rows]
            expected.append(reference[row])
        assert len(recorder.looked_up) == hp.total_timesteps
        assert np.array(recorder.looked_up).tobytes() == np.array(expected).tobytes(), seed


ORACLE_SCHEDULES = [(8, 301, "sgd"), (64, 1000, "adam"), (5, 97, "adam")]  # (n_steps, total_timesteps, optimizer)


@pytest.mark.parametrize("schedule", ORACLE_SCHEDULES, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("train", [a2c_train, ppo_train], ids=["a2c", "ppo"])
def test_rollout_segments_train_the_per_step_bytes(monkeypatch, train, flag, schedule):
    """Rollout segments (one threshold pass, a sampled walk and one replay each)
    train byte-equal actors, critics and log records to the per-step loop of
    ``oracles.o_train_on_policy``, for every reward kind, with and without
    commission. Episodes end inside rollouts, and the run stops inside one."""
    n_steps, total, optimizer = schedule
    hp = tiny_hp(n_steps=n_steps, total_timesteps=total, optimizer=optimizer, batch_size=16,
                 learning_rate=1e-2, hidden_sizes=(16, 16))
    for kind in RewardKind:
        for commission in (0.0, 5e-4):
            def factory():
                return tiny_env(90, reward_kind=kind, commission=commission, include_position_flag=flag)

            episode = factory().steps_left
            assert episode % n_steps and total % n_steps and total > episode
            ours, our_log = train(factory, hp, seed=4)
            with monkeypatch.context() as patch:
                patch.setattr(a2c_module, "train_on_policy", o_train_on_policy)
                patch.setattr(ppo_module, "train_on_policy", o_train_on_policy)
                theirs, their_log = train(factory, hp, seed=4)
            case = (kind, commission)
            assert ours.actor.flat.tobytes() == theirs.actor.flat.tobytes(), case
            assert ours.critic.flat.tobytes() == theirs.critic.flat.tobytes(), case
            assert len(our_log) >= total // episode
            assert repr(our_log.records) == repr(their_log.records), case


@pytest.mark.parametrize("flag", [True, False])
def test_nan_threshold_raises_at_the_step_that_acts_from_it(monkeypatch, flag):
    """A NaN threshold on the row a step acts from raises TrainingDiverged at
    that step, as in the per-step oracle. A NaN only on the other flag's row
    of a cursor, which the segment still evaluates, does not raise."""
    def factory():
        return tiny_env(90, include_position_flag=flag)

    table = observation_table(factory())
    assert len(np.unique(table, axis=0)) == len(table)
    hp = tiny_hp(total_timesteps=80, n_steps=8)  # inside the first episode, 87 steps
    assert factory().steps_left > hp.total_timesteps
    thresholds, segments = a2c_module.sell_thresholds, a2c_module.train_on_policy

    def diverged_at(loop, poisoned_rows):
        def poisoned(actor, rows):
            values = thresholds(actor, rows)
            for row in poisoned_rows:
                values[(rows == table[row]).all(axis=1)] = np.nan
            return values

        with monkeypatch.context() as patch:
            patch.setattr(a2c_module, "sell_thresholds", poisoned)
            patch.setattr(a2c_module, "train_on_policy", loop)
            try:
                a2c_train(factory, hp, seed=1)
            except TrainingDiverged as err:
                assert math.isnan(err.loss)
                return err.step
        return None

    per_cursor = 2 if flag else 1
    visited = {}
    for cursor in (0, 5, 8, 13, 79):  # cursor k is the first episode's step k + 1
        cursor_rows = [per_cursor * cursor + position for position in range(per_cursor)]
        steps = [diverged_at(segments, [row]) for row in cursor_rows]
        assert steps == [diverged_at(o_train_on_policy, [row]) for row in cursor_rows]
        assert steps.count(cursor + 1) == 1 and steps.count(None) == per_cursor - 1
        visited[cursor] = cursor_rows[steps.index(cursor + 1)]
    # With several NaNs, the first row the path acts from raises.
    others = [row for row in range(per_cursor * 5, per_cursor * 6) if row != visited[5]]
    for rows, step in (([*others, visited[13], visited[79]], 14), ([visited[79], visited[8]], 9)):
        assert diverged_at(segments, rows) == diverged_at(o_train_on_policy, rows) == step


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("train", [a2c_train, ppo_train], ids=["a2c", "ppo"])
def test_rollouts_never_step_and_evaluate_each_reachable_row_once(monkeypatch, train, flag):
    """Training acts without TradingEnv.step, and sell_thresholds sees each row
    a segment can reach once: total_timesteps rows with the flag off and twice
    that with it on, tile padding aside, in one pass per BLOCK_ROWS-row block
    of each segment."""
    series = random_walk_series(300, seed=3)
    env = TradingEnv(series, compute_feature_matrix(series, default_specs()), EnvConfig(include_position_flag=flag))
    hp = tiny_hp(total_timesteps=1000, n_steps=64, hidden_sizes=(64, 64))
    calls = {"step": 0, "forward": 0, "rows": 0}
    step, thresholds = TradingEnv.step, a2c_module.sell_thresholds

    def counting_step(self, action):
        calls["step"] += 1
        return step(self, action)

    def counting_thresholds(actor, rows):
        calls["forward"] += 1
        calls["rows"] += np.flatnonzero(rows.any(axis=1))[-1] + 1  # the zero rows after it pad the tile
        return thresholds(actor, rows)

    monkeypatch.setattr(TradingEnv, "step", counting_step)
    monkeypatch.setattr(a2c_module, "sell_thresholds", counting_thresholds)
    episode = env.steps_left
    train(lambda: env, hp, seed=0)
    # A segment ends at each rollout's end, each episode's end and total_timesteps.
    ends = sorted({*range(hp.n_steps, hp.total_timesteps, hp.n_steps),
                   *range(episode, hp.total_timesteps, episode), hp.total_timesteps})
    per_cursor = 2 if flag else 1
    blocks = sum(math.ceil(per_cursor * n / BLOCK_ROWS) for n in np.diff([0, *ends]))
    assert calls == {"step": 0, "forward": blocks, "rows": per_cursor * hp.total_timesteps}


@pytest.mark.parametrize("train", [dqn_train, a2c_train, ppo_train], ids=["dqn", "a2c", "ppo"])
def test_episode_return_adds_rewards_left_to_right(monkeypatch, tmp_path, train):
    """training_log.csv's episode_return is the episode's rewards added one by
    one, left to right, which here differs from math.fsum, for every trainer.
    sum() of floats is compensated from Python 3.12 on, so only a left-to-right
    fold keeps the log's bytes on every supported Python."""
    env = tiny_env(90)
    ledgers = []
    reset = env.reset

    def recording_reset():
        ledgers.append(env.ledger.rewards)
        reset()

    monkeypatch.setattr(env, "reset", recording_reset)
    _, log = train(lambda: env, tiny_hp(total_timesteps=400, n_steps=8), seed=0)
    episodes = ledgers[1:]  # the first reset starts training
    assert len(log) == len(episodes) == 4
    running = []
    for rewards in episodes:
        total = 0.0
        for reward in rewards:
            total += reward
        running.append(total)
    assert any(total != math.fsum(rewards) for total, rewards in zip(running, episodes))
    log.to_csv(tmp_path / "training_log.csv")
    lines = (tmp_path / "training_log.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == list(map(repr, running))


WIDTHS = {  # flag-on observation width: (indicators, window)
    201: (default_specs(), 10),
    101: (default_specs(), 5),
    20: ([IndicatorSpec("ROC", 1)], 19),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("width", WIDTHS)
def test_row_values_equal_padded_table_forward(flag, width):
    """Q-values, max-Q and thresholds from row_values are byte-equal to one
    forward pass over every observation row padded to a multiple of 8 rows,
    for every start row 0-40 and ends one, 7 and 130 rows on and at the last row."""
    specs, window = WIDTHS[width]
    series = random_walk_series(293, seed=11)
    env = TradingEnv(series, compute_feature_matrix(series, specs), EnvConfig(window_size=window, include_position_flag=flag))
    assert env.observation_size == width - (not flag)
    rows = env.observation_count
    assert rows % 8 and rows > 40 + 130
    padded = padded_table(env)
    net = init_mlp([env.observation_size, 64, 64, 2], np.random.default_rng(width))
    evaluators = {
        "q": lambda block: mlp_forward(net, block),
        "max_q": lambda block: mlp_forward(net, block).max(axis=1),
        "threshold": lambda block: a2c_module.sell_thresholds(net, block),
    }
    for name, evaluate in evaluators.items():
        reference = evaluate(padded)[:rows]
        for lo in range(41):
            for hi in (lo + 1, lo + 7, lo + 130, rows):
                values = row_values(env, evaluate, lo, hi)
                assert values.tobytes() == reference[lo:hi].tobytes(), (name, lo, hi)


@pytest.mark.parametrize("flag", [True, False])
def test_row_values_pad_every_block_with_zero_rows(flag):
    """Every block row_values hands evaluate has at most BLOCK_ROWS rows, a
    multiple of 8, holds the range's rows in order and exactly 0.0 after them,
    also when its buffer held a full block before: ranges end 1-7 rows past a
    block boundary, and one runs past the last row, where it is clipped."""
    series = random_walk_series(293, seed=11)
    env = TradingEnv(series, compute_feature_matrix(series, default_specs()), EnvConfig(include_position_flag=flag))
    table = observation_table(env)
    rows = len(table)
    ranges = [(lo, lo + blocks * BLOCK_ROWS + extra) for lo in (0, 5) for blocks in (1, 2) for extra in range(1, 8)]
    for lo, hi in [*ranges, (rows - BLOCK_ROWS - 3, rows + 9)]:
        blocks = []

        def spy(block):
            blocks.append(block.copy())
            return block[:, 0] + 1.0

        values = row_values(env, spy, lo, hi)
        hi = min(hi, rows)
        assert values.tobytes() == (table[lo:hi, 0] + 1.0).tobytes()
        assert len(blocks) == math.ceil((hi - lo) / BLOCK_ROWS)
        starts = range(lo, hi, BLOCK_ROWS)
        for start, block in zip(starts, blocks):
            real = min(BLOCK_ROWS, hi - start)
            assert len(block) <= BLOCK_ROWS and len(block) % 8 == 0 and len(block) - real < 8, (lo, hi)
            assert block[:real].tobytes() == table[start : start + real].tobytes()
            assert (block[real:] == 0.0).all() and not np.signbit(block[real:]).any(), (lo, hi)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("train", [a2c_train, ppo_train], ids=["a2c", "ppo"])
def test_non_finite_actor_raises_training_diverged(monkeypatch, train, value):
    def poisoned(layer_sizes, rng):
        net = init_mlp(layer_sizes, rng)
        if layer_sizes[-1] == 2:  # the actor
            net.flat[:] = value
        return net

    monkeypatch.setattr(a2c_module, "init_mlp", poisoned)
    with pytest.raises(TrainingDiverged) as err:
        train(lambda: tiny_env(), tiny_hp(), seed=0)
    assert err.value.step == 1
    assert math.isnan(err.value.loss)
