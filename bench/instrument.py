"""Timing hooks installed around quantrl's public functions from the benchmark's side.

A hook replaces a function in every quantrl module namespace that holds it
(``quantrl.agents.dqn.mlp_forward`` as well as ``quantrl.agents.mlp.mlp_forward``),
or a method on its class, and puts the original back on exit. Two hook sets:

* ``Clock`` (untraced runs) wraps only what the end-to-end metrics need: the
  set-up functions, the three trainers, ``TrainingLog.append`` as an episode
  clock, and the four backtest calls. A few calls per episode, so its cost is
  far below the run-to-run noise.
* ``Tracer`` (traced runs) wraps every public function of every layer, keeps
  one span per call in memory, and accumulates calls and self time (a span's
  duration minus the time its child spans cover).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

import quantrl.agents.a2c as a2c
import quantrl.agents.common as common
import quantrl.agents.dqn as dqn
import quantrl.agents.losses as losses
import quantrl.agents.mlp as mlp
import quantrl.agents.optim as optim
import quantrl.agents.policy_io as policy_io
import quantrl.agents.ppo as ppo
import quantrl.agents.replay as replay
import quantrl.backtest as backtest
import quantrl.indicators as indicators
import quantrl.market_data as market_data
import quantrl.normalize as normalize
import quantrl.runner.cli  # noqa: F401 - its namespace holds names the hooks replace
import quantrl.runner.config as config
import quantrl.runner.manifest as manifest
import quantrl.trading_env as trading_env

# (layer metric prefix, owner, attribute). A class owner means a method.
TRACED = [
    ("market_data.load_csv", market_data, "load_csv"),
    ("market_data.slice_by_date", market_data, "slice_by_date"),
    ("market_data.save_csv", market_data, "save_csv"),
    ("indicators.compute_feature_matrix", indicators, "compute_feature_matrix"),
    ("normalize.pearson_corr_matrix", normalize, "pearson_corr_matrix"),
    ("normalize.select_uncorrelated", normalize, "select_uncorrelated"),
    ("trading_env.init", trading_env.TradingEnv, "__init__"),
    ("trading_env.reset", trading_env.TradingEnv, "reset"),
    ("trading_env.step", trading_env.TradingEnv, "step"),
    ("trading_env.flatten", trading_env.ObservationWindow, "flatten"),
    ("agents.mlp.forward_one", mlp, "mlp_forward"),  # 1-D input; 2-D input counts as forward_batch
    ("agents.mlp.forward_cached", mlp, "forward_cached"),
    ("agents.mlp.backward", mlp, "mlp_backward"),
    ("agents.mlp.copy", mlp.MlpPolicy, "copy"),
    ("agents.dqn.td_loss_and_grads", dqn, "td_loss_and_grads"),
    ("agents.dqn.train", dqn, "dqn_train"),
    ("agents.losses.policy_gradient_loss", losses, "policy_gradient_loss"),
    ("agents.losses.value_loss", losses, "value_loss"),
    ("agents.losses.ppo_policy_loss", losses, "ppo_policy_loss"),
    ("agents.optim.update", optim.Sgd, "update"),
    ("agents.optim.update", optim.Adam, "update"),
    ("agents.replay.push", replay.ReplayBuffer, "push"),
    ("agents.replay.sample", replay.ReplayBuffer, "sample"),
    ("agents.common.epsilon_greedy", common, "epsilon_greedy"),
    ("agents.a2c.sample_action", a2c, "sample_action"),
    ("agents.a2c.train", a2c, "a2c_train"),
    ("agents.ppo.train", ppo, "ppo_train"),
    ("agents.policy_io.save", policy_io, "save_policy"),
    ("agents.policy_io.load", policy_io, "load_policy"),
    ("backtest.run_policy", backtest, "run_policy"),
    ("backtest.compute_report", backtest, "compute_report"),
    ("backtest.render_report", backtest, "render_report"),
    ("runner.load_config", config, "load_config"),
    ("runner.manifest_write", manifest.RunManifest, "write"),
]
FORWARD_BATCH = "agents.mlp.forward_batch"
LAYER_FUNCTIONS = sorted({name for name, _, _ in TRACED} | {FORWARD_BATCH})

SETUP = {"market_data.load_csv", "market_data.slice_by_date", "indicators.compute_feature_matrix",
         "trading_env.init", "normalize.pearson_corr_matrix", "normalize.select_uncorrelated"}
TRAINERS = {"agents.dqn.train": "DQN", "agents.a2c.train": "A2C", "agents.ppo.train": "PPO"}
BACKTEST = {"agents.policy_io.load", "backtest.run_policy", "backtest.compute_report", "backtest.render_report"}


class Hooks:
    """Replaces functions in place; ``with hooks:`` installs, exit restores."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, wrapper))
            return
        for name, module in list(sys.modules.items()):
            if name == "quantrl" or name.startswith("quantrl."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        return False


class Clock(Hooks):
    """Hooks for the end-to-end metrics.

    setup_s: total time inside the outermost set-up calls.
    train_calls: (algorithm, total_timesteps, start, end, first episode index).
    episodes: (time, timestep) at each TrainingLog.append.
    backtest_s, bars: total time in policy load, run_policy, compute_report and
    render_report, and the bars run_policy evaluated.
    """

    def __init__(self):
        super().__init__()
        self.setup_s = 0.0
        self.train_calls: list[tuple[str, int, float, float, int]] = []
        self.episodes: list[tuple[float, int]] = []
        self.backtest_s = 0.0
        self.bars = 0
        depth = [0]
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            if name in SETUP:
                self.add(owner, attr, self._setup(original, depth))
            elif name in TRAINERS:
                self.add(owner, attr, self._trainer(original, TRAINERS[name]))
            elif name in BACKTEST:
                self.add(owner, attr, self._backtest(original, name == "backtest.run_policy"))
        self.add(common.TrainingLog, "append", self._episode(common.TrainingLog.append))

    def _setup(self, fn, depth):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    self.setup_s += perf_counter() - t0
        return wrapper

    def _trainer(self, fn, algorithm):
        def wrapper(env_factory, hyperparams, seed):
            first_episode = len(self.episodes)
            t0 = perf_counter()
            result = fn(env_factory, hyperparams, seed)
            self.train_calls.append((algorithm, hyperparams.total_timesteps, t0, perf_counter(), first_episode))
            return result
        return wrapper

    def _episode(self, fn):
        episodes = self.episodes

        def wrapper(log, record):
            fn(log, record)
            episodes.append((perf_counter(), record.timestep))
        return wrapper

    def _backtest(self, fn, counts_bars):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.backtest_s += perf_counter() - t0
            if counts_bars:
                self.bars += len(result[0])
            return result
        return wrapper


class Tracer(Hooks):
    """Span recorder over every function in TRACED."""

    def __init__(self):
        super().__init__()
        self.names = LAYER_FUNCTIONS
        index = {name: i for i, name in enumerate(self.names)}
        self.calls = np.zeros(len(self.names), dtype=np.int64)
        self.self_s = np.zeros(len(self.names))
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [child seconds, span id] per open span
        batch = index[FORWARD_BATCH]
        for name, owner, attr in TRACED:
            i = index[name]
            pick = (lambda args, i=i: i if np.ndim(args[1]) == 1 else batch) if name == "agents.mlp.forward_one" else None
            self.add(owner, attr, self._wrap(getattr(owner, attr), i, pick))

    def _wrap(self, fn, i, pick):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            k = pick(args) if pick else i
            span = len(names)
            names.append(k)
            parents.append(stack[-1][1] if stack else -1)
            ends.append(0.0)
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[span] = t1
                calls[k] += 1
                self_s[k] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
        return wrapper

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self.calls.copy(), self.self_s.copy()

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
        )
