"""Function approximators and training algorithms: MLP, DQN, A2C, PPO."""

from .a2c import ActorCritic, a2c_train, n_step_returns, sample_action
from .common import (
    Hyperparams,
    TrainingLog,
    TrainingRecord,
    epsilon_greedy,
    linear_epsilon,
)
from .dqn import DqnTrainer, dqn_train, td_loss_and_grads, td_targets
from .losses import policy_gradient_loss, ppo_policy_loss, value_loss
from .mlp import MlpPolicy, forward_cached, init_mlp, log_softmax, mlp_backward, mlp_forward, softmax
from .policy_io import load_policy, save_policy
from .ppo import gae_advantages, ppo_train
from .replay import Batch, ReplayBuffer

__all__ = [
    "ActorCritic", "Batch", "DqnTrainer", "Hyperparams", "MlpPolicy",
    "ReplayBuffer", "TrainingLog", "TrainingRecord",
    "a2c_train", "dqn_train", "epsilon_greedy", "forward_cached",
    "gae_advantages", "init_mlp", "linear_epsilon", "load_policy",
    "log_softmax", "mlp_backward", "mlp_forward", "n_step_returns",
    "policy_gradient_loss", "ppo_policy_loss", "ppo_train", "sample_action",
    "save_policy", "softmax", "td_loss_and_grads", "td_targets", "value_loss",
]
