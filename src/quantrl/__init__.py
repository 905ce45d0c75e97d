"""quantrl: a deterministic reinforcement-learning trading laboratory.

Pipeline: OHLCV ingestion -> technical-indicator features -> normalization
and correlation analysis -> discrete long/short trading MDP -> DQN/A2C/PPO
training over a small MLP -> greedy backtest with the standard
risk-adjusted performance metrics.
"""

__version__ = "0.1.0"

from . import errors
from .market_data import Bar, OhlcvSeries, load_csv, save_csv, slice_by_date
from .indicators import FeatureColumn, FeatureMatrix, IndicatorSpec, compute_feature_matrix, default_specs
from .normalize import (
    CorrelationMatrix,
    NormalizationKind,
    NormalizationStats,
    fit,
    l2_normalize,
    min_max,
    pearson_corr_matrix,
    select_uncorrelated,
    sigmoid_norm,
    window_log,
    z_score,
)
from .trading_env import (
    Action,
    EnvConfig,
    EpisodeLedger,
    Position,
    RewardKind,
    StepResult,
    TradingEnv,
    reward_immediate,
    reward_on_flip,
    reward_terminal,
)
from .agents import (
    ActorCritic,
    Hyperparams,
    MlpPolicy,
    ReplayBuffer,
    TrainingLog,
    a2c_train,
    dqn_train,
    epsilon_greedy,
    linear_epsilon,
    load_policy,
    mlp_forward,
    ppo_train,
    save_policy,
)
from .backtest import (
    EquityCurve,
    PerformanceReport,
    Trade,
    annualize,
    calmar,
    compute_report,
    max_drawdown,
    render_report,
    run_policy,
    sharpe,
    sortino,
    win_rate,
)

__all__ = [
    "Action", "ActorCritic", "Bar", "CorrelationMatrix", "EnvConfig",
    "EpisodeLedger", "EquityCurve", "FeatureColumn", "FeatureMatrix",
    "Hyperparams", "IndicatorSpec", "MlpPolicy", "NormalizationKind",
    "NormalizationStats", "OhlcvSeries",
    "PerformanceReport", "Position", "ReplayBuffer", "RewardKind",
    "StepResult", "Trade", "TradingEnv", "TrainingLog",
    "a2c_train", "annualize", "calmar", "compute_feature_matrix",
    "compute_report", "default_specs", "dqn_train", "epsilon_greedy",
    "errors", "fit", "l2_normalize", "linear_epsilon", "load_csv",
    "load_policy", "max_drawdown", "min_max", "mlp_forward",
    "pearson_corr_matrix", "ppo_train", "render_report", "reward_immediate",
    "reward_on_flip", "reward_terminal", "run_policy", "save_csv",
    "save_policy", "select_uncorrelated", "sharpe", "sigmoid_norm",
    "slice_by_date", "sortino", "win_rate",
    "window_log", "z_score",
]
