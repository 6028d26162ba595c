"""Adversarial market-scenario generation and max-Sharpe portfolio backtesting.

The package trains conditional adversarial generators (plain, autoencoding,
and hybrid-proposer variants) on multi-asset price windows, synthesizes future
price paths, allocates long-only maximum-Sharpe portfolios over the draws, and
backtests the averaged strategy against a rolling-window Markowitz baseline.
"""

__version__ = "0.1.0"

from .errors import GanfolioError, NumericFault, ValidationError
from .marketdata import (
    PriceFrame,
    WindowSample,
    extract_window,
    inference_index_set,
    load_price_csv,
    simple_returns,
    split_train_test,
    training_index_set,
    write_price_csv,
)
from .normalization import (
    NormStats,
    denormalize,
    fit_eavesdrop,
    fit_standard,
    make_hybrid_stats,
    normalize,
)
from .networks import (AdamState, AdamWorkers, LayerSpec, MlpNetwork, adam_step, build_network,
                       forward, init_parameters)
from .gan import (
    MODEL_KINDS,
    EpochLog,
    ModelBundle,
    TrainConfig,
    load_bundle,
    propose_mean,
    save_bundle,
    simulate_paths,
    train,
    train_proposer,
)
from .portfolio import (
    MomentEstimate,
    estimate_moments,
    max_sharpe_weights,
    min_variance_weights,
    project_to_simplex,
)
from .backtest import (
    REBALANCE_SETTINGS,
    BacktestResult,
    WeightSchedule,
    annualized_metrics,
    portfolio_value_series,
    rebalance_days,
    run_experiment,
    strategy_from_paths,
)

__all__ = [
    "GanfolioError",
    "NumericFault",
    "ValidationError",
    "PriceFrame",
    "WindowSample",
    "extract_window",
    "inference_index_set",
    "load_price_csv",
    "simple_returns",
    "split_train_test",
    "training_index_set",
    "write_price_csv",
    "NormStats",
    "denormalize",
    "fit_eavesdrop",
    "fit_standard",
    "make_hybrid_stats",
    "normalize",
    "AdamState",
    "AdamWorkers",
    "LayerSpec",
    "MlpNetwork",
    "adam_step",
    "build_network",
    "forward",
    "init_parameters",
    "MODEL_KINDS",
    "EpochLog",
    "ModelBundle",
    "TrainConfig",
    "load_bundle",
    "propose_mean",
    "save_bundle",
    "simulate_paths",
    "train",
    "train_proposer",
    "MomentEstimate",
    "estimate_moments",
    "max_sharpe_weights",
    "min_variance_weights",
    "project_to_simplex",
    "REBALANCE_SETTINGS",
    "BacktestResult",
    "WeightSchedule",
    "annualized_metrics",
    "portfolio_value_series",
    "rebalance_days",
    "run_experiment",
    "strategy_from_paths",
    "__version__",
]
