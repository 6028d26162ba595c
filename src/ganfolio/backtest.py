"""Rebalanced portfolio backtesting over real and synthetic price paths.

Conventions: rebalancing happens at close prices with fractional shares and
no costs; the first rebalance is on day h+1 (1-based) and the portfolio
starts there with unit value; between rebalances holdings are fixed share
quantities.  Annualization uses 252 trading days and sqrt(252).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .marketdata import PriceFrame, simple_returns
from .portfolio import estimate_moments, markowitz_weights, max_sharpe_weights

TRADING_DAYS_PER_YEAR = 252

# named rebalance settings: trading days between weight resets
REBALANCE_SETTINGS = {"defensive": 10, "balanced": 15, "aggressive": 20}

# std below this (relative to the mean) marks a degenerate Sharpe ratio
_DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class WeightSchedule:
    """Long-only weight vectors at equally spaced 1-based rebalance days."""

    rebalance_indices: tuple[int, ...]
    weights: np.ndarray  # (n_rebalances, n_assets)

    def __post_init__(self):
        indices = tuple(int(i) for i in self.rebalance_indices)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "rebalance_indices", indices)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 2 or weights.shape[0] != len(indices):
            raise ValidationError(
                f"weights shape {weights.shape} vs {len(indices)} rebalance dates")
        if len(indices) == 0:
            raise ValidationError("schedule needs at least one rebalance date")
        spacings = np.diff(indices)
        if len(spacings) and (spacings <= 0).any():
            raise ValidationError("rebalance indices must be strictly increasing")
        if len(spacings) and len(set(spacings.tolist())) > 1:
            raise ValidationError(f"rebalance spacing must be constant, got {sorted(set(spacings))}")
        if not np.allclose(weights.sum(axis=1), 1.0, atol=1e-8):
            raise ValidationError("weights must sum to 1 at every rebalance date")
        if (weights < -1e-9).any() or (weights > 1 + 1e-9).any():
            raise ValidationError("weights must lie in [0, 1]")

    @property
    def eta(self) -> int:
        if len(self.rebalance_indices) < 2:
            raise ValidationError("spacing undefined for a single rebalance date")
        return self.rebalance_indices[1] - self.rebalance_indices[0]


@dataclass(frozen=True)
class AnnualizedMetrics:
    annual_return: float
    annual_sharpe: float
    degenerate: bool


@dataclass(frozen=True)
class BacktestResult:
    """Value series from the first rebalance date plus summary metrics."""

    value_series: np.ndarray
    dates: tuple[str, ...]
    annual_return: float
    annual_sharpe: float
    sharpe_degenerate: bool
    schedule: WeightSchedule
    draw_scatter: np.ndarray | None = None  # (n_draws, 2): return, sharpe


def rebalance_days(day_count: int, h: int, eta: int) -> tuple[int, ...]:
    """1-based rebalance days h+1, h+1+eta, ... while at least one day remains."""
    if eta < 1:
        raise ValidationError(f"rebalance period must be positive, got {eta}")
    if h + 1 >= day_count:
        raise ValidationError(f"no room to trade: h={h} with only {day_count} days")
    return tuple(range(h + 1, day_count, eta))


def strategy_from_paths(paths: np.ndarray, test_frame: PriceFrame, eta: int,
                        r_f: float = 0.0, *, h: int, f: int) -> list[WeightSchedule]:
    """Per-draw max-Sharpe schedules computed on the synthetic paths.

    At each rebalance day t the moments come from the draw's generated
    block(s): the block whose span contains t, extended with following blocks
    until the holding period [t, t+eta-1] is covered.  With eta < f one block
    serves several consecutive rebalances; with eta > f blocks concatenate.
    """
    paths = np.asarray(paths, dtype=np.float64)
    n, k = test_frame.n_assets, test_frame.day_count
    if paths.ndim != 3 or paths.shape[1:] != (n, k):
        raise ValidationError(
            f"paths shape {paths.shape} misaligned with test frame ({n} x {k})")
    _require_positive_paths(paths, test_frame)
    days = rebalance_days(k, h, eta)
    schedules = []
    for b in paths:
        weights = np.empty((len(days), n))
        for j, t in enumerate(days):
            start, stop = _covering_block_span(t, eta, h, f, k)
            block = b[:, start - 1:stop]
            weights[j] = max_sharpe_weights(estimate_moments(simple_returns(block)), r_f)
        schedules.append(WeightSchedule(days, weights))
    return schedules


def _require_positive_paths(paths: np.ndarray, test_frame: PriceFrame) -> None:
    """Reject generated paths with a non-positive (or NaN) price, naming where."""
    bad = ~(paths > 0.0)
    if not bad.any():
        return
    draw = int(np.argmax(bad.any(axis=(1, 2))))
    day = int(np.argmax(bad[draw].any(axis=0)))
    asset = int(np.argmax(bad[draw, :, day]))
    raise ValidationError(
        f"generated path of draw {draw + 1} has a non-positive price "
        f"{float(paths[draw, asset, day]):.6g} for {test_frame.tickers[asset]} on "
        f"{test_frame.dates[day]} (test day {day + 1}); the model generated it, "
        f"so the trained bundle is at fault, not the input CSV")


def _covering_block_span(t: int, eta: int, h: int, f: int, k: int) -> tuple[int, int]:
    """1-based [start, stop] columns of the synthetic blocks backing day t."""
    start = h + 1 + ((t - (h + 1)) // f) * f
    hold_end = min(t + eta - 1, k)
    stop = start + f - 1
    while stop < hold_end and stop + f <= k:
        stop += f
    return start, min(stop, k)


def mean_strategy(schedules) -> WeightSchedule:
    """Per-date arithmetic mean of the draws' weight vectors."""
    schedules = list(schedules)
    if not schedules:
        raise ValidationError("no schedules to average")
    indices = schedules[0].rebalance_indices
    for s in schedules[1:]:
        if s.rebalance_indices != indices:
            raise ValidationError("schedules disagree on rebalance dates")
    stacked = np.stack([s.weights for s in schedules])
    return WeightSchedule(indices, stacked.mean(axis=0))


def portfolio_value_series(schedule: WeightSchedule, frame: PriceFrame) -> tuple[np.ndarray, tuple[str, ...]]:
    """Daily portfolio values from the first rebalance date, starting at 1.

    Holdings are fixed shares bought at each rebalance close; at the next
    rebalance the full value moves to the new weights at that day's close.
    """
    first = schedule.rebalance_indices[0]
    last = schedule.rebalance_indices[-1]
    if first < 1 or last > frame.day_count:
        raise ValidationError(
            f"schedule spans days {first}..{last}, frame has {frame.day_count}")
    if schedule.weights.shape[1] != frame.n_assets:
        raise ValidationError("schedule asset count does not match the frame")
    prices = frame.prices
    by_day = {t: schedule.weights[i] for i, t in enumerate(schedule.rebalance_indices)}
    values = np.empty(frame.day_count - first + 1)
    values[0] = 1.0
    base_value = 1.0
    base_prices = prices[:, first - 1]
    weights = by_day[first]
    for t in range(first + 1, frame.day_count + 1):
        value = base_value * float(weights @ (prices[:, t - 1] / base_prices))
        values[t - first] = value
        if t in by_day:
            base_value, base_prices, weights = value, prices[:, t - 1], by_day[t]
    return values, frame.dates[first - 1:]


def annualized_metrics(value_series, r_f: float = 0.0) -> AnnualizedMetrics:
    """Annualized return and Sharpe ratio of a daily value series.

    Uses population std of daily returns; a (near-)zero std yields Sharpe 0
    with the degenerate flag set instead of a division blow-up.
    """
    values = np.asarray(value_series, dtype=np.float64)
    if values.size < 2:
        raise ValidationError("value series needs at least 2 points")
    if (values <= 0).any():
        raise ValidationError("value series must stay positive")
    daily = values[1:] / values[:-1] - 1.0
    mean = daily.mean()
    std = daily.std()
    annual_return = mean * TRADING_DAYS_PER_YEAR
    if std < _DEGENERATE_STD * max(1.0, abs(mean)):
        return AnnualizedMetrics(annual_return, 0.0, True)
    sharpe = (mean - r_f / TRADING_DAYS_PER_YEAR) / std * np.sqrt(TRADING_DAYS_PER_YEAR)
    return AnnualizedMetrics(annual_return, float(sharpe), False)


def markowitz_schedule(test_frame: PriceFrame, eta: int, h: int,
                       r_f: float = 0.0) -> WeightSchedule:
    """Rolling-window baseline: optimize over the trailing h real days."""
    days = rebalance_days(test_frame.day_count, h, eta)
    weights = np.empty((len(days), test_frame.n_assets))
    for j, t in enumerate(days):
        weights[j] = markowitz_weights(test_frame.prices[:, t - 1 - h:t - 1], r_f)
    return WeightSchedule(days, weights)


def run_experiment(model, test_frame: PriceFrame, eta: int, n_draws: int = 1000,
                   seed: int = 0, r_f: float = 0.0, h: int | None = None) -> BacktestResult:
    """Backtest one model on the test period.

    ``model`` is either a trained bundle or the string ``"markowitz"`` (which
    needs ``h``, the trailing window length, and ignores draws).  For bundles
    the result carries the mean strategy's series plus one (annual return,
    annual Sharpe) scatter point per draw, each draw's schedule applied to
    the real test prices.
    """
    scatter = None
    if isinstance(model, str):
        if model != "markowitz":
            raise ValidationError(f"unknown model {model!r}")
        if h is None:
            raise ValidationError("markowitz baseline needs the trailing window length h")
        schedule = markowitz_schedule(test_frame, eta, h, r_f)
    else:
        from .gan import simulate_paths  # deferred: backtest does not need GAN machinery otherwise

        paths = simulate_paths(model, test_frame, n_draws, seed)
        schedules = strategy_from_paths(paths, test_frame, eta, r_f,
                                        h=model.config.h, f=model.config.f)
        scatter = np.array([(r.annual_return, r.annual_sharpe)
                            for r in (_score(s, test_frame, r_f) for s in schedules)])
        schedule = mean_strategy(schedules)
    return _score(schedule, test_frame, r_f, scatter)


def _score(schedule: WeightSchedule, test_frame: PriceFrame, r_f: float,
           draw_scatter: np.ndarray | None = None) -> BacktestResult:
    """Apply ``schedule`` to the real test prices and annualize the result."""
    values, dates = portfolio_value_series(schedule, test_frame)
    metrics = annualized_metrics(values, r_f)
    return BacktestResult(values, dates, metrics.annual_return, metrics.annual_sharpe,
                          metrics.degenerate, schedule, draw_scatter)
