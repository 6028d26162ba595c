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
from .portfolio import _member, estimate_moments, max_sharpe_weights

TRADING_DAYS_PER_YEAR = 252

# named rebalance settings: trading days between weight resets
REBALANCE_SETTINGS = {"defensive": 10, "balanced": 15, "aggressive": 20}

# std below this (relative to the mean) marks a degenerate Sharpe ratio
_DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class WeightSchedule:
    """Long-only weight vectors at strictly increasing 1-based rebalance days.

    ``weights`` is (n_rebalances, n_assets) for one strategy, or
    (members, n_rebalances, n_assets) for a stack of strategies that share
    their rebalance days.  A stack is checked once; a failing check names
    the first member that fails it.
    """

    rebalance_indices: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        indices = tuple(int(i) for i in self.rebalance_indices)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "rebalance_indices", indices)
        object.__setattr__(self, "weights", weights)
        if weights.ndim not in (2, 3) or weights.shape[-2] != len(indices):
            raise ValidationError(
                f"weights shape {weights.shape} vs {len(indices)} rebalance dates")
        if len(indices) == 0:
            raise ValidationError("schedule needs at least one rebalance date")
        if (np.diff(indices) <= 0).any():
            raise ValidationError("rebalance indices must be strictly increasing")
        off_sum = ~(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-8).all(axis=-1)
        if off_sum.any():
            raise ValidationError(
                f"{_member(off_sum)}weights must sum to 1 at every rebalance date")
        outside = ((weights < -1e-9) | (weights > 1 + 1e-9)).any(axis=(-2, -1))
        if outside.any():
            raise ValidationError(f"{_member(outside)}weights must lie in [0, 1]")


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
    spans = [_covering_block_span(t, eta, h, f, k) for t in days]
    return _schedule(paths, days, spans, r_f)


def _schedule(paths: np.ndarray, days: tuple[int, ...], spans: list[tuple[int, int]],
              r_f: float) -> list[WeightSchedule]:
    """Max-Sharpe weights of each (N, K) price path of ``paths`` at each rebalance day.

    Day ``days[j]`` allocates over its 1-based [start, stop] price span ``spans[j]``.

    Every strategy, generated or Markowitz, allocates through here.  A span
    shared by several days is solved once, and the problems of every path
    over every span of one length are solved as one stack.
    """
    by_length = {}
    for start, stop in dict.fromkeys(spans):
        by_length.setdefault(stop - start, []).append((start, stop))
    solved = {}
    for group in by_length.values():
        stack = np.stack([paths[:, :, start - 1:stop] for start, stop in group], axis=1)
        weights = max_sharpe_weights(estimate_moments(simple_returns(stack)), r_f)
        solved.update(zip(group, np.swapaxes(weights, 0, 1)))
    return [WeightSchedule(days, w) for w in np.stack([solved[span] for span in spans], axis=1)]


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
    A stacked schedule gives one row of values per member.  Each value is
    its period's base value times one 1-D dot of the member's weights with
    the day's prices relative to the period's first close, so a member's
    series does not depend on the other members.
    """
    first = schedule.rebalance_indices[0]
    last = schedule.rebalance_indices[-1]
    if first < 1 or last > frame.day_count:
        raise ValidationError(
            f"schedule spans days {first}..{last}, frame has {frame.day_count}")
    if schedule.weights.shape[-1] != frame.n_assets:
        raise ValidationError("schedule asset count does not match the frame")
    prices = frame.prices
    weights = schedule.weights.reshape(-1, *schedule.weights.shape[-2:])
    values = np.empty((len(weights), frame.day_count - first + 1))
    values[:, 0] = 1.0
    bounds = (*schedule.rebalance_indices, frame.day_count)
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        # (days, N) with contiguous rows: matmul then makes one vector dot per
        # member and day, the same BLAS dot as a 1-D ``weights @ relative[d]``
        relative = np.ascontiguousarray(prices[:, start:end].T) / prices[:, start - 1]
        dots = np.matmul(relative[None, :, None, :], weights[:, i, None, :, None])[..., 0, 0]
        values[:, start - first + 1:end - first + 1] = values[:, start - first, None] * dots
    return values.reshape(schedule.weights.shape[:-2] + values.shape[1:]), frame.dates[first - 1:]


def annualized_metrics(value_series, r_f: float = 0.0) -> AnnualizedMetrics:
    """Annualized return and Sharpe ratio of a daily value series.

    Uses population std of daily returns; a (near-)zero std yields Sharpe 0
    with the degenerate flag set instead of a division blow-up.
    """
    values = np.asarray(value_series, dtype=np.float64)
    if values.ndim != 1:
        raise ValidationError(f"value series must be 1-D, got shape {values.shape}")
    annual_return, annual_sharpe, degenerate = _annualize(values, r_f)
    return AnnualizedMetrics(float(annual_return), float(annual_sharpe), bool(degenerate))


def _annualize(values: np.ndarray, r_f: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annual return, annual Sharpe ratio and degenerate flag of each value
    series along the last axis of ``values``.

    Each row's daily returns are contiguous, so its mean and std are the
    same reductions, bit for bit, as those of the row alone.
    """
    if values.shape[-1] < 2:
        raise ValidationError("value series needs at least 2 points")
    invalid = ~(np.isfinite(values) & (values > 0)).all(axis=-1)
    if invalid.any():
        raise ValidationError(f"{_member(invalid)}value series must stay positive and finite")
    daily = values[..., 1:] / values[..., :-1] - 1.0
    mean = daily.mean(axis=-1)
    std = daily.std(axis=-1)
    degenerate = std < _DEGENERATE_STD * np.maximum(1.0, np.abs(mean))
    sharpe = ((mean - r_f / TRADING_DAYS_PER_YEAR) / np.where(degenerate, 1.0, std)
              * np.sqrt(TRADING_DAYS_PER_YEAR))
    return mean * TRADING_DAYS_PER_YEAR, np.where(degenerate, 0.0, sharpe), degenerate


def markowitz_schedule(test_frame: PriceFrame, eta: int, h: int,
                       r_f: float = 0.0) -> WeightSchedule:
    """Rolling-window baseline: optimize over the trailing h real days."""
    days = rebalance_days(test_frame.day_count, h, eta)
    if h < 3:
        raise ValidationError(f"need at least 3 trailing prices (2 returns), got {h}")
    return _schedule(test_frame.prices[None], days, [(t - h, t - 1) for t in days], r_f)[0]


def run_experiment(model, test_frame: PriceFrame, eta: int, n_draws: int = 1000,
                   seed: int = 0, r_f: float = 0.0, h: int | None = None) -> BacktestResult:
    """Backtest one model on the test period.

    ``model`` is either a trained bundle or the string ``"markowitz"`` (which
    needs ``h``, the trailing window length, and ignores draws).  For bundles
    the result carries the mean strategy's series plus one (annual return,
    annual Sharpe) scatter point per draw, each draw's schedule applied to
    the real test prices.
    """
    if isinstance(model, str):
        if model != "markowitz":
            raise ValidationError(f"unknown model {model!r}")
        if h is None:
            raise ValidationError("markowitz baseline needs the trailing window length h")
        draws = []
        schedule = markowitz_schedule(test_frame, eta, h, r_f)
    else:
        from .gan import simulate_paths  # deferred: backtest does not need GAN machinery otherwise

        paths = simulate_paths(model, test_frame, n_draws, seed)
        draws = strategy_from_paths(paths, test_frame, eta, r_f,
                                    h=model.config.h, f=model.config.f)
        schedule = mean_strategy(draws)
    # every draw and then the strategy itself, applied to the real test prices as one stack
    stack = WeightSchedule(schedule.rebalance_indices,
                           np.stack([s.weights for s in (*draws, schedule)]))
    values, dates = portfolio_value_series(stack, test_frame)
    annual_return, annual_sharpe, degenerate = _annualize(values, r_f)
    scatter = np.column_stack([annual_return[:-1], annual_sharpe[:-1]]) if draws else None
    return BacktestResult(values[-1], dates, float(annual_return[-1]), float(annual_sharpe[-1]),
                          bool(degenerate[-1]), schedule, scatter)
