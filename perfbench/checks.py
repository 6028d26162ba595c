"""Output checks computed apart from the program.

Every check compares an artifact with an independent computation or with a
property the method must have, never with a stored copy of earlier output,
and raises :class:`CheckFailed` on the first violation.  The conventions
come from the README and docs/formats.md: simple daily returns, the sample
covariance with a ``1e-4 * trace/N`` diagonal ridge, population standard
deviations with a ``max(3*sigma, 1e-8*max(1, |center|))`` scale, fixed
shares between rebalances and a unit start, 252-day annualization.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np

RIDGE = 1e-4
TRADING_DAYS = 252
# the max-Sharpe solver may fall short of the exact optimum by this relative
# margin: it stops once a step gains less than 1e-12 relative, and shortfalls
# of up to 2.8e-6 occur on the benchmark's problems (see CHANGES.md)
SHARPE_RTOL = 1e-4
# allowance for the solver's 1e-9 tie tolerance, in units of trace(cov)/N
TIE_ALLOWANCE = 2e-9
# recomputed value series and annualized figures: differences in summation order only
SERIES_RTOL = 1e-11


class CheckFailed(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    require(rows, f"{path}: empty CSV")
    return rows[0], rows[1:]


def read_weights(path, n_assets: int) -> tuple[list[str], np.ndarray]:
    """weights_<model>.csv -> (rebalance dates, (dates, N) weights)."""
    header, rows = read_rows(path)
    require(header == ["date", "ticker", "weight"], f"{path}: header {header}")
    require(len(rows) % n_assets == 0 and rows, f"{path}: {len(rows)} rows for {n_assets} assets")
    dates = [rows[i][0] for i in range(0, len(rows), n_assets)]
    weights = np.array([float(r[2]) for r in rows]).reshape(-1, n_assets)
    for i, date in enumerate(dates):
        require(all(r[0] == date for r in rows[i * n_assets:(i + 1) * n_assets]),
                f"{path}: rebalance block {i} mixes dates")
    return dates, weights


def read_columns(path) -> dict[str, list[str]]:
    header, rows = read_rows(path)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def tree_digest(directory) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    directory = Path(directory)
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------

def moments(prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean simple returns and the ridged sample covariance of (N, T) prices."""
    returns = prices[:, 1:] / prices[:, :-1] - 1.0
    cov = np.cov(returns)
    n = returns.shape[0]
    return returns.mean(axis=1), cov + RIDGE * np.trace(cov) / n * np.eye(n)


def sharpe(w, mean, cov) -> float:
    return float(w @ mean) / math.sqrt(float(w @ cov @ w))


def exact_allocation(mean, cov) -> tuple[bool, float, np.ndarray]:
    """Exact long-only optimum by enumerating supports (r_f = 0).

    On the relative interior of its support S, the max-Sharpe point is
    proportional to inv(cov_S) @ mean_S and the min-variance point to
    inv(cov_S) @ 1, so the optimum is the best candidate whose coefficients
    are all positive.  Returns (max_sharpe?, optimal value, weights); the
    value is the Sharpe ratio when some mean is positive, else the variance.
    """
    n = mean.size
    maximize = bool((mean > 0).any())
    best_value, best_w = None, None
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            s = list(support)
            y = np.linalg.solve(cov[np.ix_(s, s)], mean[s] if maximize else np.ones(k))
            if not (y > 0).all():
                continue
            w = np.zeros(n)
            w[s] = y / y.sum()
            value = sharpe(w, mean, cov) if maximize else float(w @ cov @ w)
            if best_value is None or (value > best_value if maximize else value < best_value):
                best_value, best_w = value, w
    return maximize, best_value, best_w


def check_allocation(weights, prices: np.ndarray, label: str, gaps: list | None = None) -> bool:
    """``weights`` must be feasible and as good as the exact optimum.

    Max-Sharpe problems must reach the exact optimum within SHARPE_RTOL.
    Min-variance problems (no positive mean return) must beat every start
    point of the solver's documented multistart (the uniform vector and each
    vertex), because the program's fallback misses the exact minimum by up
    to 0.4% on some inputs (see CHANGES.md).  A solver that does better than
    the reference never fails.  Each problem's relative shortfall from the
    exact optimum is appended to ``gaps`` as (branch, shortfall, label).
    Returns whether the problem took the min-variance branch.
    """
    w = np.asarray(weights, dtype=np.float64)
    require(np.isfinite(w).all() and (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9,
            f"{label}: weights {w.tolist()} are not on the simplex")
    mean, cov = moments(prices)
    maximize, best, _ = exact_allocation(mean, cov)
    if maximize:
        got = sharpe(w, mean, cov)
        shortfall = (best - got) / abs(best)
        require(shortfall <= SHARPE_RTOL,
                f"{label}: Sharpe {got!r} below the exact optimum {best!r}")
    else:
        got = float(w @ cov @ w)
        shortfall = got / best - 1.0
        starts = min(float(np.mean(cov)), float(np.min(np.diag(cov))))  # uniform, vertices
        require(got <= starts + TIE_ALLOWANCE * np.trace(cov) / mean.size,
                f"{label}: variance {got!r} above the solver's own start points ({starts!r})")
    if gaps is not None:
        gaps.append(("max_sharpe" if maximize else "min_variance", shortfall, label))
    return not maximize


def check_markowitz(weights_path, test_prices: np.ndarray, test_dates: list[str], h: int,
                    eta: int, gaps: list | None = None) -> int:
    """Every baseline row against the exact optimum on its trailing h days.

    Returns the number of rows that took the min-variance branch.
    """
    dates, weights = read_weights(weights_path, test_prices.shape[0])
    expected = [test_dates[t - 1] for t in range(h + 1, len(test_dates), eta)]
    require(dates == expected, f"{weights_path}: rebalance dates {dates[:3]}... "
                               f"differ from every {eta} days from day {h + 1}")
    fallbacks = 0
    for row, date in zip(weights, dates):
        t = test_dates.index(date) + 1
        fallbacks += check_allocation(row, test_prices[:, t - 1 - h:t - 1],
                                      f"{weights_path} {date}", gaps)
    return fallbacks


def covering_span(t: int, eta: int, h: int, f: int, k: int) -> tuple[int, int]:
    """1-based [start, stop] of the generated blocks that back rebalance day t.

    The block containing t, extended by whole following blocks until the
    holding period [t, t+eta-1] is covered (backtest.strategy_from_paths).
    """
    start = h + 1 + ((t - h - 1) // f) * f
    stop = start + f - 1
    while stop < min(t + eta - 1, k) and stop + f <= k:
        stop += f
    return start, min(stop, k)


def check_generated_allocations(schedules, paths: np.ndarray, eta: int, h: int, f: int,
                                sample, gaps: list | None = None, where: str = "") -> None:
    """Per-draw schedules on a fixed sample of (draw, rebalance) problems."""
    k = paths.shape[2]
    for j, i in sample:
        t = schedules[j].rebalance_indices[i]
        start, stop = covering_span(t, eta, h, f, k)
        check_allocation(schedules[j].weights[i], paths[j][:, start - 1:stop],
                         f"{where}draw {j} day {t}", gaps)


# ---------------------------------------------------------------------------
# backtest values
# ---------------------------------------------------------------------------

def value_series(prices: np.ndarray, days: list[int], weights: np.ndarray) -> np.ndarray:
    """Unit start at days[0]; fixed shares between rebalances (1-based days)."""
    shares = weights[0] / prices[:, days[0] - 1]
    reset = dict(zip(days[1:], weights[1:]))
    values = [1.0]
    for t in range(days[0] + 1, prices.shape[1] + 1):
        value = float(shares @ prices[:, t - 1])
        values.append(value)
        if t in reset:
            shares = value * reset[t] / prices[:, t - 1]
    return np.array(values)


def close(a, b, rtol=SERIES_RTOL) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def check_value_series(run_dir, test_prices: np.ndarray, test_dates: list[str]) -> None:
    """Each column of value_series.csv against its weights CSV and the prices."""
    columns = read_columns(Path(run_dir) / "value_series.csv")
    models = [name for name in columns if name != "date"]
    require(models, f"{run_dir}: value_series.csv has no series")
    for model in models:
        dates, weights = read_weights(Path(run_dir) / f"weights_{model}.csv", test_prices.shape[0])
        days = [test_dates.index(d) + 1 for d in dates]
        require(columns["date"] == test_dates[days[0] - 1:],
                f"{run_dir}: value_series dates do not run from {dates[0]} to the end")
        got = np.array([float(x) for x in columns[model]])
        want = value_series(test_prices, days, weights)
        require(close(got, want), f"{run_dir}: the {model} series differs from its "
                                  "recomputation from the weights and prices")


def annualized(values: np.ndarray) -> tuple[float, float]:
    daily = values[1:] / values[:-1] - 1.0
    return daily.mean() * TRADING_DAYS, daily.mean() / daily.std() * math.sqrt(TRADING_DAYS)


def check_scatter(run_dir, schedules, test_prices: np.ndarray) -> None:
    """scatter.csv rows against each draw's schedule applied to the real prices."""
    columns = read_columns(Path(run_dir) / "scatter.csv")
    require(len(columns["draw"]) == len(schedules),
            f"{run_dir}: scatter.csv has {len(columns['draw'])} rows for {len(schedules)} draws")
    for j, schedule in enumerate(schedules):
        ret, shp = annualized(value_series(test_prices, list(schedule.rebalance_indices),
                                           schedule.weights))
        got = (float(columns["annual_return"][j]), float(columns["annual_sharpe"][j]))
        require(close(got, (ret, shp), 1e-9), f"{run_dir}: scatter row {j} {got} vs {(ret, shp)}")


def check_mean_strategy(weights_path, schedules, n_assets: int) -> None:
    _, weights = read_weights(weights_path, n_assets)
    mean = np.mean([s.weights for s in schedules], axis=0)
    require(close(weights, mean, 1e-12),
            f"{weights_path}: not the per-date mean of the draws' schedules")


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def check_paths(paths: np.ndarray, test_prices: np.ndarray, n_draws: int, h: int, f: int) -> None:
    """Observed prefix bit for bit; every generated block inside tanh range."""
    n, k = test_prices.shape
    require(paths.shape == (n_draws, n, k), f"paths shape {paths.shape} != {(n_draws, n, k)}")
    require(np.isfinite(paths).all(), "paths contain non-finite values")
    require(np.array_equal(paths[:, :, :h], np.broadcast_to(test_prices[:, :h], (n_draws, n, h))),
            "the first h columns of some draw differ from the observed prices")
    for start in range(h + 1, k - f + 2, f):
        history = test_prices[:, start - 1 - h:start - 1]
        center = history.mean(axis=1)
        scale = np.maximum(3.0 * history.std(axis=1), 1e-8 * np.maximum(1.0, np.abs(center)))
        block = (paths[:, :, start - 1:start - 1 + f] - center[:, None]) / scale[:, None]
        worst = float(np.max(np.abs(block)))
        require(worst < 1.0, f"block at day {start}: normalized value {worst!r} outside (-1, 1)")


def check_overlay(path, paths: np.ndarray, test_prices: np.ndarray, test_dates: list[str],
                  tickers) -> None:
    header, rows = read_rows(path)
    n_draws, n, k = paths.shape
    require(header == ["date", "ticker", "actual"] + [f"draw_{d + 1}" for d in range(n_draws)],
            f"{path}: header does not list {n_draws} draws")
    require(len(rows) == n * k, f"{path}: {len(rows)} rows, expected {n * k}")
    values = np.array([[float(x) for x in row[2:]] for row in rows]).reshape(n, k, n_draws + 1)
    labels = [(row[0], row[1]) for row in rows]
    require(labels == [(d, t) for t in tickers for d in test_dates], f"{path}: row labels out of order")
    require(np.array_equal(values[:, :, 0], test_prices), f"{path}: actual column differs")
    require(np.array_equal(values[:, :, 1:], paths.transpose(1, 2, 0)),
            f"{path}: draw columns differ from paths.npy")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

TRAINING_LOG_HEADER = ["epoch", "critic_loss", "generator_loss", "ap_loss", "proposer_mse"]


def check_training_log(path, epochs: int, autoencoding: bool) -> None:
    header, rows = read_rows(path)
    require(header == TRAINING_LOG_HEADER, f"{path}: header {header}")
    require([r[0] for r in rows] == [str(e) for e in range(1, epochs + 1)],
            f"{path}: {len(rows)} rows for {epochs} epochs")
    for row in rows:
        critic, generator, ap, proposer = (float(x) for x in row[1:])
        require(math.isfinite(critic) and math.isfinite(generator),
                f"{path}: non-finite loss in epoch {row[0]}")
        require(math.isfinite(ap) if autoencoding else math.isnan(ap),
                f"{path}: ap_loss {ap} in epoch {row[0]} (autoencoding={autoencoding})")
        require(math.isnan(proposer), f"{path}: proposer_mse {proposer} without a proposer")


def check_networks_moved(trained: dict, initial: dict, label: str) -> None:
    """Every trainable network's parameters differ from its initialization."""
    require(trained.keys() == initial.keys(), f"{label}: networks {sorted(trained)}")
    for name, net in trained.items():
        changed = any(not np.array_equal(a, b)
                      for a, b in zip(net.parameters(), initial[name].parameters()))
        require(changed, f"{label}: {name} parameters equal their seeded initialization")


def check_proposer(network, reported_mse: float, heldout, propose) -> None:
    """Held-out MSE recomputed from the returned network; biases moved off zero.

    ``heldout`` is a list of (historical prices, full-window mean) pairs and
    ``propose(network, historical, mu)`` the program's inference call.
    """
    require(math.isfinite(reported_mse), f"proposer MSE {reported_mse} is not finite")
    errors = [np.mean((propose(network, hist, hist.mean(axis=1)) - target) ** 2)
              for hist, target in heldout]
    require(close(reported_mse, float(np.mean(errors)), 1e-9),
            f"proposer MSE {reported_mse!r} vs held-out recomputation {float(np.mean(errors))!r}")
    # biases initialize to zero (networks.py), so a trained output bias is not zero
    require(np.any(network.parameters()[-1] != 0.0), "proposer output bias never moved")


def check_repeats(digests: list, label: str) -> None:
    """Byte-identical artifacts across the repeats of a command."""
    require(len(digests) >= 2, f"{label}: fewer than two repeats recorded")
    for i, digest in enumerate(digests[1:], start=2):
        differing = sorted(k for k in set(digest) | set(digests[0])
                           if digest.get(k) != digests[0].get(k))
        require(not differing, f"{label}: repeat {i} differs from repeat 1 in {differing}")
