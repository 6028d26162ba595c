"""Seeded synthetic price data for the benchmark workloads.

Five assets follow a one-factor geometric random walk.  The training segment
holds exactly ``TRAIN_WINDOWS`` windows of width h+f; the test segment has
K=280 days, so (K-h)/f = 12 generation blocks.  Test days 150..219 are a
falling stretch on every asset, so the trailing-window Markowitz baseline
meets rebalance dates where no asset has a positive mean return and takes
its min-variance fallback.  Only the random draws depend on the seed; the
layout (sizes, dates, the falling stretch) is fixed.  A workload may draw
several independent datasets from one seed; dataset ``k`` of seed ``s`` is
the same everywhere.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_ASSETS = 5
H, F, M = 40, 20, 100
TEST_DAYS = 280
TRAIN_WINDOWS = 16
TRAIN_DAYS = TRAIN_WINDOWS + H + F - 1
FALL_START, FALL_STOP = 150, 220  # 1-based test days [start, stop)
FALL_DRIFT = -0.015
TICKERS = tuple(f"A{i}" for i in range(N_ASSETS))


def make_prices(seed: int, k: int = 0) -> np.ndarray:
    """(N, TRAIN_DAYS + TEST_DAYS) strictly positive prices of dataset ``k``."""
    rng = np.random.default_rng([int(seed), int(k), 22080715])
    days = TRAIN_DAYS + TEST_DAYS
    drift = rng.uniform(-2e-4, 8e-4, N_ASSETS)
    vol = rng.uniform(0.008, 0.02, N_ASSETS)
    common = rng.standard_normal(days)
    own = rng.standard_normal((N_ASSETS, days))
    shocks = 0.5 * common + np.sqrt(0.75) * own
    returns = drift[:, None] + vol[:, None] * shocks
    fall = slice(TRAIN_DAYS + FALL_START - 1, TRAIN_DAYS + FALL_STOP - 1)
    returns[:, fall] += FALL_DRIFT - drift[:, None]
    start = rng.uniform(20.0, 200.0, N_ASSETS)
    return start[:, None] * np.cumprod(1.0 + returns, axis=1)


def dates(count: int) -> list[str]:
    first = datetime.date(2001, 1, 1)
    return [(first + datetime.timedelta(days=i)).isoformat() for i in range(count)]


@dataclass(frozen=True)
class Dataset:
    """One generated price CSV and the arrays the checks compare against."""

    csv: Path
    prices: np.ndarray
    split: str  # last training date

    @property
    def test_prices(self) -> np.ndarray:
        return self.prices[:, TRAIN_DAYS:]

    @property
    def test_dates(self) -> list[str]:
        return dates(self.prices.shape[1])[TRAIN_DAYS:]


def write_dataset(path: Path, seed: int, k: int = 0) -> Dataset:
    """Write dataset ``k`` of ``seed`` as a price CSV.

    ``repr`` formatting makes the program's parsed prices bit-identical to
    the array the checks compare against.
    """
    prices = make_prices(seed, k)
    labels = dates(prices.shape[1])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", *TICKERS])
        for d, label in enumerate(labels):
            writer.writerow([label] + [repr(float(p)) for p in prices[:, d]])
    return Dataset(Path(path), prices, labels[TRAIN_DAYS - 1])
