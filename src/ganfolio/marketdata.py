"""Price-matrix ingestion, train/test splitting, and windowing.

The expected CSV layout is ``date,<ticker1>,...,<tickerN>`` with one row per
trading day, ISO-8601 dates, decimal points, and no thousands separators.
Rows containing any empty or non-numeric cell are rejected outright (no
interpolation).

Window indices are 1-based throughout the public API, matching the index sets
returned by :func:`training_index_set` and :func:`inference_index_set`; the
conversion to 0-based numpy slices happens inside :func:`extract_window`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, opened

CSV_SIGNIFICANT_DIGITS = 10


@dataclass(frozen=True)
class PriceFrame:
    """Adjusted-close matrix for ``n_assets`` assets over ``day_count`` days.

    ``prices`` is an (N, D) float64 array, strictly positive and free of
    missing values; ``dates`` are strictly increasing labels.  Instances are
    immutable (the price array is marked read-only) and safe to share across
    concurrent readers.
    """

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.tickers) < 2:
            raise ValidationError(f"need at least 2 assets, got {len(self.tickers)}")
        if prices.ndim != 2 or prices.shape != (len(self.tickers), len(self.dates)):
            raise ValidationError(
                f"prices shape {prices.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates")
        if not np.isfinite(prices).all():
            raise ValidationError("prices contain NaN or infinite values")
        if not (prices > 0).all():
            raise ValidationError("prices must be strictly positive")
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise ValidationError(
                    f"dates not strictly increasing at row {i + 1}: "
                    f"{self.dates[i - 1]!r} then {self.dates[i]!r}")
        prices = prices.copy()
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def day_count(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class WindowSample:
    """One w = h + f slice of a price frame.

    ``historical`` is a column view of ``full``'s first h days (shared
    memory, so the two can never diverge).
    """

    full: np.ndarray
    historical: np.ndarray


def load_price_csv(path, expected_tickers=None) -> PriceFrame:
    """Load and validate a price CSV.

    Parameters
    ----------
    path:
        CSV file with header ``date,<ticker1>,...,<tickerN>``.
    expected_tickers:
        Optional list of tickers; columns are selected and ordered to match.
        Requesting a ticker absent from the file, or one ticker twice, is an
        error.
    """
    path = Path(path)
    with opened(path, "price file") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "date":
        raise ValidationError(f"{path}: first header column must be 'date', got {header[:1]}")
    file_tickers = header[1:]
    if len(set(file_tickers)) != len(file_tickers):
        raise ValidationError(f"{path}: duplicate ticker columns")
    broken = [t for t in file_tickers if "\r" in t or "\n" in t]
    if broken:
        raise ValidationError(f"{path}: ticker {broken[0]!r} holds a line break")

    body = rows[1:]
    if not body:
        raise ValidationError(f"{path}: no data rows")
    # a row at a time, the whole matrix checked at once; where that fails,
    # the cell-by-cell parse names the first bad cell in row order (or takes
    # a cell padded with U+001C..U+001F, which str.strip removes and float
    # does not)
    values = None
    if set(map(len, body)) == {len(header)}:
        try:
            values = np.array([list(map(float, row[1:])) for row in body], dtype=np.float64)
        except ValueError:
            pass
    if values is not None and ((values > 0) & (values < math.inf)).all():
        dates = [row[0].strip() for row in body]
    else:
        dates, values = _parse_cells(path, header, body)

    prices = np.asarray(values, dtype=np.float64).T  # (N, D)
    tickers = list(file_tickers)
    if expected_tickers is not None:
        expected = list(expected_tickers)
        repeated = [t for i, t in enumerate(expected) if t in expected[:i]]
        if repeated:
            raise ValidationError(f"{path}: ticker {repeated[0]!r} requested more than once")
        missing = [t for t in expected if t not in file_tickers]
        if missing:
            raise ValidationError(
                f"{path}: requested tickers {missing} not in file; available: {file_tickers}")
        order = [file_tickers.index(t) for t in expected]
        prices = prices[order]
        tickers = expected
    return PriceFrame(tuple(tickers), tuple(dates), prices)


def _parse_cells(path, header, body) -> tuple[list[str], list[list[float]]]:
    """The data rows' dates and prices, parsed a cell at a time; raises
    ValidationError naming the first bad row or cell in row-major order."""
    dates: list[str] = []
    values: list[list[float]] = []
    for row_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        dates.append(row[0].strip())
        parsed = []
        for ticker, cell in zip(header[1:], row[1:]):
            cell = cell.strip()
            if not cell:
                raise ValidationError(f"{path}: empty cell at row {row_no}, ticker {ticker}")
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: unparseable value {cell!r} at row {row_no}, ticker {ticker}") from None
            if not math.isfinite(value):
                kind = "NaN" if math.isnan(value) else "infinite"
                raise ValidationError(f"{path}: {kind} value at row {row_no}, ticker {ticker}")
            if value <= 0:
                raise ValidationError(
                    f"{path}: non-positive price {value} at row {row_no}, ticker {ticker}")
            parsed.append(value)
        values.append(parsed)
    return dates, values


def write_price_csv(frame: PriceFrame, path) -> None:
    """Write a frame back to CSV with 10 significant digits."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", *frame.tickers])
        fmt = f"%.{CSV_SIGNIFICANT_DIGITS}g"
        for d, date in enumerate(frame.dates):
            writer.writerow([date] + [fmt % frame.prices[i, d] for i in range(frame.n_assets)])


def split_train_test(frame: PriceFrame, split_date: str) -> tuple[PriceFrame, PriceFrame]:
    """Split into (dates <= split_date, dates > split_date)."""
    if not frame.dates[0] <= split_date <= frame.dates[-1]:
        raise ValidationError(
            f"split date {split_date!r} outside frame range "
            f"[{frame.dates[0]!r}, {frame.dates[-1]!r}]")
    cut = int(np.searchsorted(np.asarray(frame.dates), split_date, side="right"))
    if cut == frame.day_count:
        raise ValidationError(f"split at {split_date!r} leaves an empty test set")
    train = PriceFrame(frame.tickers, frame.dates[:cut], frame.prices[:, :cut])
    test = PriceFrame(frame.tickers, frame.dates[cut:], frame.prices[:, cut:])
    return train, test


def training_index_set(day_count: int, window: int) -> np.ndarray:
    """1-based training window starts: {1, ..., D - w + 1}."""
    if window < 1:
        raise ValidationError(f"window length must be positive, got {window}")
    if day_count < window:
        raise ValidationError(f"day count {day_count} shorter than window {window}")
    return np.arange(1, day_count - window + 2, dtype=np.int64)


def inference_index_set(day_count: int, h: int, f: int) -> np.ndarray:
    """1-based generation starts: {h+1, h+f+1, ...} with (K-h)/f entries."""
    if h < 1 or f < 1:
        raise ValidationError(f"h and f must be positive, got h={h}, f={f}")
    if day_count < h + f:
        raise ValidationError(f"day count {day_count} shorter than h + f = {h + f}")
    remainder = (day_count - h) % f
    if remainder:
        raise ValidationError(
            f"(K - h) = {day_count - h} is not divisible by f = {f}; "
            f"truncate the frame by {remainder} days")
    return np.arange(h + 1, day_count - f + 2, f, dtype=np.int64)


def extract_window(frame: PriceFrame, start: int, h: int, f: int) -> WindowSample:
    """Slice the w = h + f columns beginning at 1-based column ``start``."""
    w = h + f
    if start < 1 or start + w - 1 > frame.day_count:
        raise ValidationError(
            f"window start {start} with w={w} exceeds frame length {frame.day_count}")
    s0 = start - 1
    full = frame.prices[:, s0:s0 + w]
    return WindowSample(full=full, historical=full[:, :h])


def simple_returns(prices) -> np.ndarray:
    """Per-period simple returns along the last axis: p[t+1]/p[t] - 1."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.shape[-1] < 2:
        raise ValidationError("need at least two prices to compute returns")
    if not (prices > 0).all():
        raise ValidationError("prices must be strictly positive")
    return prices[..., 1:] / prices[..., :-1] - 1.0
