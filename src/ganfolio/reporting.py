"""CSV exports and SVG rendering for runs.

All artifacts are deterministic: no timestamps, fixed float formatting, fixed
palette.  CSV schemas (documented in docs/formats.md):

* training log:      epoch,critic_loss,generator_loss,ap_loss,proposer_mse
* value series:      date,<model>[,<model>...]
* scatter:           draw,annual_return,annual_sharpe
* weights over time: date,ticker,weight
* path overlay:      date,ticker,actual,draw_1,...,draw_k

Missing/not-applicable numbers are written as ``nan``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .backtest import WeightSchedule
from .errors import ValidationError
from .marketdata import PriceFrame

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_training_log_csv(path, log) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "critic_loss", "generator_loss", "ap_loss", "proposer_mse"])
        for row in log:
            writer.writerow([row.epoch, _fmt(row.critic_loss), _fmt(row.generator_loss),
                             _fmt(row.ap_loss), _fmt(row.proposer_mse)])


def write_value_series_csv(path, dates, series: dict[str, np.ndarray]) -> None:
    names = list(series)
    for name in names:
        if len(series[name]) != len(dates):
            raise ValidationError(f"series {name!r} length {len(series[name])} vs {len(dates)} dates")
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", *names])
        for i, date in enumerate(dates):
            writer.writerow([date] + [_fmt(series[name][i]) for name in names])


def write_scatter_csv(path, scatter: np.ndarray) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["draw", "annual_return", "annual_sharpe"])
        for i, (ret, sharpe) in enumerate(np.asarray(scatter)):
            writer.writerow([i, _fmt(ret), _fmt(sharpe)])


def write_weights_csv(path, schedule: WeightSchedule, dates, tickers) -> None:
    """Long-format weights: one row per (rebalance date, ticker)."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "ticker", "weight"])
        for i, day in enumerate(schedule.rebalance_indices):
            for j, ticker in enumerate(tickers):
                writer.writerow([dates[day - 1], ticker, _fmt(schedule.weights[i, j])])


def write_overlay_csv(path, frame: PriceFrame, paths: np.ndarray) -> None:
    """Real series next to each draw's synthetic series, per asset and day."""
    paths = np.asarray(paths)
    n_draws = paths.shape[0]
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "ticker", "actual"] + [f"draw_{k + 1}" for k in range(n_draws)])
        for j, ticker in enumerate(frame.tickers):
            for d, date in enumerate(frame.dates):
                writer.writerow([date, ticker, _fmt(frame.prices[j, d])]
                                + [_fmt(paths[k, j, d]) for k in range(n_draws)])


def read_csv_columns(path, required=(), text=()) -> dict[str, list[str] | np.ndarray]:
    """Read a small CSV into {header: column values} (report rendering).

    Columns named in ``text`` stay lists of strings; every other column is
    parsed into a float64 array.  A missing file, no data rows, a missing
    ``required`` column, a row of the wrong length or an unparseable number
    raises ValidationError naming the file (and the row and column).
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"missing CSV: {path}")
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValidationError(f"{path}: no data rows")
    header = rows[0]
    for name in required:
        if name not in header:
            raise ValidationError(f"{path}: missing column {name!r}")
    columns: dict[str, list] = {name: [] for name in header}
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            if name not in text:
                try:
                    cell = float(cell)
                except ValueError:
                    raise ValidationError(f"{path}: unparseable value {cell!r} at row {row_no}, "
                                          f"column {name!r}") from None
            columns[name].append(cell)
    return {name: column if name in text else np.array(column, dtype=np.float64)
            for name, column in columns.items()}


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency; output is byte-stable)
# ---------------------------------------------------------------------------

_W, _H = 860, 480
_MARGIN = 60


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axes(x_label: str, y_label: str, x_range, y_range) -> list[str]:
    left, right, top, bottom = _MARGIN, _W - _MARGIN, 40, _H - _MARGIN
    parts = [
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) // 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_label}</text>',
        f'<text x="16" y="{(top + bottom) // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(top + bottom) // 2})">{y_label}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_range[0] + frac * (x_range[1] - x_range[0])
        yv = y_range[0] + frac * (y_range[1] - y_range[0])
        parts.append(f'<text x="{left + frac * (right - left):.1f}" y="{bottom + 16}" '
                     f'text-anchor="middle" font-size="10" font-family="sans-serif">{xv:.4g}</text>')
        parts.append(f'<text x="{left - 6}" y="{bottom - frac * (bottom - top):.1f}" '
                     f'text-anchor="end" font-size="10" font-family="sans-serif">{yv:.4g}</text>')
    return parts


def _scale(v, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (np.asarray(v, dtype=np.float64) - lo) * (out_hi - out_lo) / span


def svg_line_chart(path, series: dict[str, np.ndarray], title: str,
                   x_label: str = "trading day", y_label: str = "value") -> None:
    left, right, top, bottom = _MARGIN, _W - _MARGIN, 40, _H - _MARGIN
    all_values = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    n = max(len(v) for v in series.values())
    lo, hi = float(all_values.min()), float(all_values.max())
    parts = _svg_header(title) + _axes(x_label, y_label, (0, n - 1), (lo, hi))
    for i, (name, values) in enumerate(series.items()):
        values = np.asarray(values, dtype=np.float64)
        xs = _scale(np.arange(len(values)), 0, n - 1, left, right)
        ys = _scale(values, lo, hi, bottom, top)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(f'<text x="{right - 150}" y="{top + 16 * (i + 1)}" font-size="12" '
                     f'font-family="sans-serif" fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def svg_scatter(path, points: np.ndarray, title: str,
                x_label: str = "annual return", y_label: str = "annual Sharpe ratio") -> None:
    """One circle mark per row of ``points`` (n, 2)."""
    left, right, top, bottom = _MARGIN, _W - _MARGIN, 40, _H - _MARGIN
    points = np.asarray(points, dtype=np.float64)
    x_lo, x_hi = float(points[:, 0].min()), float(points[:, 0].max())
    y_lo, y_hi = float(points[:, 1].min()), float(points[:, 1].max())
    parts = _svg_header(title) + _axes(x_label, y_label, (x_lo, x_hi), (y_lo, y_hi))
    xs = _scale(points[:, 0], x_lo, x_hi, left, right)
    ys = _scale(points[:, 1], y_lo, y_hi, bottom, top)
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1f77b4" fill-opacity="0.5"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def svg_stacked_weights(path, schedule: WeightSchedule, tickers, title: str) -> None:
    """Stacked bars per rebalance date; each column's segments fill the full height."""
    left, right, top, bottom = _MARGIN, _W - _MARGIN, 40, _H - _MARGIN
    n_dates = len(schedule.rebalance_indices)
    bar_width = (right - left) / max(n_dates, 1)
    parts = _svg_header(title) + _axes("rebalance date index", "weight", (0, n_dates), (0.0, 1.0))
    for i in range(n_dates):
        x0 = left + i * bar_width
        y_cursor = float(bottom)
        for j, _ in enumerate(tickers):
            height = schedule.weights[i, j] * (bottom - top)
            y_cursor -= height
            parts.append(f'<rect x="{x0:.2f}" y="{y_cursor:.2f}" width="{bar_width:.2f}" '
                         f'height="{height:.2f}" fill="{_PALETTE[j % len(_PALETTE)]}"/>')
    for j, ticker in enumerate(tickers):
        parts.append(f'<text x="{right + 4}" y="{top + 14 * (j + 1)}" font-size="11" '
                     f'font-family="sans-serif" fill="{_PALETTE[j % len(_PALETTE)]}">{ticker}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
