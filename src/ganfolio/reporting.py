"""CSV exports and SVG rendering for runs.

All artifacts are deterministic: no timestamps, fixed float formatting, fixed
palette.  CSV schemas (documented in docs/formats.md):

* training log:      epoch,critic_loss,generator_loss,ap_loss,proposer_mse
* value series:      date,<model>[,<model>...]
* scatter:           draw,annual_return,annual_sharpe
* weights over time: date,ticker,weight
* path overlay:      date,ticker,actual,draw_1,...,draw_k

Every export writes the bytes csv.writer's default dialect writes for the
same rows: text cells (dates, tickers, epoch and draw numbers) quoted only
where csv.writer quotes them, floats as their shortest round-trip ``repr``
(``nan`` marks a missing or not-applicable number), CRLF line ends.
``overlay.csv`` holds every generated value, so ``_write_csv`` makes those
bytes in bulk: it renders each distinct text cell once, as it is when it
holds none of ``,``, ``"``, ``\r`` and ``\n`` and else through csv.writer,
and joins the ``repr`` of each float, with no per-cell numpy indexing and no
csv.writer scan of the float cells.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

import numpy as np

from .backtest import WeightSchedule
from .errors import ValidationError, opened
from .marketdata import PriceFrame

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

# float cells turned into Python floats at a time (about 2 MiB of objects)
_BLOCK_CELLS = 1 << 16
# what csv.writer quotes a text cell for; it writes any other as it is (a
# row's lone empty cell aside)
_QUOTED = re.compile(r'[,"\r\n]')


def _write_csv(path, header, blocks) -> None:
    """Write ``header``, then one line per row of each ``(labels, values)`` block.

    ``labels[i]`` holds row i's text cells and ``values`` is a float matrix
    with one row per entry of ``labels``.  The bytes equal csv.writer's for
    the rows ``[*labels[i], *map(float, values[i])]``.
    """
    scratch = io.StringIO()
    quoter = csv.writer(scratch)
    quoted = {}

    def quote(cell) -> str:
        if cell not in quoted:
            if isinstance(cell, str) and not _QUOTED.search(cell):
                quoted[cell] = cell
            else:
                scratch.seek(0)
                scratch.truncate()
                quoter.writerow(("", cell))  # a later cell, never a row's lone one
                quoted[cell] = scratch.getvalue()[1:-2]
        return quoted[cell]

    with Path(path).open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for labels, values in blocks:
            values = np.asarray(values, dtype=np.float64)
            step = max(1, _BLOCK_CELLS // max(1, values.shape[1]))
            for start in range(0, len(values), step):
                rows = values[start:start + step].tolist()
                # csv.writer writes a row that is one empty cell as ""
                handle.write("".join(
                    (",".join([*map(quote, cells), *map(repr, row)]) or '""') + "\r\n"
                    for cells, row in zip(labels[start:start + step], rows, strict=True)))


def write_training_log_csv(path, log) -> None:
    values = np.array([[row.critic_loss, row.generator_loss, row.ap_loss, row.proposer_mse]
                       for row in log], dtype=np.float64).reshape(len(log), 4)
    _write_csv(path, ["epoch", "critic_loss", "generator_loss", "ap_loss", "proposer_mse"],
               [([(row.epoch,) for row in log], values)])


def write_value_series_csv(path, dates, series: dict[str, np.ndarray]) -> None:
    names = list(series)
    for name in names:
        if len(series[name]) != len(dates):
            raise ValidationError(f"series {name!r} length {len(series[name])} vs {len(dates)} dates")
    values = np.array([series[name] for name in names],
                      dtype=np.float64).reshape(len(names), len(dates)).T
    _write_csv(path, ["date", *names], [([(date,) for date in dates], values)])


def write_scatter_csv(path, scatter: np.ndarray) -> None:
    _write_csv(path, ["draw", "annual_return", "annual_sharpe"],
               [([(i,) for i in range(len(scatter))], scatter)])


def write_weights_csv(path, schedule: WeightSchedule, dates, tickers) -> None:
    """Long-format weights: one row per (rebalance date, ticker)."""
    _write_csv(path, ["date", "ticker", "weight"],
               [([(dates[day - 1], ticker) for day in schedule.rebalance_indices
                  for ticker in tickers], schedule.weights.reshape(-1, 1))])


def write_overlay_csv(path, frame: PriceFrame, paths: np.ndarray) -> None:
    """Real series next to each draw's synthetic series, per asset and day.

    One block per ticker, so only one (days, 1 + draws) copy exists at a time.
    """
    paths = np.asarray(paths)
    n_draws = paths.shape[0]
    _write_csv(path, ["date", "ticker", "actual"] + [f"draw_{k + 1}" for k in range(n_draws)],
               (([(date, ticker) for date in frame.dates],
                 np.column_stack((frame.prices[j], paths[:, j].T)))
                for j, ticker in enumerate(frame.tickers)))


def read_csv_columns(path, required=(), text=()) -> dict[str, list[str] | np.ndarray]:
    """Read a small CSV into {header: column values} (report rendering).

    Columns named in ``text`` stay lists of strings; every other column is
    parsed into a float64 array.  A missing or unreadable file, no data rows,
    a repeated column name, a missing ``required`` column, a row of the wrong
    length, or a number that is unparseable or not finite raises
    ValidationError naming the file (and the row and column).
    """
    path = Path(path)
    with opened(path, "CSV") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValidationError(f"{path}: no data rows")
    header = rows[0]
    for at, name in enumerate(header):
        if name in header[:at]:
            raise ValidationError(f"{path}: column {name!r} appears more than once")
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
                    value = float(cell)
                except ValueError:
                    raise ValidationError(f"{path}: unparseable value {cell!r} at row {row_no}, "
                                          f"column {name!r}") from None
                if not math.isfinite(value):
                    raise ValidationError(f"{path}: non-finite value {cell!r} at row {row_no}, "
                                          f"column {name!r}")
                cell = value
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


def svg_line_chart(path, series: dict[str, np.ndarray], title: str) -> None:
    left, right, top, bottom = _MARGIN, _W - _MARGIN, 40, _H - _MARGIN
    all_values = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    n = max(len(v) for v in series.values())
    lo, hi = float(all_values.min()), float(all_values.max())
    parts = _svg_header(title) + _axes("trading day", "value", (0, n - 1), (lo, hi))
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


def svg_scatter(path, points: np.ndarray, title: str) -> None:
    """One circle mark per row of ``points`` (n, 2)."""
    left, right, top, bottom = _MARGIN, _W - _MARGIN, 40, _H - _MARGIN
    points = np.asarray(points, dtype=np.float64)
    x_lo, x_hi = float(points[:, 0].min()), float(points[:, 0].max())
    y_lo, y_hi = float(points[:, 1].min()), float(points[:, 1].max())
    parts = _svg_header(title) + _axes("annual return", "annual Sharpe ratio",
                                       (x_lo, x_hi), (y_lo, y_hi))
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
