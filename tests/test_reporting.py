"""The CSV exports' byte format and the call shape the benchmark relies on.

``perfbench/tracing.py`` wraps each writer by name and measures
``os.path.getsize(args[0])``, so every writer takes the output path as its
first positional argument and leaves that file behind.  The bytes pin
csv.writer's CRLF line ends and quoting, ``repr`` floats and ``nan``.
"""

import csv
import importlib.util
import io
import os
from pathlib import Path

import numpy as np
import pytest

from ganfolio import reporting
from ganfolio.backtest import WeightSchedule
from ganfolio.gan import EpochLog
from ganfolio.marketdata import PriceFrame

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

NAN = float("nan")
FRAME = PriceFrame(("A,B", "C"), ("d1", "d2"), np.array([[1.0, 2.0], [3.0, 4.0]]))

# writer name -> (arguments after the path, exact file bytes)
EXPORTS = {
    "write_training_log_csv": (
        ([EpochLog(1, 0.5, -0.1, NAN, NAN), EpochLog(2, 1e-20, 2.0, 0.25, 3.0)],),
        b"epoch,critic_loss,generator_loss,ap_loss,proposer_mse\r\n"
        b"1,0.5,-0.1,nan,nan\r\n"
        b"2,1e-20,2.0,0.25,3.0\r\n"),
    "write_value_series_csv": (
        (("d1", "d2"), {"cgan": np.array([1.0, 0.1 + 0.2]), "markowitz": np.array([1.0, NAN])}),
        b"date,cgan,markowitz\r\n"
        b"d1,1.0,1.0\r\n"
        b"d2,0.30000000000000004,nan\r\n"),
    "write_scatter_csv": (
        (np.array([[0.1, 2.0], [-0.05, NAN]]),),
        b"draw,annual_return,annual_sharpe\r\n"
        b"0,0.1,2.0\r\n"
        b"1,-0.05,nan\r\n"),
    "write_weights_csv": (
        (WeightSchedule((1, 2), np.array([[0.25, 0.75], [1.0, 0.0]])), FRAME.dates,
         FRAME.tickers),
        b"date,ticker,weight\r\n"
        b'd1,"A,B",0.25\r\n'
        b"d1,C,0.75\r\n"
        b'd2,"A,B",1.0\r\n'
        b"d2,C,0.0\r\n"),
    "write_overlay_csv": (
        (FRAME, np.array([[[1.5, 2.5], [3.5, 4.5]], [[0.1, 0.2], [0.3, 0.4]]])),
        b"date,ticker,actual,draw_1,draw_2\r\n"
        b'd1,"A,B",1.0,1.5,0.1\r\n'
        b'd2,"A,B",2.0,2.5,0.2\r\n'
        b"d1,C,3.0,3.5,0.3\r\n"
        b"d2,C,4.0,4.5,0.4\r\n"),
}


def test_every_traced_writer_is_pinned():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {name for _, name, _, family in tracing.TABLE if family == "reporting"}
    assert traced == set(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_writer_takes_path_first_and_writes_exact_bytes(tmp_path, name):
    args, expected = EXPORTS[name]
    path = str(tmp_path / f"{name}.csv")
    getattr(reporting, name)(path, *args)
    assert os.path.getsize(path) == len(expected)
    assert Path(path).read_bytes() == expected


# ---------------------------------------------------------------------------
# oracle: every export equals csv.writer on the same rows with repr floats
# ---------------------------------------------------------------------------

# the first four need quotes; the rest are written as they are
AWKWARD = ("a,b", 'say "x"', "cr\rend", "new\nline", "", " lead", "2001-03-18", "tab\tcell",
           "line\u2028separator", "nul\0cell")
VALUES = (NAN, float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2)


def fmt(x):
    return repr(float(x))


def reference_bytes(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def awkward_values(shape, seed):
    """Random floats with every value of VALUES planted at seeded positions."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(size=shape) * 100.0
    flat = values.reshape(-1)
    count = min(flat.size, 4 * len(VALUES))
    flat[rng.choice(flat.size, size=count, replace=False)] = np.resize(rng.permutation(VALUES), count)
    return values


def increasing_dates(n):
    """n strictly increasing date labels, led by the empty and the leading-space one."""
    suffixes = (",", '"', "\r", "\n", "")
    return ("", " lead") + tuple(f"d{i:05d}{suffixes[i % 5]}" for i in range(n - 2))


def oracle_training_log():
    values = awkward_values((12, 4), 1)
    log = [EpochLog(i + 1, *row) for i, row in enumerate(values)]
    rows = [[r.epoch, fmt(r.critic_loss), fmt(r.generator_loss), fmt(r.ap_loss),
             fmt(r.proposer_mse)] for r in log]
    return (log,), reference_bytes(
        ["epoch", "critic_loss", "generator_loss", "ap_loss", "proposer_mse"], rows)


def oracle_value_series():
    dates = AWKWARD + ("plain",)
    series = {name: awkward_values(len(dates), 2 + i) for i, name in enumerate(AWKWARD)}
    rows = [[date, *(fmt(series[name][i]) for name in series)] for i, date in enumerate(dates)]
    return (dates, series), reference_bytes(["date", *series], rows)


def oracle_value_series_without_series():
    # a row that is one empty cell: the lone case csv.writer quotes
    dates = ("", "x")
    return (dates, {}), reference_bytes(["date"], [[date] for date in dates])


def oracle_scatter():
    scatter = awkward_values((20, 2), 3)
    rows = [[i, fmt(ret), fmt(sharpe)] for i, (ret, sharpe) in enumerate(scatter)]
    return (scatter,), reference_bytes(["draw", "annual_return", "annual_sharpe"], rows)


def oracle_weights():
    row = [-0.0, 5e-324, 1e-5, 0.1 + 0.2, 0.7 - 1e-5, -1e-10]
    row += [0.0] * (len(AWKWARD) - len(row))
    schedule = WeightSchedule((1, 3, 6), np.array([row, row[::-1], row[2:] + row[:2]]))
    dates = AWKWARD
    rows = [[dates[day - 1], ticker, fmt(schedule.weights[i, j])]
            for i, day in enumerate(schedule.rebalance_indices)
            for j, ticker in enumerate(AWKWARD)]
    return (schedule, dates, AWKWARD), reference_bytes(["date", "ticker", "weight"], rows)


def oracle_overlay():
    # each ticker's rows span more than one of the writer's row blocks
    n_draws = 100
    n_days = reporting._BLOCK_CELLS // (1 + n_draws) + 7
    prices = np.random.default_rng(4).lognormal(size=(len(AWKWARD), n_days)) * 100.0
    frame = PriceFrame(AWKWARD, increasing_dates(n_days), prices)
    paths = awkward_values((n_draws, len(AWKWARD), n_days), 5)
    rows = [[date, ticker, fmt(frame.prices[j, d]), *(fmt(paths[k, j, d]) for k in range(n_draws))]
            for j, ticker in enumerate(frame.tickers) for d, date in enumerate(frame.dates)]
    return (frame, paths), reference_bytes(
        ["date", "ticker", "actual", *(f"draw_{k + 1}" for k in range(n_draws))], rows)


ORACLES = {
    "write_training_log_csv": [oracle_training_log],
    "write_value_series_csv": [oracle_value_series, oracle_value_series_without_series],
    "write_scatter_csv": [oracle_scatter],
    "write_weights_csv": [oracle_weights],
    "write_overlay_csv": [oracle_overlay],
}


@pytest.mark.parametrize("name, oracle", [(name, oracle) for name, oracles in ORACLES.items()
                                          for oracle in oracles],
                         ids=lambda value: getattr(value, "__name__", value))
def test_writer_matches_csv_writer_reference(tmp_path, name, oracle):
    args, expected = oracle()
    path = tmp_path / f"{name}.csv"
    getattr(reporting, name)(path, *args)
    assert path.read_bytes() == expected


def test_every_writer_has_an_oracle():
    assert set(ORACLES) == set(EXPORTS)
