"""The CSV exports' byte format and the call shape the benchmark relies on.

``perfbench/tracing.py`` wraps each writer by name and measures
``os.path.getsize(args[0])``, so every writer takes the output path as its
first positional argument and leaves that file behind.  The bytes pin
csv.writer's CRLF line ends and quoting, ``repr`` floats and ``nan``.
"""

import importlib.util
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
