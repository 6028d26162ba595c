"""Seeded input fuzzing of the command line: a damaged input exits 0, 2 or 3.

A fixed list of byte mutations is applied, at seeded positions, to every kind
of input file: the price CSV (read by ``ingest`` and by a Markowitz
``backtest``), the config file, the bundle (read by ``simulate``) and each
CSV that ``report`` reads.  Each case runs ``cli.main`` in-process with
warnings raised as errors.  A non-zero exit prints exactly one ``error:`` or
``numeric fault:`` line and leaves no ``--out``.  Every damaged price CSV
also loads to the same frame, or fails with the same message, as the
cell-by-cell reference loader.
"""

import random
import re
import shutil
import warnings

import pytest

from ganfolio.cli import main
from ganfolio.errors import ValidationError
from ganfolio.marketdata import load_price_csv, write_price_csv

from conftest import sinusoid_frame
from oracles import cell_by_cell_price_csv

SPLIT = "2020-01-01+00026"  # leaves 20 test days: (20-8) divisible by 4
INSERTS = {"comma": b",", "newline": b"\n", "nan": b"nan", "1e999": b"1e999", "quote": b'"',
           "cr": b"\r", "nul": b"\0"}
MUTATIONS = ("truncate", "flip", "duplicate_line", "delete_line", *INSERTS, "huge_cell",
             "repeat_header_cell")
REPORT_CSVS = ("value_series.csv", "scatter.csv", "weights_cgan.csv", "weights_markowitz.csv")
TARGETS = ("ingest", "backtest", "config", "bundle", *REPORT_CSVS)
CASES_PER_MUTATION = 2


def mutate(data: bytes, mutation: str, rng: random.Random) -> bytes:
    """``data`` with one ``mutation`` applied at a position drawn from ``rng``."""
    if mutation == "truncate":
        return data[:rng.randrange(len(data))]
    if mutation == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if mutation in INSERTS:
        at = rng.randrange(len(data) + 1)
        return data[:at] + INSERTS[mutation] + data[at:]
    if mutation == "repeat_header_cell":  # one cell of the first line takes another's text
        body = data.splitlines()[0]
        cells = body.split(b",")
        if len(cells) > 1:
            source, target = rng.sample(range(len(cells)), 2)
            cells[target] = cells[source]
        return b",".join(cells) + data[len(body):]
    lines = data.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    if mutation == "duplicate_line":
        lines.insert(at, lines[at])
    elif mutation == "delete_line":
        del lines[at]
    else:  # a quoted cell of 200 000 characters at the end of the line
        body = lines[at].rstrip(b"\r\n")
        lines[at] = body + b',"' + b"x" * 200_000 + b'"' + lines[at][len(body):]
    return b"".join(lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The undamaged inputs: a price CSV, a Markowitz config, a bundle and a
    cgan backtest's run directory."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "prices.csv"
    write_price_csv(sinusoid_frame(2, days=46, seed=12), data)
    config = root / "run.conf"
    config.write_text(f"data={data}\nsplit_date={SPLIT}\nmodel=markowitz\nh=8\neta=4\n")
    common = ["--data", str(data), "--split-date", SPLIT, "--seed", "3"]
    assert main(["train", *common, "--model", "cgan", "--h", "8", "--f", "4", "--m", "6",
                 "--epochs", "1", "--out", str(root / "trained")]) == 0
    bundle = root / "trained" / "bundle.gfa"
    assert main(["backtest", *common, "--model", "cgan", "--bundle", str(bundle), "--eta", "4",
                 "--n-draws", "3", "--out", str(root / "run")]) == 0
    return {"data": data, "config": config, "bundle": bundle, "run": root / "run"}


def case(inputs, work, target):
    """The file that ``target`` damages, a copy of it to damage, and the
    command that reads the copy."""
    out = ["--out", str(work / "out")]
    if target in REPORT_CSVS:
        shutil.copytree(inputs["run"], work / "run")
        return inputs["run"] / target, work / "run" / target, ["report", "--run", str(work / "run")]
    source = inputs[{"ingest": "data", "backtest": "data"}.get(target, target)]
    damaged = work / source.name
    argv = {"ingest": ["ingest", "--data", str(damaged)],
            "backtest": ["backtest", "--data", str(damaged), "--split-date", SPLIT,
                         "--model", "markowitz", "--h", "8", "--eta", "4", *out],
            "config": ["backtest", "--config", str(damaged), *out],
            "bundle": ["simulate", "--data", str(inputs["data"]), "--split-date", SPLIT,
                       "--bundle", str(damaged), "--n-draws", "2", "--seed", "1", *out]}[target]
    return source, damaged, argv


def loaded(load, path):
    try:
        frame = load(path)
    except ValidationError as err:
        return str(err)
    return frame.tickers, frame.dates, frame.prices.tobytes()


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("target", TARGETS)
def test_damaged_input_exits_0_2_or_3(inputs, tmp_path, capsys, target, mutation):
    for number in range(CASES_PER_MUTATION):
        work = tmp_path / str(number)
        work.mkdir()
        source, damaged, argv = case(inputs, work, target)
        damaged.write_bytes(mutate(source.read_bytes(), mutation,
                                   random.Random(f"{target}/{mutation}/{number}")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (number, err)
        if code:
            assert re.fullmatch(r"(error|numeric fault): [^\n]*\n", err), (number, err)
            assert not (work / "out").exists(), number
        if target in ("ingest", "backtest"):
            assert loaded(load_price_csv, damaged) == loaded(cell_by_cell_price_csv, damaged)
