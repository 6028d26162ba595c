import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ganfolio
from ganfolio.cli import main
from ganfolio.config import RunConfig, load_run_config, parse_config_text, write_effective_config
from ganfolio.errors import ValidationError
from ganfolio.marketdata import write_price_csv
from ganfolio.networks import load_networks, save_networks

from conftest import sinusoid_frame


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    write_price_csv(sinusoid_frame(2, days=46, seed=12), path)
    return path


SPLIT = "2020-01-01+00026"  # leaves 20 test days: (20-8) divisible by 4

TRAIN_FLAGS = ["--h", "8", "--f", "4", "--m", "6", "--epochs", "2", "--seed", "3"]


def run_python(*args):
    """Run the interpreter on ``args`` in a fresh process that imports this checkout."""
    src = Path(ganfolio.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_autodiff_unloaded():
    # the autodiff engine is the tests' reference; no library path imports it
    done = run_python("-c", "import sys, ganfolio.cli; print('ganfolio.autodiff' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


class TestConfigFile:
    def test_parse_and_comments(self):
        values = parse_config_text("# comment\n  h = 8  # trailing\n\nmodel=acgan\n")
        assert values == {"h": 8, "model": "acgan"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text("rebalance=10\n")

    def test_bad_value(self):
        with pytest.raises(ValidationError, match="cannot parse"):
            parse_config_text("h=ten\n")

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("h=8\nf=4\nseed=5\n")
        config = load_run_config(path, {"seed": 9})
        assert config.h == 8 and config.seed == 9

    def test_effective_roundtrip(self, tmp_path):
        config = RunConfig(h=8, f=4, m=6, model="acgan", allow_forward_bias=True)
        out = tmp_path / "config.effective"
        write_effective_config(config, out)
        assert load_run_config(out) == config

    def test_protocol_defaults(self):
        config = RunConfig()
        assert (config.h, config.f, config.w, config.m) == (40, 20, 60, 100)
        assert config.epochs == 1000 and config.n_draws == 1000
        assert (config.lambda1, config.lambda2) == (10.0, 3.0)
        assert (config.lr, config.beta1, config.beta2) == (2e-5, 0.5, 0.999)
        assert config.r_f == 0.0 and config.eta == 15


class TestIngest:
    def test_summary(self, data_csv, capsys):
        assert main(["ingest", "--data", str(data_csv)]) == 0
        out = capsys.readouterr().out
        assert "tickers (2): T0, T1" in out and "days: 46" in out

    def test_nan_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A,B\n2020-01-01,1,2\n2020-01-02,,2\n")
        assert main(["ingest", "--data", str(bad)]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_unknown_ticker_exit_code(self, data_csv, capsys):
        assert main(["ingest", "--data", str(data_csv), "--tickers", "ZZ"]) == 2
        assert "available" in capsys.readouterr().err


class TestTrainCommand:
    def test_tiny_train_and_artifacts(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "cgan", *TRAIN_FLAGS, "--out", str(out)])
        assert code == 0
        assert (out / "bundle.gfa").exists()
        assert (out / "training_log.csv").read_text().splitlines()[0] == \
            "epoch,critic_loss,generator_loss,ap_loss,proposer_mse"
        assert (out / "config.effective").exists()

    def test_same_seed_byte_identical_bundles(self, data_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                         "--model", "cgan", *TRAIN_FLAGS, "--out", str(out)]) == 0
            outs.append((out / "bundle.gfa").read_bytes())
        assert outs[0] == outs[1]

    def test_hybrid_train_exit_0(self, data_csv, tmp_path):
        out = tmp_path / "hybrid"
        assert main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "hybrid_cgan", "--h", "8", "--f", "4", "--m", "6",
                     "--epochs", "1", "--seed", "3", "--out", str(out)]) == 0
        assert (out / "bundle.gfa").exists()

    def test_divergence_exit_3_without_traceback_or_warning(self, data_csv, tmp_path):
        done = run_python("-m", "ganfolio.cli", "train", "--data", str(data_csv),
                          "--split-date", SPLIT, "--model", "cgan", *TRAIN_FLAGS, "--lr", "1e300",
                          "--out", str(tmp_path / "x"))
        assert done.returncode == 3
        assert done.stderr.startswith("numeric fault: training diverged at epoch 1")
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert done.stdout == ""

    def test_missing_split_date(self, data_csv, tmp_path, capsys):
        assert main(["train", "--data", str(data_csv), "--model", "cgan",
                     *TRAIN_FLAGS, "--out", str(tmp_path / "x")]) == 2


@pytest.fixture(scope="module")
def trained_run(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                 "--model", "cgan", *TRAIN_FLAGS, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(data_csv, trained_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("bt-run")
    assert main(["backtest", "--data", str(data_csv), "--split-date", SPLIT,
                 "--model", "cgan", "--bundle", str(trained_run / "bundle.gfa"),
                 "--eta", "4", "--n-draws", "4", "--seed", "2",
                 "--out", str(out)]) == 0
    return out


class TestSimulateCommand:
    def test_paths_and_overlay(self, data_csv, trained_run, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                     "--bundle", str(trained_run / "bundle.gfa"),
                     "--n-draws", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        paths = np.load(out / "paths.npy")
        assert paths.shape[0] == 5
        import json
        meta = json.loads((out / "paths_meta.json").read_text())
        assert meta["tickers"] == ["T0", "T1"] and meta["n_draws"] == 5
        header = (out / "overlay.csv").read_text().splitlines()[0]
        assert header == "date,ticker,actual,draw_1,draw_2,draw_3,draw_4,draw_5"

    def test_prefix_copy_in_emitted_paths(self, data_csv, trained_run, tmp_path):
        from ganfolio.marketdata import load_price_csv, split_train_test

        out = tmp_path / "sim"
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                     "--bundle", str(trained_run / "bundle.gfa"),
                     "--n-draws", "2", "--seed", "1", "--out", str(out)]) == 0
        _, test_frame = split_train_test(load_price_csv(data_csv), SPLIT)
        paths = np.load(out / "paths.npy")
        assert np.array_equal(paths[0][:, :8], test_frame.prices[:, :8])

    def test_simulate_rerun_byte_identical(self, data_csv, trained_run, tmp_path):
        out = tmp_path / "sim"
        snapshots = []
        for _ in range(2):
            assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                         "--bundle", str(trained_run / "bundle.gfa"),
                         "--n-draws", "2", "--seed", "6", "--out", str(out)]) == 0
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1]

    def test_truncated_bundle_exit_2(self, data_csv, trained_run, tmp_path, capsys):
        bundle = tmp_path / "truncated.gfa"
        bundle.write_bytes((trained_run / "bundle.gfa").read_bytes()[:-1000])
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                     "--bundle", str(bundle), "--n-draws", "1", "--out", str(tmp_path / "sim")]) == 2
        assert "truncated.gfa" in capsys.readouterr().err

    def test_bundle_with_retired_knob_exit_2(self, data_csv, trained_run, tmp_path, capsys):
        bundle = tmp_path / "old.gfa"
        components, meta = load_networks(trained_run / "bundle.gfa")
        meta["config"].update(batch_windows=4, critic_steps_per_gen=1)
        save_networks(bundle, components, meta)
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT, "--bundle",
                     str(bundle), "--n-draws", "1", "--out", str(tmp_path / "sim")]) == 2
        assert "batch_windows other than 1" in capsys.readouterr().err

    def test_non_finite_simulator_exit_3_names_layer(self, data_csv, trained_run, tmp_path):
        # 1e308 times a latent entry above 1.8 in magnitude overflows the first affine layer
        bundle = tmp_path / "overflow.gfa"
        components, meta = load_networks(trained_run / "bundle.gfa")
        components["simulator"].weights[0][0, 0] = 1e308
        save_networks(bundle, components, meta)
        done = run_python("-m", "ganfolio.cli", "simulate", "--data", str(data_csv),
                          "--split-date", SPLIT, "--bundle", str(bundle), "--n-draws", "20",
                          "--seed", "1", "--out", str(tmp_path / "sim"))
        assert done.returncode == 3
        assert done.stderr == ("numeric fault: simulating the block from test day 9 "
                               "(2020-01-01+00035): simulator: layer 0 (affine 22->128) "
                               "produced a non-finite value\n")
        assert done.stdout == ""

    def test_divisibility_error_exit_2(self, data_csv, trained_run, tmp_path, capsys):
        code = main(["simulate", "--data", str(data_csv),
                     "--split-date", "2020-01-01+00028",  # 18 test days
                     "--bundle", str(trained_run / "bundle.gfa"),
                     "--n-draws", "1", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert "truncate" in capsys.readouterr().err


class TestBacktestAndReport:
    def test_all_csvs_emitted(self, run_dir):
        for name in ("value_series.csv", "scatter.csv", "weights_cgan.csv",
                     "weights_markowitz.csv", "config.effective"):
            assert (run_dir / name).exists(), name
        header = (run_dir / "value_series.csv").read_text().splitlines()[0]
        assert header == "date,cgan,markowitz"

    def test_scatter_one_row_per_draw(self, run_dir):
        rows = (run_dir / "scatter.csv").read_text().splitlines()
        assert rows[0] == "draw,annual_return,annual_sharpe"
        assert len(rows) == 1 + 4

    def test_markowitz_only_mode(self, data_csv, tmp_path):
        out = tmp_path / "mk"
        code = main(["backtest", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "markowitz", "--h", "8", "--eta", "4",
                     "--out", str(out)])
        assert code == 0
        assert (out / "weights_markowitz.csv").exists()
        assert not (out / "scatter.csv").exists()

    def test_report_renders_svgs(self, run_dir, capsys):
        assert main(["report", "--run", str(run_dir)]) == 0
        assert (run_dir / "value_series.svg").exists()
        assert (run_dir / "scatter.svg").exists()
        assert (run_dir / "weights_cgan.svg").exists()

    def test_scatter_svg_one_mark_per_draw(self, run_dir):
        main(["report", "--run", str(run_dir)])
        svg = (run_dir / "scatter.svg").read_text()
        assert svg.count("<circle") == 4

    def test_stacked_weights_full_height(self, run_dir):
        main(["report", "--run", str(run_dir)])
        svg = (run_dir / "weights_cgan.svg").read_text()
        import re

        heights = {}
        for match in re.finditer(r'<rect x="([\d.]+)" y="[\d.-]+" width="[\d.]+" height="([\d.]+)"',
                                 svg):
            heights.setdefault(match.group(1), 0.0)
            heights[match.group(1)] += float(match.group(2))
        assert heights, "no weight bars rendered"
        for total in heights.values():
            assert total == pytest.approx(380.0, abs=0.1)  # plot area height

    @pytest.mark.parametrize("name, column, fault", [
        ("value_series.csv", "date", "missing column"),
        ("value_series.csv", "cgan", "bad cell"),
        ("scatter.csv", "annual_sharpe", "missing column"),
        ("scatter.csv", "annual_return", "bad cell"),
        ("weights_cgan.csv", "weight", "missing column"),
        ("weights_cgan.csv", "weight", "bad cell"),
    ])
    def test_malformed_csv_exit_2_names_file_and_column(self, run_dir, tmp_path, capsys,
                                                        name, column, fault):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        path = run / name
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        at = rows[0].index(column)
        if fault == "missing column":
            rows = [row[:at] + row[at + 1:] for row in rows]
            expected = f"{path}: missing column {column!r}"
        else:
            rows[2][at] = "abc"
            expected = f"{path}: unparseable value 'abc' at row 3, column {column!r}"
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert main(["report", "--run", str(run)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_empty_run_dir_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--run", str(empty)]) == 2

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 2


class TestEavesdropGating:
    def test_train_refuses_without_flag(self, data_csv, tmp_path, capsys):
        code = main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "cgan", "--regime", "eavesdrop", *TRAIN_FLAGS,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "forward" in capsys.readouterr().err.lower()

    def test_backtest_refuses_eavesdrop_bundle_without_flag(self, data_csv, tmp_path, capsys):
        trained = tmp_path / "eav"
        assert main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "cgan", "--regime", "eavesdrop", "--allow-forward-bias",
                     *TRAIN_FLAGS, "--out", str(trained)]) == 0
        code = main(["backtest", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "cgan", "--bundle", str(trained / "bundle.gfa"),
                     "--eta", "4", "--n-draws", "2", "--out", str(tmp_path / "bt")])
        assert code == 2
        assert "--allow-forward-bias" in capsys.readouterr().err
        code = main(["backtest", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "cgan", "--bundle", str(trained / "bundle.gfa"),
                     "--eta", "4", "--n-draws", "2", "--allow-forward-bias",
                     "--out", str(tmp_path / "bt2")])
        assert code == 0

    def test_rerun_from_effective_config_reproduces(self, data_csv, run_dir, tmp_path):
        # the emitted config.effective alone reproduces the run (bar the out path)
        out = tmp_path / "replay"
        assert main(["backtest", "--config", str(run_dir / "config.effective"),
                     "--out", str(out)]) == 0
        for name in ("value_series.csv", "scatter.csv", "weights_cgan.csv",
                     "weights_markowitz.csv"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_backtest_rerun_byte_identical(self, data_csv, tmp_path):
        trained = tmp_path / "t"
        assert main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                     "--model", "cgan", *TRAIN_FLAGS, "--out", str(trained)]) == 0
        out = tmp_path / "run"
        contents = []
        for _ in range(2):  # re-run into the same directory
            assert main(["backtest", "--data", str(data_csv), "--split-date", SPLIT,
                         "--model", "cgan", "--bundle", str(trained / "bundle.gfa"),
                         "--eta", "4", "--n-draws", "3", "--seed", "4",
                         "--out", str(out)]) == 0
            contents.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert contents[0] == contents[1]
