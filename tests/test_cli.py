import contextlib
import csv
import io
import os
import shutil
import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest

import ganfolio
from ganfolio import cli
from ganfolio.cli import main
from ganfolio.config import RunConfig, load_run_config, parse_config_text, write_effective_config
from ganfolio.errors import ValidationError
from ganfolio.gan import TrainConfig, save_bundle, simulate_paths, train, train_proposer
from ganfolio.marketdata import split_train_test, write_price_csv
from ganfolio.networks import load_networks, save_networks
from ganfolio.reporting import write_training_log_csv

from conftest import run_python, sinusoid_frame


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    write_price_csv(sinusoid_frame(2, days=46, seed=12), path)
    return path


SPLIT = "2020-01-01+00026"  # leaves 20 test days: (20-8) divisible by 4

TRAIN_FLAGS = ["--h", "8", "--f", "4", "--m", "6", "--epochs", "2", "--seed", "3"]

# the config keys that bundles carried before they left TrainConfig, at the
# only values the CLI wrote
PARENT_CONFIG_KEYS = dict(adam_epsilon=1e-8, output_scale=None, proposer_mode="network")


def test_cli_import_leaves_autodiff_unloaded():
    # the autodiff engine is the tests' reference; no library path imports it
    done = run_python("-c", "import sys, ganfolio.cli; print('ganfolio.autodiff' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_public_names_resolve_once():
    assert len(set(ganfolio.__all__)) == len(ganfolio.__all__)
    for name in ganfolio.__all__:
        assert hasattr(ganfolio, name), name


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
        assert (config.h, config.f, config.m) == (40, 20, 100)
        assert config.epochs == 1000 and config.n_draws == 1000
        assert (config.lambda1, config.lambda2) == (10.0, 3.0)
        assert (config.lr, config.beta1, config.beta2) == (2e-5, 0.5, 0.999)
        assert config.r_f == 0.0 and config.eta == 15

    def test_training_keys_follow_train_config(self):
        run_keys = {f.name for f in fields(RunConfig)}
        shared = [f.name for f in fields(TrainConfig) if f.name != "model_kind"]
        # a training knob that a run cannot set would be library code only tests use
        assert set(shared) <= run_keys, sorted(set(shared) - run_keys)
        defaults = TrainConfig()
        assert RunConfig().model == defaults.model_kind
        assert all(getattr(RunConfig(), key) == getattr(defaults, key) for key in shared)
        changed = dict(h=8, f=4, m=6, epochs=3, lambda1=1.5, lambda2=0.5, lr=1e-3, beta1=0.8,
                       beta2=0.99, seed=7, regime="eavesdrop", allow_forward_bias=True)
        assert sorted(changed) == sorted(shared)
        forwarded = RunConfig(model="acgan", **changed).train_config()
        assert forwarded.model_kind == "acgan"
        for key, value in changed.items():
            assert getattr(forwarded, key) == value != getattr(defaults, key), key


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

    @pytest.mark.parametrize("flags, code", [(["--split-date", SPLIT, "--lr=nan"], 2),
                                             ([], 2),
                                             (["--split-date", SPLIT, "--lr=1e300"], 3)],
                             ids=["bad_setting", "no_split_date", "diverged"])
    def test_rejected_run_creates_no_out_directory(self, data_csv, tmp_path, flags, code):
        out = tmp_path / "run1"
        assert main(["train", "--data", str(data_csv), "--model", "cgan", *TRAIN_FLAGS,
                     *flags, "--out", str(out)]) == code
        assert not out.exists()


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


@pytest.fixture(scope="module")
def eavesdrop_run(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("eavesdrop")
    assert main(["train", "--data", str(data_csv), "--split-date", SPLIT,
                 "--model", "cgan", "--regime", "eavesdrop", "--allow-forward-bias",
                 *TRAIN_FLAGS, "--out", str(out)]) == 0
    return out


def overflowing_bundle(trained_run, path):
    """``trained_run``'s bundle with a simulator weight of 1e308, which overflows
    the first affine layer for a latent entry above 1.8 in magnitude."""
    components, meta = load_networks(trained_run / "bundle.gfa")
    components["simulator"].weights[0][0, 0] = 1e308
    save_networks(path, components, meta)
    return path


@pytest.mark.parametrize("command, case", [
    ("simulate", "no_bundle"), ("simulate", "no_data"), ("simulate", "eavesdrop"),
    ("simulate", "indivisible"), ("simulate", "overflow"),
    ("backtest", "no_bundle"), ("backtest", "no_data"), ("backtest", "eavesdrop"),
    ("backtest", "indivisible"), ("backtest", "overflow")])
def test_rejected_simulate_or_backtest_creates_no_out_directory(data_csv, trained_run,
                                                               eavesdrop_run, tmp_path,
                                                               command, case):
    bundle = {"no_bundle": tmp_path / "nobundle.gfa",
              "eavesdrop": eavesdrop_run / "bundle.gfa"}.get(case, trained_run / "bundle.gfa")
    if case == "overflow":
        bundle = overflowing_bundle(trained_run, tmp_path / "overflow.gfa")
    data = tmp_path / "nodata.csv" if case == "no_data" else data_csv
    # 18 test days, so (18 - h) is not divisible by f
    split = "2020-01-01+00028" if case == "indivisible" else SPLIT
    flags = ["--model", "cgan", "--eta", "4"] if command == "backtest" else []
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--split-date", split, "--bundle", str(bundle),
                 "--n-draws", "20" if case == "overflow" else "2", *flags,
                 "--out", str(out)]) == (3 if case == "overflow" else 2)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "simulate", "backtest"])
@pytest.mark.parametrize("blocked", ["file", "under_file", "dangling_link",
                                     "under_dangling_link"])
def test_out_that_cannot_be_a_directory_exit_2_before_the_work(data_csv, trained_run, tmp_path,
                                                               capsys, monkeypatch, command,
                                                               blocked):
    # refused before the work starts, not after it with the results lost
    for work in ("train", "simulate_paths", "run_experiment"):
        monkeypatch.setattr(f"ganfolio.cli.{work}",
                            lambda *args, **kwargs: pytest.fail("the work started"))
    if blocked.endswith("file"):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
    else:
        blocker = tmp_path / "link"
        blocker.symlink_to(tmp_path / "nowhere" / "deeper")
    out = blocker / "run" if blocked.startswith("under") else blocker
    bundle = ["--bundle", str(trained_run / "bundle.gfa")]
    flags = {"train": ["--model", "cgan", *TRAIN_FLAGS],
             "simulate": bundle,
             "backtest": ["--model", "cgan", "--eta", "4", *bundle]}[command]
    assert main([command, "--data", str(data_csv), "--split-date", SPLIT, *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: output directory {out}: {blocker} is not a "
                                       f"directory\n")
    if blocked.endswith("file"):
        assert blocker.read_text() == "kept\n"
    else:
        assert not (tmp_path / "nowhere").exists()


@pytest.mark.parametrize("command", ["ingest", "train", "backtest"])
@pytest.mark.parametrize("tickers", ["T0,T0", "T1,T0,T1"])
def test_repeated_ticker_exit_2_names_it(data_csv, tmp_path, capsys, command, tickers):
    # the pipeline cannot read back weights of one asset held twice
    out = tmp_path / "out"
    flags = {"ingest": [],
             "train": ["--split-date", SPLIT, "--model", "cgan", *TRAIN_FLAGS, "--out", str(out)],
             "backtest": ["--split-date", SPLIT, "--model", "markowitz", "--h", "8", "--eta", "4",
                          "--out", str(out)]}[command]
    assert main([command, "--data", str(data_csv), "--tickers", tickers, *flags]) == 2
    repeated = tickers.split(",")[0]
    assert capsys.readouterr() == ("", f"error: {data_csv}: ticker {repeated!r} requested "
                                       f"more than once\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "simulate", "backtest"])
def test_negative_seed_exit_2_names_seed(data_csv, trained_run, tmp_path, capsys, command):
    flags = {"train": TRAIN_FLAGS[:-2],
             "simulate": ["--bundle", str(trained_run / "bundle.gfa"), "--n-draws", "2"],
             "backtest": ["--model", "cgan", "--bundle", str(trained_run / "bundle.gfa"),
                          "--eta", "4", "--n-draws", "2"]}[command]
    out = tmp_path / "out"
    assert main([command, "--data", str(data_csv), "--split-date", SPLIT, *flags,
                 "--seed", "-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
    assert not out.exists()


class TestUnreadableInputs:
    """An input that is a directory, is not UTF-8 or holds a CSV cell longer
    than ``csv.field_size_limit()`` exits 2 naming the file, and writes no --out."""

    OVERSIZED = csv.field_size_limit() + 1

    def oversized_error(self, path, what):
        return ("", f"error: {path}: cannot parse {what}: field larger than field limit "
                    f"({csv.field_size_limit()})\n")

    def test_oversized_price_csv_cell_exit_2(self, data_csv, tmp_path, capsys):
        big = tmp_path / "prices.csv"
        big.write_text(data_csv.read_text() + f'2030-01-01,"{"1" * self.OVERSIZED}",1\n')
        assert main(["ingest", "--data", str(big)]) == 2
        assert capsys.readouterr() == self.oversized_error(big, "price file")

    def test_oversized_report_csv_cell_exit_2(self, run_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        with (run / "value_series.csv").open("a") as handle:
            handle.write(f'"{"x" * self.OVERSIZED}",1,1\r\n')
        assert main(["report", "--run", str(run)]) == 2
        assert capsys.readouterr() == self.oversized_error(run / "value_series.csv", "CSV")

    def test_non_utf8_price_csv_exit_2(self, data_csv, tmp_path, capsys):
        bad = tmp_path / "prices.csv"
        bad.write_bytes(data_csv.read_bytes() + b"\xff\xfe")
        assert main(["ingest", "--data", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: price file is not UTF-8 text "
                                           f"(invalid start byte)\n")

    def test_directory_as_price_csv_exit_2(self, tmp_path, capsys):
        assert main(["ingest", "--data", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path}: cannot read price file: "
                                           f"Is a directory\n")

    def test_directory_as_config_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path}: cannot read config file: "
                                           f"Is a directory\n")
        assert not out.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"h=8\n# caf\xe9\n")
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {config}: config file is not UTF-8 text "
                                           f"(invalid continuation byte)\n")
        assert not out.exists()

    def test_directory_as_bundle_exit_2(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                     "--bundle", str(tmp_path), "--n-draws", "2", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path}: cannot read archive: "
                                           f"Is a directory\n")
        assert not out.exists()

    def test_non_utf8_report_csv_exit_2(self, run_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        with (run / "value_series.csv").open("ab") as handle:
            handle.write(b"\xff\n")
        assert main(["report", "--run", str(run)]) == 2
        assert capsys.readouterr() == ("", f"error: {run / 'value_series.csv'}: CSV is not "
                                           f"UTF-8 text (invalid start byte)\n")


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

    def test_bundle_with_parent_config_keys_simulates_the_same(self, data_csv, trained_run,
                                                               tmp_path):
        components, meta = load_networks(trained_run / "bundle.gfa")
        meta["config"].update(PARENT_CONFIG_KEYS)
        save_networks(tmp_path / "old.gfa", components, meta)
        for name, bundle in (("new", trained_run / "bundle.gfa"), ("old", tmp_path / "old.gfa")):
            assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                         "--bundle", str(bundle), "--n-draws", "3", "--seed", "1",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "old" / "paths.npy").read_bytes() == \
            (tmp_path / "new" / "paths.npy").read_bytes()

    @pytest.mark.parametrize("key, value", [("output_scale", 1.0), ("proposer_mode", "copy_mu"),
                                            ("adam_epsilon", 1e-6)])
    def test_bundle_with_other_parent_config_value_exit_2(self, data_csv, trained_run, tmp_path,
                                                          capsys, key, value):
        components, meta = load_networks(trained_run / "bundle.gfa")
        meta["config"].update(PARENT_CONFIG_KEYS, **{key: value})
        save_networks(tmp_path / "old.gfa", components, meta)
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT, "--bundle",
                     str(tmp_path / "old.gfa"), "--n-draws", "1", "--out",
                     str(tmp_path / "sim")]) == 2
        assert f"bundle was trained with {key} other than" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["leaky_relu", "tanh"])
    def test_unknown_layer_kind_exit_2(self, data_csv, trained_run, tmp_path, capsys, kind):
        # a same-length patch keeps the header length valid; only the kind is wrong
        corrupt = kind[:-1] + "X"
        raw = (trained_run / "bundle.gfa").read_bytes()
        (tmp_path / "corrupt.gfa").write_bytes(raw.replace(f'"{kind}"'.encode(),
                                                           f'"{corrupt}"'.encode(), 1))
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT, "--bundle",
                     str(tmp_path / "corrupt.gfa"), "--n-draws", "1", "--out",
                     str(tmp_path / "sim")]) == 2
        assert f"unknown layer kind {corrupt!r}" in capsys.readouterr().err

    def test_unknown_layer_kind_names_the_bundle(self, data_csv, trained_run, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.gfa"
        corrupt.write_bytes((trained_run / "bundle.gfa").read_bytes().replace(b'"tanh"',
                                                                             b'"tanX"', 1))
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT, "--bundle",
                     str(corrupt), "--n-draws", "1", "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == f"error: {corrupt}: unknown layer kind 'tanX'\n"

    @pytest.mark.parametrize("key, value, message", [
        ("lr", -1.0, "lr must be positive and finite, got -1.0"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("model_kind", "acgan", "acgan bundle needs a decoder")])
    def test_rejected_bundle_config_names_the_bundle(self, data_csv, trained_run, tmp_path,
                                                     capsys, key, value, message):
        # the first two are TrainConfig's checks, the last ModelBundle's
        bundle = tmp_path / "rejected.gfa"
        components, meta = load_networks(trained_run / "bundle.gfa")
        meta["config"][key] = value
        save_networks(bundle, components, meta)
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT, "--bundle",
                     str(bundle), "--n-draws", "1", "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == f"error: {bundle}: {message}\n"

    def test_non_finite_simulator_exit_3_names_layer(self, data_csv, trained_run, tmp_path):
        bundle = overflowing_bundle(trained_run, tmp_path / "overflow.gfa")
        done = run_python("-m", "ganfolio.cli", "simulate", "--data", str(data_csv),
                          "--split-date", SPLIT, "--bundle", str(bundle), "--n-draws", "20",
                          "--seed", "1", "--out", str(tmp_path / "sim"))
        assert done.returncode == 3
        assert done.stderr == ("numeric fault: simulating the block from test day 9 "
                               "(2020-01-01+00035): simulator: layer 0 (affine 22->128) "
                               "produced a non-finite value\n")
        assert done.stdout == ""
        assert not (tmp_path / "sim").exists()

    def test_divisibility_error_exit_2(self, data_csv, trained_run, tmp_path, capsys):
        code = main(["simulate", "--data", str(data_csv),
                     "--split-date", "2020-01-01+00028",  # 18 test days
                     "--bundle", str(trained_run / "bundle.gfa"),
                     "--n-draws", "1", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert "truncate" in capsys.readouterr().err


def full_parser_result(argv):
    """stdout, stderr and exit code of the full command tree parsing ``argv``,
    for an ``argv`` that it rejects or that names no command."""
    parser = cli._build_parser()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exited:
            code = exited.code
        else:
            assert args.command is None
            parser.print_help()
            code = 2
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"],
    *([command, "-h"] for command in ("ingest", "train", "simulate", "backtest", "report")),
    ["bogus"], ["backtest", "--bogus", "1"], ["backtest", "--h", "x"], ["ingest"],
    ["train", "--dat", "x"],
], ids=lambda argv: " ".join(argv) or "no_arguments")
def test_output_and_exit_code_equal_the_full_parsers(argv, capsys):
    # main parses a named command with that command's parser alone
    try:
        code = main(argv)
    except SystemExit as exited:
        code = exited.code
    out, err = capsys.readouterr()
    assert (out, err, code) == full_parser_result(argv)


class TestFlagPrefixes:
    """A flag a command lacks is an error, never the option it is a prefix of."""

    @pytest.mark.parametrize("command, flag", [
        ("simulate", ["--h", "40"]),  # a prefix of --help
        ("backtest", ["--m", "100"]),  # a prefix of --model
    ])
    def test_unknown_prefix_exit_2(self, data_csv, trained_run, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([command, "--data", str(data_csv), "--split-date", SPLIT,
                  "--bundle", str(trained_run / "bundle.gfa"), "--n-draws", "2",
                  *flag, "--out", str(out)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestOutOfRangeFloats:
    """A float setting outside its range exits 2 naming its key, and writes no artifact."""

    @pytest.mark.parametrize("command, flag", [
        ("backtest", "--r-f=nan"), ("backtest", "--r-f=inf"),
        ("train", "--lr=nan"), ("train", "--lr=0"),
        ("train", "--beta1=-0.5"), ("train", "--beta2=1"),
        ("train", "--lambda1=inf"), ("train", "--lambda2=nan"),
    ])
    def test_exit_2_names_key(self, data_csv, tmp_path, capsys, command, flag):
        settings = (TRAIN_FLAGS if command == "train"
                    else ["--model", "markowitz", "--h", "8", "--eta", "4"])
        out = tmp_path / "out"
        assert main([command, "--data", str(data_csv), "--split-date", SPLIT, *settings,
                     flag, "--out", str(out)]) == 2
        key = flag.split("=")[0].removeprefix("--").replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not list(out.glob("*"))


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

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_value_exit_2_names_file_row_and_column(self, run_dir, tmp_path, capsys,
                                                               value):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        path = run / "value_series.csv"
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        rows[2][1] = value
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--run", str(run)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: non-finite value {value!r} at row 3, "
                                           f"column {rows[0][1]!r}\n")

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

    def test_simulate_runs_eavesdrop_bundle_with_flag(self, data_csv, eavesdrop_run, tmp_path):
        assert main(["simulate", "--data", str(data_csv), "--split-date", SPLIT,
                     "--bundle", str(eavesdrop_run / "bundle.gfa"), "--n-draws", "2",
                     "--allow-forward-bias", "--out", str(tmp_path / "sim")]) == 0
        assert (tmp_path / "sim" / "paths.npy").exists()

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


# train, simulate and backtest a cgan, then train and simulate a hybrid_cgan, in one
# process; argv: data csv, split date, out dir
PIPELINE = """
import sys
from ganfolio.cli import main
data, split, out = sys.argv[1:]
common = ["--data", data, "--split-date", split, "--seed", "3"]
widths = ["--h", "8", "--f", "20", "--m", "100", "--epochs", "1"]
for argv in (["train", *common, *widths, "--out", out + "/train"],
             ["simulate", *common, "--bundle", out + "/train/bundle.gfa", "--n-draws", "100",
              "--out", out + "/simulate"],
             ["backtest", *common, "--bundle", out + "/train/bundle.gfa", "--n-draws", "100",
              "--out", out + "/backtest"],
             ["train", *common, "--model", "hybrid_cgan", *widths, "--out", out + "/hybrid"],
             ["simulate", *common, "--bundle", out + "/hybrid/bundle.gfa", "--n-draws", "100",
              "--out", out + "/hybrid_simulate"]):
    assert main(argv) == 0, argv
"""


class TestBlasThreadCounts:
    def test_one_and_two_threads(self, tmp_path):
        # 5 assets, f=20 and m=100 make the simulator's batched products big
        # enough for OpenBLAS to split them across two threads, and the hybrid
        # simulator's x100 output scale carries the rounding into its paths
        # (at 17 or more draws, before the program held OpenBLAS at one thread
        # while it works; docs/formats.md, "BLAS thread count").  Both runs
        # write to the same relative --out, so that config.effective compares.
        data = tmp_path / "prices.csv"
        frame = sinusoid_frame(5, days=82, seed=0)
        write_price_csv(frame, data)
        runs = {}
        for threads in ("1", "2"):
            runs[threads] = tmp_path / f"threads_{threads}"
            runs[threads].mkdir()
            done = run_python("-c", PIPELINE, str(data), frame.dates[33], "run",
                              cwd=runs[threads], OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
        artifacts = {threads: sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file())
                     for threads, run in runs.items()}
        assert artifacts["1"] == artifacts["2"]
        assert len(artifacts["1"]) == 3 + 4 + 5 + 3 + 4
        for name in artifacts["1"]:
            assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name


# `ganfolio train` at protocol widths, on one CPU when argv[1] is "one" (set
# before numpy loads); argv: "one" or "all", model, data csv, split date, out dir
PINNED_TRAIN = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from ganfolio.cli import main
cpus, model, data, split, out = sys.argv[1:]
sys.exit(main(["train", "--data", data, "--split-date", split, "--model", model, "--h", "40",
               "--f", "20", "--m", "100", "--epochs", "2", "--seed", "3", "--out", out]))
"""


class TestCpuAffinity:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="one usable CPU gives one Adam worker count only")
    @pytest.mark.parametrize("model", ["cgan", "hybrid_acgan"])
    def test_one_and_all_cpus_train_byte_identical(self, model, tmp_path):
        # protocol widths, so every flat parameter buffer spans several Adam chunks
        data = tmp_path / "prices.csv"
        frame = sinusoid_frame(5, days=70, seed=0)
        write_price_csv(frame, data)
        outs = {}
        for cpus in ("one", "all"):
            outs[cpus] = tmp_path / cpus
            done = run_python("-c", PINNED_TRAIN, cpus, model, str(data), frame.dates[63],
                              str(outs[cpus]), OPENBLAS_NUM_THREADS="1")
            assert done.returncode == 0, done.stderr
        for name in ("bundle.gfa", "training_log.csv"):
            assert (outs["one"] / name).read_bytes() == (outs["all"] / name).read_bytes()

    def test_no_thread_outlives_training_or_a_command(self, tmp_path):
        # at protocol widths Adam runs on a thread pool whenever two CPUs are usable
        frame = sinusoid_frame(5, days=164, seed=0)
        split = frame.dates[63]
        data = tmp_path / "prices.csv"
        write_price_csv(frame, data)
        train_frame = split_train_test(frame, split)[0]
        dims = dict(h=40, f=20, m=100, epochs=1, seed=3)
        before = threading.active_count()
        bundle = train(train_frame, TrainConfig(model_kind="cgan", **dims))
        assert threading.active_count() == before
        train_proposer(train_frame, TrainConfig(model_kind="hybrid_cgan", **dims))
        assert threading.active_count() == before
        save_bundle(tmp_path / "bundle.gfa", bundle)
        common = ["--data", str(data), "--split-date", split, "--seed", "3",
                  "--bundle", str(tmp_path / "bundle.gfa"), "--n-draws", "2"]
        assert main(["simulate", *common, "--out", str(tmp_path / "simulate")]) == 0
        assert threading.active_count() == before
        # 43 draws of 3 blocks are 129 rows, two simulator chunks for the pool
        assert main(["simulate", *common, "--n-draws", "43",
                     "--out", str(tmp_path / "simulate_43")]) == 0
        assert threading.active_count() == before
        assert main(["backtest", *common, "--model", "cgan", "--h", "40",
                     "--out", str(tmp_path / "backtest")]) == 0
        assert threading.active_count() == before


def test_seven_pool_threads_train_byte_identical_to_one_cpu(tmp_path, monkeypatch):
    # more pool threads than CPUs; TestCpuAffinity pins the machine's real CPUs
    frame = sinusoid_frame(5, days=70, seed=0)
    train_frame = split_train_test(frame, frame.dates[63])[0]
    config = TrainConfig(model_kind="hybrid_acgan", h=40, f=20, m=100, epochs=2, seed=3)
    written = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        bundle = train(train_frame, config)
        save_bundle(tmp_path / "bundle.gfa", bundle)
        write_training_log_csv(tmp_path / "training_log.csv", bundle.training_log)
        written.append([(tmp_path / name).read_bytes()
                        for name in ("bundle.gfa", "training_log.csv")])
    assert written[0] == written[1]


def test_eight_cpus_simulate_byte_identical_to_one_cpu(monkeypatch):
    # 1000 draws of 3 blocks are 24 simulator chunks, spread over a pool of 7
    # threads (8 CPUs reported by a patched os.sched_getaffinity) or run in turn
    frame = sinusoid_frame(5, days=164, seed=0)
    train_frame, test_frame = split_train_test(frame, frame.dates[63])
    bundle = train(train_frame, TrainConfig(model_kind="cgan", h=40, f=20, m=100, epochs=1,
                                            seed=3))
    written = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        written.append(simulate_paths(bundle, test_frame, n_draws=1000, seed=5).tobytes())
    assert written[0] == written[1]
