"""Command-line pipeline: ingest, train, simulate, backtest, report.

Every command is deterministic given its config and seed; re-running
overwrites outputs byte-identically (artifacts carry no timestamps).
Exit codes: 0 success, 2 validation error, 3 numeric fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import run_experiment
from .config import RunConfig, load_run_config, write_effective_config
from .errors import GanfolioError, NumericFault, ValidationError
from .gan import load_bundle, save_bundle, simulate_paths, train
from .marketdata import load_price_csv, split_train_test
from .reporting import (read_csv_columns, svg_line_chart, svg_scatter,
                        svg_stacked_weights, write_overlay_csv, write_scatter_csv,
                        write_training_log_csv, write_value_series_csv, write_weights_csv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args is None:
        return 2
    try:
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericFault as err:
        print(f"numeric fault: {err}", file=sys.stderr)
        return 3
    except GanfolioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _parse_args(argv: list[str]):
    """``argv`` parsed, or None after printing the help when it names no command.

    A named command is parsed by a parser of its own arguments alone, since
    building every command's parser is most of the cost of a parse.  The
    full parser takes everything else, with the same output and exit code:
    no command, a top-level flag, an unknown command, and arguments the
    command leaves unrecognized, which argparse reports at the top level.
    """
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"ganfolio {argv[0]}", allow_abbrev=False)
        _add_command_arguments(parser, argv[0])
        args, unrecognized = parser.parse_known_args(argv[1:])
        if not unrecognized:
            return args
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return None
    return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ganfolio",
        description="Adversarial market-scenario generation and max-Sharpe backtesting",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"ganfolio {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command_arguments(sub.add_parser(name, allow_abbrev=False, help=help_text), name)
    return parser


def _add_command_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    _, add_arguments, handler = _COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(handler=handler)


def _ingest_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="price CSV path")
    parser.add_argument("--tickers", default=None, help="comma-separated ticker subset/order")


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--run", required=True, help="directory produced by `ganfolio backtest`")


def _add_config_arguments(parser: argparse.ArgumentParser, keys) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if key == "allow_forward_bias":
            parser.add_argument(flag, action="store_const", const=True, default=None,
                                dest=key, help="acknowledge the eavesdrop regime's look-ahead")
        else:
            kind = RunConfig.__dataclass_fields__[key].type
            caster = {"int": int, "float": float}.get(kind, str)
            parser.add_argument(flag, type=caster, default=None, dest=key)


def _config_from_args(args) -> RunConfig:
    overrides = {key: getattr(args, key) for key in RunConfig.__dataclass_fields__
                 if hasattr(args, key)}
    return load_run_config(args.config, overrides)


def _load_frames(config: RunConfig):
    if not config.data:
        raise ValidationError("no data file configured (set data= or --data)")
    frame = load_price_csv(config.data, config.ticker_list())
    if not config.split_date:
        return frame, None, frame
    train_frame, test_frame = split_train_test(frame, config.split_date)
    return frame, train_frame, test_frame


def _load_bundle(config: RunConfig):
    """The configured bundle; an eavesdrop one only with ``allow_forward_bias``."""
    if not config.bundle:
        raise ValidationError("no bundle configured (set bundle= or --bundle)")
    bundle = load_bundle(config.bundle)
    if bundle.config.resolved_regime == "eavesdrop" and not config.allow_forward_bias:
        raise ValidationError(
            "bundle was trained with the eavesdrop regime; re-run with "
            "--allow-forward-bias to use this forward-biased diagnostic")
    return bundle


def _require_out(config: RunConfig) -> Path:
    """The configured output directory, which the command creates only when it
    writes its first artifact, so a rejected or failed run leaves none.  A path
    that cannot become a writable directory is refused now, before the work."""
    if not config.out:
        raise ValidationError("no output directory configured (set out= or --out)")
    out = Path(config.out)
    nearest = next(p for p in (out.absolute(), *out.absolute().parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise ValidationError(f"output directory {out}: {nearest} is not a directory")
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise ValidationError(f"output directory {out}: {nearest} is not writable")
    return out


def _cmd_ingest(args) -> int:
    frame = load_price_csv(args.data, RunConfig(tickers=args.tickers or "").ticker_list())
    print(f"tickers ({frame.n_assets}): {', '.join(frame.tickers)}")
    print(f"days: {frame.day_count} ({frame.dates[0]} .. {frame.dates[-1]})")
    print(f"price range: {frame.prices.min():.6g} .. {frame.prices.max():.6g}")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    train_config = config.train_config()
    _, train_frame, _ = _load_frames(config)
    if train_frame is None:
        raise ValidationError("training needs split_date= so a training segment exists")
    out = _require_out(config)
    bundle = train(train_frame, train_config)
    out.mkdir(parents=True, exist_ok=True)
    save_bundle(out / "bundle.gfa", bundle)
    write_training_log_csv(out / "training_log.csv", bundle.training_log)
    write_effective_config(config, out / "config.effective")
    print(f"trained {config.model} on {train_frame.day_count} days "
          f"({len(bundle.training_log)} epochs); bundle at {out / 'bundle.gfa'}")
    return 0


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    bundle = _load_bundle(config)
    _, _, test_frame = _load_frames(config)
    out = _require_out(config)
    paths = simulate_paths(bundle, test_frame, config.n_draws, config.seed)
    out.mkdir(parents=True, exist_ok=True)
    # .npy + JSON sidecar rather than .npz: zip archives embed timestamps,
    # which would break byte-identical re-runs
    np.save(out / "paths.npy", paths)
    (out / "paths_meta.json").write_text(json.dumps(
        {"tickers": list(test_frame.tickers), "dates": list(test_frame.dates),
         "n_draws": config.n_draws, "seed": config.seed},
        sort_keys=True, indent=1) + "\n")
    write_overlay_csv(out / "overlay.csv", test_frame, paths)
    write_effective_config(config, out / "config.effective")
    print(f"simulated {config.n_draws} paths over {test_frame.day_count} days; "
          f"outputs in {out}")
    return 0


def _cmd_backtest(args) -> int:
    config = _config_from_args(args)
    _, _, test_frame = _load_frames(config)
    bundle, h = None, config.h
    if config.model != "markowitz":
        bundle = _load_bundle(config)
        h = bundle.config.h
    out = _require_out(config)
    results = {}
    if bundle is not None:
        results[config.model] = run_experiment(bundle, test_frame, config.eta,
                                               n_draws=config.n_draws, seed=config.seed,
                                               r_f=config.r_f)
    results["markowitz"] = run_experiment("markowitz", test_frame, config.eta,
                                          r_f=config.r_f, h=h)

    out.mkdir(parents=True, exist_ok=True)
    write_value_series_csv(out / "value_series.csv",
                           next(iter(results.values())).dates,
                           {name: r.value_series for name, r in results.items()})
    for name, result in results.items():
        write_weights_csv(out / f"weights_{name}.csv", result.schedule,
                          test_frame.dates, test_frame.tickers)
        if result.draw_scatter is not None:
            write_scatter_csv(out / "scatter.csv", result.draw_scatter)
    write_effective_config(config, out / "config.effective")
    for name, result in results.items():
        flag = " (degenerate)" if result.sharpe_degenerate else ""
        print(f"{name}: final value {result.value_series[-1]:.4f}, "
              f"annual return {result.annual_return:.4f}, "
              f"annual Sharpe {result.annual_sharpe:.4f}{flag}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ValidationError(f"run directory not found: {run_dir}")
    produced = []

    values_csv = run_dir / "value_series.csv"
    if values_csv.exists():
        columns = read_csv_columns(values_csv, required=("date",), text=("date",))
        series = {name: column for name, column in columns.items() if name != "date"}
        if not series:
            raise ValidationError(f"{values_csv}: no value columns next to 'date'")
        svg_line_chart(run_dir / "value_series.svg", series, "Portfolio value (unit start)")
        produced.append("value_series.svg")

    scatter_csv = run_dir / "scatter.csv"
    if scatter_csv.exists():
        columns = read_csv_columns(scatter_csv, required=("annual_return", "annual_sharpe"))
        points = np.column_stack([columns["annual_return"], columns["annual_sharpe"]])
        svg_scatter(run_dir / "scatter.svg", points, "Per-draw annual return vs Sharpe ratio")
        produced.append("scatter.svg")

    for weights_csv in sorted(run_dir.glob("weights_*.csv")):
        name = weights_csv.stem.removeprefix("weights_")
        schedule, tickers = _schedule_from_weights_csv(weights_csv)
        svg_stacked_weights(run_dir / f"{weights_csv.stem}.svg", schedule, tickers,
                            f"Weights over time: {name}")
        produced.append(f"{weights_csv.stem}.svg")

    if not produced:
        raise ValidationError(f"{run_dir}: no backtest CSVs found to render")
    print(f"wrote {', '.join(produced)} in {run_dir}")
    return 0


def _schedule_from_weights_csv(path):
    from .backtest import WeightSchedule

    columns = read_csv_columns(path, required=("date", "ticker", "weight"),
                               text=("date", "ticker"))
    # first-seen order, as the rows were written
    date_row = {d: i for i, d in enumerate(dict.fromkeys(columns["date"]))}
    ticker_col = {t: j for j, t in enumerate(dict.fromkeys(columns["ticker"]))}
    weights = np.full((len(date_row), len(ticker_col)), np.nan)
    for date, ticker, weight in zip(columns["date"], columns["ticker"], columns["weight"]):
        weights[date_row[date], ticker_col[ticker]] = weight
    # the CSV holds dates, not day numbers; the plot only needs their order
    indices = tuple(range(1, len(date_row) + 1))
    try:
        return WeightSchedule(indices, weights), list(ticker_col)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from None


# each command's help line, argument adder and handler, for both parsers
_COMMANDS = {
    "ingest": ("validate a price CSV and print a summary", _ingest_arguments, _cmd_ingest),
    "train": ("train a model and persist the bundle",
              partial(_add_config_arguments, keys=(
                  "data", "tickers", "split_date", "model", "h", "f", "m", "epochs", "lambda1",
                  "lambda2", "lr", "beta1", "beta2", "seed", "regime", "allow_forward_bias",
                  "out")),
              _cmd_train),
    "simulate": ("draw synthetic paths from a trained bundle",
                 partial(_add_config_arguments, keys=(
                     "data", "tickers", "split_date", "bundle", "n_draws", "seed",
                     "allow_forward_bias", "out")),
                 _cmd_simulate),
    "backtest": ("backtest a model (and the Markowitz baseline)",
                 partial(_add_config_arguments, keys=(
                     "data", "tickers", "split_date", "model", "bundle", "h", "eta", "n_draws",
                     "seed", "r_f", "allow_forward_bias", "out")),
                 _cmd_backtest),
    "report": ("render SVG plots from a backtest run directory", _report_arguments, _cmd_report),
}


if __name__ == "__main__":
    sys.exit(main())
