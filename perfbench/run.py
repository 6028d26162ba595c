#!/usr/bin/env python3
"""ganfolio pipeline benchmark: train, simulate and backtest at protocol widths.

    python3 perfbench/run.py --workload {train,simulate,backtest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every workload drives ``ganfolio.cli.main`` in-process (the
proposer, which has no CLI command of its own, through
``ganfolio.train_proposer``) on N=5 seeded assets at h=40, f=20, m=100 with
a K=280 test segment.  A run sets up several times and reports the median,
runs the commands once untimed, then repeats whole rounds of the same
commands for ``--seconds`` and reports the median round.  The outputs are
checked afterwards (see checks.py); a failed check fails the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
measured phase with ganfolio's public functions wrapped (see tracing.py) and
prints the per-layer metrics.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import data
import selftest
from tracing import TABLE, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# seeds model initialisation, dropout and latent draws; fixed, so that the
# workload seed varies the market data and the spread between seeds is not
# dominated by one bundle's character (it moved backtest solver work by 20%)
MODEL_SEED = 0
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
SIM_DRAWS = 100
# the solver's cost per problem is heavy-tailed and one dataset's total
# varies by about 16% between seeds, so the backtest sums over many
# independent datasets per seed
BT_DATASETS = 20
BT_DRAWS = 1
BT_ETA = 15
MARKOWITZ_ETAS = (10, 20)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "ganfolio" / "__init__.py").is_file():
        fail("no ganfolio sources under src/; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ganfolio
    import ganfolio.cli
    if Path(ganfolio.__file__).resolve().parent != SRC / "ganfolio":
        fail(f"imported ganfolio from {ganfolio.__file__}, not from the checkout")
    return ganfolio


def environment() -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def median_import_s() -> float:
    """Median time to import the package (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import ganfolio.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


class Bench:
    """State shared by the workloads: paths, the CLI and the tracer."""

    def __init__(self, ganfolio, workload: str, seed: int):
        self.g = ganfolio
        self.seed = seed % 2**31
        self.work = OUT / workload
        self.tracer = None
        self.failures: list[str] = []

    def dataset(self, k: int = 0) -> data.Dataset:
        return data.write_dataset(self.work / f"prices_{k}.csv", self.seed, k)

    def common(self, ds: data.Dataset) -> list[str]:
        return ["--data", rel(ds.csv), "--split-date", ds.split, "--seed", str(MODEL_SEED)]

    def cli(self, argv: list[str]) -> bool:
        """One CLI command in-process; returns whether it exited 0."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self.tracer is None:
                code = self.g.cli.main(argv)
            else:
                with self.tracer.span(f"cli.{argv[0]}"):
                    code = self.g.cli.main(argv)
        if code != 0:
            self.failures.append(f"ganfolio {' '.join(argv)} -> {code}: {sink.getvalue().strip()}")
        return code == 0

    def train(self, ds: data.Dataset, model: str, out: Path) -> bool:
        return self.cli(["train", *self.common(ds), "--model", model, "--h", str(data.H),
                         "--f", str(data.F), "--m", str(data.M), "--epochs", "1",
                         "--out", rel(out)])

    def train_bundle(self) -> data.Dataset:
        """Set-up shared by simulate and backtest: a cgan bundle trained one epoch."""
        ds = self.dataset()
        if not self.train(ds, "cgan", self.work / "bundle"):
            fail(f"set-up training failed: {self.failures[-1]}")
        return ds

    @property
    def bundle(self) -> str:
        return rel(self.work / "bundle" / "bundle.gfa")


def trainable(bundle) -> dict:
    nets = {"conditioner": bundle.conditioner, "simulator": bundle.simulator,
            "discriminator": bundle.discriminator}
    if bundle.decoder is not None:
        nets["decoder"] = bundle.decoder
    return nets


# ---------------------------------------------------------------------------
# workloads: setup(), round() -> (attempted, failed), digest(), check(),
# corruptions() -> [(label, call that must raise CheckFailed)], and an
# optional warm_up() in place of an untimed round
# ---------------------------------------------------------------------------

class TrainWorkload:
    """`ganfolio train` for cgan and acgan, plus the hybrid_cgan proposer."""

    models = ("cgan", "acgan")

    def __init__(self, b: Bench):
        self.b = b
        self.windows = data.TRAIN_WINDOWS
        self.heldout = max(1, round(0.1 * self.windows))  # train_proposer's 10% hold-out
        self.items = 2 * self.windows + (self.windows - self.heldout)
        self.digests = []

    def setup(self) -> None:
        b = self.b
        self.ds = b.dataset()
        frame = b.g.load_price_csv(self.ds.csv)
        self.train_frame, _ = b.g.split_train_test(frame, self.ds.split)
        self.config = b.g.TrainConfig(model_kind="hybrid_cgan", h=data.H, f=data.F, m=data.M,
                                      epochs=1, seed=MODEL_SEED)

    def round(self) -> tuple[int, int]:
        b = self.b
        ok = sum(b.train(self.ds, model, b.work / model) for model in self.models)
        try:
            self.proposer, self.proposer_mse = b.g.train_proposer(self.train_frame, self.config)
            ok += 1
        except b.g.GanfolioError as err:
            b.failures.append(f"train_proposer: {err}")
        return 3, 3 - ok

    def digest(self) -> None:
        params = b"".join(p.tobytes() for p in self.proposer.parameters())
        self.digests.append({**{f"{m}/{k}": v for m in self.models
                                for k, v in checks.tree_digest(self.b.work / m).items()},
                             "proposer": hashlib.sha256(params).hexdigest(),
                             "proposer_mse": repr(float(self.proposer_mse))})

    def check(self) -> None:
        b = self.b
        checks.check_repeats(self.digests, "train")
        for model in self.models:
            checks.check_training_log(b.work / model / "training_log.csv", 1, model == "acgan")
            trained, initial = self.bundles(model)
            checks.check_networks_moved(trainable(trained), trainable(initial), model)
        checks.check_proposer(self.proposer, self.proposer_mse, self.heldout_windows(),
                              b.g.propose_mean)

    def bundles(self, model: str):
        """(trained bundle from disk, the same kind freshly seeded)."""
        trained = self.b.g.load_bundle(self.b.work / model / "bundle.gfa")
        return trained, self.b.g.gan.build_bundle(trained.config, trained.tickers)

    def heldout_windows(self):
        w = data.H + data.F
        starts = range(self.windows - self.heldout, self.windows)  # 0-based
        return [(self.ds.prices[:, s:s + data.H], self.ds.prices[:, s:s + w].mean(axis=1))
                for s in starts]

    def corruptions(self):
        b = self.b
        header, first = (b.work / "acgan" / "training_log.csv").read_text().splitlines()[:2]
        cells = first.split(",")
        no_ap = b.work / "corrupt_training_log.csv"
        no_ap.write_text(f"{header}\n{','.join(cells[:3] + ['nan'] + cells[4:])}\n")
        trained, initial = self.bundles("acgan")
        stale = dict(trainable(trained), decoder=initial.decoder)
        changed = dict(self.digests[0], **{"acgan/bundle.gfa": "0" * 64})
        return [
            ("acgan log without ap_loss", lambda: checks.check_training_log(no_ap, 1, True)),
            ("decoder left at its initialization",
             lambda: checks.check_networks_moved(stale, trainable(initial), "acgan")),
            ("proposer MSE misreported by 1e-6",
             lambda: checks.check_proposer(self.proposer, self.proposer_mse * (1 + 1e-6),
                                           self.heldout_windows(), b.g.propose_mean)),
            ("repeat not byte-identical",
             lambda: checks.check_repeats([self.digests[0], changed], "train")),
        ]


class SimulateWorkload:
    """`ganfolio simulate` with many draws from a briefly trained cgan bundle."""

    def __init__(self, b: Bench):
        self.b = b
        self.items = SIM_DRAWS
        self.out = b.work / "simulate"
        self.digests = []

    def setup(self) -> None:
        self.ds = self.b.train_bundle()

    def round(self) -> tuple[int, int]:
        b = self.b
        ok = b.cli(["simulate", *b.common(self.ds), "--bundle", b.bundle,
                    "--n-draws", str(SIM_DRAWS), "--out", rel(self.out)])
        return 1, int(not ok)

    def digest(self) -> None:
        self.digests.append(checks.tree_digest(self.out))

    def check(self) -> None:
        ds = self.ds
        checks.check_repeats(self.digests, "simulate")
        self.paths = np.load(self.out / "paths.npy")
        checks.check_paths(self.paths, ds.test_prices, SIM_DRAWS, data.H, data.F)
        checks.check_overlay(self.out / "overlay.csv", self.paths, ds.test_prices, ds.test_dates,
                             data.TICKERS)
        meta = json.loads((self.out / "paths_meta.json").read_text())
        checks.require(meta == {"tickers": list(data.TICKERS), "dates": ds.test_dates,
                                "n_draws": SIM_DRAWS, "seed": MODEL_SEED},
                       "paths_meta.json does not describe the run")

    def corruptions(self):
        ds, h = self.ds, data.H
        prefix = self.paths.copy()
        prefix[-1, 0, h - 1] = np.nextafter(prefix[-1, 0, h - 1], np.inf)
        outside = self.paths.copy()
        history = ds.test_prices[2, :h]
        outside[0, 2, h] = history.mean() + 1.5 * 3.0 * history.std()  # normalized: 1.5
        return [
            ("observed prefix off by one ulp",
             lambda: checks.check_paths(prefix, ds.test_prices, SIM_DRAWS, h, data.F)),
            ("generated value outside the tanh range",
             lambda: checks.check_paths(outside, ds.test_prices, SIM_DRAWS, h, data.F)),
            ("overlay disagrees with paths.npy",
             lambda: checks.check_overlay(self.out / "overlay.csv", prefix, ds.test_prices,
                                          ds.test_dates, data.TICKERS)),
        ]


class BacktestWorkload:
    """`ganfolio backtest` for cgan at eta=15 and for Markowitz at eta=10 and 20,
    on each of BT_DATASETS datasets, all with the bundle trained on dataset 0."""

    def __init__(self, b: Bench):
        self.b = b

        def dates(eta):
            return len(range(data.H + 1, data.TEST_DAYS, eta))

        per_dataset = (BT_DRAWS + 1) * dates(BT_ETA) + sum(dates(e) for e in MARKOWITZ_ETAS)
        self.items = BT_DATASETS * per_dataset
        self.etas = (BT_ETA, *MARKOWITZ_ETAS)
        self.digests = []

    def run_dir(self, k: int, eta: int) -> Path:
        return self.b.work / f"backtest_{k}" / ("cgan" if eta == BT_ETA else f"markowitz_{eta}")

    def setup(self) -> None:
        self.datasets = [self.b.train_bundle()]
        self.datasets += [self.b.dataset(k) for k in range(1, BT_DATASETS)]

    def warm_up(self) -> None:
        self.round(self.datasets[:1])

    def round(self, datasets=None) -> tuple[int, int]:
        b = self.b
        datasets = self.datasets if datasets is None else datasets
        ok = 0
        for k, ds in enumerate(datasets):
            ok += b.cli(["backtest", *b.common(ds), "--model", "cgan", "--bundle", b.bundle,
                         "--eta", str(BT_ETA), "--n-draws", str(BT_DRAWS),
                         "--out", rel(self.run_dir(k, BT_ETA))])
            for eta in MARKOWITZ_ETAS:
                ok += b.cli(["backtest", *b.common(ds), "--model", "markowitz",
                             "--h", str(data.H), "--eta", str(eta),
                             "--out", rel(self.run_dir(k, eta))])
        return 3 * len(datasets), 3 * len(datasets) - ok

    def digest(self) -> None:
        # the warm-up ran dataset 0 only, so its repeats are the ones compared
        self.digests.append(checks.tree_digest(self.b.work / "backtest_0"))

    def check(self) -> None:
        checks.check_repeats(self.digests, "backtest")
        self.gaps = []
        self.generated = [self.check_dataset(k, ds) for k, ds in enumerate(self.datasets)]
        # each branch's largest shortfall from the exact optimum, and where
        self.diagnostics = {}
        for branch in ("max_sharpe", "min_variance"):
            found = [(gap, label) for kind, gap, label in self.gaps if kind == branch]
            gap, label = max(found, default=(0.0, ""))
            self.diagnostics[branch] = {"problems": len(found), "worst_shortfall": gap,
                                        "worst": label}

    def check_dataset(self, k: int, ds: data.Dataset):
        b, h, f = self.b, data.H, data.F
        for eta in self.etas:
            run = Path(rel(self.run_dir(k, eta)))
            fallbacks = checks.check_markowitz(run / "weights_markowitz.csv", ds.test_prices,
                                               ds.test_dates, h, eta, self.gaps)
            checks.require(fallbacks > 0, f"dataset {k} eta={eta}: no min-variance date; the "
                                          "falling stretch lost its purpose")
            checks.check_value_series(run, ds.test_prices, ds.test_dates)
        # the draws the backtest allocated over, re-simulated with the same seed
        sim = b.work / f"backtest_{k}" / "paths"
        if not b.cli(["simulate", *b.common(ds), "--bundle", b.bundle,
                      "--n-draws", str(BT_DRAWS), "--out", rel(sim)]):
            raise checks.CheckFailed(b.failures[-1])
        paths = np.load(sim / "paths.npy")
        checks.check_paths(paths, ds.test_prices, BT_DRAWS, h, f)
        frame = b.g.split_train_test(b.g.load_price_csv(ds.csv), ds.split)[1]
        schedules = b.g.strategy_from_paths(paths, frame, BT_ETA, h=h, f=f)
        sample = [(j, i) for j in range(BT_DRAWS)
                  for i in range(len(schedules[j].rebalance_indices))]
        checks.check_generated_allocations(schedules, paths, BT_ETA, h, f, sample,
                                           self.gaps, f"dataset {k} ")
        run = self.run_dir(k, BT_ETA)
        checks.check_mean_strategy(run / "weights_cgan.csv", schedules, data.N_ASSETS)
        checks.check_scatter(run, schedules, ds.test_prices)
        return paths, schedules, sample

    def corruptions(self):
        ds, h, n = self.datasets[0], data.H, data.N_ASSETS
        run = self.run_dir(0, BT_ETA)
        paths, schedules, sample = self.generated[0]
        # every Markowitz row moved to its vertex of lowest Sharpe / highest variance
        vertex = self.b.work / "corrupt_markowitz" / "weights_markowitz.csv"
        vertex.parent.mkdir(exist_ok=True)
        header, *rows = (run / "weights_markowitz.csv").read_text().splitlines()
        lines = [header]
        for i in range(0, len(rows), n):
            block = rows[i:i + n]
            t = ds.test_dates.index(block[0].split(",")[0]) + 1
            mean, cov = checks.moments(ds.test_prices[:, t - 1 - h:t - 1])
            score = mean / np.sqrt(np.diag(cov)) if (mean > 0).any() else -np.diag(cov)
            worst = int(np.argmin(score))
            lines += [",".join(r.split(",")[:2] + [repr(float(j == worst))])
                      for j, r in enumerate(block)]
        vertex.write_text("\n".join(lines) + "\n")
        # one value of the cgan series nudged by a relative 1e-9
        nudged = self.b.work / "corrupt_series"
        nudged.mkdir(exist_ok=True)
        series = (run / "value_series.csv").read_text().splitlines()
        cells = series[5].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-9))
        series[5] = ",".join(cells)
        (nudged / "value_series.csv").write_text("\n".join(series) + "\n")
        for name in ("weights_cgan.csv", "weights_markowitz.csv"):
            (nudged / name).write_bytes((run / name).read_bytes())
        uniform = [type(s)(s.rebalance_indices, np.full_like(s.weights, 1.0 / n))
                   for s in schedules]
        return [
            ("Markowitz rows moved to the worst vertex",
             lambda: checks.check_markowitz(vertex, ds.test_prices, ds.test_dates, h, BT_ETA)),
            ("value series nudged by 1e-9",
             lambda: checks.check_value_series(nudged, ds.test_prices, ds.test_dates)),
            ("generated-block allocations replaced by uniform weights",
             lambda: checks.check_generated_allocations(uniform, paths, BT_ETA, h, data.F,
                                                        sample)),
            ("mean strategy of other schedules",
             lambda: checks.check_mean_strategy(run / "weights_cgan.csv", uniform, n)),
        ]


WORKLOADS = {"train": TrainWorkload, "simulate": SimulateWorkload, "backtest": BacktestWorkload}


# ---------------------------------------------------------------------------
# per-layer metrics: (metric, family that must be wrapped, "s"/"count", source key)
# ---------------------------------------------------------------------------

PER_LAYER = [
    ("cli.train.s", "cli", "s", "cli.train"),
    ("cli.simulate.s", "cli", "s", "cli.simulate"),
    ("cli.backtest.s", "cli", "s", "cli.backtest"),
    ("marketdata.load_price_csv.s", "marketdata.load_price_csv", "s", "marketdata.load_price_csv"),
    ("normalization.calls", "normalization", "count", "normalization"),
    ("normalization.s", "normalization", "s", "normalization"),
    ("autodiff.gradient.calls", "autodiff.gradient", "count", "autodiff.gradient"),
    ("autodiff.gradient.s", "autodiff.gradient", "s", "autodiff.gradient"),
    ("autodiff.gradient.create_graph.calls", "autodiff.gradient", "count",
     "autodiff.gradient.create_graph"),
    ("networks.forward.train.calls", "networks.forward", "count", "networks.forward.train"),
    ("networks.forward.train.s", "networks.forward", "s", "networks.forward.train"),
    ("networks.forward.infer.calls", "networks.forward", "count", "networks.forward.infer"),
    ("networks.forward.infer.s", "networks.forward", "s", "networks.forward.infer"),
    ("networks.adam_step.calls", "networks.adam_step", "count", "networks.adam_step"),
    ("networks.adam_step.s", "networks.adam_step", "s", "networks.adam_step"),
    ("networks.save.s", "networks.save", "s", "networks.save"),
    ("networks.load.s", "networks.load", "s", "networks.load"),
    ("gan.train.s", "gan.train", "s", "gan.train"),
    ("gan.generator_step.s", "gan.generator_step", "s", "gan.generator_step"),
    ("gan.critic_step.s", "gan.critic_step", "s", "gan.critic_step"),
    ("gan.train_proposer.s", "gan.train_proposer", "s", "gan.train_proposer"),
    ("gan.simulate_paths.s", "gan.simulate_paths", "s", "gan.simulate_paths"),
    ("gan.simulate_paths.draws", "gan.simulate_paths", "count", "gan.simulate_paths.draws"),
    ("portfolio.max_sharpe.calls", "portfolio.max_sharpe", "count", "portfolio.max_sharpe"),
    ("portfolio.max_sharpe.s", "portfolio.max_sharpe", "s", "portfolio.max_sharpe"),
    ("portfolio.min_variance.calls", "portfolio.min_variance", "count", "portfolio.min_variance"),
    ("portfolio.projections", "portfolio.projections", "count", "portfolio.projections"),
    ("portfolio.estimate_moments.s", "portfolio.estimate_moments", "s",
     "portfolio.estimate_moments"),
    ("backtest.run_experiment.s", "backtest.run_experiment", "s", "backtest.run_experiment"),
    ("backtest.strategy_from_paths.s", "backtest.strategy_from_paths", "s",
     "backtest.strategy_from_paths"),
    ("backtest.markowitz_schedule.s", "backtest.markowitz_schedule", "s",
     "backtest.markowitz_schedule"),
    ("backtest.value_series.s", "backtest.value_series", "s", "backtest.value_series"),
    ("reporting.write.s", "reporting", "s", "reporting.write"),
    ("reporting.bytes", "reporting", "bytes", "reporting.bytes"),
]


def per_layer_metrics(tracer: Tracer, untraced: list, traced: list) -> dict:
    """Per-round self times and counts over the traced rounds."""
    installed = tracer.installed | {"cli"}
    rounds = len(traced)
    metrics = {}
    for name, family, unit, key in PER_LAYER:
        if family in installed:
            total = tracer.self_s.get(key, 0.0) if unit == "s" else tracer.counts.get(key, 0)
            metrics[name] = {"value": total / rounds, "unit": unit}
    metrics["trace.overhead"] = {
        "value": statistics.median(traced) / statistics.median(untraced), "unit": "ratio"}
    metrics["trace.covered"] = {"value": tracer.covered_s() / sum(traced), "unit": "ratio"}
    return metrics


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(workload, seconds: float, rounds: int | None = None):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops, bad = workload.round()
        times.append(time.perf_counter() - t0)
        attempted, failed = attempted + ops, failed + bad
        workload.digest()
        if len(times) == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            return times, attempted, failed


def self_test(workload, name: str) -> None:
    """The exact solver against a grid, and every check against a corrupted output."""
    selftest.exact_solver_against_grid()
    for label, corrupted in workload.corruptions():
        try:
            corrupted()
        except checks.CheckFailed:
            continue
        raise checks.CheckFailed(f"{name} self-test: a check passed a corrupted output ({label})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ganfolio = import_program()
    os.chdir(ROOT)
    b = Bench(ganfolio, args.workload, args.seed)
    b.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](b)

    import_s = median_import_s()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    # untimed: caches, the allocator and lazy imports settle
    getattr(workload, "warm_up", workload.round)()
    workload.digest()
    times, attempted, failed = measure(workload, args.seconds)
    result = {"env": environment(), "workload": args.workload, "seed": args.seed,
              "round_s": times, "items_per_round": workload.items,
              "setup_repeats_s": setups, "import_s": import_s}

    if args.trace:
        tracer = Tracer()
        tracer.install(TABLE)
        b.tracer = tracer
        try:
            traced, more_attempted, more_failed = measure(workload, 0, rounds=len(times))
        finally:
            tracer.uninstall()
            b.tracer = None
        attempted, failed = attempted + more_attempted, failed + more_failed
        tracer.write(b.work / "spans.jsonl")
        metrics = per_layer_metrics(tracer, times, traced)
        result["traced_round_s"] = traced
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput": {"value": workload.items / statistics.median(times), "unit": "items/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }

    correct = True
    try:
        workload.check()
        self_test(workload, args.workload)
    except checks.CheckFailed as err:
        correct = False
        result["check_failed"] = str(err)
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    for message in b.failures:
        print(f"perfbench: operation failed: {message}", file=sys.stderr)
    result["diagnostics"] = getattr(workload, "diagnostics", {})

    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result.update(line)
    (b.work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if result["diagnostics"]:
        print("diagnostics " + json.dumps(result["diagnostics"], sort_keys=True))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
