"""In-memory span tracer that wraps ganfolio's public functions by name.

Each wrapped name is replaced, in the module where its caller looks it up,
by a wrapper that records a span (name, start, end, parent) and/or bumps a
counter.  Self time is a span's duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
Spans stay in memory until :meth:`Tracer.write` dumps them at the end of a
run.  A name that no longer exists in the program is skipped, so its metric
reports nothing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        self.counts[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, perf_counter(), 0.0])
        self._next_id += 1
        try:
            yield
        finally:
            end = perf_counter()
            sid, parent, start, child_s = self._stack.pop()
            duration = end - start
            self.spans.append((sid, parent, name, start, end))
            self.self_s[name] += duration - child_s
            if self._stack:
                self._stack[-1][3] += duration

    def covered_s(self) -> float:
        """Total duration of root spans, which equals the sum of all self times."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent == -1)

    def install(self, table) -> None:
        """Wrap every (module, name, wrapper factory, metric family) that exists."""
        for module_name, attr, factory, family in table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, factory(self, original))
            self._patches.append((module, attr, original))
            self.installed.add(family)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            for sid, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# wrapper factories
# ---------------------------------------------------------------------------

def spanned(name):
    def factory(tracer, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper
    return factory


def counted(name):
    def factory(tracer, fn):
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return factory


def _forward(tracer, fn):
    # forward(net, x, mode="infer", ...)
    def wrapper(*args, **kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
        with tracer.span(f"networks.forward.{mode}"):
            return fn(*args, **kwargs)
    return wrapper


def _gradient(tracer, fn):
    # gradient(output, inputs, create_graph=False)
    def wrapper(*args, **kwargs):
        if kwargs.get("create_graph", args[2] if len(args) > 2 else False):
            tracer.counts["autodiff.gradient.create_graph"] += 1
        with tracer.span("autodiff.gradient"):
            return fn(*args, **kwargs)
    return wrapper


def _simulate_paths(tracer, fn):
    # simulate_paths(bundle, test_frame, n_draws, seed=0, ...)
    def wrapper(*args, **kwargs):
        tracer.counts["gan.simulate_paths.draws"] += int(
            kwargs.get("n_draws", args[2] if len(args) > 2 else 0))
        with tracer.span("gan.simulate_paths"):
            return fn(*args, **kwargs)
    return wrapper


def _writer(tracer, fn):
    # reporting writers take the output path first
    def wrapper(*args, **kwargs):
        with tracer.span("reporting.write"):
            result = fn(*args, **kwargs)
        tracer.counts["reporting.bytes"] += os.path.getsize(args[0])
        return result
    return wrapper


_NORMALIZATION = ("normalize", "denormalize", "fit_standard", "fit_eavesdrop",
                  "make_hybrid_stats")
_WRITERS = ("write_training_log_csv", "write_value_series_csv", "write_scatter_csv",
            "write_weights_csv", "write_overlay_csv")

# (module where the caller looks the name up, name, wrapper factory, metric family)
TABLE = (
    [("ganfolio.cli", "load_price_csv", spanned("marketdata.load_price_csv"),
      "marketdata.load_price_csv")]
    + [("ganfolio.gan", name, spanned("normalization"), "normalization")
       for name in _NORMALIZATION]
    + [
        ("ganfolio.autodiff", "gradient", _gradient, "autodiff.gradient"),
        ("ganfolio.gan", "forward", _forward, "networks.forward"),
        ("ganfolio.gan", "adam_step", spanned("networks.adam_step"), "networks.adam_step"),
        ("ganfolio.gan", "save_networks", spanned("networks.save"), "networks.save"),
        ("ganfolio.gan", "load_networks", spanned("networks.load"), "networks.load"),
        ("ganfolio.cli", "train", spanned("gan.train"), "gan.train"),
        ("ganfolio.gan", "generator_step", spanned("gan.generator_step"), "gan.generator_step"),
        ("ganfolio.gan", "critic_step", spanned("gan.critic_step"), "gan.critic_step"),
        ("ganfolio", "train_proposer", spanned("gan.train_proposer"), "gan.train_proposer"),
        ("ganfolio.gan", "train_proposer", spanned("gan.train_proposer"), "gan.train_proposer"),
        ("ganfolio.cli", "simulate_paths", _simulate_paths, "gan.simulate_paths"),
        ("ganfolio.gan", "simulate_paths", _simulate_paths, "gan.simulate_paths"),
        ("ganfolio.backtest", "max_sharpe_weights", spanned("portfolio.max_sharpe"),
         "portfolio.max_sharpe"),
        ("ganfolio.portfolio", "max_sharpe_weights", spanned("portfolio.max_sharpe"),
         "portfolio.max_sharpe"),
        ("ganfolio.portfolio", "min_variance_weights", counted("portfolio.min_variance"),
         "portfolio.min_variance"),
        ("ganfolio.portfolio", "project_to_simplex", counted("portfolio.projections"),
         "portfolio.projections"),
        ("ganfolio.backtest", "estimate_moments", spanned("portfolio.estimate_moments"),
         "portfolio.estimate_moments"),
        ("ganfolio.portfolio", "estimate_moments", spanned("portfolio.estimate_moments"),
         "portfolio.estimate_moments"),
        ("ganfolio.cli", "run_experiment", spanned("backtest.run_experiment"),
         "backtest.run_experiment"),
        ("ganfolio.backtest", "strategy_from_paths", spanned("backtest.strategy_from_paths"),
         "backtest.strategy_from_paths"),
        ("ganfolio.backtest", "markowitz_schedule", spanned("backtest.markowitz_schedule"),
         "backtest.markowitz_schedule"),
        ("ganfolio.backtest", "portfolio_value_series", spanned("backtest.value_series"),
         "backtest.value_series"),
    ]
    + [("ganfolio.cli", name, _writer, "reporting") for name in _WRITERS]
)
