import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ganfolio
from ganfolio.gan import TrainConfig, train
from ganfolio.marketdata import PriceFrame
from ganfolio.networks import AdamState

from oracles import mean_proposer


def make_frame(prices, tickers=None, start_day=1):
    """PriceFrame with auto-generated increasing date labels."""
    prices = np.asarray(prices, dtype=np.float64)
    n, d = prices.shape
    tickers = tuple(tickers) if tickers else tuple(f"T{i}" for i in range(n))
    dates = tuple(f"2020-01-01+{start_day + k:05d}" for k in range(d))
    return PriceFrame(tickers, dates, prices)


def sinusoid_frame(n_assets=2, days=30, seed=0):
    """Smooth drift+sinusoid prices, strictly positive."""
    rng = np.random.default_rng(seed)
    t = np.arange(days, dtype=np.float64)
    rows = []
    for i in range(n_assets):
        level = 10.0 * (i + 1)
        drift = 0.02 * (i + 1)
        rows.append(level + drift * t + np.sin(t / (2.5 + i)) + 0.05 * rng.standard_normal(days))
    return make_frame(np.abs(np.stack(rows)) + 1.0)


TINY = dict(h=8, f=4, m=6)


def run_python(*args, cwd=None, **env):
    """Run the interpreter on ``args`` in a fresh process that imports this checkout."""
    src = Path(ganfolio.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(src), **env),
                          capture_output=True, text=True, timeout=120)


def adam_state(params, config=TrainConfig(), **overrides):
    """An AdamState with ``config``'s hyperparameters, as ``train`` builds one."""
    hyper = dict(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    return AdamState.for_parameters(params, **{**hyper, **overrides})


def reduce_hybrid_to_plain(monkeypatch):
    """Make hybrid training reduce to plain training: ``train`` gets the
    mean proposer in place of a trained one, and the hybrid simulator's
    output scale becomes 1."""
    monkeypatch.setattr("ganfolio.gan.train_proposer", lambda frame, config: (
        mean_proposer(frame.n_assets, config.h, config.f, config.m), float("nan")))
    monkeypatch.setattr("ganfolio.networks.HYBRID_OUTPUT_SCALE", 1.0)


@pytest.fixture(scope="session")
def tiny_frame():
    return sinusoid_frame(n_assets=2, days=26, seed=3)


@pytest.fixture(scope="session")
def tiny_cgan(tiny_frame):
    """A small trained cgan bundle shared across tests (2 epochs)."""
    return train(tiny_frame, TrainConfig(model_kind="cgan", epochs=2, seed=11, **TINY))
