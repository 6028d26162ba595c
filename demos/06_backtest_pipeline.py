"""The full loop: train, simulate many futures, average the per-draw
max-Sharpe strategies, and backtest against the rolling Markowitz baseline.

Everything is toy-sized so the demo runs in roughly a minute.

Run: python3 demos/06_backtest_pipeline.py
"""

import numpy as np

from ganfolio import (PriceFrame, TrainConfig, annualized_metrics, run_experiment,
                      train)

rng = np.random.default_rng(21)
days = 56
t = np.arange(days, dtype=np.float64)
prices = np.stack([
    40.0 + 0.10 * t + 2.5 * np.sin(t / 4.0) + 0.2 * rng.standard_normal(days),
    80.0 - 0.02 * t + 3.0 * np.cos(t / 6.0) + 0.2 * rng.standard_normal(days),
])
dates = tuple(f"day-{k:04d}" for k in range(days))
frame = PriceFrame(("GROW", "DRIFT"), dates, np.abs(prices) + 1.0)
train_frame = PriceFrame(frame.tickers, frame.dates[:32], frame.prices[:, :32])
test_frame = PriceFrame(frame.tickers, frame.dates[32:], frame.prices[:, 32:])

config = TrainConfig(model_kind="cgan", h=8, f=4, m=6, epochs=30, seed=2)
print(f"training on {train_frame.day_count} days; testing on {test_frame.day_count}...")
bundle = train(train_frame, config)

eta = 4
result = run_experiment(bundle, test_frame, eta=eta, n_draws=40, seed=7)
baseline = run_experiment("markowitz", test_frame, eta=eta, h=config.h)

print(f"\nmean strategy over 40 draws (rebalance every {eta} days):")
print(f"  final value    {result.value_series[-1]:.4f}")
print(f"  annual return  {result.annual_return:+.4f}")
print(f"  annual Sharpe  {result.annual_sharpe:+.4f}")
print(f"  per-draw scatter: return in [{result.draw_scatter[:, 0].min():+.3f}, "
      f"{result.draw_scatter[:, 0].max():+.3f}], "
      f"Sharpe in [{result.draw_scatter[:, 1].min():+.3f}, "
      f"{result.draw_scatter[:, 1].max():+.3f}]")

print("\nrolling Markowitz baseline (same rebalance dates):")
print(f"  final value    {baseline.value_series[-1]:.4f}")
print(f"  annual return  {baseline.annual_return:+.4f}")
print(f"  annual Sharpe  {baseline.annual_sharpe:+.4f}")

print("\nmean-strategy weights by rebalance date:")
for day, weights in zip(result.schedule.rebalance_indices, result.schedule.weights):
    print(f"  {test_frame.dates[day - 1]}: " +
          ", ".join(f"{tk} {wt:.3f}" for tk, wt in zip(test_frame.tickers, weights)))

# sanity: metrics recompute from the emitted value series
annual_return, annual_sharpe, _ = annualized_metrics(result.value_series)
assert (annual_return, annual_sharpe) == (result.annual_return, result.annual_sharpe)
