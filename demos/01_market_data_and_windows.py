"""Walk through price ingestion, splitting, and windowing.

Creates a small synthetic CSV, loads it back with full validation, splits it
into training and test segments, and shows how the training and inference
index sets tile the data into (historical | future) windows.

Run: python3 demos/01_market_data_and_windows.py
"""

import tempfile
from pathlib import Path

import numpy as np

from ganfolio import (PriceFrame, extract_window, inference_index_set, load_price_csv,
                      simple_returns, split_train_test, training_index_set,
                      write_price_csv)

# --- build and persist a toy three-asset market -----------------------------
days = 90
t = np.arange(days, dtype=np.float64)
prices = np.stack([
    100.0 + 0.4 * t + 5.0 * np.sin(t / 6.0),
    50.0 + 0.1 * t + 2.0 * np.cos(t / 9.0),
    20.0 + 0.05 * t,
])
dates = tuple(f"2021-{1 + k // 30:02d}-{1 + k % 30:02d}" for k in range(days))
frame = PriceFrame(("ALPHA", "BETA", "GAMMA"), dates, prices)

with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "toy_prices.csv"
    write_price_csv(frame, csv_path)
    loaded = load_price_csv(csv_path, expected_tickers=["GAMMA", "ALPHA", "BETA"])
    print(f"loaded {loaded.n_assets} assets x {loaded.day_count} days from {csv_path}")
print(f"column order honored the request: {loaded.tickers}")

# --- train/test split --------------------------------------------------------
train_frame, test_frame = split_train_test(loaded, loaded.dates[59])
print(f"train: {train_frame.day_count} days, test: {test_frame.day_count} days")

# --- index sets and windows ---------------------------------------------------
h, f = 10, 5
w = h + f
s1 = training_index_set(train_frame.day_count, w)
s2 = inference_index_set(test_frame.day_count, h, f)
print(f"S1 holds {s1.size} window starts (D - w + 1 = {train_frame.day_count - w + 1})")
print(f"S2 holds {s2.size} generation starts spaced f={f} apart: {s2.tolist()}")

window = extract_window(train_frame, int(s1[0]), h, f)
print(f"first window: full {window.full.shape}, historical {window.historical.shape}, "
      f"future {window.full[:, h:].shape}")
assert window.historical.base is window.full.base  # views, not copies

returns = simple_returns(window.historical)
print(f"historical daily returns of asset 0: {np.round(returns[0], 4)}")
