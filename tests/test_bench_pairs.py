"""tools/bench_pairs.py's summary of paired benchmark runs, on hand values."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_higher_is_better_medians_quartiles_and_wins():
    s = bench_pairs.summarize([10, 11, 12, 13, 14], [12, 13, 11, 15, 16], "higher", 0.25)
    assert s["parent"] == (12, 11, 13)
    assert s["change"] == (13, 12, 15)
    assert (s["wins"], s["pairs"]) == (4, 5)
    assert s["gain"] == pytest.approx(1 / 12)
    assert s["verdict"] == "within bound"


def test_lower_is_better_counts_a_fall_as_a_win():
    s = bench_pairs.summarize([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 2.0, 2.0], "lower", 0.25)
    assert (s["wins"], s["gain"]) == (2, pytest.approx(-0.25))
    assert s["verdict"] == "within bound"
    s = bench_pairs.summarize([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 0.5], "lower", 0.25)
    assert (s["wins"], s["gain"]) == (1, pytest.approx(-0.3))
    assert s["verdict"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # quartiles 80 and 110 of a median 100: a spread of 30%, above a 25% bound
    s = bench_pairs.summarize([70, 80, 100, 110, 120], [10, 10, 10, 10, 10], "higher", 0.25)
    assert s["parent"] == (100, 80, 110)
    assert s["verdict"] == "unresolved"


def test_every_change_run_better_than_every_parent_run_is_resolved():
    # the parent's spread of 30% exceeds the bound, but no run of the change overlaps it
    s = bench_pairs.summarize([70, 80, 100, 110, 120], [121, 125, 130, 122, 140], "higher", 0.25)
    assert (s["wins"], s["verdict"]) == (5, "better in every run")
    # quartiles 1.0 and 1.35 of a median 1.15: a spread of 30%
    s = bench_pairs.summarize([1.0, 1.5, 1.0, 1.3], [0.9, 0.5, 0.8, 0.99], "lower", 0.25)
    assert (s["wins"], s["verdict"]) == (4, "better in every run")
    # one change run level with a parent run is not better in every run
    s = bench_pairs.summarize([1.0, 1.5, 1.0, 1.3], [0.9, 0.5, 1.0, 0.99], "lower", 0.25)
    assert (s["wins"], s["verdict"]) == (3, "unresolved")


def test_a_claim_needs_nine_in_ten_wins_and_medians_apart_by_the_parent_spread():
    # parent quartiles 102.25 and 106.75 (a spread of 4.5), median 104.5
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    s = bench_pairs.summarize(parent, [p + 5 for p in parent], "higher", 0.25)
    assert (s["wins"], s["parent"][2] - s["parent"][1], s["claim"]) == (10, 4.5, True)
    # nine wins and one tie still make nine in ten
    s = bench_pairs.summarize(parent, [p + 6 for p in parent[:9]] + [109], "higher", 0.25)
    assert (s["wins"], s["claim"]) == (9, True)
    # eight wins, a tie and a loss do not, though the medians are far apart
    s = bench_pairs.summarize(parent, [p + 10 for p in parent[:8]] + [108, 100], "higher",
                              0.25)
    assert (s["wins"], s["claim"]) == (8, False)
    # every pair won, but the medians only 4 apart, inside the spread of 4.5
    s = bench_pairs.summarize(parent, [p + 4 for p in parent], "higher", 0.25)
    assert (s["wins"], s["change"][0] - s["parent"][0], s["claim"]) == (10, 4, False)
    # lower is better: a fall of the median by more than the spread is a gain
    s = bench_pairs.summarize(parent, [p - 5 for p in parent], "lower", 0.25)
    assert (s["wins"], s["claim"]) == (10, True)
    s = bench_pairs.summarize(parent, [p + 5 for p in parent], "lower", 0.25)
    assert (s["wins"], s["claim"]) == (0, False)


def test_needs_paired_runs():
    with pytest.raises(ValueError, match="two or more pairs"):
        bench_pairs.summarize([1.0], [1.0], "higher", 0.25)
    with pytest.raises(ValueError, match="two or more pairs"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher", 0.25)


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_exit_2_before_any_run(pairs, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "train",
                          "--seed", "1", "--pairs", pairs])
    assert exited.value.code == 2
    assert f"--pairs must be 2 or more, got {pairs}" in capsys.readouterr().err


def test_trace_table_prints_both_sides_and_the_relative_change_in_declared_order():
    per_layer = [{"name": "cli.backtest.s", "unit": "s", "better": "lower"},
                 {"name": "absent.s", "unit": "s", "better": "lower"},
                 {"name": "portfolio.max_sharpe.calls", "unit": "count", "better": "lower"},
                 {"name": "trace.covered", "unit": "ratio", "better": "higher"}]
    parent = {"trace.covered": {"value": 0.8, "unit": "ratio"},
              "cli.backtest.s": {"value": 0.25, "unit": "s"},
              "portfolio.max_sharpe.calls": {"value": 0, "unit": "count"}}
    change = {"trace.covered": {"value": 0.9, "unit": "ratio"},
              "cli.backtest.s": {"value": 0.2, "unit": "s"},
              "portfolio.max_sharpe.calls": {"value": 3, "unit": "count"},
              "absent.s": {"value": 1.0, "unit": "s"}}
    assert bench_pairs.trace_table(parent, change, per_layer) == [
        "  cli.backtest.s (s, lower is better): 0.25 vs 0.2 (-20.0%)",
        "  portfolio.max_sharpe.calls (count, lower is better): 0 vs 3 (n/a)",
        "  trace.covered (ratio, higher is better): 0.8 vs 0.9 (+12.5%)",
    ]
