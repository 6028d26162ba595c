from types import SimpleNamespace

import numpy as np
import pytest

from ganfolio import backtest
from ganfolio.backtest import (REBALANCE_SETTINGS, WeightSchedule, annualized_metrics,
                               markowitz_schedule, mean_strategy, portfolio_value_series,
                               rebalance_days, run_experiment, strategy_from_paths)
from ganfolio.errors import ValidationError
from ganfolio.gan import TrainConfig, simulate_paths, train
from ganfolio.marketdata import simple_returns
from ganfolio.portfolio import estimate_moments, max_sharpe_weights

from conftest import TINY, make_frame, sinusoid_frame
from oracles import per_day_value_series


def schedule(indices, weights):
    return WeightSchedule(tuple(indices), np.asarray(weights, dtype=np.float64))


class TestWeightSchedule:
    def test_rejects_non_increasing_indices(self):
        for indices in ([1, 3, 3], [7, 3, 9]):
            with pytest.raises(ValidationError, match="strictly increasing"):
                schedule(indices, np.tile([0.5, 0.5], (3, 1)))

    def test_rejects_off_simplex(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            schedule([1, 2], [[0.7, 0.7], [0.5, 0.5]])

    @pytest.mark.parametrize("excess", [5e-6, -5e-6, 2e-8, np.nan])
    def test_rejects_sum_off_by_more_than_1e_8(self, excess):
        with pytest.raises(ValidationError, match="sum to 1"):
            schedule([1], [[0.25, 0.75 + excess]])

    @pytest.mark.parametrize("excess", [5e-9, -5e-9])
    def test_accepts_sum_within_1e_8(self, excess):
        assert schedule([1], [[0.25, 0.75 + excess]]).weights[0, 1] == 0.75 + excess

    def test_stack_checked_once_naming_the_failing_member(self):
        weights = np.tile([0.25, 0.75], (6, 2, 1))
        assert schedule([1, 3], weights).weights.shape == (6, 2, 2)
        weights[4, 1] = [0.5, 0.6]
        with pytest.raises(ValidationError, match="^member 4: weights must sum to 1"):
            schedule([1, 3], weights)
        weights[4, 1], weights[2, 0] = [0.25, 0.75], [-0.5, 1.5]
        with pytest.raises(ValidationError, match=r"^member 2: weights must lie in \[0, 1\]"):
            schedule([1, 3], weights)

    def test_rebalance_days_paper_counts(self):
        assert len(rebalance_days(800, 40, 20)) == 38
        assert rebalance_days(800, 40, 20)[:3] == (41, 61, 81)
        assert REBALANCE_SETTINGS == {"defensive": 10, "balanced": 15, "aggressive": 20}


class TestPortfolioValueSeries:
    def test_buy_and_hold_doubling_exact(self):
        # asset 0 doubles from the rebalance date to the end
        prices = np.stack([np.array([64.0, 64.0, 80.0, 96.0, 128.0]),
                           np.full(5, 3.0)])
        frame = make_frame(prices)
        s = schedule([2], [[1.0, 0.0]])
        values, dates = portfolio_value_series(s, frame)
        assert values[0] == 1.0
        assert values[-1] == 2.0  # exact, not approximate
        assert dates == frame.dates[1:]

    def test_constant_prices_flat_value(self):
        frame = make_frame(np.full((2, 7), 5.0))
        s = schedule([1, 4, 7], np.tile([0.25, 0.75], (3, 1)))
        values, _ = portfolio_value_series(s, frame)
        assert np.array_equal(values, np.ones(7))

    def test_offsetting_moves_cancel_within_block(self):
        prices = np.stack([np.array([100.0, 110.0]), np.array([100.0, 90.0])])
        frame = make_frame(prices)
        values, _ = portfolio_value_series(schedule([1], [[0.5, 0.5]]), frame)
        assert values[-1] == pytest.approx(1.0, abs=1e-15)

    def test_rebalancing_to_implied_weights_is_noop(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            prices = 10.0 * np.exp(np.cumsum(rng.standard_normal((3, 21)) * 0.02, axis=1))
            frame = make_frame(prices)
            base = rng.dirichlet(np.ones(3))
            coarse = schedule([1, 11, 21], np.tile(base, (3, 1)).copy()
                              if trial % 2 else rng.dirichlet(np.ones(3), size=3))
            values, _ = portfolio_value_series(coarse, frame)
            refined = _split_blocks_at_implied(coarse, frame, step=5)
            refined_values, _ = portfolio_value_series(refined, frame)
            assert np.allclose(values, refined_values, rtol=1e-12)

    def test_positive_throughout(self):
        rng = np.random.default_rng(1)
        prices = 5.0 * np.exp(np.cumsum(rng.standard_normal((4, 30)) * 0.05, axis=1))
        frame = make_frame(prices)
        s = schedule(range(1, 30, 7), rng.dirichlet(np.ones(4), size=5))
        values, _ = portfolio_value_series(s, frame)
        assert (values > 0).all()

    @pytest.mark.parametrize("indices", [(2, 5, 9), (3,)], ids=["last_day", "single"])
    def test_holding_periods_match_per_day_reference(self, indices):
        # a rebalance on the frame's last day holds for no further day
        rng = np.random.default_rng(2)
        frame = make_frame(10.0 * np.exp(np.cumsum(rng.standard_normal((3, 9)) * 0.03, axis=1)))
        s = schedule(indices, rng.dirichlet(np.ones(3), size=len(indices)))
        values, _ = portfolio_value_series(s, frame)
        assert np.array_equal(values, per_day_value_series(s, frame))

    def test_stack_matches_per_day_reference_bit_for_bit(self):
        # random widths, holding periods of 1 to 24 days and stacks of 1 to 9 draws;
        # a price frame needs 2 assets, so a bare stand-in carries the 1-asset case
        rng = np.random.default_rng(3)
        for trial in range(60):
            n, draws = int(rng.integers(1, 12)), int(rng.integers(1, 10))
            eta = 1 if trial < 5 else int(rng.integers(1, 25))
            days = int(rng.integers(2, 80))
            scale = 10.0 ** rng.uniform(-2, 4, (n, 1))
            prices = scale * np.exp(np.cumsum(rng.standard_normal((n, days)) * 0.04, axis=1))
            frame = SimpleNamespace(prices=prices, day_count=days, n_assets=n,
                                    dates=tuple(f"d{t}" for t in range(days)))
            indices = tuple(range(int(rng.integers(1, days)), days + 1, eta))
            weights = rng.dirichlet(np.ones(n), size=(draws, len(indices)))
            weights[0, 0] = np.eye(n)[int(rng.integers(n))]  # a vertex
            values, dates = portfolio_value_series(schedule(indices, weights), frame)
            assert values.shape == (draws, days - indices[0] + 1)
            assert dates == frame.dates[indices[0] - 1:]
            for row, w in zip(values, weights):
                alone = schedule(indices, w)
                assert np.array_equal(row, per_day_value_series(alone, frame)), trial
                assert np.array_equal(row, portfolio_value_series(alone, frame)[0]), trial

    def test_out_of_range_schedule(self):
        frame = make_frame(np.full((2, 5), 2.0))
        with pytest.raises(ValidationError, match="frame has 5"):
            portfolio_value_series(schedule([6], [[1.0, 0.0]]), frame)


def _split_blocks_at_implied(coarse, frame, step):
    """Insert mid-block rebalances at the weights the holdings imply there."""
    indices, weights = [], []
    prices = frame.prices
    for i, start in enumerate(coarse.rebalance_indices):
        end = (coarse.rebalance_indices[i + 1]
               if i + 1 < len(coarse.rebalance_indices) else frame.day_count + 1)
        base = coarse.weights[i]
        for t in range(start, end, step):
            growth = prices[:, t - 1] / prices[:, start - 1]
            implied = base * growth
            implied = implied / implied.sum()
            indices.append(t)
            weights.append(implied)
    return WeightSchedule(tuple(indices), np.asarray(weights))


class TestAnnualizedMetrics:
    def test_constant_series_degenerate(self):
        m = annualized_metrics(np.ones(10))
        assert m.annual_return == 0.0 and m.annual_sharpe == 0.0 and m.degenerate

    def test_constant_daily_return_flagged(self):
        values = np.cumprod(np.full(50, 1.001))
        m = annualized_metrics(values)
        assert m.annual_return == pytest.approx(0.252, rel=1e-10)
        assert m.degenerate and m.annual_sharpe == 0.0

    def test_alternating_returns_direct_oracle(self):
        daily = np.array([0.01, -0.01] * 30)
        values = np.concatenate([[1.0], np.cumprod(1.0 + daily)])
        m = annualized_metrics(values)
        mean, std = daily.mean(), daily.std()
        assert m.annual_return == pytest.approx(mean * 252, rel=1e-12)
        assert m.annual_sharpe == pytest.approx(mean / std * np.sqrt(252), rel=1e-12)
        assert not m.degenerate

    def test_risk_free_enters_numerator(self):
        values = np.cumprod(np.concatenate([[1.0], 1.0 + np.random.default_rng(0)
                                           .standard_normal(40) * 0.01]))
        zero = annualized_metrics(values, r_f=0.0)
        positive = annualized_metrics(values, r_f=0.0252)
        assert positive.annual_sharpe < zero.annual_sharpe

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_values(self, bad):
        with pytest.raises(ValidationError, match="^value series must stay positive and finite"):
            annualized_metrics([1.0, bad, 1.1])

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_rejects_other_than_one_series(self, shape):
        with pytest.raises(ValidationError, match="must be 1-D"):
            annualized_metrics(np.ones(shape))

    def test_figures_are_python_floats(self):
        m = annualized_metrics([1.0, 1.01, 0.99, 1.02])
        assert type(m.annual_return) is float and type(m.annual_sharpe) is float
        assert type(m.degenerate) is bool

    @pytest.mark.parametrize("r_f", [0.0, 0.03, -0.01])
    def test_stacked_rows_equal_each_row_alone(self, r_f):
        rng = np.random.default_rng(4)
        for days in (2, 3, 9, 40, 241):
            values = np.cumprod(1.0 + rng.standard_normal((12, days)) * 0.02, axis=1)
            values[3] = 1.0  # constant: degenerate
            values[7] = np.cumprod(np.full(days, 1.001))  # constant daily return: degenerate
            annual_return, annual_sharpe, degenerate = backtest._annualize(values, r_f)
            for j, row in enumerate(values):
                alone = annualized_metrics(row, r_f)
                assert (annual_return[j], annual_sharpe[j], degenerate[j]) == (
                    alone.annual_return, alone.annual_sharpe, alone.degenerate), (days, j)
            assert degenerate[[3, 7]].all() and (annual_sharpe[[3, 7]] == 0.0).all()

    @pytest.mark.filterwarnings("error")
    def test_stack_names_the_first_invalid_member(self):
        values = np.ones((6, 5))
        values[4, 2], values[2, 1] = np.inf, np.nan
        with pytest.raises(ValidationError, match="^member 2: value series must stay positive"):
            backtest._annualize(values, 0.0)


class TestMeanStrategy:
    def test_two_point_average(self):
        a = schedule([1], [[1.0, 0.0]])
        b = schedule([1], [[0.0, 1.0]])
        assert np.array_equal(mean_strategy([a, b]).weights, [[0.5, 0.5]])

    def test_idempotent_on_identical(self):
        s = schedule([1, 3], [[0.3, 0.7], [0.6, 0.4]])
        out = mean_strategy([s] * 1000)
        assert np.allclose(out.weights, s.weights, atol=1e-15)

    def test_mean_on_simplex(self):
        rng = np.random.default_rng(2)
        schedules = [schedule([1, 5], rng.dirichlet(np.ones(4), size=2)) for _ in range(50)]
        out = mean_strategy(schedules)
        assert np.abs(out.weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_index_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            mean_strategy([schedule([1], [[1.0, 0.0]]), schedule([2], [[1.0, 0.0]])])


class TestStrategyFromPaths:
    def _paths(self, frame, n_draws=3, seed=0):
        rng = np.random.default_rng(seed)
        return np.abs(frame.prices + rng.standard_normal((n_draws, *frame.prices.shape)) * 0.3) + 0.5

    def test_eta_equals_f_one_block_per_rebalance(self):
        frame = sinusoid_frame(2, days=24, seed=4)
        paths = self._paths(frame)
        schedules = strategy_from_paths(paths, frame, eta=4, h=8, f=4)
        assert len(schedules) == 3
        assert schedules[0].rebalance_indices == tuple(range(9, 24, 4))

    def test_eta_below_f_shares_blocks(self):
        frame = sinusoid_frame(2, days=24, seed=5)
        paths = self._paths(frame)
        halves = strategy_from_paths(paths, frame, eta=2, h=8, f=4)
        assert halves[0].rebalance_indices == tuple(range(9, 24, 2))

    def test_each_distinct_span_solved_once_per_draw(self, monkeypatch):
        frame = sinusoid_frame(2, days=24, seed=5)
        paths = self._paths(frame)
        solved = []

        def counting(moments, r_f):
            solved.append(moments.mean_returns[..., 0].size)  # members of the stack
            return max_sharpe_weights(moments, r_f)

        monkeypatch.setattr(backtest, "max_sharpe_weights", counting)
        schedules = strategy_from_paths(paths, frame, eta=2, h=8, f=4)
        # days 9, 11, ..., 23 pair up on the blocks 9-12, 13-16, 17-20 and 21-24
        assert sum(solved) == 4 * len(paths)
        for s, b in zip(schedules, paths):
            for j, t in enumerate(s.rebalance_indices):
                start = 9 + (t - 9) // 4 * 4
                block = b[:, start - 1:start + 3]
                expected = max_sharpe_weights(estimate_moments(simple_returns(block)))
                assert np.array_equal(s.weights[j], expected), t

    @pytest.mark.parametrize("eta", [2, 6, 9])
    def test_draw_schedule_independent_of_the_other_draws(self, eta):
        # eta 6 and 9 mix covering spans of 4, 8 and 12 days, so several stacks are solved
        frame = sinusoid_frame(3, days=40, seed=11)
        paths = self._paths(frame, n_draws=7, seed=12)
        paths[2] = 7.0  # zero covariance on every span
        paths[4] *= np.linspace(1.0, 0.2, 40)  # falling: the min-variance fallback
        together = strategy_from_paths(paths, frame, eta=eta, h=8, f=4)
        for b, s in zip(paths, together):
            alone, = strategy_from_paths(b[None], frame, eta=eta, h=8, f=4)
            assert alone.rebalance_indices == s.rebalance_indices
            assert np.array_equal(alone.weights, s.weights)

    def test_constant_paths_fall_back_to_min_variance(self):
        frame = sinusoid_frame(2, days=24, seed=6)
        paths = np.full((2, 2, 24), 7.0)
        schedules = strategy_from_paths(paths, frame, eta=4, h=8, f=4)
        for s in schedules:
            assert np.allclose(s.weights, 0.5, atol=1e-9)  # uniform by tie-break

    def test_misaligned_paths(self):
        frame = sinusoid_frame(2, days=24, seed=7)
        with pytest.raises(ValidationError, match="misaligned"):
            strategy_from_paths(np.ones((2, 2, 23)), frame, eta=4, h=8, f=4)


class TestMarkowitzSchedule:
    def test_no_forward_bias_perturbation(self):
        frame = sinusoid_frame(3, days=40, seed=8)
        s1 = markowitz_schedule(frame, eta=6, h=10)
        for t_index, t in enumerate(s1.rebalance_indices):
            perturbed = frame.prices.copy()
            perturbed[:, t - 1:] *= 1.7  # from the rebalance date onward
            s2 = markowitz_schedule(make_frame(perturbed), eta=6, h=10)
            assert np.array_equal(s1.weights[t_index], s2.weights[t_index]), t

    def test_dominant_asset_concentration(self):
        days = 41
        up = 100.0 * 1.03 ** np.arange(days)
        flat1 = np.full(days, 50.0) + 0.01 * np.sin(np.arange(days))
        flat2 = np.full(days, 80.0) + 0.01 * np.cos(np.arange(days))
        frame = make_frame(np.stack([up, flat1, flat2]))
        s = markowitz_schedule(frame, eta=10, h=10)
        values, _ = portfolio_value_series(s, frame)
        assert s.weights[:, 0].min() > 0.99
        expected = up[-1] / up[10]  # first rebalance at day 11
        assert values[-1] == pytest.approx(expected, rel=1e-6)


@pytest.fixture(scope="module")
def trained():
    frame = sinusoid_frame(2, days=26, seed=9)
    bundle = train(frame, TrainConfig(model_kind="cgan", epochs=2, seed=2, **TINY))
    test_frame = make_frame(sinusoid_frame(2, days=24, seed=10).prices)
    return bundle, test_frame


class TestRunExperiment:
    def test_markowitz_mode(self, trained):
        _, test_frame = trained
        result = run_experiment("markowitz", test_frame, eta=4, h=8)
        assert result.draw_scatter is None
        assert result.value_series[0] == 1.0
        assert len(result.value_series) == test_frame.day_count - 8

    def test_gan_mode_scatter_and_mean(self, trained):
        bundle, test_frame = trained
        result = run_experiment(bundle, test_frame, eta=4, n_draws=5, seed=1)
        assert result.draw_scatter.shape == (5, 2)
        assert np.isfinite(result.draw_scatter).all()
        assert np.abs(result.schedule.weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_single_draw_mean_equals_draw(self, trained):
        bundle, test_frame = trained
        result = run_experiment(bundle, test_frame, eta=4, n_draws=1, seed=1)
        from ganfolio.gan import simulate_paths

        paths = simulate_paths(bundle, test_frame, 1, seed=1)
        schedules = strategy_from_paths(paths, test_frame, eta=4, h=8, f=4)
        assert np.array_equal(result.schedule.weights, schedules[0].weights)

    def test_scatter_and_strategy_scored_as_each_alone(self, trained):
        bundle, test_frame = trained
        result = run_experiment(bundle, test_frame, eta=4, n_draws=6, seed=2, r_f=0.01)
        paths = simulate_paths(bundle, test_frame, 6, seed=2)
        draws = strategy_from_paths(paths, test_frame, eta=4, r_f=0.01, h=8, f=4)
        for point, draw in zip(result.draw_scatter, draws):
            alone = annualized_metrics(per_day_value_series(draw, test_frame), r_f=0.01)
            assert point.tolist() == [alone.annual_return, alone.annual_sharpe]
        assert np.array_equal(result.value_series,
                              per_day_value_series(result.schedule, test_frame))
        alone = annualized_metrics(result.value_series, r_f=0.01)
        assert (result.annual_return, result.annual_sharpe, result.sharpe_degenerate) == (
            alone.annual_return, alone.annual_sharpe, alone.degenerate)

    def test_one_value_series_walk_whatever_the_draw_count(self, trained, monkeypatch):
        bundle, test_frame = trained
        walked = []

        def counting(schedule, frame):
            walked.append(schedule.weights.shape[0])  # members of the stack
            return portfolio_value_series(schedule, frame)

        monkeypatch.setattr(backtest, "portfolio_value_series", counting)
        for n_draws in (1, 7, 50):
            walked.clear()
            run_experiment(bundle, test_frame, eta=4, n_draws=n_draws, seed=1)
            assert walked == [n_draws + 1]  # every draw and the mean strategy
        walked.clear()
        run_experiment("markowitz", test_frame, eta=4, h=8)
        assert walked == [1]

    def test_deterministic_per_seed(self, trained):
        bundle, test_frame = trained
        a = run_experiment(bundle, test_frame, eta=4, n_draws=3, seed=5)
        b = run_experiment(bundle, test_frame, eta=4, n_draws=3, seed=5)
        assert np.array_equal(a.value_series, b.value_series)
        assert np.array_equal(a.draw_scatter, b.draw_scatter)

    def test_gan_schedule_no_forward_bias(self, trained):
        bundle, test_frame = trained
        paths = __import__("ganfolio.gan", fromlist=["simulate_paths"]).simulate_paths(
            bundle, test_frame, 1, seed=3)
        s1 = strategy_from_paths(paths, test_frame, eta=4, h=8, f=4)[0]
        # perturb the test data after the second rebalance date (day 13)
        perturbed_prices = test_frame.prices.copy()
        perturbed_prices[:, 12:] *= 1.4
        perturbed = make_frame(perturbed_prices)
        paths2 = __import__("ganfolio.gan", fromlist=["simulate_paths"]).simulate_paths(
            bundle, perturbed, 1, seed=3)
        s2 = strategy_from_paths(paths2, perturbed, eta=4, h=8, f=4)[0]
        assert np.array_equal(s1.weights[0], s2.weights[0])

    def test_unknown_string_model(self, trained):
        _, test_frame = trained
        with pytest.raises(ValidationError, match="unknown model"):
            run_experiment("buyandhold", test_frame, eta=4, h=8)


@pytest.mark.parametrize("strategy", ["markowitz", "cgan", "acgan", "hybrid_cgan", "hybrid_acgan"])
def test_paper_comparison_strategies_run_clean(strategy):
    frame = sinusoid_frame(2, days=26, seed=9)
    test_frame = make_frame(sinusoid_frame(2, days=24, seed=10).prices)
    if strategy == "markowitz":
        result = run_experiment("markowitz", test_frame, eta=4, h=8)
    else:
        # at the protocol lr a 1-epoch hybrid still emits prices below zero, which
        # the backtest rejects; a few epochs at a higher lr give usable paths
        bundle = train(frame, TrainConfig(model_kind=strategy, epochs=3, lr=1e-3, seed=2,
                                          **TINY))
        result = run_experiment(bundle, test_frame, eta=4, n_draws=4, seed=1)
        assert result.draw_scatter.shape == (4, 2)
        assert np.isfinite(result.draw_scatter).all()
    weights = result.schedule.weights
    assert (weights >= 0).all() and np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
    assert np.isfinite(result.value_series).all() and (result.value_series > 0).all()


@pytest.mark.parametrize("kind", ["hybrid_cgan", "hybrid_acgan"])
def test_non_positive_generated_price_names_draw_asset_and_day(kind):
    # a 1-epoch hybrid at the protocol lr emits prices below zero; the backtest
    # must blame the generated path, not the input data
    frame = sinusoid_frame(2, days=26, seed=9)
    test_frame = make_frame(sinusoid_frame(2, days=24, seed=10).prices)
    bundle = train(frame, TrainConfig(model_kind=kind, epochs=1, lr=2e-5, seed=2, **TINY))
    with pytest.raises(ValidationError) as caught:
        run_experiment(bundle, test_frame, eta=4, n_draws=3, seed=1)
    message = str(caught.value)
    assert "generated path of draw " in message and "not the input CSV" in message
    paths = simulate_paths(bundle, test_frame, 3, seed=1)
    bad = ~(paths > 0)
    draw = int(np.flatnonzero(bad.any(axis=(1, 2)))[0])
    day = int(np.flatnonzero(bad[draw].any(axis=0))[0])
    asset = int(np.flatnonzero(bad[draw, :, day])[0])
    assert (f"draw {draw + 1} " in message and f" for {test_frame.tickers[asset]} on "
            f"{test_frame.dates[day]} (test day {day + 1})" in message)
