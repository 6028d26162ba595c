import numpy as np
import pytest

from ganfolio.backtest import markowitz_schedule
from ganfolio.errors import ValidationError
from ganfolio.portfolio import (MomentEstimate, estimate_moments, max_sharpe_weights,
                                min_variance_weights, project_to_simplex)

from conftest import make_frame
from oracles import exact_long_only, grid_max_sharpe, oracle_sharpe, random_psd_instance


def moments(mu, cov):
    return MomentEstimate(np.asarray(mu, float), np.asarray(cov, float))


def sharpe(v, m):
    return oracle_sharpe(v, m.mean_returns, m.covariance)


class TestSharpeRatio:
    def test_hand_value_cross_checked(self):
        m = moments([0.1, 0.2], np.diag([0.04, 0.04]))
        v = np.array([1 / 3, 2 / 3])
        expected = 0.5 / (0.2 * np.sqrt(5))
        assert sharpe(v, m) == pytest.approx(expected, rel=1e-12)
        # the tangency Sharpe is sqrt(mu' inv(S) mu) when it is long-only
        closed_form = np.sqrt(m.mean_returns @ np.linalg.solve(m.covariance, m.mean_returns))
        assert sharpe(v, m) == pytest.approx(closed_form, rel=1e-12)
        assert expected == pytest.approx(1.1180, abs=5e-5)


class TestEstimateMoments:
    def test_perfectly_correlated_rows(self):
        base = np.array([0.01, -0.02, 0.03, 0.01, -0.01])
        returns = np.stack([base, 2.0 * base])
        est = estimate_moments(returns, ridge=0.0)
        v0, v1 = est.covariance[0, 0], est.covariance[1, 1]
        assert est.covariance[0, 1] == pytest.approx(np.sqrt(v0 * v1), rel=1e-12)

    def test_constant_returns_loading_only(self):
        est = estimate_moments(np.full((2, 6), 0.01))
        assert np.allclose(est.covariance, 0.0)

    def test_near_rank_deficient_stays_psd(self):
        rng = np.random.default_rng(0)
        returns = rng.standard_normal((10, 20)) * 0.01
        est = estimate_moments(returns)
        eigenvalues = np.linalg.eigvalsh(est.covariance)
        assert eigenvalues.min() >= -1e-12
        assert np.array_equal(est.covariance, est.covariance.T)

    def test_too_few_observations(self):
        with pytest.raises(ValidationError):
            estimate_moments(np.ones((2, 1)))


class TestProjectToSimplex:
    def test_idempotent_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(v), v)

    def test_random_projection_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.standard_normal(5) * 3
            p = project_to_simplex(v)
            assert p.min() >= 0 and p.sum() == pytest.approx(1.0, abs=1e-12)
            # projection is the closest simplex point: compare against random candidates
            for _ in range(10):
                q = rng.dirichlet(np.ones(5))
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12


class TestMaxSharpe:
    def test_two_asset_tangency(self):
        m = moments([0.1, 0.2], np.diag([0.04, 0.04]))
        v = max_sharpe_weights(m)
        assert np.abs(v - [1 / 3, 2 / 3]).max() < 1e-4

    def test_identical_assets_tie_break_uniform(self):
        m = moments([0.1, 0.1, 0.1], np.full((3, 3), 0.04))
        assert np.allclose(max_sharpe_weights(m), 1 / 3, atol=1e-9)

    def test_dominant_asset(self):
        m = moments([0.2, -0.01], np.diag([0.01, 0.09]))
        v = max_sharpe_weights(m)
        grid_sr, _ = grid_max_sharpe(m.mean_returns, m.covariance, step=0.001)
        assert sharpe(v, m) >= grid_sr - 1e-3
        assert v[0]        > 0.999

    def test_simplex_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            mu, cov = random_psd_instance(rng, 4)
            v = max_sharpe_weights(moments(mu, cov))
            assert v.sum() == pytest.approx(1.0, abs=1e-10)
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_matches_grid_oracle_small_n(self):
        rng = np.random.default_rng(3)
        for n, cases in ((2, 12), (3, 8)):
            for _ in range(cases):
                mu, cov = random_psd_instance(rng, n)
                m = moments(mu, cov)
                v = max_sharpe_weights(m)
                grid_sr, _ = grid_max_sharpe(mu, cov, step=0.001)
                assert sharpe(v, m) >= grid_sr - 1e-3

    def test_argmax_invariant_to_covariance_scaling(self):
        rng = np.random.default_rng(4)
        mu, cov = random_psd_instance(rng, 3)
        v1 = max_sharpe_weights(moments(mu, cov))
        v2 = max_sharpe_weights(moments(mu, 37.0 * cov))
        assert np.abs(v1 - v2).max() < 1e-6
        sr1 = sharpe(v1, moments(mu, cov))
        sr2 = sharpe(v2, moments(mu, 37.0 * cov))
        assert sr2 == pytest.approx(sr1 / np.sqrt(37.0), rel=1e-6)

    def test_all_below_risk_free_falls_back_to_min_variance(self):
        m = moments([-0.1, -0.2], np.diag([0.04, 0.01]))
        v = max_sharpe_weights(m, r_f=0.0)
        assert np.allclose(v, min_variance_weights(m), atol=1e-9)
        # analytic min variance of diag(a, b) is (b, a)/(a+b)
        assert np.abs(v - [0.2, 0.8]).max() < 1e-6

    def test_non_finite_moments_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            moments([np.inf, 0.0], np.diag([0.04, 0.04]))
        with pytest.raises(ValidationError, match="non-finite"):
            moments([0.1, 0.2], [[0.04, np.nan], [np.nan, 0.04]])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        mu, cov = random_psd_instance(rng, 4)
        a = max_sharpe_weights(moments(mu, cov))
        b = max_sharpe_weights(moments(mu, cov))
        assert np.array_equal(a, b)


class TestExactOptimum:
    def test_matches_support_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for case in range(350):
            n, t = int(rng.integers(2, 9)), int(rng.integers(3, 41))
            market = rng.standard_normal(t) * 0.01
            returns = (rng.standard_normal((n, t)) * 0.01 + rng.random((n, 1)) * market
                       + rng.standard_normal((n, 1)) * 0.003)
            m = estimate_moments(returns)
            for got, want in ((max_sharpe_weights(m), exact_long_only(m.mean_returns, m.covariance)),
                              (min_variance_weights(m), exact_long_only(np.zeros(n), m.covariance))):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (case, got, want)

    def test_zero_covariance_uniform_over_top_assets(self):
        m = moments([0.1, 0.2, -0.1, 0.2], np.zeros((4, 4)))
        assert np.array_equal(max_sharpe_weights(m), [0.0, 0.5, 0.0, 0.5])

    def test_zero_covariance_no_positive_excess_uniform(self):
        m = moments([-0.1, -0.2, -0.3], np.zeros((3, 3)))
        assert np.array_equal(max_sharpe_weights(m), np.full(3, 1 / 3))
        assert np.array_equal(min_variance_weights(m), np.full(3, 1 / 3))

    def test_singular_covariance_minimum_norm_tie(self):
        # assets 0 and 1 are the same asset; the optimum splits their weight evenly
        m = moments([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(max_sharpe_weights(m), [0.25, 0.25, 0.5], rtol=0, atol=1e-15)

    def test_unbounded_singular_covariance_rejected(self):
        with pytest.raises(ValidationError):
            max_sharpe_weights(moments([0.1, 0.1], np.diag([0.0, 0.04])))


class TestCovarianceChecks:
    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            moments([0.1, 0.1], np.diag([-0.04, 0.04]))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            moments([0.1, 0.1], [[0.04, 0.01], [0.0, 0.04]])

    def test_estimate_moments_output_accepted(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, t = int(rng.integers(1, 9)), int(rng.integers(2, 41))
            returns = rng.standard_normal((n, t)) * 0.01 + rng.standard_normal(t) * 0.01
            for ridge in (0.0, 1e-4):
                m = estimate_moments(returns, ridge=ridge)
                MomentEstimate(m.mean_returns, m.covariance)
        estimate_moments(np.full((3, 6), 0.01))
        estimate_moments(np.tile(rng.standard_normal(8), (4, 1)), ridge=0.0)


def special_members(n):
    """Hand-built members that take the solver's separate branches, for n >= 3 assets."""
    eye = np.eye(n)
    twins = 0.04 * eye
    twins[:2, :2] = 0.04  # assets 0 and 1 are the same asset
    return [
        (-0.01 * np.arange(1.0, n + 1), 0.04 * eye + 0.01),  # min-variance fallback
        (np.linspace(-0.1, 0.2, n), np.zeros((n, n))),  # all-zero covariance
        (-np.ones(n), np.zeros((n, n))),  # all-zero covariance, fallback
        (np.full(n, 0.1), np.full((n, n), 0.04)),  # identical assets: the tie rule
        (np.r_[0.1, 0.1, np.full(n - 2, 0.05)], twins),  # singular: the minimum-norm tie
    ]


class TestStackedSolve:
    """A stack is solved in lockstep; each member must come out as if solved alone."""

    def stack(self, rng, n, count):
        members = special_members(n)
        for _ in range(count):
            t = int(rng.integers(3, 30))
            market = rng.standard_normal(t) * 0.01
            returns = (rng.standard_normal((n, t)) * 0.01 + rng.random((n, 1)) * market
                       + rng.standard_normal((n, 1)) * 0.003)
            m = estimate_moments(returns)
            members.append((m.mean_returns, m.covariance))
        order = rng.permutation(len(members))
        return (np.stack([members[i][0] for i in order]),
                np.stack([members[i][1] for i in order]))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_stack_equals_each_member_alone(self, n):
        rng = np.random.default_rng(40 + n)
        mu, cov = self.stack(rng, n, 60)
        for r_f in (0.0, 0.002):
            got = max_sharpe_weights(moments(mu, cov), r_f)
            for i in range(len(mu)):
                assert np.array_equal(got[i], max_sharpe_weights(moments(mu[i], cov[i]), r_f)), i
            # the members end on several different supports, so their free sets differ
            assert len({tuple(w > 0) for w in got}) >= 4
        got = min_variance_weights(moments(mu, cov))
        for i in range(len(mu)):
            assert np.array_equal(got[i], min_variance_weights(moments(mu[i], cov[i]))), i

    def test_leading_axes_keep_their_shape(self):
        mu, cov = self.stack(np.random.default_rng(7), 4, 7)  # 12 members
        flat = max_sharpe_weights(moments(mu, cov))
        shaped = max_sharpe_weights(moments(mu.reshape(3, 4, 4), cov.reshape(3, 4, 4, 4)))
        assert shaped.shape == (3, 4, 4)
        assert np.array_equal(shaped.reshape(12, 4), flat)

    def test_estimate_moments_stacks_along_leading_axes(self):
        returns = np.random.default_rng(8).standard_normal((2, 3, 4, 25)) * 0.01
        stacked = estimate_moments(returns)
        for index in np.ndindex(2, 3):
            alone = estimate_moments(returns[index])
            assert np.array_equal(stacked.mean_returns[index], alone.mean_returns)
            assert np.array_equal(stacked.covariance[index], alone.covariance)

    def test_indefinite_member_is_named(self):
        mu, cov = self.stack(np.random.default_rng(9), 3, 3)  # 8 members
        cov[4] = np.diag([-0.04, 0.04, 0.04])
        with pytest.raises(ValidationError, match=r"^member 4: covariance is not positive "
                                                  r"semidefinite \(smallest eigenvalue -0.04\)"):
            moments(mu, cov)
        with pytest.raises(ValidationError, match=r"^member \(1, 0\): covariance is not positive"):
            moments(mu.reshape(2, 4, 3), cov.reshape(2, 4, 3, 3))

    def test_non_finite_and_asymmetric_members_are_named(self):
        mu, cov = self.stack(np.random.default_rng(10), 3, 6)
        bad_mu = mu.copy()
        bad_mu[2, 1] = np.nan
        with pytest.raises(ValidationError, match="^member 2: moment estimate contains non-finite"):
            moments(bad_mu, cov)
        cov[6, 0, 1] += 0.01
        with pytest.raises(ValidationError, match="^member 6: covariance is not symmetric"):
            moments(mu, cov)

    def test_singular_member_rejected(self):
        mu, cov = self.stack(np.random.default_rng(11), 3, 6)
        mu[5], cov[5] = [0.1, 0.1, 0.1], np.diag([0.0, 0.04, 0.04])
        with pytest.raises(ValidationError, match="^singular covariance: the allocation is unbounded$"):
            max_sharpe_weights(moments(mu, cov))


def markowitz_first_weights(prices):
    """First Markowitz rebalance of a frame whose first trailing window is ``prices``."""
    h = prices.shape[1]
    frame = make_frame(np.concatenate([prices, np.repeat(prices[:, -1:], 2, axis=1)], axis=1))
    return markowitz_schedule(frame, eta=1, h=h).weights[0]


class TestMarkowitz:
    def test_trending_asset_takes_full_weight(self):
        days = 30
        trend = 100.0 * (1.02 ** np.arange(days))
        flat = np.full(days, 50.0)
        v = markowitz_first_weights(np.stack([trend, flat, flat * 2.0]))
        grid_sr, _ = grid_max_sharpe(*_moments_of(np.stack([trend, flat, flat * 2.0])), step=0.001)
        assert v[0] > 0.999
        m = estimate_moments(__import__("ganfolio.marketdata", fromlist=["simple_returns"])
                             .simple_returns(np.stack([trend, flat, flat * 2.0])))
        assert sharpe(v, m) >= grid_sr - 1e-3

    def test_identical_assets_uniform(self):
        prices = np.tile(100.0 + np.cumsum(np.ones(20)), (3, 1))
        assert np.allclose(markowitz_first_weights(prices), 1 / 3, atol=1e-9)

    def test_too_short_history(self):
        with pytest.raises(ValidationError, match="at least 3 trailing prices"):
            markowitz_first_weights(np.ones((2, 2)))


def _moments_of(prices):
    from ganfolio.marketdata import simple_returns

    est = estimate_moments(simple_returns(prices))
    return est.mean_returns, est.covariance
