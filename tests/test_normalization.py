import numpy as np
import pytest

from ganfolio.errors import ValidationError
from ganfolio.normalization import (NormStats, denormalize, fit_eavesdrop,
                                    fit_standard, make_hybrid_stats, normalize)


class TestFitStandard:
    def test_constant_series_gets_floor(self):
        stats = fit_standard(np.array([10.0, 10.0, 10.0, 10.0]))
        assert stats.center == 10.0
        assert stats.scale == pytest.approx(1e-8 * 10.0)

    def test_two_point_series(self):
        # mean 2, population sigma 1 -> scale 3
        stats = fit_standard(np.array([1.0, 3.0]))
        assert stats.center == 2.0 and stats.scale == 3.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        x = 50.0 + rng.random(17) * 10.0
        stats = fit_standard(x)
        mean = sum(x) / len(x)
        sigma = (sum((v - mean) ** 2 for v in x) / len(x)) ** 0.5
        assert stats.center == pytest.approx(mean, rel=1e-12)
        assert stats.scale == pytest.approx(3 * sigma, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            fit_standard(np.array([1.0]))

    def test_per_asset_rows(self):
        x = np.array([[1.0, 3.0], [10.0, 10.0]])
        stats = fit_standard(x)
        assert stats.center.shape == (2,)
        assert stats.center[0] == 2.0 and stats.scale[0] == 3.0


class TestFitEavesdrop:
    def test_center_is_whole_window_mean(self):
        # historical mean 10, whole-window mean 12
        series = np.array([8.0, 12.0, 14.0, 14.0])
        stats = fit_eavesdrop(series, h=2)
        assert stats.center == 12.0
        assert stats.scale == fit_standard(series[:2]).scale

    def test_constant_series(self):
        stats = fit_eavesdrop(np.full(6, 7.0), h=3)
        assert stats.center == 7.0
        assert stats.scale == pytest.approx(1e-8 * 7.0)


class TestNormalizeDenormalize:
    def test_center_maps_to_zero(self):
        stats = NormStats(np.array(10.0), np.array(6.0))
        assert normalize(np.array([10.0]), stats)[0] == 0.0

    def test_unit_points(self):
        stats = NormStats(np.array(10.0), np.array(6.0))
        assert normalize(np.array([16.0]), stats)[0] == 1.0
        assert normalize(np.array([4.0]), stats)[0] == -1.0

    def test_denormalize_values(self):
        stats = NormStats(np.array(10.0), np.array(6.0))
        assert denormalize(np.array([0.0]), stats)[0] == 10.0
        assert denormalize(np.array([1.0]), stats)[0] == 16.0

    @pytest.mark.parametrize("regime", ["standard", "eavesdrop", "hybrid"])
    def test_round_trip_all_regimes(self, regime):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = 1.0 + rng.random((3, 12)) * 100.0
            if regime == "standard":
                stats = fit_standard(x[:, :8])
            elif regime == "eavesdrop":
                stats = fit_eavesdrop(x, h=8)
            else:
                base = fit_standard(x[:, :8])
                stats = make_hybrid_stats(base.scale, base.center + rng.standard_normal(3))
            back = denormalize(normalize(x, stats), stats)
            assert np.max(np.abs(back - x) / np.abs(x)) < 1e-10

    def test_normalized_historical_mean_zero(self):
        rng = np.random.default_rng(7)
        x = 5.0 + rng.random((4, 40)) * 20.0
        stats = fit_standard(x)
        normalized = normalize(x, stats)
        assert np.abs(normalized.mean(axis=-1)).max() < 1e-12
        # 3-sigma scaling keeps values within a few units; no hard clamp
        assert np.abs(normalized).max() < 5.0

    def test_per_asset_independence(self):
        rng = np.random.default_rng(9)
        x = 1.0 + rng.random((3, 10))
        stats_all = fit_standard(x)
        for i in range(3):
            solo = fit_standard(x[i])
            assert stats_all.center[i] == solo.center
            assert stats_all.scale[i] == solo.scale


class TestHybridStats:
    def test_reduces_to_standard(self):
        rng = np.random.default_rng(5)
        x = 10.0 + rng.random((2, 9))
        base = fit_standard(x)
        hybrid = make_hybrid_stats(base.scale, base.center)
        assert np.array_equal(normalize(x, hybrid), normalize(x, base))
        assert np.array_equal(denormalize(normalize(x, hybrid), hybrid),
                              denormalize(normalize(x, base), base))

    def test_reduces_to_eavesdrop(self):
        rng = np.random.default_rng(6)
        x = 10.0 + rng.random((2, 12))
        eav = fit_eavesdrop(x, h=8)
        hybrid = make_hybrid_stats(fit_standard(x[:, :8]).scale, x.mean(axis=-1))
        assert np.array_equal(normalize(x, hybrid), normalize(x, eav))

    def test_nan_center_names_asset(self):
        with pytest.raises(ValidationError, match=r"asset index\(es\) \[1\]"):
            make_hybrid_stats(np.array([1.0, 1.0]), np.array([1.0, np.nan]))
        with pytest.raises(ValidationError, match=r"asset index\(es\) \[0, 2\]"):
            NormStats(np.array([np.nan, 1.0, np.inf]), np.ones(3))
