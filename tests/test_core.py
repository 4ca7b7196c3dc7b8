import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irvol.core import (
    GapSeries,
    ScaledGaps,
    TickSeries,
    draw_positive_poisson,
    generate_gaps,
    log_returns,
    scale_gaps,
)


class TestScaleGaps:
    def test_divide_by_max(self):
        scaled = scale_gaps([1, 2, 4])
        np.testing.assert_allclose(scaled.gaps, [0.25, 0.5, 1.0])
        assert scaled.scale_factor == 4

    def test_constant_gaps(self):
        scaled = scale_gaps([3, 3, 3])
        np.testing.assert_allclose(scaled.gaps, [1, 1, 1])
        assert scaled.scale_factor == 3

    def test_singleton(self):
        scaled = scale_gaps([0.5])
        np.testing.assert_allclose(scaled.gaps, [1.0])
        assert scaled.scale_factor == 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            scale_gaps([])

    def test_nonpositive_errors(self):
        with pytest.raises(ValueError):
            scale_gaps([1.0, 0.0])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, gaps):
        once = scale_gaps(gaps)
        twice = scale_gaps(once.gaps)
        np.testing.assert_array_equal(once.gaps, twice.gaps)
        assert twice.scale_factor == 1.0

    def test_max_is_exactly_one(self):
        scaled = scale_gaps(np.random.default_rng(0).uniform(0.1, 9.0, size=1000))
        assert float(np.max(scaled.gaps)) == 1.0


class TestLogReturns:
    def test_constant_price(self):
        np.testing.assert_allclose(log_returns([100.0, 100.0]), [0.0])

    def test_e_fold(self):
        np.testing.assert_allclose(log_returns([100.0, 100.0 * np.e]), [1.0])

    def test_halving(self):
        # ln(1/2), verified by arbitrary-precision arithmetic
        np.testing.assert_allclose(log_returns([2.0, 1.0]), [-0.6931471805599453],
                                   atol=1e-4)

    def test_nonpositive_price_errors(self):
        with pytest.raises(ValueError):
            log_returns([1.0, -2.0])

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_recovers_increments(self, x):
        prices = np.exp(np.cumsum([0.0] + x))
        np.testing.assert_allclose(log_returns(prices), x, atol=1e-12)


class TestGenerateGaps:
    def test_reproducible_and_in_range(self):
        a = generate_gaps(5, 3.0, seed=123)
        b = generate_gaps(5, 3.0, seed=123)
        np.testing.assert_array_equal(a.gaps, b.gaps)
        assert np.all(a.gaps > 0) and np.all(a.gaps <= 1)

    def test_zero_truncated_mean(self):
        # oracle: brute-force sum of the zero-truncated Poisson pmf
        lam = 3.0
        pmf_mean = sum(
            k * lam**k * np.exp(-lam) / math.factorial(k) for k in range(1, 80)
        ) / (1.0 - np.exp(-lam))
        draws = draw_positive_poisson(200_000, lam, seed=7)
        assert abs(draws.mean() - pmf_mean) / pmf_mean < 0.02
        assert np.all(draws >= 1)

    def test_scaling_contract_large_count(self):
        scaled = generate_gaps(10_000, 3.0, seed=11)
        assert np.all(scaled.gaps > 0) and np.all(scaled.gaps <= 1)
        assert float(np.max(scaled.gaps)) == 1.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_gaps(0, 3.0)
        with pytest.raises(ValueError):
            generate_gaps(5, -1.0)


class TestTypes:
    def test_tick_series_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TickSeries("a", [1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            TickSeries("a", [1.0, 2.0], [2.0, -3.0])
        with pytest.raises(ValueError, match="equal length"):
            TickSeries("a", [1.0, 2.0], [2.0])

    def test_tick_series_immutable(self):
        ts = TickSeries("a", [1.0, 2.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            ts.prices[0] = 5.0

    def test_gap_series_consistency(self):
        ok = GapSeries([0.0, 1.0, 3.0], [0.1, 0.2, 0.3])
        np.testing.assert_allclose(ok.gaps, [1.0, 2.0])
        with pytest.raises(ValueError, match="inconsistent"):
            GapSeries([0.0, 1.0, 3.0], [0.1, 0.2, 0.3], gaps=[1.0, 1.0])

    def test_gap_series_from_gaps(self):
        s = GapSeries.from_gaps([0.1, 0.2, 0.3], [0.5, 0.25])
        np.testing.assert_allclose(s.timestamps, [0.0, 0.5, 0.75])

    def test_scaled_gaps_range(self):
        with pytest.raises(ValueError):
            ScaledGaps(np.array([0.5, 1.5]), 2.0)
        with pytest.raises(ValueError):
            ScaledGaps(np.array([0.5, 1.0]), -1.0)
