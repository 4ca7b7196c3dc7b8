import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irvol.core import (
    TickSeries,
    draw_positive_poisson,
    gap_values,
    generate_gaps,
    scale_gaps,
)


class TestScaleGaps:
    def test_divide_by_max(self):
        gaps, factor = scale_gaps([1, 2, 4])
        np.testing.assert_allclose(gaps, [0.25, 0.5, 1.0])
        assert factor == 4

    def test_constant_gaps(self):
        gaps, factor = scale_gaps([3, 3, 3])
        np.testing.assert_allclose(gaps, [1, 1, 1])
        assert factor == 3

    def test_singleton(self):
        gaps, factor = scale_gaps([0.5])
        np.testing.assert_allclose(gaps, [1.0])
        assert factor == 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            scale_gaps([])

    def test_nonpositive_errors(self):
        with pytest.raises(ValueError):
            scale_gaps([1.0, 0.0])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, gaps):
        once, _ = scale_gaps(gaps)
        twice, factor = scale_gaps(once)
        np.testing.assert_array_equal(once, twice)
        assert factor == 1.0

    def test_max_is_exactly_one(self):
        scaled, _ = scale_gaps(np.random.default_rng(0).uniform(0.1, 9.0, size=1000))
        assert float(np.max(scaled)) == 1.0


class TestGapValues:
    def test_returns_a_read_only_float_array(self):
        g = gap_values([1, 2, 3])
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        assert g.dtype == float and not g.flags.writeable

    @pytest.mark.parametrize("gaps", [[0.5, 0.0], [0.5, -1.0]])
    def test_nonpositive_rejected(self, gaps):
        with pytest.raises(ValueError, match="positive"):
            gap_values(gaps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            gap_values([0.5, bad])

    def test_above_one_rejected_under_max_one(self):
        np.testing.assert_array_equal(gap_values([0.5, 2.0]), [0.5, 2.0])
        with pytest.raises(ValueError, match="scaled into"):
            gap_values([0.5, 2.0], max_one=True)

    def test_count_takes_a_prefix_and_rejects_too_few(self):
        np.testing.assert_array_equal(gap_values([0.1, 0.2, 0.3], count=2), [0.1, 0.2])
        with pytest.raises(ValueError, match="need 4 gap values but only 3"):
            gap_values([0.1, 0.2, 0.3], count=4)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            gap_values([[0.5, 0.5]])


class TestGenerateGaps:
    def test_reproducible_and_in_range(self):
        a = generate_gaps(5, 3.0, seed=123)
        b = generate_gaps(5, 3.0, seed=123)
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 0) and np.all(a <= 1)

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
        assert np.all(scaled > 0) and np.all(scaled <= 1)
        assert float(np.max(scaled)) == 1.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_gaps(0, 3.0)
        for mean in (-1.0, 0.05, 1e20, math.nan):
            with pytest.raises(ValueError, match=r"mean must lie in \[0.1, 1e\+15\]"):
                generate_gaps(5, mean)

    def test_draws_at_mean_3_are_pinned(self):
        # the simulate outputs of every earlier release rest on these draws
        assert draw_positive_poisson(8, 3.0, seed=123).tolist() == [1, 1, 3, 5, 5, 1, 3, 6]


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
