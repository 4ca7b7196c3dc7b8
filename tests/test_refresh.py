import numpy as np
import pytest
from reference_oracles import brute_force_refresh

from irvol.core import TickSeries
from irvol.refresh import aggregate_one_second, refresh_sample, refresh_times


class TestRefreshTimes:
    def test_hand_derived_example(self):
        # tau1 = max(1, 2) = 2; next ticks after 2 are 3, 3 -> tau2 = 3;
        # next after 3 are 5, 6 -> tau3 = 6; asset A then runs out.
        np.testing.assert_allclose(refresh_times([[1, 3, 5], [2, 3, 6]]), [2, 3, 6])

    def test_identical_grids(self):
        grid = [1.0, 2.5, 4.0, 7.25]
        np.testing.assert_allclose(refresh_times([grid, grid, grid]), grid)

    def test_needs_two_assets(self):
        with pytest.raises(ValueError):
            refresh_times([])
        with pytest.raises(ValueError):
            refresh_times([[1.0, 2.0]])

    def test_empty_asset_rejected(self):
        with pytest.raises(ValueError):
            refresh_times([[1.0, 2.0], []])

    def test_strictly_increasing_and_member_of_ticks(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.integers(2, 5)
            times = [np.unique(rng.uniform(0, 30, size=rng.integers(1, 20)))
                     for _ in range(p)]
            tau = refresh_times(times)
            assert np.all(np.diff(tau) > 0)
            pool = np.concatenate(times)
            for t in tau:
                assert np.any(pool == t)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = int(rng.integers(2, 5))
            times = []
            for _ in range(p):
                n = int(rng.integers(1, 21))
                # integer-ish grids force plenty of exact ties across assets
                ticks = np.unique(rng.integers(0, 40, size=n).astype(float))
                times.append(ticks)
            expected = brute_force_refresh([t.tolist() for t in times])
            np.testing.assert_array_equal(refresh_times(times), expected)
            # refresh_sample's grid is the same, and each price is its asset's
            # last tick at or before the refresh time
            series = [TickSeries(f"a{i}", t, 100.0 * (i + 1) + np.arange(t.size))
                      for i, t in enumerate(times)]
            out = refresh_sample(series)
            np.testing.assert_array_equal(out.refresh_times, expected)
            assert np.all(np.diff(out.refresh_times) > 0)
            assert out.prices.shape == (p, len(expected))
            for i, s in enumerate(series):
                last = [[price for t, price in zip(s.timestamps.tolist(), s.prices.tolist())
                         if t <= tau][-1] for tau in expected]
                np.testing.assert_array_equal(out.prices[i], last)

    def test_permutation_leaves_tau_unchanged(self):
        times = [[1, 3, 5], [2, 3, 6], [0.5, 2.5, 7.0]]
        tau = refresh_times(times)
        np.testing.assert_array_equal(refresh_times(times[::-1]), tau)


class TestAggregateOneSecond:
    def test_last_in_second_wins(self):
        ticks = TickSeries("a", [0.2, 0.9], [10.0, 11.0])
        out = aggregate_one_second(ticks)
        np.testing.assert_allclose(out.timestamps, [1.0])
        np.testing.assert_allclose(out.prices, [11.0])

    def test_one_tick_per_second_snaps_to_boundaries(self):
        ticks = TickSeries("a", [0.4, 1.7, 2.2], [1.0, 2.0, 3.0])
        out = aggregate_one_second(ticks)
        np.testing.assert_allclose(out.timestamps, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.prices, [1.0, 2.0, 3.0])

    def test_exact_boundary_belongs_to_ending_interval(self):
        ticks = TickSeries("a", [0.5, 1.0, 1.5], [1.0, 2.0, 3.0])
        out = aggregate_one_second(ticks)
        np.testing.assert_allclose(out.timestamps, [1.0, 2.0])
        np.testing.assert_allclose(out.prices, [2.0, 3.0])

    def test_empty_seconds_produce_no_rows(self):
        ticks = TickSeries("a", [0.1, 0.2, 5.9, 9.5], [1.0, 2.0, 3.0, 4.0])
        out = aggregate_one_second(ticks)
        assert len(out) == 3
        np.testing.assert_allclose(out.timestamps, [1.0, 6.0, 10.0])


class TestRefreshSample:
    def test_hand_derived_prices(self):
        a = TickSeries("A", [1, 3, 5], [10.0, 11.0, 12.0])
        b = TickSeries("B", [2, 3, 6], [20.0, 21.0, 22.0])
        out = refresh_sample([a, b])
        np.testing.assert_allclose(out.refresh_times, [2, 3, 6])
        np.testing.assert_allclose(out.prices[0], [10.0, 11.0, 12.0])
        np.testing.assert_allclose(out.prices[1], [20.0, 21.0, 22.0])

    def test_identical_series(self):
        a = TickSeries("A", [1, 2, 3], [5.0, 6.0, 7.0])
        b = TickSeries("B", [1, 2, 3], [8.0, 9.0, 10.0])
        out = refresh_sample([a, b])
        np.testing.assert_allclose(out.prices[0], a.prices)
        np.testing.assert_allclose(out.prices[1], b.prices)

    def test_single_tick_asset_gives_one_refresh_time(self):
        a = TickSeries("A", [1, 2, 3], [5.0, 6.0, 7.0])
        b = TickSeries("B", [2.5], [8.0])
        out = refresh_sample([a, b])
        assert len(out) == 1
        np.testing.assert_allclose(out.refresh_times, [2.5])
        np.testing.assert_allclose(out.prices[:, 0], [6.0, 8.0])

    def test_output_length_bounded_by_min_ticks(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            series = []
            for i in range(3):
                n = int(rng.integers(1, 15))
                ts = np.unique(rng.uniform(0, 20, size=n))
                series.append(TickSeries(f"a{i}", ts, np.exp(rng.normal(size=ts.size))))
            out = refresh_sample(series)
            assert len(out) <= min(len(s) for s in series)

    def test_refresh_of_synchronized_series_is_identity(self):
        grid = np.array([1.0, 2.0, 4.0, 8.0])
        series = [TickSeries(f"a{i}", grid, np.full(4, float(i + 1)))
                  for i in range(3)]
        out = refresh_sample(series)
        np.testing.assert_array_equal(out.refresh_times, grid)
        for i in range(3):
            np.testing.assert_array_equal(out.prices[i], series[i].prices)
