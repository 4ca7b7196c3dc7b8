from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irvol.dataio import (
    read_chain,
    read_forecasts,
    read_returns,
    read_ticks,
    write_chain,
    write_forecasts,
    write_returns,
    write_summary,
)
from irvol.mcmc.chain import McmcChain, McmcConfig, summarize


def _write(path, text):
    path.write_text(text)
    return path


class TestReadTicks:
    def test_grouping_and_sorting(self, tmp_path):
        path = _write(tmp_path / "ticks.csv", (
            "asset,timestamp,price\n"
            "b,2.0,20.0\n"
            "a,3.0,4.0\n"
            "a,1.0,3.0\n"
            "b,1.0,19.0\n"
        ))
        series = read_ticks(path)
        assert [s.asset_id for s in series] == ["b", "a"]  # first-appearance order
        np.testing.assert_allclose(series[1].timestamps, [1.0, 3.0])
        np.testing.assert_allclose(series[1].prices, [3.0, 4.0])

    def test_duplicate_timestamp_keeps_last(self, tmp_path):
        path = _write(tmp_path / "ticks.csv", (
            "asset,timestamp,price\n"
            "a,1.0,3.0\n"
            "a,1.0,5.0\n"
            "a,2.0,4.0\n"
        ))
        series = read_ticks(path)
        np.testing.assert_allclose(series[0].prices, [5.0, 4.0])

    def test_nonpositive_price_reports_line(self, tmp_path):
        path = _write(tmp_path / "ticks.csv",
                      "asset,timestamp,price\na,1.0,3.0\na,2.0,-1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_ticks(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path / "ticks.csv",
                      "asset,timestamp,price\na,1.0,3.0\na,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_ticks(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "ticks.csv", "")
        with pytest.raises(ValueError, match="empty"):
            read_ticks(path)
        header_only = _write(tmp_path / "ticks2.csv", "asset,timestamp,price\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_ticks(header_only)

    def test_iso_timestamps_are_utc(self, tmp_path):
        path = _write(tmp_path / "ticks.csv", (
            "asset,timestamp,price\n"
            "a,1970-01-01T00:00:01.5,3.0\n"
            "a,1970-01-01T00:00:02Z,4.0\n"
        ))
        series = read_ticks(path)
        np.testing.assert_allclose(series[0].timestamps, [1.5, 2.0])

    def test_roundtrip(self, tmp_path):
        from irvol.core import TickSeries

        rng = np.random.default_rng(0)
        ts = np.cumsum(rng.uniform(0.1, 3.0, size=20))
        original = [
            TickSeries("x", ts, np.exp(rng.normal(size=20))),
            TickSeries("y", ts + 0.05, np.exp(rng.normal(size=20))),
        ]
        rows = ["asset,timestamp,price"] + [
            f"{one.asset_id},{ts!r},{price!r}"
            for one in original for ts, price in zip(one.timestamps.tolist(), one.prices.tolist())]
        back = read_ticks(_write(tmp_path / "ticks.csv", "\n".join(rows) + "\n"))
        for a, b in zip(original, back):
            assert a.asset_id == b.asset_id
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.prices, b.prices)


class TestReturnsRoundTrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        gaps = rng.uniform(0.2, 2.0, size=9)
        ts = np.concatenate(([0.0], np.cumsum(gaps)))
        r = rng.normal(scale=1e-4, size=(2, 10))
        path = tmp_path / "returns.csv"
        write_returns(path, ts, r, ["aa", "bb"])
        ts2, gaps2, r2, assets = read_returns(path)
        np.testing.assert_array_equal(ts, ts2)
        np.testing.assert_array_equal(np.diff(ts), gaps2)
        np.testing.assert_array_equal(r, r2)
        assert assets == ["aa", "bb"]

    def test_univariate_shape(self, tmp_path):
        path = tmp_path / "returns.csv"
        write_returns(path, [0.0, 1.0, 2.5], [0.1, -0.2, 0.3], ["solo"])
        ts, gaps, r, assets = read_returns(path)
        assert r.shape == (1, 3)

    def test_gap_consistency_enforced(self, tmp_path):
        path = _write(tmp_path / "returns.csv", (
            "timestamp,gap,r_a\n"
            "0.0,,0.1\n"
            "1.0,0.9,0.2\n"
        ))
        with pytest.raises(ValueError, match="disagrees"):
            read_returns(path)

    def test_gaps_agree_with_timestamps(self, tmp_path):
        ok = _write(tmp_path / "ok.csv", (
            "timestamp,gap,r_a\n"
            "0.0,,0.1\n"
            "1.0,1.0,0.2\n"
            "3.0,2.0,0.3\n"
        ))
        ts, gaps, r, assets = read_returns(ok)
        np.testing.assert_allclose(gaps, [1.0, 2.0])
        np.testing.assert_allclose(gaps, np.diff(ts))
        bad = _write(tmp_path / "bad.csv", (
            "timestamp,gap,r_a\n"
            "0.0,,0.1\n"
            "1.0,1.0,0.2\n"
            "3.0,1.0,0.3\n"
        ))
        with pytest.raises(ValueError, match="disagrees"):
            read_returns(bad)

    def test_epoch_second_timestamps_are_read(self, tmp_path):
        # one ulp of 1.7e9 is 2.4e-7 s, so the timestamps' differences are the
        # gaps only to within their own rounding
        path = _write(tmp_path / "epoch.csv", (
            "timestamp,gap,r_a\n"
            "1700000000.0,,0.1\n"
            "1700000000.1,0.1,0.2\n"
            "1700000000.3,0.2,0.3\n"
        ))
        np.testing.assert_array_equal(read_returns(path)[1], [0.1, 0.2])

    @pytest.mark.parametrize("start,off", [(1700000000.0, 1e-6), (0.0, 1e-8)],
                             ids=["epoch-1e-6", "zero-1e-8"])
    def test_disagreement_beyond_rounding_refused(self, tmp_path, start, off):
        path = _write(tmp_path / "returns.csv", (
            "timestamp,gap,r_a\n"
            f"{start!r},,0.1\n"
            f"{start + 0.1!r},{0.1 + off!r},0.2\n"
        ))
        with pytest.raises(ValueError, match="returns.csv: gap column disagrees"):
            read_returns(path)

    @pytest.mark.parametrize("row", ["nan,1.0,0.2", "1.0,nan,0.2", "1.0,1.0,nan", "1.0,1.0,inf"])
    def test_non_finite_number_names_its_line(self, tmp_path, row):
        path = _write(tmp_path / "returns.csv", (
            "timestamp,gap,r_a\n"
            "0.0,,0.1\n"
            "\n"
            f"{row}\n"
            "2.0,1.0,0.3\n"
        ))
        with pytest.raises(ValueError, match="line 4: number is not finite"):
            read_returns(path)

    def test_blank_line_after_header(self, tmp_path):
        path = _write(tmp_path / "returns.csv", (
            "timestamp,gap,r_s1\n"
            "\n"
            "0.0,,0.01\n"
            "1.0,1.0,-0.02\n"
        ))
        ts, gaps, r, assets = read_returns(path)
        np.testing.assert_array_equal(ts, [0.0, 1.0])
        np.testing.assert_array_equal(gaps, [1.0])
        np.testing.assert_array_equal(r, [[0.01, -0.02]])
        assert assets == ["s1"]

    @pytest.mark.parametrize("columns, message", [("r_a,r_a", "duplicate asset id 'a'"),
                                                  ("r_,r_b", "empty asset id ''")])
    def test_duplicate_or_empty_asset_id_names_file_and_id(self, tmp_path, columns, message):
        path = _write(tmp_path / "returns.csv", (
            f"timestamp,gap,{columns}\n"
            "0.0,,0.1,0.2\n"
            "1.0,1.0,0.3,0.4\n"
        ))
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            read_returns(path)

    @pytest.mark.parametrize("assets, message", [(["a", "a"], "duplicate asset id 'a'"),
                                                 (["", "b"], "empty asset id ''")])
    def test_duplicate_or_empty_asset_id_not_written(self, tmp_path, assets, message):
        path = tmp_path / "returns.csv"
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_returns(path, [0.0, 1.0], np.ones((2, 2)), assets)
        assert not path.exists()

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_any_float_payload_roundtrips(self, values):
        import tempfile

        ts = np.arange(float(len(values)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "returns.csv"
            write_returns(path, ts, np.array(values)[np.newaxis, :], ["v"])
            _, _, r2, _ = read_returns(path)
        np.testing.assert_array_equal(np.array(values), r2[0])


# the config of a chain whose run does not matter to the test
CONFIG = McmcConfig(200, 100, 1)
# the fit record write_chain requires, for a one-asset irsv fit of 80 observations
FIT_RECORD = {"model": "irsv", "gap_scale_factor": 7.0, "n_obs_fit": 80, "asset_ids": ["s1"],
              "data_file": "sim/rep000.csv"}


def _small_chain(seed=0, config=CONFIG):
    rng = np.random.default_rng(seed)
    names = ("mu", "phi", "sigma_eta", "h_0", "h_9")
    draws = rng.normal(size=(100, len(names)))
    rates = {"mu": 0.43, "phi": 0.41, "sigma_eta": 0.44, "h": 0.45}
    return McmcChain(names, draws, rates, config)


class TestChainRoundTrip:
    def test_bit_identical(self, tmp_path):
        config = McmcConfig(1100, 100, 10, rng_seed=9)
        chain = _small_chain(seed=2, config=config)
        path = tmp_path / "chain.csv"
        write_chain(chain, path, **FIT_RECORD)
        back, meta = read_chain(path)
        np.testing.assert_array_equal(chain.draws, back.draws)
        assert back.names == chain.names
        assert back.config == config
        assert back.acceptance_rates == chain.acceptance_rates
        assert {key: meta[key] for key in FIT_RECORD} == FIT_RECORD

    def test_reads_back_under_forecast_expectations(self, tmp_path):
        # forecast expects the model, fit length and assets of the run that reads it
        path = tmp_path / "chain.csv"
        write_chain(_small_chain(), path, **FIT_RECORD)
        _, meta = read_chain(path, model="irsv", n_obs_fit=80, asset_ids=["s1"])
        assert meta["gap_scale_factor"] == 7.0
        with pytest.raises(ValueError, match="n_obs_fit"):
            read_chain(path, model="irsv", n_obs_fit=81, asset_ids=["s1"])

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf"), float("nan"), "7"])
    def test_bad_scale_factor_not_written(self, tmp_path, factor):
        path = tmp_path / "chain.csv"
        with pytest.raises(ValueError, match="gap_scale_factor"):
            write_chain(_small_chain(), path, **dict(FIT_RECORD, gap_scale_factor=factor))
        assert not path.exists()

    def test_awkward_floats(self, tmp_path):
        names = ("x",)
        values = np.array([[0.1], [1e-300], [-1e308], [3.141592653589793],
                           [2.2250738585072014e-308]])
        chain = McmcChain(names, values, {}, CONFIG)
        path = tmp_path / "chain.csv"
        write_chain(chain, path, **FIT_RECORD)
        np.testing.assert_array_equal(read_chain(path)[0].draws, values)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        write_chain(_small_chain(), path, **FIT_RECORD)
        (tmp_path / "chain.csv.meta.json").unlink()
        with pytest.raises(FileNotFoundError, match="chain.csv.meta.json"):
            read_chain(path)

    def test_width_mismatch_rejected(self, tmp_path):
        path = _write(tmp_path / "chain.csv", "a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="width"):
            read_chain(path)

    def test_unknown_version_rejected(self, tmp_path):
        chain = _small_chain()
        path = tmp_path / "chain.csv"
        write_chain(chain, path, **FIT_RECORD)
        meta_path = tmp_path / "chain.csv.meta.json"
        meta_path.write_text(meta_path.read_text().replace(
            '"format_version": 3', '"format_version": 99'))
        with pytest.raises(ValueError, match="version"):
            read_chain(path)


class TestWriteSummary:
    def test_table_layout(self, tmp_path):
        chain = McmcChain(("mu",), np.full((50, 1), -8.9997), {}, CONFIG)
        summary = summarize(chain)
        path = tmp_path / "summary.csv"
        write_summary(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "parameter,mean,sd,q2.5,q97.5"
        assert lines[1] == "mu,-8.9997,0.0000,-8.9997,-8.9997"

    def test_without_true_values(self, tmp_path):
        chain = McmcChain(("a", "b"), np.random.default_rng(3).normal(size=(40, 2)), {},
                          CONFIG)
        path = tmp_path / "summary.csv"
        write_summary(summarize(chain), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "parameter,mean,sd,q2.5,q97.5"
        assert len(lines) == 3

    def test_empty_summary_header_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary({}, path)
        assert path.read_text().splitlines() == ["parameter,mean,sd"]

    def test_non_ascii_rejected(self, tmp_path):
        chain = McmcChain(("µ",), np.zeros((5, 1)), {}, CONFIG)
        with pytest.raises(ValueError, match="ASCII"):
            write_summary(summarize(chain), tmp_path / "s.csv")


class TestForecastRoundTrip:
    ROWS = [["irsv", "s1", 1, -9.1, -10.3, -7.9, 1.2e-4, 0.0087, 0.0109],
            ["irsv", "s1", 5, -9.0, -10.9, -7.1, 0.1, 1 / 3, 2.2250738585072014e-308]]

    def test_file_layout(self, tmp_path):
        path = tmp_path / "forecast.csv"
        write_forecasts(path, self.ROWS)
        assert path.read_text().splitlines() == [
            "model,asset,horizon,h_mean,h_q2.5,h_q97.5,r2_forecast,absr_forecast,vol_forecast",
            "irsv,s1,1,-9.1,-10.3,-7.9,0.00012,0.0087,0.0109",
            "irsv,s1,5,-9.0,-10.9,-7.1,0.1,0.3333333333333333,2.2250738585072014e-308"]

    def test_read_back_by_name(self, tmp_path):
        path = tmp_path / "forecast.csv"
        write_forecasts(path, self.ROWS)
        assert read_forecasts(path) == [
            {"model": "irsv", "asset": "s1", "horizon": row[2], "r2_forecast": row[6],
             "absr_forecast": row[7], "vol_forecast": row[8]} for row in self.ROWS]
