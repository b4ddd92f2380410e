import numpy as np
import pytest

from climfact.climatology import (
    MonthlyBaseline,
    ScalarSeries,
    ShockConditioning,
    anomaly,
    compute_baseline,
    default_threshold,
    make_shocks,
    regional_mean,
    shock_variants,
)
from climfact.errors import (
    DataError,
    EmptyRegion,
    InsufficientHistory,
    NumericalError,
)
from climfact.grid import SurfaceSeries
from climfact.months import month_numbers
from climfact.synth import (
    EA_MONTHLY_NORMALS,
    TEMPERATURE_DEVIATION_MEANS,
    anomaly_scalar_series,
    ea_domain,
    normals_series,
    year_axis,
)


def _series(domain, values_per_month, years=(1970, 1999)):
    times = year_axis(*years)
    month = (times.astype(np.int64) % 12)
    cube = np.asarray(values_per_month)[month][:, None, None]
    cube = np.broadcast_to(cube, (len(times),) + domain.shape).copy()
    cube = np.where(domain.mask[None], cube, np.nan)
    return SurfaceSeries(domain, times, cube)


class TestBaseline:
    def test_constant_series(self, small_domain):
        series = _series(small_domain, [5.0] * 12)
        baseline = compute_baseline(series, (1970, 1999))
        assert np.allclose(baseline.month_means[:, small_domain.mask], 5.0)

    def test_month_index_series(self, small_domain):
        series = _series(small_domain, list(range(1, 13)))
        baseline = compute_baseline(series, (1970, 1999))
        for m in range(12):
            assert np.allclose(
                baseline.month_means[m][small_domain.mask], m + 1
            )

    def test_reference_fixture_reproduces_bundled_normals(self):
        series = normals_series(ea_domain(), "temperature")
        baseline = compute_baseline(series, (1950, 1980))
        for m, expected in enumerate(EA_MONTHLY_NORMALS["temperature"]):
            got = regional_mean(
                SurfaceSeries(series.domain, np.array(["2000-01"],
                                                      dtype="datetime64[M]"),
                              baseline.month_means[m][None]),
            ).values[0]
            assert got == pytest.approx(expected, abs=1e-9)

    def test_window_without_a_month_is_insufficient(self, small_domain):
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2001-09", "M"))
        series = SurfaceSeries(small_domain, times,
                               np.zeros((len(times),) + small_domain.shape))
        with pytest.raises(InsufficientHistory):
            compute_baseline(series, (2001, 2001))


class TestAnomaly:
    def test_anomaly_of_baseline_is_zero(self, small_domain, rng):
        base_values = rng.normal(size=(12,) + small_domain.shape)
        series = _series(small_domain, [0.0] * 12)
        baseline = compute_baseline(series, (1970, 1999))
        object.__setattr__(baseline, "month_means", base_values)
        rebuilt = SurfaceSeries(
            small_domain, series.times,
            baseline.month_means[month_numbers(series.times) - 1])
        a = anomaly(rebuilt, baseline)
        assert np.allclose(a.values[:, small_domain.mask], 0.0)

    def test_zero_baseline_returns_input(self, small_domain, rng):
        series = _series(small_domain, list(rng.normal(size=12)))
        baseline = compute_baseline(
            _series(small_domain, [0.0] * 12), (1970, 1999)
        )
        a = anomaly(series, baseline)
        np.testing.assert_allclose(
            a.values[:, small_domain.mask], series.values[:, small_domain.mask]
        )

    def test_warmed_fixture_hits_mean_deviation(self):
        target = TEMPERATURE_DEVIATION_MEANS["EA"]
        series = normals_series(ea_domain(), "temperature", warming=target)
        baseline = compute_baseline(series, (1950, 1980))
        scalar = regional_mean(anomaly(series, baseline))
        year = scalar.times.astype("datetime64[Y]").astype(int) + 1970
        window = (year >= 2001) & (year <= 2021)
        assert scalar.values[window].mean() == pytest.approx(target, abs=1e-9)


class TestRegionalMean:
    def test_full_domain_constant(self, small_domain):
        series = _series(small_domain, [3.0] * 12)
        assert np.allclose(regional_mean(series).values, 3.0)

    def test_single_cell_region(self, small_domain, rng):
        values = rng.normal(size=(12,) + small_domain.shape)
        times = year_axis(2001, 2001)
        series = SurfaceSeries(small_domain, times, values)
        region = np.zeros(small_domain.shape, dtype=bool)
        region[2, 1] = True
        np.testing.assert_allclose(
            regional_mean(series, region).values, values[:, 2, 1]
        )

    def test_matches_brute_force_weighted_mean(self, small_domain, rng):
        values = rng.normal(size=(12,) + small_domain.shape)
        series = SurfaceSeries(small_domain, year_axis(2001, 2001), values)
        region = rng.random(small_domain.shape) < 0.7
        region[0, 0] = True
        got = regional_mean(series, region).values
        comb = region & small_domain.mask
        w = small_domain.weights[comb]
        for t in range(12):
            expected = float(values[t][comb] @ w / w.sum())
            assert got[t] == pytest.approx(expected, abs=1e-13)

    def test_empty_region(self, small_domain):
        series = _series(small_domain, [0.0] * 12)
        with pytest.raises(EmptyRegion):
            regional_mean(series, np.zeros(small_domain.shape, dtype=bool))


def _scalar(values, start="2001-01"):
    times = np.datetime64(start, "M") + np.arange(len(values))
    return ScalarSeries(times, np.asarray(values, dtype=float))


class TestMakeShocks:
    def test_reference_positive_filter(self):
        # deviations around the euro-area temperature threshold of 1.30
        shock = make_shocks(_scalar([1.2, 1.4, -1.5]), 1.3,
                            ShockConditioning(sign="positive"))
        np.testing.assert_array_equal(shock.values, [0.0, 1.4, 0.0])
        assert shock.n_events == 1

    def test_all_below_threshold(self):
        shock = make_shocks(_scalar([0.5, -0.9, 1.0]), 1.3)
        assert shock.n_events == 0
        np.testing.assert_array_equal(shock.values, 0.0)

    def test_negative_filter_truth_table(self):
        shock = make_shocks(_scalar([-1.2, -1.4]), 1.3,
                            ShockConditioning(sign="negative"))
        np.testing.assert_array_equal(shock.values, [0.0, -1.4])

    def test_filter_truth_table_enumeration(self):
        # exhaustive check of sign x extreme combinations on a small grid
        values = [-3.0, -1.4, -1.0, 0.0, 1.0, 1.4, 3.0]
        thr = 1.3
        for sign in ("positive", "negative", "both"):
            for mult in (1.0, 2.0):
                shock = make_shocks(
                    _scalar(values), thr,
                    ShockConditioning(sign=sign, extreme_multiplier=mult),
                )
                for v, got in zip(values, shock.values):
                    passes = abs(v) >= thr * mult
                    if sign == "positive":
                        passes &= v > thr
                    elif sign == "negative":
                        passes &= v < -thr
                    else:
                        passes &= abs(v) > thr
                    assert got == (v if passes else 0.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            make_shocks(_scalar([1.0]), 0.0)

    def test_season_filter_uses_calendar_months(self):
        values = [5.0] * 12
        shock = make_shocks(_scalar(values, start="2001-01"), 1.0,
                            ShockConditioning(season="summer"))
        nonzero_months = (shock.times[shock.values != 0.0]
                          .astype(np.int64) % 12 + 1)
        assert sorted(nonzero_months) == [6, 7, 8]


class TestDefaultThreshold:
    def test_constant_de_fixture(self):
        target = TEMPERATURE_DEVIATION_MEANS["DE"]
        series = _scalar([target] * 252)
        assert default_threshold(series, (2001, 2021)) == pytest.approx(target)

    def test_zero_anomaly_flagged_degenerate(self):
        with pytest.raises(DataError, match=r"auto threshold over 2001-2021 "
                           r"is 0\.0; shocks need a strictly positive"):
            default_threshold(_scalar([0.0] * 252), (2001, 2021))

    def test_matches_mean_oracle(self, rng):
        values = rng.normal(1.0, 0.5, 252)
        series = ScalarSeries(year_axis(2001, 2021), values)
        assert default_threshold(series, (2001, 2021)) == pytest.approx(
            float(values.mean()), abs=1e-13
        )

    def test_exact_mean_fixture(self):
        series = anomaly_scalar_series(1.30)
        assert abs(default_threshold(series, (2001, 2021)) - 1.30) < 1e-9

    def test_window_outside_data(self):
        with pytest.raises(InsufficientHistory):
            default_threshold(_scalar([1.0] * 12, start="1990-01"), (2001, 2021))


class TestOverflow:
    """Finite values whose sum or difference passes the float range raise
    NumericalError, never a RuntimeWarning (warnings are errors here)."""

    def test_baseline_of_huge_values(self, small_domain):
        with pytest.raises(NumericalError,
                           match="^overflow encountered in reduce$"):
            compute_baseline(_series(small_domain, [1.5e308] * 12))

    def test_anomaly_from_an_opposite_baseline(self, small_domain):
        baseline = MonthlyBaseline(small_domain,
                                   np.full((12,) + small_domain.shape, 1e308))
        with pytest.raises(NumericalError,
                           match="^overflow encountered in subtract$"):
            anomaly(_series(small_domain, [-1.5e308] * 12), baseline)

    def test_threshold_of_huge_deviations(self):
        with pytest.raises(NumericalError,
                           match="^overflow encountered in reduce$"):
            default_threshold(_scalar([1.5e308] * 252), (2001, 2021))


class TestShockProperties:
    def test_season_partition_sums_to_all_season(self, rng):
        series = ScalarSeries(year_axis(2001, 2010),
                              rng.normal(1.0, 1.5, 120))
        table = shock_variants(series, 1.3)
        seasonal_sum = sum(table[s].values
                           for s in ("spring", "summer", "autumn", "winter"))
        np.testing.assert_array_equal(seasonal_sum, table["all"].values)

    def test_sign_exclusivity(self, rng):
        series = ScalarSeries(year_axis(2001, 2010),
                              rng.normal(0.0, 2.0, 120))
        table = shock_variants(series, 1.0)
        pos = table["positive"].values != 0.0
        neg = table["negative"].values != 0.0
        assert not np.any(pos & neg)

    def test_extreme_multiplier_monotone_sparsity(self, rng):
        series = ScalarSeries(year_axis(2001, 2010),
                              rng.normal(0.0, 2.0, 120))
        counts = []
        for mult in (1.0, 1.25, 1.5, 2.0, 3.0):
            shock = make_shocks(series, 1.0,
                                ShockConditioning(extreme_multiplier=mult))
            counts.append(shock.n_events)
        assert counts == sorted(counts, reverse=True)
