import numpy as np
import pytest

from climfact import factors
from climfact.errors import (
    CenterOutsideDomain,
    ClimfactError,
    EmptyFootprint,
    InsufficientSample,
    NonConformable,
    ZeroCrossCovariance,
)
from climfact.factors import associated_factors, hat_matrix, hat_vector
from climfact.fira import (
    build_design,
    fit_fira,
    haversine_km,
    make_shock_surface,
    respond,
)
from climfact.grid import SurfaceSeries, build_domain
from climfact.ingest import ControlPanel, SectorPanel
from climfact.synth import de_domain, unit_bump_surface

MONTH0 = np.datetime64("2001-01", "M")


def _series(domain, cube, name="x"):
    cube = np.where(domain.mask[None], cube, np.nan)
    return SurfaceSeries(domain, MONTH0 + np.arange(cube.shape[0]), cube, name)


def _panel(values, cls=SectorPanel, prefix="S"):
    T, p = values.shape
    return cls(MONTH0 + np.arange(T),
               tuple(f"{prefix}{j}" for j in range(p)), values)


@pytest.fixture
def coarse_domain():
    return build_domain((50.0, 54.0, 8.0, 13.0), 1.0)


class TestBuildDesign:
    def test_contemporaneous_only(self, coarse_domain, rng):
        series = _series(coarse_domain,
                         rng.normal(size=(30,) + coarse_domain.shape))
        design = build_design(series, lags=(0, 0, 0))
        assert len(design.blocks) == 1
        assert design.blocks[0].source == "x"
        np.testing.assert_allclose(design.matrix, hat_matrix(series))
        assert np.array_equal(design.times, series.times)

    def test_composite_inner_product_is_block_sum(self, coarse_domain, rng):
        T = 40
        series = _series(coarse_domain,
                         rng.normal(size=(T,) + coarse_domain.shape))
        panel = _panel(rng.normal(size=(T, 3)))
        controls = _panel(rng.normal(size=(T, 2)), cls=ControlPanel, prefix="Z")
        design = build_design(series, y=panel, z=controls, lags=(1, 2, 1))
        xhat = hat_matrix(series)
        for row in (0, 5, len(design) - 1):
            t = 2 + row  # max lag is 2
            expected = float(xhat[t] @ xhat[t]) + float(xhat[t - 1] @ xhat[t - 1])
            expected += float(panel.values[t - 1] @ panel.values[t - 1])
            expected += float(panel.values[t - 2] @ panel.values[t - 2])
            expected += float(controls.values[t - 1] @ controls.values[t - 1])
            assert design.inner_product(row, row) == pytest.approx(expected)

    def test_pythagorean_identity(self, coarse_domain, rng):
        T = 40
        series = _series(coarse_domain,
                         rng.normal(size=(T,) + coarse_domain.shape))
        panel = _panel(rng.normal(size=(T, 3)))
        design = build_design(series, y=panel, lags=(0, 1, 0))
        for row in (0, 10):
            total = design.inner_product(row, row)
            parts = 0.0
            for block in design.blocks:
                seg = design.matrix[row, block.start:block.stop]
                parts += float(seg @ seg)
            assert total == pytest.approx(parts)

    def test_window_too_short(self, coarse_domain, rng):
        series = _series(coarse_domain,
                         rng.normal(size=(25,) + coarse_domain.shape))
        with pytest.raises(InsufficientSample):
            build_design(series, lags=(5, 0, 0))

    def test_standardize_scales_blocks(self, coarse_domain, rng):
        T = 40
        series = _series(coarse_domain,
                         10.0 * rng.normal(size=(T,) + coarse_domain.shape))
        panel = _panel(0.01 * rng.normal(size=(T, 3)))
        design = build_design(series, y=panel, lags=(0, 1, 0),
                              standardize=True)
        for block in design.blocks:
            seg = design.matrix[:, block.start:block.stop]
            assert np.var(seg, axis=0, ddof=1).sum() == pytest.approx(1.0)


class TestFitFira:
    def test_planted_lag_dominates(self, coarse_domain, rng):
        wins = 0
        n_sims = 12
        T = 260
        g = unit_bump_surface(coarse_domain, (52.0, 10.0), width_deg=1.5)
        ghat = np.nan_to_num(g) * coarse_domain.weights
        for _ in range(n_sims):
            cube = rng.normal(size=(T,) + coarse_domain.shape)
            proj = cube[:, coarse_domain.mask] @ ghat[coarse_domain.mask]
            y = rng.normal(size=(T, 3)) * 0.4
            y[3:, 0] += proj[:-3]  # sector 0 follows the surface 3 months late
            series = _series(coarse_domain, cube)
            panel = _panel(y)
            design = build_design(series, lags=(0, 0, 0))
            fitted = fit_fira(design, panel, h_max=6, tol=0.2)
            rho1 = np.array([e.rho[0] if e and e.k else 0.0
                             for e in fitted.by_horizon])
            wins += np.argmax(rho1) == 3
        assert wins >= 0.8 * n_sims

    def test_k_beside_a_permutation_null_is_refused(self, coarse_domain,
                                                     rng):
        cube = rng.normal(size=(40,) + coarse_domain.shape)
        design = build_design(_series(coarse_domain, cube), lags=(0, 0, 0))
        with pytest.raises(ValueError, match="k and permutation exclude"):
            fit_fira(design, _panel(rng.normal(size=(40, 3))), h_max=1, k=1,
                     permutation={"n": 9})

    def test_scaling_panel_leaves_rho_unchanged(self, coarse_domain, rng):
        T = 120
        cube = rng.normal(size=(T,) + coarse_domain.shape)
        y = rng.normal(size=(T, 3))
        y[:, 1] += cube[:, coarse_domain.mask].mean(axis=1)
        series = _series(coarse_domain, cube)
        design = build_design(series, lags=(0, 0, 0))
        base = fit_fira(design, _panel(y), h_max=2)
        doubled = fit_fira(design, _panel(2.0 * y), h_max=2)
        for e1, e2 in zip(base.by_horizon, doubled.by_horizon):
            assert e1.k == e2.k
            np.testing.assert_allclose(e1.rho, e2.rho, atol=1e-10)

    def test_independent_panel_killed_by_permutation(self, coarse_domain, rng):
        T = 160
        series = _series(coarse_domain,
                         rng.normal(size=(T,) + coarse_domain.shape))
        panel = _panel(rng.normal(size=(T, 3)))
        design = build_design(series, lags=(0, 0, 0))
        fitted = fit_fira(design, panel, h_max=4,
                          permutation={"n": 99, "level": 0.95}, rng=rng)
        k_per_h = [e.k if e else 0 for e in fitted.by_horizon]
        assert sum(k_per_h) <= 2  # mostly zero across five horizons

    def test_horizon_zero_matches_factor_module(self, coarse_domain, rng):
        T = 140
        cube = rng.normal(size=(T,) + coarse_domain.shape)
        series = _series(coarse_domain, cube)
        design = build_design(series, lags=(0, 0, 0))
        # the permutation case needs a link strong enough to clear the null
        for strength, permutation in ((0.8, None), (3.0, {"n": 49})):
            y = rng.normal(size=(T, 3))
            y[:, 0] += strength * cube[:, coarse_domain.mask].mean(axis=1)
            panel = _panel(y)
            fitted = fit_fira(design, panel, h_max=0, tol=0.15,
                              permutation=permutation,
                              rng=np.random.default_rng(5))
            reference = associated_factors(panel, series, tol=0.15,
                                           permutation=permutation,
                                           rng=np.random.default_rng(5))
            entry = fitted.by_horizon[0]
            assert entry.k == reference.k
            np.testing.assert_allclose(entry.rho, reference.rho, atol=1e-12)
            np.testing.assert_allclose(entry.a, reference.a, atol=1e-12)
            np.testing.assert_allclose(entry.b_hat, reference.b_hat,
                                       atol=1e-12)

    def test_staggered_windows_pair_correctly(self, coarse_domain, rng):
        # panel starts two years after the surface series; the planted
        # two-month lead must still be found at horizon 2
        T = 200
        cube = rng.normal(size=(T,) + coarse_domain.shape)
        series = _series(coarse_domain, cube)
        g = unit_bump_surface(coarse_domain, (52.0, 10.0), width_deg=1.5)
        proj = cube[:, coarse_domain.mask] @ (
            coarse_domain.weights[coarse_domain.mask] * g[coarse_domain.mask])
        offset = 24
        y = 0.3 * rng.normal(size=(T - offset, 3))
        y[:, 0] += proj[offset - 2:T - 2]  # depends on the field 2 months back
        panel = SectorPanel(series.times[offset:],
                            ("S0", "S1", "S2"), y)
        design = build_design(series, lags=(0, 0, 0))
        fitted = fit_fira(design, panel, h_max=4, tol=0.3)
        rho1 = np.array([e.rho[0] if e and e.k else 0.0
                         for e in fitted.by_horizon])
        assert np.argmax(rho1) == 2
        assert fitted.by_horizon[2].nobs == T - offset

    def test_failed_horizons_contribute_zero_response(self, coarse_domain,
                                                      rng):
        T = 160
        series = _series(coarse_domain,
                         rng.normal(size=(T,) + coarse_domain.shape))
        panel = _panel(rng.normal(size=(T, 3)))
        design = build_design(series, lags=(0, 0, 0))
        fitted = fit_fira(design, panel, h_max=4,
                          permutation={"n": 99, "level": 0.99}, rng=rng)
        failed = [h for h, e in zip(fitted.horizons, fitted.by_horizon)
                  if e is None]
        if failed:  # overwhelmingly likely with independent data
            shock = make_shock_surface(1.0, (52.0, 10.0), 200.0,
                                       coarse_domain)
            response = respond(fitted, shock)
            for h in failed:
                np.testing.assert_array_equal(response.canonical[h], 0.0)

    def test_diagonal_structure_of_canonical_coordinates(self, coarse_domain,
                                                         rng):
        T = 200
        cube = rng.normal(size=(T,) + coarse_domain.shape)
        y = rng.normal(size=(T, 4))
        y[:, 0] += cube[:, coarse_domain.mask][:, 3]
        y[:, 1] += cube[:, coarse_domain.mask][:, 10]
        series = _series(coarse_domain, cube)
        design = build_design(series, lags=(0, 0, 0))
        fitted = fit_fira(design, _panel(y), h_max=0, tol=1e-6)
        entry = fitted.by_horizon[0]
        ytil = y @ entry.a.T
        xtil = design.matrix @ entry.b_hat.T
        ytil -= ytil.mean(axis=0)
        xtil -= xtil.mean(axis=0)
        cross = ytil.T @ xtil / (T - 1)
        off_diag = cross - np.diag(np.diag(cross))
        assert np.abs(off_diag).max() < 1e-8
        np.testing.assert_allclose(np.diag(cross), entry.rho, atol=1e-10)

    @pytest.mark.parametrize("error,recorded", [
        (ZeroCrossCovariance("planted"), True),
        (np.linalg.LinAlgError("planted"), True),
        (TypeError("planted"), False),
    ])
    def test_only_estimation_failures_are_recorded(self, coarse_domain, rng,
                                                   monkeypatch, error,
                                                   recorded):
        # a package or linear-algebra failure leaves a gap at its horizon;
        # anything else is a fault and propagates
        T = 60
        series = _series(coarse_domain,
                         rng.normal(size=(T,) + coarse_domain.shape))
        design = build_design(series, lags=(0, 0, 0))

        def failing(*args, **kwargs):
            raise error
        monkeypatch.setattr(factors, "two_stage", failing)
        if not recorded:
            with pytest.raises(type(error), match="planted"):
                fit_fira(design, _panel(rng.normal(size=(T, 3))), h_max=1)
            return
        fitted = fit_fira(design, _panel(rng.normal(size=(T, 3))), h_max=1)
        assert fitted.by_horizon == (None, None)
        assert fitted.failures == tuple(
            (h, type(error).__name__, "planted") for h in (0, 1))

    def test_h_max_past_the_last_overlap_fails_before_any_fit(
            self, coarse_domain, rng, monkeypatch):
        # the panel covers design months 5..34, so at horizon 35 the
        # design's first month passes the panel's last
        T = 40
        series = _series(coarse_domain,
                         rng.normal(size=(T,) + coarse_domain.shape))
        design = build_design(series, lags=(0, 0, 0))
        panel = SectorPanel(series.times[5:35], ("S0", "S1"),
                            rng.normal(size=(30, 2)))
        windows = []

        def recording(y, v, **kwargs):
            windows.append((y, v))
            raise ZeroCrossCovariance("recorded")
        monkeypatch.setattr(factors, "two_stage", recording)
        with pytest.raises(InsufficientSample,
                           match="h_max 36 is past horizon 35"):
            fit_fira(design, panel, h_max=36)
        assert windows == []

        fitted = fit_fira(design, panel, h_max=35)
        short = [(h, "InsufficientSample",
                  f"{35 - h} overlapping months at horizon {h}")
                 for h in range(32, 36)]
        assert fitted.failures[-4:] == tuple(short)
        assert len(windows) == 32
        for h, (y, v) in enumerate(windows):
            # the months t of the panel with t - h in the design
            paired = np.isin(panel.times - h, design.times)
            assert y.tobytes() == panel.values[paired].tobytes()
            led = np.isin(design.times + h, panel.times)
            assert v.tobytes() == design.matrix[led].tobytes()

    def test_design_ending_before_the_panel_overlaps_zero_months(
            self, coarse_domain, rng):
        # design 2001-01..2003-12, panel 2006-01..2008-12: the first
        # overlap is at horizon 24
        series = _series(coarse_domain,
                         rng.normal(size=(36,) + coarse_domain.shape))
        design = build_design(series, lags=(0, 0, 0))
        panel = SectorPanel(np.datetime64("2006-01", "M") + np.arange(36),
                            ("S0", "S1"), rng.normal(size=(36, 2)))
        fitted = fit_fira(design, panel, h_max=3)
        assert fitted.failures == tuple(
            (h, "InsufficientSample", f"0 overlapping months at horizon {h}")
            for h in range(4))


class TestShockSurface:
    def test_footprint_area_close_to_disk(self):
        domain = de_domain(step=0.25)
        shock = make_shock_surface(1.5, (53.0, 11.5), 150.0, domain)
        target = np.pi * 150.0**2
        assert abs(shock.footprint_area_km2 - target) / target < 0.05

    def test_disk_profile_flat_inside_zero_outside(self):
        domain = de_domain(step=0.5)
        shock = make_shock_surface(1.5, (52.0, 10.0), 120.0, domain,
                                   profile="disk")
        values = shock.surface.values
        lat = np.repeat(domain.lat_centers[:, None], domain.n_lon, axis=1)
        lon = np.repeat(domain.lon_centers[None, :], domain.n_lat, axis=0)
        dist = haversine_km(52.0, 10.0, lat, lon)
        inside = dist <= 120.0
        assert np.all(values[inside & domain.mask] == 1.5)
        assert np.all(values[~inside & domain.mask] == 0.0)

    def test_taper_peaks_at_magnitude_and_dies_at_rim(self):
        domain = de_domain(step=0.25)
        center = (float(domain.lat_centers[12]), float(domain.lon_centers[14]))
        shock = make_shock_surface(2.0, center, 150.0, domain)
        values = shock.surface.values
        i, j = 12, 14
        assert values[i, j] == pytest.approx(2.0, abs=1e-12)
        outside = np.nan_to_num(values)
        lat = np.repeat(domain.lat_centers[:, None], domain.n_lon, axis=1)
        lon = np.repeat(domain.lon_centers[None, :], domain.n_lat, axis=0)
        dist = haversine_km(center[0], center[1], lat, lon)
        assert np.all(outside[dist > 150.0] == 0.0)
        rim = (dist > 140.0) & (dist <= 150.0) & domain.mask
        assert np.all(values[rim] < 0.05)

    def test_center_outside_domain(self):
        domain = de_domain(step=0.5)
        with pytest.raises(CenterOutsideDomain):
            make_shock_surface(1.0, (30.0, 10.0), 100.0, domain)

    def test_empty_footprint(self):
        mask = np.ones((16, 18), dtype=bool)
        mask[:8, :] = False  # mask away the southern half
        domain = build_domain((47.0, 55.0, 6.0, 15.0), 0.5, mask)
        with pytest.raises(EmptyFootprint):
            make_shock_surface(1.0, (48.0, 10.0), 60.0, domain)


class TestRespond:
    def _fitted(self, domain, rng, T=150, planted=0):
        cube = rng.normal(size=(T,) + domain.shape)
        y = rng.normal(size=(T, 3)) * 0.3
        g = unit_bump_surface(domain, (52.0, 10.0), width_deg=1.5)
        proj = cube[:, domain.mask] @ (domain.valid_weights * g[domain.mask])
        y[:, planted] += 2.0 * proj / proj.std()
        series = _series(domain, cube)
        design = build_design(series, lags=(0, 0, 0))
        return fit_fira(design, _panel(y), h_max=3), series

    def test_zero_magnitude_gives_zero_path(self, coarse_domain, rng):
        fitted, _ = self._fitted(coarse_domain, rng)
        shock = make_shock_surface(0.0, (52.0, 10.0), 200.0, coarse_domain)
        response = respond(fitted, shock)
        np.testing.assert_array_equal(response.canonical, 0.0)
        np.testing.assert_array_equal(response.percentage_points, 0.0)

    def test_linearity_in_magnitude(self, coarse_domain, rng):
        fitted, _ = self._fitted(coarse_domain, rng)
        small = respond(fitted, make_shock_surface(1.0, (52.0, 10.0), 200.0,
                                                   coarse_domain))
        large = respond(fitted, make_shock_surface(3.0, (52.0, 10.0), 200.0,
                                                   coarse_domain))
        nz = np.abs(small.canonical) > 0
        rel = np.abs(large.canonical[nz] - 3.0 * small.canonical[nz]) / np.abs(
            3.0 * small.canonical[nz])
        assert rel.max() < 1e-12

    def test_planted_sector_dominates(self, coarse_domain, rng):
        hits = 0
        n_sims = 10
        for _ in range(n_sims):
            fitted, _ = self._fitted(coarse_domain, rng, planted=1)
            shock = make_shock_surface(1.5, (52.0, 10.0), 250.0, coarse_domain)
            response = respond(fitted, shock)
            hits += np.argmax(np.abs(response.canonical[0])) == 1
        assert hits >= 0.8 * n_sims

    def test_location_sensitivity(self, coarse_domain, rng):
        # loading lives near (52, 10); a same-size shock far away must
        # project onto the first direction more weakly
        fitted, _ = self._fitted(coarse_domain, rng)
        entry = fitted.by_horizon[0]
        x0 = fitted.blocks[0]
        near = make_shock_surface(1.5, (52.0, 9.5), 150.0, coarse_domain)
        far = make_shock_surface(1.5, (50.5, 12.5), 150.0, coarse_domain)
        b1 = entry.b_hat[0, x0.start:x0.stop]
        load_near = abs(float(b1 @ hat_vector(near.surface)))
        load_far = abs(float(b1 @ hat_vector(far.surface)))
        assert load_near > load_far

    def test_shock_on_wrong_domain_rejected(self, coarse_domain, rng):
        fitted, _ = self._fitted(coarse_domain, rng)
        other = build_domain((50.0, 54.0, 8.0, 13.0), 1.0)
        shock = make_shock_surface(1.0, (52.0, 10.0), 150.0, other)
        with pytest.raises(NonConformable):
            respond(fitted, shock)


class TestSharedGram:
    """fit_fira cuts every horizon's Gram from one product over the design
    rows; each horizon must match two_stage on its own window."""

    @pytest.mark.parametrize("start", [-7, 0, 9])
    @pytest.mark.parametrize("last", [True, False])
    @pytest.mark.parametrize("permutation", [None, {"n": 9, "level": 0.8}])
    def test_each_horizon_matches_a_fresh_window_gram(self, rng, start, last,
                                                      permutation):
        # D = 8 design columns, fewer than any window's rows, so a real
        # link can clear the null
        domain = build_domain((50.0, 52.0, 8.0, 10.0), 1.0)
        T, t_y = 48, 36
        cube = rng.normal(size=(T,) + domain.shape) + 0.5
        series = _series(domain, cube)
        design = build_design(series, lags=(1, 0, 0))
        times = design.times[0] + start + np.arange(t_y)
        y = 0.3 * rng.normal(size=(t_y, 3))
        # sector 0 follows the field's mean over the last five months,
        # where known, so the link shows at every short horizon
        signal = dict(zip(series.times, 4.0 * cube.mean(axis=(1, 2))))
        y[:, 0] += [sum(signal.get(t - k, 0.0) for k in range(5))
                    for t in times]
        panel = SectorPanel(times, ("S0", "S1", "S2"), y)
        # out to no overlap at all, or few enough horizons that the
        # shared Gram starts past the design's first row when start > 0
        h_max = t_y + start if last else 4
        ours, reference = np.random.default_rng(11), np.random.default_rng(11)
        fitted = fit_fira(design, panel, h_max=h_max, tol=0.2,
                          permutation=permutation, rng=ours)
        fits = 0
        for h, entry in zip(fitted.horizons, fitted.by_horizon):
            yrows = np.isin(panel.times - h, design.times)
            drows = np.isin(design.times + h, panel.times)
            v = design.matrix[drows]
            want = None
            if yrows.sum() >= 5:  # fit_fira's floor, p + 2 rows
                try:
                    want = factors.two_stage(
                        panel.values[yrows], v, v @ v.T, tol=0.2,
                        permutation=permutation, rng=reference)
                except (ClimfactError, np.linalg.LinAlgError):
                    pass
            if want is None:
                assert entry is None
                continue
            fits += 1
            assert entry.nobs == yrows.sum()
            for got, ref in ((entry.rho, want[1]), (entry.a, want[2]),
                             (entry.b_hat, want[3])):
                np.testing.assert_allclose(got, ref, rtol=1e-10,
                                           atol=1e-10 * np.abs(ref).max())
        assert fits >= 3
        assert ours.bit_generator.state == reference.bit_generator.state


class TestProductionScale:
    def test_native_grid_many_sectors_runs_quickly(self, rng):
        # 0.25-degree national grid, 80 sectors, 21 years of months
        import time

        from climfact.synth import de_domain, smooth_anomaly_series

        start = time.perf_counter()
        domain = de_domain(step=0.25)
        series = smooth_anomaly_series(domain, 252, rng)
        panel = SectorPanel(series.times,
                            tuple(f"CP{j:03d}" for j in range(80)),
                            rng.normal(size=(252, 80)))
        design = build_design(series, y=panel, lags=(2, 1, 0))
        fitted = fit_fira(design, panel, h_max=12, tol=0.2)
        shock = make_shock_surface(1.5, (53.0, 11.5), 150.0, domain)
        response = respond(fitted, shock)
        assert response.canonical.shape == (13, 80)
        assert time.perf_counter() - start < 30.0
