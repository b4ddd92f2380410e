import numpy as np
import pytest

from climfact.errors import EmptyDomain, NonConformable, NonConformableMask
from climfact.grid import (
    EARTH_RADIUS_KM,
    Surface,
    SurfaceSeries,
    build_domain,
    inner_product,
    norm,
)

from conftest import brute_force_inner


class TestBuildDomain:
    def test_equal_latitude_weights_are_uniform(self):
        # rows symmetric about the equator share the same cosine
        domain = build_domain((-1.0, 1.0, 0.0, 2.0), 1.0)
        assert np.allclose(domain.weights, 0.25)

    def test_one_masked_cell_renormalizes_to_thirds(self):
        mask = np.array([[True, True], [True, False]])
        domain = build_domain((-1.0, 1.0, 0.0, 2.0), 1.0, mask)
        assert domain.weights[1, 1] == 0.0
        assert np.allclose(domain.weights[mask], 1.0 / 3.0)
        assert domain.weights.sum() == pytest.approx(1.0)

    def test_quarter_degree_cell_edge_is_roughly_25km(self):
        edge_km = 2 * np.pi * EARTH_RADIUS_KM / 360.0 * 0.25
        assert abs(edge_km - 25.0) < 5.0

    def test_mask_shape_mismatch(self):
        with pytest.raises(NonConformableMask):
            build_domain((0.0, 2.0, 0.0, 2.0), 1.0, np.ones((3, 3), dtype=bool))

    def test_all_masked_is_empty_domain(self):
        with pytest.raises(EmptyDomain):
            build_domain((0.0, 2.0, 0.0, 2.0), 1.0, np.zeros((2, 2), dtype=bool))

    def test_step_must_divide_extent(self):
        with pytest.raises(NonConformableMask):
            build_domain((0.0, 2.5, 0.0, 2.0), 1.0)

    def test_weights_zero_off_mask_positive_on_mask(self, rng):
        mask = rng.random((6, 7)) < 0.6
        mask[0, 0] = True
        domain = build_domain((40.0, 46.0, 0.0, 7.0), 1.0, mask)
        assert np.all(domain.weights[~mask] == 0.0)
        assert np.all(domain.weights[mask] > 0.0)
        assert domain.weights.sum() == pytest.approx(1.0)


class TestInnerProduct:
    def test_constant_one_gives_one(self, small_domain):
        f = Surface(small_domain, np.ones(small_domain.shape))
        assert inner_product(f, f) == pytest.approx(1.0)

    def test_single_cell_indicator_gives_its_weight(self, small_domain):
        values = np.zeros(small_domain.shape)
        values[1, 2] = 1.0
        f = Surface(small_domain, values)
        g = Surface(small_domain, np.ones(small_domain.shape))
        assert inner_product(f, g) == pytest.approx(small_domain.weights[1, 2])

    def test_matches_brute_force_oracle(self, small_domain, rng):
        for _ in range(25):
            fv = rng.normal(size=small_domain.shape)
            gv = rng.normal(size=small_domain.shape)
            expected = brute_force_inner(small_domain, fv, gv)
            got = inner_product(Surface(small_domain, fv),
                                Surface(small_domain, gv))
            assert got == pytest.approx(expected, abs=1e-14)

    def test_symmetry_and_bilinearity(self, small_domain, rng):
        fv, gv, hv = rng.normal(size=(3,) + small_domain.shape)
        f, g, h = (Surface(small_domain, v) for v in (fv, gv, hv))
        assert inner_product(f, g) == pytest.approx(inner_product(g, f))
        combo = Surface(small_domain, 2.0 * gv + 3.0 * hv)
        assert inner_product(f, combo) == pytest.approx(
            2.0 * inner_product(f, g) + 3.0 * inner_product(f, h)
        )

    def test_different_domains_never_conformable(self):
        a = build_domain((0.0, 2.0, 0.0, 2.0), 1.0)
        b = build_domain((0.0, 2.0, 0.0, 2.0), 1.0)  # equal shape, new object
        with pytest.raises(NonConformable):
            inner_product(Surface(a, np.zeros(a.shape)),
                          Surface(b, np.zeros(b.shape)))

    def test_masked_cells_never_contribute(self, rng):
        mask = np.array([[True, False], [True, True]])
        domain = build_domain((0.0, 2.0, 0.0, 2.0), 1.0, mask)
        base = rng.normal(size=domain.shape)
        tweaked = base.copy()
        tweaked[0, 1] = 1e9
        g = Surface(domain, rng.normal(size=domain.shape))
        assert inner_product(Surface(domain, base), g) == pytest.approx(
            inner_product(Surface(domain, tweaked), g)
        )


class TestNorm:
    def test_zero_surface(self, small_domain):
        assert norm(Surface(small_domain, np.zeros(small_domain.shape))) == 0.0

    def test_constant_surface(self, small_domain):
        f = Surface(small_domain, np.full(small_domain.shape, -3.5))
        assert norm(f) == pytest.approx(3.5)

    def test_norm_matches_oracle(self, small_domain, rng):
        fv = rng.normal(size=small_domain.shape)
        expected = np.sqrt(brute_force_inner(small_domain, fv, fv))
        assert norm(Surface(small_domain, fv)) == pytest.approx(expected)

    def test_zero_iff_vanishing_on_valid_cells(self):
        mask = np.array([[True, False], [True, True]])
        domain = build_domain((0.0, 2.0, 0.0, 2.0), 1.0, mask)
        values = np.zeros(domain.shape)
        values[0, 1] = 42.0  # masked cell only
        assert norm(Surface(domain, values)) == 0.0


class TestCauchySchwarz:
    def test_property_on_random_surfaces(self, rng):
        for _ in range(200):
            n_lat, n_lon = rng.integers(1, 5, 2)
            mask = rng.random((n_lat, n_lon)) < 0.8
            mask.flat[rng.integers(0, mask.size)] = True
            domain = build_domain(
                (30.0, 30.0 + float(n_lat), 0.0, float(n_lon)), 1.0, mask
            )
            f = Surface(domain, rng.normal(size=domain.shape) * 10)
            g = Surface(domain, rng.normal(size=domain.shape) * 10)
            assert abs(inner_product(f, g)) <= norm(f) * norm(g) + 1e-10
            assert inner_product(f, f) >= 0.0


class TestSurfaceSeries:
    def test_requires_monthly_axis(self, small_domain):
        times = np.array(["2001-01", "2001-03"], dtype="datetime64[M]")
        from climfact.errors import IrregularCalendar

        with pytest.raises(IrregularCalendar):
            SurfaceSeries(small_domain, times,
                          np.zeros((2,) + small_domain.shape))

    def test_slice_window(self, small_domain):
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2002-01", "M"))
        series = SurfaceSeries(small_domain, times,
                               np.zeros((12,) + small_domain.shape))
        cut = series.slice_window(np.datetime64("2001-04", "M"),
                                  np.datetime64("2001-06", "M"))
        assert len(cut) == 3

    def test_rejects_nan_on_valid_cells(self, small_domain):
        values = np.zeros((1,) + small_domain.shape)
        values[0, 0, 0] = np.nan
        with pytest.raises(NonConformable):
            SurfaceSeries(small_domain,
                          np.array(["2001-01"], dtype="datetime64[M]"), values)

    @pytest.mark.parametrize("month,cell", [(2, (0, 0)), (0, (1, 1)),
                                            (1, (0, 1))])
    def test_finiteness_reads_valid_cells_only(self, month, cell):
        # cell (0, 1) is masked, and NaN in every month
        mask = np.array([[True, False], [True, True]])
        domain = build_domain((0.0, 2.0, 0.0, 2.0), 1.0, mask)
        values = np.where(mask, 1.0, np.nan)[None].repeat(3, axis=0)
        values[month][cell] = np.inf
        times = np.arange(np.datetime64("2001-01", "M"),
                          np.datetime64("2001-04", "M"))
        if mask[cell]:
            with pytest.raises(NonConformable,
                               match="non-finite values on valid cells"):
                SurfaceSeries(domain, times, values)
        else:
            assert SurfaceSeries(domain, times, values).domain is domain
