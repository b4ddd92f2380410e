"""Regular lat/lon raster geometry with a weighted inner product.

A GridDomain is the discrete stand-in for a geographic region: a regular
grid of cells, a validity mask, and nonnegative quadrature weights that
turn cell sums into area-weighted surface integrals. All surface algebra
(inner products, norms, factor extraction) runs through these weights, so
a masked-out cell can never influence a result.

Conformability is identity of the domain object: two surfaces interact
only when they reference the very same GridDomain instance. This rules
out silent mixing of structurally similar but distinct rasters.
"""

from dataclasses import dataclass, field

import numpy as np

from . import months
from .errors import EmptyDomain, NonConformable, NonConformableMask

EARTH_RADIUS_KM = 6371.0


def _readonly(a):
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Raster geometry: bounds in degrees, per-cell mask and weights.

    Weights are zero on masked-out cells, positive on valid ones, and sum
    to one over the valid cells, so the inner product of two constant-one
    surfaces is exactly one regardless of domain size.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    step_lat: float
    step_lon: float
    mask: np.ndarray
    weights: np.ndarray

    @property
    def n_lat(self):
        return self.mask.shape[0]

    @property
    def n_lon(self):
        return self.mask.shape[1]

    @property
    def shape(self):
        return self.mask.shape

    @property
    def n_valid(self):
        return int(self.mask.sum())

    @property
    def lat_centers(self):
        return self.lat_min + self.step_lat * (np.arange(self.n_lat) + 0.5)

    @property
    def lon_centers(self):
        return self.lon_min + self.step_lon * (np.arange(self.n_lon) + 0.5)

    @property
    def valid_weights(self):
        """Weights of the valid cells, row-major order."""
        return self.weights[self.mask]

    def contains(self, lat, lon):
        return (self.lat_min <= lat <= self.lat_max) and (
            self.lon_min <= lon <= self.lon_max
        )

    def cell_areas_km2(self):
        """Physical cell areas (km^2) on the sphere, full raster."""
        dphi = np.deg2rad(self.step_lat)
        dlam = np.deg2rad(self.step_lon)
        coslat = np.cos(np.deg2rad(self.lat_centers))
        row_area = (EARTH_RADIUS_KM * dphi) * (EARTH_RADIUS_KM * dlam) * coslat
        return np.repeat(row_area[:, None], self.n_lon, axis=1)


def _cell_counts(lat_min, lat_max, lon_min, lon_max, step_lat, step_lon):
    def count(extent, step, axis):
        n = int(round(extent / step))
        if n < 1 or abs(n * step - extent) > 1e-9 * max(1.0, abs(extent)):
            raise NonConformableMask(
                f"step {step} does not divide the {axis} extent {extent}"
            )
        return n

    return (
        count(lat_max - lat_min, step_lat, "latitude"),
        count(lon_max - lon_min, step_lon, "longitude"),
    )


def build_domain(bounds, step, mask=None, weighting="coslat"):
    """Build a GridDomain from bounds, step sizes and a validity mask.

    bounds: (lat_min, lat_max, lon_min, lon_max) in degrees.
    step: scalar degrees or (step_lat, step_lon).
    mask: boolean raster of shape (n_lat, n_lon); None means all valid.
    weighting: 'coslat' (area-proportional) or 'uniform'.
    """
    lat_min, lat_max, lon_min, lon_max = (float(b) for b in bounds)
    if np.isscalar(step):
        step_lat = step_lon = float(step)
    else:
        step_lat, step_lon = (float(s) for s in step)
    n_lat, n_lon = _cell_counts(lat_min, lat_max, lon_min, lon_max, step_lat, step_lon)

    if mask is None:
        mask = np.ones((n_lat, n_lon), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_lat, n_lon):
            raise NonConformableMask(
                f"mask shape {mask.shape} does not match grid shape {(n_lat, n_lon)}"
            )
    if not mask.any():
        raise EmptyDomain("mask leaves no valid cell")

    lat_centers = lat_min + step_lat * (np.arange(n_lat) + 0.5)
    if weighting == "coslat":
        raw = np.cos(np.deg2rad(lat_centers))
    elif weighting == "uniform":
        raw = np.ones(n_lat)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    weights = np.where(mask, raw[:, None], 0.0)
    total = weights.sum()
    if total <= 0:
        raise EmptyDomain("valid cells carry no positive weight")
    weights = weights / total

    return GridDomain(
        lat_min, lat_max, lon_min, lon_max, step_lat, step_lon,
        _readonly(mask), _readonly(weights),
    )


@dataclass(frozen=True, eq=False)
class Surface:
    """One field over a GridDomain; values on masked-out cells are ignored."""

    domain: GridDomain
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.domain.shape:
            raise NonConformable(
                f"surface shape {values.shape} does not match grid {self.domain.shape}"
            )
        if not np.all(np.isfinite(values[self.domain.mask])):
            raise NonConformable("surface has non-finite values on valid cells")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def valid_values(self):
        return self.values[self.domain.mask]


def _require_conformable(f, g):
    if f.domain is not g.domain:
        raise NonConformable("surfaces live on different grid domains")


def inner_product(f, g):
    """Weighted inner product sum_c w_c f_c g_c over valid cells."""
    _require_conformable(f, g)
    w = f.domain.valid_weights
    return float(np.sum(w * f.valid_values * g.valid_values))


def norm(f):
    """Norm induced by the weighted inner product."""
    w = f.domain.valid_weights
    return float(np.sqrt(np.sum(w * f.valid_values**2)))


@dataclass(frozen=True, eq=False)
class SurfaceSeries(months.MonthlySeries):
    """Monthly stack of fields over one shared GridDomain.

    values has shape (T, n_lat, n_lon); the time axis is strictly monthly.
    """

    domain: GridDomain
    times: np.ndarray
    values: np.ndarray = field(repr=False)
    name: str = "value"

    def __post_init__(self):
        self._set_axis("surface series", self.domain.shape, NonConformable)
        if not np.all(np.isfinite(self.values[:, self.domain.mask])):
            raise NonConformable("series has non-finite values on valid cells")
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "values", _readonly(self.values))

    def valid_matrix(self):
        """(T, n_valid) view of the valid cells, row-major cell order."""
        return self.values[:, self.domain.mask]
