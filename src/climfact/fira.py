"""Functional impulse-response analysis over lagged mixed designs.

The design at time t stacks the contemporaneous surface, its lags, lagged
panel vectors and lagged controls into one composite element whose inner
product is the sum of per-block inner products (surface blocks use the
weighted surface product, vector blocks the Euclidean one). For each
horizon h the associated-factor pipeline runs between the panel at t and
the design at t-h; the resulting correlations and paired directions are
the functional impulse responses. Evaluating the surface sub-block of the
design-side directions against a synthetic, spatially parameterized
shock turns them into per-sector response paths.
"""

from dataclasses import dataclass, field

import numpy as np

from . import factors as af
from .errors import (
    CenterOutsideDomain,
    ClimfactError,
    EmptyFootprint,
    InsufficientSample,
    NonConformable,
)
from .grid import EARTH_RADIUS_KM, Surface, SurfaceSeries
from .ingest import SectorPanel, align

MIN_DESIGN_WINDOW = 24


# -- design ---------------------------------------------------------------


@dataclass(frozen=True)
class DesignBlock:
    """One lag of one source inside the flattened design vector."""

    source: str        # 'x', 'y' or 'z'
    lag: int
    start: int
    stop: int
    scale: float = 1.0


@dataclass(frozen=True, eq=False)
class LaggedDesign:
    """Flattened design rows with block bookkeeping.

    matrix[t] holds the hat coordinates of the composite element at
    times[t]; dotting two rows evaluates the block-sum inner product.
    """

    times: np.ndarray
    matrix: np.ndarray = field(repr=False)
    blocks: tuple
    domain: object

    def __len__(self):
        return len(self.times)

    def inner_product(self, i, j):
        return float(self.matrix[i] @ self.matrix[j])


def build_design(x, y=None, z=None, lags=(0, 0, 0), standardize=False):
    """Assemble the lagged composite design from a surface series and panels.

    lags = (q, s, l): surface lags 0..q, panel lags 1..s, control lags
    1..l. Passing y or z as None drops that source. standardize divides
    each block by the square root of its total sample variance so blocks
    of very different scales contribute comparably.
    """
    q, s, l = lags
    sources = [("x", x, range(0, q + 1))]
    if y is not None and s > 0:
        sources.append(("y", y, range(1, s + 1)))
    if z is not None and l > 0:
        sources.append(("z", z, range(1, l + 1)))

    objs, _ = align(*(obj for _, obj, _ in sources))
    sources = [(name, obj, lag_range)
               for (name, _, lag_range), obj in zip(sources, objs)]

    times = np.asarray(sources[0][1].times)
    max_lag = max(max(r) for _, _, r in sources)
    n = len(times) - max_lag
    if n < MIN_DESIGN_WINDOW:
        raise InsufficientSample(
            f"design window of {n} months after lag trimming is below "
            f"{MIN_DESIGN_WINDOW}"
        )
    rows = np.arange(max_lag, len(times))

    columns = []
    blocks = []
    offset = 0
    for name, obj, lag_range in sources:
        full = (af.hat_matrix(obj) if isinstance(obj, SurfaceSeries)
                else obj.values)
        for lag in lag_range:
            cols = full[rows - lag]
            scale = 1.0
            if standardize:
                total_var = float(np.var(cols, axis=0, ddof=1).sum())
                if total_var > 0:
                    scale = 1.0 / np.sqrt(total_var)
            columns.append(cols * scale)
            blocks.append(DesignBlock(
                source=name, lag=lag,
                start=offset, stop=offset + cols.shape[1], scale=scale,
            ))
            offset += cols.shape[1]
    return LaggedDesign(
        times=times[rows], matrix=np.hstack(columns), blocks=tuple(blocks),
        domain=x.domain,
    )


# -- per-horizon factor extraction ----------------------------------------


@dataclass(frozen=True, eq=False)
class FiraHorizon:
    """Canonical triplets linking the panel at t to the design at t-h."""

    h: int
    rho: np.ndarray
    a: np.ndarray                  # (K, p)
    b_hat: np.ndarray = field(repr=False)  # (K, D) in design hat coordinates
    nobs: int = 0

    @property
    def k(self):
        return len(self.rho)


@dataclass(frozen=True, eq=False)
class FiraResult:
    horizons: np.ndarray
    by_horizon: tuple              # FiraHorizon or None per horizon
    failures: tuple
    blocks: tuple
    domain: object
    sector_ids: tuple
    y_sd: np.ndarray


def fit_fira(design, panel, h_max=12, tol=0.1, k=None, permutation=None,
             rng=None):
    """Associated factors between the panel and the lagged design per horizon.

    permutation, when given (a dict with n and level; never beside k),
    calibrates the retained count per horizon against shuffled nulls.
    Failures at individual horizons (a ClimfactError such as no
    detectable association, or a LinAlgError) are recorded and leave a
    gap; they never abort the fit. Any other exception is a fault and
    propagates. An h_max past the horizon at which the design's first
    month passes the panel's last month raises InsufficientSample before
    any fit.
    """
    af._check_k_or_permutation(k, permutation)
    if not isinstance(panel, SectorPanel):
        raise NonConformable("fit_fira needs a sector panel")
    if permutation is not None and rng is None:
        rng = np.random.default_rng(42)
    # panel row j is design row j + shift, so horizon h pairs panel row j
    # with design row j + shift - h
    shift = int((panel.times[0] - design.times[0]) / np.timedelta64(1, "M"))
    t_y, t_d = len(panel.times), len(design.times)
    # at this horizon the design's first month, led by h, passes the
    # panel's last month; past it no month overlaps
    none_left = t_y + shift
    if h_max > none_left:
        raise InsufficientSample(
            f"h_max {h_max} is past horizon {none_left}, where the design's "
            f"first month passes the panel's last month")
    # one Gram over every design row a horizon reads; each takes a block
    lo = max(0, shift - h_max)
    window = design.matrix[lo:min(t_d, none_left)]
    gram = window @ window.T
    p = panel.values.shape[1]
    per_h = []
    failures = []
    for h in range(h_max + 1):
        yrows = max(0, h - shift)
        n = max(0, min(t_y, t_d + h - shift) - yrows)
        if n < max(p + 2, 3):
            failures.append((h, "InsufficientSample",
                             f"{n} overlapping months at horizon {h}"))
            per_h.append(None)
            continue
        rows = slice(yrows + shift - h - lo, yrows + shift - h - lo + n)
        y = panel.values[yrows:yrows + n]
        try:
            _, rho, a, b_hat, _, _ = af.two_stage(
                y, window[rows], gram=gram[rows, rows], tol=tol, k=k,
                permutation=permutation, rng=rng,
            )
            per_h.append(FiraHorizon(h=h, rho=rho, a=a, b_hat=b_hat, nobs=n))
        except (ClimfactError, np.linalg.LinAlgError) as exc:
            failures.append((h, type(exc).__name__, str(exc)))
            per_h.append(None)
    return FiraResult(
        horizons=np.arange(h_max + 1), by_horizon=tuple(per_h),
        failures=tuple(failures), blocks=design.blocks, domain=design.domain,
        sector_ids=panel.sector_ids,
        y_sd=np.std(panel.values, axis=0, ddof=1),
    )


# -- parameterized spatial shocks -----------------------------------------


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between (lat1, lon1) and point arrays."""
    phi1, phi2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dphi = phi2 - phi1
    dlam = np.deg2rad(lon2) - np.deg2rad(lon1)
    a = np.sin(dphi / 2) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass(frozen=True, eq=False)
class ShockSurface:
    """Synthetic anomaly with controlled magnitude, location and radius."""

    magnitude: float
    center: tuple
    radius_km: float
    profile: str
    surface: Surface
    footprint_area_km2: float
    n_cells: int


def make_shock_surface(magnitude, center, radius_km, domain,
                       profile="cosine-taper"):
    """Realize a compactly supported shock surface on the domain.

    Membership uses great-circle distance from cell centers to the shock
    center. The disk profile is flat at the magnitude; the cosine taper
    peaks at the magnitude in the center and falls smoothly to zero at
    the rim. The footprint area sums the physical areas of the valid
    cells inside the radius.
    """
    lat0, lon0 = center
    if not domain.contains(lat0, lon0):
        raise CenterOutsideDomain(
            f"center {center} outside bounds "
            f"[{domain.lat_min}, {domain.lat_max}] x "
            f"[{domain.lon_min}, {domain.lon_max}]"
        )
    if radius_km <= 0:
        raise ValueError("radius must be positive")
    if profile not in ("disk", "cosine-taper"):
        raise ValueError(f"unknown profile {profile!r}")

    lat_grid = np.repeat(domain.lat_centers[:, None], domain.n_lon, axis=1)
    lon_grid = np.repeat(domain.lon_centers[None, :], domain.n_lat, axis=0)
    dist = haversine_km(lat0, lon0, lat_grid, lon_grid)
    inside = (dist <= radius_km) & domain.mask
    if not inside.any():
        raise EmptyFootprint(
            f"no valid cell within {radius_km} km of {center}"
        )
    if profile == "disk":
        values = np.where(inside, float(magnitude), 0.0)
    else:
        taper = 0.5 * (1.0 + np.cos(np.pi * dist / radius_km))
        values = np.where(inside, float(magnitude) * taper, 0.0)
    values = np.where(domain.mask, values, np.nan)
    area = float(domain.cell_areas_km2()[inside].sum())
    return ShockSurface(
        magnitude=float(magnitude), center=(float(lat0), float(lon0)),
        radius_km=float(radius_km), profile=profile,
        surface=Surface(domain, values), footprint_area_km2=area,
        n_cells=int(inside.sum()),
    )


# -- responses --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResponseResult:
    """Per-sector response paths to one shock surface.

    canonical is the raw formula output (unit-variance direction scale);
    percentage_points rescales each sector by its sample standard
    deviation so entries read in the panel's units.
    """

    sector_ids: tuple
    horizons: np.ndarray
    canonical: np.ndarray          # (h_max+1, p)
    percentage_points: np.ndarray  # (h_max+1, p)
    shock: ShockSurface


def respond(fira, shock):
    """Evaluate response = sum_k rho_k <b_k|x0, shock> a_k per horizon."""
    if shock.surface.domain is not fira.domain:
        raise NonConformable("shock does not live on the design's domain")
    x0 = None
    for b in fira.blocks:
        if b.source == "x" and b.lag == 0:
            x0 = b
            break
    if x0 is None:
        raise NonConformable("design has no contemporaneous surface block")
    shock_hat = af.hat_vector(shock.surface) * x0.scale
    p = len(fira.sector_ids)
    canonical = np.zeros((len(fira.horizons), p))
    for h, entry in zip(fira.horizons, fira.by_horizon):
        if entry is None:
            continue
        loadings = entry.b_hat[:, x0.start:x0.stop] @ shock_hat  # (K,)
        canonical[h] = (entry.rho * loadings) @ entry.a
    return ResponseResult(
        sector_ids=fira.sector_ids, horizons=fira.horizons,
        canonical=canonical, percentage_points=canonical * fira.y_sd,
        shock=shock,
    )
